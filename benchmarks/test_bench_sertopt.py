"""SERTOPT benchmark — serial, per-gate-batched (PR 4) and level-batched.

Three generations of the Section-4 inner loop run on c432 at the
paper-default :class:`SertoptConfig` (150 cost evaluations, 10 000
sensitization vectors, the coordinate driver):

* the serial one-candidate-at-a-time objective
  (``batched_evaluation=False``);
* the PR-4 population pipeline with the per-gate matcher
  (``level_batched_matching=False`` — one ``(lanes, cells)`` score
  block per reverse-topological gate);
* the current default: the level-batched matcher (one
  ``(lanes, gates, cells)`` block per reverse logic level).

Gates:

* **Matcher kernel ≥ 2×** — ``match_batch`` on paper-default candidate
  populations (full pass and the delta-aware dirty-wave pass), per-gate
  vs level-batched, with *bitwise identical* chosen cells.  This is the
  PR-5 tentpole floor over the PR-4 matcher.
* **End-to-end ≥ 4×** — serial objective vs the level-batched default
  (raised from the PR-4 floor of 3×), per-evaluation costs within 1e-9
  relative.
* The two batched flows must visit a **bitwise identical** coordinate
  trajectory (equal ``x``, equal evaluation counts, bit-equal history),
  and the level-batched flow must not regress against the per-gate one
  (≥ 1.15× end to end; the measured ratio is recorded in the JSON).

Records ``BENCH_sertopt.json`` (when ``REPRO_BENCH_WRITE=1``) for the
CI benchmark artifact upload and ``docs/performance.md`` regeneration.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from bench_json import write_bench_json
from repro.circuit.iscas85 import iscas85_circuit
from repro.core.baseline import size_for_speed
from repro.core.matching import MatchingEngine
from repro.core.sertopt import Sertopt, SertoptConfig
from repro.engine import AnalysisEngine
from repro.experiments.table1_optimization import PAPER_MENUS
from repro.tech.electrical_view import CircuitElectrical
from repro.tech.library import CellLibrary

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_sertopt.json"
#: Tentpole floor: level-batched vs per-gate ``match_batch`` on
#: paper-default populations (full + delta pass combined).
MIN_MATCH_SPEEDUP = 2.0
#: End-to-end floor: serial objective vs level-batched optimize().
MIN_E2E_SPEEDUP = 4.0
#: Regression floor: the level-batched default must beat the PR-4
#: per-gate-batched flow end to end.
MIN_LEVEL_VS_GATE = 1.15
CIRCUIT = "c432"
#: Lanes of the matcher microbenchmark — the round-0 population of the
#: default coordinate probe chunk (4 dimensions × ± probes).
MATCH_LANES = 8


def _optimize(circuit, library, engine, batched: bool, level: bool):
    config = SertoptConfig(
        batched_evaluation=batched, level_batched_matching=level
    )
    sertopt = Sertopt(circuit, library=library, config=config, engine=engine)
    started = time.perf_counter()
    result = sertopt.optimize()
    return result, time.perf_counter() - started


def _probe_population(circuit, base_targets, seed=0, lanes=MATCH_LANES):
    """Coordinate-probe-shaped delay targets: each lane perturbs a
    handful of gates multiplicatively, like a sparse nullspace move."""
    idx = circuit.indexed()
    rng = np.random.default_rng(seed)
    targets = np.tile(base_targets, (lanes, 1))
    for lane in range(lanes):
        picks = rng.choice(idx.gate_rows, size=6, replace=False)
        targets[lane, picks] *= rng.uniform(0.5, 2.0, picks.size)
    return targets


def _time_matchers(setups, targets, ramps, baseline, changed,
                   repeats=20, rounds=4):
    """Best-of-``rounds`` mean wall of the full and delta match passes,
    per matcher.

    The matchers being compared are timed in *interleaved* rounds with
    alternating order (even round count, so neither side systematically
    runs first): timing each matcher in its own block lets slow drift —
    host contention on a shared runner — land between the blocks and
    skew the speedup ratio by more than the gate's margin, which made
    the ``MIN_MATCH_SPEEDUP`` gate flake at ~1.96x on readings whose
    interleaved re-measure sits at 2.1x.

    Returns ``{key: (full_s, delta_s, full_state, delta_state)}``.
    """
    best = {
        key: [float("inf"), float("inf"), None, None] for key in setups
    }
    order = list(setups)
    for round_index in range(rounds):
        if round_index % 2:
            order = order[::-1]
        for key in order:
            engine, reference = setups[key]
            slot = best[key]
            t0 = time.perf_counter()
            for __r in range(repeats):
                state_full = engine.match_batch(
                    targets, ramps, anchor=baseline
                )
            slot[0] = min(slot[0], (time.perf_counter() - t0) / repeats)
            slot[2] = state_full
            t0 = time.perf_counter()
            for __r in range(repeats):
                state_delta = engine.match_batch(
                    targets, ramps, anchor=baseline,
                    reference=reference, changed=changed,
                )
            slot[1] = min(slot[1], (time.perf_counter() - t0) / repeats)
            slot[3] = state_delta
    return {key: tuple(slot) for key, slot in best.items()}


def test_sertopt_level_batched_speedup(benchmark):
    circuit = iscas85_circuit(CIRCUIT)
    vdds, vths = PAPER_MENUS[CIRCUIT]
    library = CellLibrary.paper_library(vdds=vdds, vths=vths)

    # ------------------------------------------------------------------
    # Matcher kernel: per-gate (PR 4) vs level-batched, bitwise checked.
    # ------------------------------------------------------------------
    baseline = size_for_speed(circuit, library)
    elec = CircuitElectrical(circuit, baseline, use_tables=False)
    idx = circuit.indexed()
    base_targets = idx.gather(elec.delay_ps)
    ramps = dict(elec.input_ramp_ps)
    targets = _probe_population(circuit, base_targets)
    changed = targets != base_targets[np.newaxis, :]

    matcher_setup = {}
    for level in (False, True):
        engine = MatchingEngine(circuit, library, level_batched=level)
        reference = engine.match_batch(
            base_targets[np.newaxis, :], ramps, anchor=baseline
        )
        # Warm the engine's plans before timing.
        engine.match_batch(
            targets, ramps, anchor=baseline,
            reference=reference, changed=changed,
        )
        matcher_setup[level] = (engine, reference)
    matcher = _time_matchers(
        matcher_setup, targets, ramps, baseline, changed
    )
    for slot in (2, 3):  # full-pass and delta-pass states
        np.testing.assert_array_equal(
            matcher[False][slot].cell_idx, matcher[True][slot].cell_idx
        )
        np.testing.assert_array_equal(
            matcher[False][slot].input_cap, matcher[True][slot].input_cap
        )

    def _match_speedup() -> float:
        return (matcher[False][0] + matcher[False][1]) / (
            matcher[True][0] + matcher[True][1]
        )

    match_speedup = _match_speedup()
    if match_speedup < MIN_MATCH_SPEEDUP:
        # Shared runners jitter; re-time once (best of the two passes
        # per side) before declaring a regression — the same wall-clock
        # tolerance the end-to-end gate below applies.  Locally the
        # ratio sits around 2.1-2.2x.
        retried = _time_matchers(
            matcher_setup, targets, ramps, baseline, changed
        )
        for level, (full_s, delta_s, __f, __d) in retried.items():
            first = matcher[level]
            matcher[level] = (
                min(first[0], full_s), min(first[1], delta_s),
                first[2], first[3],
            )
        match_speedup = _match_speedup()

    # ------------------------------------------------------------------
    # End-to-end optimize(): serial vs PR-4 batched vs level-batched,
    # one shared analysis engine so the structural pass is paid once.
    # ------------------------------------------------------------------
    engine = AnalysisEngine()
    _optimize(circuit, library, engine, batched=True, level=True)  # warm

    serial_result, serial_s = _optimize(
        circuit, library, engine, batched=False, level=True
    )
    gate_result, gate_s = _optimize(
        circuit, library, engine, batched=True, level=False
    )
    level_result, level_s = _optimize(
        circuit, library, engine, batched=True, level=True
    )
    if serial_s / level_s < MIN_E2E_SPEEDUP or gate_s / level_s < MIN_LEVEL_VS_GATE:
        # Shared CI runners jitter; best-of-two before declaring a
        # regression.  Locally serial/level is ~6x and gate/level ~1.4x.
        __, serial_s2 = _optimize(circuit, library, engine, False, True)
        __, gate_s2 = _optimize(circuit, library, engine, True, False)
        __, level_s2 = _optimize(circuit, library, engine, True, True)
        serial_s = min(serial_s, serial_s2)
        gate_s = min(gate_s, gate_s2)
        level_s = min(level_s, level_s2)
    e2e_speedup = serial_s / level_s
    level_vs_gate = gate_s / level_s
    benchmark.pedantic(
        lambda: _optimize(circuit, library, engine, batched=True, level=True),
        iterations=1,
        rounds=1,
    )

    # The deterministic coordinate search must visit identical points on
    # an identical budget.  Between the two batched flows the agreement
    # is *bitwise* (the matchers choose identical cells and the rest of
    # the pipeline is shared); against the serial objective the costs
    # agree to 1e-9 relative (energy/area reductions reassociate).
    serial_opt = serial_result.optimizer_result
    gate_opt = gate_result.optimizer_result
    level_opt = level_result.optimizer_result
    assert np.array_equal(gate_opt.x, level_opt.x)
    assert gate_opt.evaluations == level_opt.evaluations
    assert np.array_equal(
        np.array(gate_opt.history), np.array(level_opt.history)
    )
    assert gate_result.unreliability_reduction == (
        level_result.unreliability_reduction
    )
    assert np.array_equal(serial_opt.x, level_opt.x)
    assert serial_opt.evaluations == level_opt.evaluations
    serial_history = np.array(serial_opt.history)
    level_history = np.array(level_opt.history)
    assert serial_history.shape == level_history.shape
    relative = np.abs(serial_history - level_history) / np.abs(serial_history)
    assert float(relative.max()) <= 1e-9

    payload = {
        "bench": "sertopt_optimize",
        "unix_time": time.time(),
        "scale": os.environ.get("REPRO_BENCH_SCALE", "fast"),
        "note": "paper-default SertoptConfig regardless of scale",
        "circuit": CIRCUIT,
        "config": {
            "optimizer": "coordinate",
            "max_evaluations": SertoptConfig().max_evaluations,
            "n_vectors": SertoptConfig().aserta.n_vectors,
        },
        "gates": circuit.gate_count,
        "evaluations": level_opt.evaluations,
        "before": {"objective": "serial", "optimize_s": serial_s},
        "pr4": {
            "objective": "batched, per-gate matcher",
            "optimize_s": gate_s,
        },
        "after": {
            "objective": "batched, level-batched matcher",
            "optimize_s": level_s,
        },
        "speedup": e2e_speedup,
        "level_vs_gate_speedup": level_vs_gate,
        "matcher": {
            "lanes": MATCH_LANES,
            "gate_full_ms": matcher[False][0] * 1e3,
            "gate_delta_ms": matcher[False][1] * 1e3,
            "level_full_ms": matcher[True][0] * 1e3,
            "level_delta_ms": matcher[True][1] * 1e3,
            "speedup": match_speedup,
        },
        "max_history_relative_difference": float(relative.max()),
        "unreliability_reduction": level_result.unreliability_reduction,
        "delay_ratio": level_result.delay_ratio,
    }
    write_bench_json(BENCH_JSON, payload)

    print(
        f"\nSERTOPT {CIRCUIT} optimize ({level_opt.evaluations} evals): "
        f"serial {serial_s:.2f} s, per-gate batched {gate_s:.2f} s, "
        f"level-batched {level_s:.2f} s -> {e2e_speedup:.1f}x end-to-end, "
        f"{level_vs_gate:.2f}x over PR-4, matcher {match_speedup:.2f}x "
        f"-> {BENCH_JSON.name}"
    )
    assert match_speedup >= MIN_MATCH_SPEEDUP, (
        f"level-batched match_batch only {match_speedup:.2f}x faster than "
        f"the per-gate matcher (tentpole floor {MIN_MATCH_SPEEDUP}x)"
    )
    assert e2e_speedup >= MIN_E2E_SPEEDUP, (
        f"batched optimize() only {e2e_speedup:.2f}x faster than the serial "
        f"objective (raised acceptance floor {MIN_E2E_SPEEDUP}x)"
    )
    assert level_vs_gate >= MIN_LEVEL_VS_GATE, (
        f"level-batched optimize() only {level_vs_gate:.2f}x faster than "
        f"the PR-4 per-gate matcher flow (floor {MIN_LEVEL_VS_GATE}x)"
    )
