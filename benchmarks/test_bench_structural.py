"""Structural-engine benchmark — event-driven walk vs. batched simulator.

Runs the Section-3.1 structural pass (the ``P_ij`` estimate) on c5315 —
the circuit the ROADMAP flagged as "seconds per netlist" under the
event-driven walk — through both engines on identical vectors, asserts
the batched path is at least 3x faster *and* bit-identical, then times
the warm path: a second analyzer over a shared artifact cache, whose
construction must perform zero fault-simulation work.  Records
``BENCH_structural.json`` (when ``REPRO_BENCH_WRITE=1``) alongside the
other ``BENCH_*.json`` artifacts uploaded by CI.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from bench_json import write_bench_json
from repro.circuit.iscas85 import iscas85_circuit
from repro.core.aserta import AsertaAnalyzer, AsertaConfig
from repro.engine import AnalysisEngine
from repro.engine.structural import (
    CompiledStructuralCircuit,
    structural_matrix_batched,
    structural_matrix_event,
)

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_structural.json"
#: The acceptance floor: batched structural pass vs the event-driven
#: seed estimator, cold, on c5315.
MIN_SPEEDUP = 3.0
CIRCUIT = "c5315"
SEED = 0


def test_structural_batching_speedup(benchmark, scale):
    n_vectors = scale.sensitization_vectors
    circuit = iscas85_circuit(CIRCUIT)
    # Compile outside the timed region on both sides: the event path's
    # equivalents (BitParallelSimulator plan, fanout maps) are likewise
    # built once per circuit, and the compiled schedule is a cached
    # artifact in production.
    compiled = CompiledStructuralCircuit(circuit.indexed())

    def run_batched() -> np.ndarray:
        return structural_matrix_batched(
            circuit, n_vectors, seed=SEED, compiled=compiled
        )

    batched_p = run_batched()
    event_p = structural_matrix_event(circuit, n_vectors, seed=SEED)
    np.testing.assert_array_equal(batched_p, event_p)

    def best_of(fn, repeats: int) -> float:
        best = float("inf")
        for __ in range(repeats):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
        return best

    event_s = best_of(
        lambda: structural_matrix_event(circuit, n_vectors, seed=SEED), 2
    )
    batched_s = best_of(run_batched, 3)
    if event_s / batched_s < MIN_SPEEDUP:
        # Re-measure once before declaring a regression (shared CI
        # runners jitter); on a 2-CPU host the observed ratio is 14-22x.
        event_s = min(
            event_s,
            best_of(
                lambda: structural_matrix_event(circuit, n_vectors, seed=SEED),
                2,
            ),
        )
        batched_s = min(batched_s, best_of(run_batched, 3))
    speedup = event_s / batched_s
    benchmark.pedantic(run_batched, iterations=1, rounds=3)

    # Warm path: a fresh analyzer over a shared engine must build with
    # zero fault-simulation work (pure artifact-cache hits).
    engine = AnalysisEngine()
    config = AsertaConfig(n_vectors=n_vectors, seed=SEED)
    started = time.perf_counter()
    cold_analyzer = AsertaAnalyzer(circuit, config, engine=engine)
    cold_build_s = time.perf_counter() - started
    assert engine.structural_sim_runs == 1

    started = time.perf_counter()
    warm_analyzer = AsertaAnalyzer(circuit, config, engine=engine)
    warm_report = warm_analyzer.analyze()
    warm_build_analyze_s = time.perf_counter() - started
    assert engine.structural_sim_runs == 1, "warm analyzer re-simulated"
    assert engine.cache.stats.by_kind["p_matrix"]["hits"] >= 1
    assert warm_report.total > 0.0
    assert warm_report.total == cold_analyzer.analyze().total

    payload = {
        "bench": "structural_pass",
        "unix_time": time.time(),
        "scale": os.environ.get("REPRO_BENCH_SCALE", "fast"),
        "circuit": CIRCUIT,
        "n_vectors": n_vectors,
        "seed": SEED,
        "gates": circuit.gate_count,
        "outputs": len(circuit.outputs),
        "before": {"engine": "event", "structural_s": event_s},
        "after": {
            "engine": "batched",
            "structural_s": batched_s,
            # Only root rows are fault-simulated; fanout-free rows are
            # traced from their root's output deltas.
            "root_sites": int(compiled.roots.size),
            "fanout_free_rows": int(compiled.ffr.sum()),
        },
        "speedup": speedup,
        "warm": {
            "cold_analyzer_build_s": cold_build_s,
            "warm_build_plus_analyze_s": warm_build_analyze_s,
            "structural_sim_runs": engine.structural_sim_runs,
            "cache": engine.stats(),
        },
    }
    write_bench_json(BENCH_JSON, payload)

    print(
        f"\nstructural pass {CIRCUIT} ({n_vectors} vectors): "
        f"event {event_s:.2f} s, batched {batched_s:.2f} s "
        f"-> {speedup:.1f}x; warm analyzer build+analyze "
        f"{warm_build_analyze_s * 1e3:.0f} ms (0 simulations) "
        f"-> {BENCH_JSON.name}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched structural pass only {speedup:.2f}x faster than the "
        f"event-driven path (acceptance floor {MIN_SPEEDUP}x)"
    )
    # The warm path must never be slower than a cold structural pass —
    # it does strictly less work (no simulation at all).
    assert warm_build_analyze_s < event_s
