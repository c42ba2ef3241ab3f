"""ASERTA core benchmarks — analysis hot paths, gated against floors.

Three gated measurements on c432 at the paper-default configuration,
all recorded in ``BENCH_aserta.json`` (written when
``REPRO_BENCH_WRITE=1``, see :mod:`bench_json`):

* ``analyze`` — dict-based reference engine vs. the vectorized array
  engine through the same analyzer (one structural pass, identical
  inputs).  Floor: the array path at least 3x faster than the seed
  implementation.
* ``sweep`` — the compiled live-cell Section-3.2 population sweep
  (:func:`electrical_masking_many` with a precompiled
  :class:`~repro.core.sweep_plan.SweepPlan`) vs. the unfused dense
  per-level loop on a 16-lane mixed-assignment population.  Floor: at least 2x,
  asserted only after the two paths are verified *bitwise identical*
  on the exact tensors being timed.
* ``characterization`` — every technology-table kind for c432's
  ``(gate type, fan-in)`` population on a fresh
  :class:`~repro.tech.table_builder.TechnologyTables`: the broadcast
  builder vs. the point-by-point scalar oracle of
  :mod:`conformance`.  Floor: at least 20x, asserted only after the
  timed outputs are verified *bitwise identical*.

All three gates use the interleaved paired-median protocol (see
``test_bench_telemetry._paired_overhead`` for the full rationale):
timing each side in its own best-of pass lets slow drift — thermal
throttle, host contention under a shared VM — land entirely on
whichever side ran second, which made single-pass speedups jitter by
tens of percent.  Back-to-back single-call pairs, alternating which
side goes first, interleave the two samples at call granularity, and
the per-side *medians* discard preempted outliers; GC is held off so a
collection cannot land inside one call.  A gate miss triggers one
re-measurement before declaring a regression.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import numpy as np

from bench_json import write_bench_json, write_enabled
from conformance import TABLE_KINDS, mixed_assignments, scalar_table
from repro.circuit.iscas85 import iscas85_circuit
from repro.core.aserta import AsertaAnalyzer
from repro.core.electrical_masking import (
    default_sample_widths_batch,
    electrical_masking_many,
)
from repro.tech.electrical_view import (
    batched_electrical_arrays,
    stack_cell_param_arrays,
)
from repro.tech.table_builder import TechnologyTables

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_aserta.json"
#: Acceptance floor: vectorized analyze() vs the seed implementation.
MIN_SPEEDUP = 3.0
#: Acceptance floor: fused plan-compiled sweep vs the unfused loop.
MIN_SWEEP_SPEEDUP = 2.0
#: Lanes in the sweep-gate population (the campaign batch sweet spot).
SWEEP_LANES = 16
#: Acceptance floor: broadcast characterization vs the scalar oracle.
MIN_CHARACTERIZATION_SPEEDUP = 20.0


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def _paired_times(before_fn, after_fn, pairs: int) -> tuple[float, float]:
    """``(before_s, after_s)`` medians from interleaved paired sampling.

    ``pairs`` back-to-back single-call pairs, alternating which side of
    the pair goes first so "second call runs warmer" order bias splits
    evenly instead of accumulating on one side; GC is held off for the
    bounded duration so a collection cannot skew one sample.
    """
    before_times: list[float] = []
    after_times: list[float] = []
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for index in range(pairs):
            first, second = (
                (before_fn, after_fn) if index % 2 == 0
                else (after_fn, before_fn)
            )
            started = time.perf_counter()
            first()
            middle = time.perf_counter()
            second()
            ended = time.perf_counter()
            if index % 2 == 0:
                before_times.append(middle - started)
                after_times.append(ended - middle)
            else:
                after_times.append(middle - started)
                before_times.append(ended - middle)
    finally:
        if gc_was_enabled:
            gc.enable()
    return _median(before_times), _median(after_times)


def _gated_speedup(
    before_fn, after_fn, pairs: int, floor: float
) -> tuple[float, float, float]:
    """``(speedup, before_s, after_s)``; one re-measurement on a gate
    miss (shared CI runners can jitter a whole pass), keeping whichever
    round measured the higher ratio."""
    before_s, after_s = _paired_times(before_fn, after_fn, pairs)
    if before_s / after_s < floor:
        retry_before, retry_after = _paired_times(before_fn, after_fn, pairs)
        if retry_before / retry_after > before_s / after_s:
            before_s, after_s = retry_before, retry_after
    return before_s / after_s, before_s, after_s


def _merge_bench(updates: dict) -> None:
    """Read-merge-write ``BENCH_aserta.json`` — two tests share the
    file, and either may run (or rerun) first."""
    if not write_enabled():
        return
    payload: dict = {}
    if BENCH_JSON.exists():
        try:
            existing = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
            if isinstance(existing, dict):
                payload = existing
        except (ValueError, OSError):
            payload = {}
    payload.update(updates)
    payload["bench"] = "aserta_analyze"
    payload["unix_time"] = time.time()
    payload["scale"] = os.environ.get("REPRO_BENCH_SCALE", "fast")
    write_bench_json(BENCH_JSON, payload)


def test_aserta_vectorization_speedup(benchmark):
    circuit = iscas85_circuit("c432")
    analyzer = AsertaAnalyzer(circuit)  # paper defaults: 10k vectors, 16 fC

    # Warm every lazy cache (LUTs, stacked tensors) for both engines so
    # the measurement compares steady-state analysis cost only.
    reference_report = analyzer.analyze(engine="reference")
    array_report = analyzer.analyze(engine="array")
    assert array_report.total > 0.0
    relative = abs(array_report.total - reference_report.total) / (
        reference_report.total
    )
    assert relative <= 1e-9

    speedup, before_s, after_s = _gated_speedup(
        lambda: analyzer.analyze(engine="reference"),
        lambda: analyzer.analyze(engine="array"),
        pairs=15,
        floor=MIN_SPEEDUP,
    )
    benchmark.pedantic(
        lambda: analyzer.analyze(engine="array"), iterations=5, rounds=3
    )

    _merge_bench(
        {
            "circuit": "c432",
            "config": {
                "n_vectors": analyzer.config.n_vectors,
                "n_sample_widths": analyzer.config.n_sample_widths,
                "charge_fc": analyzer.config.charge_fc,
            },
            "gates": circuit.gate_count,
            "before": {"engine": "reference", "analyze_s": before_s},
            "after": {"engine": "array", "analyze_s": after_s},
            "speedup": speedup,
            "after_analyses_per_s": 1.0 / after_s if after_s > 0 else None,
            "unreliability_total": array_report.total,
            "relative_error_vs_reference": relative,
        }
    )

    print(
        f"\nASERTA c432 analyze: reference {before_s * 1e3:.1f} ms, "
        f"array {after_s * 1e3:.1f} ms -> {speedup:.1f}x "
        f"-> {BENCH_JSON.name}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized analyze() only {speedup:.2f}x faster than the "
        f"reference (acceptance floor {MIN_SPEEDUP}x)"
    )


def test_fused_sweep_speedup(benchmark):
    circuit = iscas85_circuit("c432")
    analyzer = AsertaAnalyzer(circuit)
    idx = analyzer.indexed
    assignments = mixed_assignments(circuit, seed=2005, count=SWEEP_LANES)
    params = stack_cell_param_arrays(idx, assignments)
    arrays = batched_electrical_arrays(
        circuit, analyzer.tables, params, charge_fc=analyzer.config.charge_fc
    )
    delays = arrays["delay_ps"]
    generated = arrays["generated_width_ps"]
    samples = default_sample_widths_batch(
        idx, delays, generated, analyzer.config.n_sample_widths
    )
    plan = analyzer.sweep_plan

    def fused():
        return electrical_masking_many(
            analyzer.structure, delays, generated, samples, plan=plan,
        )

    def unfused():
        return electrical_masking_many(
            analyzer.structure, delays, generated, samples, fused=False,
        )

    # The gate only means something if the two paths compute the same
    # thing: the compiled sweep's contract is *bitwise* identity on
    # the exact tensors being timed (warms both paths too).
    np.testing.assert_array_equal(fused(), unfused())

    speedup, unfused_s, fused_s = _gated_speedup(
        unfused, fused, pairs=61, floor=MIN_SWEEP_SPEEDUP
    )
    benchmark.pedantic(fused, iterations=5, rounds=3)

    _merge_bench(
        {
            "sweep": {
                "circuit": "c432",
                "lanes": SWEEP_LANES,
                "bitwise_identical": True,
                "unfused_s": unfused_s,
                "fused_s": fused_s,
                "speedup": speedup,
                "fused_sweeps_per_s": 1.0 / fused_s if fused_s > 0 else None,
            }
        }
    )

    print(
        f"\nASERTA c432 {SWEEP_LANES}-lane sweep: unfused "
        f"{unfused_s * 1e3:.2f} ms, fused {fused_s * 1e3:.2f} ms -> "
        f"{speedup:.2f}x -> {BENCH_JSON.name}"
    )
    assert speedup >= MIN_SWEEP_SPEEDUP, (
        f"fused sweep only {speedup:.2f}x faster than the unfused loop "
        f"(acceptance floor {MIN_SWEEP_SPEEDUP}x)"
    )


def test_characterization_speedup():
    pairs = iscas85_circuit("c432").indexed().group_pairs
    outputs: dict[str, list[np.ndarray]] = {}

    def broadcast():
        tables = TechnologyTables()
        outputs["broadcast"] = [
            tables.stacked_values(kind, pairs) for kind in TABLE_KINDS
        ]

    def scalar():
        tables = TechnologyTables()
        outputs["scalar"] = [
            np.stack([scalar_table(tables, kind, g, f) for g, f in pairs])
            for kind in TABLE_KINDS
        ]

    # The scalar side takes seconds per call, so three pairs; the
    # bitwise check reads the outputs of the last timed calls.
    speedup, scalar_s, broadcast_s = _gated_speedup(
        scalar, broadcast, pairs=3, floor=MIN_CHARACTERIZATION_SPEEDUP
    )
    for kind, fast, oracle in zip(
        TABLE_KINDS, outputs["broadcast"], outputs["scalar"]
    ):
        np.testing.assert_array_equal(
            fast.view(np.uint64), oracle.view(np.uint64), err_msg=kind
        )

    _merge_bench(
        {
            "characterization": {
                "circuit": "c432",
                "pairs": len(pairs),
                "tables": len(pairs) * len(TABLE_KINDS),
                "bitwise_identical": True,
                "scalar_s": scalar_s,
                "broadcast_s": broadcast_s,
                "speedup": speedup,
            }
        }
    )

    print(
        f"\nc432 characterization ({len(pairs)} pairs x "
        f"{len(TABLE_KINDS)} kinds): scalar {scalar_s:.2f} s, broadcast "
        f"{broadcast_s * 1e3:.1f} ms -> {speedup:.0f}x -> {BENCH_JSON.name}"
    )
    assert speedup >= MIN_CHARACTERIZATION_SPEEDUP, (
        f"broadcast characterization only {speedup:.1f}x faster than the "
        f"scalar oracle (acceptance floor {MIN_CHARACTERIZATION_SPEEDUP}x)"
    )
