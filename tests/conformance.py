"""Reusable reference-vs-fast conformance harness.

Every fast path in the repo is gated by a differential against its slow
reference: the vectorized masking sweep against the dict walk, the
batched structural estimator against the event-driven one, the
level-batched matcher against the per-gate walk, the compiled
live-cell sweep against the unfused dense loop, and the broadcast
technology-table builder against the scalar gate model sampled point
by point.  The assertions those
suites share live here, so ``test_differential``, ``test_batched_core``,
``test_engine_structural`` and the conformance matrix
(``test_conformance_matrix``) state one contract in one place.

Comparison discipline: the compiled sweep and every batched/serial pair
are held to *bitwise* equality (``np.testing.assert_array_equal``, no
epsilon); comparisons against the scalar dict walk allow float
reassociation (:data:`RTOL`).

This module is deliberately not named ``test_*``: pytest never collects
it, test files import it (the ``tests/`` directory is on ``sys.path``
under pytest's rootdir import mode).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.generator import GeneratorSpec, generate_circuit
from repro.circuit.iscas85 import iscas85_circuit, iscas85_names
from repro.core.electrical_masking import (
    default_sample_widths,
    default_sample_widths_batch,
    MaskingArrays,
    electrical_masking,
    electrical_masking_many,
    unfused_sweep_many,
)
from repro.core.matching import MatchingEngine
from repro.engine.structural import (
    structural_matrix_batched,
    structural_matrix_event,
)
from repro.tech import gate_electrical as ge
from repro.tech.electrical_view import (
    batched_electrical_arrays,
    stack_cell_param_arrays,
)
from repro.tech.glitch import generated_width_ps
from repro.tech.library import CellParams, ParameterAssignment

#: Reassociation noise bound for comparisons that cross a float
#: reduction order change (energy/area/cost); everything structural is
#: held to exact equality instead.
RTOL = 1e-9

#: Generator-family circuits for the conformance matrix — one per
#: flavor plus a deep chain (the regime where Equation-2 denominators
#: underflow and routes get dropped).
CONFORMANCE_SPECS = [
    GeneratorSpec("conf-control", 6, 3, 40, 5, seed=2, flavor="control"),
    GeneratorSpec("conf-alu", 8, 4, 70, 6, seed=17, flavor="alu"),
    GeneratorSpec("conf-parity", 5, 2, 30, 4, seed=33, flavor="parity"),
    GeneratorSpec("conf-deep", 4, 2, 48, 12, seed=71, flavor="control"),
]

#: The full conformance circuit axis: every bundled ISCAS-85 netlist
#: plus the generator families.
CONFORMANCE_CIRCUITS = list(iscas85_names()) + [
    spec.name for spec in CONFORMANCE_SPECS
]


def conformance_circuit(name: str):
    """Materialize one circuit of the conformance axis by name."""
    for spec in CONFORMANCE_SPECS:
        if spec.name == name:
            return generate_circuit(spec)
    return iscas85_circuit(name)


def mixed_assignment(circuit, seed: int) -> ParameterAssignment:
    """A non-uniform assignment hitting several table cells per axis."""
    rng = np.random.default_rng(seed)
    assignment = ParameterAssignment()
    for gate in circuit.gates():
        if rng.random() < 0.5:
            continue
        assignment.set(
            gate.name,
            CellParams(
                size=float(rng.choice([0.5, 1.0, 2.0, 3.0])),
                length_nm=float(rng.choice([70.0, 100.0, 150.0])),
                vdd=float(rng.choice([0.8, 1.0, 1.2])),
                vth=float(rng.choice([0.2, 0.3])),
            ),
        )
    return assignment


def mixed_assignments(circuit, seed: int, count: int) -> list[ParameterAssignment]:
    """A population of non-uniform assignments (sparser overrides than
    :func:`mixed_assignment` so lanes differ from each other)."""
    rng = np.random.default_rng(seed)
    out = []
    for __ in range(count):
        assignment = ParameterAssignment()
        for gate in circuit.gates():
            if rng.random() < 0.4:
                continue
            assignment.set(
                gate.name,
                CellParams(
                    size=float(rng.choice([0.5, 1.0, 2.0, 3.0])),
                    length_nm=float(rng.choice([70.0, 100.0, 150.0])),
                    vdd=float(rng.choice([0.8, 1.0, 1.2])),
                    vth=float(rng.choice([0.2, 0.3])),
                ),
            )
        out.append(assignment)
    return out


# ---------------------------------------------------------------------------
# Section-3.2 sweep: compiled live-cell plan vs. the unfused dense loop
# ---------------------------------------------------------------------------


def assert_fused_sweep_conforms_single(analyzer, assignment) -> None:
    """One-candidate path: the compiled plan (a batch of one) against
    the unfused dense loop — the densified ``ws`` view and ``expected``
    bitwise."""
    circuit = analyzer.circuit
    elec = analyzer.electrical_view(assignment)
    samples = default_sample_widths(elec, analyzer.config.n_sample_widths)
    reference = electrical_masking(
        circuit, elec, sample_widths=samples,
        structure=analyzer.structure, fused=False,
    )
    fused = electrical_masking(
        circuit, elec, sample_widths=samples, structure=analyzer.structure,
    )
    assert reference.arrays is not None and fused.arrays is not None
    np.testing.assert_array_equal(
        fused.arrays.ws, reference.arrays.ws,
        err_msg=f"{circuit.name}: fused ws vs unfused",
    )
    np.testing.assert_array_equal(
        fused.arrays.expected, reference.arrays.expected,
        err_msg=f"{circuit.name}: fused expected vs unfused",
    )


def assert_fused_sweep_conforms_batch(
    analyzer, assignments, oracle_lanes: int = 4
) -> None:
    """Population path: the compiled plan over the whole population
    against the unfused dense batch loop — every lane's densified
    ``ws`` view and ``expected`` bitwise.  The oracle runs
    ``oracle_lanes`` lanes at a time (lanes are independent), which
    bounds its dense ``(B, V, O, k+1)`` tensor on the large circuits."""
    circuit = analyzer.circuit
    idx = analyzer.indexed
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
    tables, expected = plan.run(delays, generated, samples)
    np.testing.assert_array_equal(
        electrical_masking_many(
            analyzer.structure, delays, generated, samples
        ),
        expected,
        err_msg=f"{circuit.name}: electrical_masking_many vs plan",
    )
    for start in range(0, len(assignments), oracle_lanes):
        lanes = slice(start, start + oracle_lanes)
        ref_ws, ref_expected = unfused_sweep_many(
            analyzer.structure, delays[lanes], generated[lanes],
            samples[lanes],
        )
        np.testing.assert_array_equal(
            expected[lanes], ref_expected,
            err_msg=f"{circuit.name}: fused batch expected vs unfused",
        )
        for offset, lane_ws in enumerate(ref_ws):
            lane = start + offset
            view = MaskingArrays(
                indexed=idx,
                expected=expected[lane],
                cell_row=plan.live_row,
                cell_col=plan.live_col,
                cell_tables=tables[:-1, :, lane],
            )
            np.testing.assert_array_equal(
                view.ws, lane_ws,
                err_msg=f"{circuit.name}: fused ws lane {lane} vs unfused",
            )


# ---------------------------------------------------------------------------
# Masking sweep: vectorized array core vs. the scalar dict reference
# ---------------------------------------------------------------------------


def assert_masking_results_agree(vectorized, reference, rtol=RTOL) -> None:
    """Sample widths, per-(gate, output) tables and expected widths of
    the array pass against the scalar dict walk."""
    np.testing.assert_allclose(
        vectorized.sample_widths, reference.sample_widths, rtol=0
    )
    assert set(reference.tables) == set(vectorized.tables)
    for gate, row in reference.tables.items():
        assert set(row) == set(vectorized.tables[gate]), gate
        for output, table in row.items():
            np.testing.assert_allclose(
                vectorized.tables[gate][output], table,
                rtol=rtol, atol=1e-15, err_msg=f"{gate}->{output}",
            )
    assert set(reference.expected) == set(vectorized.expected)
    for gate, row in reference.expected.items():
        assert set(row) == set(vectorized.expected[gate]), gate
        for output, width in row.items():
            assert vectorized.expected[gate][output] == pytest.approx(
                width, rel=rtol, abs=1e-15
            ), (gate, output)


def assert_reports_agree(arrays_report, reference_report, rtol=RTOL) -> None:
    """Full ``analyze`` reports: total, per-gate sizes, generated widths
    and contributions of the array engine against the reference engine."""
    assert arrays_report.total == pytest.approx(
        reference_report.total, rel=rtol
    )
    ref_gates = reference_report.unreliability.per_gate
    arr_gates = arrays_report.unreliability.per_gate
    assert set(ref_gates) == set(arr_gates)
    for name, entry in ref_gates.items():
        got = arr_gates[name]
        assert got.size == entry.size
        assert got.generated_width_ps == pytest.approx(
            entry.generated_width_ps, rel=rtol, abs=1e-15
        )
        assert set(got.widths_by_output) == set(entry.widths_by_output)
        assert got.contribution == pytest.approx(
            entry.contribution, rel=rtol, abs=1e-15
        )


# ---------------------------------------------------------------------------
# Structural engine: batched fault-site sweep vs. event-driven walk
# ---------------------------------------------------------------------------


def assert_structural_bit_identical(circuit, n_vectors: int, seed: int) -> None:
    """Both structural estimators simulate the same packed vectors, so
    every ``P_ij`` must be *bit-identical* — no tolerance."""
    event = structural_matrix_event(circuit, n_vectors, seed=seed)
    batched = structural_matrix_batched(circuit, n_vectors, seed=seed)
    np.testing.assert_array_equal(batched, event)


# ---------------------------------------------------------------------------
# Characterization: broadcast table builder vs. point-by-point sampling
# ---------------------------------------------------------------------------

#: Every table kind :class:`TechnologyTables` builds.
TABLE_KINDS = (
    "delay", "ramp", "glitch", "input_cap", "static_power", "dynamic_energy",
)


def _table_axes(tables, kind: str) -> list[tuple[float, ...]]:
    """The sample grids of one table kind, in axis order."""
    cell = [tables.sizes, tables.lengths_nm, tables.vdds, tables.vths]
    return {
        "delay": cell + [tables.loads_ff, tables.ramps_ps],
        "ramp": cell + [tables.loads_ff],
        "glitch": cell + [tables.loads_ff, tables.charges_fc],
        "input_cap": [tables.sizes, tables.lengths_nm],
        "static_power": cell,
        "dynamic_energy": [tables.sizes, tables.loads_ff, tables.vdds],
    }[kind]


def _scalar_point(kind: str, gtype, fanin: int, point) -> float:
    """One table entry from the scalar gate model."""
    if kind == "input_cap":
        return ge.input_capacitance_ff(gtype, fanin, *point)
    if kind == "dynamic_energy":
        return ge.dynamic_energy_fj(gtype, fanin, *point)
    size, length, vdd, vth, *rest = point
    if vdd <= vth:
        return np.inf
    if kind == "delay":
        return ge.propagation_delay_ps(gtype, fanin, size, length, vdd, vth, *rest)
    if kind == "ramp":
        return ge.output_ramp_ps(gtype, fanin, size, length, vdd, vth, *rest)
    if kind == "static_power":
        return ge.static_power_uw(gtype, fanin, size, length, vdd, vth)
    load, charge = rest
    node_cap = ge.self_capacitance_ff(gtype, fanin, size) + load
    current = ge.drive_current_ua(gtype, fanin, size, length, vdd, vth)
    return generated_width_ps(charge, node_cap, current, vdd)


def scalar_table(tables, kind: str, gtype, fanin: int) -> np.ndarray:
    """The characterization oracle: the scalar model sampled point by
    point over the grids of ``tables`` (``inf`` where ``vdd <= vth``)."""
    axes = _table_axes(tables, kind)
    values = np.empty(tuple(len(axis) for axis in axes))
    for index in np.ndindex(values.shape):
        point = tuple(axis[i] for axis, i in zip(axes, index))
        values[index] = _scalar_point(kind, gtype, fanin, point)
    return values


def assert_table_bitwise(fast: np.ndarray, oracle: np.ndarray, context: str) -> None:
    """Same shape, same bits, and the ``inf`` / ``0.0`` masks in the
    same places."""
    assert fast.shape == oracle.shape, context
    np.testing.assert_array_equal(np.isinf(fast), np.isinf(oracle), err_msg=context)
    np.testing.assert_array_equal(fast == 0.0, oracle == 0.0, err_msg=context)
    assert np.array_equal(fast, oracle), context
    np.testing.assert_array_equal(
        fast.view(np.uint64), oracle.view(np.uint64), err_msg=context
    )


# ---------------------------------------------------------------------------
# Matcher: level-batched schedule vs. per-gate walk
# ---------------------------------------------------------------------------


def make_matching_engines(circuit, library):
    """The (per-gate, level-batched) engine pair under one library."""
    return (
        MatchingEngine(circuit, library, level_batched=False),
        MatchingEngine(circuit, library, level_batched=True),
    )


def assert_matcher_states_equal(a, b, context: str = "") -> None:
    """Matched states must be bitwise identical: same cells, same input
    capacitances, same supplies."""
    np.testing.assert_array_equal(a.cell_idx, b.cell_idx, err_msg=context)
    np.testing.assert_array_equal(a.input_cap, b.input_cap, err_msg=context)
    np.testing.assert_array_equal(a.vdd, b.vdd, err_msg=context)
