"""Differential tests of the batched structural engine.

The acceptance contract is *exact* equality: the batched fault-site
simulator and the event-driven seed estimator simulate the same packed
random vectors (same seed, same word layout), so every ``P_ij`` count —
and therefore every probability — must be bit-identical.  Asserted
across all 11 bundled ISCAS-85 circuits, the generator-family circuits
and the hand-built fixtures, at several fault-site block sizes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformance import assert_structural_bit_identical
from repro.circuit.gate import GateType
from repro.circuit.generator import FLAVORS, GeneratorSpec, generate_circuit
from repro.circuit.iscas85 import iscas85_circuit, iscas85_names
from repro.circuit.netlist import Circuit
from repro.engine.structural import (
    CompiledStructuralCircuit,
    pick_block_sites,
    sparse_paths_from_matrix,
    structural_matrix,
    structural_matrix_batched,
    structural_matrix_event,
)
from repro.errors import SimulationError
from repro.logicsim.bitsim import BitParallelSimulator
from repro.logicsim.sensitization import (
    _flip_and_observe,
    observability,
    observability_matrix,
    sensitization_matrix,
    sensitization_probabilities,
)
from repro.logicsim.vectors import lane_mask, pack_vectors
from repro.telemetry import Telemetry

#: Two packed words, with a partial tail word — exercises lane masking.
N_VECTORS = 96
SEED = 7

GENERATOR_SPECS = [
    GeneratorSpec("eng-control", 6, 3, 40, 5, seed=2, flavor="control"),
    GeneratorSpec("eng-alu", 8, 4, 70, 6, seed=17, flavor="alu"),
    GeneratorSpec("eng-parity", 5, 2, 30, 4, seed=33, flavor="parity"),
    GeneratorSpec("eng-deep", 4, 2, 48, 12, seed=71, flavor="control"),
]


@pytest.mark.parametrize("name", iscas85_names())
def test_bit_identical_on_iscas(name):
    assert_structural_bit_identical(iscas85_circuit(name), N_VECTORS, SEED)


@pytest.mark.parametrize(
    "spec", GENERATOR_SPECS, ids=[s.name for s in GENERATOR_SPECS]
)
def test_bit_identical_on_generator_circuits(spec):
    assert_structural_bit_identical(generate_circuit(spec), 200, spec.seed)


@pytest.mark.parametrize("fixture", ["chain4", "diamond", "two_output"])
def test_bit_identical_on_fixtures(fixture, request):
    assert_structural_bit_identical(request.getfixturevalue(fixture), 70, 3)


@pytest.mark.parametrize("block_sites", [1, 3, 64, 10_000])
def test_block_size_never_changes_the_result(c432, block_sites):
    """Any site blocking (one site, tiny blocks, whole circuit at once)
    produces the same matrix — blocking is purely an execution knob."""
    reference = structural_matrix_batched(c432, N_VECTORS, seed=SEED)
    blocked = structural_matrix_batched(
        c432, N_VECTORS, seed=SEED, block_sites=block_sites
    )
    np.testing.assert_array_equal(blocked, reference)


def test_compiled_schedule_is_reusable(c432):
    compiled = CompiledStructuralCircuit(c432.indexed())
    a = structural_matrix_batched(c432, 64, seed=1, compiled=compiled)
    b = structural_matrix_batched(c432, 64, seed=2, compiled=compiled)
    c = structural_matrix_batched(c432, 64, seed=1, compiled=compiled)
    np.testing.assert_array_equal(a, c)
    assert not np.array_equal(a, b), "different seeds must differ"


def test_compiled_schedule_rejects_foreign_circuit(c17, chain4):
    compiled = CompiledStructuralCircuit(chain4.indexed())
    with pytest.raises(SimulationError):
        structural_matrix_batched(c17, 64, compiled=compiled)


def test_matrix_shape_diagonal_and_inputs(two_output):
    idx = two_output.indexed()
    p = structural_matrix_batched(two_output, 128, seed=0)
    assert p.shape == (idx.n_signals, idx.n_outputs)
    # P_jj = 1 on every primary output, regardless of vectors.
    diagonal = p[idx.output_rows, idx.col_of_row[idx.output_rows]]
    np.testing.assert_array_equal(diagonal, 1.0)
    # Primary-input rows are estimated too (the transient reference
    # simulator shares the site list with the seed estimator).
    assert p[: len(two_output.inputs)].any()
    assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_sparse_view_round_trips_exactly(c17):
    """Dense -> sparse matches the seed estimator dict exactly, and
    sparse -> dense recovers the matrix losslessly."""
    idx = c17.indexed()
    p = structural_matrix_batched(c17, 500, seed=1)
    sparse = sparse_paths_from_matrix(idx, p)
    assert sparse == sensitization_probabilities(c17, 500, seed=1)
    np.testing.assert_array_equal(idx.output_matrix(sparse), p)


def test_dispatch_and_wrapper(c17):
    batched = structural_matrix(c17, 128, seed=2, engine="batched")
    event = structural_matrix(c17, 128, seed=2, engine="event")
    np.testing.assert_array_equal(batched, event)
    with pytest.raises(SimulationError):
        structural_matrix(c17, 128, engine="bogus")
    # The logicsim compatibility wrapper routes through the same code.
    np.testing.assert_array_equal(
        sensitization_matrix(c17, 128, seed=2), batched
    )
    np.testing.assert_array_equal(
        sensitization_matrix(c17, 128, seed=2, engine="event"), batched
    )


def test_rejects_bad_arguments(c17, chain4):
    from repro.logicsim.bitsim import BitParallelSimulator

    with pytest.raises(SimulationError):
        structural_matrix_batched(c17, 0)
    with pytest.raises(SimulationError):
        structural_matrix_batched(c17, 64, block_sites=0)
    with pytest.raises(SimulationError):
        structural_matrix_batched(c17, 64, simulator=BitParallelSimulator(chain4))


def test_pick_block_sites_respects_budget():
    assert pick_block_sites(1000, 100, max_block_bytes=1 << 20) == 1
    assert pick_block_sites(10, 1, max_block_bytes=1 << 30) == 256
    assert pick_block_sites(1000, 100, max_block_bytes=0) == 1


class TestObservabilitySharedImplementation:
    def test_dict_view_matches_matrix_view(self, c432):
        paths = sensitization_probabilities(c432, 300, seed=4)
        obs = observability(paths)
        idx = c432.indexed()
        dense = observability_matrix(idx.output_matrix(paths))
        assert set(obs) == set(idx.order)
        for row, name in enumerate(idx.order):
            assert obs[name] == pytest.approx(dense[row], rel=1e-12, abs=0.0)

    def test_clipped_to_one_and_po_is_one(self, c17):
        paths = sensitization_probabilities(c17, 300, seed=4)
        obs = observability(paths)
        assert all(0.0 <= value <= 1.0 for value in obs.values())
        for out in c17.outputs:
            assert obs[out] == 1.0

    def test_analyzer_observability_routes_through_matrix(self, c17_analyzer):
        obs = c17_analyzer.observability()
        dense = observability_matrix(c17_analyzer.p_matrix)
        idx = c17_analyzer.indexed
        assert obs == {
            name: float(dense[row]) for row, name in enumerate(idx.order)
        }


def _circuit(name, inputs, gates, outputs):
    """Small hand-built netlist: ``gates`` is ``(name, type, fan-ins)``."""
    circuit = Circuit(name)
    for pin in inputs:
        circuit.add_input(pin)
    for gate, gtype, fanins in gates:
        circuit.add_gate(gate, gtype, list(fanins))
    for out in outputs:
        circuit.mark_output(out)
    circuit.validate()
    return circuit


def no_fanout_free_circuit():
    """Every non-PO row drives two gates, so every row is a root."""
    return _circuit(
        "no-ffr",
        ["a", "b"],
        [
            ("x", GateType.NAND, ["a", "b"]),
            ("y", GateType.NOR, ["a", "b"]),
            ("z", GateType.XOR, ["x", "y"]),
            ("w", GateType.AND, ["x", "y"]),
        ],
        ["x", "y", "z", "w"],
    )


def input_driven_ffr_circuit():
    """Fanout-free primary inputs feeding a fanout-free gate."""
    return _circuit(
        "pi-ffr",
        ["a", "b", "c", "d"],
        [
            ("g", GateType.AND, ["a", "b"]),
            ("h", GateType.NOR, ["g", "c"]),
            ("k", GateType.XNOR, ["h", "d"]),
            ("m", GateType.OR, ["h", "d"]),
        ],
        ["k", "m"],
    )


def block_spans(telemetry):
    return [
        span.attrs
        for span in telemetry.tracer.spans()
        if span.name == "structural.block"
    ]


class TestFanoutFreeTracing:
    """Rows with one fanout gate and no PO are traced, not simulated."""

    @pytest.mark.parametrize("n_vectors", [70, 96])
    def test_all_non_po_rows_fanout_free(self, chain4, n_vectors):
        compiled = CompiledStructuralCircuit(chain4.indexed())
        idx = chain4.indexed()
        np.testing.assert_array_equal(compiled.roots, idx.output_rows)
        assert int(compiled.ffr.sum()) == idx.n_signals - 1
        assert_structural_bit_identical(chain4, n_vectors, 3)

    @pytest.mark.parametrize("n_vectors", [70, 96])
    def test_no_fanout_free_rows(self, n_vectors):
        circuit = no_fanout_free_circuit()
        compiled = CompiledStructuralCircuit(circuit.indexed())
        assert not compiled.ffr.any()
        assert compiled.roots.size == circuit.indexed().n_signals
        assert_structural_bit_identical(circuit, n_vectors, 5)

    @pytest.mark.parametrize("n_vectors", [70, 96])
    def test_fanout_free_rows_driven_by_inputs(self, n_vectors):
        circuit = input_driven_ffr_circuit()
        idx = circuit.indexed()
        compiled = CompiledStructuralCircuit(idx)
        traced = {idx.order[row] for row in np.flatnonzero(compiled.ffr)}
        assert traced == {"a", "b", "c", "g"}
        # The chain a -> g -> h ends at h, which drives two gates.
        assert compiled.root[idx.index["a"]] == idx.index["h"]
        assert_structural_bit_identical(circuit, n_vectors, 11)

    @settings(max_examples=25, deadline=None)
    @given(
        n_inputs=st.integers(2, 8),
        n_outputs=st.integers(1, 4),
        extra_gates=st.integers(0, 40),
        depth=st.integers(2, 8),
        seed=st.integers(0, 10_000),
        flavor=st.sampled_from(sorted(FLAVORS)),
        n_vectors=st.sampled_from([1, 64, 70, 130]),
        block_sites=st.sampled_from([None, 1, 3]),
    )
    def test_batched_equals_event_on_generated_circuits(
        self, n_inputs, n_outputs, extra_gates, depth, seed, flavor,
        n_vectors, block_sites,
    ):
        spec = GeneratorSpec(
            "prop", n_inputs, n_outputs, n_outputs + extra_gates, depth,
            seed=seed, flavor=flavor,
        )
        circuit = generate_circuit(spec)
        batched = structural_matrix_batched(
            circuit, n_vectors, seed=seed, block_sites=block_sites
        )
        event = structural_matrix_event(circuit, n_vectors, seed=seed)
        np.testing.assert_array_equal(
            batched.view(np.uint64), event.view(np.uint64)
        )


class TestRootBlocks:
    """Only roots are fault-simulated, on budgeted compact cones."""

    def test_only_roots_are_simulated(self, c432):
        compiled = CompiledStructuralCircuit(c432.indexed())
        telemetry = Telemetry()
        structural_matrix_batched(
            c432, N_VECTORS, seed=SEED, compiled=compiled,
            telemetry=telemetry,
        )
        spans = block_spans(telemetry)
        assert sum(attrs["sites"] for attrs in spans) == compiled.roots.size
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["structural.root_sites"] == compiled.roots.size
        assert counters["structural.fanout_free_rows"] == int(
            compiled.ffr.sum()
        )
        assert compiled.roots.size + compiled.ffr.sum() == (
            c432.indexed().n_signals
        )

    def test_blocks_fit_the_byte_budget(self, c432):
        budget = 1 << 18
        n_vectors = 1000
        n_words = (n_vectors + 63) // 64
        telemetry = Telemetry()
        budgeted = structural_matrix_batched(
            c432, n_vectors, seed=SEED, max_block_bytes=budget,
            telemetry=telemetry,
        )
        spans = block_spans(telemetry)
        assert len(spans) > 1
        assert max(attrs["sites"] for attrs in spans) > 1
        for attrs in spans:
            tensor = (attrs["cone_rows"] + 1) * attrs["sites"] * n_words * 8
            assert tensor <= attrs["bytes"] <= budget
        np.testing.assert_array_equal(
            budgeted, structural_matrix_event(c432, n_vectors, seed=SEED)
        )

    def test_candidates_follow_fanout_cones(self, diamond):
        idx = diamond.indexed()
        compiled = CompiledStructuralCircuit(idx)
        root = idx.index["root"]
        reached = {
            idx.order[row]
            for row in np.flatnonzero(compiled.candidates(np.array([root])))
        }
        assert reached == {"top", "bottom", "out"}
        # A site is a candidate only if another site reaches it.
        pair = np.array([root, idx.index["top"]])
        assert compiled.candidates(pair)[idx.index["top"]]
        assert not compiled.candidates(pair)[root]


def _exact_matrix(circuit) -> np.ndarray:
    """Exact ``P_ij`` from the event walk over all ``2**n`` input vectors."""
    n_inputs = len(circuit.inputs)
    n_vectors = 1 << n_inputs
    vectors = (
        np.arange(n_vectors)[:, np.newaxis] >> np.arange(n_inputs)
    ) & 1
    sim = BitParallelSimulator(circuit)
    base = sim.simulate(pack_vectors(vectors.astype(bool)))
    mask = lane_mask(n_vectors)
    idx = circuit.indexed()
    exact = np.zeros((idx.n_signals, idx.n_outputs))
    for name in sim.order:
        diffs = _flip_and_observe(circuit, sim, base, name, mask)
        for out_name, words in diffs.items():
            exact[idx.index[name], idx.output_col[out_name]] = (
                int(np.bitwise_count(words).sum()) / n_vectors
            )
    exact[idx.output_rows, idx.col_of_row[idx.output_rows]] = 1.0
    return exact


@pytest.mark.parametrize(
    "circuit",
    [
        pytest.param(lambda: iscas85_circuit("c17"), id="c17"),
        pytest.param(lambda: generate_circuit(GENERATOR_SPECS[1]), id="eng-alu"),
        pytest.param(lambda: generate_circuit(GENERATOR_SPECS[3]), id="eng-deep"),
    ],
)
def test_estimate_within_hoeffding_bound_of_exact(circuit):
    """At the paper's 10 000 vectors the estimate lies within the
    union-bounded Hoeffding radius of the exhaustive ``P_ij``."""
    circuit = circuit()
    assert len(circuit.inputs) <= 12
    n_vectors = 10_000
    exact = _exact_matrix(circuit)
    estimate = structural_matrix_batched(circuit, n_vectors, seed=0)
    radius = np.sqrt(np.log(2 * exact.size / 1e-6) / (2 * n_vectors))
    assert np.abs(estimate - exact).max() <= radius
