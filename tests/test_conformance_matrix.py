"""The conformance matrix (compiled sweep gate).

Every axis that promises equivalence with a reference implementation is
re-asserted here through one shared harness (:mod:`conformance`):

* **sweep** — the compiled live-cell Section-3.2 sweep against the
  unfused dense loop, across *all* bundled ISCAS-85 circuits and the
  generator families, one-candidate and population paths both, plus a
  16-lane population on c5315 and c7552 and a circuit whose sweep
  gathers from the all-zero cell.  The densified ``ws`` view and the
  expected widths are held to bitwise identity.
* **engine** — ``analyze(engine="array")`` against the scalar
  reference walk (small circuits: the dict walk is the slow seed path).
* **structural_engine** — the config axis end-to-end: an analyzer
  pinned to the event-driven estimator produces the same ``P_ij`` and
  the same totals as the batched default, bit for bit.
* **level_batched** — the level-batched matcher schedule against the
  per-gate walk.
* **characterization** — every technology-table kind, built as one
  broadcast per grid, against the scalar gate model sampled point by
  point, for every ``(gate type, fan-in)`` pair of the circuit axis and
  on a custom grid that hits the ``inf`` and ``0.0`` masks.  Bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from conformance import (
    CONFORMANCE_CIRCUITS,
    CONFORMANCE_SPECS,
    TABLE_KINDS,
    assert_table_bitwise,
    assert_fused_sweep_conforms_batch,
    assert_fused_sweep_conforms_single,
    assert_matcher_states_equal,
    assert_reports_agree,
    conformance_circuit,
    make_matching_engines,
    mixed_assignment,
    mixed_assignments,
    scalar_table,
)
from repro.circuit.gate import GateType
from repro.circuit.netlist import Circuit
from repro.core import aserta
from repro.core.aserta import AsertaAnalyzer, AsertaConfig
from repro.tech.library import CellLibrary
from repro.tech.table_builder import TechnologyTables

N_VECTORS = 64
SEED = 7

#: Circuits small enough for the scalar dict-walk reference engine.
SMALL_CIRCUITS = ["c17", "c432", "c499"] + [s.name for s in CONFORMANCE_SPECS]

#: Ids of the sweep axis.  The sweep has one NumPy kernel; the
#: ``-backend-numpy`` suffix keeps the ids this matrix has always
#: reported.
SWEEP_IDS = [f"{name}-backend-numpy" for name in CONFORMANCE_CIRCUITS]

#: Circuits of the wide-population check (SERTOPT-sized batch).
LARGE_CIRCUITS = ["c5315", "c7552"]
POPULATION_LANES = 16


@pytest.fixture(scope="session")
def analyzer_cache():
    """One analyzer per conformance circuit, shared across the matrix
    (the structural simulation is the expensive part; every axis test
    reuses it)."""
    cache: dict[str, AsertaAnalyzer] = {}

    def get(name: str, **overrides) -> AsertaAnalyzer:
        key = name + repr(sorted(overrides.items()))
        analyzer = cache.get(key)
        if analyzer is None:
            analyzer = AsertaAnalyzer(
                conformance_circuit(name),
                AsertaConfig(
                    n_vectors=N_VECTORS, seed=SEED, n_sample_widths=6,
                    **overrides,
                ),
            )
            cache[key] = analyzer
        return analyzer

    return get


def _po_fanout_circuit() -> Circuit:
    """A primary output that also drives another output: the gate
    feeding it has a live share towards the second output through a
    successor cell that never holds a table (a PO row carries only its
    own column), so the sweep gathers from the all-zero cell."""
    circuit = Circuit("po-fanout")
    a, b, c = (circuit.add_input(name) for name in "abc")
    g1 = circuit.add_gate("g1", GateType.NAND, [a, b])
    y1 = circuit.add_gate("y1", GateType.NOT, [g1])
    y2 = circuit.add_gate("y2", GateType.AND, [y1, c])
    circuit.mark_output(y1)
    circuit.mark_output(y2)
    return circuit


class TestArrayBackendAxis:
    """Compiled live-cell sweep vs. the unfused dense loop."""

    @pytest.mark.parametrize("name", CONFORMANCE_CIRCUITS, ids=SWEEP_IDS)
    def test_single_candidate_conforms(self, name, analyzer_cache):
        analyzer = analyzer_cache(name)
        assignment = mixed_assignment(analyzer.circuit, seed=13)
        assert_fused_sweep_conforms_single(analyzer, assignment)

    @pytest.mark.parametrize("name", CONFORMANCE_CIRCUITS, ids=SWEEP_IDS)
    def test_population_conforms(self, name, analyzer_cache):
        analyzer = analyzer_cache(name)
        assignments = mixed_assignments(analyzer.circuit, seed=11, count=2)
        assert_fused_sweep_conforms_batch(analyzer, assignments)

    @pytest.mark.parametrize("name", LARGE_CIRCUITS)
    def test_wide_population_conforms(self, name, analyzer_cache):
        analyzer = analyzer_cache(name)
        assignments = mixed_assignments(
            analyzer.circuit, seed=37, count=POPULATION_LANES
        )
        assert_fused_sweep_conforms_batch(analyzer, assignments)

    def test_zero_cell_gather_conforms(self):
        analyzer = AsertaAnalyzer(
            _po_fanout_circuit(),
            AsertaConfig(n_vectors=N_VECTORS, seed=SEED, n_sample_widths=6),
        )
        plan = analyzer.sweep_plan
        assert any((level.gather == plan.n_cells).any() for level in plan.levels)
        assignment = mixed_assignment(analyzer.circuit, seed=5)
        assert_fused_sweep_conforms_single(analyzer, assignment)
        assignments = mixed_assignments(analyzer.circuit, seed=5, count=3)
        assert_fused_sweep_conforms_batch(analyzer, assignments)

    def test_one_lane_equals_analyze(self, analyzer_cache):
        analyzer = analyzer_cache("c5315")
        assignment = mixed_assignments(analyzer.circuit, seed=41, count=1)[0]
        report = analyzer.analyze(assignment)
        assert analyzer.analyze_many([assignment]).totals[0] == report.total
        population = analyzer.analyze_many(
            mixed_assignments(analyzer.circuit, seed=41, count=3)
        )
        assert population.totals[0] == report.total

    def test_c5315_population_is_one_chunk(self, analyzer_cache, monkeypatch):
        """The compact tables fit a 16-lane c5315 population into one
        chunk of the default ``max_batch_bytes`` (the dense
        ``(V, O, k+1)`` tensor needed two)."""
        analyzer = analyzer_cache("c5315")
        widths = []
        sweep = aserta.electrical_masking_many

        def counting(structure, delays, *args, **kwargs):
            widths.append(delays.shape[0])
            return sweep(structure, delays, *args, **kwargs)

        monkeypatch.setattr(aserta, "electrical_masking_many", counting)
        analyzer.analyze_many(
            mixed_assignments(analyzer.circuit, seed=43, count=POPULATION_LANES)
        )
        assert widths == [POPULATION_LANES]


class TestEngineAxis:
    """Array engine vs. the scalar reference walk (the seed path)."""

    @pytest.mark.parametrize("name", SMALL_CIRCUITS)
    def test_reports_agree(self, name, analyzer_cache):
        analyzer = analyzer_cache(name)
        assignment = mixed_assignment(analyzer.circuit, seed=17)
        assert_reports_agree(
            analyzer.analyze(assignment, engine="array"),
            analyzer.analyze(assignment, engine="reference"),
        )


class TestStructuralEngineAxis:
    """The config axis end-to-end: event-driven vs. batched P_ij."""

    @pytest.mark.parametrize("name", SMALL_CIRCUITS)
    def test_p_matrix_and_totals_bitwise(self, name, analyzer_cache):
        batched = analyzer_cache(name)
        event = analyzer_cache(name, structural_engine="event")
        np.testing.assert_array_equal(event.p_matrix, batched.p_matrix)
        assignment = mixed_assignment(batched.circuit, seed=19)
        assert event.analyze(assignment).total == batched.analyze(
            assignment
        ).total


class TestLevelBatchedAxis:
    """Level-batched matcher schedule vs. the per-gate walk."""

    LIBRARY = CellLibrary.paper_library(vdds=(0.8, 1.0), vths=(0.2,))

    @pytest.mark.parametrize("name", SMALL_CIRCUITS)
    def test_match_batch_bitwise(self, name):
        circuit = conformance_circuit(name)
        idx = circuit.indexed()
        rng = np.random.default_rng(23)
        targets = rng.uniform(0.5, 400.0, size=(3, idx.n_signals))
        gate_eng, level_eng = make_matching_engines(circuit, self.LIBRARY)
        assert_matcher_states_equal(
            gate_eng.match_batch(targets, {}, anchor=None),
            level_eng.match_batch(targets, {}, anchor=None),
            name,
        )


class TestCharacterizationAxis:
    """Broadcast table builder vs. the point-by-point scalar oracle."""

    @pytest.fixture(scope="class")
    def default_oracle(self):
        """Oracle tables on the default grids, computed once per
        ``(kind, gate type, fan-in)`` (circuits share most pairs)."""
        tables = TechnologyTables()
        cache: dict = {}

        def get(kind, gtype, fanin):
            key = (kind, gtype, fanin)
            if key not in cache:
                cache[key] = scalar_table(tables, kind, gtype, fanin)
            return cache[key]

        return get

    @pytest.mark.parametrize("name", CONFORMANCE_CIRCUITS)
    def test_tables_bitwise(self, name, default_oracle):
        pairs = conformance_circuit(name).indexed().group_pairs
        tables = TechnologyTables()
        for kind in TABLE_KINDS:
            stack = tables.stacked_values(kind, pairs)
            for (gtype, fanin), fast in zip(pairs, stack):
                assert_table_bitwise(
                    fast, default_oracle(kind, gtype, fanin),
                    f"{name} {kind} {gtype.name}/{fanin}",
                )

    def test_masked_custom_grid_bitwise(self):
        """A grid whose points hit every mask: ``vdd < vth`` and
        ``vdd == vth`` (``inf``), zero charge and charge at or below the
        critical charge (``0.0``), and non-default Vth values
        (including 0) through the per-Vth ``exp``."""
        tables = TechnologyTables(
            sizes=(0.5, 2.0),
            lengths_nm=(70.0, 150.0),
            vdds=(0.15, 0.3, 0.6, 1.1),
            vths=(0.0, 0.15, 0.3, 0.45),
            loads_ff=(0.0, 4.0, 80.0),
            ramps_ps=(0.0, 25.0),
            charges_fc=(0.0, 1.0, 8.0, 64.0),
        )
        assert set(tables.vdds) & set(tables.vths)  # vdd == vth points
        assert min(tables.vdds) < max(tables.vths)  # vdd < vth points
        pairs = (
            (GateType.NOT, 1), (GateType.NAND, 2), (GateType.NOR, 3),
            (GateType.XOR, 2), (GateType.AND, 4), (GateType.BUF, 1),
        )
        for kind in TABLE_KINDS:
            stack = tables.stacked_values(kind, pairs)
            for (gtype, fanin), fast in zip(pairs, stack):
                oracle = scalar_table(tables, kind, gtype, fanin)
                assert_table_bitwise(fast, oracle, f"{kind} {gtype.name}/{fanin}")
        glitch = tables.stacked_values("glitch", pairs)
        # Live points below the critical charge (charge > 0, width 0.0).
        assert (glitch[..., 1:] == 0.0).any()
        assert np.isinf(glitch).any() and (glitch > 0.0).any()
