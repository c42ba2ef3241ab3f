"""Tests for SERTOPT's components: delay space, matching, cost, optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.generator import GeneratorSpec, generate_circuit
from repro.core.baseline import size_for_speed
from repro.core.cost import CostEvaluator, CostWeights
from repro.core.delay_assignment import MIN_DELAY_PS, DelaySpace
from repro.core.matching import MatchingEngine
from repro.core.optimizers import (
    minimize_annealing,
    minimize_coordinate,
    minimize_slsqp,
    run_optimizer,
)
from repro.errors import OptimizationError
from repro.sta.timing import analyze_timing
from repro.tech.electrical_view import CircuitElectrical
from repro.tech.library import CellLibrary, ParameterAssignment


@pytest.fixture(scope="module")
def c432_space(c432):
    elec = CircuitElectrical(c432, ParameterAssignment(), use_tables=False)
    space = DelaySpace(c432, elec.delay_ps, max_paths=400, seed=0)
    return c432, elec, space


class TestDelaySpace:
    def test_dimension_positive_on_real_circuit(self, c432_space):
        __, __e, space = c432_space
        assert space.dimension > 0

    def test_basis_in_sampled_nullspace(self, c432_space):
        """Every potential-basis direction annihilates the sampled
        topology matrix: T @ N == 0 exactly."""
        __, __e, space = c432_space
        residual = np.abs(space.matrix @ space.basis)
        assert float(residual.max()) < 1e-9

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=300))
    def test_potential_basis_neutral_on_random_circuits(self, seed):
        spec = GeneratorSpec("ns", 5, 3, 40, 5, seed=seed)
        circuit = generate_circuit(spec)
        elec = CircuitElectrical(circuit, ParameterAssignment(), use_tables=False)
        space = DelaySpace(circuit, elec.delay_ps, max_paths=300, seed=seed)
        if space.dimension == 0:
            return
        residual = np.abs(space.matrix @ space.basis)
        assert float(residual.max()) < 1e-9

    def test_unclamped_moves_preserve_circuit_delay(self, c432_space):
        """Small perturbations (no MIN_DELAY clamping) leave every
        sampled path delay — and the circuit delay — unchanged."""
        c432, elec, space = c432_space
        x = np.zeros(space.dimension)
        x[0] = 1.0
        base_delay = analyze_timing(c432, elec.delay_ps).delay_ps
        moved = space.assigned_delays(x)
        if min(moved.values()) > MIN_DELAY_PS:  # no clamp engaged
            assert analyze_timing(c432, moved).delay_ps <= base_delay + 1e-6

    def test_svd_method_also_neutral(self, c432):
        elec = CircuitElectrical(c432, ParameterAssignment(), use_tables=False)
        space = DelaySpace(
            c432, elec.delay_ps, max_paths=200, seed=1, method="svd",
            max_dimension=8,
        )
        if space.dimension:
            x = np.zeros(space.dimension)
            x[0] = 5.0
            assert space.path_delay_residual(x) < 1e-6

    def test_unknown_method_rejected(self, c432):
        elec = CircuitElectrical(c432, ParameterAssignment(), use_tables=False)
        with pytest.raises(OptimizationError):
            DelaySpace(c432, elec.delay_ps, method="magic")

    def test_coefficient_shape_checked(self, c432_space):
        __, __e, space = c432_space
        with pytest.raises(OptimizationError):
            space.delta(np.zeros(space.dimension + 1))

    def test_assigned_delays_clamped_positive(self, c432_space):
        __, __e, space = c432_space
        x = np.full(space.dimension, -1e6)
        delays = space.assigned_delays(x)
        assert min(delays.values()) >= MIN_DELAY_PS

    def test_max_dimension_truncates(self, c432):
        elec = CircuitElectrical(c432, ParameterAssignment(), use_tables=False)
        space = DelaySpace(c432, elec.delay_ps, max_paths=200, max_dimension=3)
        assert space.dimension <= 3

    def test_describe_keys(self, c432_space):
        __, __e, space = c432_space
        info = space.describe()
        assert info == {
            "gates": len(space.gate_order),
            "paths": len(space.paths),
            "dimension": space.dimension,
        }


class TestMatching:
    def test_anchored_matching_reproduces_baseline(self, c432):
        library = CellLibrary.paper_library()
        baseline = size_for_speed(c432, library)
        elec = CircuitElectrical(c432, baseline, use_tables=False)
        engine = MatchingEngine(c432, library)
        matched = engine.match(
            dict(elec.delay_ps), dict(elec.input_ramp_ps), anchor=baseline
        )
        for gate in c432.gates():
            assert matched[gate.name] == baseline[gate.name]

    def test_matching_approaches_targets(self, c432):
        library = CellLibrary.paper_library()
        baseline = size_for_speed(c432, library)
        elec = CircuitElectrical(c432, baseline, use_tables=False)
        targets = {n: d * 1.5 for n, d in elec.delay_ps.items()}
        engine = MatchingEngine(c432, library)
        matched = engine.match(targets, dict(elec.input_ramp_ps))
        realized = CircuitElectrical(c432, matched, use_tables=False)
        # Median relative error should be modest with the paper library.
        errors = sorted(
            abs(realized.delay_ps[n] - targets[n]) / targets[n]
            for n in targets
        )
        assert errors[len(errors) // 2] < 0.5

    def test_vdd_ordering_respected(self, c432):
        library = CellLibrary.paper_library()
        baseline = size_for_speed(c432, library)
        elec = CircuitElectrical(c432, baseline, use_tables=False)
        engine = MatchingEngine(c432, library)
        matched = engine.match(
            {n: d * 2.0 for n, d in elec.delay_ps.items()},
            dict(elec.input_ramp_ps),
        )
        for gate in c432.gates():
            own = matched[gate.name].vdd
            for successor in c432.fanouts(gate.name):
                assert own >= matched[successor].vdd - 1e-12

    def test_timing_repair_limits_delay(self, c432):
        library = CellLibrary.paper_library()
        baseline = size_for_speed(c432, library)
        elec = CircuitElectrical(c432, baseline, use_tables=False)
        base_delay = analyze_timing(c432, elec.delay_ps).delay_ps
        cap = base_delay * 1.25
        engine = MatchingEngine(c432, library)
        # Ask for a blatantly slow circuit; repair must pull it back.
        slowed = {n: d * 4.0 for n, d in elec.delay_ps.items()}
        repaired = engine.match_with_timing(
            slowed, dict(elec.input_ramp_ps), cap, anchor=baseline
        )
        realized = CircuitElectrical(c432, repaired, use_tables=False)
        achieved = analyze_timing(c432, realized.delay_ps).delay_ps
        assert achieved <= cap * 1.10

    def test_missing_target_rejected(self, c17):
        engine = MatchingEngine(c17, CellLibrary.paper_library())
        with pytest.raises(OptimizationError):
            engine.match({}, {})


class TestCostEvaluator:
    def test_baseline_cost_equals_total_weight(self, c432_analyzer):
        baseline = size_for_speed(c432_analyzer.circuit)
        evaluator = CostEvaluator(c432_analyzer, baseline)
        assert evaluator.baseline_breakdown.total == pytest.approx(
            evaluator.weights.total_weight
        )
        same = evaluator.evaluate(baseline)
        assert same.total == pytest.approx(evaluator.weights.total_weight)
        assert same.unreliability_reduction == pytest.approx(0.0)

    def test_weight_validation(self):
        with pytest.raises(OptimizationError):
            CostWeights(unreliability=-1.0)
        with pytest.raises(OptimizationError):
            CostWeights(timing_cap=0.5)

    def test_timing_cap_penalty_applies(self, c432_analyzer):
        baseline = size_for_speed(c432_analyzer.circuit)
        strict = CostEvaluator(
            c432_analyzer, baseline,
            weights=CostWeights(timing_cap=1.0, timing_cap_penalty=100.0),
        )
        from repro.tech.library import CellParams

        slow = ParameterAssignment(default=CellParams(length_nm=300.0))
        breakdown = strict.evaluate(slow)
        loose = CostEvaluator(
            c432_analyzer, baseline,
            weights=CostWeights(timing_cap=100.0, timing_cap_penalty=100.0),
        ).evaluate(slow)
        assert breakdown.total > loose.total


class TestOptimizers:
    @staticmethod
    def quadratic(x):
        return float(np.sum((x - 1.0) ** 2))

    def test_slsqp_minimizes_smooth(self):
        result = minimize_slsqp(self.quadratic, np.zeros(3), 5.0, 200, fd_step=0.1)
        assert result.value < 0.05
        assert result.method == "slsqp"

    def test_annealing_improves(self):
        result = minimize_annealing(self.quadratic, np.zeros(3), 5.0, 250, seed=1)
        assert result.value < self.quadratic(np.zeros(3))

    def test_coordinate_improves(self):
        result = minimize_coordinate(self.quadratic, np.zeros(3), 5.0, 200, seed=1)
        assert result.value < self.quadratic(np.zeros(3))

    def test_budget_respected(self):
        calls = []

        def counted(x):
            calls.append(1)
            return self.quadratic(x)

        minimize_annealing(counted, np.zeros(2), 1.0, 37, seed=0)
        assert len(calls) <= 37

    def test_best_point_tracked(self):
        result = minimize_annealing(self.quadratic, np.zeros(2), 5.0, 120, seed=3)
        assert self.quadratic(result.x) == pytest.approx(result.value)

    def test_unknown_method_rejected(self):
        with pytest.raises(OptimizationError):
            run_optimizer("magic", self.quadratic, np.zeros(2), 1.0, 10)

    def test_dispatch(self):
        for method in ("slsqp", "annealing", "coordinate"):
            result = run_optimizer(
                method, self.quadratic, np.zeros(2), 5.0, 60, seed=2
            )
            assert result.evaluations <= 60
