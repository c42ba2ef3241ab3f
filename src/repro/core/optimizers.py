"""Optimization drivers for SERTOPT.

The paper minimizes the Equation-5 cost with Sequential Quadratic
Programming and notes that "simulated annealing, genetic algorithms or
some other optimization algorithm can also be used".  Because the
matched objective is piecewise-constant in the delay assignment (the
library is finite), the SQP driver uses a finite-difference step large
enough to cross cell boundaries; annealing and a stochastic coordinate
search are provided as the derivative-free alternatives and are the
better default on coarse libraries.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import OptimizationError
from repro.telemetry import resolve

Objective = Callable[[np.ndarray], float]

#: The batched-objective protocol: ``objective_batch(X, base=None)``
#: takes a ``(B, D)`` stack of candidate points and returns their
#: ``(B,)`` objective values.  ``base`` is an optional hint — the point
#: the candidates were derived from (the current search iterate) — that
#: lets implementations run delta-aware evaluation (SERTOPT's batched
#: matcher rescores only the gates a probe can actually move).  The
#: values must equal what the scalar objective returns for the same
#: points; drivers are free to evaluate speculatively, so implementations
#: must not count calls — the driver owns the evaluation budget.
BatchObjective = Callable[..., np.ndarray]


@dataclass
class OptimizeResult:
    """Outcome of one optimizer run."""

    x: np.ndarray
    value: float
    evaluations: int
    history: list[float] = field(default_factory=list)
    method: str = ""


class _CountingObjective:
    """Wraps an objective with evaluation counting, caching of the best
    point, and a hard evaluation budget."""

    def __init__(self, objective: Objective, max_evaluations: int) -> None:
        if max_evaluations < 1:
            raise OptimizationError("max_evaluations must be >= 1")
        self._objective = objective
        self.max_evaluations = max_evaluations
        self.evaluations = 0
        self.history: list[float] = []
        self.best_x: np.ndarray | None = None
        self.best_value = math.inf

    def __call__(self, x: np.ndarray) -> float:
        if self.evaluations >= self.max_evaluations:
            # Budget exhausted: return the best seen so SQP line searches
            # terminate quietly instead of burning more evaluations.
            return self.best_value
        self.evaluations += 1
        value = float(self._objective(np.asarray(x, dtype=np.float64)))
        self.history.append(value)
        if value < self.best_value:
            self.best_value = value
            self.best_x = np.array(x, dtype=np.float64)
        return value

    def record(self, x: np.ndarray, value: float) -> float:
        """Consume one precomputed evaluation against the budget.

        The batched drivers evaluate populations speculatively and then
        *replay* them in serial order; each replayed point passes
        through here so ``evaluations``/``history``/best-point tracking
        are exactly what the scalar driver would have produced.  At an
        exhausted budget the value is discarded and the best value is
        returned, mirroring ``__call__``.
        """
        if self.evaluations >= self.max_evaluations:
            return self.best_value
        self.evaluations += 1
        value = float(value)
        self.history.append(value)
        if value < self.best_value:
            self.best_value = value
            self.best_x = np.array(x, dtype=np.float64)
        return value


def minimize_slsqp(
    objective: Objective,
    x0: np.ndarray,
    bounds_halfwidth: float,
    max_evaluations: int = 400,
    fd_step: float = 2.0,
    objective_batch: BatchObjective | None = None,
) -> OptimizeResult:
    """SQP (scipy SLSQP) with a coarse finite-difference step.

    ``fd_step`` should be of the order of the delay quantum between
    adjacent library cells (a few ps) so numerical gradients see the
    discrete structure rather than a flat plateau.

    With ``objective_batch``, the finite-difference gradient is supplied
    as an explicit ``jac``: the ``D + 1`` points of each gradient step
    (the iterate plus one forward probe per dimension) are evaluated in
    a single population call instead of scipy probing them one scalar
    call at a time.  The budget charge per step stays ``D + 1`` — the
    iterate through scipy's ``fun`` call, the ``D`` probes through the
    replay — matching the scalar driver's accounting.
    """
    try:
        from scipy.optimize import minimize
    except ImportError as exc:
        raise OptimizationError(
            "the SLSQP driver needs scipy; install the 'scipy' extra or "
            "pick a derivative-free optimizer"
        ) from exc
    x0 = np.asarray(x0, dtype=np.float64)
    counter = _CountingObjective(objective, max_evaluations)
    counter(x0)
    bounds = [(-bounds_halfwidth, bounds_halfwidth)] * x0.size
    jac = None
    if objective_batch is not None:

        def jac(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=np.float64)
            # Forward difference, flipped to backward where the forward
            # probe would leave the box — scipy's own bounded FD never
            # evaluates outside the declared bounds, and neither may we.
            steps = np.where(
                x + fd_step <= bounds_halfwidth, fd_step, -fd_step
            )
            points = np.concatenate(
                (x[np.newaxis, :], x[np.newaxis, :] + np.diag(steps))
            )
            values = objective_batch(points, base=x)
            # The iterate itself was already counted by scipy's fun(x)
            # call; its batch value (a cache hit for well-behaved
            # objectives) only anchors the differences — recording it
            # again would charge D+2 budget units for D+1 points.
            f0 = float(values[0])
            grad = np.empty(x.size)
            for dim in range(x.size):
                grad[dim] = (
                    counter.record(points[dim + 1], values[dim + 1]) - f0
                ) / steps[dim]
            if counter.evaluations >= counter.max_evaluations:
                # Budget exhausted mid-gradient: report a flat landscape
                # so SLSQP stops moving instead of chasing stale values.
                grad[:] = 0.0
            return grad

    try:
        minimize(
            counter,
            x0,
            method="SLSQP",
            jac=jac,
            bounds=bounds,
            options={
                "maxiter": max(1, max_evaluations // (x0.size + 2)),
                "eps": fd_step,
                "ftol": 1e-6,
            },
        )
    except OptimizationError:
        raise
    except Exception as exc:  # scipy can fail on degenerate problems
        raise OptimizationError(f"SLSQP failed: {exc}") from exc
    assert counter.best_x is not None
    return OptimizeResult(
        x=counter.best_x,
        value=counter.best_value,
        evaluations=counter.evaluations,
        history=counter.history,
        method="slsqp",
    )


def minimize_annealing(
    objective: Objective,
    x0: np.ndarray,
    bounds_halfwidth: float,
    max_evaluations: int = 400,
    seed: int = 0,
    initial_step: float | None = None,
    initial_temperature: float | None = None,
    objective_batch: BatchObjective | None = None,
    batch_size: int = 12,
) -> OptimizeResult:
    """Simulated annealing with geometric cooling and step shrinking.

    With ``objective_batch``, proposals are drawn and scored as
    *populations*: up to ``batch_size`` proposals are generated around
    the current point (with the same sparse-move distribution), one
    population call evaluates them, and the Metropolis accept/reject
    sequence replays them in draw order — each proposal counts exactly
    one evaluation, so the budget and best-point semantics are those of
    the scalar loop.  The walk itself is a population variant (later
    proposals of a round are centred on the round's entry point rather
    than on each other), which is a standard annealing batch scheme —
    the method is stochastic either way.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    counter = _CountingObjective(objective, max_evaluations)
    rng = random.Random(seed)
    current_x = x0.copy()
    if objective_batch is not None:
        current_value = counter.record(
            current_x, float(objective_batch(current_x[np.newaxis, :])[0])
        )
    else:
        current_value = counter(current_x)
    step = initial_step if initial_step is not None else bounds_halfwidth / 4.0
    temperature = (
        initial_temperature
        if initial_temperature is not None
        else max(abs(current_value) * 0.02, 1e-6)
    )
    cooling = 0.96

    def draw_proposal() -> np.ndarray:
        # Sparse moves: perturb a few coordinates, not the whole vector —
        # full-dimension Gaussian steps in a 20+-dimensional nullspace
        # are almost always ruinous and waste the evaluation budget.
        proposal = current_x.copy()
        active = max(1, min(x0.size, int(rng.expovariate(1.0 / 2.0)) + 1))
        for dim in rng.sample(range(x0.size), active):
            proposal[dim] += rng.gauss(0.0, step)
        np.clip(proposal, -bounds_halfwidth, bounds_halfwidth, out=proposal)
        return proposal

    while counter.evaluations < max_evaluations:
        if objective_batch is None:
            proposal = draw_proposal()
            value = counter(proposal)
            pending = [(proposal, value)]
        else:
            count = min(batch_size, max_evaluations - counter.evaluations)
            proposals = [draw_proposal() for __ in range(count)]
            values = objective_batch(np.stack(proposals), base=current_x)
            pending = [
                (proposal, counter.record(proposal, value))
                for proposal, value in zip(proposals, values)
            ]
        for proposal, value in pending:
            accept = value <= current_value or (
                temperature > 0.0
                and rng.random()
                < math.exp((current_value - value) / temperature)
            )
            if accept:
                current_x, current_value = proposal, value
            temperature *= cooling
            step = max(step * 0.995, bounds_halfwidth / 50.0)
    assert counter.best_x is not None
    return OptimizeResult(
        x=counter.best_x,
        value=counter.best_value,
        evaluations=counter.evaluations,
        history=counter.history,
        method="annealing",
    )


def minimize_coordinate(
    objective: Objective,
    x0: np.ndarray,
    bounds_halfwidth: float,
    max_evaluations: int = 400,
    seed: int = 0,
    step_schedule: Sequence[float] = (0.5, 0.25, 0.1),
    objective_batch: BatchObjective | None = None,
    batch_chunk: int = 8,
    telemetry=None,
) -> OptimizeResult:
    """Stochastic coordinate descent: probe +-step along one coordinate
    at a time, keeping improvements; steps shrink per sweep schedule.

    With ``objective_batch``, the +-delta probes of a sweep — all
    derived from the same current point, hence independent until one is
    accepted — are evaluated as populations of up to ``batch_chunk``
    coordinates and *replayed* in serial order against the budget.  On
    an acceptance the not-yet-replayed speculative values are discarded
    (they were probed from the superseded point) and the sweep resumes
    from the new point, so the visited points, the evaluation count,
    the history and the returned optimum are identical to the scalar
    driver's — only the wall-clock differs.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if objective_batch is not None:
        return _minimize_coordinate_batched(
            objective,
            objective_batch,
            x0,
            bounds_halfwidth,
            max_evaluations,
            seed,
            step_schedule,
            batch_chunk,
            telemetry=telemetry,
        )
    counter = _CountingObjective(objective, max_evaluations)
    rng = random.Random(seed)
    current_x = x0.copy()
    current_value = counter(current_x)
    dims = list(range(x0.size))
    for fraction in step_schedule:
        step = bounds_halfwidth * fraction
        rng.shuffle(dims)
        for dim in dims:
            if counter.evaluations >= max_evaluations:
                break
            for direction in (1.0, -1.0):
                probe = current_x.copy()
                probe[dim] = float(
                    np.clip(
                        probe[dim] + direction * step,
                        -bounds_halfwidth,
                        bounds_halfwidth,
                    )
                )
                value = counter(probe)
                if value < current_value:
                    current_x, current_value = probe, value
                    break
    assert counter.best_x is not None
    return OptimizeResult(
        x=counter.best_x,
        value=counter.best_value,
        evaluations=counter.evaluations,
        history=counter.history,
        method="coordinate",
    )


def _minimize_coordinate_batched(
    objective: Objective,
    objective_batch: BatchObjective,
    x0: np.ndarray,
    bounds_halfwidth: float,
    max_evaluations: int,
    seed: int,
    step_schedule: Sequence[float],
    batch_chunk: int,
    telemetry=None,
) -> OptimizeResult:
    """The population-evaluated twin of the scalar coordinate loop."""
    if batch_chunk < 1:
        raise OptimizationError(f"batch_chunk must be >= 1, got {batch_chunk}")
    tel = resolve(telemetry)
    speculated = 0
    counter = _CountingObjective(objective, max_evaluations)
    rng = random.Random(seed)
    current_x = x0.copy()
    current_value = counter.record(
        current_x, float(objective_batch(current_x[np.newaxis, :])[0])
    )
    dims = list(range(x0.size))
    for fraction in step_schedule:
        step = bounds_halfwidth * fraction
        rng.shuffle(dims)
        position = 0
        while position < len(dims):
            if counter.evaluations >= max_evaluations:
                break
            chunk_dims = dims[position : position + batch_chunk]
            probes: list[np.ndarray] = []
            for dim in chunk_dims:
                for direction in (1.0, -1.0):
                    probe = current_x.copy()
                    probe[dim] = float(
                        np.clip(
                            probe[dim] + direction * step,
                            -bounds_halfwidth,
                            bounds_halfwidth,
                        )
                    )
                    probes.append(probe)
            values = objective_batch(np.stack(probes), base=current_x)
            speculated += len(probes)
            accepted = False
            for j in range(len(chunk_dims)):
                if counter.evaluations >= max_evaluations:
                    # The scalar loop breaks out of the dim sweep here
                    # (the while condition re-checks and ends the sweep).
                    position = len(dims)
                    break
                for d_i in (0, 1):
                    probe_index = 2 * j + d_i
                    value = counter.record(
                        probes[probe_index], values[probe_index]
                    )
                    if value < current_value:
                        current_x = probes[probe_index]
                        current_value = value
                        accepted = True
                        break
                if accepted:
                    # Later speculative probes were derived from the
                    # superseded point — discard them (uncounted) and
                    # resume the sweep from the accepted point.
                    position += j + 1
                    break
            else:
                position += len(chunk_dims)
    if tel.enabled:
        # "- 1": the initial record of the entry point is not a probe.
        replayed = max(0, counter.evaluations - 1)
        tel.metrics.add("optimizer.probes.speculated", speculated)
        tel.metrics.add("optimizer.probes.replayed", replayed)
        tel.metrics.add(
            "optimizer.probes.discarded", max(0, speculated - replayed)
        )
    assert counter.best_x is not None
    return OptimizeResult(
        x=counter.best_x,
        value=counter.best_value,
        evaluations=counter.evaluations,
        history=counter.history,
        method="coordinate",
    )


OPTIMIZERS: dict[str, Callable[..., OptimizeResult]] = {
    "slsqp": minimize_slsqp,
    "annealing": minimize_annealing,
    "coordinate": minimize_coordinate,
}


def run_optimizer(
    method: str,
    objective: Objective,
    x0: np.ndarray,
    bounds_halfwidth: float,
    max_evaluations: int,
    seed: int = 0,
    objective_batch: BatchObjective | None = None,
    probe_batch: int | None = None,
    telemetry=None,
) -> OptimizeResult:
    """Dispatch to a registered optimizer by name.

    ``objective_batch`` (see :data:`BatchObjective`) enables population
    evaluation: the coordinate driver batches the independent +-delta
    probes of each sweep (visiting *identical* points on an identical
    budget), annealing scores proposal populations, and SLSQP evaluates
    its finite-difference gradient points in one call.

    ``probe_batch`` sizes those populations (the coordinate driver's
    probe chunk / annealing's proposal batch; SLSQP's gradient batch is
    fixed at ``D + 1`` by the finite difference).  ``None`` keeps each
    driver's default.  The replay accounting makes the visited points
    independent of the value — only block width, and therefore
    wall-clock, changes.

    ``telemetry`` records one ``optimizer.search`` span around the
    driver plus the ``optimizer.evaluations`` counter (and, for the
    coordinate driver, the speculative-probe budget accounting).
    """
    try:
        driver = OPTIMIZERS[method]
    except KeyError:
        raise OptimizationError(
            f"unknown optimizer {method!r}; choose from {sorted(OPTIMIZERS)}"
        ) from None
    if probe_batch is not None and probe_batch < 1:
        raise OptimizationError(
            f"probe_batch must be >= 1, got {probe_batch}"
        )
    tel = resolve(telemetry)
    with tel.span(
        "optimizer.search",
        method=method,
        dimensions=int(np.asarray(x0).size),
        max_evaluations=max_evaluations,
        batched=objective_batch is not None,
    ):
        if method == "slsqp":
            result = driver(
                objective, x0, bounds_halfwidth, max_evaluations,
                objective_batch=objective_batch,
            )
        else:
            extra: dict = {}
            if probe_batch is not None:
                extra[
                    "batch_chunk" if method == "coordinate" else "batch_size"
                ] = probe_batch
            if method == "coordinate":
                extra["telemetry"] = telemetry
            result = driver(
                objective, x0, bounds_halfwidth, max_evaluations, seed=seed,
                objective_batch=objective_batch, **extra,
            )
    if tel.enabled:
        tel.metrics.add("optimizer.runs")
        tel.metrics.add("optimizer.evaluations", result.evaluations)
    return result
