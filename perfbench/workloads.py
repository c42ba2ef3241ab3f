"""The benchmark's workloads: seeded inputs, set-up, warm rounds, checks.

Every workload is a closed loop with one client: the next call is made
only after the previous one returned.  The workload seed drives every
generated input (mixed-library assignments, the SERTOPT path sample,
the campaign charge axis); the analysis protocol stays at the paper's
defaults.  Each workload talks to the program through the public API
only (``AsertaAnalyzer``, ``analyze_many``, ``Sertopt``,
``CampaignRunner``, ``ResultStore``, ``WorkerPool``, ``AnalysisEngine``).

A workload has four steps, driven by ``perfbench/child.py``:

``setup(run)``
    everything from the imported package to the first result (the
    cold set-up ``setup_s`` times), checked against the references;
``round(run)``
    one warm round of timed calls (``run.op``), repeated for the run's
    ``--seconds``;
``finish(run)``
    untimed output checks over everything the rounds returned, plus
    the campaign's resume pass;
``report(run)``
    the end-to-end metrics (``metrics``), the per-workload figures the
    human-readable table prints, and exact counts for the traced run.

The end-to-end warm metrics are relative: the median over the run of
each call's wall time over that of the reference kernel timed right
after it (``run.ratios``; see :mod:`reference`).  On a shared host,
other tenants slow the machine by up to about 60% for seconds to many
minutes at a time, which moves a median of wall times by more than any
useful bound and slows the call and the kernel beside it alike.  The
user-facing figures (``analyses_per_s``, ``optimize_s``, ...) stay in
wall-clock units, from medians of the raw samples.
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path

import numpy as np

#: Reference outputs for a range of seeds (``make_references.py``).
REFERENCES = Path(__file__).resolve().parent / "references.json"
#: Relative tolerance of a reference comparison: float reassociation
#: in a faster implementation is allowed, a changed estimate is not.
REL_TOL = 1e-9
#: Candidate lanes per ``analyze_many`` call (the SERTOPT-sized batch).
LANES = 16
#: Paper protocol: random vectors for the ``P_ij`` estimate.
N_VECTORS = 10000
#: Campaign grid (sizes fixed; the seed draws the charge axis).
CAMPAIGN_CIRCUITS = ("c432", "c499", "c880", "c1355")
CAMPAIGN_CHARGES = 6
CAMPAIGN_SAMPLE_WIDTHS = (5, 10)
#: SERTOPT seeds optimized in every ``sertopt-c432`` round beside the
#: workload seed's own instance.
SERTOPT_ANCHORS = (1000, 1001, 1002)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def matches(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_TOL * max(abs(reference), 1e-300)


def mixed_assignments(circuit, seed: int, count: int):
    """``count`` seeded non-uniform assignments over the paper's cell
    library axes: each gate keeps the nominal cell with probability
    0.4, otherwise draws size, channel length, VDD and Vth."""
    from repro import CellParams, ParameterAssignment

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


def campaign_charges(seed: int) -> tuple[float, ...]:
    """Six distinct injected charges (fC, quarter-fC grid in [2, 48])."""
    rng = np.random.default_rng(seed)
    grid = np.arange(2.0, 48.25, 0.25)
    return tuple(sorted(float(q) for q in rng.choice(grid, CAMPAIGN_CHARGES,
                                                     replace=False)))


def campaign_spec(seed: int, cache_dir: str | None):
    from repro import ENVIRONMENTS, CampaignSpec

    return CampaignSpec(
        circuits=CAMPAIGN_CIRCUITS,
        charges_fc=campaign_charges(seed),
        environments=tuple(
            ENVIRONMENTS[name] for name in ("sea-level", "avionics", "leo-space")
        ),
        sample_width_counts=CAMPAIGN_SAMPLE_WIDTHS,
        cache_dir=cache_dir,
    )


def unit_totals(results) -> list[float]:
    """Scenario totals of the first environment — one per analysis unit
    (circuit × charge × sample widths), in grid order."""
    first = results[0].key.environment
    return [r.unreliability_total for r in results if r.key.environment == first]


def sweep_counts(analyzer) -> dict[str, float]:
    """Computed sweep counts: bytes of one lane's dense ``(V, O, k+1)``
    tensor, and the share of its ``(V, O)`` cells the compiled sweep
    plan interpolates (0 when the plan no longer exposes its cells)."""
    idx = analyzer.indexed
    plan = analyzer.sweep_plan
    return {
        "sweep.dense_bytes_per_lane": float(
            idx.n_signals * idx.n_outputs
            * (analyzer.config.n_sample_widths + 1) * 8
        ),
        "sweep.live_cell_fraction": (
            len(plan.cell_dst) / (plan.n_signals * plan.n_outputs)
            if hasattr(plan, "cell_dst") else 0.0
        ),
    }


def engine_counts(engine) -> dict[str, float]:
    """Exact engine counters: fault simulations run, cache hit ratio."""
    stats = engine.stats()
    lookups = stats["hits"] + stats["misses"]
    return {
        "engine.structural_sim_runs": float(stats["structural_sim_runs"]),
        "engine.cache.hit_ratio": stats["hits"] / lookups if lookups else 0.0,
    }


class AsertaWorkload:
    """Cold analyzer build + first ``analyze()``; warm rounds alternate
    one single ``analyze(a)`` with one ``analyze_many`` over the seeded
    16-lane population."""

    layers = ("table_builder", "engine", "electrical_view", "sweep", "reduce")

    def __init__(self, circuit_name: str, seed: int) -> None:
        self.circuit_name = circuit_name
        self.seed = seed
        self.reference = load_references()[f"aserta-{circuit_name}"]
        self.lane_totals: dict[int, float] = {}
        self.batch_totals: np.ndarray | None = None
        self.rounds = 0

    def setup(self, run) -> None:
        from repro import AsertaAnalyzer, AsertaConfig, iscas85_circuit

        self.circuit = run.layer("circuit", iscas85_circuit, self.circuit_name)
        self.analyzer = run.call(
            "analyzer_build", AsertaAnalyzer, self.circuit,
            AsertaConfig(n_vectors=N_VECTORS),
        )
        report = run.call("analyze", self.analyzer.analyze)
        run.check(
            matches(report.total, self.reference["nominal"]),
            f"nominal analyze() total {report.total!r} != reference "
            f"{self.reference['nominal']!r}",
        )

    def prepare(self, run) -> None:
        self.population = mixed_assignments(self.circuit, self.seed, LANES)

    def round(self, run) -> None:
        lane = self.rounds % LANES
        self.rounds += 1
        report = run.op("analyze", self.analyzer.analyze, self.population[lane])
        if report is not None:
            previous = self.lane_totals.setdefault(lane, report.total)
            run.check(previous == report.total,
                      f"analyze() of lane {lane} is not repeatable")
        batch = run.op("analyze_many", self.analyzer.analyze_many,
                       self.population)
        if batch is not None:
            if self.batch_totals is None:
                self.batch_totals = batch.totals.copy()
            run.check(np.array_equal(self.batch_totals, batch.totals),
                      "analyze_many() totals are not repeatable")

    def finish(self, run) -> None:
        for lane in range(LANES):
            if lane not in self.lane_totals:
                report = run.call("analyze", self.analyzer.analyze,
                                  self.population[lane])
                self.lane_totals[lane] = report.total
        singles = np.array([self.lane_totals[lane] for lane in range(LANES)])
        run.check(
            self.batch_totals is not None
            and np.array_equal(self.batch_totals, singles),
            "analyze_many() lane totals differ from analyze(a).total",
        )
        lanes = self.reference["lanes"].get(str(self.seed))
        if lanes is not None:
            run.reference_checked = True
            run.check(
                all(matches(v, r) for v, r in zip(singles, lanes)),
                f"seed {self.seed} lane totals differ from the references",
            )

    def report(self, run) -> tuple[dict, dict, dict]:
        analyze_s = statistics.median(run.samples["analyze"])
        many_s = statistics.median(run.samples["analyze_many"])
        many_ref = statistics.median(run.ratios["analyze_many"])
        metrics = {
            "warm_call_ref": statistics.median(run.ratios["analyze"]),
            "batch_items_per_ref": LANES / many_ref,
        }
        figures = {
            "analyses_per_s": 1.0 / analyze_s,
            "lanes_per_s": LANES / many_s,
        }
        counts = {
            **engine_counts(self.analyzer.engine),
            **sweep_counts(self.analyzer),
        }
        return metrics, figures, counts

    def close(self) -> None:
        pass


class SertoptWorkload:
    """``Sertopt(c432)`` at paper defaults with ``seed`` = workload seed:
    its build and first ``optimize()`` are the set-up.  Three anchor
    instances (fixed SERTOPT seeds) are then built and optimized once,
    untimed, and a warm round calls ``optimize()`` once on each of the
    four instances, timing each call on its own.

    The SERTOPT seed picks the path sample, and with it the optimizer's
    trajectory and how much work it does (matcher pairs scored per
    ``optimize()`` range over about ±20% across seeds on c432); the
    anchors cut that seed-to-seed variation of the round time to a
    quarter while the seed still drives the set-up and one instance."""

    layers = (
        "table_builder", "engine", "electrical_view", "sweep", "reduce",
        "baseline", "matching", "cost", "delay_space", "optimizer",
    )

    def __init__(self, seed: int) -> None:
        self.seeds = [seed, *SERTOPT_ANCHORS]
        self.reference = load_references()["sertopt-c432"]
        self.instances: list = []
        self.firsts: list = []

    def _start(self, run, seed: int) -> None:
        from repro import Sertopt, SertoptConfig

        sertopt = run.call(
            "sertopt_build", Sertopt, self.circuit,
            config=SertoptConfig(seed=seed),
        )
        first = run.call("optimize", sertopt.optimize)
        self.instances.append(sertopt)
        self.firsts.append(first)
        expected = self.reference["seeds"].get(str(seed))
        if expected is not None:
            run.reference_checked = True
            got = (first.unreliability_reduction, first.delay_ratio)
            run.check(
                all(matches(v, r) for v, r in zip(got, expected)),
                f"SERTOPT seed {seed}: (dU, delay ratio) {got} != "
                f"reference {tuple(expected)}",
            )

    def setup(self, run) -> None:
        from repro import iscas85_circuit

        self.circuit = run.layer("circuit", iscas85_circuit, "c432")
        self._start(run, self.seeds[0])
        self.engine_counts = engine_counts(self.instances[0].analyzer.engine)

    def prepare(self, run) -> None:
        for seed in self.seeds[1:]:
            self._start(run, seed)

    def round(self, run) -> None:
        for index, (sertopt, first) in enumerate(zip(self.instances, self.firsts)):
            result = run.op(f"optimize-{index}", sertopt.optimize)
            if result is not None:
                run.check(
                    result.unreliability_reduction == first.unreliability_reduction
                    and result.delay_ratio == first.delay_ratio,
                    f"a warm optimize() of SERTOPT seed {self.seeds[index]} "
                    "differs from its first call",
                )

    def finish(self, run) -> None:
        pass

    def report(self, run) -> tuple[dict, dict, dict]:
        names = [f"optimize-{index}" for index in range(len(self.instances))]
        optimize_s = statistics.mean(
            statistics.median(run.samples[name]) for name in names
        )
        round_ref = sum(statistics.median(run.ratios[name]) for name in names)
        evaluations = sum(f.optimizer_result.evaluations for f in self.firsts)
        metrics = {
            "warm_call_ref": round_ref / len(names),
            "batch_items_per_ref": evaluations / round_ref,
        }
        figures = {
            "optimize_s": optimize_s,
            "u_reduction": statistics.mean(
                f.unreliability_reduction for f in self.firsts
            ),
            "delay_ratio": statistics.mean(f.delay_ratio for f in self.firsts),
        }
        counts = {
            **self.engine_counts,
            **sweep_counts(self.instances[0].analyzer),
            "optimizer.evaluations": float(evaluations),
        }
        return metrics, figures, counts

    def close(self) -> None:
        pass


class CampaignWorkload:
    """A 144-scenario grid on a resident pool of ``min(2, nproc)``
    workers over an empty artifact-cache dir: one cold pass (set-up),
    warm passes into fresh JSONL stores (rounds), one resume pass over
    the populated store (finish)."""

    layers = ("store",)

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.reference = load_references()["campaign"]
        self.passes = 0
        self.pool = None
        self.outcomes: list = []
        self.store_bytes: list[int] = []

    def _pass(self, run, name: str, store_path: Path, timed: bool):
        """One grid pass on the resident pool into the store at
        ``store_path`` (opened, and replayed if it exists, here)."""
        from repro import CampaignRunner, ResultStore

        runner = CampaignRunner(
            self.spec, store=ResultStore(store_path),
            max_workers=self.workers, pool=self.pool,
        )
        call = run.op if timed else run.call
        outcome = call(name, runner.run, parallel=self.workers > 1)
        if outcome is not None and run.tracing:
            self._batch_spans(run.tracer, outcome)
        return outcome

    def _batch_spans(self, tracer, outcome) -> None:
        """Worker-side batch intervals from ``batch_stats``, placed on
        one synthetic trace lane per worker (the pool layer)."""
        for stats in outcome.batch_stats:
            worker = stats.get("worker", "main")
            lane = 1000 + (int(worker[1:]) if worker[1:].isdigit() else 99)
            tracer.record("pool", stats["started_at_ns"], stats["ended_at_ns"],
                          lane=lane, fn="batch", worker=worker)

    def setup(self, run) -> None:
        from repro.campaign import WorkerPool

        self.workers = max(1, min(2, os.cpu_count() or 1))
        self.spec = campaign_spec(self.seed, str(self.tmp / "artifacts"))
        if self.workers > 1:
            self.pool = WorkerPool(self.workers, cache_dir=self.spec.cache_dir)
            run.layer("pool", self.pool.start)
        self.cold = self._pass(run, "cold_pass", self.tmp / "cold.jsonl", False)
        self.expected = {
            r.digest(): (r.unreliability_total, r.fit, r.mission_upset_probability)
            for r in self.cold.results
        }
        expected = self.reference["seeds"].get(str(self.seed))
        if expected is not None:
            run.reference_checked = True
            got = unit_totals(self.cold.results)
            run.check(
                len(got) == len(expected)
                and all(matches(v, r) for v, r in zip(got, expected)),
                f"seed {self.seed}: cold-pass totals differ from the references",
            )

    def prepare(self, run) -> None:
        pass

    def _check(self, run, outcome, what: str) -> None:
        got = {
            r.digest(): (r.unreliability_total, r.fit, r.mission_upset_probability)
            for r in outcome.results
        }
        run.check(got == self.expected, f"{what} results differ from the cold pass")

    def round(self, run) -> None:
        path = self.tmp / f"warm-{self.passes}.jsonl"
        self.passes += 1
        outcome = self._pass(run, "warm_pass", path, True)
        if outcome is not None:
            self._check(run, outcome, "warm-pass")
            run.check(outcome.computed == len(self.expected),
                      "warm pass did not recompute the grid")
            self.outcomes.append((run.tracing, outcome))
            self.store_bytes.append(path.stat().st_size)
        path.unlink(missing_ok=True)

    def finish(self, run) -> None:
        outcome = self._pass(run, "resume_pass", self.tmp / "cold.jsonl", False)
        self._check(run, outcome, "resume-pass")
        self.resume = outcome

    def report(self, run) -> tuple[dict, dict, dict]:
        pass_s = statistics.median(run.samples["warm_pass"])
        pass_ref = statistics.median(run.ratios["warm_pass"])
        scenarios = len(self.expected)
        metrics = {
            "warm_call_ref": pass_ref,
            "batch_items_per_ref": scenarios / pass_ref,
        }
        figures = {"scenarios_per_s": scenarios / pass_s}
        traced = [o for tracing, o in self.outcomes if tracing] or [
            o for __, o in self.outcomes
        ]
        per_pass = 1.0 / len(traced)
        cold_stats = self.cold.batch_stats
        counts = {
            "pool.spinup_s": self.pool.spinup_s if self.pool else 0.0,
            "pool.analyzer_build_s": sum(s["analyzer_build_s"] for s in cold_stats),
            "engine.structural_sim_runs": float(sum(
                max(s["structural_sim_runs"] for s in cold_stats
                    if s.get("worker", "main") == worker)
                for worker in {s.get("worker", "main") for s in cold_stats}
            )),
            "pool.steal_wait_s": per_pass * sum(
                s.get("steal_wait_ns", 0) / 1e9
                for o in traced for s in o.batch_stats
            ),
            "pool.result_recv_s": per_pass * sum(o.result_recv_s for o in traced),
            "pool.analyze_s": per_pass * sum(
                s["analyze_s"] for o in traced for s in o.batch_stats
            ),
            "pool.worker_busy_ratio": sum(
                s["wall_s"] for o in traced for s in o.batch_stats
            ) / sum(o.wall_s * o.workers for o in traced),
            "store.bytes_written": float(statistics.mean(self.store_bytes)),
            "store.resume_skip_ratio": self.resume.skipped
            / (self.resume.skipped + self.resume.computed),
        }
        return metrics, figures, counts

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


def make_workload(name: str, seed: int, tmp: Path):
    if name == "sertopt-c432":
        return SertoptWorkload(seed)
    if name == "campaign":
        return CampaignWorkload(seed, tmp)
    return AsertaWorkload(name.removeprefix("aserta-"), seed)


WORKLOADS = ("aserta-c432", "aserta-c5315", "sertopt-c432", "campaign")
