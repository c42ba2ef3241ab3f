"""One workload run in a fresh process (started by ``perfbench/run.py``).

The process times its own cold set-up — from the parent's stamp taken
just before the spawn, through ``import repro``, to the first result —
and, unless it is a set-up-only sample (``--seconds 0``), then runs warm
rounds for ``--seconds``, checks every output and prints one JSON
record as the last line of its standard output.  Every untraced warm
call is followed by one call of the reference kernel
(:mod:`reference`), and the record carries the ratio of the two wall
times beside the raw samples.

With ``--trace 1`` the process records benchmark-side layer spans
(:mod:`tracing`) during set-up, during every other warm round (the
rounds in between run untraced, which gives the tracing overhead) and
during the final checks, and exports them as a Chrome trace.
"""

from __future__ import annotations

import time

STARTED_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

#: Warm rounds made even when ``--seconds`` runs out first.
MIN_ROUNDS = 2


class Run:
    """What a workload records through: timed calls, checks, spans."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.tracing = tracer is not None
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.traced_samples: dict[str, list[float]] = {}
        #: Untraced warm samples over the reference kernel timed next.
        self.ratios: dict[str, list[float]] = {}
        self.reference_samples: list[float] = []
        self.reference_checked = False

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def layer(self, name: str, fn, *args, **kwargs):
        """A direct call into one layer, spanned under its name."""
        if not self.tracing:
            return fn(*args, **kwargs)
        with self.tracer.span(name, fn=fn.__name__):
            return fn(*args, **kwargs)

    def call(self, name: str, fn, *args, **kwargs):
        """One untimed operation; an exception propagates."""
        self.attempted += 1
        if not self.tracing:
            return fn(*args, **kwargs)
        with self.tracer.span(f"op.{name}"):
            return fn(*args, **kwargs)

    def op(self, name: str, fn, *args, **kwargs):
        """One timed warm operation; an exception counts as a failure
        and returns ``None``.  Untraced, the reference kernel is timed
        right after it."""
        self.attempted += 1
        samples = self.traced_samples if self.tracing else self.samples
        try:
            if self.tracing:
                with self.tracer.span(f"op.{name}"):
                    started = time.perf_counter()
                    result = fn(*args, **kwargs)
                    elapsed = time.perf_counter() - started
            else:
                started = time.perf_counter()
                result = fn(*args, **kwargs)
                elapsed = time.perf_counter() - started
        except Exception:
            self.failures.append(f"{name} raised:\n{traceback.format_exc()}")
            return None
        samples.setdefault(name, []).append(elapsed)
        if not self.tracing:
            # Imported here, so that NumPy is first imported by ``repro``.
            from reference import time_reference

            reference_s = time_reference()
            self.reference_samples.append(reference_s)
            self.ratios.setdefault(name, []).append(elapsed / reference_s)
        return result


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0-ns", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args(argv)

    import_started_ns = time.perf_counter_ns()
    import repro  # noqa: F401  (the import layer)

    import_ended_ns = time.perf_counter_ns()

    import tracing
    from workloads import make_workload

    tracer = hooks = None
    if args.trace:
        from repro.telemetry import Tracer

        tracer = Tracer()
        tracer.record("startup", args.t0_ns, STARTED_NS)
        tracer.record("import", import_started_ns, import_ended_ns)
    run = Run(tracer)
    workload = make_workload(args.workload, args.seed, args.tmp)
    windows: dict[str, list] = {"setup": [], "rounds": [], "finish": []}

    def step(phase: str, method) -> None:
        """One workload step; traced ones run with the hooks in, inside
        a phase span whose interval joins the phase's windows."""
        if not run.tracing:
            if hooks is not None:
                hooks.uninstall()
            method(run)
            return
        hooks.install()
        started_ns = time.perf_counter_ns()
        with tracer.span(f"phase.{phase}"):
            method(run)
        windows[phase].append((started_ns, time.perf_counter_ns()))

    record: dict = {"setup_s": None}
    exit_code = 0
    try:
        if tracer is not None:
            hooks = tracing.LayerHooks(tracer, workload.layers)
        step("setup", workload.setup)
        first_ns = time.perf_counter_ns()
        record["setup_s"] = (first_ns - args.t0_ns) / 1e9
        # Set-up is charged from the parent's stamp, so its window is too.
        windows["setup"] = [(args.t0_ns, first_ns)]
        if args.seconds > 0:
            workload.prepare(run)
            deadline = time.perf_counter() + args.seconds
            rounds = 0
            while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
                run.tracing = tracer is not None and rounds % 2 == 0
                step("rounds", workload.round)
                rounds += 1
            run.tracing = tracer is not None
            step("finish", workload.finish)
            metrics, figures, counts = workload.report(run)
            record.update(metrics=metrics, figures=figures)
            if tracer is not None:
                record["trace"] = trace_record(
                    tracer, hooks, windows, run, counts, args.tmp
                )
    except Exception:
        run.failures.append(f"{args.workload} raised:\n{traceback.format_exc()}")
        exit_code = 1
    finally:
        if hooks is not None:
            hooks.uninstall()
        workload.close()
    record.update(
        attempted=max(run.attempted, 1),
        failed=min(len(run.failures), max(run.attempted, 1)),
        failures=run.failures,
        reference_checked=run.reference_checked,
        samples=run.samples,
        traced_samples=run.traced_samples,
        reference_samples=run.reference_samples,
        ratios=run.ratios,
        peak_rss_mb=peak_rss_mb(),
    )
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(record))
    return exit_code


def trace_record(tracer, hooks, windows, run, counts, tmp: Path) -> dict:
    """Layer tables per phase, coverage, counts and the Chrome trace."""
    import tracing

    spans = tracer.spans()
    names = {name for name, *__ in tracing.HOOKS} | {
        "startup", "import", "circuit", "pool",
    }
    trace_path = tmp / "trace.json"
    problems = tracing.export_chrome_trace(
        spans, trace_path, {"benchmark": "perfbench", "pid": os.getpid()}
    )
    run.check(not problems, f"invalid Chrome trace: {problems[:3]}")
    return {
        "tables": {
            phase: tracing.layer_table(spans, spans_windows, names)
            for phase, spans_windows in windows.items()
        },
        "coverage": {
            phase: tracing.coverage(spans, spans_windows, names)
            for phase, spans_windows in windows.items()
        },
        "rounds": len(windows["rounds"]),
        "counts": counts,
        "missing_hooks": hooks.missing,
        "chrome_trace": str(trace_path),
        "spans": len(spans),
    }


if __name__ == "__main__":
    sys.exit(main())
