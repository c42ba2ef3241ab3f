"""The repository benchmark: one workload, cold set-up plus warm rounds.

Run from the repository root::

    python3 perfbench/run.py --workload aserta-c5315 --seed 0 --seconds 15 --trace 0

Each invocation starts the workload in fresh Python processes
(``perfbench/child.py``) with a fresh temporary directory under
``.perfbench_tmp/`` in the current directory, removed afterwards.  The
first process times its cold set-up and then runs warm rounds for
``--seconds``; further processes only time a cold set-up, and
``setup_s`` is the median over all of them.  Warm calls are timed
against a reference kernel run right after each of them
(``perfbench/reference.py``): the end-to-end warm metrics are medians of
call time over kernel time.  Every process checks its
outputs (repeatability, batch-versus-single agreement, stored
references); a failed check or an exception makes the run incorrect and
the exit code nonzero.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload with benchmark-side layer spans and
prints the per-layer metrics, the layer tables and the tracing
overhead (``--chrome-trace PATH`` keeps the Chrome trace for
Perfetto).  A human-readable report precedes the JSON result, which is
always the last line of standard output.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
#: Cold set-ups per run (one full process plus set-up-only processes).
SETUPS = 2
#: Wall-clock budget of one run, s; a child still running then is killed.
RUN_BUDGET_S = 170.0
#: The nine user-facing figures the report prints (name, unit).
FIGURES = (
    ("setup_s", "s"),
    ("analyses_per_s", "1/s"),
    ("lanes_per_s", "1/s"),
    ("optimize_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("u_reduction", "fraction"),
    ("delay_ratio", "ratio"),
    ("error_rate", "fraction"),
)


def environment() -> dict:
    """The software and CPU environment the numbers were measured in."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - the record is best-effort
        blas = "unknown"
    threads = {
        name: os.environ[name]
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if name in os.environ
    }
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads or "unset (OpenBLAS default: one per CPU)",
    }


def spawn(root: Path, args, seconds: float, trace: int, tmp: Path,
          deadline: float) -> dict | None:
    """Run one child process; returns its JSON record, or ``None`` when
    it printed none (the reason goes to standard error)."""
    tmp.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(tmp)
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(trace), "--tmp", str(tmp),
    ]
    t0_ns = time.perf_counter_ns()
    # A session of its own, so a child that is stopped early (timed out,
    # or this process terminated) is killed together with any pool
    # workers it forked.
    proc = subprocess.Popen(
        command + ["--t0-ns", str(t0_ns)], cwd=root, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        print("error: a workload process did not finish within the run "
              "budget", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"error: a workload process exited {proc.returncode} without "
              "a result", file=sys.stderr)
        return None


def layer_metrics(trace: dict, setup_overhead_s: float,
                  round_overhead: float) -> dict[str, float]:
    """Per-layer metrics: set-up layers over the traced cold set-up,
    round layers per traced warm round, store replay in the final
    resume pass."""
    tables, counts = trace["tables"], trace["counts"]
    rounds = max(1, trace["rounds"])

    def entry(phase: str, layer: str) -> dict:
        return tables[phase].get(layer, {})

    def setup(layer: str, key: str = "total_s") -> float:
        return float(entry("setup", layer).get(key, 0.0))

    def per_round(layer: str, key: str = "total_s") -> float:
        return float(entry("rounds", layer).get(key, 0.0)) / rounds

    def by_fn(phase: str, layer: str, fn: str, per: float = 1.0) -> float:
        return entry(phase, layer).get("by_fn", {}).get(fn, 0.0) / per

    metrics = {
        "startup.busy_s": setup("startup"),
        "import.busy_s": setup("import"),
        "circuit.busy_s": setup("circuit"),
        "table_builder.busy_s": setup("table_builder"),
        "table_builder.calls": setup("table_builder", "count"),
        "engine.p_matrix.busy_s": setup("engine.p_matrix"),
        "engine.masking_structure.busy_s": setup("engine.masking_structure"),
        "engine.masking_structure.self_s": setup("engine.masking_structure", "self_s"),
        "engine.sweep_plan.busy_s": setup("engine.sweep_plan"),
        "delay_space.describe_s": by_fn("setup", "delay_space", "describe"),
        "electrical_view.busy_s": per_round("electrical_view"),
        "electrical_view.lanes": per_round("electrical_view", "lanes"),
        "sweep.busy_s": per_round("sweep"),
        "sweep.lanes": per_round("sweep", "lanes"),
        "reduce.busy_s": per_round("reduce"),
        "baseline.busy_s": per_round("baseline"),
        "matching.busy_s": per_round("matching"),
        "matching.calls": per_round("matching", "count"),
        "matching.lanes": per_round("matching", "lanes"),
        "cost.busy_s": per_round("cost"),
        "cost.self_s": per_round("cost", "self_s"),
        "cost.lanes": per_round("cost", "lanes"),
        "delay_space.busy_s": per_round("delay_space"),
        "optimizer.busy_s": per_round("optimizer"),
        "optimizer.self_s": per_round("optimizer", "self_s"),
        "store.add_s": by_fn("rounds", "store", "add", rounds),
        "store.adds": per_round("store", "lanes"),
        "store.replay_s": by_fn("finish", "store", "__init__"),
        "trace.setup_coverage": trace["coverage"]["setup"],
        "trace.round_coverage": trace["coverage"]["rounds"],
        "trace.setup_overhead_s": setup_overhead_s,
        "trace.round_overhead_ratio": round_overhead,
    }
    lanes = metrics["cost.lanes"]
    evaluations = counts.get("optimizer.evaluations", 0.0)
    metrics["optimizer.useful_lane_ratio"] = evaluations / lanes if lanes else 0.0
    for name in (
        "sweep.live_cell_fraction", "sweep.dense_bytes_per_lane",
        "engine.structural_sim_runs", "engine.cache.hit_ratio",
        "optimizer.evaluations", "pool.spinup_s", "pool.analyzer_build_s",
        "pool.steal_wait_s", "pool.result_recv_s", "pool.analyze_s",
        "pool.worker_busy_ratio", "store.bytes_written",
        "store.resume_skip_ratio",
    ):
        metrics[name] = float(counts.get(name, 0.0))
    return metrics


def print_layer_tables(trace: dict) -> None:
    for phase, table in trace["tables"].items():
        if not table:
            continue
        per = max(1, trace["rounds"]) if phase == "rounds" else 1
        label = "per traced warm round" if phase == "rounds" else "total"
        print(f"\nlayers, {phase} phase ({label}; coverage "
              f"{100 * trace['coverage'][phase]:.1f}% of phase wall time)")
        print(f"  {'layer':<26}{'busy_s':>11}{'self_s':>11}{'calls':>9}"
              f"{'lanes':>9}")
        for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["total_s"]):
            print(f"  {layer:<26}{row['total_s'] / per:>11.4f}"
                  f"{row['self_s'] / per:>11.4f}{row['count'] / per:>9.1f}"
                  f"{row['lanes'] / per:>9.1f}")
    if trace["missing_hooks"]:
        print(f"\nunhooked (target not found): {', '.join(trace['missing_hooks'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chrome-trace", type=Path, default=None,
                        help="with --trace 1, keep the Chrome trace here")
    args = parser.parse_args(argv)
    # Terminated from outside: unwind, so the running child is killed
    # and the temporary directory removed.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + RUN_BUDGET_S
    # Byte-compile once so no set-up pays for it.
    compileall.compile_dir(root / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    (root / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench_tmp"))
    records = []
    try:
        for index in range(SETUPS):
            seconds = args.seconds if index == 0 else 0.0
            trace = args.trace if index == 0 else 0
            record = spawn(root, args, seconds, trace, tmp / f"p{index}",
                           deadline)
            if record is None or record["setup_s"] is None:
                break
            records.append(record)
        if args.chrome_trace is not None and records and "trace" in records[0]:
            shutil.copyfile(records[0]["trace"]["chrome_trace"], args.chrome_trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (root / ".perfbench_tmp").rmdir()
        except OSError:
            pass
    if len(records) < SETUPS or "metrics" not in records[0]:
        print("error: the workload did not complete; no result",
              file=sys.stderr)
        return 1

    full = records[0]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    setups = [r["setup_s"] for r in records]
    setup_s = statistics.median(setups)
    figures = dict(full["figures"], setup_s=setup_s,
                   peak_rss_mb=full["peak_rss_mb"],
                   error_rate=failed / attempted)
    values = dict(full["metrics"], setup_s=setup_s,
                  peak_rss_mb=full["peak_rss_mb"])

    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("cold set-ups: " + ", ".join(f"{s:.3f} s" for s in setups))
    reference = full["reference_samples"]
    print(f"warm samples (fastest / median / slowest; median over the "
          f"reference kernel, whose median is "
          f"{1e3 * statistics.median(reference):.3f} ms):")
    for op, samples in full["samples"].items():
        print(f"  {op:<16} n={len(samples):<5} {1e3 * min(samples):10.3f} / "
              f"{1e3 * statistics.median(samples):10.3f} / "
              f"{1e3 * max(samples):10.3f} ms   "
              f"{statistics.median(full['ratios'][op]):9.4f} x reference")
    print(f"reference check: {'yes' if full['reference_checked'] else 'no (seed without stored references)'}")
    print(f"\n  {'metric':<18}{'value':>14}  unit")
    for name, unit in FIGURES:
        value = figures.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<18}{shown:>14}  {unit}")

    if args.trace:
        trace = full["trace"]
        untraced = [r["setup_s"] for r in records[1:]]
        setup_overhead = full["setup_s"] - statistics.median(untraced)
        op = next(iter(full["samples"]))
        traced = full["traced_samples"].get(op)
        round_overhead = (
            statistics.median(traced) / statistics.median(full["samples"][op])
            - 1.0 if traced else 0.0
        )
        print_layer_tables(trace)
        print(f"\ntracing overhead: set-up {setup_overhead:+.3f} s, "
              f"warm {op} {100 * round_overhead:+.1f}%")
        computed = layer_metrics(trace, setup_overhead, round_overhead)
        wanted = spec["per_layer"]
    else:
        computed = values
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
