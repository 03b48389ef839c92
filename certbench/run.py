"""Certification benchmark for cycloskew.

    python3 certbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 certbench/run.py --all [--seconds S] [--trace 0|1] [--out FILE]

Run from the root of a source checkout; the library is imported from
``src/``.  A batch closed loop: one client thread sends each op after
the previous one returned.  Every batch runs in a fresh interpreter, so
peak RSS and set-up time belong to that batch alone, and every batch is
timed cold, as a user running one command would see it.

``--trace 0`` starts batches until ``--seconds`` have passed (at least
two) and reports the end-to-end metrics.  ``--trace 1`` runs one batch
untraced and one with every layer boundary wrapped (``tracer.py``) and
reports per-layer metrics.  Every op's outputs are compared with
``golden.json``; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md says
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units
WORKLOAD_NAMES = ("table2", "sweep", "verify-random", "fields")  # one function each in workloads.py
MIN_BATCHES = 2  # so a run's medians never rest on one batch
SETUP_SAMPLES = 15  # fresh interpreters timed to the first op; the median is reported
RUN_LIMIT_S = 170.0  # a run that would take longer is killed and reported as an error
TOP_SPANS = 30  # (boundary, field order) rows printed by a traced run


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# ---- child: one workload in a fresh interpreter ----


def _load_golden(size: str, workload: str) -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)[size][workload]


def _run_batch(ops, tracer=None):
    """Run every op once; returns (wall, latencies, results).  A raised
    exception is the op's result and fails its golden check."""
    ctx: dict = {}
    latencies, results = [], []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.call(ctx)
            else:
                with tracer.span("op"):
                    result = op.call(ctx)
        except Exception as exc:  # the op failed; counted, never fatal
            result = exc
        latencies.append(time.perf_counter() - t0)
        results.append(result)
    return time.perf_counter() - start, latencies, results


def _outputs(op, result) -> dict[str, str]:
    if not isinstance(result, Exception):
        try:
            return op.outputs(result)
        except Exception as exc:  # e.g. a catalog the command never wrote
            result = exc
    return {"exception": f"{type(result).__name__}: {result}"}


def _check(ops, results, golden: dict, digest) -> tuple[int, int, list[str], int]:
    """(attempted, failed, first failures, output bytes) against golden."""
    attempted = failed = out_bytes = 0
    failures: list[str] = []
    for op, result in zip(ops, results):
        want = golden.get(op.key, {})
        got = _outputs(op, result)
        out_bytes += sum(len(t.encode()) for t in got.values())
        for name in sorted(set(want) | set(got)):
            attempted += 1
            if name not in got or name not in want or digest(got[name]) != want[name]:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{op.key}/{name}")
        if not want and not got:
            attempted += 1
            failed += 1
            if len(failures) < 5:
                failures.append(f"{op.key}: no golden")
    return attempted, failed, failures, out_bytes


def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np
    import cycloskew
    import workloads

    if not Path(cycloskew.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"cycloskew imported from {cycloskew.__file__}, not from {SRC}")
    # each batch writes into its own directory, so it never reads an earlier batch's files
    workdir = Path(args.workdir) / str(os.getpid())
    ops = workloads.ops_for(args.workload, args.size, workloads.seeded_variants(args.seed), workdir)
    # CPU time from interpreter start: unlike wall time, it does not grow
    # while other processes hold the CPU
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {"setup_cpu_s": usage.ru_utime + usage.ru_stime, "numpy": np.__version__}
    if args.child == "setup":
        print(json.dumps(report))
        return 0
    golden = _load_golden(args.size, args.workload)
    workdir.mkdir()
    tracer = None
    if args.child == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        wall, latencies, results = _run_batch(ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # read before the check, which counts profiles again for verify-random
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, failures, out_bytes = _check(ops, results, golden, workloads.digest)
    report.update(
        wall=wall,
        latencies_ms=[x * 1000 for x in latencies],
        attempted=attempted,
        failed=failed,
        failures=failures,
        peak_rss_mb=peak_rss_mb,
    )
    if tracer is not None:
        layers = tracer.layer_metrics(wall)
        layers["cli.output_bytes"] = out_bytes if args.workload in ("table2", "sweep") else 0
        report["layers"] = layers
        report["spans"] = tracer.top_spans(TOP_SPANS)
    print(json.dumps(report))
    return 0


# ---- parent: spawn the children and report ----


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CYCLOSKEW_JOBS", None)  # the benchmark never runs the library's thread pool wider
    threads = str(_nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    return env


def _spawn(args, mode: str, workdir: Path, deadline: float) -> dict:
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--workdir", str(workdir),
    ]
    try:
        proc = subprocess.run(
            argv, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=deadline - time.monotonic()
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode} child for {args.workload} ran past the run's time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} child for {args.workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(args) -> dict:
    """Untraced: fresh children each time one cold batch, started until
    ``seconds`` have passed (at least MIN_BATCHES), and set-up is timed in at
    least SETUP_SAMPLES fresh interpreters.  Traced: one untraced and one
    traced child."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = ROOT / ".certbench" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            reports = [_spawn(args, mode, workdir, deadline) for mode in ("measure", "trace")]
        else:
            reports = []
            first = time.monotonic()
            while len(reports) < MIN_BATCHES or time.monotonic() - first < args.seconds:
                reports.append(_spawn(args, "measure", workdir, deadline))
            setups = [rep["setup_cpu_s"] for rep in reports]
            while len(setups) < SETUP_SAMPLES:
                setups.append(_spawn(args, "setup", workdir, deadline)["setup_cpu_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            workdir.parent.rmdir()
    if args.trace:
        values = reports[1]["layers"]
        values["trace.overhead_s"] = reports[1]["wall"] - reports[0]["wall"]
    else:
        values = {
            "wall_s": statistics.median(rep["wall"] for rep in reports),
            "op_ms_p50": statistics.median(percentile(rep["latencies_ms"], 50) for rep in reports),
            "op_ms_p90": statistics.median(percentile(rep["latencies_ms"], 90) for rep in reports),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reports),
            "setup_s": statistics.median(setups),
        }
    spec = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    env = {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": reports[0]["numpy"],
        "nproc": _nproc(),
    }
    attempted = sum(rep["attempted"] for rep in reports)
    failed = sum(rep["failed"] for rep in reports)
    failures = [f for rep in reports for f in rep["failures"]][:5]
    print(
        f"# {args.workload} size={args.size} seed={args.seed} trace={args.trace}: "
        f"{len(reports)} batch(es), {sum(len(rep['latencies_ms']) for rep in reports)} op samples, "
        f"{attempted} outputs checked, {failed} failed "
        f"(failed_frac {failed / max(attempted, 1):.6g})"
        + (f", first failures: {failures}" if failed else "")
    )
    for name, q, calls, self_s, incl_s in reports[-1].get("spans", []):
        print(f"# span {name} q={q} calls={calls} self_s={self_s:.6f} inclusive_s={incl_s:.6f}")
    print(f"# env {json.dumps(env)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    results, envs = {}, {}
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size,
        ]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(line)
            if line.startswith("# env "):
                envs[name] = json.loads(line[len("# env "):])
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<14} {'metric':<34} {'value':>16} unit")
    for name, res in results.items():
        rows = [(k, m["value"], m["unit"]) for k, m in res["metrics"].items()]
        rows.append(("failed_frac", res["failed"] / res["attempted"], "ratio"))
        for metric, value, unit in rows:
            print(f"{name:<14} {metric:<34} {value:>16.6g} {unit}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"trace": args.trace, "env": envs, "results": results}, fh, indent=1)
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload and print one table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny instances exist for the benchmark's own tests")
    parser.add_argument("--out", help="with --all: also write the results as JSON")
    parser.add_argument("--child", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "cycloskew" / "__init__.py").is_file():
        print(f"error: no cycloskew sources under {SRC}", file=sys.stderr)
        return 2
    if not GOLDEN.is_file():
        print(f"error: no golden file {GOLDEN}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    try:
        result = run_workload(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
