"""Benchmark of trifault: training, short-record diagnosis and a long healthy stream.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload events --seed 1 --seconds 10 --trace 0

Workloads and why each was chosen are described in ``workloads.py`` and
``BENCHMARK.json``. The program is imported from ``src/`` of the checkout;
without it the benchmark exits with code 2 and prints no result.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
set-up time (import plus getting ready for the first operation, median
of several set-ups), per-operation latency (median and p90), the
workload's accuracy and peak RSS. ``--trace 1`` runs the workload's
minimum number of operations, each once plain and once traced (see
``tracing.py``), checks that both give identical reports and model
bytes, and prints the per-layer metrics plus the tracing overhead. The
spans are written to ``.bench_build/perfbench/``.

Every run prints a detail line ``{"perfbench": {...}}`` with the machine
facts, every workload metric with its unit and sample count, and each
correctness check; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
IMPORT_REPS = 5
SETUP_REPS = 3
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import trifault.cli\n"
    "print(time.perf_counter() - t)\n"
)


class ProgramMissing(RuntimeError):
    pass


def import_program() -> None:
    """Import trifault from this checkout's src/, never from elsewhere."""
    package = SRC / "trifault"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no trifault sources at {package.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import trifault

    if Path(trifault.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"trifault imported from {trifault.__file__}, not from src/")


def import_seconds() -> list[float]:
    """Import time of trifault.cli in fresh interpreters."""
    times = []
    for _ in range(IMPORT_REPS):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            check=True,
            cwd=ROOT,
            timeout=60,
        )
        times.append(float(probe.stdout.strip()))
    return times


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(source_digest) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "src_sha256": source_digest(SRC),
    }


class Pass:
    """Operations of one loop: outcomes in order, wall times of those that returned."""

    def __init__(self):
        self.outcomes: list = []
        self.walls: list[float] = []
        self.failed = 0
        self.checks: dict[str, bool] = {}

    def run(self, workload, api, state, item) -> None:
        """Time one operation, then take its outcome and check it."""
        t0 = time.perf_counter()
        try:
            raw = workload.op(api, state, item)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.outcomes.append(None)
            return
        self.walls.append(time.perf_counter() - t0)
        outcome = workload.outcome(item, raw)
        self.outcomes.append(outcome)
        for name, ok in workload.checks(item, outcome).items():
            self.checks[name] = self.checks.get(name, True) and ok

    def finish(self, workload) -> "Pass":
        self.checks.update(workload.run_checks(self.outcomes))
        return self


def run_ops(workload, api, state, items, seconds: float) -> Pass:
    """Closed loop: at least the workload's minimum operations and `seconds` of timing."""
    done = Pass()
    begin = time.perf_counter()
    k = 0
    while k < workload.min_ops or time.perf_counter() - begin < seconds:
        done.run(workload, api, state, items[k % len(items)])
        k += 1
    return done.finish(workload)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload, items, seconds: float) -> tuple[dict, dict, Pass]:
    """Untraced run: set-up several times, then the timed loop."""
    from tracing import PLAIN
    from workloads import percentile_ms

    imports = import_seconds()
    setups = []
    for _ in range(SETUP_REPS):
        state = None
        t0 = time.perf_counter()
        state = workload.setup(PLAIN)
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(setups)
    done = run_ops(workload, PLAIN, state, items, seconds)
    details, accuracy = workload.summary(items, done.outcomes, done.walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {
        "setup_s": {"value": setup_s, "unit": "s", "n": SETUP_REPS},
        "import_s": {"value": statistics.median(imports), "unit": "s", "n": IMPORT_REPS},
        **details,
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "n": 1},
        "failed": {"value": done.failed, "unit": "count", "n": len(done.outcomes)},
    }
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "latency_ms.p50": _metric(percentile_ms(done.walls, 50), "ms"),
        "latency_ms.p90": _metric(percentile_ms(done.walls, 90), "ms"),
        "accuracy": _metric(accuracy, "share"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    return metrics, details, done


def measure_traced(workload, items, run_id: str) -> tuple[dict, dict, Pass]:
    """The workload's minimum operations, each run plain and traced.

    The two runs of an operation are adjacent, in alternating order, so
    that drift in machine speed falls on both sides of the overhead.
    """
    from tracing import PLAIN, Tracer, layer_metrics

    tracer = Tracer(run_id)
    with tracer.install() as api:
        state = workload.setup(api)
    plain, traced = Pass(), Pass()
    for k in range(workload.min_ops):
        item = items[k % len(items)]
        for use_tracer in (k % 2 == 1, k % 2 == 0):
            if use_tracer:
                with tracer.install() as api:
                    traced.run(workload, api, state, item)
            else:
                plain.run(workload, PLAIN, state, item)
    plain.finish(workload)
    traced.finish(workload)
    traced.checks["traced_equals_untraced"] = traced.outcomes == plain.outcomes
    for name, ok in plain.checks.items():
        traced.checks[name] = traced.checks.get(name, True) and ok
    traced.failed += plain.failed

    spans_path = BUILD / f"spans-{run_id}.jsonl"
    tracer.write(spans_path)
    plain_s, traced_s = sum(plain.walls), sum(traced.walls)
    layers = layer_metrics(tracer.spans)
    layers["trace.overhead_s"] = (traced_s - plain_s, "s")
    layers["trace.overhead_share"] = ((traced_s - plain_s) / plain_s if plain_s else 0.0, "share")
    metrics = {name: _metric(value, unit) for name, (value, unit) in layers.items()}
    n_ops = len(traced.outcomes)
    details = {name: {**m, "n": n_ops} for name, m in metrics.items()}
    details["untraced_s"] = {"value": plain_s, "unit": "s", "n": len(plain.walls)}
    details["traced_s"] = {"value": traced_s, "unit": "s", "n": len(traced.walls)}
    details["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, details, traced


def parse_args(argv):
    parser = argparse.ArgumentParser(description="trifault benchmark")
    parser.add_argument("--workload", required=True, choices=("train", "events", "healthy_long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="plumbing-only sizes for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    scale = workloads.TINY if args.tiny else workloads.FULL
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    work = BUILD / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](scale, SRC, BUILD, work)
        items = workload.inputs(args.seed)
        if args.trace:
            metrics, details, done = measure_traced(workload, items, run_id)
        else:
            metrics, details, done = measure(workload, items, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = done.failed == 0 and bool(done.checks) and all(done.checks.values())
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": "tiny" if args.tiny else "full",
        "machine": machine_facts(workloads.source_digest),
        "metrics": details,
        "checks": done.checks,
    }
    print(json.dumps({"perfbench": report}))
    result = {
        "correct": correct,
        "attempted": len(done.outcomes),
        "failed": done.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
