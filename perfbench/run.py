"""Outside-in benchmark of acforms: end-to-end metrics, or per-layer metrics
from a separate traced run.

    python3 perfbench/run.py --workload refute|scan|ideal --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Prints one line per metric, then the result as one JSON object on
the last line.  Scratch files go to `.perfbench_work/` in the checkout and
are removed at the end; a traced run leaves the span files of every
process in `.perfbench_work/trace-<workload>/`, replacing the last ones.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from types import SimpleNamespace

from calibrate import REFERENCE_S, reference_seconds, scaled
from tracer import MODULES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
UNTRACED_SHARE = 1 / 4      # of --seconds, in a traced run, before tracing starts
MIN_COVERAGE = 0.95

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s",
                    "throughput_ops_per_s": "1/s", "artifact_bytes": "B",
                    "peak_rss_mb": "MB"}


@dataclass
class OpRecord:
    start: float
    end: float
    artifact_bytes: int
    error: str | None
    reference: float = 0.0      # mean reference-kernel time just before and after

    @property
    def seconds(self) -> float:
        return scaled(self.end - self.start, self.reference)


def import_package():
    """Fresh import of acforms from the checkout's `src/`."""
    for name in [n for n in sys.modules if n == "acforms" or n.startswith("acforms.")]:
        del sys.modules[name]
    package = importlib.import_module("acforms")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"acforms imported from {package.__file__}, not {SRC}")
    mods = SimpleNamespace(**{m: importlib.import_module(f"acforms.{m}") for m in MODULES})
    return package, mods


def timed_setup(workload, seed: int, work: Path):
    """Import and generate inputs SETUP_REPEATS times; keep the last inputs."""
    times = []
    before = reference_seconds()
    for rep in range(SETUP_REPEATS):
        directory = work / f"inputs-{rep}"
        directory.mkdir(parents=True)
        start = time.perf_counter()
        package, mods = import_package()
        inputs = workload.setup(mods, seed, directory)
        elapsed = time.perf_counter() - start
        after = reference_seconds()
        times.append(scaled(elapsed, (before + after) / 2))
        before = after
    return median(times), package, mods, inputs


def run_op(workload, mods, item, out: Path) -> OpRecord:
    start = time.perf_counter()
    end = None
    try:
        result = workload.op(mods, item, out)
        end = time.perf_counter()
        workload.check(item, out, result)
        error = None
    except Exception as exc:    # a failed op is counted, and the run continues
        end = end or time.perf_counter()
        error = f"{type(exc).__name__}: {exc}"
        print(f"op failed: {error}", file=sys.stderr)
    size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return OpRecord(start, end, size, error)


def run_loop(workload, mods, inputs, work: Path, tag: str, *, seconds: float = 0,
             count: int | None = None, on_op=None) -> list[OpRecord]:
    """Closed loop, one client: `count` ops, or ops until `seconds` have
    passed (at least one)."""
    records: list[OpRecord] = []
    begin = time.perf_counter()
    before = reference_seconds()
    while True:
        i = len(records)
        if count is not None and i >= count:
            break
        if count is None and i and time.perf_counter() - begin >= seconds:
            break
        if on_op is not None:
            on_op(i)
        record = run_op(workload, mods, inputs[i % len(inputs)], work / f"out-{tag}-{i:04d}")
        after = reference_seconds()
        record.reference = (before + after) / 2
        before = after
        records.append(record)
    return records


def tail(values: list[float]) -> str:
    """The highest whole percentile with at least ten values beyond it, by
    nearest rank, with the percentile and n."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return f"n/a (n={n}; no percentile has ten ops beyond it)"
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)
    return f"{ordered[rank - 1]:.6g} s (p{pct}, n={n})"


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus `workers` workers at the largest worker peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024


def end_to_end(workload, setup_s: float, records: list[OpRecord]) -> tuple[dict, list[str]]:
    latencies = [r.seconds for r in records]
    values = {"setup_s": setup_s,
              "op_p50_s": median(latencies),
              "throughput_ops_per_s":
                  len(records) * workload.instances_per_op / sum(latencies),
              "artifact_bytes": sum(r.artifact_bytes for r in records) / len(records),
              "peak_rss_mb": peak_rss_mb(workload.workers)}
    notes = {"setup_s": f"median of {SETUP_REPEATS} set-ups",
             "op_p50_s": f"n={len(records)}, wall median "
                         f"{median(r.end - r.start for r in records):.3f} s",
             "throughput_ops_per_s": (f"{workload.instances_per_op} instances per op"
                                      if workload.instances_per_op > 1 else "ops per second"),
             "artifact_bytes": "JSON artifacts written per op",
             "peak_rss_mb": f"this process + {workload.workers} workers"}
    lines = [f"{k} = {v:.6g} {END_TO_END_UNITS[k]} ({notes[k]})" for k, v in values.items()]
    lines.append(f"op_tail_s = {tail(latencies)} (printed only, not a gated metric)")
    return values, lines


def same_artifacts(a: Path, b: Path) -> bool:
    """Byte equality of every artifact but the manifests, which record paths."""
    def contents(out: Path) -> dict:
        return {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*.json")) if p.name != "manifest.json"}
    return contents(a) == contents(b)


def traced(workload, package, mods, inputs, work: Path, seconds: float,
           trace_dir: Path) -> tuple[dict, list[str], list[OpRecord], list[str]]:
    """Untraced ops, then two traced passes over the same ops.

    Returns the per-layer metrics of the first traced pass, lines to print,
    every op record, and the self-check failures.
    """
    from layers import EXACT, PER_LAYER, layer_metrics
    from tracer import Tracer

    plain = run_loop(workload, mods, inputs, work, "u", seconds=seconds * UNTRACED_SHARE)
    k = len(plain)
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    tracer = Tracer(trace_dir)
    tracer.install(package)
    passes = {}
    for p, tag in enumerate(("a", "b")):
        def mark(i, base=p * k):
            tracer.op = base + i
        passes[tag] = run_loop(workload, mods, inputs, work, tag, count=k, on_op=mark)
    tracer.op = -1
    tracer.write()
    processes = [tracer.records(), *tracer.worker_records()]

    untraced = sum(r.seconds for r in plain)
    metrics = {tag: layer_metrics(processes, tracer.pid, set(range(p * k, (p + 1) * k)),
                                  [(r.start, r.end) for r in records],
                                  workload.workers,
                                  REFERENCE_S / median(r.reference for r in records),
                                  (sum(r.seconds for r in records) - untraced) / k)
               for p, (tag, records) in enumerate(passes.items())}
    problems = []
    for i in range(k):
        for tag in passes:
            if not same_artifacts(work / f"out-u-{i:04d}", work / f"out-{tag}-{i:04d}"):
                problems.append(f"op {i}: traced pass {tag} artifacts differ from untraced")
    for name in EXACT:
        if metrics["a"][name] != metrics["b"][name]:
            problems.append(f"{name} differs between traced passes: "
                            f"{metrics['a'][name]} vs {metrics['b'][name]}")
    if metrics["a"]["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"trace.coverage {metrics['a']['trace.coverage']:.3f} "
                        f"below {MIN_COVERAGE}")
    units = dict(PER_LAYER)
    values = metrics["a"]
    lines = [f"{name} = {values[name]:.6g} {units[name]}" for name in values]
    lines.append(f"ops: {k} untraced, then the same {k} traced twice; spans in {trace_dir}")
    return ({name: {"value": v, "unit": units[name]} for name, v in values.items()},
            lines, plain + passes["a"] + passes["b"], problems)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "acforms" / "__init__.py").is_file():
        print(f"error: no acforms sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print(f"env: python={platform.python_version()} nproc={os.cpu_count()} "
              f"git_sha={git_sha()} workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        setup_s, package, mods, inputs = timed_setup(workload, args.seed, work)
        problems = []
        if args.trace:
            metrics, lines, records, problems = traced(
                workload, package, mods, inputs, work, args.seconds,
                work_root / f"trace-{args.workload}")
        else:
            records = run_loop(workload, mods, inputs, work, "u", seconds=args.seconds)
            values, lines = end_to_end(workload, setup_s, records)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in values.items()}
        failed = sum(r.error is not None for r in records)
        for line in lines:
            print(f"{args.workload}: {line}")
        print(f"{args.workload}: failed_frac = {failed / len(records):.6g} "
              f"({failed}/{len(records)} ops)")
        for problem in problems:
            print(f"{args.workload}: trace self-check failed: {problem}")
        result = {"correct": failed == 0 and not problems, "attempted": len(records),
                  "failed": failed, "metrics": metrics}
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
