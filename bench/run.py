#!/usr/bin/env python3
"""rfplan benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload site-survey --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from anywhere; the benchmark measures the rfplan sources under src/ next
to this directory. It prints a metric table, then one JSON line
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The full result, with
provenance, goes to bench/results/BENCH_<workload>_s<seed>_t<trace>.json and
a traced run's spans to bench/results/spans_<workload>_s<seed>.jsonl.

--seconds sets a fixed op count (seconds x the workload's nominal rate, see
workloads/__init__.py), not a deadline, so a faster commit runs the same ops.
See bench/README.md for why each workload and metric exists.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
GOLDENS = BENCH / "goldens"
# This process's set-up plus four in fresh processes. For in-process
# workloads they are spread over the pass, so that they see more than one
# of the machine's speed states (speed.py). cli-session takes them after the
# pass: they would count in its children's peak RSS.
SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples above it
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH))

from speed import SpeedClock  # noqa: E402
from metrics import END_TO_END, PER_LAYER, layer_values  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="run length at the seed commit's speed; fixes the op count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-goldens", action="store_true",
                   help="store this seed's op digests in the goldens file instead of checking")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def use_checkout_sources() -> None:
    """Import rfplan from this checkout's src/, and fail if that is not possible."""
    if not (SRC / "rfplan" / "__init__.py").is_file():
        raise BenchError(f"no rfplan sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import rfplan

    if not Path(rfplan.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"rfplan imported from {rfplan.__file__}, not from {SRC}")


def op_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds * WORKLOADS[workload][1]))


def timed_setup(name: str, seed: int, n_ops: int, workdir: Path):
    """Import the workload (numpy, rfplan layers) and build its inputs.

    Returns the workload and the set-up time in seconds.
    """
    t0 = time.perf_counter()
    module = importlib.import_module(WORKLOADS[name][0])
    workload = module.WORKLOAD(seed, n_ops, workdir)
    return workload, time.perf_counter() - t0


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def load_goldens(path: Path) -> dict:
    if path.is_file():
        return json.loads(path.read_text())
    return {"seeds": {}}


def describe(exc: Exception) -> str:
    """Exception type, message and the innermost frame that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} (at {Path(frame.filename).name}:{frame.lineno})"


def run_pass(workload, n_ops: int, tr, speed: SpeedClock, goldens: list[str] | None,
             after_op=None):
    """One closed-loop pass: op i+1 starts when op i, its check and speed sample are done.

    after_op(i), when given, runs after op i's speed sample, outside the op's time.
    Returns per-op (start, end) times, failure messages and output digests.
    """
    workload.start_pass()
    intervals, failures, digests = [], [], []
    for i in range(n_ops):
        tr.op, tr.phase = i, "op"
        t0 = time.perf_counter()
        try:
            with tr.span("op"):
                out = workload.op(i, tr)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            intervals.append((t0, time.perf_counter()))
            errors, digest = [f"raised {describe(exc)}"], None
        else:
            intervals.append((t0, time.perf_counter()))
            tr.phase = "reference"
            try:
                errors = workload.check(i, out, tr)
                digest = workload.digest(i, out)
            except Exception as exc:  # a check that cannot finish fails the op
                errors, digest = [f"check raised {describe(exc)}"], None
            if goldens is not None and i < len(goldens) and digest != goldens[i]:
                errors.append(f"digest {digest} != golden {goldens[i]}")
        if errors:
            failures.append(f"op {i}: " + "; ".join(errors))
        digests.append(digest)
        speed.sample()
        if after_op is not None:
            after_op(i)
    return intervals, failures, digests


def tail(durations: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile with TAIL_BEYOND above it."""
    ordered = sorted(durations)
    # too few samples for any percentile to have TAIL_BEYOND above it: the max
    k = len(ordered) - 1 - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None, "git_note": "not a git checkout"}
    def git(*a):
        return subprocess.run(["git", "-C", str(ROOT), *a], capture_output=True, text=True,
                              timeout=30).stdout.strip()
    return {"git_sha": git("rev-parse", "HEAD"), "git_dirty": bool(git("status", "--porcelain"))}


def src_digest() -> str:
    """sha256 over the rfplan sources, identifying the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "rfplan").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def version_of(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def provenance(args, n_ops: int, seed_role: str) -> dict:
    return {
        **git_state(),
        "src_sha256": src_digest(),
        "python": sys.version,
        "numpy": version_of("numpy"),
        "scipy": version_of("scipy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seed_role": seed_role,
        "seconds": args.seconds,
        "ops_per_run": n_ops,
        "loop": "closed, 1 client, single process",
        "wait_times": "not measured: no layer queues work",
    }


def run_workload(args) -> dict:
    n_ops = op_count(args.workload, args.seconds)
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        workload, setup_s = timed_setup(args.workload, args.seed, n_ops, workdir)
        if args.setup_probe:
            return {"setup_s": setup_s}
        return measure(args, workload, n_ops, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, n_ops: int, setup_s: float) -> dict:
    golden_path = GOLDENS / f"{args.workload}.json"
    golden_doc = load_goldens(golden_path)
    seed_goldens = golden_doc["seeds"].get(str(args.seed))
    seed_role = ("held-out" if args.seed == golden_doc.get("held_out_seed")
                 else "development" if seed_goldens is not None else "no goldens")
    check_against = None if args.record_goldens else seed_goldens

    speed = SpeedClock(workload.speed_window_s)
    speed.sample()
    setups = [setup_s]
    setup_after = set()
    if args.trace == 0 and not workload.runs_in_children:
        setup_after = {n_ops * k // SETUP_SAMPLES for k in range(1, SETUP_SAMPLES)}

    def fresh_setup(i: int) -> None:
        if i in setup_after:
            setups.append(setup_in_fresh_process(args))
            speed.sample()  # kernel samples next to the following op

    intervals, failures, digests = run_pass(workload, n_ops, NullTracer(), speed, check_against,
                                            fresh_setup)
    durations = [speed.adjust(t0, t1) for t0, t1 in intervals]
    raw = [t1 - t0 for t0, t1 in intervals]
    attempted, failed = n_ops, len(failures)
    tail_s, tail_pct, beyond = tail(durations)
    result = {"provenance": {
        **provenance(args, n_ops, seed_role),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
    }}
    if args.trace == 0:
        who = resource.RUSAGE_CHILDREN if workload.runs_in_children else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_in_fresh_process(args))
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": n_ops / sum(durations),
            "op_p50_ms": statistics.median(durations) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = dict(END_TO_END)
        result["detail"] = {
            "setup_samples_s": setups,
            "failed_frac": failed / attempted,
            "peak_rss_of": "children" if workload.runs_in_children else "self",
            "wall_clock": {
                "ops_per_s": n_ops / sum(raw),
                "op_p50_ms": statistics.median(raw) * 1e3,
                "op_tail_ms": tail(raw)[0] * 1e3,
            },
        }
    else:
        tracer = Tracer()
        traced, traced_failures, _ = run_pass(workload, n_ops, tracer, speed, check_against)
        tracer.op, tracer.phase = None, "probe"
        workload.probes(tracer)
        attempted += n_ops
        failed += len(traced_failures)
        failures += traced_failures
        # both passes in reference-speed seconds, as they may run in different states
        traced_s = sum(speed.adjust(t0, t1) for t0, t1 in traced)
        overhead = 1.0 - sum(durations) / traced_s
        values = layer_values(tracer, n_ops, overhead)
        units = dict(PER_LAYER)
        spans_path = RESULTS / f"spans_{args.workload}_s{args.seed}.jsonl"
        tracer.write(spans_path)
        result["detail"] = {
            "coverage": tracer.coverage(),
            "untraced_ops_per_s": n_ops / sum(durations),
            "traced_ops_per_s": n_ops / traced_s,
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
        }
    result["detail"]["speed_kernel_median_s"] = speed.median_s()

    if args.record_goldens:
        if failures:
            raise BenchError(f"not recording goldens from a run with failures: {failures[:3]}")
        golden_doc["seeds"][str(args.seed)] = digests
        golden_doc.setdefault("recorded_at", {"git_sha": git_state()["git_sha"], "src_sha256": src_digest()})
        golden_path.write_text(json.dumps(golden_doc, indent=1) + "\n")

    result["failures"] = failures[:50]
    result["summary"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    out_path = RESULTS / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_result(result: dict, label: str = "") -> None:
    for name, m in result["summary"]["metrics"].items():
        print(f"{label}{name:<56} {m['value']:>14.6g} {m['unit']}")
    for failure in result["failures"][:5]:
        print(f"{label}FAILED {failure}")


def run_all(args) -> dict:
    """Every workload in its own process, as the per-workload command runs it."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    failures = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=2 * CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"{name} failed: {proc.stderr.strip()[-500:]}")
        lines = proc.stdout.strip().splitlines()
        failures += [f"{name}: {line[len('FAILED '):]}" for line in lines if line.startswith("FAILED ")]
        child = json.loads(lines[-1])
        summary["correct"] &= child["correct"]
        summary["attempted"] += child["attempted"]
        summary["failed"] += child["failed"]
        for metric, m in child["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = m
    return {"summary": summary, "failures": failures}


def main(argv=None) -> int:
    args = parse_args(argv)
    # one client, one thread: numpy is imported later, in the timed set-up,
    # and its BLAS must not start worker threads. CLI children inherit this,
    # which on 2 CPUs only spares OpenBLAS one idle thread per start-up.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        use_checkout_sources()
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(result))
        return 0
    print_result(result)
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
