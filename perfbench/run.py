"""Benchmark of the bivalued-auctions certifier.

    python3 perfbench/run.py --workload certify-grid --seed 1 --seconds 30 --trace 0

Closed loop: one process at a time runs one pass of the workload (every job
back to back, no more than two threads), and passes follow each other until
--seconds have gone by.  Each pass is a fresh interpreter, as every CLI call
is, so the package's lru_cache tables start cold.  Set-up time is the wall
time of fresh interpreters that only import the CLI module.

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1 it holds the per-layer metrics of a traced pass, measured beside an
untraced one, plus the thread-speedup and roadmap reference points.  Spans are
written under .perfbench/.  `--workload all` prints every end-to-end metric
of every workload as a table.  Progress and summaries go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402  (stdlib only at import)

WORKLOADS = ("certify-grid", "sample-hard", "exact-report")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _child(argv: list[str]) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[:3]} timed out after {CHILD_TIMEOUT_S} s") from exc


def _worker(*args: str) -> dict:
    proc = _child([str(HERE / "worker.py"), *args])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def measure_setup() -> float:
    """Median wall time from a fresh interpreter to bivalued_auctions.cli imported."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = _child(["-c", "import bivalued_auctions.cli"])
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError("importing bivalued_auctions.cli failed")
    return median(times)


def _pass(workload: str, seed: int, index: int, tiny: bool, trace_file=None) -> dict:
    args = ["pass", "--workload", workload, "--seed", str(seed), "--pass", str(index)]
    if trace_file is not None:
        args += ["--trace", str(trace_file)]
    if tiny:
        args.append("--tiny")
    result = _worker(*args)
    for job in result["jobs"]:
        if job["error"] is not None:
            print(f"FAILED {workload} pass {index}: {job['name']}: {job['error']}", file=sys.stderr)
    return result


def _wall(result: dict) -> float:
    return sum(job["seconds"] for job in result["jobs"])


def _tally(passes: list[dict]) -> tuple[int, int]:
    jobs = [job for p in passes for job in p["jobs"]]
    return len(jobs), sum(job["error"] is not None for job in jobs)


def end_to_end(passes: list[dict], setup_s: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics: medians over the passes of one run."""
    jobs = [job for p in passes for job in p["jobs"]]
    largest = [sum(j["seconds"] for j in p["jobs"] if j["largest"]) for p in passes]
    return {
        "work_per_s": (median(sum(j["work"] for j in p["jobs"]) / _wall(p) for p in passes), "1/s"),
        "job_p50_ms": (median(j["seconds"] for j in jobs) * 1e3, "ms"),
        "largest_job_s": (median(largest), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
    }


def run_untraced(workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    setup_s = measure_setup()
    deadline = time.perf_counter() + seconds
    passes = []
    while not passes or time.perf_counter() < deadline:
        passes.append(_pass(workload, seed, len(passes), tiny))
        print(f"{workload} pass {len(passes)}: {_wall(passes[-1]):.3f} s in jobs", file=sys.stderr)
    attempted, failed = _tally(passes)
    return {"attempted": attempted, "failed": failed,
            "metrics": end_to_end(passes, setup_s)}


def _extras(seed: int, tiny: bool) -> tuple[dict[str, float], int, int]:
    """Thread speedup at 1 vs 2 threads and the roadmap reference points.

    Each side runs in its own fresh process.  The results of the two sides
    are compared job by job: a difference counts as a failed job.
    """
    tiny_args = ["--tiny"] if tiny else []
    mc_seed = str(seed % (1 << 64))
    side = {t: _worker("speedup", "--threads", str(t), "--seed", mc_seed, *tiny_args)
            for t in (1, 2)}
    metrics = {
        "analysis.thread_speedup.sweep": side[1]["sweep_s"] / side[2]["sweep_s"],
        "analysis.thread_speedup.sweep.t1_s": side[1]["sweep_s"],
        "analysis.thread_speedup.sweep.t2_s": side[2]["sweep_s"],
        "analysis.thread_speedup.mc": side[1]["mc_s"] / side[2]["mc_s"],
        "analysis.thread_speedup.mc.t1_s": side[1]["mc_s"],
        "analysis.thread_speedup.mc.t2_s": side[2]["mc_s"],
        "analysis.small_sweep_p50_ms.t1": side[1]["small_sweep_p50_ms"],
        "analysis.small_sweep_p50_ms.t2": side[2]["small_sweep_p50_ms"],
    }
    metrics.update(_worker("ref", "--seed", mc_seed, *tiny_args))
    digests = side[1]["digests"]
    failed = 0
    for name, digest in digests.items():
        if side[2]["digests"].get(name) != digest:
            print(f"FAILED 1-thread and 2-thread results differ: {name}", file=sys.stderr)
            failed += 1
    return metrics, len(digests), failed


def run_traced(workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    start = time.perf_counter()
    metrics, attempted, failed = _extras(seed, tiny)
    OUT_DIR.mkdir(exist_ok=True)
    plain, traced = [], []
    while not traced or time.perf_counter() - start < seconds:
        plain.append(_pass(workload, seed, len(plain), tiny))
        trace_file = OUT_DIR / f"spans-{workload}-seed{seed}-pass{len(traced)}.json"
        traced.append(_pass(workload, seed, len(traced), tiny, trace_file))
        print(f"{workload}: spans in {trace_file}", file=sys.stderr)
    n_jobs, n_failed = _tally(plain + traced)
    layers = tracing.median_metrics([p["layers"] for p in traced])
    layers["setup.numpy_import_s"] = median(p["numpy_import_s"] for p in traced)
    layers["setup.package_import_s"] = median(p["package_import_s"] for p in traced)
    layers["trace.overhead_ratio"] = (
        median(_wall(p) for p in traced) / median(_wall(p) for p in plain)
    )
    metrics.update(layers)
    accounted = layers["trace.accounted_ratio"]
    if abs(1 - accounted) > tracing.ACCOUNTING_TOLERANCE:
        print(f"FAILED layer self times account for {accounted:.4f} of the traced wall time",
              file=sys.stderr)
        n_failed += 1
    for layer in tracing.LAYERS:
        print(f"  self {layer:<12} {layers[f'trace.self_s.{layer}']:10.4f} s", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())["per_layer"]}
    return {
        "attempted": attempted + n_jobs,
        "failed": failed + n_failed,
        "metrics": {name: (metrics[name], unit) for name, unit in units.items()},
    }


def _result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the bivalued-auctions certifier.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (self-test only)")
    args = parser.parse_args(argv)

    package = ROOT / "src" / "bivalued_auctions" / "__init__.py"
    if not package.is_file() or not SPEC.is_file():
        print(f"error: {package} or {SPEC} missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    run = run_traced if args.trace else run_untraced
    try:
        if args.workload != "all":
            print(_result_line(run(args.workload, args.seed, args.seconds, args.tiny)))
            return 0
        results = {w: run(w, args.seed, args.seconds, args.tiny) for w in WORKLOADS}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for workload, result in results.items():
        ratio = result["failed"] / result["attempted"]
        for name, (value, unit) in result["metrics"].items():
            print(f"{workload:<13} {name:<40} {value:>16.6g} {unit}")
        print(f"{workload:<13} {'failed_ratio':<40} {ratio:>16.6g} "
              f"({result['failed']} of {result['attempted']} jobs)")
    print(json.dumps({w: json.loads(_result_line(r)) for w, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
