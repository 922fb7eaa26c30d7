"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Smoke run: every workload at smoke-test sizes, with --trace 0 and with
   --trace 1, reports a correct result and emits every metric BENCHMARK.json
   names, with that metric's unit and a finite value.
2. A wrong reference is caught: a certify-grid pass checked against a pinned
   table with one loss perturbed counts exactly that job as failed.
3. In a directory holding only BENCHMARK.json and the benchmark, run.py exits
   non-zero and prints no result.

Exits 0 when every check holds.  Takes about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, timeout=170, check=False,
    )


def smoke() -> list[str]:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                        "--trace", str(trace), "--tiny")
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} jobs failed")
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            metrics = result["metrics"]
            if set(metrics) != set(expected):
                problems.append(f"{label}: metric names differ: "
                                f"{sorted(set(metrics) ^ set(expected))}")
            for name, unit in expected.items():
                entry = metrics.get(name, {})
                value = entry.get("value")
                if entry.get("unit") != unit or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{label}: {name} = {entry}")
    return problems


def perturbed_reference() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import worker
    import workloads

    point = (7, 3)
    pinned = dict(workloads.PINNED_DERAND_LOSSES)
    pinned[point] += 1
    out = worker.run_pass("certify-grid", 7, 0, tiny=True, pinned=pinned)
    failed = [job["name"] for job in out["jobs"] if job["error"] is not None]
    expected = [f"sweep derand n={point[0]} h={point[1]}"]
    return [] if failed == expected else [f"perturbed reference: failed jobs {failed}"]


def bare_directory() -> list[str]:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = _run(bare, "--workload", "certify-grid", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    problems = []
    for check in (smoke, perturbed_reference, bare_directory):
        found = check()
        print(f"{check.__name__}: {'ok' if not found else 'FAIL'}")
        for problem in found:
            print(f"  {problem}")
        problems += found
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
