"""Run CI's workflow steps on this machine, one after another.

    python tests/ci_local.py

reads .github/workflows/tests.yml with PyYAML and runs the `run:` of each
step of each job under `bash -e`, in the step's working-directory below the
repository root.  Instead of installing the package, as CI's `pip install`
step does, it puts src/ on PYTHONPATH and a `bivalued-auctions` shim
(`python -m bivalued_auctions.cli`) on PATH, with `python` and `python3`
shims for this interpreter, so every step runs on the same Python.  Steps
that `uses:` an action, and the `pip install` step, are skipped.

It prints one line per step (status, wall time, name), the last lines of
each failing step's output, then a total, and exits 1 if any step failed,
else 0.  Without PyYAML it says so and exits 1.  pytest does not collect
this file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
TAIL_LINES = 20


def _shims(bin_dir: Path) -> None:
    """Executables in bin_dir that stand in for what CI installs."""
    commands = {
        "bivalued-auctions": f'exec "{sys.executable}" -m bivalued_auctions.cli "$@"',
        "python": f'exec "{sys.executable}" "$@"',
        "python3": f'exec "{sys.executable}" "$@"',
    }
    for name, command in commands.items():
        shim = bin_dir / name
        shim.write_text(f"#!/bin/sh\n{command}\n", encoding="utf-8")
        shim.chmod(0o755)


def _steps(workflow: dict) -> list[tuple[str, dict]]:
    """(job name, step) for each step of each job, in file order."""
    return [(job, step) for job, spec in workflow["jobs"].items() for step in spec.get("steps", [])]


def _skip_reason(step: dict) -> str:
    if "run" not in step:
        return f"uses {step.get('uses', 'no run')}"
    if step["run"].lstrip().startswith("pip install"):
        return "installs the package; src/ is on PYTHONPATH instead"
    return ""


def main() -> int:
    try:
        import yaml
    except ImportError:
        print("tests/ci_local.py reads the workflow with PyYAML, which is not installed", file=sys.stderr)
        return 1
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    start = time.perf_counter()
    passed = failed = skipped = 0
    with tempfile.TemporaryDirectory() as bin_dir:
        _shims(Path(bin_dir))
        env = dict(os.environ)
        env["PATH"] = bin_dir + os.pathsep + env.get("PATH", "")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        for job, step in _steps(workflow):
            name = step.get("name") or step.get("run", step.get("uses", "")).strip().splitlines()[0]
            reason = _skip_reason(step)
            if reason:
                skipped += 1
                print(f"skip   {'':>8}  {job}: {name} ({reason})", flush=True)
                continue
            began = time.perf_counter()
            run = subprocess.run(
                ["bash", "-e", "-c", step["run"]],
                cwd=ROOT / step.get("working-directory", "."),
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            ok = run.returncode == 0
            passed += ok
            failed += not ok
            status = "pass" if ok else f"FAIL {run.returncode}"
            print(f"{status:6} {time.perf_counter() - began:7.1f} s  {job}: {name}", flush=True)
            if not ok:
                for line in run.stdout.splitlines()[-TAIL_LINES:]:
                    print(f"         | {line}")
    print(f"{passed} passed, {failed} failed, {skipped} skipped, {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
