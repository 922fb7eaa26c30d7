"""The traced benchmark wraps package functions that it looks up by name.

perfbench/tracing.py (standard library only) patches names on the package's
modules, dispatch dicts and classes.  Installing and removing its wrappers,
without running any job, fails here when one of those names is renamed away.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from bivalued_auctions import analysis, cli, enumeration

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_name():
    tracing = load_tracing()

    def snapshot():
        return (dict(enumeration.REVENUE_KERNELS), analysis.worst_case_sweep, cli.main)

    before = snapshot()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert analysis.worst_case_sweep is not before[1]
    finally:
        tracer.uninstall()
    assert snapshot() == before
