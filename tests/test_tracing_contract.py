"""The benchmark reaches package names that no other test reads.

perfbench/tracing.py (standard library only) patches names on the package's
modules, dispatch dicts and classes.  Installing and removing its wrappers,
without running any job, fails here when one of those names is renamed away.
Every other package name the benchmark's files read, such as
analysis.AUCTION_NAMES in worker.py, is resolved from their source.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from bivalued_auctions import analysis, cli, enumeration

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
PACKAGE = "bivalued_auctions"


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


def _scope_nodes(scope: ast.AST):
    """The nodes of one scope, not descending into nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _imported(node: ast.AST, bound: dict, missing: list) -> None:
    """Bind the names an import from the package makes; record any it lacks."""
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
        node.module == PACKAGE or node.module.startswith(PACKAGE + ".")
    ):
        module = importlib.import_module(node.module)
        for alias in node.names:
            try:
                value = getattr(module, alias.name)
            except AttributeError:
                try:
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                except ImportError:
                    missing.append(f"line {node.lineno}: {node.module}.{alias.name}")
                    continue
            bound[alias.asname or alias.name] = value
    elif isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name == PACKAGE or alias.name.startswith(PACKAGE + "."):
                module = importlib.import_module(alias.name)
                if alias.asname:
                    bound[alias.asname] = module
                else:
                    bound[PACKAGE] = importlib.import_module(PACKAGE)


def _resolve(node: ast.AST, bound: dict, missing: list, read: set):
    """The object a Name or an attribute chain on a bound name reads, else None."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, bound, missing, read)
        if owner is None:
            return None
        read.add(ast.unparse(node))
        if not hasattr(owner, node.attr):
            missing.append(f"line {node.lineno}: {ast.unparse(node)}")
            return None
        return getattr(owner, node.attr)
    return None


def package_reads(source: str) -> tuple[set, list]:
    """(every package attribute the source reads, those that do not resolve).

    A name counts only in the scopes an import from the package binds it in:
    that function, the functions nested in it, or the whole module, less the
    scopes where a parameter or an assignment makes the name local.
    """
    read: set = set()
    missing: list = []

    def visit(scope: ast.AST, outer: dict) -> None:
        nodes = list(_scope_nodes(scope))
        local = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local |= {a.arg for a in ast.walk(scope.args) if isinstance(a, ast.arg)}
        bound = {name: value for name, value in outer.items() if name not in local}
        for node in nodes:
            _imported(node, bound, missing)
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                _resolve(node, bound, missing, read)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node, bound)

    visit(ast.parse(source), {})
    return read, sorted(set(missing))


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_package_name_the_benchmark_reads_resolves(path):
    _, missing = package_reads(path.read_text())
    assert missing == []


def test_reads_are_found_in_function_scopes_only_where_bound():
    read, _ = package_reads((PERFBENCH / "worker.py").read_text())
    assert "analysis.AUCTION_NAMES" in read  # imported inside run_speedup
    assert "bivalued_auctions.cli.__file__" in read
    read, _ = package_reads((PERFBENCH / "workloads.py").read_text())
    assert "analysis.monte_carlo_under_d" in read
    assert not any(name.startswith("rng.") for name in read)  # random.Random there
    source = (
        "from bivalued_auctions import analysis\n"
        "from bivalued_auctions.auctions import AUCTION_NAMES, gone\n"
        "def f():\n"
        "    from bivalued_auctions import enumeration\n"
        "    return analysis.AUCTION_NAMES, enumeration.vanished.attr\n"
        "def g(analysis):\n"
        "    return analysis.anything\n"
        "def h():\n"
        "    analysis = object()\n"
        "    return analysis.other\n"
    )
    read, missing = package_reads(source)
    assert read == {"analysis.AUCTION_NAMES", "enumeration.vanished"}
    assert missing == ["line 2: bivalued_auctions.auctions.gone", "line 5: enumeration.vanished"]
