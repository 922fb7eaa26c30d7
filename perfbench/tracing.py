"""Spans around the package's layers, recorded from outside the package.

Modules bind each other's names at import (``from .auctions import
derand_run``), so each wrapper is installed where its caller looks the name
up: on the calling module, in a dispatch dict, or on the SurdSum class.
Spans stay in memory until the pass ends.  A span opened on a pool thread
with no open span of its own hangs under the main thread's innermost span,
which is the call that started the pool.

A span's self time is its duration minus the part of it that its children
cover.  Children on two threads can overlap; the time they cover twice is
reported as the overlap, so that the self times minus the overlap add up to
the traced wall time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from statistics import median

# The layers whose self times must account for the traced wall time, and the
# share of that time they may leave unaccounted.
LAYERS = ("cli", "reports", "analysis", "enumeration", "rng", "exact", "auctions", "core")
ACCOUNTING_TOLERANCE = 0.02
ROOT_SPAN = "bench.job"

# span record fields
_ID, _NAME, _PARENT, _START, _END, _CPU0, _CPU1 = range(7)


class Tracer:
    """Spans and counters of one pass, and the wrappers that record them."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.peaks[key] = max(self.peaks[key], value)

    def innermost(self) -> str | None:
        stack = self._stack()
        return stack[-1][_NAME] if stack else None

    def _open(self, name: str, cpu: bool) -> list:
        stack = self._stack()
        parent = stack or self._main
        rec = [
            next(self._ids),
            name,
            parent[-1][_ID] if parent else None,
            time.perf_counter(),
            None,
            time.process_time() if cpu else None,
            None,
        ]
        stack.append(rec)
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[_END] = time.perf_counter()
        if rec[_CPU0] is not None:
            rec[_CPU1] = time.process_time()
        self._stack().pop()

    def root(self, fn):
        """Call fn() inside a root span, one per job."""
        rec = self._open(ROOT_SPAN, False)
        try:
            return fn()
        finally:
            self._close(rec)

    # -- installing wrappers ----------------------------------------------

    def _replace(self, owner, attr: str, fn) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = fn
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, fn)

    def wrap(self, owner, attr: str, name: str, *, cpu: bool = False, on_call=None) -> None:
        """Record a span `name` around every call of owner.attr."""
        tracer = self
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rec = tracer._open(name, cpu)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(rec)
            if on_call is not None:
                on_call(args, result)
            return result

        self._replace(owner, attr, traced)

    def count(self, owner, attr: str, on_call) -> None:
        """Call on_call(args, result) after every call of owner.attr; no span."""
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            on_call(args, result)
            return result

        self._replace(owner, attr, counted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer of the package."""
    from bivalued_auctions import analysis, auctions, cli, enumeration, reports
    from bivalued_auctions.exact import SurdSum

    add, peak = tracer.add, tracer.peak

    for auction in list(enumeration.REVENUE_KERNELS):
        tracer.wrap(enumeration.REVENUE_KERNELS, auction, f"enumeration.kernel.{auction}")
    tracer.wrap(enumeration, "high_index_sum", "enumeration.high_index_sum")
    tracer.wrap(enumeration, "lex_keys", "enumeration.lex_keys",
                on_call=lambda a, r: add("enumeration.witness_rows", len(r)))
    tracer.wrap(enumeration, "offers_for_bidder", "enumeration.offers_for_bidder")
    tracer.count(enumeration, "mask_array", lambda a, r: add("enumeration.vectors", len(r)))

    tracer.wrap(analysis, "worst_case_sweep", "analysis.worst_case_sweep", cpu=True)
    tracer.count(analysis, "_sweep_chunk", lambda a, r: add("analysis.sweep_chunks"))
    tracer.wrap(analysis, "bid_independence_violations", "analysis.bid_independence_violations")
    tracer.wrap(analysis, "monte_carlo_under_d", "analysis.monte_carlo_under_d")

    def on_sample(args, result):
        _, n, _, _, rows = args
        add("analysis.mc_chunks")
        peak("analysis.mc_chunk_bytes_computed", rows * n * 8)  # the int64 draw matrix

    tracer.count(analysis, "_sample_revenues", on_sample)
    tracer.wrap(analysis, "check_distribution_identities", "analysis.check_distribution_identities")
    tracer.wrap(analysis, "block_structure_sweep", "analysis.block_structure_sweep",
                on_call=lambda a, r: add("analysis.block_vectors", r[0]))
    tracer.wrap(analysis, "stream_generator", "rng.stream_generator")

    tracer.wrap(auctions, "bernoulli_threshold", "exact.bernoulli_threshold")

    def on_sign(args, result):
        add("exact.sign_calls")
        if tracer.innermost() == "exact.bernoulli_threshold":
            add("exact.sign_calls_in_threshold")

    tracer.count(SurdSum, "sign", on_sign)
    tracer.wrap(SurdSum, "to_decimal", "exact.to_decimal")

    for owner in (analysis, cli):
        tracer.wrap(owner, "expected_revenue_by_count", "auctions.expected_revenue_by_count")
    for owner in (analysis, auctions):
        tracer.wrap(owner, "derand_run", "auctions.derand_run")
    tracer.wrap(auctions, "settle", "core.settle")

    def on_render(args, text):
        add("reports.bytes", len(text.encode()))
        add("reports.rows", len(args[0]))

    tracer.wrap(reports, "render", "reports.render", on_call=on_render)
    tracer.wrap(cli, "build_parser", "cli.build_parser")
    tracer.wrap(cli, "main", "cli.main")


# ---------------------------------------------------------------------------
# Self times and per-layer metrics
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans: list[list]) -> tuple[dict[int, float], float]:
    """Self time per span id, and the time covered twice by concurrent siblings."""
    bounds = {rec[_ID]: (rec[_START], rec[_END]) for rec in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for rec in spans:
        if rec[_PARENT] is not None:
            lo, hi = bounds[rec[_PARENT]]
            children[rec[_PARENT]].append((max(rec[_START], lo), min(rec[_END], hi)))
    selfs, overlap = {}, 0.0
    for rec in spans:
        kids = children.get(rec[_ID], [])
        covered = _covered(kids)
        selfs[rec[_ID]] = rec[_END] - rec[_START] - covered
        overlap += sum(e - s for s, e in kids) - covered
    return selfs, overlap


def span_rows(spans: list[list], selfs: dict[int, float]) -> list[dict]:
    """Spans as records for the trace file: ids, parent, job root, times."""
    parent_of = {rec[_ID]: rec[_PARENT] for rec in spans}
    t0 = spans[0][_START] if spans else 0.0
    rows = []
    for rec in spans:
        root = rec[_ID]
        while parent_of[root] is not None:
            root = parent_of[root]
        rows.append({
            "id": rec[_ID],
            "name": rec[_NAME],
            "parent": rec[_PARENT],
            "job": root,
            "start_s": round(rec[_START] - t0, 9),
            "end_s": round(rec[_END] - t0, 9),
            "self_s": round(selfs[rec[_ID]], 9),
        })
    return rows


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hit_ratio(fn) -> float:
    info = fn.cache_info()
    return _ratio(info.hits, info.hits + info.misses)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (read before any check runs)."""
    from bivalued_auctions import auctions, exact

    selfs, overlap = self_times(tracer.spans)
    dur: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    cpu = wall = 0.0
    for rec in tracer.spans:
        name = rec[_NAME]
        dur[name] += rec[_END] - rec[_START]
        self_by_name[name] += selfs[rec[_ID]]
        calls[name] += 1
        if rec[_CPU0] is not None:
            cpu += rec[_CPU1] - rec[_CPU0]
            wall += rec[_END] - rec[_START]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_by_name.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += value
    c = tracer.counts
    vectors = c["enumeration.vectors"]
    metrics = {
        "enumeration.kernel_s.derand": dur["enumeration.kernel.derand"],
        "enumeration.kernel_s.dop": dur["enumeration.kernel.dop"],
        "enumeration.kernel_s.threshold-dop": dur["enumeration.kernel.threshold-dop"],
        "enumeration.high_index_sum_s": dur["enumeration.high_index_sum"],
        "enumeration.lex_keys_s": dur["enumeration.lex_keys"],
        "enumeration.offers_for_bidder_s": dur["enumeration.offers_for_bidder"],
        "enumeration.vectors": vectors,
        "enumeration.witness_rows_ratio": _ratio(c["enumeration.witness_rows"], vectors),
        "analysis.sweep_self_s": self_by_name["analysis.worst_case_sweep"],
        "analysis.sweep_chunks": c["analysis.sweep_chunks"],
        "analysis.sweep_cpu_per_wall": _ratio(cpu, wall),
        "analysis.mc_self_s": self_by_name["analysis.monte_carlo_under_d"],
        "analysis.mc_chunks": c["analysis.mc_chunks"],
        "analysis.mc_chunk_bytes_computed": tracer.peaks["analysis.mc_chunk_bytes_computed"],
        "analysis.identity_s": dur["analysis.check_distribution_identities"],
        "analysis.block_sweep_s": dur["analysis.block_structure_sweep"],
        "analysis.block_vectors": c["analysis.block_vectors"],
        "rng.stream_init_s": dur["rng.stream_generator"],
        "rng.streams": calls["rng.stream_generator"],
        "exact.bernoulli_threshold_s": dur["exact.bernoulli_threshold"],
        "exact.bernoulli_threshold_calls": calls["exact.bernoulli_threshold"],
        "exact.sign_calls_per_threshold": _ratio(
            c["exact.sign_calls_in_threshold"], calls["exact.bernoulli_threshold"]
        ),
        "exact.to_decimal_s": dur["exact.to_decimal"],
        "exact.to_decimal_calls": calls["exact.to_decimal"],
        "exact.sign_calls": c["exact.sign_calls"],
        "exact.square_free_hit_ratio": _hit_ratio(exact.square_free),
        "auctions.expected_revenue_s": dur["auctions.expected_revenue_by_count"],
        "auctions.expected_revenue_hit_ratio": _hit_ratio(auctions.expected_revenue_by_count),
        "auctions.derand_run_s": dur["auctions.derand_run"],
        "auctions.derand_run_calls": calls["auctions.derand_run"],
        "auctions.derand_modulus_hit_ratio": _hit_ratio(auctions.derand_modulus),
        "core.settle_s": dur["core.settle"],
        "core.settle_calls": calls["core.settle"],
        "reports.render_s": dur["reports.render"],
        "reports.bytes": c["reports.bytes"],
        "reports.rows": c["reports.rows"],
        "cli.build_parser_s": dur["cli.build_parser"],
        "cli.self_s": self_by_name["cli.main"],
        "trace.spans": len(tracer.spans),
        "trace.overlap_s": overlap,
    }
    for layer, value in layer_self.items():
        metrics[f"trace.self_s.{layer}"] = value
    root_wall = dur[ROOT_SPAN]
    metrics["trace.accounted_ratio"] = _ratio(sum(layer_self.values()) - overlap, root_wall)
    return metrics


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(s[key] for s in samples) for key in samples[0]}
