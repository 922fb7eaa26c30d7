"""One measurement in a fresh interpreter, so the package's caches start cold.

    python3 perfbench/worker.py pass --workload W --seed S --pass I [--trace FILE] [--tiny]
    python3 perfbench/worker.py speedup --threads T --seed S [--tiny]
    python3 perfbench/worker.py ref --seed S [--tiny]

`pass` runs every job of one workload pass and then checks the results;
with --trace it also records spans, writes them to FILE and reports the
per-layer metrics.  `speedup` runs the derand grid and the n=100 Monte Carlo
jobs at a given thread count.  `ref` times the baseline points of the
roadmap, each with cold caches.  The result is one JSON line on stdout.

The package is imported from src/ of the checkout that holds this file;
run.py sets PYTHONPATH accordingly.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent


def _import_package() -> tuple[float, float]:
    """Import numpy, then the CLI module; (numpy seconds, package seconds)."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import bivalued_auctions.cli

    t2 = time.perf_counter()
    src = (ROOT / "src").resolve()
    if src not in Path(bivalued_auctions.cli.__file__).resolve().parents:
        raise SystemExit(f"error: bivalued_auctions imported from outside {src}")
    return t1 - t0, t2 - t1


def run_pass(workload, seed, pass_index, *, trace_file=None, tiny=False, pinned=None) -> dict:
    """Time every job of one pass, then check each result."""
    import tracing
    import workloads

    jobs = workloads.build_jobs(workload, seed, pass_index, tiny=tiny, pinned=pinned)
    tracer = None
    if trace_file is not None:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    done = []
    try:
        for job in jobs:
            start = time.perf_counter()
            try:
                result = job.run() if tracer is None else tracer.root(job.run)
                error = None
            except Exception as exc:  # a job that raises is a failed job
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            done.append((job, result, error, time.perf_counter() - start))
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        selfs, _ = tracing.self_times(tracer.spans)
        doc = {"workload": workload, "seed": seed, "pass": pass_index,
               "spans": tracing.span_rows(tracer.spans, selfs)}
        Path(trace_file).write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    rows = []
    for job, result, error, seconds in done:
        if error is None:
            try:
                error = job.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        rows.append({"name": job.name, "seconds": seconds, "work": job.work,
                     "largest": job.largest, "error": error})
    out["jobs"] = rows
    return out


def run_speedup(threads: int, seed: int, tiny: bool) -> dict:
    """Derand grid sweeps, then the four n=100 Monte Carlo jobs, at `threads`."""
    from bivalued_auctions import analysis
    from bivalued_auctions.core import AuctionParams

    import workloads

    small_n = 6 if tiny else 12
    n_mc, h_mc, samples = (20, 4, 3000) if tiny else (100, 10, 100_000)
    digests, sweep_times, small_times = {}, [], []
    for n, h in workloads.grid_points(tiny):
        start = time.perf_counter()
        profile = analysis.worst_case_sweep(AuctionParams(n, h), "derand", threads=threads)
        elapsed = time.perf_counter() - start
        sweep_times.append(elapsed)
        if n <= small_n:
            small_times.append(elapsed)
        digests[f"sweep derand n={n} h={h}"] = repr(
            (profile.global_worst, profile.witness.mask, sorted(profile.per_nh_worst.items()))
        )
    mc_times = []
    for auction in analysis.AUCTION_NAMES:
        start = time.perf_counter()
        report = analysis.monte_carlo_under_d(n_mc, h_mc, auction, samples, seed, threads=threads)
        mc_times.append(time.perf_counter() - start)
        digests[f"mc {auction}"] = repr(workloads.mc_digest(report))
    return {
        "sweep_s": sum(sweep_times),
        "small_sweep_p50_ms": median(small_times) * 1e3,
        "mc_s": sum(mc_times),
        "digests": digests,
    }


def run_ref(seed: int, tiny: bool) -> dict:
    """The roadmap's baseline points, one call each, every cache cleared first."""
    from bivalued_auctions import analysis, auctions, exact
    from bivalued_auctions.core import AuctionParams

    sweep_n, block_n, mc_n, mc_samples, ident_n, table_n = (
        (10, 8, 20, 3000, 100, 200) if tiny else (20, 14, 100, 100_000, 1000, 2000)
    )
    caches = (
        auctions.offer_probability_by_count,
        auctions.expected_revenue_by_count,
        auctions._offer_threshold_by_count,
        auctions.derand_modulus,
        exact.square_free,
    )
    points = {
        "ref.sweep_n20_h3_dop_s": lambda: analysis.worst_case_sweep(
            AuctionParams(sweep_n, 3), "dop", threads=1),
        "ref.sweep_n20_h3_derand_t1_s": lambda: analysis.worst_case_sweep(
            AuctionParams(sweep_n, 3), "derand", threads=1),
        "ref.sweep_n20_h3_derand_t2_s": lambda: analysis.worst_case_sweep(
            AuctionParams(sweep_n, 3), "derand", threads=2),
        "ref.block_sweep_n14_h3_s": lambda: analysis.block_structure_sweep(
            AuctionParams(block_n, 3)),
        "ref.identities_n1000_h10_s": lambda: analysis.check_distribution_identities(ident_n, 10),
        "ref.threshold_table_n2000_cold_s": lambda: [
            auctions._offer_threshold_by_count(table_n, 10, m) for m in range(table_n + 1)],
    }
    for auction in ("dop", "derand", "random"):
        points[f"ref.mc_n100_h10_{auction}_s"] = (
            lambda auction=auction: analysis.monte_carlo_under_d(
                mc_n, 10, auction, mc_samples, seed, threads=1))
    out = {}
    for name, call in points.items():
        for cache in caches:
            cache.cache_clear()
        start = time.perf_counter()
        call()
        out[name] = time.perf_counter() - start
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("pass", "speedup", "ref"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--trace", default=None, help="span file to write")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    numpy_s, package_s = _import_package()
    if args.mode == "pass":
        out = run_pass(args.workload, args.seed, args.pass_index,
                       trace_file=args.trace, tiny=args.tiny)
        out["numpy_import_s"] = numpy_s
        out["package_import_s"] = package_s
    elif args.mode == "speedup":
        out = run_speedup(args.threads, args.seed, args.tiny)
    else:
        out = run_ref(args.seed, args.tiny)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
