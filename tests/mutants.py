"""Mutation checks: each entry breaks the package in one known way, and the
tests it names must catch it.

    python tests/mutants.py [NAME ...]

For each entry of MUTANTS (all of them, or those NAMEd), the runner copies
the repository to a temporary directory, checks that the entry's old text
occurs exactly once in its file there, replaces it with the new text, and
runs the entry's test node ids against the copy's src/.  Each node id must
fail: one that passes is a survivor.  First, every named node id runs once
on an unmutated copy, where each must pass.  The runner prints one line per
entry and exits 1 on a survivor, a stale anchor or a broken run, else 0.

tests/test_mutants.py checks, within tier-1, only that every anchor occurs
once and that every node id names a test defined in its file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
_IGNORE = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".perfbench", ".benchmarks", "*.egg-info"
)
_REPORT = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)", re.MULTILINE)


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in path
    new: str
    tests: tuple[str, ...]  # node ids, each of which must fail


EXACT = "src/bivalued_auctions/exact.py"
AUCTIONS = "src/bivalued_auctions/auctions.py"
REPORTS = "src/bivalued_auctions/reports.py"
ANALYSIS = "src/bivalued_auctions/analysis.py"
ENUMERATION = "src/bivalued_auctions/enumeration.py"
CERTIFY = "src/bivalued_auctions/certify.py"
CLI = "src/bivalued_auctions/cli.py"
CORE = "src/bivalued_auctions/core.py"
SHIFTED_COMPARE = "tests/test_truthfulness.py::test_shifted_compare_matches_the_strided_one"
NORMAL_FORM = (
    "tests/test_exact.py::TestNormalForm::test_arithmetic_matches_the_fraction_oracle",
    "tests/test_exact.py::TestNormalForm::test_equality_and_hash_match_the_fraction_oracle",
)
DERAND_EARNS_N = (
    "tests/test_hard_distribution.py::test_derandomized_auction_earns_n_under_the_hard_distribution",
)
SAMPLED_BLOCKS = (
    "tests/test_analysis.py::TestVectorBlockCheckSampled::test_sampled_masks_match_the_scalar_check",
)
LOSS_ROWS = ("tests/test_loss_rows.py::test_every_loss_row_is_opt_minus_revenue_over_sqrt_nh",)
DOMAIN_CHECKS = ("tests/test_domain_checks.py::test_check_raises_what_its_entry_point_raises",)
JSON_ORACLE = (
    "tests/test_render_json.py::test_edge_cell_matches_the_oracle",
    "tests/test_render_json.py::test_every_edge_in_one_row_matches_the_oracle",
)

MUTANTS = (
    Mutant(
        "inexact operand through Fraction()", EXACT,
        '        raise TypeError(f"a rational operand is an int or a Fraction, not {type(q).__name__}")',
        "        q = Fraction(q)",
        ("tests/test_exact.py::TestOperandContract::test_inexact_operand_raises",),
    ),
    Mutant(
        "constructor skips the gcd", EXACT,
        "    g = gcd(den, *(c for _, c in nums))",
        "    g = 1",
        NORMAL_FORM,
    ),
    Mutant(
        "of(Fraction) drops the denominator", EXACT,
        "        return _surd(((1, num),), den) if num else SurdSum()",
        "        return _surd(((1, num),), 1) if num else SurdSum()",
        NORMAL_FORM,
    ),
    Mutant(
        "raw-pair constructor restored", EXACT,
        "    def __init__(self):\n        self._nums = ()\n        self._den = 1\n",
        "    def __init__(self, nums=(), den=1):\n        self._nums = nums\n        self._den = den\n",
        ("tests/test_exact.py::TestNormalForm::test_constructor_takes_no_arguments",),
    ),
    Mutant(
        "__float__ without / den", EXACT,
        "        return sum((c / den * sqrt(r) for r, c in self._nums), 0.0)",
        "        return sum((c * sqrt(r) for r, c in self._nums), 0.0)",
        (
            "tests/test_exact.py::TestSurdSum::test_float_conversion",
            "tests/test_exact.py::TestNormalForm::test_float_and_repr_match_the_fraction_coefficients",
        ),
    ),
    Mutant(
        "square_free memo unbounded", EXACT,
        "@lru_cache(maxsize=MEMO_SIZE)\ndef square_free(",
        "@lru_cache(maxsize=None)\ndef square_free(",
        ("tests/test_auctions.py::TestPerCountMemos::test_a_table_longer_than_the_bound_stays_within_it",),
    ),
    Mutant(
        "+ scales the wrong side", EXACT,
        "        acc = {r: c * d2 for r, c in self._nums}",
        "        acc = {r: c * d1 for r, c in self._nums}",
        NORMAL_FORM,
    ),
    Mutant(
        "/ by a negative leaves den negative", EXACT,
        "            num, den = -num, -den",
        "            num, den = num, den",
        NORMAL_FORM,
    ),
    Mutant(
        "bernoulli_threshold one too high", EXACT,
        "    return min(t, 1 << 64)",
        "    return min(t + 1, 1 << 64)",
        ("tests/test_exact.py::TestBernoulliThreshold::test_threshold_is_minimal",),
    ),
    Mutant(
        "DOP's tie h * n_h = n - 1 offers low", AUCTIONS,
        "    return params.h if params.h * nh_i >= params.n - 1 else LOW_VALUE",
        "    return params.h if params.h * nh_i > params.n - 1 else LOW_VALUE",
        ("tests/test_truthfulness.py::test_offer_rule_flip_invariant_scalar[9-2-dop]",),
    ),
    Mutant(
        "random offer probability's numerator a - 1", AUCTIONS,
        "    return SurdSum.multiple(Fraction(a, h * nh_i), nh_i)",
        "    return SurdSum.multiple(Fraction(a - 1, h * nh_i), nh_i)",
        (
            "tests/test_truthfulness.py::test_probability_route_flip_invariant[8-2]",
            "tests/test_truthfulness.py::test_probability_route_flip_invariant[9-3]",
        ),
    ),
    Mutant(
        "derand's z without i", AUCTIONS,
        "    z = (i + x + (b_val - 1) * y) % b_val",
        "    z = (x + (b_val - 1) * y) % b_val",
        (
            "tests/test_truthfulness.py::test_offer_rule_flip_invariant_scalar[9-2-derand]",
            "tests/test_derand.py::TestState::test_state_ignores_own_bid",
        ),
    ),
    Mutant(
        "masked view keeps its own bit", CORE,
        "        if self.others & bit:",
        "        if False:",
        ("tests/test_core.py::TestBidVector::test_masked_view_holds_no_own_bid",),
    ),
    Mutant(
        "derand's X includes i", AUCTIONS,
        '    x = sum(j for j, bit in enumerate(highs, start=1) if bit == "1")',
        '    x = i + sum(j for j, bit in enumerate(highs, start=1) if bit == "1")',
        ("tests/test_derand.py::TestState::test_all_high_hand_trace",),
    ),
    Mutant(
        "expectation normalized by sqrt(n)", CLI,
        '        "normalized_loss": certify._normalize(loss, n, h), **extra,',
        '        "normalized_loss": certify._normalize(loss, n, 1 if command == "expectation" else h), **extra,',
        LOSS_ROWS,
    ),
    Mutant(
        "second _normalize call in _sweep_rows", CLI,
        "        witness=witness.to_string(),",
        "        witness=witness.to_string(), normalized_loss=certify._normalize(profile.global_worst, ns.n, ns.h),",
        ("tests/test_loss_rows.py::test_only_the_loss_row_computes_the_loss_fields",),
    ),
    Mutant(
        "dist-d's loss as revenue - opt", CLI,
        "        exact_e_opt=e_opt, exact_e_dop=e_dop,",
        "        exact_e_opt=e_opt, exact_e_dop=e_dop, loss=e_dop - e_opt,",
        LOSS_ROWS,
    ),
    Mutant(
        "check_monte_carlo without the printable bound", CERTIFY,
        "    _require_printable(n, h)\n    if samples < 1:",
        "    if samples < 1:",
        DOMAIN_CHECKS,
    ),
    Mutant(
        "check_monte_carlo without the seed check", CERTIFY,
        '    if not 0 <= seed < 1 << 64:\n        raise ValueError("seed must fit in 64 bits")\n',
        "",
        DOMAIN_CHECKS,
    ),
    Mutant(
        "exact_e_opt_under_d without its domain guard", ANALYSIS,
        '''exactly (needs h | n)."""\n    check_identities(n, h)\n''',
        '''exactly (needs h | n)."""\n''',
        DOMAIN_CHECKS,
    ),
    Mutant(
        "JSON's 2**53 bound off by one", REPORTS,
        "        return str(value) if abs(value) < 1 << 53 else f'\"{value}\"'",
        "        return str(value) if abs(value) <= 1 << 53 else f'\"{value}\"'",
        JSON_ORACLE,
    ),
    Mutant(
        "JSON surd term objects two spaces short", REPORTS,
        '        q = p + "    "',
        '        q = p + "  "',
        (*JSON_ORACLE, "tests/test_cli_golden.py::test_output_is_byte_identical"),
    ),
    Mutant(
        "JSON keys not escaped", REPORTS,
        "    return _string(key if isinstance(key, str) else json.dumps(key))",
        "    return f'\"{key}\"'",
        JSON_ORACLE,
    ),
    Mutant(
        "JSON floats through repr", REPORTS,
        "        return json.dumps(value)",
        "        return repr(value).lower()",
        JSON_ORACLE,
    ),
    Mutant(
        "in-range flips keep the pairs with the bit set", ANALYSIS,
        "                hits = (field[:-bit] != field[bit:]) > low[i - 1, :-bit]",
        "                hits = (field[:-bit] != field[bit:]) & low[i - 1, :-bit]",
        (
            SHIFTED_COMPARE,
            "tests/test_truthfulness.py::test_own_bid_dependence_is_reported_for_deterministic_offers",
        ),
    ),
    Mutant(
        "in-range flips shifted one too far", ANALYSIS,
        "                hits = (field[:-bit] != field[bit:]) > low[i - 1, :-bit]",
        "                hits = (field[:-bit] != field[bit + 1:]) > low[i - 1, :-bit]",
        (SHIFTED_COMPARE, "tests/test_truthfulness.py::test_no_violations_small"),
    ),
    Mutant(
        "range matrix's high rows read bit i + 1", ANALYSIS,
        "    high[len(low) :] = (lo >> np.arange(len(low), n) & 1)[:, None]",
        "    high[len(low) :] = (lo >> np.arange(len(low) + 1, n + 1) & 1)[:, None]",
        (
            SHIFTED_COMPARE,
            "tests/test_analysis.py::TestMultipleMaskRanges::test_range_matrix_is_the_matrix_of_its_masks",
        ),
    ),
    Mutant(
        "count-threshold offers at n_h > t", ENUMERATION,
        "    return np.greater_equal(seen,",
        "    return np.greater(seen,",
        (
            "tests/test_enumeration.py::test_offers_for_bidder_match_scalar[dop]",
            "tests/test_enumeration.py::test_offers_for_bidder_match_scalar[threshold-dop]",
        ),
    ),
    Mutant(
        "derand's high window one later", ENUMERATION,
        "    high = _window_offers(index_sum - k + 1, k, moduli[m], a_plus[m])",
        "    high = _window_offers(index_sum - k + 2, k, moduli[m], a_plus[m])",
        DERAND_EARNS_N,
    ),
    Mutant(
        "derand's low a+ one larger", ENUMERATION,
        "    low = _window_offers(index_sum + 1, n - k, moduli[k], a_plus[k])",
        "    low = _window_offers(index_sum + 1, n - k, moduli[k], a_plus[k] + 1)",
        DERAND_EARNS_N,
    ),
    Mutant(
        "derand's low window one later", ENUMERATION,
        "    low = _window_offers(index_sum + 1, n - k, moduli[k], a_plus[k])",
        "    low = _window_offers(index_sum + 2, n - k, moduli[k], a_plus[k])",
        DERAND_EARNS_N,
    ),
    Mutant(
        "derand's low window one earlier", ENUMERATION,
        "    low = _window_offers(index_sum + 1, n - k, moduli[k], a_plus[k])",
        "    low = _window_offers(index_sum, n - k, moduli[k], a_plus[k])",
        DERAND_EARNS_N,
    ),
    Mutant(
        "block walk never resets seen", ANALYSIS,
        "        seen *= ~closed",
        "        pass",
        SAMPLED_BLOCKS,
    ),
    Mutant(
        "block walk skips the trailing block", ANALYSIS,
        "    bad |= offers > owed + a",
        "    pass",
        SAMPLED_BLOCKS,
    ),
)


def _copy(tmp: str) -> Path:
    copy = Path(tmp) / "repo"
    shutil.copytree(ROOT, copy, ignore=_IGNORE)
    return copy


def _run(copy: Path, tests: tuple[str, ...]) -> tuple[int, dict[str, str], str]:
    """pytest's exit code, {reported node id: PASSED | FAILED | ERROR} and its
    output, for tests run in copy against copy/src."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    argv = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests]
    run = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    return run.returncode, {m[2]: m[1] for m in _REPORT.finditer(run.stdout)}, run.stdout


def _selected(test: str, reports: dict[str, str]) -> list[str]:
    """The outcomes of the tests that node id `test` selects."""
    return [out for nodeid, out in reports.items() if nodeid == test or nodeid.startswith(test + "[")]


def baseline(mutants: list[Mutant]) -> list[str]:
    """Problems with the named tests on an unmutated copy, where each must
    pass: a test that fails there would kill every mutant."""
    tests = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        code, reports, output = _run(_copy(tmp), tests)
    problems = [t for t in tests if set(_selected(t, reports)) != {"PASSED"}]
    if code != 0 or problems:
        return [f"exit {code}; not passing unmutated: {problems}\n{output[-2000:]}"]
    return []


def check(mutant: Mutant) -> str:
    """'' when every node id of mutant fails on the mutated copy, else why not."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = _copy(tmp)
        target = copy / mutant.path
        source = target.read_text(encoding="utf-8")
        count = source.count(mutant.old)
        if count != 1:
            return f"stale anchor: the old text occurs {count} times in {mutant.path}"
        target.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
        code, reports, output = _run(copy, mutant.tests)
    if code not in (0, 1):
        return f"pytest exited {code}\n{output[-2000:]}"
    survivors = [t for t in mutant.tests if "FAILED" not in _selected(t, reports)]
    return f"survived {survivors}" if survivors else ""


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutant named {sorted(unknown)}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    problems = baseline(chosen)
    for problem in problems:
        print(f"baseline: {problem}")
    for mutant in chosen:
        began = time.perf_counter()
        verdict = check(mutant)
        print(f"{'killed' if not verdict else 'FAIL':6}  {mutant.name}  "
              f"({time.perf_counter() - began:.1f} s){': ' + verdict if verdict else ''}")
        problems += [verdict] if verdict else []
    print(f"{len(chosen)} mutants, {len(problems)} problems, {time.perf_counter() - start:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
