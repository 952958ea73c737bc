"""Mutation checks kept as data, and a runner for them.

A mutant is one small change to the package that named tests must catch:
an id, a file under src/, the exact old text (it occurs in that file
exactly once), the new text, and the pytest node ids that must fail once it
is in. A node id without a parameter part stands for its parameters, and
fails when one of them fails.

    python tests/mutants.py [ID ...]

runs the named mutants, or all of them. Each runs in its own temporary
directory, a copy of src/, tests/, perfbench/ (tests/test_cli.py reads its
reference digests) and pyproject.toml with the mutant applied, where pytest
runs the mutant's node ids under the hypothesis profile `mutants` of
tests/conftest.py, which does not shrink a failing example. A mutant is killed when every one of them fails
(or errors), and survives otherwise; survivors are reported with the node
ids that passed, and make the exit status 1. An unknown id, or an old text
that does not occur exactly once (`misplaced`, the cheap check), makes it 2
before anything runs. The tree copied from is never changed.

Mutants retired with the code they changed: the exponent of E_{p-1}^n read
mod p^(m-1), and the factor p^i of its i-th binomial term one p short
(E_{p-1}^n is now a series in D = E_{p-1} - 1, with neither); the Euler
bracket's error cut to n // 2 + 1 (it is 4n + 3 now, which
`euler-error-2n+3` checks); and a pass that did not redo an unproven index
alone, with the doubling of a lone index's guard bits (each index now runs
once, at guard bits its error bound proves, which `guard-bit-short` checks);
and the ascending pass's width one bit short, with its exact zeta sum's
error quartered (the pass now runs from the top down over reciprocals with
tracked errors, which `width-margin-2-bits-short`,
`bracket-drops-reciprocal-errors`, `reciprocal-error-step-plus-1` and
`no-headroom` check).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


EXACT = "src/eiscong/exact.py"
T_EXACT = "tests/test_exact.py::TestPrefetch::"
CONG = "src/eiscong/congruences.py"
T_BOX = "tests/test_congruences.py::TestCombinatorialIdentities::"
P_BOX = "tests/test_properties.py::test_box_block_kernels_match_the_per_point_oracles"
CLI = "src/eiscong/cli.py"
PARITY = "tests/test_cli_parity.py::test_status_stderr_and_stdout_match_the_table"
T_HELPERS = "tests/test_cli.py::TestHelpers::"
T_RECORDS = "tests/test_cli.py::TestRecordText::"
T_CACHE = "tests/test_cli.py::TestOutAndCache::"
P_CACHE = "tests/test_properties.py::test_a_cache_line_round_trips"
FILT = "src/eiscong/filtration.py"
T_SOLVER = "tests/test_filtration.py::TestSolver::"
P_SOLVER = "tests/test_properties.py::test_the_echelon_solver_matches_the_diagonalizing_oracle"

MUTANTS = (
    Mutant("euler-guard-bits-0", EXACT,
           "bits = max(euler.bit_length() - size, 0) + k.bit_length() + 3",
           "bits = max(euler.bit_length() - size, 0)",
           (T_EXACT + "test_euler_steps_never_above_the_floor",
            T_EXACT + "test_zeta_euler_within_its_bound",
            T_EXACT + "test_zeta_euler_cuts_at_the_large_weights")),
    Mutant("euler-error-2n+3", EXACT,
           "return (1 << 2 * w) // euler, 4 * primes + 3",
           "return (1 << 2 * w) // euler, 2 * primes + 3",
           (T_EXACT + "test_zeta_euler_covers_its_worst_case",)),
    Mutant("pi-memo-bit-short", EXACT,
           "return value >> (have - bits)",
           "return value >> (have - bits - 1)",
           ("tests/test_exact.py::TestPi::test_each_size_from_a_cold_memo",
            "tests/test_exact.py::TestPi::test_rising_and_falling_requests",
            T_EXACT + "test_carried_factor_within_its_units")),
    Mutant("euler-slack-8-bits-k", EXACT,
           "(euler >> exponent) // (power + 4 * k)",
           "(euler >> exponent) // (power + 8 * k.bit_length())",
           (T_EXACT + "test_euler_steps_never_above_the_floor",)),
    Mutant("numerator-error-e+2", EXACT,
           "_round_proven(scaled, guard, zeta_error + 3)",
           "_round_proven(scaled, guard, zeta_error + 2)",
           (T_EXACT + "test_combine_within_the_stated_error",)),
    Mutant("width-margin-2-bits-short", EXACT,
           "(3 * len(ks)).bit_length() + 2 for w",
           "(3 * len(ks)).bit_length() for w",
           (T_EXACT + "test_carried_width_covers_the_carried_cost",)),
    Mutant("providers-swapped", EXACT,
           "if len(ks) == 1:",
           "if len(ks) != 1:",
           (T_EXACT + "test_a_lone_missing_index_takes_the_euler_bracket",
            T_EXACT + "test_brackets_at_the_precision_each_index_runs_at")),
    Mutant("guard-bit-short", EXACT,
           "+ 10) > 1 << guard:",
           "+ 10) > 2 << guard:",
           (T_EXACT + "test_guard_bits_are_the_least_the_bound_proves",)),
    Mutant("chunk-size-off-by-one", CLI,
           "if size + count > _CHUNK_RECORDS:",
           "if size + count > _CHUNK_RECORDS + 1:",
           (T_HELPERS + "test_emit_reads_the_clock_once_per_few_records",)),
    Mutant("emit-head-counts-as-a-record", CLI,
           "chunk, lead, size, passed, total = [], head, 0, 0, 0",
           'chunk, lead, size, passed, total = [head], "", 1, 0, 0',
           (T_HELPERS + "test_emit_reads_the_clock_once_per_few_records",
            T_HELPERS + "test_emit_frames_no_records")),
    Mutant("emit-reads-the-clock-only-at-multiples", CLI,
           "if total % _CLOCK_RECORDS < count and",
           "if total % _CLOCK_RECORDS == 0 and",
           (T_HELPERS + "test_emit_writes_whole_runs_of_at_most_a_chunk",)),
    Mutant("emit-counts-runs-not-records", CLI,
           "passed += ok * count\n        total += count",
           "passed += ok\n        total += 1",
           (T_HELPERS + "test_emit_writes_whole_runs_of_at_most_a_chunk",
            T_RECORDS + "test_grid_matches_the_whole_list_dump[eq6.1]",
            PARITY + "[scan_eq6.1_--p_5_--m_1..2_--prec_20_--format_json]")),
    Mutant("run-join-drops-the-json-separator", CLI,
           "return head + (tail + sep + head).join(middles) + tail",
           "return head + (tail + head).join(middles) + tail",
           ("tests/test_properties.py::test_template_text_is_the_record_dump",
            PARITY + "[verify_identity_--m_1..5_--alpha_0..7_--format_json]",
            PARITY + "[verify_telescoping_--m_2..4_--alpha_0..6_--format_json]")),
    Mutant("run-filled-with-the-first-blocks-params", CLI,
           "fmt), fixed)",
           "fmt), shape(tasks[0])[2])",
           ("tests/test_cli.py::test_identity_box_matches_the_benchmark_reference",
            T_RECORDS + "test_grid_matches_the_whole_list_dump[thm1.1]",
            PARITY + "[verify_telescoping_--m_2..4_--alpha_0..6]")),
    Mutant("run-cut-drops-its-last-record", CLI,
           "yield True, len(run), _run_text(pieces, sep, run)\n                run, cut",
           "yield True, len(run), _run_text(pieces, sep, run[:-1] if joined else run)\n"
           "                run, cut",
           ("tests/test_cli.py::test_a_long_block_is_written_a_chunk_at_a_time",
            T_RECORDS + "test_runs_cut_short_match_the_whole_list_dump")),
    Mutant("run-without-the-clock-cut", CLI,
           "len(run) < _CHUNK_RECORDS and time.monotonic() - cut < _CHUNK_SECONDS):",
           "len(run) < _CHUNK_RECORDS):",
           ("tests/test_cli.py::test_a_slow_block_streams_by_the_clock",)),
    Mutant("block-run-whole-before-its-records", CLI,
           "rows = entry.run(task) if shape else",
           "rows = list(entry.run(task)) if shape else",
           ("tests/test_cli.py::test_a_slow_block_streams_by_the_clock[eq6.4-jsonl]",
            "tests/test_cli.py::test_a_slow_block_streams_by_the_clock[identity-json]")),
    Mutant("runs-only-in-jsonl", CLI,
           'if fmt in ("jsonl", "json") and limit is None:',
           'if fmt == "jsonl" and limit is None:',
           (T_RECORDS + "test_no_passing_record_of_a_benchmark_grid_is_written_alone[eq6.4-json]",
            T_RECORDS + "test_no_passing_record_of_a_benchmark_grid_is_written_alone[thm1-json]")),
    Mutant("substitute-skips-leading-column", "src/eiscong/filtration.py",
           "if x:\n            h = h - monomial_series",
           "if x and c:\n            h = h - monomial_series",
           ("tests/test_filtration.py::TestFiltrationBound::test_g14_bound_matches_corollary",
            "tests/test_filtration.py::TestSharpnessProbe::test_constructed_solvable",
            "tests/test_filtration.py::TestLayerPass::test_matches_the_candidate_search")),
    Mutant("solver-pivots-on-the-first-nonzero-entry", FILT,
           "if v < e:",
           "if best is None:",
           (T_SOLVER + "test_brute_force_agreement",
            T_SOLVER + "test_digit_lifting_oracle_on_medium_systems",
            T_SOLVER + "test_matches_the_diagonalizing_oracle", P_SOLVER)),
    Mutant("solver-without-the-valuation-obstruction", FILT,
           "if A[t][-1] % p**e:",
           "if False:",
           (T_SOLVER + "test_valuation_obstruction",
            T_SOLVER + "test_brute_force_agreement",
            T_SOLVER + "test_matches_the_diagonalizing_oracle", P_SOLVER)),
    Mutant("back-substitution-ignores-column-swaps", FILT,
           "* x[order[j]]",
           "* x[j]",
           (T_SOLVER + "test_round_trip_random",
            T_SOLVER + "test_matches_the_diagonalizing_oracle", P_SOLVER)),
    Mutant("monomials-with-b-on-the-wrong-residue", FILT,
           "b = 1 if rem % 4 == 2 else 0",
           "b = 1 if rem % 4 == 0 else 0",
           ("tests/test_filtration.py::TestDimensions::test_monomials_match_the_search",)),
    Mutant("probe-solvable-strictly-above", "src/eiscong/filtration.py",
           '"Solvable" if w >= report.bound_found',
           '"Solvable" if w > report.bound_found',
           ("tests/test_filtration.py::TestLayerPass::test_matches_the_candidate_search",)),
    Mutant("layer-pass-from-weight-2", "src/eiscong/filtration.py",
           "first += p - 1",
           "first += 0",
           ("tests/test_filtration.py::TestLayerPass::test_zero_floors_at_the_least_weight_with_a_basis",)),
    Mutant("refined-row-alpha012-short", "src/eiscong/filtration.py",
           '("m4-k0ge6-alpha012", 1, (0, 1, 2), 2)',
           '("m4-k0ge6-alpha012", 1, (0, 1), 2)',
           ("tests/test_filtration.py::TestRefinedBounds::test_known_answers[p11-m4-k0=6]",
            "tests/test_filtration.py::TestRefinedBounds::test_known_answers[p13-m4-k0=10]",
            "tests/test_filtration.py::TestRefinedBounds::test_m4_k0_at_least_6")),
    Mutant("e-power-term-short", "src/eiscong/eisenstein.py",
           "[gen_binomial(n, i) for i in range(ring.m)]",
           "[gen_binomial(n, i) for i in range(ring.m - 1)]",
           ("tests/test_eisenstein.py::TestEPower::test_unreduced_exponents_match_both_chains",
            "tests/test_filtration.py::TestLayerPass::test_matches_the_candidate_search")),
    Mutant("equal-mod-slice-short", "src/eiscong/series.py",
           "if a.coeffs[:upto + 1] == b.coeffs[:upto + 1]:",
           "if a.coeffs[:upto] == b.coeffs[:upto]:",
           ("tests/test_residue_series.py::TestSeriesEqualMod::test_a_mismatch_through_upto_is_its_first",
            "tests/test_congruences.py::TestFactoredInversionSum::"
            "test_binomial_right_side_matches_the_per_term_sum")),
    Mutant("packed-slot-without-term-bits", "src/eiscong/series.py",
           "2 * (ring.modulus - 1).bit_length() + len(terms).bit_length()",
           "2 * (ring.modulus - 1).bit_length()",
           ("tests/test_residue_series.py::TestLinearCombination::test_every_slot_at_its_largest_sum",
            "tests/test_properties.py::test_a_packed_family_matches_the_per_column_sum_for_every_scalar_vector")),
    Mutant("telescoping-f-terms-swapped", CONG,
           "(s - r) * (j + r - alpha) * here - (s - r + 1) * (j + r - 1 - alpha) * prev",
           "(s - r) * (j + r - alpha) * prev - (s - r + 1) * (j + r - 1 - alpha) * here",
           (T_BOX + "test_telescoping_kernel_matches_fraction_oracle", P_BOX)),
    Mutant("identity-row-from-s+1", CONG,
           "sum(map(mul, _identity_row(m, j, alpha)[s:], column))",
           "sum(map(mul, _identity_row(m, j, alpha)[s + 1:], column))",
           (T_BOX + "test_block_sums_match_oracle", T_BOX + "test_vanishing_on_box", P_BOX)),
    Mutant("certificate-m-row-from-s+1", CONG,
           "f = list(map(mul, _identity_row(m, j, alpha)[s:],",
           "f = list(map(mul, _identity_row(m, j, alpha)[s + 1:],",
           (T_BOX + "test_telescoping_kernel_matches_fraction_oracle", P_BOX)),
    Mutant("certificate-m+1-row-from-s+1", CONG,
           "g = list(map(mul, _identity_row(m + 1, j, alpha)[s:],",
           "g = list(map(mul, _identity_row(m + 1, j, alpha)[s + 1:],",
           (T_BOX + "test_telescoping_kernel_matches_fraction_oracle", P_BOX)),
    Mutant("zero-row-through-alpha-m", CONG,
           "    if alpha < m:\n        return (0,) * m",
           "    if alpha <= m:\n        return (0,) * m",
           (T_BOX + "test_rows_and_columns_match_oracle", P_BOX)),
    Mutant("block-table-uncached", CONG,
           "@lru_cache(maxsize=64)\ndef _block_table(",
           "def _block_table(",
           ("tests/test_congruences.py::TestFactoredInversionSum::"
            "test_a_record_past_its_block_table_makes_no_product",)),
    Mutant("d-without-minus-one", "src/eiscong/eisenstein.py",
           "powers.append(e_series(ring.p - 1, ring, precision) - powers[0])",
           "powers.append(e_series(ring.p - 1, ring, precision))",
           ("tests/test_eisenstein.py::TestEPower::test_d_vanishes_mod_p",
            "tests/test_eisenstein.py::TestEPower::test_unreduced_exponents_match_both_chains")),
    Mutant("bracket-drops-reciprocal-errors", EXACT,
           "(n - 1).bit_length() + 16 * total)",
           "(n - 1).bit_length())",
           (T_EXACT + "test_zeta_bracket_within_its_bound",)),
    Mutant("reciprocal-error-step-plus-1", EXACT,
           "errors = [(error * power >> drop) + 2 for",
           "errors = [(error * power >> drop) + 1 for",
           (T_EXACT + "test_pass_shapes",
            T_EXACT + "test_reciprocals_after_a_warm_prefix",
            T_EXACT + "test_runs_that_need_the_headroom")),
    Mutant("no-headroom", EXACT,
           "return max(spread) - min(spread) + (4 * len(spread)).bit_length() + 8",
           "return 0",
           (T_EXACT + "test_runs_that_need_the_headroom[w-falls-as-k-rises]",
            T_EXACT + "test_runs_that_need_the_headroom[scan-after-its-cache]",
            T_EXACT + "test_runs_that_need_the_headroom[dead-reciprocals]")),
    Mutant("cache-writer-drops-the-sign", "src/eiscong/cache.py",
           'f"{index} {value.numerator:#x}/',
           'f"{index} {abs(value.numerator):#x}/',
           (T_CACHE + "test_cache_round_trip",
            T_CACHE + "test_a_decimal_cache_loads_and_grows_in_hex",
            P_CACHE)),
    Mutant("cache-reader-drops-the-sign", "src/eiscong/cache.py",
           "return int(text, 16)",
           'return int(text.lstrip("-"), 16)',
           (T_CACHE + "test_cache_round_trip",
            T_CACHE + "test_a_decimal_cache_loads_and_grows_in_hex",
            P_CACHE)),
    Mutant("cache-takes-any-numerator-residue", "src/eiscong/cache.py",
           "if value.numerator % denominator != residue:",
           "if False:",
           (T_CACHE + "test_bad_cache_line_is_clean_error[12 -0x2b9/0xaaa-B_12 has a numerator"
            " of 2039 mod 2730]",
            T_CACHE + "test_bad_cache_line_is_clean_error[12 -697/2730-B_12 has a numerator"
            " of 2039 mod 2730]")),
    Mutant("cache-sizes-the-sieve-by-any-index", "src/eiscong/cache.py",
           "if value.numerator.bit_length() <= floor:",
           "if False:",
           (T_CACHE + "test_a_huge_index_is_refused_before_the_sieve",
            T_CACHE + "test_bad_cache_line_is_clean_error[32 -0x1/0x1fe-B_32 has a numerator"
            " of more than 29 bits]")),
    Mutant("hex-check-admits-non-ascii", "src/eiscong/cache.py",
           'text.isascii() and "_" not in text',
           '"_" not in text',
           (T_CACHE + "test_hex_check_takes_exactly_the_hex_values",
            "tests/test_properties.py::test_the_hex_check_matches_the_regex_past_six_characters")),
    Mutant("hex-check-admits-upper-case", "src/eiscong/cache.py",
           '"_" not in text and text == text.lower()',
           '"_" not in text',
           (T_CACHE + "test_hex_check_takes_exactly_the_hex_values",
            "tests/test_properties.py::test_the_hex_check_matches_the_regex_past_six_characters")),
    Mutant("inversion-key-without-kstar", CLI,
           'key=lambda t: (t["p"], t["m"], t.get("kstar"), t["prec"], certification(t)))',
           'key=lambda t: (t["p"], t["m"], t["prec"], certification(t)))',
           ("tests/test_cli.py::test_blocks_are_the_runs_of_one_key_within_the_budget",
            "tests/test_cli.py::TestRecordText::test_grid_matches_the_whole_list_dump[kstars]",
            "tests/test_cli.py::TestRecordText::test_grid_matches_the_whole_list_dump[straddle]")),
    Mutant("inversion-key-without-N", CLI,
           'key=lambda t: (t["p"], t["m"], t.get("kstar"), t["prec"], certification(t)))',
           'key=lambda t: (t["p"], t["m"], t.get("kstar"), certification(t)))',
           ("tests/test_cli.py::test_blocks_are_the_runs_of_one_key_within_the_budget",)),
    Mutant("scan-key-without-m", CLI,
           'key=lambda t: (t["p"], t["m"], t["kstar"])',
           'key=lambda t: (t["p"], t["kstar"])',
           (T_RECORDS + "test_grid_matches_the_whole_list_dump[eq6.4-ms]",)),
    Mutant("scan-key-without-p", CLI,
           'key=lambda t: (t["p"], t["m"], t["kstar"])',
           'key=lambda t: (t["m"], t["kstar"])',
           (T_RECORDS + "test_grid_matches_the_whole_list_dump[eq6.4-ps]",)),
    Mutant("inversion-compares-through-q^(N-1)", CONG,
           "None if lhs.coeffs == rhs.coeffs else",
           "None if lhs.coeffs[:-1] == rhs.coeffs[:-1] else",
           ("tests/test_congruences.py::TestFactoredInversionSum::"
            "test_binomial_right_side_matches_the_per_term_sum",)),
    Mutant("quotient-without-stripping-p", "src/eiscong/residue.py",
           "if numerator % p:",
           "if True:",
           ("tests/test_eisenstein.py::TestConstantTerms::test_every_even_weight_to_700",
            "tests/test_eisenstein.py::TestConstantTerms::test_any_prime_and_weight")),
    Mutant("sigma-table-steps-by-p", "src/eiscong/eisenstein.py",
           "below = exponent - (p - 1)",
           "below = exponent - p",
           ("tests/test_eisenstein.py::TestSteppedSigmaTables::"
            "test_every_stepped_table_matches_the_modular_powers",)),
    Mutant("series-framed-by-format", CLI,
           '_cmd_series, "jsonl", False)',
           "_cmd_series, None, False)",
           (PARITY,)),
    Mutant("filtration-framed-by-format", CLI,
           '_cmd_filtration,\n                   "jsonl", False)',
           "_cmd_filtration,\n                   None, False)",
           (PARITY,)),
)


def misplaced() -> list[str]:
    """The ids of the mutants whose old text does not occur exactly once in their file."""
    texts = {path: (ROOT / path).read_text() for path in {m.path for m in MUTANTS}}
    return [m.id for m in MUTANTS if texts[m.path].count(m.old) != 1]


def failed_ids(summary: str, tests: tuple[str, ...]) -> list[str]:
    """The node ids of `tests` that pytest's `-rfE` summary lines report as failed.

    A line names a test when the text after `FAILED `/`ERROR ` is its id,
    alone or before ` - ` and the message, or one of its parameters' ids; so
    an id is matched whole, whatever spaces or ` - ` its parameter part holds.
    """
    reported = [line.split(" ", 1)[1] for line in summary.splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    return [test for test in tests
            if any(node == test or node.startswith((test + " - ", test + "["))
                   for node in reported)]


def survivors_of(mutant: Mutant) -> list[str]:
    """The node ids of `mutant` that passed with it applied to a copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="eiscong-mutant-") as scratch:
        copy = Path(scratch)
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        target = copy / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new, 1))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        env.pop("EISCONG_BERNOULLI_CACHE", None)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", "-p", "no:cacheprovider",
             "--hypothesis-profile=mutants", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True)
    failed = failed_ids(proc.stdout, mutant.tests)
    return [test for test in mutant.tests if test not in failed]


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.id in argv]
    unknown, stale = set(argv) - {m.id for m in MUTANTS}, misplaced()
    if unknown or stale:
        print(f"unknown ids: {sorted(unknown)}; old text not found once: {stale}")
        return 2
    start, survived = time.monotonic(), 0
    for mutant in chosen:
        passed = survivors_of(mutant)
        survived += bool(passed)
        print("SURVIVED" if passed else "killed", mutant.id)
        for test in passed:
            print("    passed:", test)
    print(f"{len(chosen) - survived} of {len(chosen)} killed in {time.monotonic() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
