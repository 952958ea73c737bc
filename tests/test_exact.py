import math
import random
import sys
import threading
from array import array
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from eiscong import congruences, exact
from eiscong.cli import STATEMENTS, _build_tasks, build_parser, main
from eiscong.exact import (
    bernoulli,
    bernoulli_cached_indices,
    divisors,
    gen_binomial,
    h_coefficient,
    int_str,
    padic_valuation,
    parse_int,
    pochhammer,
    prefetch_bernoulli,
    sigma_power_mod,
    sigma_power_table,
)

from conftest import (ascending_brackets, bernoulli_by_recurrence, bernoulli_by_tangent, euler_by_floors,
                      kummer_misses, pi_by_machin, primes_to, sigma_power, zeta_by_floors, zeta_sum)

# Every even index the differential tests request: all of 2..600, and the
# large weights of the paper's examples and the benchmark.
DIFFERENTIAL_INDICES = list(range(2, 601, 2)) + [1296, 2026, 2200, 2402]

# Shapes of a pass with the zeta sum: two indices, the fewest it runs on (a
# lone missing index takes the Euler product), a run of gaps of 2, mixed gaps,
# and indices past 2060, where the numerators outgrow CPython's int/str digit
# limit.
PASS_SHAPES = {
    "pair": [1290, 1296],
    "gaps of 2": list(range(4, 203, 2)),
    "mixed gaps": [4, 6, 12, 30, 32, 100, 106, 400, 402, 1296, 2026],
    "past 2060": [2062, 2200, 2402],
}

# The indices of `scan eq6.4 --p 7 --m 4 --kstar 6 --alpha 0..300`: 6 alpha + 6.
SCAN_INDICES = [6 * alpha + 6 for alpha in range(301)]

# Large indices a filtration asks for one at a time; 4000 is past the oracle.
LONE_INDICES = [1296, 2026, 2402, 3000, 4000]

# Ten indices 998 apart up to 9982, in one pass; those past 3000 are past the oracle.
SPARSE_INDICES = list(range(1000, 10_001, 998))

# The indices past the tangent oracle's table that the Kummer oracle checks,
# at the primes 5 <= l < 3000, whose k' are at most 2996.
KUMMER_INDICES = [k for k in LONE_INDICES + SPARSE_INDICES if k > 3000]
KUMMER_PRIMES = [l for l in primes_to(2999) if l >= 5]

# Indices whose zeta brackets are checked against the oracle: every even one
# to 200, every 38th from 206 to 2978, and the large weights up to 3000.
BRACKET_INDICES = sorted({*range(4, 201, 2), *range(206, 3001, 38), 1296, 2026, 2402, 3000})


def thm1_grid_indices():
    """The largest Bernoulli index of each task of
    `verify thm1 --p 5,7,11,13 --m 1..4 --alpha 0..30`."""
    args = build_parser().parse_args(
        ["verify", "thm1", "--p", "5,7,11,13", "--m", "1..4", "--alpha", "0..30"])
    return sorted({max(STATEMENTS["thm1.1"].reads(task)) for task in _build_tasks("thm1", args)})


@pytest.fixture(scope="module")
def tangent_oracle():
    """B_k for every even k <= 2998, which the Kummer oracle reads as B_k', and for
    every index the differential tests request, up to 3000."""
    return bernoulli_by_tangent(sorted(set(range(2, 2999, 2)).union(
        DIFFERENTIAL_INDICES, SCAN_INDICES, BRACKET_INDICES, *PASS_SHAPES.values())))


def interleaved(indices):
    """Small and large indices alternately, both ascending, so pi grows several times."""
    small = [k for k in indices if k <= 600]
    large = [k for k in indices if k > 600]
    step = len(small) // len(large)
    out = []
    for i, k in enumerate(large):
        out += small[i * step:(i + 1) * step] + [k]
    return out + small[len(large) * step:]


# The largest precision the 1/pi tests ask for, plus the 64 bits past it
# that the oracle's pi is taken to.
PI_ORACLE_BITS = 40_000 + 64

# Sizes around 2**j and on both sides of a multiple of 47, where the number of
# series terms steps, from 64 to 40,000 bits.
PI_SIZES = sorted({b for j in range(6, 16) for b in (2**j - 1, 2**j, 2**j + 1)}
                  | {47 * n + d for n in (2, 21, 100, 361, 850) for d in (-2, -1, 0, 1)}
                  | {64, 1000, 17_000, 30_000, 40_000})

# The argvs of the filtration-cold and bernoulli-scan benchmark workloads; the
# scan runs after a cache of alpha <= 100 is saved, as in the benchmark.
BENCHMARK_ARGVS = [
    ["reproduce", "paper-7-8"],
    ["reproduce", "paper-17-6"],
    ["filtration", "--form", "G", "--k", "2402", "--p", "13", "--m", "6"],
    ["scan", "eq6.4", "--p", "7", "--m", "4", "--kstar", "6", "--alpha", "0..100"],
    ["scan", "eq6.4", "--p", "7", "--m", "4", "--kstar", "6", "--alpha", "0..300"],
]


@pytest.fixture(scope="module")
def machin_pi():
    """pi * 2**(b + 32) within 2 for every b up to 40,032, cut from one Machin value."""
    oracle = pi_by_machin(PI_ORACLE_BITS)
    return lambda bits: oracle >> (PI_ORACLE_BITS - bits - 32)


def assert_inverse_pi_within(value, bits, machin_pi, hundredths):
    """|value - 2**bits / pi| < hundredths / 100, against Machin's pi.

    R = floor(2**(2 bits + 96) / A), with A within 2 of pi 2**(bits + 64), is
    within 1 + 2**-32 of 2**(bits + 32) / pi, so that follows when value 2**32
    is within hundredths / 100 * 2**32 - 2 of R.
    """
    inverse = (1 << 2 * bits + 96) // machin_pi(bits + 32)
    assert 100 * (abs((value << 32) - inverse) + 2) <= hundredths << 32, (bits, hundredths)


class TestPi:
    """2**bits / pi from Chudnovsky's series against Machin's formula, 32 bits further out.

    At the memoized size it is within 1.02, and cut from a larger memo within 1.51.
    """

    def test_each_size_from_a_cold_memo(self, monkeypatch, machin_pi):
        for bits in PI_SIZES:
            monkeypatch.setattr(exact, "_INVERSE_PI", (0, 0))
            assert_inverse_pi_within(exact._inverse_pi(bits), bits, machin_pi, 102)
            assert exact._INVERSE_PI[0] == max(bits, 64)

    def test_rising_and_falling_requests(self, monkeypatch, machin_pi):
        # A request past the memo recomputes at no less than twice its size; a
        # request within it is cut from the memo without recomputing.
        monkeypatch.setattr(exact, "_INVERSE_PI", (0, 0))
        have = 0
        for bits in (100, 101, 150, 129, 1000, 64, 2049, 2047, 4100, 7, 9000, 40_000, 3, 39_999):
            before = exact._INVERSE_PI
            value = exact._inverse_pi(bits)
            if bits <= have:
                assert exact._INVERSE_PI is before, bits
            else:
                have = max(bits, 2 * have, 64)
                assert exact._INVERSE_PI[0] == have, bits
            assert_inverse_pi_within(value, bits, machin_pi, 102 if bits == have else 151)

    def test_every_size_the_benchmark_requests(self, capsys, monkeypatch, tmp_path, machin_pi):
        monkeypatch.delenv("EISCONG_BERNOULLI_CACHE", raising=False)
        requested = {}
        real_inverse_pi = exact._inverse_pi

        def spy(bits):
            requested[bits] = real_inverse_pi(bits)
            return requested[bits]

        monkeypatch.setattr(exact, "_inverse_pi", spy)
        cache = tmp_path / "bernoulli.cache"
        for argv in BENCHMARK_ARGVS:
            # Each benchmark operation starts in a fresh interpreter.
            monkeypatch.setattr(exact, "_BERNOULLI_MEMO",
                                {k: exact._BERNOULLI_MEMO[k] for k in (0, 1, 2)})
            monkeypatch.setattr(exact, "_INVERSE_PI", (0, 0))
            congruences._k_over_bernoulli.cache_clear()
            extra = ["--cache", str(cache)] if argv[0] == "scan" else []
            assert main(argv + extra + ["--jobs", "1"]) == 0, argv
        capsys.readouterr()
        assert len(requested) > 5 and max(requested) > 17_000
        for bits, value in sorted(requested.items()):
            assert_inverse_pi_within(value, bits, machin_pi, 151)
            monkeypatch.setattr(exact, "_INVERSE_PI", (0, 0))
            assert_inverse_pi_within(real_inverse_pi(bits), bits, machin_pi, 102)


class TestBernoulli:
    def test_base_case(self):
        assert bernoulli(0) == 1

    def test_convention_b1(self):
        assert bernoulli(1) == Fraction(-1, 2)

    def test_odd_indices_vanish(self):
        for k in range(3, 31, 2):
            assert bernoulli(k) == 0

    def test_frozen_values_from_recurrence_oracle(self):
        assert bernoulli_by_recurrence(2) == Fraction(1, 6)
        assert bernoulli_by_recurrence(12) == Fraction(-691, 2730)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_matches_recurrence_oracle(self):
        for k in range(0, 121, 2):
            assert bernoulli(k) == bernoulli_by_recurrence(k), k

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-2)
        with pytest.raises(ValueError, match="non-negative"):
            exact.seed_bernoulli(-2, Fraction(1, 6))

    def test_clausen_von_staudt(self):
        # B_k plus the sum of 1/q over primes q with (q-1) | k is an integer
        for k in range(2, 62, 2):
            total = bernoulli(k)
            for d in divisors(k):
                q = d + 1
                if all(q % t for t in range(2, q)) and q > 1:
                    total += Fraction(1, q)
            assert total.denominator == 1, k

    def test_p_bk_congruent_minus_one(self):
        # p * B_k = -1 (mod p) when (p-1) | k
        for p in (5, 7, 11):
            for mult in (1, 2, 5):
                k = mult * (p - 1)
                x = p * bernoulli(k)
                assert x.denominator % p != 0
                assert (x.numerator * pow(x.denominator, -1, p) - (p - 1)) % p == 0

    def test_valuation_of_bk_over_k(self):
        # nu_p(B_k/k) = -nu_p(k) - 1 when (p-1) | k, and >= 0 otherwise
        for p in (5, 7):
            for k in range(2, 80, 2):
                v = padic_valuation(bernoulli(k) / k, p)
                if k % (p - 1) == 0:
                    assert v == -padic_valuation(k, p) - 1
                else:
                    assert v >= 0

    @pytest.mark.parametrize("order", ["descending", "interleaved"])
    def test_matches_tangent_oracle(self, cold_bernoulli, tangent_oracle, order):
        indices = (sorted(DIFFERENTIAL_INDICES, reverse=True) if order == "descending"
                   else interleaved(DIFFERENTIAL_INDICES))
        assert sorted(indices) == DIFFERENTIAL_INDICES
        for k in indices:
            assert bernoulli(k) == tangent_oracle[k], k
        assert bernoulli_cached_indices() == [0, 1] + DIFFERENTIAL_INDICES

    def test_pi_grows_at_least_twofold(self, cold_bernoulli):
        bernoulli(100)
        first = exact._INVERSE_PI[0]
        bernoulli(102)
        assert exact._INVERSE_PI[0] >= 2 * first

    def test_working_bits_bound_the_numerator_within_three_bits(self, tangent_oracle):
        # 2**L exceeds |B_k| D, and with log2(2 pi) > 2.6514 and one bit for
        # zeta(k) it overshoots by at most 3 bits, also at k = 2402.
        for k in DIFFERENTIAL_INDICES[1:]:
            value = tangent_oracle[k]
            top = 2 * math.factorial(k) * value.denominator
            w, guard = exact._working_bits(k, top)
            slack = w - guard - abs(value.numerator).bit_length()
            assert 0 <= slack <= 3, (k, slack)

    @pytest.mark.parametrize("indices,first", [([40], 40), ([4, 40, 100], 100)], ids=["lone", "pass"])
    def test_unproven_rounding_raises(self, cold_bernoulli, monkeypatch, indices, first):
        # The guard bits prove every rounding, so one left unproven is a
        # fault: one attempt, and the memo keeps none of the pass. Here every
        # |B_k| D past 9 is refused: B_4's, which is 1, rounds; B_40's and
        # B_100's do not, and the pass, from the top down, meets B_100 first.
        runs = spy_passes(monkeypatch)
        real = exact._round_proven
        monkeypatch.setattr(exact, "_round_proven",
                            lambda scaled, guard, error: None if scaled >> guard > 9 else
                            real(scaled, guard, error))
        with pytest.raises(ArithmeticError, match=f"^B_{first}: rounding not proven$"):
            prefetch_bernoulli(indices)
        assert runs == [indices]
        assert bernoulli_cached_indices() == [0, 1, 2]

    def test_denominator_matches_tangent_oracle(self, tangent_oracle, monkeypatch):
        # From a fresh sieve table, which each index grows to cover its candidates l = d + 1.
        monkeypatch.setattr(exact, "_SMALLEST_FACTORS", array("H", [1, 1]))
        for k in reversed(DIFFERENTIAL_INDICES):
            assert exact.bernoulli_denominator(k) == tangent_oracle[k].denominator, k

    def test_von_staudt_clausen_sum_is_an_integer(self, tangent_oracle):
        for k in DIFFERENTIAL_INDICES:
            primes = exact.staudt_primes(k)
            assert primes == [l for l in primes_to(k + 1) if k % (l - 1) == 0], k
            assert (tangent_oracle[k] + sum(Fraction(1, l) for l in primes)).denominator == 1, k

    def test_numerator_bits_floor_is_below_every_numerator(self, tangent_oracle):
        for k in DIFFERENTIAL_INDICES:
            assert tangent_oracle[k].numerator.bit_length() > exact.numerator_bits_floor(k), k
        assert exact.numerator_bits_floor(10**12) == 34_905_700_000_001

    def test_threaded_access(self, cold_bernoulli, tangent_oracle, monkeypatch):
        indices = [402, 1296, 2026, 2402] * 2
        results = {}
        unlocked_pi = []
        real_inverse_pi = exact._inverse_pi

        def pi_under_lock(bits):
            if not exact._BERNOULLI_LOCK.locked():
                unlocked_pi.append(bits)
            return real_inverse_pi(bits)

        monkeypatch.setattr(exact, "_inverse_pi", pi_under_lock)

        def worker(slot, k):
            results[slot] = bernoulli(k)

        threads = [threading.Thread(target=worker, args=(slot, k)) for slot, k in enumerate(indices)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert unlocked_pi == []
        assert [results[slot] for slot in range(len(indices))] == [tangent_oracle[k] for k in indices]


def working_bits(k):
    """w, the precision the pass runs B_k at."""
    return exact._working_bits(k, 2 * math.factorial(k) * exact.bernoulli_denominator(k))[0]


def spy_rounding(monkeypatch):
    """Record (k, provider) per rounding attempt: "sum" (`_zeta_bracket`) or "euler" (`_zeta_euler`)."""
    attempts = []
    zeta_bracket, zeta_euler = exact._zeta_bracket, exact._zeta_euler

    def sum_spy(values, errors, k, shift):
        attempts.append((k, "sum"))
        return zeta_bracket(values, errors, k, shift)

    def euler_spy(k, w):
        attempts.append((k, "euler"))
        return zeta_euler(k, w)

    monkeypatch.setattr(exact, "_zeta_bracket", sum_spy)
    monkeypatch.setattr(exact, "_zeta_euler", euler_spy)
    return attempts


def spy_passes(monkeypatch):
    """Record the indices of each pass."""
    runs = []
    real = exact._bernoulli_pass

    def spy(ks):
        runs.append(list(ks))
        real(ks)

    monkeypatch.setattr(exact, "_bernoulli_pass", spy)
    return runs


def spy_reciprocals(monkeypatch, afresh=None):
    """Check the reciprocals of a pass with the zeta sum at every index; record the ks, top first.

    values[i] = R and errors[i] = r, for the odd b = 2i + 1, bracket
    2**E / b**k, E = w + shift: R b**k <= 2**E < (R + r) b**k, against the
    exact power. The lists hold exactly the odd b that `_power_bits(b, k) <= w`
    admits, so no division probes a b the test refuses. An r of 1 where b was
    carried from the index above (a carried r is at least 2) is a reciprocal
    made afresh: there is none, or, with a list `afresh`, their count per
    index goes there.
    """
    steps = []
    carried = 0  # how many reciprocals the index above handed on: none at a pass's top
    real, real_pass = exact._zeta_bracket, exact._bernoulli_pass

    def pass_spy(ks):
        nonlocal carried
        carried = 0
        real_pass(ks)

    def spy(values, errors, k, shift):
        nonlocal carried
        w = working_bits(k)
        admitted = len(values)
        assert len(errors) == admitted and admitted, k
        assert exact._power_bits(2 * admitted - 1, k) <= w < exact._power_bits(2 * admitted + 1, k), k
        for i, (value, error) in enumerate(zip(values, errors)):
            power = (2 * i + 1)**k
            assert value * power <= 1 << (w + shift) < (value + error) * power, (k, 2 * i + 1)
        if afresh is None:
            assert 1 not in errors[:carried], k
        else:
            afresh.append(errors[:carried].count(1))
        carried = admitted
        steps.append(k)
        return real(values, errors, k, shift)

    monkeypatch.setattr(exact, "_bernoulli_pass", pass_spy)
    monkeypatch.setattr(exact, "_zeta_bracket", spy)
    return steps


def spy_brackets(monkeypatch):
    """Record (w, (Z, e)) per index, in the order the pass combines them."""
    handed = []
    real = exact._numerator

    def spy(bracket, w, guard, mantissa, exponent):
        handed.append((w, bracket))
        return real(bracket, w, guard, mantissa, exponent)

    monkeypatch.setattr(exact, "_numerator", spy)
    return handed


def spy_steps(monkeypatch):
    """Record (e, p, k, (q, A, x)) per Euler step; `cut_primes` reads the cut ones from it."""
    steps = []
    real = exact._euler_step

    def spy(euler, p, k):
        steps.append((euler, p, k, real(euler, p, k)))
        return steps[-1][3]

    monkeypatch.setattr(exact, "_euler_step", spy)
    return steps


def cut_primes(steps):
    """The primes whose steps were cut: an odd p whose power came shifted, A 2**x with x > 0."""
    return [p for _, p, _, (_, _, exponent) in steps if p > 2 and exponent]


def alone(k):
    """B_k from a one-index pass, with the Euler bracket; the memo is left as it was."""
    with pytest.MonkeyPatch.context() as patch, exact._BERNOULLI_LOCK:
        patch.setattr(exact, "_BERNOULLI_MEMO", {})
        exact._bernoulli_pass([k])
        return exact._BERNOULLI_MEMO[k]


def guard_tops():
    """(k, 2 k! D) for every even k in 4..3000, and for k = 10,000."""
    factorial = 6
    for k in range(4, 3001, 2):
        factorial *= (k - 1) * k
        yield k, 2 * factorial * exact.bernoulli_denominator(k)
    yield 10_000, 2 * math.factorial(10_000) * exact.bernoulli_denominator(10_000)


def zeta_bounds(k, w, value, machin_pi):
    """(lo, hi, scale) with lo / scale <= zeta(k) 2**w <= hi / scale, from B_k = value and Machin's pi.

    zeta(k) = |B_k| (2 pi)**k / (2 k!). With pi 2**b within 2 of A, (2 pi)**k
    2**b lies between the floored powers of 2 (A - 2) and the ceilinged
    powers of 2 (A + 2), each taken in b-bit fixed point.
    """
    b = w + 64
    approx = machin_pi(b - 32)
    scale = 2 * math.factorial(k) * value.denominator << b
    top = abs(value.numerator) << w
    low = _fixed_power(2 * (approx - 2), k, b, floor=True)
    high = _fixed_power(2 * (approx + 2), k, b, floor=False)
    return top * low, top * high, scale


def _fixed_power(x, k, b, floor):
    """(x / 2**b)**k * 2**b, rounded down (floor) or up at every product."""
    result = 1 << b
    while k:
        if k & 1:
            result = result * x >> b if floor else -(-(result * x) >> b)
        k >>= 1
        if k:
            x = x * x >> b if floor else -(-(x * x) >> b)
    return result


class TestPrefetch:
    """The pass, from the top index down, with either zeta bracket, against the tangent oracle."""

    @pytest.mark.parametrize("order", ["ascending", "shuffled"])
    def test_scan_indices(self, cold_bernoulli, tangent_oracle, monkeypatch, order):
        indices = list(SCAN_INDICES)
        if order == "shuffled":
            random.Random(12).shuffle(indices)
        attempts = spy_rounding(monkeypatch)
        prefetch_bernoulli(indices)
        assert bernoulli_cached_indices() == [0, 1, 2] + SCAN_INDICES
        for k in SCAN_INDICES:
            assert bernoulli(k) == tangent_oracle[k], k
        # Every index was rounded once, from the zeta sum, the top first.
        assert attempts == [(k, "sum") for k in reversed(SCAN_INDICES)]

    @pytest.mark.parametrize("warm,indices,lone", [
        (SCAN_INDICES[:101], SCAN_INDICES, False), ([], list(range(2, 1201)), False),
        ([], LONE_INDICES, True), ([], SPARSE_INDICES, False),
    ], ids=["scan-after-its-cache", "cold-bernoulli-range", "lone-large-indices", "sparse-to-10000"])
    def test_every_index_proven_at_its_first_attempt(self, cold_bernoulli, tangent_oracle,
                                                     monkeypatch, warm, indices, lone):
        # The benchmark's scan, whose cache holds alpha <= 100, so the pass
        # ends at 612, a cold `bernoulli 2..1200`, large indices asked for one
        # at a time, as a filtration asks for its weight's, and ten indices
        # 998 apart up to 9982. Guard bits too few to prove a rounding would
        # raise.
        for k in warm:
            exact.seed_bernoulli(k, tangent_oracle[k])
        attempts = spy_rounding(monkeypatch)
        proofs, real = [], exact._round_proven
        monkeypatch.setattr(exact, "_round_proven",
                            lambda *args: proofs.append(real(*args)) or proofs[-1])
        if lone:
            for k in indices:
                bernoulli(k)
        else:
            prefetch_bernoulli(indices)
        missing = [k for k in indices if k >= 4 and k % 2 == 0 and k not in warm]
        assert attempts == ([(k, "euler") for k in missing] if lone
                            else [(k, "sum") for k in reversed(missing)])
        assert len(proofs) == len(missing) and None not in proofs
        for k in indices:
            if k in tangent_oracle:
                assert bernoulli(k) == tangent_oracle[k], k

    def test_both_brackets_agree_past_the_oracle(self, cold_bernoulli):
        # B_4000 is past the tangent oracle's table; the zeta sum, in a pass
        # with its neighbour, and the Euler product, alone, give it alike.
        prefetch_bernoulli([3998, 4000])
        assert bernoulli(4000) == alone(4000)

    def test_kummer_congruences_past_the_oracle(self, cold_bernoulli, tangent_oracle):
        # B_4000 alone, from the Euler bracket, as a filtration asks for it,
        # then the sparse indices in one pass, from the zeta sum. Each holds
        # at over 400 primes, and a numerator raised by one fails at some.
        bernoulli(4000)
        prefetch_bernoulli(SPARSE_INDICES)
        for k in KUMMER_INDICES:
            value = bernoulli(k)
            assert sum(k % (l - 1) != 0 for l in KUMMER_PRIMES) > 400, k
            assert kummer_misses(k, value, tangent_oracle, KUMMER_PRIMES) == [], k
            raised = Fraction(value.numerator + 1, value.denominator)
            assert kummer_misses(k, raised, tangent_oracle, KUMMER_PRIMES), k

    @settings(derandomize=True, database=None, max_examples=3, deadline=None)
    @given(st.integers(1501, 6000).map(lambda n: 2 * n))
    def test_kummer_congruences_at_drawn_indices(self, tangent_oracle, k):
        # A lone even index in 3002..12000; each costs up to about 0.3 s, so few are drawn.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exact, "_BERNOULLI_MEMO", {j: exact._BERNOULLI_MEMO[j] for j in (0, 1, 2)})
            assert kummer_misses(k, bernoulli(k), tangent_oracle, KUMMER_PRIMES) == [], k

    def test_thm1_grid_progressions(self, cold_bernoulli, tangent_oracle, monkeypatch):
        indices = thm1_grid_indices()
        gaps = {k - j for j, k in zip(indices, indices[1:])}
        assert len(indices) > 100 and len(gaps) > 3 and max(indices) == 366
        attempts = spy_rounding(monkeypatch)
        prefetch_bernoulli(indices)
        assert attempts == [(k, "sum") for k in reversed(indices) if k > 2]
        for k in indices:
            assert bernoulli(k) == tangent_oracle[k], k

    def test_threads_share_the_memo(self, cold_bernoulli, tangent_oracle, monkeypatch):
        # Overlapping passes and single-index calls, interleaved finely.
        unlocked_pi = []
        real_inverse_pi = exact._inverse_pi

        def pi_under_lock(bits):
            if not exact._BERNOULLI_LOCK.locked():
                unlocked_pi.append(bits)
            return real_inverse_pi(bits)

        monkeypatch.setattr(exact, "_inverse_pi", pi_under_lock)
        work = [lambda: prefetch_bernoulli(SCAN_INDICES[:200]),
                lambda: prefetch_bernoulli(SCAN_INDICES[100:]),
                lambda: prefetch_bernoulli(SCAN_INDICES[::2]),
                lambda: [bernoulli(k) for k in SCAN_INDICES[::-25]]]
        threads = [threading.Thread(target=job) for job in work]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert unlocked_pi == []
        assert bernoulli_cached_indices() == [0, 1, 2] + SCAN_INDICES
        assert all(exact._BERNOULLI_MEMO[k] == tangent_oracle[k] for k in SCAN_INDICES)

    def test_skips_what_it_need_not_compute(self, cold_bernoulli, monkeypatch):
        attempts = spy_rounding(monkeypatch)
        prefetch_bernoulli([0, 1, 2, 3, 7, 12, 12])
        prefetch_bernoulli([12])
        prefetch_bernoulli([])
        assert attempts == [(12, "euler")]
        assert bernoulli_cached_indices() == [0, 1, 2, 12]
        assert bernoulli(12) == Fraction(-691, 2730)

    @pytest.mark.parametrize("indices,warm", [
        ([0, 1, 3, 2402], []), ([4, 12, 2402], [4, 12]), ([2200, 2402], []), ([4, 2200, 2402], [4]),
    ], ids=["lone", "lone-after-warm", "pair", "pair-after-warm"])
    def test_a_lone_missing_index_takes_the_euler_bracket(self, cold_bernoulli, tangent_oracle,
                                                          monkeypatch, indices, warm):
        # Fresh reciprocals for one index would each cost a big division, so a
        # lone missing index takes its zeta(k) from the Euler product; two or
        # more share the zeta sum. Neither hands off to `bernoulli`.
        for k in warm:
            exact.seed_bernoulli(k, tangent_oracle[k])
        called, real = [], exact.bernoulli
        monkeypatch.setattr(exact, "bernoulli", lambda k: called.append(k) or real(k))
        attempts = spy_rounding(monkeypatch)
        prefetch_bernoulli(indices)
        missing = [k for k in indices if k >= 4 and k not in warm]
        provider = "euler" if len(missing) == 1 else "sum"
        assert called == [] and attempts == [(k, provider) for k in reversed(missing)]
        assert bernoulli_cached_indices() == sorted({0, 1, 2, *warm, *missing})
        for k in missing:
            assert exact._BERNOULLI_MEMO[k] == tangent_oracle[k], k

    @pytest.mark.parametrize("shape", PASS_SHAPES)
    def test_pass_shapes(self, cold_bernoulli, tangent_oracle, monkeypatch, shape):
        indices = PASS_SHAPES[shape]
        steps = spy_reciprocals(monkeypatch)
        prefetch_bernoulli(indices)
        assert steps == indices[::-1]
        for k in indices:
            assert bernoulli(k) == tangent_oracle[k] == alone(k), k

    def test_reciprocals_after_a_warm_prefix(self, cold_bernoulli, tangent_oracle, monkeypatch):
        # The misses 612 .. 960 in gaps of 6, below 606 memoized.
        indices = SCAN_INDICES[:161]
        for k in indices[:101]:
            exact.seed_bernoulli(k, tangent_oracle[k])
        steps = spy_reciprocals(monkeypatch)
        prefetch_bernoulli(indices)
        assert steps == indices[:100:-1]
        for k in indices[101::10]:
            assert bernoulli(k) == tangent_oracle[k] == alone(k), k

    @pytest.mark.parametrize("indices", [[1800, 1806], SCAN_INDICES[101:], list(range(4, 601, 2))],
                             ids=["w-falls-as-k-rises", "scan-after-its-cache", "dead-reciprocals"])
    def test_runs_that_need_the_headroom(self, cold_bernoulli, tangent_oracle, monkeypatch, machin_pi,
                                         indices):
        # Runs where reciprocals carried down without the headroom H would
        # lose their precision: w_1800 > w_1806, so the index below asks more
        # of them than the top did; the scan's run; and the small indices of
        # 4..600, where a reciprocal near the last admitted b floors to 0 at
        # a scale without headroom, and its error then outgrows its value. At
        # every index each reciprocal holds its bracket and none is made
        # afresh (`spy_reciprocals`), and each zeta bracket contains
        # zeta(k) 2**w, has e <= 2**(c+1) + 7, and meets the bracket of the
        # ascending oracle, from exact floors, at the same w.
        if indices == [1800, 1806]:
            assert working_bits(1800) > working_bits(1806)
        steps = spy_reciprocals(monkeypatch)
        handed = spy_brackets(monkeypatch)
        prefetch_bernoulli(indices)
        assert steps == indices[::-1] and len(handed) == len(indices)
        oracle = ascending_brackets(indices)[::-1]
        for k, (w, (zeta, error)), (_, oracle_w, (low_z, oracle_e)) in zip(steps, handed, oracle):
            assert w == oracle_w, k
            low, high, scale = zeta_bounds(k, w, tangent_oracle[k], machin_pi)
            assert zeta * scale <= low and high < (zeta + error) * scale, k
            assert error <= 2 ** (-(-w // (k - 1)) + 1) + 7, k
            assert zeta < low_z + oracle_e and low_z < zeta + error, k
            assert bernoulli(k) == tangent_oracle[k], k

    def test_reciprocals_made_afresh_without_headroom(self, cold_bernoulli, tangent_oracle, monkeypatch,
                                                      machin_pi):
        # With no headroom the carried errors pass 2**(E-w-1), and those
        # reciprocals are made afresh: every bracket still holds, within the
        # guard bound, and every value is right.
        monkeypatch.setattr(exact, "_headroom", lambda spread: 0)
        afresh = []
        steps = spy_reciprocals(monkeypatch, afresh)
        handed = spy_brackets(monkeypatch)
        indices = SCAN_INDICES[250:]
        prefetch_bernoulli(indices)
        assert steps == indices[::-1] and sum(afresh) > 100
        for k, (w, (zeta, error)) in zip(steps, handed):
            low, high, scale = zeta_bounds(k, w, tangent_oracle[k], machin_pi)
            assert zeta * scale <= low and high < (zeta + error) * scale, k
            assert error <= 2 ** (-(-w // (k - 1)) + 1) + 7, k
            assert bernoulli(k) == tangent_oracle[k], k

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.data())
    def test_ascending_sets_match_the_oracle(self, tangent_oracle, data):
        # An index set, the first `warm` of them already memoized (as from a
        # cache), so the pass may open on a large gap.
        indices = sorted(data.draw(st.sets(st.sampled_from(sorted(k for k in tangent_oracle if k >= 4)),
                                           min_size=1, max_size=12)))
        warm = data.draw(st.integers(0, len(indices) - 1))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exact, "_BERNOULLI_MEMO", {k: exact._BERNOULLI_MEMO[k] for k in (0, 1, 2)})
            for k in indices[:warm]:
                exact.seed_bernoulli(k, tangent_oracle[k])
            prefetch_bernoulli(indices)
            assert bernoulli_cached_indices() == [0, 1, 2] + indices
            assert all(exact._BERNOULLI_MEMO[k] == tangent_oracle[k] for k in indices)

    @pytest.mark.parametrize("k", [4, 6, 8, 12, 20])
    def test_zeta_sum_oracle_within_its_bound(self, k):
        # The partial sum S of n**-k to M = 1024, exact over the common
        # denominator L; zeta(k) lies in [S, S + M**(1-k) / (k-1)].
        M = 1024
        L = math.lcm(*range(1, M + 1)) ** k
        partial = Fraction(sum(L // n**k for n in range(1, M + 1)), L)
        for w in range(6 * k + 1):
            zeta, error = zeta_sum([], k, w, w)
            low = partial * 2**w
            high = low + Fraction(2**w, (k - 1) * M ** (k - 1))
            assert zeta <= low and high < zeta + error, (k, w)
            # The sum of every n's floor up to the first zero term, at n = N,
            # and the error that N gives: the odd reciprocals change neither.
            n = 1
            while (1 << w) // n**k:
                n += 1
            direct = sum((1 << w) // j**k for j in range(1, n))
            assert (zeta, error) == (direct, (n - 2) + (n // (k - 1) + 2)), (k, w)
            # The same sum from reciprocals at a wider precision, shifted down.
            assert zeta_sum([], k, w + 37, w) == (zeta, error), (k, w)

    @pytest.mark.parametrize("k", [4, 6, 8, 12, 20])
    def test_zeta_bracket_within_its_bound(self, k):
        # As above, from reciprocals at the scale E = w + shift over every odd
        # b that `_power_bits` admits: the exact floors (r = 1), and each
        # reciprocal as low as an r of 2**(shift-1), the most the pass lets
        # one reach, or 2**(shift+2) allows, R = floor(2**E / b**k) - r + 1.
        M = 1024
        L = math.lcm(*range(1, M + 1)) ** k
        partial = Fraction(sum(L // n**k for n in range(1, M + 1)), L)
        for w in range(6 * k + 1):
            low = partial * 2**w
            high = low + Fraction(2**w, (k - 1) * M ** (k - 1))
            count = 0
            while exact._power_bits(2 * count + 1, k) <= w:
                count += 1
            for shift in (1, 8, 40):
                floors = [(1 << (w + shift)) // (2 * i + 1)**k for i in range(count)]
                for r in (1, 1 << (shift - 1), 1 << (shift + 2)):
                    values = [max(floor - r + 1, 0) for floor in floors]
                    zeta, error = exact._zeta_bracket(values, [r] * count, k, shift)
                    assert zeta <= low and high < zeta + error, (k, w, shift, r)
                    if r < 1 << shift:
                        c = -(-w // (k - 1))
                        assert error <= 2 ** (c + 1) + 7, (k, w, shift, r)

    @pytest.mark.parametrize("k", [4, 6, 8, 12, 20])
    def test_zeta_euler_within_its_bound(self, k, monkeypatch):
        # As above, from w = 4 on, where n + 1 primes weigh most against 2**w;
        # past w = 2k or so the last primes' steps are cut.
        M = 1024
        L = math.lcm(*range(1, M + 1)) ** k
        partial = Fraction(sum(L // n**k for n in range(1, M + 1)), L)
        steps = spy_steps(monkeypatch)
        for w in range(4, 6 * k + 1):
            zeta, error = exact._zeta_euler(k, w)
            low = partial * 2**w
            high = low + Fraction(2**w, (k - 1) * M ** (k - 1))
            assert zeta <= low and high < zeta + error, (k, w)
        assert len(cut_primes(steps)) > 40

    @pytest.mark.parametrize("k", [1296, 2026, 2402, 3000])
    def test_zeta_euler_cuts_at_the_large_weights(self, k, tangent_oracle, monkeypatch):
        # At the precision a lone B_k runs at, more than half the primes,
        # the largest, are cut, up to the last the full floors take or the
        # next (the cut stop test may read a power a little short), and the
        # bracket holds against every term's floor.
        w, _ = exact._working_bits(k, 2 * math.factorial(k) * tangent_oracle[k].denominator)
        steps = spy_steps(monkeypatch)
        zeta, error = exact._zeta_euler(k, w)
        cut = cut_primes(steps)
        primes = [p for _, p, _, _ in steps]
        assert 2 * len(cut) > len(primes) and cut == primes[-len(cut):], k
        assert primes == primes_to(primes[-1]) and len(primes) <= len(euler_by_floors(k, w)) + 1, k
        low, high = zeta_by_floors(k, w + 64)
        assert zeta << 64 <= low and high <= zeta + error << 64, k

    @pytest.mark.parametrize("k,ws", [(6, range(8, 40)), (12, range(15, 100)), (40, range(45, 170))])
    def test_zeta_euler_when_the_last_quotient_has_at_most_one_bit(self, k, ws, monkeypatch):
        # A cut step whose quotient has no bits or one keeps only its guard
        # bits of p**k; the bracket still holds there.
        steps = spy_steps(monkeypatch)
        seen = set()
        for w in ws:
            last, quotient = euler_by_floors(k, w)[-1]
            steps.clear()
            zeta, error = exact._zeta_euler(k, w)
            if quotient.bit_length() > 1 or last not in cut_primes(steps):
                continue
            seen.add(quotient)
            low, high = zeta_by_floors(k, w + 16)
            assert zeta << 16 <= low and high <= zeta + error << 16, (k, w)
        assert seen == {0, 1}

    @pytest.mark.parametrize("k,ws", [(4, range(4, 46)), (12, range(4, 140)), (40, range(4, 500, 3)),
                                      (2402, range(16_000, 17_200, 40))])
    def test_euler_steps_never_above_the_floor(self, k, ws, monkeypatch):
        # Each step subtracts floor(e / p**k) or one less, never more, and the
        # stop test reads a power no larger than p**k.
        steps = spy_steps(monkeypatch)
        for w in ws:
            exact._zeta_euler(k, w)
        below = 0
        for euler, p, _, (quotient, power, exponent) in steps:
            floor = euler // p**k
            assert floor - 1 <= quotient <= floor and power << exponent <= p**k, (k, p)
            below += quotient < floor
        assert below and len(cut_primes(steps)) > len(steps) // 4

    @pytest.mark.parametrize("k,w", [(4, 40), (6, 60), (12, 130), (40, 300), (2402, 17_169)])
    def test_zeta_euler_covers_its_worst_case(self, k, w):
        # The bracket's proof: with n primes, the product E, from above, is
        # under 2**w / zeta(k) + 2n + 1, so zeta(k) 2**w < 2**(2w) / (E - 2n - 1),
        # which Z + e must exceed, wherever in its range each floor and each
        # cut quotient fell. E > 2**(2w) / (Z + 1) is read back from Z. A cut
        # power is below p**k by under 1/8, so the stop test holds by the
        # first prime with 7 (k-1) p**(k-1) >= 8 * 2**w: n is at most its count.
        zeta, error = exact._zeta_euler(k, w)
        n = 0
        for p in primes_to(1 << -(-w // (k - 1)) + 1):
            n += 1
            if 7 * (k - 1) * p ** (k - 1) >= 8 << w:
                break
        least = (1 << 2 * w) // (zeta + 1) + 1
        assert (zeta + error) * (least - 2 * n - 1) > 1 << 2 * w, (k, w)

    @pytest.mark.parametrize("k", [1, 2, 3, 6, 100, 612, 2402])
    def test_power_truncated_within_k_units(self, k):
        # Each cut loses under 2**-bits of its product, and a cut made at
        # bit i of k counts 2**i times in the result: k - 1 in all.
        rng = random.Random(k)
        for bits in (8, 64, 200):
            for size in (3, bits, 3 * bits):
                mantissa = rng.getrandbits(size) | 1 << (size - 1)
                value, exponent = exact._power_truncated(mantissa, -5, k, bits)
                power = mantissa**k
                approx = value << (exponent + 5 * k)
                assert 0 <= power - approx and (power - approx) << bits < k * power, (k, bits)

    def test_brackets_at_the_precision_each_index_runs_at(self, cold_bernoulli, tangent_oracle,
                                                          monkeypatch, machin_pi):
        # Every bracket a cold pass over BRACKET_INDICES takes from the zeta
        # sum, and each of them alone from the Euler product, against zeta(k)
        # from the tangent oracle's B_k and Machin's pi.
        brackets = []
        for name in ("_zeta_bracket", "_zeta_euler"):
            def spy(*args, real=getattr(exact, name), name=name):
                bracket = real(*args)
                k, w = (args[2], working_bits(args[2])) if name == "_zeta_bracket" else args
                brackets.append((name, k, w, bracket))
                return bracket

            monkeypatch.setattr(exact, name, spy)
        prefetch_bernoulli(BRACKET_INDICES)
        for k in BRACKET_INDICES:
            alone(k)
        assert [name for name, *_ in brackets] == (["_zeta_bracket"] * len(BRACKET_INDICES)
                                                   + ["_zeta_euler"] * len(BRACKET_INDICES))
        for name, k, w, (zeta, error) in brackets:
            assert w == exact._working_bits(k, 2 * math.factorial(k) * tangent_oracle[k].denominator)[0]
            low, high, scale = zeta_bounds(k, w, tangent_oracle[k], machin_pi)
            assert zeta * scale <= low and high < (zeta + error) * scale, (name, k, w)

    @pytest.mark.parametrize("indices", [[1296], [2402], [3000], SCAN_INDICES[101:], [4, 612, 2026]],
                             ids=["1296", "2402", "3000", "scan-after-its-cache", "wide-gaps"])
    def test_carried_factor_within_its_units(self, cold_bernoulli, tangent_oracle, monkeypatch,
                                             machin_pi, indices):
        # 2 k! D (2 pi)**-k as the pass hands it to the combine, within one
        # unit of 2**-w at every index, as `_numerator`'s budget assumes,
        # against Machin's pi: between the floored and the ceilinged powers
        # of 2 (A -/+ 2) in b-bit fixed point, A within 2 of pi 2**b. A gap
        # of d costs up to d units of the pass's precision in the cut powers
        # of 2**s / pi, not one per cut.
        handed = []
        real = exact._numerator

        def spy(bracket, w, guard, mantissa, exponent):
            handed.append((w, mantissa, exponent))
            return real(bracket, w, guard, mantissa, exponent)

        monkeypatch.setattr(exact, "_numerator", spy)
        prefetch_bernoulli(indices)
        assert len(handed) == len(indices)
        for k, (w, mantissa, exponent) in zip(reversed(indices), handed):
            b = w + 64
            approx = machin_pi(b - 32)
            low = _fixed_power(2 * (approx - 2), k, b, floor=True)
            high = _fixed_power(2 * (approx + 2), k, b, floor=False)
            top = 2 * math.factorial(k) * tangent_oracle[k].denominator << b
            shift = max(-exponent, 0)
            value = mantissa << (exponent + shift)
            # value 2**-shift within a relative 2**-w of top / (2 pi)**k 2**b.
            assert value * low << w >= (top << shift) * ((1 << w) - 1), k
            assert value * high << w <= (top << shift) * ((1 << w) + 1), k

    @pytest.mark.parametrize("indices", [SCAN_INDICES[101:], [4, 612, 2026], [1800, 1806]],
                             ids=["scan-after-its-cache", "wide-gaps", "w-falls-as-k-rises"])
    def test_carried_width_covers_the_carried_cost(self, cold_bernoulli, monkeypatch, indices):
        # The carried factor's budget: every step, the top's included, costs
        # under 3 units of 2**-W at its own W, and W, read from F's W + 1
        # bits as the pass hands it on, never grows on the way down, so at
        # every index the n steps cost under 3n 2**-W < 2**-(w+2).
        handed = []
        real = exact._numerator

        def spy(bracket, w, guard, mantissa, exponent):
            handed.append((w, mantissa))
            return real(bracket, w, guard, mantissa, exponent)

        monkeypatch.setattr(exact, "_numerator", spy)
        prefetch_bernoulli(indices)
        assert [w for w, _ in handed] == [working_bits(k) for k in reversed(indices)]
        widths = [(mantissa // exact.bernoulli_denominator(k)).bit_length() - 1
                  for k, (_, mantissa) in zip(reversed(indices), handed)]
        assert widths == sorted(widths, reverse=True)
        assert all(3 * len(indices) << (w + 2) < 1 << width for (w, _), width in zip(handed, widths))

    def test_guard_bits_are_the_least_the_bound_proves(self):
        # g is the least integer with 8 (2**(c+1) + 10) <= 2**g, where
        # c = ceil(w / (k-1)) and w = L + g, at every even k to 3000 and at 10,000.
        def proves(k, bits, guard):
            return 8 * (2 ** (-(-(bits + guard) // (k - 1)) + 1) + 10) <= 2**guard

        guards = {}
        for k, top in guard_tops():
            w, guard = exact._working_bits(k, top)
            assert proves(k, w - guard, guard), k
            assert not any(proves(k, w - guard, g) for g in range(guard)), k
            guards[k] = guard
        assert (min(guards.values()), max(guards[k] for k in guards if k <= 3000)) == (7, 13)
        assert guards[10_000] == 15

    @pytest.mark.parametrize("provider", ["sum", "euler"])
    def test_brackets_within_the_guard_bound(self, cold_bernoulli, monkeypatch, provider):
        # The e each bracket returns at the precision w an index runs at is at
        # most 2**(c+1) + 7, c = ceil(w / (k-1)), the bound the guard bits
        # rest on: the zeta sum in one cold pass over every even k to 3000,
        # which rounds each index once, and the Euler product alone at every
        # even k to 1200, every 100th to 3000, and 10,000. (The sum at 10,000
        # would first make its reciprocals: a big division for each of about
        # a hundred odd primes.)
        brackets = []
        if provider == "sum":
            handed = spy_brackets(monkeypatch)
            runs = spy_passes(monkeypatch)
            prefetch_bernoulli(range(4, 3001, 2))
            assert runs == [list(range(4, 3001, 2))]
            brackets = [(k, w, error) for k, (w, (_, error)) in zip(reversed(runs[0]), handed)]
            assert [w for _, w, _ in brackets[::250]] == [working_bits(k) for k, _, _ in brackets[::250]]
        else:
            for k, top in guard_tops():
                if k <= 1200 or k % 100 == 0:
                    w, _ = exact._working_bits(k, top)
                    brackets.append((k, w, exact._zeta_euler(k, w)[1]))
        assert len(brackets) > 600
        for k, w, error in brackets:
            assert error <= 2 ** (-(-w // (k - 1)) + 1) + 7, (k, w, error)

    @pytest.mark.parametrize("guard", [4, 16, 64])
    def test_combine_within_the_stated_error(self, monkeypatch, guard):
        # With a zeta bracket and a 2 k! D (2 pi)**-k that carry no error of
        # their own, the slack cut and the final floor stay within their 2 of
        # the stated e + 3 units (the third is the carried factor's), for
        # numerators * 2**guard just below 2**w, where the cut costs most.
        rng = random.Random(16)
        rounded = []
        monkeypatch.setattr(exact, "_round_proven",
                            lambda scaled, guard, error: rounded.append((scaled, guard, error)))
        for _ in range(300):
            w = rng.randrange(40, 400)
            zeta = rng.getrandbits(w) | 1 << w
            mantissa = rng.getrandbits(w + 104) | 1 << (w + 103)
            product = zeta * mantissa
            exponent = 2 * w - guard - product.bit_length()
            exact._numerator((zeta, 0), w, guard, mantissa, exponent)
            scaled, used, error = rounded.pop()
            value = product * Fraction(2) ** (exponent + guard - w)
            assert used == guard and error == 3 and 2 ** (w - 1) <= value < 2**w
            assert abs(scaled - value) < 2

    def test_negative_index_rejected(self, cold_bernoulli):
        with pytest.raises(ValueError, match="non-negative"):
            prefetch_bernoulli([4, -2])
        assert bernoulli_cached_indices() == [0, 1, 2]


class TestDecimalText:
    def test_past_the_int_str_limit(self):
        limit = sys.get_int_max_str_digits()
        for n in (-(7**6000), 10**5000 - 1):
            text = int_str(n)
            assert len(text) > 4300
            assert parse_int(text) == n
        assert sys.get_int_max_str_digits() == limit

    def test_below_the_limit_matches_str_and_int(self):
        for n in (0, -12, 2**200):
            assert int_str(n) == str(n)
            assert parse_int(str(n)) == n

    def test_only_integers_parse(self):
        long_digits = "9" * 5000
        for text in ("1.5", "1e5", "", "-", "NaN", long_digits + ".5", long_digits + "e1"):
            with pytest.raises(ValueError):
                parse_int(text)


class TestValuation:
    def test_unit(self):
        assert padic_valuation(Fraction(1, 6), 5) == 0

    def test_negative_valuation(self):
        assert padic_valuation(bernoulli(4), 5) == -1

    def test_zero_is_infinite(self):
        assert padic_valuation(Fraction(0), 7) == math.inf
        assert padic_valuation(0, 7) == math.inf

    def test_integer_argument(self):
        assert padic_valuation(250, 5) == 3

    def test_p_below_2_rejected(self):
        for p in (1, 0, -5):
            with pytest.raises(ValueError, match="at least 2"):
                padic_valuation(250, p)

    def test_bk_over_k_integral_when_p_minus_one_does_not_divide(self):
        assert padic_valuation(bernoulli(4) / 4, 7) >= 0
        assert padic_valuation(bernoulli(10) / 10, 7) >= 0


class TestGenBinomial:
    def test_negative_top(self):
        # Against the definition: the falling factorial top (top-1) ... (top-j+1) over j!.
        assert gen_binomial(-1, 1) == -1
        for top in range(-40, 40):
            falling = 1
            for j in range(12):
                assert gen_binomial(top, j) * math.factorial(j) == falling, (top, j)
                falling *= top - j

    def test_zero_window(self):
        assert gen_binomial(3, 5) == 0

    def test_classical(self):
        assert gen_binomial(5, 2) == 10

    def test_matches_comb_for_nonnegative_top(self):
        for top in range(0, 12):
            for j in range(0, 14):
                assert gen_binomial(top, j) == math.comb(top, j)

    def test_negative_top_reflection(self):
        # C(-t, j) = (-1)^j C(t+j-1, j)
        for t in range(1, 8):
            for j in range(0, 8):
                assert gen_binomial(-t, j) == (-1) ** j * math.comb(t + j - 1, j)

    def test_negative_lower_rejected(self):
        with pytest.raises(ValueError):
            gen_binomial(4, -1)


class TestHCoefficient:
    def test_delta_collapse(self):
        for m in range(1, 9):
            for alpha in range(m):
                for r in range(m):
                    assert h_coefficient(m, alpha, r) == (1 if r == alpha else 0)

    def test_known_values(self):
        assert h_coefficient(3, 5, 1) == -15
        assert h_coefficient(3, 5, 0) == 6
        assert h_coefficient(3, 5, 2) == 10
        assert h_coefficient(2, 4, 0) == -3

    def test_r_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            h_coefficient(3, 5, 3)
        with pytest.raises(ValueError):
            h_coefficient(3, 5, -1)
        # and m or alpha out of range
        with pytest.raises(ValueError, match="m must be positive"):
            h_coefficient(0, 5, 0)
        with pytest.raises(ValueError, match="alpha must be non-negative"):
            h_coefficient(3, -1, 0)

    def test_rows_sum_to_one(self):
        # sum_r H(m, alpha, r) = 1 for every alpha (constant-term identity)
        for m in range(1, 8):
            for alpha in range(0, 20):
                assert sum(h_coefficient(m, alpha, r) for r in range(m)) == 1


# The precisions of `TestSigma::test_table_known_answers`, ascending.
KNOWN_PRECISIONS = [0, 1, 2, 4, 8, 9, 25, 27, 32, 49, 121, 169, 201]


class TestSigma:
    def test_n_equal_one(self):
        for k in (0, 1, 7, 100):
            assert sigma_power_mod(k, 1, 7**9) == 1

    def test_divisor_enumeration(self):
        assert sigma_power_mod(3, 4, 7**9) == 1 + 8 + 64
        assert sigma_power_mod(1, 6, 7**9) == 1 + 2 + 3 + 6
        assert sigma_power(3, 4) == 1 + 8 + 64

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sigma_power_mod(3, 0, 25)
        for n in (0, -6):
            with pytest.raises(ValueError, match="n must be positive"):
                divisors(n)

    def test_mod_variant_agrees(self, rng):
        for _ in range(60):
            k = rng.randrange(0, 60)
            n = rng.randrange(1, 80)
            mod = rng.choice([25, 49, 343, 14641])
            assert sigma_power_mod(k, n, mod) == sigma_power(k, n) % mod

    def test_divisors(self):
        assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]

    def test_table_matches_per_coefficient_sums(self):
        # Every table a thm-grid G_k or E_k needs: p in {5, 7, 11, 13}, m <= 4,
        # even k in 4..198, precision 60; 1,568 tables in all.
        precision = 60
        moduli = [p**m for p in (5, 7, 11, 13) for m in range(1, 5)]
        for k in range(4, 199, 2):
            exact = [sigma_power(k - 1, n) for n in range(1, precision + 1)]
            for mod in moduli:
                table = sigma_power_table(k - 1, precision, mod)
                assert table[0] == 0, (k, mod)
                assert table[1:] == [s % mod for s in exact], (k, mod)
                assert table[1:] == [sigma_power_mod(k - 1, n, mod)
                                     for n in range(1, precision + 1)], (k, mod)

    def test_table_at_precision_zero_and_one(self):
        for k_minus_1 in (0, 3, 97):
            assert sigma_power_table(k_minus_1, 0, 25) == [0]
            assert sigma_power_table(k_minus_1, 1, 25) == [0, 1]

    # The edges 0, 1 and 2, then tables that end at a prime power: 8, 27 and 32
    # need sigma(q^a) from sigma(q^(a-1)), not sigma(q). 201 is the Sturm index
    # of the k = 2402 filtration, and 13^18 is above 2^64. Each input requests
    # its precisions in order from an empty row cache; the last requests 201
    # first, then the smaller ones.
    @pytest.mark.parametrize("precisions",
                             [(n,) for n in KNOWN_PRECISIONS] + [(201, *KNOWN_PRECISIONS[:-1])],
                             ids=[*map(str, KNOWN_PRECISIONS), "201-first"])
    def test_table_known_answers(self, precisions):
        exact._factor_rows.cache_clear()
        for precision in precisions:
            for k_minus_1 in (0, 1, 2, 5, 11, 97, 1805):
                sums = [sigma_power(k_minus_1, n) for n in range(1, precision + 1)]
                for mod in (5, 7**3, 11**4, 13**6, 13**18):
                    table = sigma_power_table(k_minus_1, precision, mod)
                    assert table == [0] + [s % mod for s in sums], (precision, k_minus_1, mod)
                    assert table[1:] == [sigma_power_mod(k_minus_1, n, mod)
                                         for n in range(1, precision + 1)], (precision, k_minus_1, mod)
            assert all(type(row) is tuple for row in exact._factor_rows(precision)), precision

    def test_exponent_zero_counts_divisors(self):
        table = sigma_power_table(0, 201, 13**6)
        assert table[1:] == [len(divisors(n)) for n in range(1, 202)]
        assert (table[8], table[60], table[121], table[180], table[201]) == (4, 12, 3, 18, 4)

    def test_smallest_factors(self, monkeypatch):
        # From a fresh table, grown by several requests; 0 marks a prime.
        monkeypatch.setattr(exact, "_SMALLEST_FACTORS", array("H", [1, 1]))
        for n in (3, 40, 41, 1000, 5000):
            factors = exact._smallest_factors(n)
            assert len(factors) > n
        assert factors[:2] == array("H", [1, 1])
        for n in range(2, len(factors)):
            least = next(d for d in range(2, n + 1) if n % d == 0)
            assert factors[n] == (0 if least == n else least), n


class TestPochhammer:
    def test_rising_factorial(self):
        assert pochhammer(3, 4) == 3 * 4 * 5 * 6
        assert pochhammer(5, 0) == 1

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="length must be non-negative"):
            pochhammer(3, -1)

    def test_vanishes_at_one_minus_j(self):
        # (1-j)_j contains the factor 0 for every j >= 1
        for j in range(1, 12):
            assert pochhammer(1 - j, j) == 0
