import random
from fractions import Fraction
from operator import mul

import pytest

from eiscong import congruences, eisenstein
from eiscong.congruences import (
    _series_report,
    _valuation_report,
    check_bernoulli_prop41,
    check_dpower_congruence,
    check_eq14,
    check_eq16,
    check_kummer,
    check_p_regular,
    check_prop_ek_fixed,
    check_prop_gk_fixed,
    check_sum_recurrence,
    check_sun97,
    check_telescoping,
    check_thm_ek,
    check_thm_gk,
    combin_identity_sum,
    constant_function,
    dpower_function,
    forward_difference_sum,
    inversion_identity_holds,
    inversion_rows,
    prop21_recovery_holds,
    scale_function,
    scan_conjecture_bernoulli,
    scan_conjecture_ek_series,
    sun_bernoulli_function,
    times_p_function,
)
from eiscong.errors import (
    BudgetExceededError,
    DNotCoprimeError,
    MOutOfRangeError,
    ParameterOutOfRangeError,
)
from eiscong.exact import gen_binomial, h_coefficient, padic_valuation, parse_int
from eiscong.filtration import sturm_bound
from eiscong.residue import ResidueRing
from eiscong.series import QSeries

from conftest import (
    bernoulli_by_recurrence,
    identity_sum_by_triple_products,
    inversion_report,
    inversion_sum_per_term,
    sigma_power,
    telescope_f,
    telescope_g,
    telescope_lhs,
    telescoping_by_fractions,
)

# The boxes of the benchmark's `verify identity` and `verify telescoping` argvs.
IDENTITY_BOX = [(m, j, s, alpha) for m in range(2, 13) for j in range(1, m)
                for s in range(m - j) for alpha in range(41)]
TELESCOPING_BOX = [(m, j, s, alpha) for m in range(2, 9) for j in range(1, m)
                   for s in range(m - j) for alpha in range(21)]
# Past 2^64, as the CLI's large grid runs.
LARGE_ALPHAS = (2 ** 64 - 1, 2 ** 64 + 1)


class TestThmGk:
    def test_trivial_for_small_alpha(self):
        for alpha in range(0, 3):
            assert check_thm_gk(7, 3, 4, alpha, 15).passed

    def test_p5_m1_against_scalar_oracle(self):
        # Independent oracle for the m = 1 statement: constant terms through
        # exact Bernoulli arithmetic, higher terms through divisor sums.
        p, kstar, alpha, n_max = 5, 6, 3, 30
        k = alpha * (p - 1) + kstar
        const_diff = (Fraction(-1, 2) * bernoulli_by_recurrence(k) / k
                      - Fraction(-1, 2) * bernoulli_by_recurrence(kstar) / kstar)
        assert padic_valuation(const_diff, p) >= 1
        for n in range(1, n_max + 1):
            assert (sigma_power(k - 1, n) - sigma_power(kstar - 1, n)) % p == 0
        assert check_thm_gk(p, 1, kstar, alpha, n_max).passed

    @pytest.mark.parametrize("p,m,kstar,alpha", [
        (5, 2, 6, 4), (5, 3, 6, 7), (7, 2, 4, 9), (7, 4, 8, 6), (11, 3, 4, 12),
    ])
    def test_grid_points(self, p, m, kstar, alpha):
        assert check_thm_gk(p, m, kstar, alpha, 30).passed

    def test_monotone_in_m(self):
        # Pass at m forces Pass at m-1 on the same parameters
        for m in (3, 2):
            assert check_thm_gk(5, m, 6, 5, 25).passed

    def test_rejects_bad_kstar(self):
        with pytest.raises(ParameterOutOfRangeError):
            check_thm_gk(5, 2, 8, 1, 10)  # (p-1) | k*
        with pytest.raises(ParameterOutOfRangeError):
            check_thm_gk(5, 2, 2, 1, 10)  # k* <= m
        with pytest.raises(ParameterOutOfRangeError, match="k\\* must be even"):
            check_thm_gk(5, 6, 9, 30, 30)  # odd k*

    def test_paper_scale_point(self):
        # p=7, m=8: weight 2026 written as 336*(p-1) + 10, checked through
        # the Sturm index of weight 2026
        report = check_thm_gk(7, 8, 10, 336, 170)
        assert report.passed
        assert report.certification == "sturm-certified"


@pytest.mark.parametrize("check, args, message", [
    pytest.param(check_thm_gk, (5, 0, 6, 4), "m must be at least 1", id="gk-m0"),
    pytest.param(check_thm_gk, (5, 2, 6, -1), "alpha must be non-negative", id="gk-alpha-1"),
    pytest.param(check_dpower_congruence, (5, 0, 3, 2), "m must be at least 1", id="dpower-m0"),
    pytest.param(check_dpower_congruence, (5, 2, -1, 2), "alpha must be non-negative",
                 id="dpower-alpha-1"),
    pytest.param(check_kummer, (5, 0, 6, 26), "r must be at least 1", id="kummer-r0"),
    pytest.param(check_kummer, (5, 2, 8, 28), "4 must not divide k", id="kummer-p-1-divides-k"),
    pytest.param(inversion_identity_holds, (constant_function(1), 0, 3),
                 "need n >= 1 and alpha >= 0", id="inversion-n0"),
    pytest.param(inversion_identity_holds, (constant_function(1), 2, -1),
                 "need n >= 1 and alpha >= 0", id="inversion-alpha-1"),
])
def test_out_of_range_arguments(check, args, message):
    with pytest.raises(ParameterOutOfRangeError) as exc:
        check(*args)
    assert str(exc.value) == message


class TestThmEk:
    def test_m1_reduces_to_classical(self):
        assert check_thm_ek(5, 1, 2, 20).passed

    @pytest.mark.parametrize("p,m,alpha", [
        (5, 2, 3), (5, 4, 9), (7, 3, 5), (7, 4, 11), (13, 4, 6),
    ])
    def test_grid_points(self, p, m, alpha):
        assert check_thm_ek(p, m, alpha, 30).passed

    def test_paper_scale_point(self):
        # p=17, m=6: weight 1296 = 81*(p-1), checked through the Sturm index
        report = check_thm_ek(17, 6, 81, 110)
        assert report.passed
        assert report.certification == "sturm-certified"

    def test_m_out_of_range(self):
        with pytest.raises(MOutOfRangeError):
            check_thm_ek(5, 5, 2, 10)

    def test_alpha_zero_rejected(self):
        with pytest.raises(ParameterOutOfRangeError):
            check_thm_ek(5, 2, 0, 10)


class TestFixedWeightProps:
    def test_gk_fixed(self):
        assert check_prop_gk_fixed(5, 2, 6, 4, 30).passed
        assert check_prop_gk_fixed(7, 3, 4, 8, 25).passed

    def test_gk_fixed_agrees_with_thm_mod_p(self):
        # At m = 1 the two statements coincide since E_{p-1} = 1 (mod p)
        assert check_prop_gk_fixed(5, 1, 6, 3, 25).passed
        assert check_thm_gk(5, 1, 6, 3, 25).passed

    def test_ek_fixed(self):
        assert check_prop_ek_fixed(7, 3, 5, 40).passed
        assert check_prop_ek_fixed(5, 4, 7, 25).passed

    def test_ek_fixed_m_out_of_range(self):
        with pytest.raises(MOutOfRangeError):
            check_prop_ek_fixed(5, 6, 2, 10)


class TestBernoulliProp41:
    def test_small_case(self):
        assert check_bernoulli_prop41(5, 2, 3, 2).passed

    def test_trivial_delta_collapse(self):
        assert check_bernoulli_prop41(5, 2, 1, 1).passed

    def test_d_not_coprime(self):
        with pytest.raises(DNotCoprimeError):
            check_bernoulli_prop41(5, 2, 3, 5)

    @pytest.mark.parametrize("p,m,alpha,d", [
        (5, 3, 5, 2), (5, 4, 6, 3), (7, 4, 9, 6), (7, 2, 4, 2), (11, 3, 7, 3),
    ])
    def test_grid(self, p, m, alpha, d):
        assert check_bernoulli_prop41(p, m, alpha, d).passed


class TestDPower:
    @pytest.mark.parametrize("p,m,alpha,d", [
        (5, 3, 7, 2), (5, 2, 4, 3), (7, 4, 10, 6), (7, 1, 3, 2), (13, 3, 8, 3),
    ])
    def test_grid(self, p, m, alpha, d):
        assert check_dpower_congruence(p, m, alpha, d).passed

    def test_d_divisible_rejected(self):
        with pytest.raises(DNotCoprimeError):
            check_dpower_congruence(5, 2, 3, 10)


class TestPRegularity:
    def test_constant_functions(self):
        for v in check_p_regular(constant_function(17), 5, 8):
            assert v.ok

    def test_dpower_functions(self):
        for p, d in ((5, 2), (7, 3), (7, 6)):
            assert all(v.ok for v in check_p_regular(dpower_function(d, p), p, 8))

    def test_times_p(self):
        for p in (5, 7):
            assert all(v.ok for v in check_p_regular(times_p_function(p), p, 8))

    def test_products_stay_regular(self):
        p = 5
        f = scale_function(dpower_function(2, p), times_p_function(p))
        assert all(v.ok for v in check_p_regular(f, p, 7))
        g = scale_function(dpower_function(2, p), dpower_function(3, p))
        assert all(v.ok for v in check_p_regular(g, p, 7))

    def test_identity_function_is_not_regular(self):
        # sum_k C(n,k)(-1)^k k = -delta_{n,1}, so n = 1 fails
        verdicts = check_p_regular(lambda k: Fraction(k), 5, 3)
        assert not verdicts[0].ok

    def test_recovery_congruence(self):
        for p, m, alpha in ((5, 2, 6), (7, 3, 9), (5, 4, 5)):
            assert prop21_recovery_holds(dpower_function(2, p), p, m, alpha)
            assert prop21_recovery_holds(times_p_function(p), p, m, alpha)

    def test_inversion_identity_random_f(self, rng):
        for _ in range(25):
            table = [rng.randrange(-30, 30) for _ in range(14)]
            f = lambda k: Fraction(table[k])
            n = rng.randrange(1, 6)
            alpha = rng.randrange(0, 13)
            assert inversion_identity_holds(f, n, alpha)


class TestSun97:
    def test_sun_function_is_p_integral(self):
        for p in (5, 7):
            f = sun_bernoulli_function(p)
            for k in range(0, 9):
                assert padic_valuation(f(k), p) >= 0

    def test_n1_direct(self):
        p = 5
        f = sun_bernoulli_function(p)
        direct = f(0) - f(1)
        assert padic_valuation(direct, p) >= 1
        assert forward_difference_sum(f, 1) == direct

    def test_divisible_case(self):
        reports = {r.params["n"]: r for r in check_sun97(5, 4)}
        assert reports[3].passed  # 0 mod p^3
        assert reports[4].passed  # p^3 mod p^4
        assert reports[4].params["case"] == "p^(n-1)"
        # the p^(n-1) term is really needed: the plain sum is NOT 0 mod p^n
        s = forward_difference_sum(sun_bernoulli_function(5), 4)
        assert padic_valuation(s, 5) == 3

    def test_p7_full_range(self):
        assert all(r.passed for r in check_sun97(7, 8))


class TestCombinatorialIdentities:
    def test_worked_example_terms(self):
        from eiscong.exact import gen_binomial, h_coefficient
        terms = [
            gen_binomial(5 - r, 1) * h_coefficient(3, 5, r) * h_coefficient(2, r, 0)
            for r in range(0, 3)
        ]
        assert terms == [30, 0, -30]
        assert combin_identity_sum(3, 1, 0, 5) == 0

    def test_vanishing_on_box(self):
        for m in range(2, 9):
            for j in range(1, m):
                for s in range(0, m - j):
                    for alpha in range(0, 22):
                        assert combin_identity_sum(m, j, s, alpha) == 0

    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRangeError):
            combin_identity_sum(3, 3, 0, 5)
        with pytest.raises(ParameterOutOfRangeError):
            combin_identity_sum(3, 1, 2, 5)

    def test_telescoping_sample(self, rng):
        for _ in range(150):
            m = rng.randrange(2, 11)
            j = rng.randrange(1, m)
            s = rng.randrange(0, m - j)
            alpha = rng.randrange(0, 31)
            r = rng.randrange(s, m)
            assert check_telescoping(m, j, s, alpha, r)
            assert check_sum_recurrence(m, j, s, alpha)

    def test_telescoping_validation(self):
        with pytest.raises(ParameterOutOfRangeError):
            check_telescoping(3, 1, 0, 5, 3)
        with pytest.raises(ParameterOutOfRangeError, match="need s <= r <= m-1, got r=0"):
            check_telescoping(3, 1, 1, 5, 0)
        with pytest.raises(ParameterOutOfRangeError, match="^alpha must be non-negative$"):
            check_telescoping(3, 1, 0, -1, 0)
        for check in (combin_identity_sum, check_sum_recurrence):
            with pytest.raises(ParameterOutOfRangeError, match="^alpha must be non-negative$"):
                check(3, 1, 0, -1)

    # Every valid sum is 0 and every valid certificate holds, so a verdict
    # alone cannot tell a broken kernel from a correct one: these compare the
    # kernels entry by entry with the uncached oracles in conftest.

    def test_rows_and_columns_match_oracle(self):
        for m, j, s, alpha in IDENTITY_BOX:
            assert congruences._h_row(m, alpha) == tuple(
                h_coefficient(m, alpha, r) for r in range(m))
            assert congruences._identity_row(m, j, alpha) == tuple(
                gen_binomial(alpha - r, j) * h_coefficient(m, alpha, r) for r in range(m))
            assert congruences._identity_column(m, j, s) == tuple(
                h_coefficient(m - j, r, s) for r in range(s, m))
            assert combin_identity_sum(m, j, s, alpha) == identity_sum_by_triple_products(
                m, j, s, alpha)

    def test_block_sums_match_oracle(self):
        blocks = dict.fromkeys((m, j, s) for m, j, s, _ in IDENTITY_BOX)
        alphas = [*range(41), *LARGE_ALPHAS]
        for m, j, s in blocks:
            assert list(congruences._identity_sums(m, j, s, alphas)) == [
                identity_sum_by_triple_products(m, j, s, alpha) for alpha in alphas]

    def test_telescoping_kernel_matches_fraction_oracle(self):
        points = TELESCOPING_BOX + [(m, j, s, alpha) for m in range(2, 6) for j in range(1, m)
                                    for s in range(m - j) for alpha in LARGE_ALPHAS]
        for m, j, s, alpha in points:
            d = m - j - s
            # F(m, .) and F(m+1, .) are the summands of the m and m+1 sums.
            for top in (m, m + 1):
                assert list(map(mul, congruences._identity_row(top, j, alpha)[s:],
                                congruences._identity_column(top, j, s))) == [
                    telescope_f(top, j, s, alpha, r) for r in range(s, top)]
            assert telescope_f(m, j, s, alpha, s - 1) == 0  # the kernel starts G at r = s
            recurrence, sides = congruences._certificate(m, j, s, alpha)
            assert recurrence and len(sides) == m - s
            for r, (left, right) in enumerate(sides, s):
                assert left == d * telescope_lhs(m, j, s, alpha, r)
                assert Fraction(right, d) == (telescope_g(m, j, s, alpha, r)
                                              - telescope_g(m, j, s, alpha, r - 1))
                assert check_telescoping(m, j, s, alpha, r) == telescoping_by_fractions(
                    m, j, s, alpha, r)
            assert check_sum_recurrence(m, j, s, alpha)

    def test_caches_give_the_same_values_in_any_order(self, rng):
        points = TELESCOPING_BOX[::7]
        rng.shuffle(points)
        for fn in (congruences._h_row, congruences._identity_row, congruences._identity_column):
            fn.cache_clear()
        for m, j, s, alpha in points:
            assert combin_identity_sum(m, j, s, alpha) == 0
            recurrence, sides = congruences._certificate(m, j, s, alpha)
            assert recurrence
            for r, (left, right) in enumerate(sides, s):
                assert left == (m - j - s) * telescope_lhs(m, j, s, alpha, r) and left == right


class TestClassicalChecks:
    def test_eq14(self):
        assert check_eq14(7, 4, 10, 30).passed
        with pytest.raises(ParameterOutOfRangeError):
            check_eq14(7, 4, 9, 10)
        with pytest.raises(ParameterOutOfRangeError, match="weights must be even"):
            check_eq14(5, 7, 11, 10)
        with pytest.raises(ParameterOutOfRangeError, match="k' must differ from k"):
            check_eq14(5, 6, 6, 10)

    def test_eq16(self):
        assert check_eq16(5, 2, 6, 30).passed
        assert check_eq16(7, 2, 4, 20).passed
        with pytest.raises(ParameterOutOfRangeError):
            check_eq16(5, 2, 2, 10)
        with pytest.raises(ParameterOutOfRangeError, match="k0 must be even"):
            check_eq16(5, 2, 7, 10)

    def test_kummer(self):
        assert check_kummer(5, 2, 6, 26).passed
        assert check_kummer(7, 1, 4, 10).passed
        assert check_kummer(7, 3, 8, 8 + 294).passed
        with pytest.raises(ParameterOutOfRangeError):
            check_kummer(5, 2, 6, 10)
        with pytest.raises(ParameterOutOfRangeError, match="k' must differ from k"):
            check_kummer(5, 2, 6, 6)

    @pytest.mark.parametrize("k,kprime", [(7, 27), (1, 21), (3, 3)])
    def test_kummer_rejects_odd_weights(self, k, kprime):
        # Both sides are 0 at odd k (B_k = 0 for odd k > 1, and 1 - p^0 = 0
        # at k = 1), so a Pass there would say nothing.
        with pytest.raises(ParameterOutOfRangeError, match="k must be even"):
            check_kummer(5, 2, k, kprime)


class TestConjectureScans:
    def test_eq64_small_grid(self):
        reports = scan_conjecture_bernoulli(5, 6, range(0, 17), 8)
        assert len(reports) == 17
        assert all(r.passed for r in reports)

    def test_eq64_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            scan_conjecture_bernoulli(97, 194, [200], 96 * 3)

    def test_eq64_rejects_bad_kstar(self):
        with pytest.raises(ParameterOutOfRangeError):
            scan_conjecture_bernoulli(5, 6, [7], 10)  # not a multiple of p-1

    @pytest.mark.parametrize("alphas", [[-1], [3, -2, 4]])
    def test_eq64_rejects_negative_alpha(self, alphas):
        with pytest.raises(ParameterOutOfRangeError, match="alpha must be non-negative"):
            scan_conjecture_bernoulli(5, 2, alphas, 4)

    def test_eq61_beyond_theorem_range(self):
        # m = p exceeds the proved range m <= p-1, so this is evidence only
        assert scan_conjecture_ek_series(5, 5, 8, 7, 40).passed

    def test_eq61_p7(self):
        assert scan_conjecture_ek_series(7, 7, 12, 8, 40).passed

    def test_eq61_trivial_alpha(self):
        assert scan_conjecture_ek_series(5, 5, 8, 3, 20).passed

    def test_eq61_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            scan_conjecture_ek_series(5, 5, 8, 5000, 10)


class TestFailureDetail:
    def test_difference_past_the_int_str_limit(self):
        report = _valuation_report("Eq3.1", {}, Fraction(7**6000 + 1, 3), 7, 1)
        assert report.verdict == "Fail"
        numerator, denominator = report.failure_detail["difference"].split("/")
        assert len(numerator) == 5071 and parse_int(numerator) == 7**6000 + 1
        assert denominator == "3"

    def test_integer_difference_has_no_denominator(self):
        report = _valuation_report("Eq3.1", {}, Fraction(-5), 7, 1)
        assert report.failure_detail["difference"] == "-5"


class TestSeriesReport:
    def test_fail_record(self):
        ring = ResidueRing(5, 2)
        lhs = QSeries.residue(ring, [1, 2, 3, 4])
        rhs = QSeries.residue(ring, [1, 2, 24, 4])
        report = _series_report("X", {"p": 5}, lhs, rhs, 3, None)
        assert report.verdict == "Fail" and not report.passed
        assert report.failure_detail == {"first-failing-index": 2, "lhs": "3", "rhs": "24"}
        assert report.certification == "coefficient-evidence"
        # The label depends on the precision and the shared weight, not on the verdict.
        assert _series_report("X", {}, lhs, rhs, 3, 24).certification == "sturm-certified"
        assert _series_report("X", {}, lhs, rhs, 3, 36).certification == "coefficient-evidence"
        assert _series_report("X", {}, lhs, lhs, 3, 36).failure_detail is None

    @pytest.mark.parametrize("p,m,kstar,alpha", [(5, 2, 6, 4), (7, 3, 4, 6), (5, 3, 6, 9)])
    def test_thm_gk_is_sturm_certified_from_the_sturm_index(self, p, m, kstar, alpha):
        bound = sturm_bound(alpha * (p - 1) + kstar)
        for precision, label in [(bound - 1, "coefficient-evidence"),
                                 (bound, "sturm-certified"), (bound + 3, "sturm-certified")]:
            report = check_thm_gk(p, m, kstar, alpha, precision)
            assert report.passed and report.certification == label

    @pytest.mark.parametrize("precision", [1, 5, 40])
    def test_fixed_weight_props_are_never_sturm_certified(self, precision):
        for report in (check_prop_gk_fixed(5, 2, 6, 4, precision),
                       check_prop_ek_fixed(5, 2, 4, precision),
                       check_prop_ek_fixed(7, 3, 1, precision)):
            assert report.passed and report.certification == "coefficient-evidence"


def _gk_kstar(p: int, m: int) -> int:
    return next(k for k in range(m + 1, m + 2 * p) if k % 2 == 0 and k % (p - 1))


def _ek_kstar(p: int, m: int) -> int:
    return (p - 1) * (m // (p - 1) + 1)


# (statement id, check, form, k* for (p, m), E_{p-1} powers, least alpha)
INVERSION_STATEMENTS = [
    ("Thm1.1", lambda p, m, k, a, n: check_thm_gk(p, m, k, a, n),
     eisenstein.g_series, _gk_kstar, True, 0),
    ("Prop3.1", lambda p, m, k, a, n: check_prop_gk_fixed(p, m, k, a, n),
     eisenstein.g_series, _gk_kstar, False, 0),
    ("Thm1.2", lambda p, m, k, a, n: check_thm_ek(p, m, a, n),
     eisenstein.e_series, lambda p, m: 0, True, 1),
    ("Prop4.2", lambda p, m, k, a, n: check_prop_ek_fixed(p, m, a, n),
     eisenstein.e_series, lambda p, m: 0, False, 1),
    ("ConjEq6.1", lambda p, m, k, a, n: scan_conjecture_ek_series(p, m, k, a, n),
     eisenstein.e_series, _ek_kstar, True, 0),
]


def _inversion_alphas(p: int, m: int, least: int) -> list[int]:
    """alpha < m-1, alpha = m-1, just above, and alpha = m-1 mod p^(m-1) past one period."""
    period = p ** (m - 1)
    picks = {*range(m + 2), m - 1 + period, m + period, m - 1 + 2 * period}
    return sorted(a for a in picks if a >= least)


def _with_rings(rings) -> list:
    """(statement, p, m) for each statement and ring; the E_k theorems need m <= p-1."""
    return [pytest.param(s, p, m, id=f"{s[0]}-{p}-{m}") for s in INVERSION_STATEMENTS
            for p, m in rings if s[0] not in ("Thm1.2", "Prop4.2") or m <= p - 1]


def _binomial_alphas(p: int, m: int, least: int) -> list[int]:
    """alpha = m-1, m, m + p^(m-1), m + 2p^(m-1) + 1, and one alpha above p^m."""
    period = p ** (m - 1)
    return sorted(a for a in {m - 1, m, m + period, m + 2 * period + 1, p**m + 2}
                  if a >= least)


class TestFactoredInversionSum:
    """The right side, one combination of a grid block's packed form(r(p-1)+k*) E^i
    (E_{p-1}^(a-r) by the binomial theorem), against the per-term sum with
    unreduced binary powers (`inversion_sum_per_term`)."""

    PRECISION = 12

    @pytest.mark.parametrize("statement", INVERSION_STATEMENTS, ids=lambda s: s[0])
    # Every m <= p-1, as the E_k statements require.
    @pytest.mark.parametrize("p,m", [(5, 1), (5, 2), (5, 3), (7, 2), (7, 3), (5, 4)])
    def test_records_match_the_per_term_sum(self, statement, p, m):
        statement_id, check, form, kstar_for, powers, least = statement
        kstar, ring, n = kstar_for(p, m), ResidueRing(p, m), self.PRECISION
        for alpha in _inversion_alphas(p, m, least):
            weight = alpha * (p - 1) + kstar
            report = check(p, m, kstar, alpha, n)
            expected = _series_report(
                statement_id, report.params, form(weight, ring, n),
                inversion_sum_per_term(form, kstar, ring, n, alpha, powers), n,
                weight if powers else None)
            assert report.passed and report == expected, (p, m, alpha)
            assert report == inversion_report(statement_id, report.params, form, kstar, powers)

    @pytest.mark.parametrize("statement", INVERSION_STATEMENTS, ids=lambda s: s[0])
    @pytest.mark.parametrize("p,m", [(5, 3), (7, 2), (5, 4)])
    def test_forced_fail_has_the_per_term_failure_detail(self, statement, p, m):
        # Skew q^3 of the r = 1 term only: the left side, at alpha >= m, is untouched.
        statement_id, _, form, kstar_for, powers, least = statement
        kstar, ring, n = kstar_for(p, m), ResidueRing(p, m), self.PRECISION

        def skewed(k, ring, precision):
            series = form(k, ring, precision)
            if k != kstar + p - 1:
                return series
            coeffs = list(series.coeffs)
            coeffs[3] = (coeffs[3] + 1) % ring.modulus
            return QSeries(ring, tuple(coeffs), precision)

        params = {"p": p, "m": m, "kstar": kstar, "N": n}
        alphas = [a for a in (*range(m + 3), 27) if a >= least]
        rows = list(inversion_rows(statement_id, params, skewed, kstar, alphas, powers))
        assert [alpha for alpha, _ in rows] == alphas
        for alpha, report in rows:
            weight = alpha * (p - 1) + kstar
            expected = _series_report(
                statement_id, dict(params, alpha=alpha), skewed(weight, ring, n),
                inversion_sum_per_term(skewed, kstar, ring, n, alpha, powers), n,
                weight if powers else None)
            assert expected == inversion_report(statement_id, dict(params, alpha=alpha), skewed,
                                                kstar, powers)
            if alpha < m:
                assert report is None and expected.passed, alpha
            else:
                assert report.verdict == "Fail" and report.failure_detail["first-failing-index"] == 3
                assert report == expected, alpha

    # Every p of the benchmark's grids with m = 1..5.
    @pytest.mark.parametrize("statement,p,m",
                             _with_rings([(p, m) for p in (5, 7, 11, 13) for m in range(1, 6)]))
    def test_binomial_right_side_matches_the_per_term_sum(self, statement, p, m):
        # The terms are random series: for the true forms the E_{p-1} powers'
        # corrections cancel (Props 3.1 and 4.2 hold too), so a wrong power
        # would not show. The left side at each alpha >= m stands in as the
        # oracle's right side, so a Pass says the two right sides agree; skewed
        # at q^(alpha mod N+1), or at q^N, the last index compared, a Fail
        # whose whole report is the oracle's. One block runs every alpha. No
        # form is built at a weight alpha(p-1)+k*, so alpha may pass p^m.
        statement_id, _, _, kstar_for, powers, least = statement
        kstar, ring, n = kstar_for(p, m), ResidueRing(p, m), self.PRECISION
        rng = random.Random(100 * p + m)
        terms = {r * (p - 1) + kstar: QSeries.residue(
            ring, [rng.randrange(ring.modulus) for _ in range(n + 1)]) for r in range(m)}
        alphas = _binomial_alphas(p, m, least)
        sums = {alpha * (p - 1) + kstar: inversion_sum_per_term(
            lambda k, ring, precision: terms[k], kstar, ring, n, alpha, powers)
            for alpha in alphas if alpha >= m}
        params = {"p": p, "m": m, "kstar": kstar, "N": n}
        for skew in (None, "alpha", "last"):
            lhs = {}
            for weight, oracle in sums.items():
                at = {None: None, "alpha": (weight - kstar) // (p - 1) % (n + 1), "last": n}[skew]
                coeffs = list(oracle.coeffs)
                if at is not None:
                    coeffs[at] = (coeffs[at] + 1) % ring.modulus
                lhs[weight] = QSeries(ring, tuple(coeffs), n)

            def stand_in(k, ring, precision, lhs=lhs):
                return lhs[k] if k in lhs else terms[k]

            rows = inversion_rows(statement_id, params, stand_in, kstar, alphas, powers)
            for alpha, report in rows:
                weight, point = alpha * (p - 1) + kstar, dict(params, alpha=alpha)
                expected = inversion_report(statement_id, point, stand_in, kstar, powers)
                if weight in sums:
                    assert expected == _series_report(statement_id, point, lhs[weight],
                                                      sums[weight], n, weight if powers else None)
                assert (report or expected) == expected, (p, m, alpha, skew)
                assert (report is None) == expected.passed == (skew is None or alpha < m), (
                    p, m, alpha, skew)

    @pytest.mark.parametrize("statement,p,m",
                             _with_rings([(5, 1), (5, 2), (7, 3), (5, 4), (13, 4), (7, 5)]))
    def test_a_record_past_its_block_table_makes_no_product(self, statement, p, m,
                                                            monkeypatch):
        _, check, _, kstar_for, _, least = statement
        kstar, calls = kstar_for(p, m), []
        assert check(p, m, kstar, m, self.PRECISION).passed  # builds the block's table
        products, e_powers = QSeries.__mul__, eisenstein.e_power
        monkeypatch.setattr(QSeries, "__mul__", lambda a, b: calls.append("mul") or products(a, b))
        monkeypatch.setattr(eisenstein, "e_power",
                            lambda *args: calls.append("e_power") or e_powers(*args))
        for alpha in range(max(m, least), m + 2 * p):
            assert check(p, m, kstar, alpha, self.PRECISION).passed, alpha
        assert calls == []


class TestGeneratorsReadAtCallTime:
    """The benchmark's tracer counts series generators by rebinding module
    attributes; a check that bound g_series/e_series earlier (a default
    argument, a module-level table) would hide its calls from it."""

    @pytest.mark.parametrize("check,args,calls", [
        # D = E_{p-1} - 1, from eisenstein.e_series; see the test below.
        (check_thm_gk, (5, 2, 6, 3, 10), {("g", 18), ("g", 10), ("g", 6)}),
        (check_prop_gk_fixed, (5, 2, 6, 3, 10), {("g", 18), ("g", 10), ("g", 6)}),
        (check_thm_ek, (5, 2, 3, 10), {("e", 12), ("e", 4), ("e", 0)}),
        (check_prop_ek_fixed, (5, 2, 3, 10), {("e", 12), ("e", 4), ("e", 0)}),
        (scan_conjecture_ek_series, (5, 2, 4, 3, 10), {("e", 16), ("e", 4), ("e", 8)}),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_series_checks_call_the_module_generators(self, monkeypatch, check, args, calls):
        seen = []
        for kind in ("g", "e"):
            original = getattr(congruences, f"{kind}_series")

            def counted(k, ring, precision, kind=kind, original=original):
                seen.append((kind, k))
                return original(k, ring, precision)

            monkeypatch.setattr(congruences, f"{kind}_series", counted)
        assert check(*args).passed
        assert set(seen) == calls
        assert seen[0] == max(calls, key=lambda call: call[1])  # the left side, built first

    def test_e_powers_call_the_module_generator(self, monkeypatch):
        # The block table's powers of D = E_{p-1} - 1 read e_series at weight
        # p - 1, and e_series its divisor sums, at call time.
        seen = []
        originals = {name: getattr(eisenstein, name) for name in ("e_series", "divisor_sums")}

        def counted(name):
            def call(k, *args):
                seen.append((name, k))
                return originals[name](k, *args)
            return call

        for name in originals:
            monkeypatch.setattr(eisenstein, name, counted(name))
        originals["e_series"].cache_clear()
        eisenstein._e_powers.cache_clear()
        congruences._block_table.cache_clear()
        assert check_thm_gk(5, 2, 6, 3, 10).passed
        assert {("e_series", 4), ("divisor_sums", 4)} <= set(seen)


class TestReportSerialization:
    def test_json_fields(self):
        report = check_thm_gk(5, 2, 6, 4, 20)
        data = report.to_json_dict()
        assert set(data) == {
            "statement-id", "params", "verdict", "failure-detail", "certification"
        }
        assert data["statement-id"] == "Thm1.1"
        assert data["verdict"] == "Pass"

    def test_failure_detail_present_on_fail(self):
        # engineer a failing comparison by lying about the statement: compare
        # G_6 against G_8 mod 5 (different residue classes mod p-1)
        from eiscong.eisenstein import g_series
        from eiscong.residue import ResidueRing
        from eiscong.series import series_equal_mod

        ring = ResidueRing(7, 1)
        verdict = series_equal_mod(g_series(4, ring, 10), g_series(8, ring, 10), 10)
        assert not verdict.ok and verdict.first_index is not None
