import inspect
import sys
import threading
from fractions import Fraction

import pytest

from eiscong.congruences import check_thm_gk
from eiscong.errors import NotPIntegralError
from eiscong import eisenstein, exact
from eiscong.exact import (
    bernoulli,
    padic_valuation,
    sigma_power_mod,
    sigma_power_table,
    sigma_power_table_step,
)
from eiscong.eisenstein import (
    DELTA,
    delta_series,
    divisor_sums,
    e_factor,
    e_power,
    e_series,
    g_series,
    generator_power,
    monomial_series,
)
from eiscong.filtration import basis, factor_filtration_bound, sharpness_probe, sturm_bound
from eiscong.residue import ResidueRing
from eiscong.series import QSeries, series_equal_mod

from hypothesis import given, settings, strategies as st

from conftest import (
    e_factor_constant_exact,
    e_factor_exact,
    e_normalizer_exact,
    e_series_exact,
    g_constant_exact,
    g_series_exact,
    primes_to,
    reduced,
)


class TestGSeries:
    def test_g4_mod_7(self):
        # 1/240 + q + 9 q^2, reduced
        ring = ResidueRing(7, 1)
        g = g_series(4, ring, 2)
        assert g.coeffs == (ring.reduce_rational(Fraction(1, 240)), 1, 9 % 7)

    @pytest.mark.parametrize("p,m,k", [(5, 1, 4), (7, 2, 12), (5, 3, 20), (13, 1, 24),
                                       (37, 2, 36)])
    def test_rejects_weight_divisible_by_p_minus_one(self, p, m, k):
        with pytest.raises(NotPIntegralError,
                           match=f"^G_{k} is not {p}-integral: {p - 1} divides {k}$"):
            g_series(k, ResidueRing(p, m), 5)

    def test_large_weight_constant_term(self):
        ring = ResidueRing(7, 8)
        g = g_series(2026, ring, 3)
        expected = ring.reduce_rational(Fraction(-1, 2) * bernoulli(2026) / 2026)
        assert g.coeffs[0] == expected

    def test_matches_exact_expansion(self):
        ring = ResidueRing(11, 2)
        for k in (4, 6, 8, 14):
            if k % 10 == 0:
                continue
            for precision in (0, 1, 12):
                assert g_series(k, ring, precision) == reduced(
                    g_series_exact(k, precision), ring)

    def test_weight_two_constructible(self):
        g = g_series(2, ResidueRing(5, 1), 4)
        assert g.coeffs[1] == 1 and g.coeffs[2] == 3

    def test_g_equals_constant_times_e(self):
        # G_k = reduce(-B_k/2k) * E_k whenever both sides are defined
        for p, m in ((5, 1), (7, 2), (13, 2)):
            ring = ResidueRing(p, m)
            for k in (4, 6, 8, 10, 14):
                if k % (p - 1) == 0:
                    continue
                lhs = g_series(k, ring, 10)
                rhs = e_series(k, ring, 10).scale(
                    ring.reduce_rational(Fraction(-1, 2) * bernoulli(k) / k)
                )
                assert series_equal_mod(lhs, rhs, 10).ok


class TestESeries:
    def test_weight_zero_is_one(self):
        ring = ResidueRing(5, 2)
        assert e_series(0, ring, 4) == QSeries.one(ring, 4)

    def test_e_p_minus_one_is_one_mod_p(self):
        for p in (5, 7, 11):
            ring = ResidueRing(p, 1)
            assert e_series(p - 1, ring, 25) == QSeries.one(ring, 25)

    def test_e_congruent_one_mod_pm(self):
        # E_k = 1 (mod p^m) when p^(m-1)(p-1) divides k
        for p, m in ((5, 2), (7, 2), (5, 3)):
            ring = ResidueRing(p, m)
            k = p ** (m - 1) * (p - 1)
            assert e_series(k, ring, 20) == QSeries.one(ring, 20)

    def test_classical_expansions(self):
        ring = ResidueRing(13, 2)
        mod = ring.modulus
        e4 = e_series(4, ring, 3)
        assert e4.coeffs == (1, 240 % mod, 240 * 9 % mod, 240 * 28 % mod)
        e6 = e_series(6, ring, 2)
        assert e6.coeffs == (1, (-504) % mod, (-504 * 33) % mod)


def constants_or_error(k: int, ring: ResidueRing) -> tuple:
    """G_k's constant term and E_k's multiplier (its q coefficient, sigma_{k-1}(1) = 1),
    each NotPIntegralError where the generator raises it, from the generators."""
    out = []
    for build, index in ((g_series, 0), (e_series, 1)):
        try:
            out.append(build(k, ring, 1).coeffs[index])
        except NotPIntegralError:
            out.append(NotPIntegralError)
    return tuple(out)


def constants_by_fractions(k: int, ring: ResidueRing) -> tuple:
    """`constants_or_error` from the exact rationals: NotPIntegralError where p divides
    a denominator, and for G_k wherever (p-1) | k."""
    p = ring.p
    g, c = g_constant_exact(k), e_normalizer_exact(k)
    return (NotPIntegralError if k % (p - 1) == 0 else ring.reduce_rational(g),
            NotPIntegralError if c.denominator % p == 0 else ring.reduce_rational(c))


class TestConstantTerms:
    """G_k's -B_k/2k, E_k's -2k/B_k and E's c/p, reduced as one quotient of integers,
    against the same constants formed over the exact rationals."""

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 37])
    def test_every_even_weight_to_700(self, p):
        # The weights include p k' and p^2 k' for p <= 13, and p^3 k' for p <= 7.
        ks = range(2, 701, 2)
        assert p > 13 or any(k % p**2 == 0 for k in ks)
        for m in range(1, 7):
            ring = ResidueRing(p, m)
            for k in ks:
                assert constants_or_error(k, ring) == constants_by_fractions(k, ring), (p, m, k)
            assert e_factor(ring, 1).coeffs[1] == ring.reduce_rational(e_factor_constant_exact(p))

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from(primes_to(400)[2:]), m=st.integers(1, 8),
           k=st.integers(1, 350).map(lambda n: 2 * n))
    def test_any_prime_and_weight(self, p, m, k):
        ring = ResidueRing(p, m)
        assert constants_or_error(k, ring) == constants_by_fractions(k, ring)
        assert e_factor(ring, 1).coeffs[1] == ring.reduce_rational(e_factor_constant_exact(p))

    @pytest.mark.parametrize("p,k", [(37, 32), (59, 44)])
    def test_an_irregular_pair_has_no_e_k(self, p, k):
        # p divides the numerator of B_k: -2k/B_k has p in its denominator at every m.
        assert g_constant_exact(k).numerator % p == 0
        for m in range(1, 7):
            with pytest.raises(NotPIntegralError, match=f"^E_{k} is not {p}-integral$"):
                e_series(k, ResidueRing(p, m), 3)

    def test_g32_mod_37_squared_has_a_constant_divisible_by_37(self):
        assert g_series(32, ResidueRing(37, 2), 2).coeffs == (666, 1, 1 + 2**31 % 37**2)
        assert 666 == 18 * 37


class TestDelta:
    def test_first_coefficients(self):
        ring = ResidueRing(7, 3)
        mod = ring.modulus
        d = delta_series(ring, 4)
        assert d.coeffs[0] == 0
        assert d.coeffs[1] == 1
        assert d.coeffs[2] == -24 % mod
        assert d.coeffs[3] == 252 % mod

    def test_discriminant_relation(self):
        ring = ResidueRing(5, 3)
        lhs = monomial_series(3, 0, 0, ring, 8) - monomial_series(0, 2, 0, ring, 8)
        rhs = delta_series(ring, 8).scale(1728)
        assert series_equal_mod(lhs, rhs, 8).ok

    def test_matches_eta_product_oracle(self):
        # independent route: Delta = q * prod_{n>=1} (1-q^n)^24 over exact ints
        n_max = 14
        poly = [0] * (n_max + 1)
        poly[0] = 1
        for n in range(1, n_max + 1):
            for _ in range(24):
                step = poly[:]
                for i in range(n_max + 1 - n):
                    step[i + n] -= poly[i]
                poly = step
        tau = [0] + poly[:n_max]
        for p, m in ((5, 2), (7, 3), (11, 1)):
            ring = ResidueRing(p, m)
            d = delta_series(ring, n_max)
            assert [t % ring.modulus for t in tau] == list(d.coeffs[: n_max + 1])


class TestEFactor:
    def test_defining_relation(self):
        for p, m in ((5, 2), (7, 3), (11, 2)):
            ring = ResidueRing(p, m)
            ef = e_factor(ring, 12)
            assert ef.coeffs[0] == 0
            reconstructed = QSeries.one(ring, 12) + ef.scale(p)
            assert series_equal_mod(reconstructed, e_series(p - 1, ring, 12), 12).ok

    def test_q_coefficient_p5(self):
        # (-2*4/B_4) * sigma_3(1) / 5 = 240/5 = 48
        ring = ResidueRing(5, 3)
        assert e_factor(ring, 1).coeffs[1] == 48

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
    def test_matches_exact_oracle(self, p):
        # 1 + pE = E_{p-1} fixes E only mod p^(m-1); the oracle checks it mod p^m.
        for precision in (0, 1, 30):
            exact = e_factor_exact(p, precision)
            for m in range(1, 9):
                ring = ResidueRing(p, m)
                assert e_factor(ring, precision) == reduced(exact, ring), (p, m, precision)


class TestDivisorSums:
    """The table keyed on the exponent's period mod p^m against the table of
    the unreduced exponent, `sigma_power_table`, and per-n sums, `sigma_power_mod`."""

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_the_unreduced_exponent(self, p, m):
        ring, period = ResidueRing(p, m), p ** (m - 1) * (p - 1)
        # 3p + 1 reaches the multiples p, 2p and 3p, which vanish only at exponents >= m.
        precision = 3 * p + 1
        below = range(max(0, m - 3), m + 3)
        across = [m + j * period + d for j in range(4) for d in (-1, 1, 2, p - 1)]
        for exponent in sorted({*below, *across}):
            sums = divisor_sums(exponent + 1, ring, precision)
            assert list(sums) == sigma_power_table(exponent, precision, ring.modulus), exponent
            assert sums[1:] == tuple(sigma_power_mod(exponent, n, ring.modulus)
                                     for n in range(1, precision + 1)), exponent

    @pytest.mark.parametrize("p,m", [(5, 1), (5, 3), (13, 2)])
    def test_one_sieve_per_exponent_class(self, p, m):
        ring, period = ResidueRing(p, m), p ** (m - 1) * (p - 1)
        k = m + 3
        assert divisor_sums(k, ring, 20) is divisor_sums(k + 2 * period, ring, 20)
        assert divisor_sums(k, ring, 20) is not divisor_sums(k + 1, ring, 20)


def empty_sigma_tables() -> None:
    """Empty the divisor-sum tables and the slot of the table built last."""
    eisenstein._sigma_table.cache_clear()
    eisenstein._LAST_TABLE = ((), ())


class TestSteppedSigmaTables:
    """A table one step of p-1 above the table built last, built by one multiply per
    prime (`sigma_power_table_step`), against `sigma_power_table` of the unreduced exponent."""

    @pytest.fixture
    def stepped(self, monkeypatch) -> list:
        """Empty tables, and the steps taken from here on, one entry each."""
        steps, step = [], eisenstein.sigma_power_table_step
        monkeypatch.setattr(eisenstein, "sigma_power_table_step",
                            lambda *args: steps.append(1) or step(*args))
        monkeypatch.setattr(eisenstein, "_LAST_TABLE", ((), ()))
        eisenstein._sigma_table.cache_clear()
        return steps

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_every_stepped_table_matches_the_modular_powers(self, stepped, p, m):
        # Every exponent from 0 on, and every one across the key's wrap from
        # m + p^(m-1)(p-1) back to m + 1, each walk from empty tables.
        ring, period = ResidueRing(p, m), p ** (m - 1) * (p - 1)
        for precision in (1, 7, 80):
            for walk in (range(3 * p), range(max(0, m + period - 3 * p), m + period + 3 * p)):
                empty_sigma_tables()
                for exponent in walk:
                    assert list(divisor_sums(exponent + 1, ring, precision)) == sigma_power_table(
                        exponent, precision, ring.modulus), (precision, exponent)
        # A walk in steps of 1 never asks for the key one step of p-1 above the
        # table it built last, so nothing steps (at m = 1 a step of p - 1 is
        # the key's period, back to the key itself).
        assert stepped == []

    @pytest.mark.parametrize("p,m", [(5, 2), (5, 3), (7, 2), (7, 3), (11, 2), (13, 2)])
    def test_a_grid_blocks_walk_steps_from_the_table_built_last(self, stepped, p, m):
        # A grid block asks for k = k* + alpha(p-1) at an even k: one odd
        # residue class of exponents k-1 mod p-1, ascending by p-1. Each class
        # walks from empty tables, from three steps below the top of the
        # period m + period through the wrap, where its keys fall back to
        # [m, m + 2(p-1)). Every table after the class's first steps from the
        # one before, except at the two keys that the rule builds fresh: m,
        # which has no key below it past the wrap, and m + (p-1), whose key
        # below is taken to be the top of the period, not m.
        ring, period = ResidueRing(p, m), p ** (m - 1) * (p - 1)
        top, fresh = m + period, {m, m + p - 1}
        for residue in range(1, p - 1, 2):
            empty_sigma_tables()
            start = top - 3 * (p - 1) + (residue - top) % (p - 1)
            for i, exponent in enumerate(range(start, top + 2 * (p - 1), p - 1)):
                key, steps = m + (exponent - m) % period, len(stepped)
                assert list(divisor_sums(exponent + 1, ring, 40)) == sigma_power_table(
                    exponent, 40, ring.modulus), (residue, exponent)
                assert len(stepped) - steps == (i > 0 and key not in fresh), (residue, exponent)

    def test_a_key_one_step_above_another_precision_or_ring_is_built_fresh(self, stepped):
        # The slot holds the ring and precision of its table: the key one step
        # of p-1 above it at another precision, or in another ring of the same
        # p, is built fresh. Key 10 lies one step below key 16 at p = 7 for
        # m = 2 and m = 3 alike.
        for (ring, precision), (other, other_precision) in [
                ((ResidueRing(7, 3), 30), (ResidueRing(7, 3), 45)),
                ((ResidueRing(7, 3), 45), (ResidueRing(7, 3), 30)),
                ((ResidueRing(7, 2), 30), (ResidueRing(7, 3), 30)),
                ((ResidueRing(7, 3), 30), (ResidueRing(7, 2), 30))]:
            empty_sigma_tables()
            divisor_sums(6 + 1, other, other_precision)  # the step, cached
            divisor_sums(10 + 1, ring, precision)
            assert list(divisor_sums(16 + 1, other, other_precision)) == sigma_power_table(
                16, other_precision, other.modulus), (ring, precision, other, other_precision)
            assert stepped == [], (ring, precision, other, other_precision)

    def test_concurrent_walks_step_only_from_their_own_tables(self, stepped):
        # Threads climb grid classes in rings and at precisions of their own,
        # switching often, through 64 shared entries that they keep evicting.
        # The slot is one (key, table) tuple, read once and rebound whole, so
        # a thread steps from a key with its own table or builds fresh, and
        # no table is wrong.
        cases = [(ResidueRing(p, m), precision)
                 for p, m in [(5, 3), (7, 2), (7, 3), (11, 2)] for precision in (20, 33)]
        wrong = []

        def walk(ring, precision):
            p, m = ring.p, ring.m
            for start in [*range(1, p - 1, 2)] * 3:
                for exponent in range(start, 2 * p ** (m - 1) * (p - 1), p - 1):
                    if list(divisor_sums(exponent + 1, ring, precision)) != sigma_power_table(
                            exponent, precision, ring.modulus):
                        wrong.append((ring, precision, exponent))

        threads = [threading.Thread(target=walk, args=case) for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [] and stepped, wrong[:5]

    @pytest.mark.parametrize("p,m", [(5, 2), (7, 3), (13, 4)])
    def test_the_key_past_the_wrap_steps_from_the_top_of_the_period(self, stepped, p, m):
        # Key m + 1 lies one step of p - 1 above key m + 2 - p + p^(m-1)(p-1).
        ring, period = ResidueRing(p, m), p ** (m - 1) * (p - 1)
        divisor_sums(p - 1 + 1, ring, 30)
        divisor_sums(m + 2 - p + period + 1, ring, 30)
        assert stepped == []
        sums = divisor_sums(m + 1 + period + 1, ring, 30)
        assert stepped == [1]
        assert list(sums) == sigma_power_table(m + 1 + period, 30, ring.modulus)

    def test_a_step_is_the_sum_of_the_exponents(self):
        modulus = 13**4
        for e, d in [(0, 1), (5, 12), (1000, 12), (12, 1000), (3, 0)]:
            below, step = (sigma_power_table(x, 80, modulus) for x in (e, d))
            assert sigma_power_table_step(below, step, modulus) == sigma_power_table(
                e + d, 80, modulus)


class TestEPower:
    """E_{p-1}^n from its binomial series in D = E_{p-1} - 1 against binary powering."""

    def test_matches_binary_powering_in_any_request_order(self, rng):
        # Two rings that share p and two precisions: a cache key that dropped
        # m or the precision would hand one of them another's power.
        cases = [(ResidueRing(5, m), precision) for m in (2, 3) for precision in (12, 25)]
        expected = {case: [e_series(4, *case).pow(n) for n in range(65)] for case in cases}
        shuffled = list(range(65))
        rng.shuffle(shuffled)
        for order in (range(65), range(64, -1, -1), shuffled):
            eisenstein._e_powers.cache_clear()
            for n in order:
                for ring, precision in cases:
                    assert e_power(ring, precision, n) == expected[ring, precision][n], (
                        ring, precision, n)

    def test_powers_at_m_1_read_no_bernoulli_number(self, monkeypatch):
        # Every power of E_{p-1} = 1 + D is 1 mod p: the table is (1,), and D,
        # which reads B_{p-1}, is not built.
        monkeypatch.setattr(exact, "_BERNOULLI_MEMO",
                            {k: exact._BERNOULLI_MEMO[k] for k in (0, 1, 2)})
        eisenstein._e_powers.cache_clear()
        ring = ResidueRing(7, 1)
        assert eisenstein._e_powers(ring, 10) == (QSeries.one(ring, 10),)
        assert exact.bernoulli_cached_indices() == [0, 1, 2]
        eisenstein._e_powers.cache_clear()

    @pytest.mark.parametrize("p,m", [(5, 4), (7, 3), (13, 3), (13, 4)])
    def test_inverse_powers_near_p_to_the_m_minus_one(self, p, m):
        # The filtration pass asks for E_{p-1}^(-n), which is E_{p-1}^(p^(m-1) - n).
        ring, order = ResidueRing(p, m), p ** (m - 1)
        eisenstein._e_powers.cache_clear()
        for precision in (9, 30):
            e = e_series(p - 1, ring, precision)
            for n in range(order - 6, order + 2):
                assert e_power(ring, precision, n) == e.pow(n), (p, m, precision, n)
            assert e_power(ring, precision, order) == QSeries.one(ring, precision)

    @pytest.mark.parametrize("p,m,kstar,k", [(5, 3, 6, 74), (7, 3, 4, 124), (13, 2, 4, 182)])
    def test_filtration_reports_do_not_depend_on_the_table(self, p, m, kstar, k):
        ring, upto = ResidueRing(p, m), sturm_bound(k)
        f = g_series(k, ring, upto)

        def reports():
            return (factor_filtration_bound(f, k),
                    [sharpness_probe(f, k, w) for w in range(k % (p - 1), k + 1, p - 1)])

        generator_power.cache_clear()
        eisenstein._e_powers.cache_clear()
        cold = reports()
        # Fill the table at a lower precision too: a key without the precision
        # would then hand the pass a power too short for it.
        for precision in (upto // 2, upto):
            for alpha in range(p ** (m - 1) + 2):
                assert check_thm_gk(p, m, kstar, alpha, precision).passed
        assert reports() == cold


    @pytest.mark.parametrize("p,m", [(5, 1), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2)])
    def test_exponents_past_p_to_the_m_minus_one(self, p, m):
        ring, order = ResidueRing(p, m), p ** (m - 1)
        e = e_series(p - 1, ring, 10)
        for n in sorted({order, order + 1, 2 * order - 1, 2 * order + 3, 3 * order + 2}):
            assert e_power(ring, 10, n) == e.pow(n), (p, m, n)
        assert e_power(ring, 10, -1) == e.pow(order - 1)

    @pytest.mark.parametrize("p,m", [(5, 1), (5, 3), (7, 2), (13, 5)])
    def test_no_power_is_built_by_a_generator_power_chain(self, monkeypatch, p, m):
        # E_{p-1}^n is one combination of 1, D, ..., D^(m-1): m - 2 products
        # once per ring and precision, none from the generator table, whatever
        # n is. At m = 1 every power is 1, and D is not built at all.
        ring, order = ResidueRing(p, m), p ** (m - 1)
        exponents = (1, order - 1, order, 5 * order + 2, 1000, -1, -order - 3)
        e = e_series(p - 1, ring, 10)
        expected = [e.pow(n % order) for n in exponents]
        requested, built, products = [], [], []
        generate, series, multiply = eisenstein.generator_power, eisenstein.e_series, QSeries.__mul__

        def spy_generate(form, ring, precision, n):
            requested.append((form, n))
            return generate(form, ring, precision, n)

        def spy_series(k, ring, precision):
            if k == p - 1:
                built.append(precision)
            return series(k, ring, precision)

        def spy_multiply(a, b):
            products.append(1)
            return multiply(a, b)

        monkeypatch.setattr(eisenstein, "generator_power", spy_generate)
        monkeypatch.setattr(eisenstein, "e_series", spy_series)
        monkeypatch.setattr(QSeries, "__mul__", spy_multiply)
        eisenstein._e_powers.cache_clear()
        assert [e_power(ring, 10, n) for n in exponents] == expected
        assert requested == [] and len(products) == max(m - 2, 0)
        assert built == ([] if m == 1 else [10])
        # E_{p-1}^(p^(m-1)) = 1 mod p^m.
        assert e_power(ring, 10, -1) == e_power(ring, 10, 3 * order - 1)

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_d_vanishes_mod_p(self, p):
        # The series in D = E_{p-1} - 1 stops after m terms only because D is
        # 0 mod p, so D^m is 0 mod p^m: every coefficient of -2(p-1)/B_{p-1}
        # sigma_{p-2}(n) has p-valuation at least 1 (von Staudt-Clausen).
        exact_d = e_series_exact(p - 1, 40)[1:]
        assert all(padic_valuation(c, p) >= 1 for c in exact_d if c), p
        for m in range(1, 5):
            ring = ResidueRing(p, m)
            d = e_series(p - 1, ring, 40) - QSeries.one(ring, 40)
            assert all(c % p == 0 for c in d.coeffs), (p, m)
            powers = eisenstein._e_powers(ring, 40)
            assert len(powers) == m and (m == 1 or powers[1] == d), (p, m)
            assert not any((powers[-1] * d).coeffs), (p, m)  # D^m = 0 mod p^m

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_unreduced_exponents_match_both_chains(self, p):
        # n as asked, never n mod p^(m-1): the generator table's halving chain
        # and binary powering of E_{p-1} are the oracles.
        for m in range(1, 6):
            ring, order = ResidueRing(p, m), p ** (m - 1)
            exponents = sorted({*range(30), order, p * order, p * order + 1, 3 * order + 2, 1000})
            for precision in (0, 1, 20):
                e = e_series(p - 1, ring, precision)
                for n in exponents:
                    power = e_power(ring, precision, n)
                    assert power == generator_power(p - 1, ring, precision, n), (m, precision, n)
                    assert power == e.pow(n), (m, precision, n)


class TestGeneratorPower:
    """Every power in the one table against binary powering, `QSeries.pow`."""

    def test_matches_binary_powering_in_any_request_order(self, rng):
        # Two rings that share p and two precisions, as for E_{p-1} above. At
        # p = 11, E_{p-1} = E_10 is a fourth generator next to E_4, E_6 and Delta.
        cases = [(ResidueRing(11, m), precision) for m in (1, 3) for precision in (9, 21)]
        forms = (4, 6, DELTA, "e_power")

        def request(form, ring, precision, n):
            if form == "e_power":
                return e_power(ring, precision, n)
            return generator_power(form, ring, precision, n)

        def base(form, ring, precision):
            if form == DELTA:
                return delta_series(ring, precision)
            return e_series(ring.p - 1 if form == "e_power" else form, ring, precision)

        exponents = list(range(41))
        expected = {(form, *case): [base(form, *case).pow(n) for n in exponents]
                    for form in forms for case in cases}
        shuffled = [(form, case, n) for form in forms for case in cases for n in exponents]
        rng.shuffle(shuffled)
        ascending = [(form, case, n) for n in exponents for form in forms for case in cases]
        for order in (ascending, ascending[::-1], shuffled):
            generator_power.cache_clear()
            eisenstein._e_powers.cache_clear()
            for form, case, n in order:
                assert request(form, *case, n) == expected[form, *case][n], (form, case, n)

    def test_weight_3000_basis_builds_with_shallow_recursion(self):
        # The halving recursion is bits(n) deep; stepping each power from the
        # one before would nest once per exponent (E_4^750 at weight 3000).
        ring, precision = ResidueRing(5, 2), 16
        generator_power.cache_clear()
        monomial_series.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            bm = basis(3000, ring, precision)
        finally:
            sys.setrecursionlimit(limit)
        e4, e6 = e_series(4, ring, precision), e_series(6, ring, precision)
        delta = (e4.pow(3) - e6.pow(2)).scale(ring.invert(1728))
        assert len(bm.monomials) == 251 and bm.monomials[0] == (750, 0, 0)
        assert bm.columns == tuple(e4.pow(a) * e6.pow(b) * delta.pow(c) for a, b, c in bm.monomials)


class TestMonomials:
    def test_empty_monomial_is_one(self):
        ring = ResidueRing(5, 2)
        assert monomial_series(0, 0, 0, ring, 5) == QSeries.one(ring, 5)

    def test_e4_power_13_leading_terms(self):
        ring = ResidueRing(7, 8)
        mono = monomial_series(13, 0, 0, ring, 2)
        expected = e_series(4, ring, 2).pow(13)
        assert mono == expected
        assert mono.coeffs[0] == 1
        assert mono.coeffs[1] == 13 * 240 % ring.modulus

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            monomial_series(-1, 0, 0, ResidueRing(5, 1), 3)


class TestClassicalCongruences:
    def test_g_mod_p_depends_only_on_weight_class(self):
        # G_k = G_k' (mod p) for k = k' != 0 (mod p-1)
        for p in (5, 7):
            ring = ResidueRing(p, 1)
            for k in (6, 8, 10):
                if k % (p - 1) == 0:
                    continue
                for t in (1, 2, 3):
                    kp = k + t * (p - 1)
                    assert series_equal_mod(
                        g_series(k, ring, 25), g_series(kp, ring, 25), 25
                    ).ok

    def test_g_stable_under_weight_shift_mod_pm(self):
        # G_{k0} = G_{p^(m-1)(p-1)+k0} (mod p^m) for k0 > m
        for p, m, k0 in ((5, 2, 6), (7, 2, 4), (5, 3, 6)):
            ring = ResidueRing(p, m)
            k = p ** (m - 1) * (p - 1) + k0
            assert series_equal_mod(
                g_series(k0, ring, 20), g_series(k, ring, 20), 20
            ).ok

    def test_euler_power_congruence(self):
        # d^(k-1) = d^(k'-1) (mod p^m) when k = k' (mod p^(m-1)(p-1)), p does not divide d
        for p, m in ((5, 2), (7, 3)):
            step = p ** (m - 1) * (p - 1)
            mod = p**m
            for d in (2, 3, 6, 12):
                for k in (4, 9, 20):
                    assert pow(d, k - 1, mod) == pow(d, k + step - 1, mod)

    def test_exact_e_series_matches_reduction(self):
        ring = ResidueRing(7, 2)
        for k in (0, 4, 6, 12):
            for precision in (0, 1, 8):
                assert reduced(e_series_exact(k, precision), ring) == e_series(k, ring, precision)
