import copy
import math
import pickle
from fractions import Fraction

import pytest

from eiscong.errors import (
    NotAUnitError,
    NotPIntegralError,
    PrecisionTooLowError,
    RingMismatchError,
)
from eiscong.eisenstein import g_series
from eiscong.exact import bernoulli, h_coefficient
from eiscong.residue import ResidueRing, is_prime
from eiscong.series import QSeries, linear_combination, series_equal_mod

from conftest import A014233, combination_per_column, egcd, reduced, schoolbook_product


class TestResidueRing:
    def test_modulus(self):
        assert ResidueRing(7, 2).modulus == 49

    def test_small_primes_rejected(self):
        for p in (2, 3):
            with pytest.raises(ValueError):
                ResidueRing(p, 1)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            ResidueRing(9, 1)

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            ResidueRing(5, 0)

    @pytest.mark.parametrize("p, m, message", [
        (5, 0, "m must be at least 1"),
        (3, 1, "p must be a prime >= 5, got 3"),
        (9, 2, "p must be a prime >= 5, got 9"),
        (A014233[11], 1, f"p must be a prime >= 5, got {A014233[11]}"),
    ])
    def test_bad_arguments_message(self, p, m, message):
        with pytest.raises(ValueError) as exc:
            ResidueRing(p, m)
        assert str(exc.value) == message

    def test_valuation_of_the_zero_residue_is_m(self):
        ring = ResidueRing(5, 3)
        assert [ring.valuation(x) for x in (0, 125, -250, 50, 7)] == [3, 3, 3, 2, 0]

    def test_rings_of_one_p_m_are_equal_and_hit_the_series_cache(self):
        a, b = ResidueRing(13, 5), ResidueRing(13, 5)
        assert a == b and hash(a) == hash(b) and a != ResidueRing(13, 4)
        first = g_series(10, a, 7)
        hits = g_series.cache_info().hits
        assert g_series(10, b, 7) is first
        assert g_series.cache_info().hits == hits + 1

    def test_a_ring_is_never_duplicated(self):
        # A ring equals and hashes by identity, so no second ring of one (p, m)
        # may exist: a copy, a deep copy (alone or inside a container) and a
        # pickle round trip at every protocol give back the interned ring.
        ring = ResidueRing(13, 5)
        duplicates = [copy.copy, copy.deepcopy, lambda r: copy.deepcopy([r, {r: r}])[1][r]]
        duplicates += [lambda r, n=n: pickle.loads(pickle.dumps(r, protocol=n))
                       for n in range(pickle.HIGHEST_PROTOCOL + 1)]
        for duplicate in duplicates:
            assert duplicate(ring) is ring
        assert pickle.loads(pickle.dumps((ResidueRing(5, 2), ring))) == (ResidueRing(5, 2), ring)

    def test_ring_and_series_are_immutable(self):
        ring = ResidueRing(7, 2)
        series = QSeries.one(ring, 2)
        for obj, name in [(ring, "p"), (ring, "m"), (ring, "modulus"), (ring, "extra"),
                          (series, "ring"), (series, "coeffs"), (series, "precision")]:
            with pytest.raises(AttributeError):
                setattr(obj, name, 3)
            if name != "extra":
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        assert (ring.p, ring.m, ring.modulus, series.coeffs) == (7, 2, 49, (1, 0, 0))


class TestIsPrime:
    # Each has no prime factor up to 41, the trial divisors, so only the
    # Miller-Rabin rounds reject it; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7.
    @pytest.mark.parametrize("n, factors", [
        (2021, (43, 47)),
        (3215031751, (151, 751, 28351)),
        (3825123056546413051, (149491, 747451, 34233211)),
        (318665857834031151167461, (399165290221, 798330580441)),
    ])
    def test_composites_past_the_trial_divisors(self, n, factors):
        assert math.prod(factors) == n and min(factors) > 41
        assert not is_prime(n)

    @pytest.mark.parametrize("i", range(1, 13))
    def test_the_least_strong_pseudoprime_to_the_first_i_bases(self, i):
        assert not is_prime(A014233[i - 1])

    @pytest.mark.parametrize("n", [A014233[12], A014233[12] + 2, 2 ** 89 - 1])
    def test_past_the_proven_range_is_refused(self, n):
        with pytest.raises(ValueError) as exc:
            is_prime(n)
        assert str(exc.value) == f"primality is proven only below {A014233[12]}, got {n}"

    def test_a_mersenne_prime_is_accepted(self):
        assert is_prime(2 ** 61 - 1)

    def test_matches_a_sieve_below_10_5(self):
        limit = 10 ** 5
        sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
        for d in range(2, math.isqrt(limit) + 1):
            if sieve[d]:
                sieve[d * d::d] = bytes(len(range(d * d, limit, d)))
        assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


class TestReduceRational:
    def test_zero(self):
        assert ResidueRing(11, 2).reduce_rational(Fraction(0)) == 0

    def test_inverse_of_240_mod_49(self):
        ring = ResidueRing(7, 2)
        r = ring.reduce_rational(Fraction(1, 240))
        assert 240 * r % 49 == 1
        g, x, _ = egcd(240, 49)
        assert g == 1 and r == x % 49

    def test_not_p_integral(self):
        with pytest.raises(NotPIntegralError):
            ResidueRing(5, 1).reduce_rational(bernoulli(4))

    def test_a_quotient_cancels_its_shared_powers_of_p(self):
        ring = ResidueRing(5, 2)
        assert ring.reduce_quotient(3 * 125, 7 * 25) == ring.reduce_rational(Fraction(15, 7))
        assert ring.reduce_quotient(0, 5) == 0
        with pytest.raises(NotPIntegralError, match="^3/35 has p = 5 in its denominator"):
            ring.reduce_quotient(3 * 25, 7 * 125)
        with pytest.raises(ZeroDivisionError):
            ring.reduce_quotient(1, 0)

    def test_homomorphism(self, rng):
        ring = ResidueRing(7, 3)
        mod = ring.modulus
        for _ in range(80):
            x = Fraction(rng.randrange(-50, 50), rng.choice([1, 2, 3, 4, 5, 6, 9, 11]))
            y = Fraction(rng.randrange(-50, 50), rng.choice([1, 2, 3, 4, 5, 6, 9, 11]))
            rx, ry = ring.reduce_rational(x), ring.reduce_rational(y)
            assert ring.reduce_rational(x * y) == rx * ry % mod
            assert ring.reduce_rational(x + y) == (rx + ry) % mod


class TestInvertUnit:
    def test_identity(self):
        assert ResidueRing(5, 2).invert(1) == 1

    def test_two_mod_25(self):
        assert ResidueRing(5, 2).invert(2) == 13

    def test_not_a_unit(self):
        with pytest.raises(NotAUnitError):
            ResidueRing(5, 2).invert(5)

    def test_random_units_round_trip(self, rng):
        ring = ResidueRing(13, 2)
        for _ in range(60):
            x = rng.randrange(1, ring.modulus)
            if x % 13 == 0:
                continue
            assert x * ring.invert(x) % ring.modulus == 1


def q_series(ring, *coeffs):
    return QSeries.residue(ring, coeffs)


class TestQSeries:
    def test_mul_identity(self):
        ring = ResidueRing(5, 2)
        a = q_series(ring, 3, 1, 4, 1)
        one = QSeries.one(ring, 3)
        assert (a * one).coeffs == a.coeffs

    def test_q_times_q(self):
        ring = ResidueRing(5, 2)
        q = q_series(ring, 0, 1, 0)
        sq = q * q
        assert sq.coeffs == (0, 0, 1)
        assert sq.precision == 2

    def test_precision_propagates_minimum(self):
        ring = ResidueRing(5, 2)
        a = q_series(ring, 1, 2, 3, 4, 5)
        b = q_series(ring, 1, 1)
        assert (a * b).precision == 1
        assert (a + b).precision == 1

    def test_copies_and_pickles_keep_the_interned_ring(self):
        # The frozen __setattr__ must not stop a copy or an unpickle; the copy
        # is an equal series over the same ring object.
        series = g_series(14, ResidueRing(7, 3), 6)
        duplicates = [copy.copy, copy.deepcopy]
        duplicates += [lambda s, n=n: pickle.loads(pickle.dumps(s, protocol=n))
                       for n in range(pickle.HIGHEST_PROTOCOL + 1)]
        for duplicate in duplicates:
            twin = duplicate(series)
            assert twin == series and twin.ring is series.ring

    def test_reading_past_precision_raises(self):
        ring = ResidueRing(5, 2)
        a = q_series(ring, 1, 2)
        with pytest.raises(PrecisionTooLowError):
            a.coefficient(2)

    def test_commutative_associative(self, rng):
        ring = ResidueRing(7, 2)
        for _ in range(25):
            a = q_series(ring, *[rng.randrange(49) for _ in range(6)])
            b = q_series(ring, *[rng.randrange(49) for _ in range(6)])
            c = q_series(ring, *[rng.randrange(49) for _ in range(6)])
            assert (a * b).coeffs == (b * a).coeffs
            assert ((a * b) * c).coeffs == (a * (b * c)).coeffs

    def test_pow_additivity(self, rng):
        ring = ResidueRing(5, 3)
        a = q_series(ring, *[rng.randrange(125) for _ in range(8)])
        for i in range(4):
            for j in range(4):
                assert (a.pow(i) * a.pow(j)).coeffs == a.pow(i + j).coeffs

    def test_pow_edge_cases(self):
        ring = ResidueRing(5, 1)
        a = q_series(ring, 2, 3, 4)
        assert a.pow(0).coeffs == (1, 0, 0)
        assert a.pow(1).coeffs == a.coeffs

    def test_one_plus_pe_to_the_p_power_collapses(self, rng):
        # (1 + pE)^(p^(m-1)) = 1 (mod p^m) for any series E over the ring
        for p, m in ((5, 2), (7, 3)):
            ring = ResidueRing(p, m)
            e = q_series(ring, *[rng.randrange(ring.modulus) for _ in range(8)])
            base = QSeries.one(ring, 7) + e.scale(p)
            assert base.pow(p ** (m - 1)) == QSeries.one(ring, 7)

    def test_ring_mismatch_rejected(self):
        a = q_series(ResidueRing(5, 1), 1, 2)
        b = q_series(ResidueRing(7, 1), 1, 2)
        for mismatched in (lambda: a + b, lambda: a * b, lambda: series_equal_mod(a, b, 1),
                           lambda: linear_combination([1, 1], [a, b])):
            with pytest.raises(RingMismatchError) as exc:
                mismatched()
            assert str(exc.value) == "ResidueRing(p=5, m=1) != ResidueRing(p=7, m=1)"

    @pytest.mark.parametrize("read, message", [
        (lambda s: s.coefficient(-1), "coefficient index must be non-negative"),
        (lambda s: s.pow(-1), "exponent must be non-negative"),
    ], ids=["coefficient", "pow"])
    def test_negative_index_or_exponent_message(self, read, message):
        with pytest.raises(ValueError) as exc:
            read(q_series(ResidueRing(5, 1), 1, 2))
        assert str(exc.value) == message

    @pytest.mark.parametrize("coeffs, precision, message", [
        ((1,), -1, "precision must be non-negative"),
        ((1, 2), 2, "coefficient vector must have length precision+1"),
    ])
    def test_bad_arguments_message(self, coeffs, precision, message):
        with pytest.raises(ValueError) as exc:
            QSeries(ResidueRing(5, 1), coeffs, precision)
        assert str(exc.value) == message


def schoolbook(a, b):
    """Oracle: the schoolbook product of the same integers, reduced into a's ring."""
    return reduced(schoolbook_product(a.coeffs, b.coeffs), a.ring)


class TestExactOracles:
    """Known answers for the exact helpers the product code is checked against."""

    def test_schoolbook_over_rationals(self):
        a = (Fraction(1, 2), Fraction(1, 3))
        b = (Fraction(2), Fraction(5))
        # q coefficient: (1/2)*5 + (1/3)*2 = 19/6
        assert schoolbook_product(a, b) == (Fraction(1), Fraction(19, 6))
        assert schoolbook_product(a, b + (Fraction(7),)) == (Fraction(1), Fraction(19, 6))

    def test_reduced(self):
        series = reduced((Fraction(1, 2), Fraction(3)), ResidueRing(5, 2))
        assert series.coeffs == (13, 3) and series.precision == 1


KRONECKER_PRIMES = (5, 7, 11, 13)
KRONECKER_EXPONENTS = range(1, 9)


class TestKroneckerProduct:
    """Kronecker products against the schoolbook oracle.

    The moduli 5^1 .. 13^8 and precisions up to 300 give slots of 1 to 9
    bytes, so every array item size and the wider byte-string slots are used.
    """

    def test_random_operands(self, rng):
        for p in KRONECKER_PRIMES:
            for m in KRONECKER_EXPONENTS:
                ring = ResidueRing(p, m)
                for precision in (0, rng.randrange(1, 301)):
                    a = q_series(ring, *[rng.randrange(ring.modulus) for _ in range(precision + 1)])
                    b = q_series(ring, *[rng.randrange(ring.modulus) for _ in range(precision + 1)])
                    assert a * b == schoolbook(a, b), (p, m, precision)

    def test_unequal_precisions(self, rng):
        for p, m in ((5, 1), (7, 4), (13, 8)):
            ring = ResidueRing(p, m)
            for pa, pb in ((0, 9), (40, 3), (17, 120)):
                a = q_series(ring, *[rng.randrange(ring.modulus) for _ in range(pa + 1)])
                b = q_series(ring, *[rng.randrange(ring.modulus) for _ in range(pb + 1)])
                product = a * b
                assert product.precision == min(pa, pb)
                assert product == schoolbook(a, b)
                assert b * a == product

    def test_zero_and_sparse(self, rng):
        for p, m in ((5, 2), (11, 5), (13, 8)):
            ring = ResidueRing(p, m)
            precision = 150
            zero = QSeries.residue(ring, [0] * (precision + 1))
            sparse = [0] * (precision + 1)
            for n in rng.sample(range(precision + 1), 5):
                sparse[n] = rng.randrange(1, ring.modulus)
            sparse = QSeries.residue(ring, sparse)
            dense = q_series(ring, *[rng.randrange(ring.modulus) for _ in range(precision + 1)])
            assert zero * dense == zero
            assert zero * zero == zero
            assert sparse * dense == schoolbook(sparse, dense)
            assert sparse * sparse == schoolbook(sparse, sparse)

    def test_all_coefficients_maximal(self):
        # Every coefficient p^m - 1 fills each slot as far as the width allows.
        for p in KRONECKER_PRIMES:
            for m in KRONECKER_EXPONENTS:
                ring = ResidueRing(p, m)
                for precision in (0, 14, 15, 40):
                    top = QSeries.residue(ring, [ring.modulus - 1] * (precision + 1))
                    other = QSeries(ring, top.coeffs, precision)
                    assert top * other == schoolbook(top, top), (p, m, precision)
        ring = ResidueRing(13, 8)
        top = QSeries.residue(ring, [ring.modulus - 1] * 301)
        assert top * top == schoolbook(top, top)

    def test_squaring_path(self, rng):
        for p, m in ((5, 1), (7, 3), (11, 6), (13, 8)):
            ring = ResidueRing(p, m)
            a = q_series(ring, *[rng.randrange(ring.modulus) for _ in range(200)])
            copy = QSeries(ring, a.coeffs, a.precision)
            assert a is not copy
            assert a * a == a * copy == schoolbook(a, a)

    def test_pow_matches_repeated_multiplication(self, rng):
        for p, m in ((5, 4), (7, 8), (13, 8)):
            ring = ResidueRing(p, m)
            a = q_series(ring, *[rng.randrange(ring.modulus) for _ in range(80)])
            repeated = QSeries.one(ring, a.precision)
            for n in range(12):
                assert a.pow(n) == repeated, (p, m, n)
                repeated = repeated * a


# A combination of t terms takes slots of 2 bits(p^m - 1) + bits(t) bits, t = 1..6:
# 5 and 7 reach 1-byte array items, 13 and 5^3 2-byte ones, 13^2 and 13^4
# 4-byte ones, 65521 and 7^11 8-byte ones; 11^9, 7^17 and 19^16 (above 2^64)
# take byte-string slots. At 13, 13^2, 65521, 11^9 and 7^17 a slot without
# the bits(t) overflows at two or three terms of p^m - 1.
COMBINATION_RINGS = [(5, 1), (7, 1), (13, 1), (5, 3), (13, 2), (13, 4), (65521, 1), (7, 11),
                     (11, 9), (7, 17), (19, 16)]


class TestLinearCombination:
    """Packed linear combinations against the per-column sum, `combination_per_column`."""

    @pytest.mark.parametrize("p,m", COMBINATION_RINGS)
    def test_random_terms_and_signed_scalars(self, p, m, rng):
        ring = ResidueRing(p, m)
        mod = ring.modulus
        for t in range(1, 7):
            for precision in (0, 1, 60):
                terms = [q_series(ring, *[rng.randrange(mod) for _ in range(precision + 1)])
                         for _ in range(t)]
                scalars = [rng.randrange(-3 * mod, 3 * mod) for _ in range(t)]
                expected = combination_per_column(scalars, [term.coeffs for term in terms], mod)
                assert linear_combination(scalars, terms) == QSeries(ring, expected, precision), t

    @pytest.mark.parametrize("p,m", COMBINATION_RINGS)
    def test_every_slot_at_its_largest_sum(self, p, m):
        # Coefficients p^m - 1 times scalars -1: each slot holds t (p^m - 1)^2.
        ring = ResidueRing(p, m)
        top = QSeries.residue(ring, [ring.modulus - 1] * 41)
        for t in range(1, 7):
            assert linear_combination([-1] * t, [top] * t) == QSeries.residue(ring, [t] * 41), t

    @pytest.mark.parametrize("m", range(1, 7))
    def test_inversion_rows(self, m, rng):
        # The scalars a theorem grid uses: H(m, alpha, r) over r < m, signed.
        ring = ResidueRing(13, m)
        terms = [q_series(ring, *[rng.randrange(ring.modulus) for _ in range(61)])
                 for _ in range(m)]
        for alpha in range(m, 3 * m + 40, 7):
            h = [h_coefficient(m, alpha, r) for r in range(m)]
            assert m == 1 or min(h) < 0
            expected = combination_per_column(h, [term.coeffs for term in terms], ring.modulus)
            assert linear_combination(h, terms) == QSeries(ring, expected, 60), alpha

    def test_unequal_precisions_give_the_least(self, rng):
        ring = ResidueRing(7, 4)
        terms = [q_series(ring, *[rng.randrange(ring.modulus) for _ in range(n)])
                 for n in (12, 5, 30)]
        combination = linear_combination([3, -2, 5], terms)
        assert combination.precision == 4
        assert combination.coeffs == combination_per_column(
            [3, -2, 5], [term.coeffs for term in terms], ring.modulus)


class TestSeriesEqualMod:
    def test_reflexive(self):
        ring = ResidueRing(5, 2)
        a = q_series(ring, 4, 9, 16)
        assert series_equal_mod(a, a, 2).ok

    def test_first_difference_reported(self):
        ring = ResidueRing(5, 2)
        a = q_series(ring, 1, 3, 7)
        b = q_series(ring, 1, 4, 7)
        verdict = series_equal_mod(a, b, 2)
        assert not verdict.ok
        assert verdict.first_index == 1
        assert (verdict.lhs, verdict.rhs) == (3, 4)

    @pytest.mark.parametrize("index", [0, 2, 6])
    def test_a_mismatch_through_upto_is_its_first(self, index):
        # At q^0, and at q^upto = 6, with a second mismatch past upto.
        ring = ResidueRing(5, 2)
        a = q_series(ring, *range(1, 10))
        coeffs = list(a.coeffs)
        coeffs[index], coeffs[8] = 24, 0
        verdict = series_equal_mod(a, QSeries(ring, tuple(coeffs), 8), 6)
        assert (verdict.ok, verdict.upto, verdict.first_index) == (False, 6, index)
        assert (verdict.lhs, verdict.rhs) == (index + 1, 24)

    def test_a_mismatch_past_upto_is_ignored(self):
        ring = ResidueRing(5, 2)
        a = q_series(ring, *range(1, 10))
        b = QSeries(ring, a.coeffs[:7] + (0, 0), 8)
        verdict = series_equal_mod(a, b, 6)
        assert verdict.ok and (verdict.upto, verdict.first_index, verdict.lhs) == (6, None, None)
        assert not series_equal_mod(a, b, 7).ok

    def test_insufficient_precision_raises(self):
        ring = ResidueRing(5, 2)
        a = q_series(ring, 1, 3)
        with pytest.raises(PrecisionTooLowError):
            series_equal_mod(a, a, 5)


class TestJson:
    def test_residue_round_trip(self):
        ring = ResidueRing(7, 2)
        a = q_series(ring, 5, 11, 48)
        data = a.to_json_dict()
        assert data["p"] == 7 and data["m"] == 2 and data["precision"] == 2
        assert data["coefficients"] == ["5", "11", "48"]
        ring_back = ResidueRing(data["p"], data["m"])
        coeffs_back = [int(c) for c in data["coefficients"]]
        assert QSeries.residue(ring_back, coeffs_back) == a

    def test_golden_serialization(self):
        import json

        from eiscong.eisenstein import delta_series

        series = delta_series(ResidueRing(5, 2), 6)
        golden = (
            '{"p": 5, "m": 2, "precision": 6, "coefficients": '
            '["0", "1", "1", "2", "3", "5", "2"]}'
        )
        assert json.dumps(series.to_json_dict()) == golden
