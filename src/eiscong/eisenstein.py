"""Generators for level-one q-expansions: G_k, E_k, Delta, and E_4^a E_6^b Delta^c.

Normalizations: E_k has constant term 1 and higher coefficients
-(2k/B_k) * sigma_{k-1}(n); G_k = -(B_k/2k) * E_k has constant term -B_k/2k
and higher coefficients sigma_{k-1}(n). E_0 is the constant series 1.

Each generator takes its divisor sums sigma_{k-1}(1..N) from one cached
table (`divisor_sums`), built by multiplicativity in
`exact.sigma_power_table`: a modular power per prime up to N, then one
multiply per n; a table one step of p-1 above a cached one takes a multiply
per prime in place of the power (`exact.sigma_power_table_step`). It scales
them by one constant, reduced from B_k's numerator and denominator as one
quotient (`ResidueRing.reduce_quotient`). The table is read
at its exponent's period modulo p^m: d^(k-1) mod p^m repeats with period
p^(m-1)(p-1) in k-1 for a unit d, and is 0 for d divisible by p once
k-1 >= m, so every k-1 > m shares the table of m + ((k-1-m) mod p^(m-1)(p-1)).

`e_power` reads every power of E_{p-1}, of any integer exponent, off one
cached table 1, D, ..., D^(m-1) of D = E_{p-1} - 1: D is 0 mod p, so D^m is
0 mod p^m and E_{p-1}^n is its binomial series in D cut after m terms. The
theorem grids read that table directly.
`generator_power` is the one table of powers of E_4, E_6 and Delta:
monomials and Delta are products of its entries.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import mul

from .errors import NotPIntegralError
from .exact import bernoulli, gen_binomial, sigma_power_table, sigma_power_table_step
from .residue import ResidueRing
from .series import QSeries, linear_combination

__all__ = [
    "DELTA",
    "delta_series",
    "divisor_sums",
    "e_factor",
    "e_power",
    "e_series",
    "g_series",
    "generator_power",
    "monomial_series",
]


def _check_even_weight(k: int, minimum: int) -> None:
    if k % 2 == 1 or k < minimum:
        raise ValueError(f"weight must be an even integer >= {minimum}, got {k}")


def divisor_sums(k: int, ring: ResidueRing, precision: int) -> tuple[int, ...]:
    """sigma_{k-1}(n) modulo p^m for n = 0 .. precision (entry 0 is 0), from a cached table.

    For k-1 > m the table is keyed on m + ((k-1-m) mod p^(m-1)(p-1)), which
    has the same residue d^(k-1) mod p^m for every d: a unit repeats with
    that period, and a multiple of p vanishes at any exponent >= m.
    """
    p, m = ring.p, ring.m
    exponent = k - 1
    if exponent > m:
        exponent = m + (exponent - m) % (p ** (m - 1) * (p - 1))
    return _sigma_table(exponent, ring, precision)


# The tables of `_sigma_table` by (exponent, ring, precision), least recently
# used first. A grid block's alphas come back to a table one period of alpha,
# p^(m-1), later; 64 entries hold that reuse for every period up to 64.
_SIGMA_TABLES: dict[tuple, tuple[int, ...]] = {}


def _sigma_table(exponent: int, ring: ResidueRing, precision: int) -> tuple[int, ...]:
    """The table of an exponent's key, cached; a miss is built from the cached table
    one step of p-1 below, when there is one, and the table of p-1.

    Below the key e > m lies the key e-(p-1), or e-(p-1) + p^(m-1)(p-1) where
    that is <= m: both are exact, as a unit repeats with that period and a
    multiple of p is 0 at every exponent >= m on either side.
    """
    key = (exponent, ring, precision)
    table = _SIGMA_TABLES.pop(key, None)
    if table is None:
        p, m = ring.p, ring.m
        below = exponent - (p - 1)
        if below <= m < exponent:
            below += p ** (m - 1) * (p - 1)
        step = _SIGMA_TABLES.get((below, ring, precision))
        if step is None or exponent == p - 1:
            table = tuple(sigma_power_table(exponent, precision, ring.modulus))
        else:
            table = tuple(sigma_power_table_step(
                step, _sigma_table(p - 1, ring, precision), ring.modulus))
        if len(_SIGMA_TABLES) >= 64:
            _SIGMA_TABLES.pop(next(iter(_SIGMA_TABLES)), None)
    _SIGMA_TABLES[key] = table
    return table


@lru_cache(maxsize=512)
def g_series(k: int, ring: ResidueRing, precision: int) -> QSeries:
    """G_k modulo p^m through q^precision.

    Requires (p-1) to not divide k: otherwise the constant term -B_k/2k has
    negative p-valuation and no residue reduction exists.
    """
    _check_even_weight(k, 2)
    if k % (ring.p - 1) == 0:
        raise NotPIntegralError(
            f"G_{k} is not {ring.p}-integral: {ring.p - 1} divides {k}"
        )
    b = bernoulli(k)
    constant = ring.reduce_quotient(-b.numerator, 2 * k * b.denominator)
    return QSeries(ring, (constant, *divisor_sums(k, ring, precision)[1:]), precision)


@lru_cache(maxsize=512)
def e_series(k: int, ring: ResidueRing, precision: int) -> QSeries:
    """Normalized E_k modulo p^m through q^precision (E_0 = 1).

    The multiplier -2k/B_k = -2kD/N, for B_k = N/D, is reduced as one
    quotient, so the p that 2kD and N share when (p-1) | k cancels first.
    A p left in N (an irregular pair) makes E_k not p-integral.
    """
    if k == 0:
        return QSeries.one(ring, precision)
    _check_even_weight(k, 2)
    b = bernoulli(k)
    try:
        c_res = ring.reduce_quotient(-2 * k * b.denominator, b.numerator)
    except NotPIntegralError:
        raise NotPIntegralError(f"E_{k} is not {ring.p}-integral") from None
    mod = ring.modulus
    sigmas = divisor_sums(k, ring, precision)
    return QSeries(ring, (1, *[c_res * s % mod for s in sigmas[1:]]), precision)


# The key of Delta in `generator_power`; an integer key k names E_k.
DELTA = "delta"


@lru_cache(maxsize=2048)
def generator_power(form: int | str, ring: ResidueRing, precision: int, n: int) -> QSeries:
    """E_k^n (form = k) or Delta^n (form = DELTA) modulo p^m through q^precision, by halving.

    The one table of powers of E_4, E_6 and Delta, for monomials; powers of
    E_{p-1} come from `e_power`. Each call squares the cached power n//2, so
    the recursion is bits(n) deep, consecutive exponents reuse the halves
    already built, and a new one costs one or two products. Odd powers read
    the n = 1 entry, E_k or (E_4^3 - E_6^2)/1728.
    """
    if n == 0:
        return QSeries.one(ring, precision)
    if n == 1:
        if form != DELTA:
            return e_series(form, ring, precision)
        diff = generator_power(4, ring, precision, 3) - generator_power(6, ring, precision, 2)
        return diff.scale(ring.invert(1728))
    half = generator_power(form, ring, precision, n // 2)
    square = half * half
    return square * generator_power(form, ring, precision, 1) if n % 2 else square


def e_power(ring: ResidueRing, precision: int, n: int) -> QSeries:
    """E_{p-1}^n modulo p^m through q^precision, for any integer n, by its binomial series.

    D = E_{p-1} - 1 is 0 mod p, so D^i is 0 mod p^m from i = m on, and
    E_{p-1}^n = sum_{i<m} C(n, i) D^i mod p^m exactly for every n (a negative
    n is the inverse power): one combination of the table `_e_powers`.
    """
    return linear_combination([gen_binomial(n, i) for i in range(ring.m)],
                              _e_powers(ring, precision))


@lru_cache(maxsize=64)
def _e_powers(ring: ResidueRing, precision: int) -> tuple[QSeries, ...]:
    """1, D, ..., D^(m-1) for D = E_{p-1} - 1 modulo p^m: m - 2 products, no D at m = 1."""
    powers = [QSeries.one(ring, precision)]
    if ring.m > 1:
        powers.append(e_series(ring.p - 1, ring, precision) - powers[0])
    while len(powers) < ring.m:
        powers.append(powers[-1] * powers[1])
    return tuple(powers)


def delta_series(ring: ResidueRing, precision: int) -> QSeries:
    """The discriminant cusp form (E_4^3 - E_6^2)/1728 modulo p^m, from `generator_power`."""
    return generator_power(DELTA, ring, precision, 1)


def e_factor(ring: ResidueRing, precision: int) -> QSeries:
    """The series E in E_{p-1} = 1 + pE modulo p^m, a public value (`series efactor`).

    No kernel reads it; powers of E_{p-1} come from `e_power`, built on
    D = E_{p-1} - 1. The q^n coefficient of E_{p-1} is c * sigma_{p-2}(n)
    with c = -2(p-1)/B_{p-1} and nu_p(c) = 1, so E has coefficients
    (c/p) * sigma_{p-2}(n). The p-integral scalar c/p is reduced once, as one
    quotient, so E is exact modulo p^m for every m >= 1; E_{p-1} modulo p^m
    would fix it only modulo p^(m-1).
    """
    p, mod = ring.p, ring.modulus
    b = bernoulli(p - 1)
    u = ring.reduce_quotient(-2 * (p - 1) * b.denominator, p * b.numerator)
    sigmas = divisor_sums(p - 1, ring, precision)
    return QSeries(ring, tuple([u * s % mod for s in sigmas]), precision)


@lru_cache(maxsize=4096)
def monomial_series(a: int, b: int, c: int, ring: ResidueRing, precision: int) -> QSeries:
    """E_4^a * E_6^b * Delta^c modulo p^m (weight 4a + 6b + 12c), from cached powers."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("exponents must be non-negative")
    factors = [generator_power(form, ring, precision, n)
               for form, n in ((4, a), (6, b), (DELTA, c)) if n]
    return reduce(mul, factors) if factors else QSeries.one(ring, precision)
