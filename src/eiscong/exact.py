"""Exact integer and rational arithmetic primitives.

Everything here is exact: Python ints are unbounded and rationals are
`fractions.Fraction` (always reduced, positive denominator). No floating
point is used anywhere in the package.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

__all__ = [
    "bernoulli",
    "bernoulli_cached_indices",
    "divisors",
    "gen_binomial",
    "h_coefficient",
    "int_str",
    "padic_valuation",
    "parse_int",
    "pochhammer",
    "seed_bernoulli",
    "sigma_power_mod",
]


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

# Memo of exact values keyed by index. Concurrent readers are safe (plain
# dict reads); insertions are serialized through _BERNOULLI_LOCK.
_BERNOULLI_MEMO: dict[int, Fraction] = {0: Fraction(1), 1: Fraction(-1, 2)}
_BERNOULLI_LOCK = threading.Lock()

# Largest n for which tangent numbers T_1..T_n have been computed.
_TANGENT: list[int] = []


def _tangent_numbers(n: int) -> list[int]:
    """Tangent numbers T_1..T_n as exact integers.

    In-place triangular recurrence: after seeding T_k = (k-1)!, each pass
    k = 2..n updates T_j = (j-k)*T_{j-1} + (j-k+2)*T_j for j = k..n.
    O(n^2) big-integer operations, no intermediate rationals.
    """
    if n <= 0:
        return []
    t = [0] * (n + 1)
    t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def _ensure_tangent(n: int) -> None:
    global _TANGENT
    if n <= len(_TANGENT):
        return
    with _BERNOULLI_LOCK:
        if n <= len(_TANGENT):
            return
        # The recurrence is not incremental; grow geometrically so a rising
        # sequence of requests costs O(n^2) amortized.
        target = max(n, 2 * len(_TANGENT))
        _TANGENT = _tangent_numbers(target)


def bernoulli(k: int) -> Fraction:
    """Exact Bernoulli number B_k (convention B_1 = -1/2).

    Even indices come from tangent numbers via
    B_{2n} = (-1)^(n-1) * 2n * T_n / (2^(2n) * (2^(2n) - 1)).
    """
    if k < 0:
        raise ValueError("Bernoulli index must be non-negative")
    cached = _BERNOULLI_MEMO.get(k)
    if cached is not None:
        return cached
    if k % 2 == 1:
        return Fraction(0)
    n = k // 2
    _ensure_tangent(n)
    four_n = 1 << (2 * n)
    value = Fraction((-1) ** (n - 1) * k * _TANGENT[n - 1], four_n * (four_n - 1))
    with _BERNOULLI_LOCK:
        _BERNOULLI_MEMO.setdefault(k, value)
    return value


def seed_bernoulli(k: int, value: Fraction) -> None:
    """Install a precomputed B_k (used when loading a persisted cache)."""
    if k < 0:
        raise ValueError("Bernoulli index must be non-negative")
    with _BERNOULLI_LOCK:
        _BERNOULLI_MEMO.setdefault(k, Fraction(value))


def bernoulli_cached_indices() -> list[int]:
    """Indices currently held in the in-memory memo, ascending."""
    return sorted(_BERNOULLI_MEMO)


# ---------------------------------------------------------------------------
# Decimal text of large integers
# ---------------------------------------------------------------------------

# CPython refuses int/str conversions past 4300 digits by default
# (sys.set_int_max_str_digits); numerators of B_k pass that near k = 2060.
# The decimal module converts without the limit, and leaves the
# interpreter-wide setting alone.

def int_str(n: int) -> str:
    """str(n), also for integers past CPython's int/str digit limit."""
    try:
        return str(n)
    except ValueError:
        import decimal

        return str(decimal.Decimal(n))


def parse_int(text: str) -> int:
    """int(text), also for decimal integers past CPython's int/str digit limit."""
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text[:1] in ("+", "-") else text
        if not digits.isdecimal():
            raise
        import decimal

        return int(decimal.Decimal(text))


# ---------------------------------------------------------------------------
# p-adic valuation
# ---------------------------------------------------------------------------

def padic_valuation(x: Fraction | int, p: int) -> int | float:
    """nu_p(x); math.inf for x = 0."""
    if p < 2:
        raise ValueError("p must be at least 2")
    if x == 0:
        return math.inf
    if isinstance(x, Fraction):
        return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)
    return _int_valuation(int(x), p)


def _int_valuation(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# Binomial machinery
# ---------------------------------------------------------------------------

def gen_binomial(top: int, j: int) -> int:
    """Generalized binomial coefficient with integer (possibly negative) top.

    Falling factorial top*(top-1)*...*(top-j+1) / j!, which is 0 exactly for
    0 <= top < j and is (-1)^j * C(j-top-1, j) for negative top.
    """
    if j < 0:
        raise ValueError("lower index must be non-negative")
    if j == 0:
        return 1
    if top >= 0:
        return math.comb(top, j)
    num = 1
    for i in range(j):
        num *= top - i
    return num // math.factorial(j)


def h_coefficient(m: int, alpha: int, r: int) -> int:
    """The inversion coefficient (-1)^(m+1+r) * C(alpha-1-r, m-1-r) * C(alpha, r).

    Defined for 0 <= r <= m-1; collapses to the Kronecker delta d_{r,alpha}
    whenever alpha <= m-1.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if not 0 <= r <= m - 1:
        raise ValueError(f"r must lie in [0, {m - 1}], got {r}")
    sign = -1 if (m + 1 + r) % 2 else 1
    return sign * gen_binomial(alpha - 1 - r, m - 1 - r) * gen_binomial(alpha, r)


def pochhammer(a: int, j: int) -> int:
    """Rising factorial a*(a+1)*...*(a+j-1); empty product is 1."""
    if j < 0:
        raise ValueError("length must be non-negative")
    out = 1
    for i in range(j):
        out *= a + i
    return out


# ---------------------------------------------------------------------------
# Divisor power sums
# ---------------------------------------------------------------------------

def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError("n must be positive")
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def sigma_power_mod(k_minus_1: int, n: int, modulus: int) -> int:
    """Divisor power sum reduced modulo `modulus` (exact modular powering)."""
    if n < 1:
        raise ValueError("n must be positive")
    return sum(pow(d, k_minus_1, modulus) for d in divisors(n)) % modulus
