"""Exact integer and rational arithmetic primitives.

Everything here is exact: Python ints are unbounded and rationals are
`fractions.Fraction` (always reduced, positive denominator). No floating
point is used anywhere in the package.

Bernoulli numbers come from zeta(k) in integer fixed point, by one driver,
`prefetch_bernoulli`; `bernoulli` reads the memo and sends a miss there. It
runs the missing indices in one pass from the top index down, carries
2 k! (2 pi)**-k down, a step one cut product and one division by the small
integer k!/(k-d)!, and takes a bracket of zeta(k) from one of two
providers, chosen by how many indices are missing: a zeta sum over
reciprocals of 2**E / b**k for the odd b, carried down by exact products with
b**d, each with its error tracked as an integer, when two or more are, or an
Euler product for 1/zeta(k) and one division when one is. Both brackets bound
their own error; every index goes through one combine and `_round_proven`, at
the guard bits that the error budget stated in `prefetch_bernoulli` proves
enough. The Euler product cuts each long p**k, and the dividend with it, to
its quotient's length plus guard bits (`_euler_step`), so a step costs about
the square of the quotient's length.

The pass reads 1/pi from `_inverse_pi` (Chudnovsky's series summed by binary
splitting, then one integer square root and one floored division), and pi
from that by one more division. Its error budget (the series tail, the square
root's floor, the cut of the series' numerator and denominator, and the final
floor) stays under 1.02 units at the precision computed, so a value cut from
the memo is within 1.51 units; `_inverse_pi` gives the terms.
"""

from __future__ import annotations

import math
import threading
from array import array
from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import accumulate, compress
from operator import mul, not_
from typing import Iterable, Sequence

__all__ = [
    "bernoulli",
    "bernoulli_cached_indices",
    "bernoulli_denominator",
    "divisors",
    "gen_binomial",
    "h_coefficient",
    "int_str",
    "numerator_bits_floor",
    "padic_valuation",
    "parse_int",
    "pochhammer",
    "prefetch_bernoulli",
    "seed_bernoulli",
    "sigma_power_mod",
    "sigma_power_table",
    "sigma_power_table_step",
    "staudt_primes",
]


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

# Memo of exact values keyed by index. Concurrent readers are safe (plain
# dict reads); insertions, and the growth of _INVERSE_PI, are serialized
# through _BERNOULLI_LOCK. B_2 is seeded because both zeta brackets below
# need k >= 4.
_BERNOULLI_MEMO: dict[int, Fraction] = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6)}
_BERNOULLI_LOCK = threading.Lock()

# 1 / pi as (bits, A) with |A - 2**bits / pi| < 1.02; grown under _BERNOULLI_LOCK.
_INVERSE_PI = (0, 0)

# _SMALLEST_FACTORS[n] is 0 exactly when n is prime, a composite n's least
# prime factor otherwise, and 1 at n = 0 and 1. A least prime factor is at
# most the square root, so 2-byte items hold tables of up to 2**32 entries.
# Grown by rebinding, so a reader never sees a half-built table.
_SMALLEST_FACTORS = array("H", [1, 1])


def _smallest_factors(n: int) -> array:
    """The sieve table, grown (at least doubling) to cover 0..n.

    Each prime q up to the square root, read from the table that covers it,
    marks its multiples from q*q on, largest q first, so the last mark on a
    composite is its least prime factor.
    """
    global _SMALLEST_FACTORS
    table = _SMALLEST_FACTORS
    if len(table) <= n:
        size = max(n + 1, 2 * len(table))
        root = math.isqrt(size - 1)
        small = _smallest_factors(root)
        table = array("H", bytes(2 * size))
        table[0] = table[1] = 1
        for q in range(root, 1, -1):
            if not small[q]:
                table[q * q :: q] = array("H", [q]) * len(range(q * q, size, q))
        _SMALLEST_FACTORS = table
    return table


def staudt_primes(k: int) -> list[int]:
    """The primes l with (l-1) | k, ascending, for even k >= 2. By von Staudt-Clausen
    B_k's denominator is their product, and B_k + sum 1/l over them is an integer."""
    factors = _smallest_factors(k + 1)
    return [d + 1 for d in divisors(k) if not factors[d + 1]]


def bernoulli_denominator(k: int) -> int:
    """Denominator of B_k for even k >= 2: the product of `staudt_primes(k)`."""
    return reduce(mul, staudt_primes(k))


def numerator_bits_floor(k: int) -> int:
    """L with |B_k| D >= 2**L for even k >= 2, D its denominator; float-free and no sieve.

    |B_k| = 2 k! zeta(k) / (2 pi)**k, with zeta(k) > 1, D >= 1 and
    k! >= (k/e)**k, so log2(|B_k| D) >= 1 + k (log2 k - log2(2 pi e)), and
    log2 k >= bits(k) - 1 and log2(2 pi e) < 4.0943.
    """
    return 1 + k * (k.bit_length() - 1) + (-40943 * k) // 10000  # - ceil(4.0943 k)


# Chudnovsky's series: 426880 sqrt(10005) / pi = sum_k t_k with
# t_k = (-1)**k (6k)! (A + B k) / ((3k)! k!**3 640320**(3k)).
_CHUDNOVSKY_A, _CHUDNOVSKY_B = 13591409, 545140134
_CHUDNOVSKY_Q = 640320**3 // 24


def _chudnovsky(a: int, b: int, with_p: bool = True) -> tuple[int, int, int]:
    """(P, Q, T) of the terms a .. b-1, by binary splitting; P is 0 unless `with_p`.

    With p(j) = (6j-5)(2j-1)(6j-1) and q(j) = j**3 640320**3 / 24 (and
    p(0) = q(0) = 1), t_j = (-1)**j (A + B j) P(0, j+1) / Q(0, j+1), where P and
    Q are the products of p and q over a <= j < b. T is the sum over those j of
    (-1)**j (A + B j) P(a, j+1) Q(j+1, b), so the first N terms sum to
    T(0, N) / Q(0, N). Only a parent reads P, and only its left half's, so
    the top level and the right halves down its right edge skip theirs.
    """
    if b - a == 1:
        if a == 0:
            return 1, 1, _CHUDNOVSKY_A
        p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
        t = p * (_CHUDNOVSKY_A + _CHUDNOVSKY_B * a)
        return p, a * a * a * _CHUDNOVSKY_Q, -t if a % 2 else t
    middle = (a + b) // 2
    p1, q1, t1 = _chudnovsky(a, middle)
    p2, q2, t2 = _chudnovsky(middle, b, with_p)
    return p1 * p2 if with_p else 0, q1 * q2, t1 * q2 + p1 * t2


def _inverse_pi(bits: int) -> int:
    """2**bits / pi within 1.51, from Chudnovsky's series; callers hold _BERNOULLI_LOCK.

    A request past the memoized precision recomputes it at no less than twice
    that precision, so a rising sequence of requests recomputes it only
    logarithmically often. At q bits the value is
    floor(T' isqrt(10005 * 4**q) / (426880 * 10005 * Q')), where T / Q = S_N is
    the sum of the first N = q // 47 + 2 terms of the series
    S = 426880 sqrt(10005) / pi > 2**23, and T' and Q' are T and Q cut by one
    shift to leave Q' at least q + 64 bits. Its error, in units of 2**-q, on
    2**q / pi < 2**(q-1):

    - the tail: (6k)! / ((3k)! k!**3) <= 2**(6k) 3**(3k) = 1728**k and
      640320**3 / 1728 > 2**47, so |t_k| < (A + B k) 2**(-47k) < 2**30 k 2**(-47k),
      and the terms past N, each under 2**-46 of the one before, sum to under
      2**31 N 2**(-47N), a relative 2**8 N 2**(-47N) of S_N: under
      N 2**(q + 7 - 47N) <= N 2**-41, since 47N >= q + 48;
    - the isqrt floor: a relative 1 / (sqrt(10005) 2**q), so under 0.01;
    - the cut: a relative under 2**-(q+63) from Q' and 2**-(q+86) from T',
      so under 2**-63;
    - the final floor: under 1.

    That is under 1.02 at q bits. Cutting the memo down to fewer bits at
    least halves that error and adds one floor, so every value returned is
    within 1.51 units of 2**bits / pi > 2**(bits-2): a relative 2**(3 - bits).
    """
    global _INVERSE_PI
    have, value = _INVERSE_PI
    if have < bits:
        have = max(bits, 2 * have, 64)
        _, q, t = _chudnovsky(0, have // 47 + 2, with_p=False)
        cut = max(q.bit_length() - have - 64, 0)
        value = (t >> cut) * math.isqrt(10005 << 2 * have) // (426880 * 10005 * (q >> cut))
        _INVERSE_PI = (have, value)
    return value >> (have - bits)


def _truncate(mantissa: int, exponent: int, bits: int) -> tuple[int, int]:
    """mantissa * 2**exponent cut to bits+1 significant bits: relative error below 2**-bits."""
    drop = mantissa.bit_length() - bits - 1
    return (mantissa >> drop, exponent + drop) if drop > 0 else (mantissa, exponent)


def _power_truncated(mantissa: int, exponent: int, k: int, bits: int) -> tuple[int, int]:
    """(mantissa * 2**exponent)**k for k >= 1, by binary powering from the top bit of k.

    Each product is cut by _truncate, a factor 1 - t with 0 <= t < 2**-bits,
    except when k = 1, where the base comes back as it is. The cuts made while
    bit i of k is read (the square, and the product with the base where the
    bit is set) enter the result raised to 2**i, and those powers sum to
    k - 1, so the result is at most the true power and below it by a
    relative under k 2**-bits. A small base, as in `_euler_step`, keeps
    each product with it cheap.
    """
    result, result_exponent = mantissa, exponent
    for i in reversed(range(k.bit_length() - 1)):
        result, result_exponent = _truncate(result * result, 2 * result_exponent, bits)
        if k >> i & 1:
            result, result_exponent = _truncate(result * mantissa, result_exponent + exponent, bits)
    return result, result_exponent


def _working_bits(k: int, top: int) -> tuple[int, int]:
    """(w, g): B_k's precision w = L + g, 2**L above |B_k| D = top * zeta(k) / (2 pi)**k, and g
    the least integer with 8 (2**(c+1) + 10) <= 2**g, c = ceil(w / (k-1)): see `prefetch_bernoulli`."""
    # For k >= 4: top < 2**bits(top), zeta(k) <= zeta(4) < 2**0.12 < 2, and
    # log2(2 pi) > 2.6514 gives (2 pi)**k > 2**floor(26514 k / 10000), so the
    # numerator is below 2**(bits(top) + 1 - floor(26514 k / 10000)).
    bits, guard = top.bit_length() - 26514 * k // 10000 + 1, 0
    while 8 * ((2 << -(-(bits + guard) // (k - 1))) + 10) > 1 << guard:
        guard += 1
    return bits + guard, guard


def _round_proven(scaled: int, guard: int, error: int) -> int | None:
    """The integer nearest scaled / 2**guard, or None unless that is proven.

    scaled is |B_k| D * 2**guard within `error`, and the rounding is proven
    when that whole interval lies within 1/4 of an integer.
    """
    numerator = (scaled + (1 << guard >> 1)) >> guard
    if 4 * (abs(scaled - (numerator << guard)) + error) > 1 << guard:
        return None
    return numerator


def _signed(k: int, numerator: int, denominator: int) -> Fraction:
    """B_k from |B_k| D and D: its sign is (-1)**(k/2 + 1)."""
    return Fraction(numerator if k % 4 == 2 else -numerator, denominator)


def bernoulli(k: int) -> Fraction:
    """Exact Bernoulli number B_k (convention B_1 = -1/2).

    Read from the memo; odd k > 1 give 0, and a missing even k is computed
    by `prefetch_bernoulli`, at the guard bits its error bound proves.
    """
    if k < 0:
        raise ValueError("Bernoulli index must be non-negative")
    cached = _BERNOULLI_MEMO.get(k)
    if cached is not None:
        return cached
    if k % 2 == 1:
        return Fraction(0)
    prefetch_bernoulli((k,))
    return _BERNOULLI_MEMO[k]


@cache
def _log_bits(b: int) -> int:
    """floor(64 log2 b) for b >= 1, read from the length of b**64.

    Memoized: the zeta sum and the Euler product ask for the same few
    hundred small b at every index.
    """
    return (b**64).bit_length() - 1


def _power_bits(b: int, k: int) -> int:
    """S = floor(k (bits(b**64) - 1) / 64), for b >= 1: 2**S <= b**k < 2**(S + 1 + k/64)."""
    return k * _log_bits(b) >> 6


def _zeta_bracket(values: list[int], errors: list[int], k: int, shift: int) -> tuple[int, int]:
    """(Z, e) with Z <= zeta(k) * 2**w < Z + e, for k >= 4, from reciprocals at the scale E = w + shift.

    values[i] = R and errors[i] = r belong to the odd b = 2i + 1, with
    R <= 2**E / b**k < R + r, and the lists end at the last b that
    `_power_bits(b, k) <= w` admits, so the next has 2**w / b**k <= 1/2. The
    sum stops at N, the first odd b with R + r <= 2**shift, which gives
    2**w / b**k < 1, or the b past the end. With T the sum of R over the odd
    b < N, S = sum_j floor(T / 2**(j k)) is at most the sum of 2**E / n**k
    over the n = 2**j b, all distinct; and the n < N, those with 2**j < N,
    sum to under S plus J = bits(N - 1), a floor of under 1 for each such j,
    plus 16/15 sum r, as k >= 4. Z = floor(S / 2**shift). Past N the tail
    sum_{n >= N} 2**w / n**k is under 1 + N / (k-1) < N // (k-1) + 2, and Z's
    floor adds 1.
    """
    limit = 1 << shift
    top = total = count = 0
    for value, error in zip(values, errors):
        if value + error <= limit:
            break
        top += value
        total += error
        count += 1
    scaled = 0
    while top:
        scaled += top
        top >>= k
    n = 2 * count + 1
    error = -(-(15 * (n - 1).bit_length() + 16 * total) // (15 * limit)) + n // (k - 1) + 3
    return scaled >> shift, error


def _euler_step(euler: int, p: int, k: int) -> tuple[int, int, int]:
    """(q, A, x) with A 2**x <= p**k and floor(e / p**k) - 1 <= q <= floor(e / p**k), for p >= 2.

    The step e <- e - q of `_zeta_euler` at the prime p, and the first
    reciprocal of an odd p in `_admit_reciprocals`, from e = 2**E.

    q = floor(e / p**k) for p = 2 (a shift) and where p**k is no longer than
    b = max(L, 0) + G bits, G the guard bits(k) + 3; the quotient is below
    2**L, L = bits(e) - S, where p**k >= 2**S, S = floor(k (bits(p**64) - 1) / 64).
    A longer p**k is cut: A 2**x is p**k from `_power_truncated` at b bits,
    below it by a relative under k 2**-b < 1/8, and 2**b <= A < 2**(b+1), so
    p**k < (A + j) 2**x with j = 4k, and q = floor((e >> x) / (A + j)) =
    floor(e / ((A + j) 2**x)) is at most floor(e / p**k) and below e / p**k
    by under 1 + 2**L j / A <= 1 + j 2**-G < 2. That division costs about
    b**2 bit steps where the full one costs L bits(p**k).
    """
    if p == 2:
        return euler >> k, 1, k
    size = _power_bits(p, k)
    bits = max(euler.bit_length() - size, 0) + k.bit_length() + 3
    if bits < size:
        power, exponent = _power_truncated(p, 0, k, bits)
        return (euler >> exponent) // (power + 4 * k), power, exponent
    power = p**k
    return euler // power, power, 0


def _zeta_euler(k: int, w: int) -> tuple[int, int]:
    """(Z, e) with Z <= zeta(k) * 2**w < Z + e, for k >= 4 and w >= 4, by one division.

    E = 2**w / zeta(k) from above, as the Euler product over the primes p up
    to the first whose stop test below holds, or over the whole sieve table,
    which reaches past 2**ceil(w / (k-1)); say n primes, the last P. Each
    step is e <- e - q by `_euler_step`. With Pi the exact product:

    - a step lands e - q in [e (1 - p**-k), that + 2), so Pi <= E < Pi + 2n;
    - the stop test (k-1) A 2**x >= p 2**w gives (k-1) p**(k-1) >= 2**w, so
      the primes past M, M = P or the table's end if the loop ran it out,
      take a factor 1 - sum_{m > M} m**-k >= 1 - M**(1-k) / (k-1) >= 1 - 2**-w,
      and Pi <= 2**w, so Pi - 1 <= X <= Pi for X = 2**w / zeta(k), and
      E - 2n - 1 < X <= E.

    zeta(k) 2**w = 2**(2w) / X, so Z = floor(2**(2w) / E) is a lower bound,
    and the upper one, 2**(2w) / (E - 2n - 1), exceeds 2**(2w) / E by
    2**(2w) (2n+1) / (E (E - 2n - 1)) <= zeta(k)**2 (2n+1) / (1 - d), where
    d = (2n+1) zeta(k) / 2**w, as E >= X and E - 2n - 1 >= X - 2n - 1. Here
    zeta(k)**2 <= zeta(4)**2 < 1.172, and each prime that failed the stop
    test has (k-1) p**(k-1) < 2**(w+1), as A 2**x > 7/8 p**k, so is under
    2**(w/3): d <= 0.34 once w >= 4, its largest at w = 4 and n = 2. That
    excess is under 1.78 (2n+1) < 4n + 2, and with Z's floor, e = 4n + 3.
    """
    factors = _smallest_factors(1 << -(-w // (k - 1)))
    euler, primes = 1 << w, 0
    for p in compress(range(len(factors)), map(not_, factors)):
        quotient, power, exponent = _euler_step(euler, p, k)
        euler -= quotient
        primes += 1
        if (k - 1) * power << exponent >= p << w:
            break
    return (1 << 2 * w) // euler, 4 * primes + 3


# Bits past an index's precision w to which the pass cuts 2 k! D (2 pi)**-k
# before its product with the zeta bracket; see `_numerator`.
_SLACK_BITS = 2


def _numerator(bracket: tuple[int, int], w: int, guard: int, mantissa: int, exponent: int) -> int | None:
    """|B_k| D = 2 k! D (2 pi)**-k zeta(k) for even k >= 4, or None if `guard` bits cannot prove it.

    (w, guard) = _working_bits(k, 2 k! D); bracket = (Z, e) with
    Z <= zeta(k) 2**w < Z + e, and mantissa * 2**exponent is
    2 k! D (2 pi)**-k within a relative error of 2**-w. One product, with no
    division: that factor cut to w + _SLACK_BITS + 1 bits, times Z. The
    error, e + 3, is the budget stated in `prefetch_bernoulli`.
    """
    zeta, zeta_error = bracket
    mantissa, exponent = _truncate(mantissa, exponent, w + _SLACK_BITS)
    # numerator * 2**guard = mantissa * zeta * 2**(exponent + guard - w), floored.
    scaled = mantissa * zeta
    shift = exponent + guard - w
    scaled = scaled << shift if shift >= 0 else scaled >> -shift
    return _round_proven(scaled, guard, zeta_error + 3)


def _admit_reciprocals(values: list[int], errors: list[int], k: int, w: int, scale: int) -> None:
    """Fit the reciprocals of `_zeta_bracket`, at 2**scale, to the odd b that `_power_bits` admits.

    Those past them go, and a new one comes from `_euler_step` on 2**scale,
    with an error of 2, as `prefetch_bernoulli` states.
    """
    while values and _power_bits(2 * len(values) - 1, k) > w:
        del values[-1], errors[-1]
    while _power_bits(b := 2 * len(values) + 1, k) <= w:
        values.append(_euler_step(1 << scale, b, k)[0])
        errors.append(2)


def _headroom(spread: list[int]) -> int:
    """H, the bits the reciprocals carry past F's precision; see `prefetch_bernoulli`.

    `spread` holds bits(D) + g for each of the n missing indices, and H is
    the spread of those values plus bits(4n) + 8.
    """
    return max(spread) - min(spread) + (4 * len(spread)).bit_length() + 8


def _bernoulli_pass(ks: list[int]) -> None:
    """Memoize B_k for the ascending even ks >= 4, each at the guard bits `_working_bits` gives.

    Callers hold _BERNOULLI_LOCK. The pass runs from the top index down, as
    `prefetch_bernoulli` states and proves; a rounding left unproven raises
    `ArithmeticError` and memoizes none of ks.
    """
    steps = []  # (k, k! / j! for the index j below, or k! for the lowest, D, w, g), ascending
    factorial, previous = 1, 0
    for k in ks:
        rise = math.perm(k, k - previous)
        factorial *= rise
        denominator = bernoulli_denominator(k)
        steps.append((k, rise, denominator, *_working_bits(k, 2 * factorial * denominator)))
        previous = k
    # F's precision W at each index: the largest w at or below it, and room for 3 units a step.
    widths = [w + (3 * len(ks)).bit_length() + 2 for w in accumulate((w for *_, w, _ in steps), max)]
    headroom = _headroom([denominator.bit_length() + guard for _, _, denominator, _, guard in steps])
    top, width = ks[-1], widths[-1]
    s = width + top.bit_length() + 5
    inverse = _inverse_pi(s)
    mantissa, exponent = _power_truncated(inverse, -s - 1, top, width + top.bit_length() + 1)
    mantissa, exponent = _truncate(2 * factorial * mantissa, exponent, width)  # F = 2 k! (2 pi)**-k
    pi = (1 << 2 * s) // inverse if len(ks) > 1 else 0  # pi 2**s
    factors: dict[int, tuple[int, int]] = {}  # d -> (2 pi)**d
    multipliers: dict[int, list[int]] = {}  # d -> b**d for b = 1, 3, 5, ...
    # values[i] <= 2**scale / b**k < values[i] + errors[i] for b = 2i + 1.
    values: list[int] = []
    errors: list[int] = []
    scale = width + headroom
    found = {}
    for i in reversed(range(len(ks))):
        k, _, denominator, w, guard = steps[i]
        if i + 1 < len(ks):
            above, rise = steps[i + 1][:2]
            d, width = above - k, widths[i]
            if d not in factors:
                factors[d] = _power_truncated(pi, 1 - s, d, widths[-1] + d.bit_length() + 1)
            factor, factor_exponent = _truncate(*factors[d], width + 1)
            product = mantissa * factor
            extra = max(width + rise.bit_length() + 2 - product.bit_length(), 0)
            mantissa, exponent = _truncate((product << extra) // rise,
                                           exponent + factor_exponent - extra, width)
            drop, scale = scale - width - headroom, width + headroom
            powers = multipliers.setdefault(d, [])
            powers.extend(b**d for b in range(2 * len(powers) + 1, 2 * len(values), 2))
            values = [value * power >> drop for value, power in zip(values, powers)]
            errors = [(error * power >> drop) + 2 for error, power in zip(errors, powers)]
            # The guard bound rests on errors of at most 2**(E-w-1): one past that is made afresh.
            half = 1 << (scale - w - 1)
            if max(errors) > half:
                for j in [j for j, error in enumerate(errors) if error > half]:
                    values[j], errors[j] = (1 << scale) // (2 * j + 1)**k, 1
        if len(ks) == 1:
            zeta = _zeta_euler(k, w)
        else:
            _admit_reciprocals(values, errors, k, w, scale)
            zeta = _zeta_bracket(values, errors, k, scale - w)
        numerator = _numerator(zeta, w, guard, mantissa * denominator, exponent)
        if numerator is None:
            raise ArithmeticError(f"B_{k}: rounding not proven")
        found[k] = _signed(k, numerator, denominator)
    _BERNOULLI_MEMO.update(found)


def prefetch_bernoulli(indices: Iterable[int]) -> None:
    """Memoize B_k for every k in `indices`: the one place B_k is computed.

    Even k >= 4 come from |B_k| = 2 k! zeta(k) / (2 pi)**k (Fillebrown 1992).
    D is exact (von Staudt-Clausen) and the sign is (-1)**(k/2 + 1), so only
    the integer |B_k| D is approximated, to w = L + g bits, where 2**L bounds
    it and g are guard bits. The n missing indices run in one pass from the
    top index K down (`_bernoulli_pass`).

    F = 2 k! (2 pi)**-k is carried at W = (the largest w at or below the
    index) + bits(3n) + 2 bits, which never grows on the way down, and each
    step costs it under 3 units of its own 2**-W, so at every index F is
    within a relative 3n 2**-W < 2**-(w+2), products of the errors included:
    within the one unit of 2**-w that `_numerator` takes. At K, 2**s / pi at
    s = W + bits(K) + 5 is within a relative 2**(3-s) (`_inverse_pi`), its
    K-th power by cuts to W + bits(K) + 1 bits within 1/4 + 1/2 units
    (`_power_truncated`), and 2 K! times that, cut to W bits, within one more.
    A step down a gap of d multiplies by (2 pi)**d, divides by k!/(k-d)!,
    exact, and cuts to W bits. (2 pi)**d is made once per gap from
    pi 2**s = floor(2**(2s) / (2**s / pi)), also within a relative 2**(3-s),
    by cuts to W_K + bits(d) + 1 bits: within 1/4 + 1/2 units, and 1/2 more
    for its cut to W + 1 bits. The product is lengthened so the quotient has
    more than W + 1 bits, so its floor costs under 1/2, and the cut under 1.

    zeta(k) comes as a bracket (Z, e), Z <= zeta(k) 2**w < Z + e. For one
    missing index it is `_zeta_euler`'s, where making a fresh reciprocal for
    every odd b would cost more. For two or more it is `_zeta_bracket`'s, over
    integers R_b and r_b with R_b <= 2**E / b**k < R_b + r_b for the odd b,
    at E = W + H. The headroom H is the spread of bits(D) + g over the pass
    plus bits(4n) + 8, and E never grows on the way down either. An odd b
    enters when `_power_bits(b, k) <= w` first admits it, and leaves when
    that test fails; nothing probes a b the test does not admit. R_b enters
    as `_euler_step`'s quotient of 2**E by b**k, floor(2**E / b**k) or one
    less, so r_b = 2; a long b**k is cut to the quotient's length plus guard
    bits first, so the division costs about the square of the quotient's
    length. A step down a gap of d, with E falling by t, sets
    R_b <- floor(R_b b**d / 2**t) and r_b <- floor(r_b b**d / 2**t) + 2 by
    two exact products, and the bracket holds again: 2**E / b**k, times
    b**d 2**-t, is below (R_b + r_b) b**d 2**-t, which is under
    (the new R_b + 1) + (floor(r_b b**d 2**-t) + 1). An r_b past 2**(E-w-1)
    is made afresh by an exact division (r_b = 1); the headroom keeps the
    errors far below that, and on the runs the tests pin none is made
    afresh.

    |B_k| D * 2**g < 2**w is then known within e + 3 units (`_numerator`): e
    from Z (as zeta(k) >= 1), one from F, one for the slack cut of F D to
    w + 3 bits and the products of the relative errors, and one for the final
    floor. With c = ceil(w / (k-1)), e <= 2**(c+1) + 7 for both.
    `_zeta_euler` stops by the first prime p >= 2**c, whose stop test
    (k-1) 7/8 p**(k-1) >= 2**w passes, so it runs over at most 2**(c-1) + 1
    primes (2, the odd numbers below 2**c, and that p), and e is 4 per prime
    plus 3. `_zeta_bracket`'s e is
    ceil((15 J + 16 sum r_b) / (15 2**(E-w))) + N // (k-1) + 3, J = bits(N-1).
    It sums the odd b below its N, each with R_b + r_b > 2**(E-w) and
    r_b <= 2**(E-w-1), so 2**w / b**k > 1/2 and b < 2**((w+1)/k) <= 2**c:
    N - 1 <= 2**c, sum r_b <= (N - 1) 2**(E-w) / 4, J <= N - 1 and
    E - w >= 8, so e is at most
    ceil((N - 1) (2**-8 + 4/15)) + (2**c + 1) / 3 + 3 < 2**c + 5.
    g (`_working_bits`) is the least integer with 8 (2**(c+1) + 10) <= 2**g,
    so e + 3 <= 2**g / 8: the rounding gives |B_k| D and its interval lies
    within 1/4 of it, as `_round_proven` checks. So every index is proven at
    its first width, with g from 7 to 13 for k <= 4000 and 15 at k = 10,000;
    an unproven one is a fault, raised as `ArithmeticError`, memo untouched.
    """
    indices = set(indices)
    if indices and min(indices) < 0:
        raise ValueError("Bernoulli index must be non-negative")
    missing = [k for k in indices if k % 2 == 0 and k not in _BERNOULLI_MEMO]
    if not missing:
        return
    with _BERNOULLI_LOCK:
        # Another thread may have memoized some since `missing` was read.
        missing = sorted(k for k in missing if k not in _BERNOULLI_MEMO)
        if missing:
            _bernoulli_pass(missing)


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
    if top >= 0:
        return math.comb(top, j)
    return (-1) ** j * math.comb(j - top - 1, j)


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


# Holds the rows of the last 8 precisions asked for, each built for exactly
# that precision. Few are needed: an op reads rows at one precision, its
# grid's --prec or its filtration's Sturm index.
@lru_cache(maxsize=8)
def _factor_rows(precision: int) -> tuple[tuple, tuple, tuple]:
    """How multiplicativity builds each n = 2 .. precision from smaller n.

    Three ascending tuples: the primes q; the higher prime powers q^a
    (a >= 2) as (q^a, q^(a-1), q); every other n as (n, q^a, n / q^a), with
    q^a the full power in n of its least prime factor q. Tuples, as the
    cache hands the same rows to every caller.
    """
    factors = _smallest_factors(precision)
    part = [0, 1] + [0] * (precision - 1)  # part[n]: that power q^a
    primes, prime_powers, splits = [], [], []
    for n in range(2, precision + 1):
        q = factors[n] or n
        part[n] = q * part[n // q] if n // q % q == 0 else q
        if q == n:
            primes.append(n)
        elif part[n] == n:
            prime_powers.append((n, n // q, q))
        else:
            splits.append((n, part[n], n // part[n]))
    return tuple(primes), tuple(prime_powers), tuple(splits)


def sigma_power_table(k_minus_1: int, precision: int, modulus: int) -> list[int]:
    """sigma_{k-1}(n) modulo `modulus` for n = 0 .. precision, with entry 0 set to 0.

    By multiplicativity, from `_factor_rows`: a prime q takes one modular
    power, sigma(q) = 1 + q^(k-1); a higher prime power one multiply,
    sigma(q^a) = 1 + (sigma(q) - 1) sigma(q^(a-1)); and every other n one
    multiply, sigma(q^a) sigma(n / q^a), its two factors coprime.
    """
    rows = _factor_rows(precision)
    return _sigma_from_primes(rows, [pow(q, k_minus_1, modulus) for q in rows[0]], precision, modulus)


def sigma_power_table_step(below: Sequence[int], step: Sequence[int], modulus: int) -> list[int]:
    """The `sigma_power_table` of exponent e + d from those of e (`below`) and of d
    (`step`), both through one precision: q^(e+d) = q^e q^d, read off their prime
    entries sigma(q) - 1, is one multiply per prime q in place of a modular power."""
    precision = len(below) - 1
    rows = _factor_rows(precision)
    return _sigma_from_primes(rows, [(below[q] - 1) * (step[q] - 1) for q in rows[0]], precision, modulus)


def _sigma_from_primes(rows: tuple[tuple, tuple, tuple], powers: list[int], precision: int,
                       modulus: int) -> list[int]:
    """The table of `sigma_power_table` from `_factor_rows(precision)` and q^(k-1), one per prime q."""
    primes, prime_powers, splits = rows
    table = [0] + [1 % modulus] * precision
    for q, power in zip(primes, powers):
        table[q] = (1 + power) % modulus
    for n, previous, q in prime_powers:
        table[n] = (1 + (table[q] - 1) * table[previous]) % modulus
    for n, part, rest in splits:
        table[n] = table[part] * table[rest] % modulus
    return table
