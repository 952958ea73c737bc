"""Shared test helpers: independent oracles kept away from the code they check."""

import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, isqrt

import pytest
from hypothesis import Phase, settings

from eiscong import congruences, eisenstein, exact
from eiscong.congruences import CongruenceReport
from eiscong.eisenstein import e_series
from eiscong.exact import bernoulli, divisors, gen_binomial, h_coefficient
from eiscong.filtration import (
    BasisMatrix,
    FiltrationReport,
    LinearSystem,
    NoSolution,
    Solution,
    _check_weight_match,
    basis,
    sturm_bound,
)
from eiscong.residue import ResidueRing
from eiscong.series import QSeries, linear_combination

# `python tests/mutants.py` runs every test under this profile: a failing
# example is all a mutant needs, so no time goes to shrinking it.
settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))

# OEIS A014233: psi_i, the least odd composite that is a strong probable prime
# to each of the first i prime bases, for i = 1..13.
A014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
           3825123056546413051, 318665857834031151167461, 3317044064679887385961981)


def bernoulli_by_recurrence(n: int) -> Fraction:
    """Independent Bernoulli oracle: solve sum_{j=0}^{n} C(n+1, j) B_j = 0 upward.

    Deliberately naive rational arithmetic; a second check, for small n, of
    the production zeta(k) path next to `bernoulli_by_tangent`.
    """
    values = [Fraction(1)]
    for k in range(1, n + 1):
        acc = sum(comb(k + 1, j) * values[j] for j in range(k))
        values.append(Fraction(-acc, k + 1))
    return values[n]


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


def bernoulli_by_tangent(indices) -> dict[int, Fraction]:
    """Tangent-number oracle: B_k for each even k >= 2 in `indices`, from one table.

    B_{2n} = (-1)^(n-1) * 2n * T_n / (2^(2n) * (2^(2n) - 1)), with T_n from
    `_tangent_numbers`, an O(n^2) exact recurrence sharing nothing with the
    production zeta(k) path.
    """
    indices = list(indices)
    table = _tangent_numbers(max(indices) // 2)
    out = {}
    for k in indices:
        n = k // 2
        four_n = 1 << k
        out[k] = Fraction((-1) ** (n - 1) * k * table[n - 1], four_n * (four_n - 1))
    return out


def kummer_misses(k: int, value: Fraction, table: dict[int, Fraction], primes) -> list[int]:
    """Kummer-congruence oracle: the primes l of `primes` at which `value`, as B_k
    for an even k, breaks B_k/k = B_k'/k' mod l.

    That is checked at each l >= 5 with (l-1) not dividing k, where k' is the
    least even index >= 2 with k' = k mod (l-1), read from `table`. Both
    sides are then l-integral, and the congruence says l divides the
    numerator of their difference: as B_k'/k' is l-integral, that is
    l | x y' - y x' for x/x' = B_k/k and y/y' = B_k'/k'. The l with
    (l-1) | k are von Staudt-Clausen's.

    A differential check, not a proof: it sees B_k's numerator only modulo
    the product of the primes, about 2**4200 for the primes below 3000,
    while the numerator of B_10000 has 91,986 bits. It shares no code with
    the zeta pass.
    """
    x = value / k
    misses = []
    for l in primes:
        below = k % (l - 1)
        if below:
            y = table[below] / below
            if (x.numerator % l * y.denominator - y.numerator * x.denominator) % l:
                misses.append(l)
    return misses


def _arctan_inverse(x: int, bits: int) -> int:
    """atan(1/x) * 2**bits for an integer x >= 5, within 2.05 per series term plus 2.1."""
    power = (1 << bits) // x
    square = x * x
    total = 0
    n = 1
    while power:
        term = power // n
        total += term if n % 4 == 1 else -term
        power //= square
        n += 2
    return total


def pi_by_machin(bits: int) -> int:
    """pi oracle: pi * 2**bits within 2, from Machin's formula pi = 16 atan(1/5) - 4 atan(1/239).

    The two series are off by under 8q + 100 units at q bits; `extra` low bits
    absorb that.
    """
    extra = bits.bit_length() + 6
    q = bits + extra
    return (16 * _arctan_inverse(5, q) - 4 * _arctan_inverse(239, q)) >> extra


def zeta_by_floors(k: int, bits: int) -> tuple[int, int]:
    """zeta oracle: (lo, hi) with lo <= zeta(k) * 2**bits < hi, for k >= 2, from every term.

    lo sums floor(2**bits / n**k) over n < N, N the first n with n**k > 2**bits;
    those floors lose under N, and the tail past N is under 1 + N / (k-1).
    """
    lo, n = 0, 1
    while (term := (1 << bits) // n**k):
        lo += term
        n += 1
    return lo, lo + n + n // (k - 1) + 2


def zeta_sum(reciprocals: list[int], k: int, width: int, w: int) -> tuple[int, int]:
    """Zeta-sum oracle: (Z, e) with Z <= zeta(k) * 2**w < Z + e, for k >= 4 and w <= width.

    reciprocals[i] is floor(2**width / b**k) for the odd b = 2i + 1; the sum
    appends those it reaches past the end. Z sums floor(2**w / n**k) up to the
    first zero term, at n = N. For n = 2**a b that term is b's reciprocal
    shifted down by width - w + a k bits, as floors of floors are floors; the
    terms fall with n, so Z stops at the first odd b whose term is 0. The
    floors of n = 2 .. N-1 lose under 1 each (n = 1 is exact), and past N,
    where 2**w < N**k, the tail sum_{n >= N} 2**w / n**k is under
    1 + N / (k-1) < N // (k-1) + 2.
    """
    shift = width - w
    zeta = last = i = 0
    while True:
        if i == len(reciprocals):
            reciprocals.append((1 << width) // (2 * i + 1)**k)
        term = reciprocals[i] >> shift
        if not term:
            break
        n = 2 * i + 1
        while term:
            zeta += term
            term >>= k
            n *= 2
        last = max(last, n // 2)
        i += 1
    # The first zero term is at N = last + 1.
    return zeta, (last - 1) + ((last + 1) // (k - 1) + 2)


def ascending_brackets(ks: list[int]) -> list[tuple[int, int, tuple[int, int]]]:
    """Bracket oracle: (k, w, (Z, e)) for each of the ascending even ks >= 4, from exact floors.

    w is the precision the pass runs k at (`exact._working_bits`). One
    ascending loop at one width W, the largest w, carries the exact odd
    reciprocals floor(2**W / b**k) up from one index to the next, a gap of d,
    by floor(R_b / b**d), and `zeta_sum` reads each bracket from them: no
    error is tracked, and every division is exact.
    """
    ws = [exact._working_bits(k, 2 * factorial(k) * exact.bernoulli_denominator(k))[0] for k in ks]
    width, reciprocals, previous, out = max(ws), [], 0, []
    for k, w in zip(ks, ws):
        odd = range(1, 2 * len(reciprocals), 2)
        reciprocals = [r // b**(k - previous) for b, r in zip(odd, reciprocals)]
        out.append((k, w, zeta_sum(reciprocals, k, width, w)))
        previous = k
    return out


# The hex values a cache line holds, as the cache reader once matched them.
HEX_VALUE = re.compile(r"-?0x[0-9a-f]+")


def cache_value_by_regex(text: str) -> int:
    """Cache-value oracle: hex exactly when the whole text matches HEX_VALUE, decimal otherwise.

    Raises ValueError for text that is neither.
    """
    return int(text, 16) if HEX_VALUE.fullmatch(text) else exact.parse_int(text)


def outcome(parse, text: str):
    """parse(text), or ValueError if it raises one."""
    try:
        return parse(text)
    except ValueError:
        return ValueError


def primes_to(limit: int) -> list[int]:
    """The primes up to `limit`, by trial division (oracle for the sieve table)."""
    return [n for n in range(2, limit + 1) if all(n % d for d in range(2, isqrt(n) + 1))]


def euler_by_floors(k: int, w: int) -> list[tuple[int, int]]:
    """Euler-product oracle: (p, floor(e / p**k)) per step of e <- e - floor(e / p**k) from e = 2**w.

    Over the primes up to the first with (k-1) p**(k-1) >= 2**w, each p**k in
    full: the floored product that the zeta bracket's Euler steps approximate.
    """
    steps, euler, limit = [], 1 << w, 64
    while True:
        for p in primes_to(limit)[len(steps):]:
            power = p**k
            steps.append((p, euler // power))
            euler -= steps[-1][1]
            if (k - 1) * power >= p << w:
                return steps
        limit *= 2


def sigma_power(k_minus_1: int, n: int) -> int:
    """Divisor power sum oracle: the sum of d^(k-1) over divisors d of n, exactly."""
    if n < 1:
        raise ValueError("n must be positive")
    return sum(d**k_minus_1 for d in divisors(n))


def schoolbook_product(a: tuple, b: tuple) -> tuple:
    """Product oracle: the truncated convolution of two coefficient tuples, term by term.

    Works over any exact coefficients (ints or Fractions); the result is as
    long as the shorter operand and is not reduced.
    """
    n = min(len(a), len(b))
    out = [0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


def g_constant_exact(k: int) -> Fraction:
    """The constant term -B_k/2k of G_k, over the rationals."""
    return Fraction(-1, 2) * bernoulli(k) / k


def e_normalizer_exact(k: int) -> Fraction:
    """The multiplier -2k/B_k of the divisor sums in E_k, over the rationals."""
    return Fraction(-2 * k) / bernoulli(k)


def e_factor_constant_exact(p: int) -> Fraction:
    """The multiplier c/p of sigma_{p-2}(n) in E, for E_{p-1} = 1 + pE, c = -2(p-1)/B_{p-1}."""
    return e_normalizer_exact(p - 1) / p


def g_series_exact(k: int, precision: int) -> tuple:
    """Coefficients of G_k over the rationals: -B_k/2k, then sigma_{k-1}(n)."""
    return (g_constant_exact(k),) + tuple(
        Fraction(sigma_power(k - 1, n)) for n in range(1, precision + 1))


def e_series_exact(k: int, precision: int) -> tuple:
    """Coefficients of the normalized E_k over the rationals (E_0 = 1)."""
    if k == 0:
        return (Fraction(1),) + (Fraction(0),) * precision
    c = e_normalizer_exact(k)
    return (Fraction(1),) + tuple(c * sigma_power(k - 1, n) for n in range(1, precision + 1))


def e_factor_exact(p: int, precision: int) -> tuple:
    """Coefficients of E in E_{p-1} = 1 + pE over the rationals: c sigma_{p-2}(n) / p."""
    c = e_factor_constant_exact(p)
    return (Fraction(0),) + tuple(c * sigma_power(p - 2, n) for n in range(1, precision + 1))


def reduced(coeffs: tuple, ring: ResidueRing) -> QSeries:
    """The series with these p-integral rational coefficients, reduced into the ring."""
    return QSeries(ring, tuple(ring.reduce_rational(c) for c in coeffs), len(coeffs) - 1)


def inversion_sum_per_term(form, kstar: int, ring: ResidueRing, precision: int, alpha: int,
                           with_e_powers: bool) -> QSeries:
    """Series inversion oracle: sum_{r<m} H(m, alpha, r) form(r(p-1)+k*) [E_{p-1}^(alpha-r)],
    one `scale`, one binary power and one `+` per nonzero term, no power reduced."""
    p, m = ring.p, ring.m
    e = e_series(p - 1, ring, precision)
    total = QSeries(ring, (0,) * (precision + 1), precision)
    for r in range(m):
        h = h_coefficient(m, alpha, r)
        if h:
            term = form(r * (p - 1) + kstar, ring, precision).scale(h)
            total = total + (term * e.pow(alpha - r) if with_e_powers else term)
    return total


def inversion_report(statement_id: str, params: dict, form, kstar: int,
                     with_e_powers: bool) -> CongruenceReport:
    """Series inversion oracle, one point at a time: form(a(p-1)+k*) against
    sum_{r,i} H(m,a,r) C(a-r, i) form(r(p-1)+k*) D^i mod p^m, D = E_{p-1} - 1 (i = 0
    alone without powers), from a = m on; below it, form(a(p-1)+k*) against itself.

    The per-point path the checks took before they ran in blocks: every term
    and product built afresh for each point, the left side first, and the
    report from `_series_report`.
    """
    p, m, alpha, precision = params["p"], params["m"], params["alpha"], params["N"]
    ring = ResidueRing(p, m)
    weight = alpha * (p - 1) + kstar
    lhs = rhs = form(weight, ring, precision)
    if alpha >= m:
        powers = eisenstein._e_powers(ring, precision)[:m if with_e_powers else 1]
        terms = [form(r * (p - 1) + kstar, ring, precision) for r in range(m)]
        rhs = linear_combination(
            [h_coefficient(m, alpha, r) * comb(alpha - r, i) for r in range(m)
             for i in range(len(powers))],
            [term * power if i else term for term in terms for i, power in enumerate(powers)])
    return congruences._series_report(statement_id, params, lhs, rhs, precision,
                                      weight if with_e_powers else None)


def combination_per_column(scalars: list, vectors: list, modulus: int) -> tuple:
    """Linear-combination oracle: sum_i scalars[i] * vectors[i][n] modulo `modulus`, one
    column n at a time, through the shortest vector."""
    return tuple(sum(h * c for h, c in zip(scalars, column)) % modulus
                 for column in zip(*vectors))


def identity_sum_by_triple_products(m: int, j: int, s: int, alpha: int) -> int:
    """Prop. 3.2 oracle: sum_{r=s}^{m-1} C(alpha-r, j) H(m, alpha, r) H(m-j, r, s),
    one triple product per r, nothing cached."""
    return sum(gen_binomial(alpha - r, j) * h_coefficient(m, alpha, r) * h_coefficient(m - j, r, s)
               for r in range(s, m))


def telescope_f(m: int, j: int, s: int, alpha: int, r: int) -> int:
    """F(m, r) of the Eq. (3.3) certificate; a binomial with negative lower index is 0."""
    def c(top: int, k: int) -> int:
        return 0 if k < 0 else gen_binomial(top, k)

    return ((-1) ** (r + j + s) * c(alpha - r, j) * c(alpha - 1 - r, m - 1 - r) * c(alpha, r)
            * c(r - 1 - s, m - j - 1 - s) * c(r, s))


def telescope_g(m: int, j: int, s: int, alpha: int, r: int) -> Fraction:
    """G(r) = (s-r)(j+r-alpha) F(m, r) / (m-j-s), as an exact rational."""
    return Fraction((s - r) * (j + r - alpha) * telescope_f(m, j, s, alpha, r), m - j - s)


def telescope_lhs(m: int, j: int, s: int, alpha: int, r: int) -> int:
    """(alpha-m) F(m, r) + (m-s) F(m+1, r), the left side of Eq. (3.3)."""
    return ((alpha - m) * telescope_f(m, j, s, alpha, r)
            + (m - s) * telescope_f(m + 1, j, s, alpha, r))


def telescoping_by_fractions(m: int, j: int, s: int, alpha: int, r: int) -> bool:
    """Eq. (3.3) oracle: the left side against G(r) - G(r-1) over the rationals."""
    return (Fraction(telescope_lhs(m, j, s, alpha, r))
            == telescope_g(m, j, s, alpha, r) - telescope_g(m, j, s, alpha, r - 1))


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd oracle: returns (g, x, y) with a*x + b*y = g."""
    if b == 0:
        return (a, 1, 0)
    g, x, y = egcd(b, a % b)
    return (g, y, x - (a // b) * y)


def brute_force_solvable(matrix, rhs, modulus) -> bool:
    """Exhaustive solvability oracle for small systems over Z/modulus."""
    ncols = len(matrix[0]) if matrix else 0
    for vec in product(range(modulus), repeat=ncols):
        if all(
            sum(row[j] * vec[j] for j in range(ncols)) % modulus == b % modulus
            for row, b in zip(matrix, rhs)
        ):
            return True
    return False


def _fp_solve(matrix, rhs, p):
    """Gaussian elimination over F_p: (particular solution, nullspace basis) or None."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [[x % p for x in row] + [b % p] for row, b in zip(matrix, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if aug[i][c]), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        inv = pow(aug[r][c], -1, p)
        aug[r] = [x * inv % p for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if any(aug[i][ncols] for i in range(r, nrows)):
        return None
    x0 = [0] * ncols
    for i, c in enumerate(pivots):
        x0[c] = aug[i][ncols]
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for i, c in enumerate(pivots):
            v[c] = -aug[i][free] % p
        basis.append(v)
    return x0, basis


def solve_by_digit_lifting(matrix, rhs, p, m):
    """Independent solver oracle for A x = b (mod p^m).

    Solves one p-adic digit at a time over F_p; nullspace choices at each
    level become extra adjustment columns for the next level, which keeps
    the search complete. Entirely different algorithm from the production
    minimum-valuation elimination.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    level = _fp_solve(matrix, rhs, p)
    if level is None:
        return None
    x0, basis = level
    if m == 1:
        return [v % p for v in x0]
    residual = [
        (b - sum(row[j] * x0[j] for j in range(ncols))) // p
        for row, b in zip(matrix, rhs)
    ]
    width = [
        [sum(row[j] * n[j] for j in range(ncols)) // p for n in basis]
        for row in matrix
    ]
    augmented = [row[:] + wrow[:] for row, wrow in zip(matrix, width)]
    sub = solve_by_digit_lifting(augmented, residual, p, m - 1)
    if sub is None:
        return None
    y, c = sub[:ncols], sub[ncols:]
    mod = p**m
    return [
        (x0[j] + sum(basis[i][j] * c[i] for i in range(len(basis))) + p * y[j]) % mod
        for j in range(ncols)
    ]


def diagonalize(system: LinearSystem) -> Solution | NoSolution:
    """Solver oracle: the diagonalization `solve_mod_pm` did before its row echelon form.

    Diagonalization with global minimum-valuation pivoting: at each step the
    active entry with the least p-valuation becomes the pivot, its row is
    scaled by the unit inverse (pivot becomes p^e), and its column and row
    are cleared. All eliminations divide exactly because the pivot valuation
    is minimal, so solvability is decided correctly despite zero divisors.
    Column operations are tracked to map the diagonal solution back. It picks
    the same pivots as `solve_mod_pm`, so the two outcomes are equal under
    `==`, vectors and NoSolution details alike.
    """
    ring = system.ring
    p, m, mod = ring.p, ring.m, ring.modulus
    nrows = len(system.matrix)
    ncols = len(system.matrix[0]) if nrows else 0
    M = [list(row) for row in system.matrix]
    b = list(system.rhs)
    # x = X @ y where y solves the diagonalized system
    X = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    pivot_exponents: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        best = None
        best_v = m
        for i in range(t, nrows):
            row = M[i]
            for j in range(t, ncols):
                if row[j]:
                    v = ring.valuation(row[j])
                    if v < best_v:
                        best_v, best = v, (i, j)
                        if v == 0:
                            break
            if best_v == 0:
                break
        if best is None:
            break
        i0, j0 = best
        M[t], M[i0] = M[i0], M[t]
        b[t], b[i0] = b[i0], b[t]
        if j0 != t:
            for row in M:
                row[t], row[j0] = row[j0], row[t]
            for row in X:
                row[t], row[j0] = row[j0], row[t]
        e = best_v
        pe = p**e
        uinv = pow(M[t][t] // pe, -1, mod)
        M[t] = [x * uinv % mod for x in M[t]]
        b[t] = b[t] * uinv % mod
        for i in range(nrows):
            if i != t and M[i][t]:
                f = M[i][t] // pe
                row, prow = M[i], M[t]
                for j in range(t, ncols):
                    row[j] = (row[j] - f * prow[j]) % mod
                b[i] = (b[i] - f * b[t]) % mod
        for j in range(t + 1, ncols):
            if M[t][j]:
                f = M[t][j] // pe
                # column t is zero outside row t, so col_j -= f*col_t only
                # touches M[t][j]
                M[t][j] = 0
                for i in range(ncols):
                    X[i][j] = (X[i][j] - f * X[i][t]) % mod
        pivot_exponents.append(e)
        t += 1
    for i in range(t, nrows):
        if b[i] % mod:
            return NoSolution("inconsistent-row", {"row": i, "residue": b[i]})
    y = [0] * ncols
    for i, e in enumerate(pivot_exponents):
        pe = p**e
        if b[i] % pe:
            return NoSolution(
                "valuation-obstruction",
                {"pivot": i, "pivot-valuation": e, "rhs-valuation": ring.valuation(b[i])},
            )
        y[i] = b[i] // pe
    x = tuple(sum(X[i][j] * y[j] for j in range(ncols)) % mod for i in range(ncols))
    return Solution(x)


def monomials_by_search(weight: int) -> list[tuple[int, int, int]]:
    """Monomial oracle: the exponents (a, b, c) with 4a + 6b + 12c = weight and
    b in {0, 1}, found by trying every c with 12c <= weight in turn."""
    out = []
    c = 0
    while 12 * c <= weight:
        rem = weight - 12 * c
        b = 1 if rem % 4 == 2 else 0
        rem -= 6 * b
        if rem >= 0:
            out.append((rem // 4, b, c))
        c += 1
    return out


@lru_cache(maxsize=None)
def _witness_matrix(ring: ResidueRing, w: int, n: int, upto: int) -> tuple[BasisMatrix, tuple]:
    """The weight-w basis and the rows of the columns E_{p-1}^n * M_j through q^upto.

    Memoized: the solver tests solve one matrix against many right sides.
    """
    bm = basis(w, ring, upto)
    epow = e_series(ring.p - 1, ring, upto).pow(n)
    cols = [epow * col for col in bm.columns]
    return bm, tuple(tuple(col.coefficient(i) for col in cols) for i in range(upto + 1))


def _witness_system(f: QSeries, k: int, w: int, upto: int) -> tuple[LinearSystem, BasisMatrix, int]:
    """Oracle system for the filtration search: columns E_{p-1}^n * M_j, rhs f.

    Built the direct way, with E_{p-1}^n multiplied into every monomial
    column, for `solve_mod_pm` to solve.
    """
    ring = f.ring
    n = _check_weight_match(k, w, ring.p)
    bm, rows = _witness_matrix(ring, w, n, upto)
    rhs = [f.coefficient(i) for i in range(upto + 1)]
    return LinearSystem.build(ring, rows, rhs), bm, n


def filtration_by_search(f: QSeries, k: int, upto: int | None = None,
                         input_id: str | None = None) -> tuple[FiltrationReport | None, dict]:
    """Filtration oracle: the ascending candidate search, one whole basis per weight.

    Tries w = k mod (p-1), w + (p-1), ..., k in turn. At each w it writes
    h = f E_{p-1}^(-n) in the full weight-w monomial basis by forward
    substitution, with E_{p-1}^(-n) a binary power of E_{p-1} read at
    -n mod p^(m-1) and each next h the last times E_{p-1}; weight 2 is the
    empty space. Returns the report `factor_filtration_bound` should give,
    None when no weight is solvable, and the outcome at every candidate weight.
    """
    certification = "sturm-certified" if upto is None else f"coefficient-evidence({upto + 1})"
    upto = sturm_bound(k) if upto is None else upto
    ring, p = f.ring, f.ring.p
    e = e_series(p - 1, ring, upto)
    h, report, outcomes = None, None, {}
    for w in range(k % (p - 1), k + 1, p - 1):
        n = (k - w) // (p - 1)
        if w == 2:
            outcomes[w] = NoSolution("empty-space", {"weight": 2})
            continue
        h = f * e.pow(-n % p ** (ring.m - 1)) if h is None else h * e
        bm = basis(w, ring, upto)
        rest, coeffs = h, []
        for j, col in enumerate(bm.columns):
            c = rest.coeffs[j] if j <= upto else 0
            if c:
                rest = rest - col.scale(c)
            coeffs.append(c)
        row = next((i for i, c in enumerate(rest.coeffs) if c), None)
        outcomes[w] = Solution(tuple(coeffs)) if row is None else NoSolution(
            "inconsistent-row", {"row": row, "residue": rest.coeffs[row]})
        if outcomes[w] and report is None:
            below = w - (p - 1)
            sharpness = f"NoSolution at weight {below}" if below >= 0 and below != 2 else None
            report = FiltrationReport(input_id or f"weight-{k}-series", p, ring.m, k, w, n,
                                      bm.monomials, tuple(coeffs), certification, upto + 1,
                                      sharpness)
    return report, outcomes


@pytest.fixture
def cold_bernoulli(monkeypatch):
    """An empty memo beyond the seeds, no memoized 1/pi, and no memoized k/B_k scan term."""
    monkeypatch.setattr(exact, "_BERNOULLI_MEMO", {k: exact._BERNOULLI_MEMO[k] for k in (0, 1, 2)})
    monkeypatch.setattr(exact, "_INVERSE_PI", (0, 0))
    congruences._k_over_bernoulli.cache_clear()


@pytest.fixture
def rng():
    import random

    return random.Random(20260810)
