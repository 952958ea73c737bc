"""Shared test helpers: independent oracles kept away from the code they check."""

from fractions import Fraction
from itertools import product
from math import comb

import pytest

from eiscong.eisenstein import e_series
from eiscong.filtration import BasisMatrix, LinearSystem, _check_weight_match, basis
from eiscong.series import QSeries


def bernoulli_by_recurrence(n: int) -> Fraction:
    """Independent Bernoulli oracle: solve sum_{j=0}^{n} C(n+1, j) B_j = 0 upward.

    Deliberately naive rational arithmetic; used to validate the production
    tangent-number path.
    """
    values = [Fraction(1)]
    for k in range(1, n + 1):
        acc = sum(comb(k + 1, j) * values[j] for j in range(k))
        values.append(Fraction(-acc, k + 1))
    return values[n]


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


def _witness_system(f: QSeries, k: int, w: int, upto: int) -> tuple[LinearSystem, BasisMatrix, int]:
    """Oracle system for the filtration search: columns E_{p-1}^n * M_j, rhs f.

    Built the direct way, with E_{p-1}^n multiplied into every monomial
    column, for `solve_mod_pm` to solve.
    """
    ring = f.ring
    n = _check_weight_match(k, w, ring.p)
    bm = basis(w, ring, upto)
    epow = e_series(ring.p - 1, ring, upto).pow(n)
    cols = [epow * col for col in bm.columns]
    rows = [[col.coefficient(i) for col in cols] for i in range(upto + 1)]
    rhs = [f.coefficient(i) for i in range(upto + 1)]
    return LinearSystem.build(ring, rows, rhs), bm, n


@pytest.fixture
def rng():
    import random

    return random.Random(20260810)
