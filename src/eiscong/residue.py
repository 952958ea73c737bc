"""The residue ring Z/p^m.

Its elements are plain canonical ints in [0, p^m); the ring reduces
p-integral rationals into them once, inverts units and measures valuations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotAUnitError, NotPIntegralError
from .exact import _int_valuation

__all__ = ["ResidueRing", "is_prime"]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class ResidueRing:
    """Z/p^m for a prime p >= 5 and m >= 1."""

    p: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.p < 5 or not is_prime(self.p):
            raise ValueError(f"p must be a prime >= 5, got {self.p}")

    @property
    def modulus(self) -> int:
        return self.p**self.m

    def reduce_rational(self, x: Fraction | int) -> int:
        """Canonical residue of a p-integral rational modulo p^m."""
        if isinstance(x, int):
            return x % self.modulus
        if x.denominator % self.p == 0:
            raise NotPIntegralError(
                f"{x} has p = {self.p} in its denominator; not reducible mod {self.p}^{self.m}"
            )
        return x.numerator * pow(x.denominator, -1, self.modulus) % self.modulus

    def invert(self, x: int) -> int:
        if x % self.p == 0:
            raise NotAUnitError(f"{x} is divisible by {self.p}; not a unit mod {self.p}^{self.m}")
        return pow(x, -1, self.modulus)

    def valuation(self, x: int) -> int:
        """nu_p of the canonical representative; m for the zero residue."""
        x %= self.modulus
        if x == 0:
            return self.m
        return _int_valuation(x, self.p)
