"""The residue ring Z/p^m.

Its elements are plain canonical ints in [0, p^m); the ring reduces
p-integral rationals into them once, inverts units and measures valuations.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotAUnitError, NotPIntegralError
from .exact import _int_valuation

__all__ = ["ResidueRing", "is_prime"]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13 of OEIS A014233: the least odd composite that is a strong probable
# prime to every base above, so the test is proven exactly below it.
_MR_PROVEN_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first 13 prime bases, proven for
    n < 3317044064679887385961981; any larger n raises ValueError."""
    if n >= _MR_PROVEN_BELOW:
        raise ValueError(f"primality is proven only below {_MR_PROVEN_BELOW}, got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
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


# Shared by the package's __slots__ value types.
def _frozen(self, name: str, value=None):
    raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")


def _equal_slots(self, other) -> bool:
    return type(other) is type(self) and all(
        getattr(self, name) == getattr(other, name) for name in self.__slots__)


class ResidueRing:
    """Z/p^m for a prime p >= 5 and m >= 1.

    Immutable, and interned: ResidueRing(p, m) returns the one ring of that
    (p, m), so a ring equals and hashes by identity; copy, deepcopy and
    unpickling call ResidueRing(p, m) too, and give back that same ring.
    """

    __slots__ = ("p", "m", "modulus")
    _interned: dict = {}

    def __new__(cls, p: int, m: int) -> "ResidueRing":
        ring = cls._interned.get((p, m))
        if ring is None:
            if m < 1:
                raise ValueError("m must be at least 1")
            if p < 5 or not is_prime(p):
                raise ValueError(f"p must be a prime >= 5, got {p}")
            ring = object.__new__(cls)
            for name, value in zip(cls.__slots__, (p, m, p**m)):
                object.__setattr__(ring, name, value)
            cls._interned[p, m] = ring
        return ring

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self) -> tuple:
        return ResidueRing, (self.p, self.m)

    def __repr__(self) -> str:
        return f"ResidueRing(p={self.p}, m={self.m})"

    def reduce_rational(self, x: Fraction | int) -> int:
        """Canonical residue of a p-integral rational modulo p^m."""
        if isinstance(x, int):
            return x % self.modulus
        return self.reduce_quotient(x.numerator, x.denominator)

    def reduce_quotient(self, numerator: int, denominator: int) -> int:
        """Canonical residue of the p-integral quotient numerator/denominator modulo p^m.

        The powers of p the two share cancel first, so neither need be reduced;
        a p left in the denominator raises NotPIntegralError.
        """
        p, modulus = self.p, self.modulus
        if not denominator:
            raise ZeroDivisionError(f"{numerator}/0 has no residue mod {p}^{self.m}")
        while not denominator % p:
            if numerator % p:
                raise NotPIntegralError(f"{numerator}/{denominator} has p = {p} in its "
                                        f"denominator; not reducible mod {p}^{self.m}")
            numerator, denominator = numerator // p, denominator // p
        return numerator % modulus * pow(denominator % modulus, -1, modulus) % modulus

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
