"""Truncated q-expansions with explicit precision tracking.

A QSeries holds the coefficients of q^0 .. q^precision as canonical residues
in a ResidueRing. Reading past the declared precision raises instead of
returning zero, and every binary operation propagates the minimum precision
of its operands.

Products use Kronecker substitution: each coefficient vector is packed into
one integer and CPython's subquadratic big-int multiply does the convolution.
Linear combinations pack their terms the same way (`_slotwise`), so a sum of
t scaled series is t big-int multiply-adds.
"""

from __future__ import annotations

import sys
from array import array
from operator import mul
from typing import Callable

from .errors import PrecisionTooLowError, RingMismatchError
from .residue import ResidueRing, _equal_slots, _frozen

__all__ = ["CongruenceVerdict", "QSeries", "linear_combination", "series_equal_mod"]


class CongruenceVerdict:
    """Outcome of a coefficient-wise comparison through q^upto."""

    __slots__ = ("ok", "upto", "first_index", "lhs", "rhs")

    def __init__(self, ok: bool, upto: int, first_index: int | None = None,
                 lhs: int | None = None, rhs: int | None = None) -> None:
        self.ok, self.upto, self.first_index, self.lhs, self.rhs = ok, upto, first_index, lhs, rhs

    def __bool__(self) -> bool:
        return self.ok


class QSeries:
    """Immutable: the lru_cache tables of `eisenstein` hand one instance to every caller."""

    __slots__ = ("ring", "coeffs", "precision")

    def __init__(self, ring: ResidueRing, coeffs: tuple, precision: int) -> None:
        if precision < 0:
            raise ValueError("precision must be non-negative")
        if len(coeffs) != precision + 1:
            raise ValueError("coefficient vector must have length precision+1")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "precision", precision)

    __setattr__ = __delattr__ = _frozen
    __eq__ = _equal_slots

    # -- constructors -------------------------------------------------------

    @staticmethod
    def residue(ring: ResidueRing, coeffs, precision: int | None = None) -> "QSeries":
        mod = ring.modulus
        coeffs = tuple([c % mod for c in coeffs])
        if precision is None:
            precision = len(coeffs) - 1
        return QSeries(ring, coeffs, precision)

    @staticmethod
    def one(ring: ResidueRing, precision: int) -> "QSeries":
        return QSeries(ring, (1,) + (0,) * precision, precision)

    # -- accessors ----------------------------------------------------------

    def coefficient(self, n: int):
        if n < 0:
            raise ValueError("coefficient index must be non-negative")
        if n > self.precision:
            raise PrecisionTooLowError(
                f"coefficient q^{n} requested but precision is {self.precision}"
            )
        return self.coeffs[n]

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "QSeries") -> int:
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} != {other.ring}")
        return min(self.precision, other.precision)

    def __add__(self, other: "QSeries") -> "QSeries":
        prec = self._check_compatible(other)
        mod = self.ring.modulus
        coeffs = tuple([(self.coeffs[i] + other.coeffs[i]) % mod for i in range(prec + 1)])
        return QSeries(self.ring, coeffs, prec)

    def __sub__(self, other: "QSeries") -> "QSeries":
        prec = self._check_compatible(other)
        mod = self.ring.modulus
        coeffs = tuple([(self.coeffs[i] - other.coeffs[i]) % mod for i in range(prec + 1)])
        return QSeries(self.ring, coeffs, prec)

    def __mul__(self, other: "QSeries") -> "QSeries":
        prec = self._check_compatible(other)
        coeffs = _kronecker_product(self.coeffs, None if self is other else other.coeffs,
                                    prec + 1, self.ring.modulus)
        return QSeries(self.ring, coeffs, prec)

    def scale(self, scalar: int) -> "QSeries":
        """Multiply every coefficient by an integer scalar."""
        mod = self.ring.modulus
        return QSeries(self.ring, tuple(c * scalar % mod for c in self.coeffs), self.precision)

    def pow(self, n: int) -> "QSeries":
        """Binary exponentiation; a^0 is the constant series 1."""
        if n < 0:
            raise ValueError("exponent must be non-negative")
        result = QSeries.one(self.ring, self.precision)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "p": self.ring.p,
            "m": self.ring.m,
            "precision": self.precision,
            "coefficients": [str(c) for c in self.coeffs],
        }


def linear_combination(scalars: list[int], terms: list[QSeries]) -> QSeries:
    """sum_i scalars[i] * terms[i] over one or more terms, through their least precision.

    The scalars are any integers. Once they are reduced, each coefficient of
    the sum before its reduction is at most t (modulus-1)^2 for t terms, below
    2**(2 bits(modulus-1) + bits(t)); slots that wide never carry, so t
    multiply-adds of the packed terms form every coefficient at once.
    """
    prec = min(terms[0]._check_compatible(term) for term in terms)
    mod = terms[0].ring.modulus
    scalars = [h % mod for h in scalars]
    coeffs = _slotwise([term.coeffs[:prec + 1] for term in terms],
                       2 * (mod - 1).bit_length() + len(terms).bit_length(),
                       lambda *packed: sum(map(mul, scalars, packed)), prec + 1, mod)
    return QSeries(terms[0].ring, coeffs, prec)


# Unsigned array types, narrowest first. Slots that fit one of them are packed
# and unpacked by the array module in C rather than one coefficient at a time.
_ARRAY_TYPES = sorted((array(code).itemsize, code) for code in "BHIQ")


def _kronecker_product(a: tuple, b: tuple | None, n: int, modulus: int) -> tuple:
    """Coefficients q^0 .. q^(n-1) of a*b modulo `modulus`; b=None squares a.

    A product coefficient before reduction is a sum of at most n terms, each
    at most (modulus-1)^2, so it fits a slot of 2 bits(modulus-1) + bits(n)
    bits and no slot carries into the next: one integer multiply computes the
    whole convolution, whose 2n-1 slots `_slotwise` cuts to n.
    """
    bits = 2 * (modulus - 1).bit_length() + n.bit_length()
    if b is None:
        return _slotwise([a[:n]], bits, lambda x: x * x, 2 * n - 1, modulus)
    return _slotwise([a[:n], b[:n]], bits, mul, 2 * n - 1, modulus)


def _slotwise(vectors: list, bits: int, combine: Callable[..., int], slots: int,
              modulus: int) -> tuple:
    """Slots 0 .. n-1 of combine(*packed), each reduced modulo `modulus`, n the vectors' length.

    Each vector of canonical residues is packed into one integer, its i-th in
    slot i of at least `bits` bits; `combine`, a product or a sum of products
    of them whose slots each stay below 2**bits, fills `slots` slots. Slots of
    up to 8 bytes widen to the narrowest array item that holds them, so the
    array module packs and unpacks them in C; wider ones go through bytes.
    """
    n, width = len(vectors[0]), (bits + 7) // 8
    for size, code in _ARRAY_TYPES:
        if width <= size:
            z = combine(*[int.from_bytes(array(code, v), sys.byteorder) for v in vectors])
            items = array(code, z.to_bytes(slots * size, sys.byteorder))
            return tuple([c % modulus for c in items[:n]])
    z = combine(*[int.from_bytes(b"".join([c.to_bytes(width, "little") for c in v]), "little")
                  for v in vectors])
    data = z.to_bytes(slots * width, "little")
    return tuple([int.from_bytes(data[i : i + width], "little") % modulus
                  for i in range(0, n * width, width)])


def series_equal_mod(a: QSeries, b: QSeries, upto: int) -> CongruenceVerdict:
    """Coefficient-wise comparison through q^upto.

    Both series must carry at least that much declared precision; a shortfall
    is an error, never a silent pass.
    """
    if a.ring != b.ring:
        raise RingMismatchError(f"{a.ring} != {b.ring}")
    if a.precision < upto or b.precision < upto:
        raise PrecisionTooLowError(
            f"comparison through q^{upto} needs precision >= {upto}; "
            f"have {a.precision} and {b.precision}"
        )
    for n in range(upto + 1):
        if a.coeffs[n] != b.coeffs[n]:
            return CongruenceVerdict(False, upto, n, a.coeffs[n], b.coeffs[n])
    return CongruenceVerdict(True, upto)
