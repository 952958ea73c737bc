"""Truncated q-expansions with explicit precision tracking.

A QSeries holds the coefficients of q^0 .. q^precision as canonical residues
in a ResidueRing. Reading past the declared precision raises instead of
returning zero, and every binary operation propagates the minimum precision
of its operands.

Products use Kronecker substitution: each coefficient vector is packed into
one integer and CPython's subquadratic big-int multiply does the convolution.
A `PackedFamily` packs its terms the same way (`_pack`), once, so each sum of
the t terms scaled is t big-int multiply-adds and one unpack (`_unpack`).
"""

from __future__ import annotations

import sys
from array import array
from operator import mul

from .errors import PrecisionTooLowError, RingMismatchError
from .residue import ResidueRing, _equal_slots, _frozen

__all__ = ["CongruenceVerdict", "PackedFamily", "QSeries", "linear_combination",
           "series_equal_mod"]


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

    def __reduce__(self) -> tuple:
        return QSeries, (self.ring, self.coeffs, self.precision)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def residue(ring: ResidueRing, coeffs) -> "QSeries":
        mod = ring.modulus
        coeffs = tuple([c % mod for c in coeffs])
        return QSeries(ring, coeffs, len(coeffs) - 1)

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


class PackedFamily:
    """Series of one ring packed once, through their least precision, to be combined many times.

    Once reduced, each coefficient of a sum of the t terms scaled is at most
    t (modulus-1)^2 before its reduction, below 2**(2 bits(modulus-1) + bits(t));
    slots that wide never carry, so `combine` forms every coefficient at once
    from t multiply-adds of the packed terms.
    """

    __slots__ = ("ring", "precision", "packed", "slot")

    def __init__(self, terms: list[QSeries]) -> None:
        prec = min(terms[0]._check_compatible(term) for term in terms)
        ring = terms[0].ring
        self.ring, self.precision = ring, prec
        self.slot = _slot(2 * (ring.modulus - 1).bit_length() + len(terms).bit_length())
        self.packed = [_pack(term.coeffs[:prec + 1], self.slot) for term in terms]

    def combine(self, scalars: list[int]) -> QSeries:
        """sum_i scalars[i] * terms[i], for any integer scalars, one per term."""
        mod = self.ring.modulus
        total = sum(map(mul, [h % mod for h in scalars], self.packed))
        return QSeries(self.ring, _unpack(total, self.precision + 1, self.precision + 1,
                                          self.slot, mod), self.precision)


def linear_combination(scalars: list[int], terms: list[QSeries]) -> QSeries:
    """sum_i scalars[i] * terms[i] over one or more terms, through their least precision."""
    return PackedFamily(terms).combine(scalars)


# Unsigned array types, narrowest first. Slots that fit one of them are packed
# and unpacked by the array module in C rather than one coefficient at a time;
# a slot widens to the narrowest item that holds it.
_ARRAY_TYPES = sorted((array(code).itemsize, code) for code in "BHIQ")


def _kronecker_product(a: tuple, b: tuple | None, n: int, modulus: int) -> tuple:
    """Coefficients q^0 .. q^(n-1) of a*b modulo `modulus`; b=None squares a.

    A product coefficient before reduction is a sum of at most n terms, each
    at most (modulus-1)^2, so it fits a slot of 2 bits(modulus-1) + bits(n)
    bits and no slot carries into the next: one integer multiply computes the
    whole convolution, whose 2n-1 slots `_unpack` cuts to n.
    """
    slot = _slot(2 * (modulus - 1).bit_length() + n.bit_length())
    x = _pack(a[:n], slot)
    z = x * x if b is None else x * _pack(b[:n], slot)
    return _unpack(z, n, 2 * n - 1, slot, modulus)


def _slot(bits: int) -> tuple[int, str | None]:
    """Bytes and array code of the narrowest slot of `bits` bits; code None, through bytes, past 8."""
    width = (bits + 7) // 8
    return next(((size, code) for size, code in _ARRAY_TYPES if width <= size), (width, None))


def _pack(vector, slot: tuple[int, str | None]) -> int:
    """Canonical residues packed into one integer, the i-th in slot i."""
    width, code = slot
    if code:
        return int.from_bytes(array(code, vector), sys.byteorder)
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in vector]), "little")


def _unpack(z: int, n: int, slots: int, slot: tuple[int, str | None], modulus: int) -> tuple:
    """Slots 0 .. n-1 of a non-negative z of `slots` slots, each reduced modulo `modulus`."""
    width, code = slot
    if code:
        items = array(code, z.to_bytes(slots * width, sys.byteorder))
        return tuple([c % modulus for c in items[:n]])
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
    if a.coeffs[:upto + 1] == b.coeffs[:upto + 1]:
        return CongruenceVerdict(True, upto)
    n = next(n for n in range(upto + 1) if a.coeffs[n] != b.coeffs[n])
    return CongruenceVerdict(False, upto, n, a.coeffs[n], b.coeffs[n])
