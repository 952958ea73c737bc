"""Exception types shared across the package."""


class EiscongError(Exception):
    """Base class for all package-specific errors."""


class NotPIntegralError(EiscongError):
    """A rational with p in its denominator cannot be reduced modulo p^m."""


class NotAUnitError(EiscongError):
    """Attempted to invert a residue divisible by p."""


class RingMismatchError(EiscongError):
    """Operands live in different residue rings."""


class PrecisionTooLowError(EiscongError):
    """A coefficient beyond a series' declared precision was requested."""


class MOutOfRangeError(EiscongError):
    """Prime-power exponent m outside the range a statement requires."""


class DNotCoprimeError(EiscongError):
    """The integer d must be coprime to p."""


class ParameterOutOfRangeError(EiscongError):
    """A combinatorial parameter violates its stated range."""


class BudgetExceededError(EiscongError):
    """A computation would exceed the configured resource budget."""


class OddWeightError(EiscongError):
    """Modular form weights must be even."""


class QuasimodularWeightError(EiscongError):
    """Weight 2 has no modular form space at level one."""


class WeightMismatchError(EiscongError):
    """Candidate weight is incompatible with the form's weight modulo p-1."""


class CacheFormatError(EiscongError):
    """A Bernoulli cache line is malformed or holds a value no B_k can have."""
