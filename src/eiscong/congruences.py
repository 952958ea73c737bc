"""Exact verifiers for the congruence families between Eisenstein series.

Series statements are checked coefficient-wise in Z/p^m; rational statements
are checked by exact evaluation followed by a p-adic valuation test. Nothing
here is probabilistic.

Most statements compare a value at alpha with its H-weighted history, summed
over the r of `_inversion_support`, H(m, alpha, .) from one cached row.
`inversion_rows` does it for series, one block of alphas at a fixed
(p, m, k*, N) at a time: Thm 1.1, Thm 1.2 and the Eq. (6.1) scan (each term
times E_{p-1}^(alpha-r)), Props 3.1 and 4.2 (no powers), each alpha one
combination of the block's packed table, so a record makes no series product.
Their check functions are its one-alpha block. It builds each left side
first, so an error names the weight alpha(p-1)+k*. Its callers pass
`g_series`/`e_series`, and `eisenstein` builds D = E_{p-1} - 1 from
`e_series`, all read as module globals at call time, so a tracer that rebinds
them sees every call. `_inversion_defect` does it for rationals, exactly: the
inversion identity, and the failures of the valuation tests. Those tests,
Prop 4.1, Eq. (3.1), the Eq. (6.4) scan and p-regular recovery, go through
`_inversion_defect_mod`, which sums the terms' residues modulo p^m first and
builds the exact defect only when that cannot prove the pass. The scan's
terms k/B_k are memoized across its grid.

The Prop. 3.2 box runs in blocks of alphas at fixed (m, j, s): a sum's terms,
a cached row times the block's column, are the F(m, r) of the Eq. (3.3)
certificate, which `_certificate` reads off the m and m+1 rows and columns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Callable, Iterable, Iterator

from .errors import (
    BudgetExceededError,
    DNotCoprimeError,
    MOutOfRangeError,
    ParameterOutOfRangeError,
)
from .exact import bernoulli, h_coefficient, int_str, padic_valuation
from .eisenstein import _e_powers, e_series, g_series
from .filtration import sturm_bound
from .residue import ResidueRing, _equal_slots
from .series import PackedFamily, QSeries, series_equal_mod

__all__ = [
    "CongruenceReport",
    "RegularityVerdict",
    "check_bernoulli_prop41",
    "check_dpower_congruence",
    "check_eq14",
    "check_eq16",
    "check_kummer",
    "check_p_regular",
    "check_prop_ek_fixed",
    "check_prop_gk_fixed",
    "check_sum_recurrence",
    "check_sun97",
    "check_sun97_at",
    "check_telescoping",
    "check_thm_ek",
    "check_thm_gk",
    "combin_identity_sum",
    "constant_function",
    "dpower_function",
    "inversion_identity_holds",
    "inversion_reads",
    "inversion_rows",
    "prop21_recovery_holds",
    "scale_function",
    "scan_conjecture_bernoulli",
    "scan_conjecture_ek_series",
    "sun_bernoulli_function",
    "times_p_function",
]

DEFAULT_BERNOULLI_BUDGET = 4000

IntegerSequenceFunction = Callable[[int], Fraction]


class CongruenceReport:
    """Structured verdict for one congruence statement at one parameter point."""

    __slots__ = ("statement_id", "params", "verdict", "failure_detail", "certification")

    def __init__(self, statement_id: str, params: dict, verdict: str,  # "Pass" | "Fail"
                 failure_detail: dict | None = None,
                 certification: str = "coefficient-evidence") -> None:
        self.statement_id, self.params, self.verdict = statement_id, params, verdict
        self.failure_detail, self.certification = failure_detail, certification

    __eq__ = _equal_slots

    @property
    def passed(self) -> bool:
        return self.verdict == "Pass"

    def to_json_dict(self) -> dict:
        return {
            "statement-id": self.statement_id,
            "params": dict(self.params),
            "verdict": self.verdict,
            "failure-detail": self.failure_detail,
            "certification": self.certification,
        }


def _certification(upto: int, shared_weight: int | None) -> str:
    """A series comparison's label: sturm-certified when both sides have the shared
    weight and upto reaches its Sturm index, coefficient-evidence otherwise."""
    if shared_weight is not None and upto >= sturm_bound(shared_weight):
        return "sturm-certified"
    return "coefficient-evidence"


def _series_report(statement_id: str, params: dict, lhs: QSeries, rhs: QSeries,
                   upto: int, shared_weight: int | None) -> CongruenceReport:
    verdict = series_equal_mod(lhs, rhs, upto)
    cert = _certification(upto, shared_weight)
    if verdict.ok:
        return CongruenceReport(statement_id, params, "Pass", None, cert)
    detail = {
        "first-failing-index": verdict.first_index,
        "lhs": str(verdict.lhs),
        "rhs": str(verdict.rhs),
    }
    return CongruenceReport(statement_id, params, "Fail", detail, cert)


def _valuation_report(statement_id: str, params: dict, difference: Fraction | int,
                      p: int, required: int) -> CongruenceReport:
    v = padic_valuation(difference, p)
    if v >= required:
        return CongruenceReport(statement_id, params, "Pass", None, "coefficient-evidence")
    text = int_str(difference.numerator)
    if difference.denominator != 1:
        text += f"/{int_str(difference.denominator)}"
    detail = {"valuation": v, "required": required, "difference": text}
    return CongruenceReport(statement_id, params, "Fail", detail, "coefficient-evidence")


# ---------------------------------------------------------------------------
# The inversion formula  f(alpha) = sum_{r<m} H(m, alpha, r) f(r)  (mod p^m)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _h_row(m: int, alpha: int) -> tuple[int, ...]:
    """H(m, alpha, r) for r = 0 .. m-1."""
    return tuple(h_coefficient(m, alpha, r) for r in range(m))


def _inversion_support(m: int, alpha: int) -> range:
    """The r where H(m, alpha, r) is nonzero: every r < m from alpha = m on, else alpha."""
    return range(m) if alpha >= m else range(alpha, alpha + 1)


def inversion_reads(point: dict, with_e_powers: bool) -> list[int]:
    """The Bernoulli indices the inversion check at a point (p, m, alpha, k* or else 0)
    may read: its weight's, each term's, and from alpha = m on B_{p-1} for E_{p-1} powers,
    which are built (as powers of D = E_{p-1} - 1) only from m = 2 on."""
    p, m, alpha, kstar = point["p"], point["m"], point["alpha"], point.get("kstar", 0)
    top, support = alpha * (p - 1) + kstar, _inversion_support(m, alpha)
    if alpha in support:  # below m, the one term is the left side
        return [top]
    powers = [p - 1] if with_e_powers and m > 1 else []
    return [top, *(r * (p - 1) + kstar for r in support), *powers]


# A grid block, fixed (form, k*, p, m, precision, powers), shares one table
# across its alphas from alpha = m on; a thm-grid run fills 16.
@lru_cache(maxsize=64)
def _block_table(form: Callable, kstar: int, ring: ResidueRing, precision: int,
                 with_e_powers: bool) -> PackedFamily:
    """form(r(p-1)+k*) D^i for r < m and i < m (i = 0 alone without powers), packed.

    D = E_{p-1} - 1; its powers come from `eisenstein`, which builds D only
    from m = 2 on. m(m-1) products, plus m-2 for D^i.
    """
    forms = [form(r * (ring.p - 1) + kstar, ring, precision) for r in range(ring.m)]
    if not with_e_powers:
        return PackedFamily(forms)
    powers = _e_powers(ring, precision)
    return PackedFamily([f * e if i else f for f in forms for i, e in enumerate(powers)])


def inversion_rows(statement_id: str, params: dict, form: Callable, kstar: int,
                   alphas: Iterable[int], with_e_powers: bool
                   ) -> Iterator[tuple[int, CongruenceReport | None]]:
    """Each alpha of a block at params (p, m, N, k* where the statement has one), with
    None when form(a(p-1)+k*) = sum_r H(m,a,r) form(r(p-1)+k*) [E_{p-1}^(a-r)] mod p^m
    through q^N, and its Fail report otherwise.

    Below a = m the sum is its one term, form(a(p-1)+k*) itself. From a = m
    on, a - r > 0, and E_{p-1}^(a-r) = sum_{i<m} C(a-r, i) D^i mod p^m for
    D = E_{p-1} - 1 by the binomial theorem (D^m is 0), so the sum is
    sum_{r,i} H(m,a,r) C(a-r, i) form(r(p-1)+k*) D^i: m^2 scalars, one
    combination of the block's packed table (`_block_table`), read once at
    the first such a, and no series product. Props 3.1 and 4.2 take every
    power as 1, the i = 0 terms alone. Each left side is built first.
    """
    p, m, precision = params["p"], params["m"], params["N"]
    ring, table = ResidueRing(p, m), None
    powers = range(m if with_e_powers else 1)
    for alpha in alphas:
        weight = alpha * (p - 1) + kstar
        lhs = form(weight, ring, precision)
        if alpha < m:
            yield alpha, None
            continue
        if table is None:
            table = _block_table(form, kstar, ring, precision, with_e_powers)
        h = _h_row(m, alpha)
        rhs = table.combine([h[r] * math.comb(alpha - r, i) for r in range(m) for i in powers])
        yield alpha, None if lhs.coeffs == rhs.coeffs else _series_report(
            statement_id, dict(params, alpha=alpha), lhs, rhs, precision,
            weight if with_e_powers else None)


def _inversion_check(statement_id: str, params: dict, form: Callable, kstar: int,
                     with_e_powers: bool) -> CongruenceReport:
    """The report of `inversion_rows` on the one-alpha block of params."""
    alpha, precision = params["alpha"], params["N"]
    [(_, report)] = inversion_rows(statement_id, params, form, kstar, (alpha,), with_e_powers)
    weight = alpha * (params["p"] - 1) + kstar
    return report or CongruenceReport(statement_id, params, "Pass", None, _certification(
        precision, weight if with_e_powers else None))


def _inversion_defect(f: IntegerSequenceFunction, m: int, alpha: int) -> Fraction:
    """f(alpha) minus its H-weighted history sum_{r<m} H(m, alpha, r) f(r), exactly."""
    h = _h_row(m, alpha)
    return Fraction(f(alpha)) - sum(h[r] * Fraction(f(r)) for r in _inversion_support(m, alpha))


def _inversion_defect_mod(f: IntegerSequenceFunction, p: int, m: int,
                          alpha: int) -> Fraction | int:
    """`_inversion_defect` as a valuation test at m reads it: 0 when its residue mod p^m is 0.

    When every term f(r) is p-integral, so is the defect, and a residue of 0
    is exactly nu_p >= m. The terms' numerators and denominators are then
    reduced mod p^m and summed with the H row as one fraction, whose
    denominator is a unit, so no big rational is built and no inverse taken.
    A nonzero residue, or a term with p in its denominator, returns the exact
    defect, the only value a failure detail is built from.
    """
    h, modulus = _h_row(m, alpha), p**m
    numerator, denominator = 0, 1
    for scalar, r in ((-1, alpha), *((h[r], r) for r in _inversion_support(m, alpha))):
        term = f(r)
        a, b = term.numerator % modulus, term.denominator % modulus
        if not b % p:
            return _inversion_defect(f, m, alpha)
        numerator = (numerator * b + scalar * a * denominator) % modulus
        denominator = denominator * b % modulus
    return _inversion_defect(f, m, alpha) if numerator else 0


def _validate_gk_args(p: int, m: int, kstar: int, alpha: int) -> None:
    if m < 1:
        raise ParameterOutOfRangeError("m must be at least 1")
    if alpha < 0:
        raise ParameterOutOfRangeError("alpha must be non-negative")
    if kstar <= m:
        raise ParameterOutOfRangeError(f"k* must exceed m, got k*={kstar}, m={m}")
    if kstar % 2:
        raise ParameterOutOfRangeError(f"k* must be even, got k*={kstar}")
    if kstar % (p - 1) == 0:
        raise ParameterOutOfRangeError(f"{p - 1} must not divide k*={kstar}")


def check_thm_gk(p: int, m: int, kstar: int, alpha: int, precision: int = 50) -> CongruenceReport:
    """G_{alpha(p-1)+k*} against the H-weighted sum of G_{r(p-1)+k*} E_{p-1}^(alpha-r)."""
    _validate_gk_args(p, m, kstar, alpha)
    params = {"p": p, "m": m, "kstar": kstar, "alpha": alpha, "N": precision}
    return _inversion_check("Thm1.1", params, g_series, kstar, with_e_powers=True)


def check_prop_gk_fixed(p: int, m: int, kstar: int, alpha: int,
                        precision: int = 50) -> CongruenceReport:
    """Same family as check_thm_gk but without the E_{p-1} powers (mixed weights)."""
    _validate_gk_args(p, m, kstar, alpha)
    params = {"p": p, "m": m, "kstar": kstar, "alpha": alpha, "N": precision}
    return _inversion_check("Prop3.1", params, g_series, kstar, with_e_powers=False)


def _validate_ek_args(p: int, m: int, alpha: int) -> None:
    if not 1 <= m <= p - 1:
        raise MOutOfRangeError(f"m must satisfy 1 <= m <= p-1 = {p - 1}, got {m}")
    if alpha < 1:
        raise ParameterOutOfRangeError("alpha must be at least 1")


def check_thm_ek(p: int, m: int, alpha: int, precision: int = 50) -> CongruenceReport:
    """E_{alpha(p-1)} against the H-weighted sum of E_{r(p-1)} E_{p-1}^(alpha-r)."""
    _validate_ek_args(p, m, alpha)
    params = {"p": p, "m": m, "alpha": alpha, "N": precision}
    return _inversion_check("Thm1.2", params, e_series, 0, with_e_powers=True)


def check_prop_ek_fixed(p: int, m: int, alpha: int, precision: int = 50) -> CongruenceReport:
    """E_{alpha(p-1)} against the H-weighted sum of E_{r(p-1)} (mixed weights)."""
    _validate_ek_args(p, m, alpha)
    params = {"p": p, "m": m, "alpha": alpha, "N": precision}
    return _inversion_check("Prop4.2", params, e_series, 0, with_e_powers=False)


# ---------------------------------------------------------------------------
# Exact rational congruences
# ---------------------------------------------------------------------------

def _validate_prop41_args(p: int, m: int, alpha: int, d: int) -> None:
    _validate_ek_args(p, m, alpha)
    if d % p == 0:
        raise DNotCoprimeError(f"d = {d} must be coprime to p = {p}")


def check_bernoulli_prop41(p: int, m: int, alpha: int, d: int) -> CongruenceReport:
    """d^{a(p-1)} a/B_{a(p-1)} against the H-weighted sum over r, modulo p^m.

    Each r/B_{r(p-1)} is p-integral because B_{r(p-1)} has p-valuation -1;
    the whole check runs over exact rationals and ends in a valuation test.
    The r = 0 term is 0.
    """
    _validate_prop41_args(p, m, alpha, d)
    difference = _inversion_defect_mod(
        lambda r: d ** (r * (p - 1)) * Fraction(r) / bernoulli(r * (p - 1)), p, m, alpha)
    params = {"p": p, "m": m, "alpha": alpha, "d": d}
    return _valuation_report("Prop4.1", params, difference, p, m)


def _validate_dpower_args(p: int, m: int, alpha: int, d: int) -> None:
    if m < 1:
        raise ParameterOutOfRangeError("m must be at least 1")
    if alpha < 0:
        raise ParameterOutOfRangeError("alpha must be non-negative")
    if d % p == 0:
        raise DNotCoprimeError(f"d = {d} must be coprime to p = {p}")


def check_dpower_congruence(p: int, m: int, alpha: int, d: int) -> CongruenceReport:
    """d^{a(p-1)} against the H-weighted sum of d^{r(p-1)}, modulo p^m."""
    _validate_dpower_args(p, m, alpha, d)
    params = {"p": p, "m": m, "alpha": alpha, "d": d}
    return _valuation_report("Eq3.1", params,
                             _inversion_defect_mod(dpower_function(d, p), p, m, alpha), p, m)


def _validate_eq14_args(p: int, k: int, kprime: int) -> None:
    if min(k, kprime) < 1:
        raise ParameterOutOfRangeError(f"weights must be positive, got k={k}, k'={kprime}")
    if k % (p - 1) != kprime % (p - 1) or k % (p - 1) == 0:
        raise ParameterOutOfRangeError(
            "weights must be congruent and nonzero modulo p-1"
        )
    if k % 2:
        raise ParameterOutOfRangeError(f"weights must be even, got k={k}")
    if k == kprime:
        # G_k against itself passes whatever G_k is.
        raise ParameterOutOfRangeError(f"k' must differ from k, got k = k' = {k}")


def check_eq14(p: int, k: int, kprime: int, precision: int = 50) -> CongruenceReport:
    """G_k and G_k' agree modulo p when k and k' share a nonzero residue mod p-1."""
    _validate_eq14_args(p, k, kprime)
    ring = ResidueRing(p, 1)
    lhs = g_series(k, ring, precision)
    rhs = g_series(kprime, ring, precision)
    params = {"p": p, "k": k, "kprime": kprime, "N": precision}
    return _series_report("Eq1.4", params, lhs, rhs, precision, None)


def _validate_eq16_args(p: int, m: int, k0: int) -> None:
    if m < 1:
        raise ParameterOutOfRangeError("m must be at least 1")
    if k0 <= m:
        raise ParameterOutOfRangeError("k0 must exceed m")
    if k0 % 2:
        raise ParameterOutOfRangeError(f"k0 must be even, got k0={k0}")
    if k0 % (p - 1) == 0:
        raise ParameterOutOfRangeError(f"{p - 1} must not divide k0")


def check_eq16(p: int, m: int, k0: int, precision: int = 50) -> CongruenceReport:
    """G_{k0} and G_{p^(m-1)(p-1)+k0} agree modulo p^m for k0 > m."""
    _validate_eq16_args(p, m, k0)
    ring = ResidueRing(p, m)
    k = p ** (m - 1) * (p - 1) + k0
    lhs = g_series(k0, ring, precision)
    rhs = g_series(k, ring, precision)
    params = {"p": p, "m": m, "k0": k0, "N": precision}
    return _series_report("Eq1.6", params, lhs, rhs, precision, None)


def _validate_kummer_args(p: int, r: int, k: int, kprime: int) -> None:
    if r < 1:
        raise ParameterOutOfRangeError("r must be at least 1")
    if min(k, kprime) < 1:
        raise ParameterOutOfRangeError(f"weights must be positive, got k={k}, k'={kprime}")
    if k % 2:
        # B_k = 0 for odd k > 1 and (1 - p^0) B_1 = 0, so both sides vanish.
        raise ParameterOutOfRangeError(f"k must be even, got k={k}")
    if k % (p - 1) == 0:
        raise ParameterOutOfRangeError(f"{p - 1} must not divide k")
    if (k - kprime) % (p ** (r - 1) * (p - 1)) != 0:
        raise ParameterOutOfRangeError(
            f"k and k' must be congruent modulo p^(r-1)(p-1) = {p ** (r - 1) * (p - 1)}"
        )
    if k == kprime:
        # B_k against itself passes whatever B_k is.
        raise ParameterOutOfRangeError(f"k' must differ from k, got k = k' = {k}")


def check_kummer(p: int, r: int, k: int, kprime: int) -> CongruenceReport:
    """(1-p^{k-1})B_k/k vs (1-p^{k'-1})B_k'/k' modulo p^r, as exact rationals."""
    _validate_kummer_args(p, r, k, kprime)
    lhs = (1 - Fraction(p) ** (k - 1)) * bernoulli(k) / k
    rhs = (1 - Fraction(p) ** (kprime - 1)) * bernoulli(kprime) / kprime
    params = {"p": p, "r": r, "k": k, "kprime": kprime}
    return _valuation_report("Kummer", params, lhs - rhs, p, r)


# ---------------------------------------------------------------------------
# p-regular functions
# ---------------------------------------------------------------------------

class RegularityVerdict:
    __slots__ = ("n", "valuation", "ok")

    def __init__(self, n: int, valuation: int | float, ok: bool) -> None:
        self.n, self.valuation, self.ok = n, valuation, ok


def forward_difference_sum(f: IntegerSequenceFunction, n: int) -> Fraction:
    """The alternating binomial sum  sum_k C(n,k)(-1)^k f(k)."""
    return sum(
        Fraction(math.comb(n, k)) * (-1) ** k * Fraction(f(k)) for k in range(n + 1)
    )


def check_p_regular(f: IntegerSequenceFunction, p: int, n_max: int) -> list[RegularityVerdict]:
    """For each n <= n_max, test nu_p of the n-th alternating difference >= n."""
    out = []
    for n in range(1, n_max + 1):
        v = padic_valuation(forward_difference_sum(f, n), p)
        out.append(RegularityVerdict(n, v, v >= n))
    return out


def prop21_recovery_holds(f: IntegerSequenceFunction, p: int, m: int, alpha: int) -> bool:
    """For p-regular f: f(alpha) matches its H-weighted history modulo p^m."""
    return padic_valuation(_inversion_defect_mod(f, p, m, alpha), p) >= m


def inversion_identity_holds(f: IntegerSequenceFunction, n: int, alpha: int) -> bool:
    """Exact binomial-inversion identity expressing f(alpha) through H(n, ., .)."""
    if n < 1 or alpha < 0:
        raise ParameterOutOfRangeError("need n >= 1 and alpha >= 0")
    tail = sum(math.comb(alpha, r) * (-1) ** r * forward_difference_sum(f, r)
               for r in range(n, alpha + 1))
    return _inversion_defect(f, n, alpha) == tail


def dpower_function(d: int, p: int) -> IntegerSequenceFunction:
    """k -> d^{k(p-1)} (p-regular for p not dividing d)."""
    return lambda k: Fraction(d ** (k * (p - 1)))


def constant_function(c) -> IntegerSequenceFunction:
    return lambda k: Fraction(c)


def times_p_function(p: int) -> IntegerSequenceFunction:
    """k -> p*k."""
    return lambda k: Fraction(p * k)


def scale_function(f: IntegerSequenceFunction, g: IntegerSequenceFunction) -> IntegerSequenceFunction:
    """Pointwise product of two integer-sequence functions."""
    return lambda k: Fraction(f(k)) * Fraction(g(k))


def sun_bernoulli_function(p: int) -> IntegerSequenceFunction:
    """k -> (p - p^{k(p-1)}) B_{k(p-1)}; p-integral for every k >= 0."""
    return lambda k: (p - Fraction(p) ** (k * (p - 1))) * bernoulli(k * (p - 1))


def check_sun97_at(p: int, n: int) -> CongruenceReport:
    """The n-th alternating difference of (p - p^{k(p-1)})B_{k(p-1)}: 0 mod p^n
    when (p-1) does not divide n, and p^{n-1} mod p^n when it does."""
    s = forward_difference_sum(sun_bernoulli_function(p), n)
    target = Fraction(p) ** (n - 1) if n % (p - 1) == 0 else Fraction(0)
    params = {"p": p, "n": n, "case": "p^(n-1)" if target else "0"}
    return _valuation_report("Sun97", params, s - target, p, n)


def check_sun97(p: int, n_max: int) -> list[CongruenceReport]:
    """`check_sun97_at` for n = 1 .. n_max."""
    return [check_sun97_at(p, n) for n in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# Combinatorial identities
# ---------------------------------------------------------------------------

def _validate_identity_box(m: int, j: int, s: int, alpha: int) -> None:
    if not 1 <= j <= m - 1:
        raise ParameterOutOfRangeError(f"need 1 <= j <= m-1, got j={j}, m={m}")
    if not 0 <= s <= m - j - 1:
        raise ParameterOutOfRangeError(f"need 0 <= s <= m-j-1, got s={s}")
    if alpha < 0:
        raise ParameterOutOfRangeError("alpha must be non-negative")


# A box grid runs over m, j, s, a block of alphas each: an H row comes back at the next
# j and an identity row at the next s, one pass over the alphas later, which 256 entries hold.

@lru_cache(maxsize=256)
def _identity_row(m: int, j: int, alpha: int) -> tuple[int, ...]:
    """C(alpha-r, j) H(m, alpha, r) for r = 0 .. m-1, j >= 1: 0 below alpha = m, where
    H(m, alpha, .) is the delta at alpha and C(0, j) = 0; from there on alpha-r > 0."""
    if alpha < m:
        return (0,) * m
    return tuple(math.comb(alpha - r, j) * h for r, h in enumerate(_h_row(m, alpha)))


@lru_cache(maxsize=256)
def _identity_column(m: int, j: int, s: int) -> tuple[int, ...]:
    """H(m-j, r, s) for r = s .. m-1."""
    return tuple(h_coefficient(m - j, r, s) for r in range(s, m))


def _identity_sums(m: int, j: int, s: int, alphas: Iterable[int]) -> Iterator[int]:
    """Each alpha's sum: the row of (m, j, alpha) from r = s on, dot the block's column."""
    column = _identity_column(m, j, s)
    return (sum(map(mul, _identity_row(m, j, alpha)[s:], column)) for alpha in alphas)


def combin_identity_sum(m: int, j: int, s: int, alpha: int) -> int:
    """sum_{r=s}^{m-1} C(alpha-r, j) H(m, alpha, r) H(m-j, r, s), exactly."""
    _validate_identity_box(m, j, s, alpha)
    return next(_identity_sums(m, j, s, (alpha,)))


def _certificate(m: int, j: int, s: int, alpha: int) -> tuple[bool, list[tuple[int, int]]]:
    """Whether (alpha-m)S(m) + (m-s)S(m+1) = 0 for the sums S of `combin_identity_sum`,
    and both sides of Eq. (3.3), times m-j-s, at each r = s .. m-1.

    F(m, r), the r-th term of S(m), has the sign (-1)^(r+j+s) of the two H, and F(m, s-1) = 0.
    With G(r) = (s-r)(j+r-alpha) F(m,r) / (m-j-s), the sides are
    (m-j-s)((alpha-m)F(m,r) + (m-s)F(m+1,r)) and (m-j-s)(G(r) - G(r-1)).
    """
    f = list(map(mul, _identity_row(m, j, alpha)[s:], _identity_column(m, j, s)))
    g = list(map(mul, _identity_row(m + 1, j, alpha)[s:], _identity_column(m + 1, j, s)))
    d, prev, sides = m - j - s, 0, []
    for r, here, above in zip(range(s, m), f, g):
        sides.append((d * ((alpha - m) * here + (m - s) * above),
                      (s - r) * (j + r - alpha) * here - (s - r + 1) * (j + r - 1 - alpha) * prev))
        prev = here
    return (alpha - m) * sum(f) + (m - s) * sum(g) == 0, sides


def check_telescoping(m: int, j: int, s: int, alpha: int, r: int) -> bool:
    """(alpha-m)F(m,r) + (m-s)F(m+1,r) equals G(r) - G(r-1); both sides times m-j-s > 0."""
    _validate_identity_box(m, j, s, alpha)
    if not s <= r <= m - 1:
        raise ParameterOutOfRangeError(f"need s <= r <= m-1, got r={r}")
    left, right = _certificate(m, j, s, alpha)[1][r - s]
    return left == right


def check_sum_recurrence(m: int, j: int, s: int, alpha: int) -> bool:
    """(alpha-m)S(m) + (m-s)S(m+1) = 0 for the sums in combin_identity_sum."""
    _validate_identity_box(m, j, s, alpha)
    return _certificate(m, j, s, alpha)[0]


# ---------------------------------------------------------------------------
# Conjecture scanners (evidence, not proof)
# ---------------------------------------------------------------------------

def _check_budget(index: int, budget: int | None) -> None:
    """A budget of None sets no limit; a caller that charged the index already passes it."""
    if budget is not None and index > budget:
        raise BudgetExceededError(
            f"Bernoulli index {index} exceeds budget {budget}"
        )


def _validate_conjecture_args(p: int, m: int, kstar: int, alpha: int) -> None:
    if m < 1:
        raise MOutOfRangeError(f"m must be at least 1, got {m}")
    if kstar % (p - 1) != 0 or kstar <= m:
        raise ParameterOutOfRangeError(
            f"k* must be a multiple of p-1 = {p - 1} exceeding m = {m}, got {kstar}"
        )
    if alpha < 0:
        raise ParameterOutOfRangeError("alpha must be non-negative")


def scan_conjecture_bernoulli(
        p: int, m: int, alphas: Iterable[int], kstar: int,
        budget: int | None = DEFAULT_BERNOULLI_BUDGET) -> list[CongruenceReport]:
    """Evidence scan: (a(p-1)+k*)/B_{a(p-1)+k*} vs its H-weighted history mod p^m."""
    alphas = list(alphas)
    _validate_conjecture_args(p, m, kstar, min(alphas, default=0))
    if alphas:
        _check_budget(max(alphas) * (p - 1) + kstar, budget)

    def f(r: int) -> Fraction:
        return _k_over_bernoulli(r * (p - 1) + kstar)

    return [_valuation_report("ConjEq6.4", {"p": p, "m": m, "kstar": kstar, "alpha": alpha},
                              _inversion_defect_mod(f, p, m, alpha), p, m) for alpha in alphas]


# A CLI scan block checks its alphas one per call; the terms at r < m recur in each.
@lru_cache(maxsize=64)
def _k_over_bernoulli(k: int) -> Fraction:
    """k/B_k, the Eq. (6.4) term at weight k."""
    return Fraction(k) / bernoulli(k)


def scan_conjecture_ek_series(p: int, m: int, kstar: int, alpha: int, precision: int = 40,
                              budget: int | None = DEFAULT_BERNOULLI_BUDGET) -> CongruenceReport:
    """Evidence scan: E_{a(p-1)+k*} vs the H-weighted sum of E_{r(p-1)+k*} E_{p-1}^(a-r)."""
    _validate_conjecture_args(p, m, kstar, alpha)
    _check_budget(alpha * (p - 1) + kstar, budget)
    params = {"p": p, "m": m, "kstar": kstar, "alpha": alpha, "N": precision}
    return _inversion_check("ConjEq6.1", params, e_series, kstar, with_e_powers=True)
