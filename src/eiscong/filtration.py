"""Level-one modular form bases, linear solving over Z/p^m, and factor
filtration bounds.

The bound of f of weight k is the least w = k - n(p-1), n >= 0, with
f = E_{p-1}^n g for some g of weight w, coefficient-wise modulo p^m through
q^upto (the Sturm index of weight k unless evidence is asked for). One pass
reads it off Katz's layers M_k = sum_i E_{p-1}^(alpha-i) W_i, building each
monomial column once; the witness is one forward substitution at the bound.
Every power of E_{p-1}, the pass's E_{p-1}^(-n) and the round trip's E_{p-1}^n,
comes from one cached table in `eisenstein.e_power`, exact for every integer
exponent, so no check rests on the identity E_{p-1}^(p^(m-1)) = 1 mod p^m.
"""

from __future__ import annotations

from .errors import (
    EiscongError,
    OddWeightError,
    ParameterOutOfRangeError,
    PrecisionTooLowError,
    QuasimodularWeightError,
    WeightMismatchError,
)
from .eisenstein import e_power, e_series, g_series, monomial_series
from .residue import ResidueRing, _equal_slots
from .series import QSeries, linear_combination

__all__ = [
    "BasisMatrix",
    "BoundReport",
    "FiltrationReport",
    "LinearSystem",
    "NoSolution",
    "Solution",
    "basis",
    "cor13_bound",
    "cor14_bound",
    "factor_filtration_bound",
    "filtration_of",
    "k0_of",
    "k0m_of",
    "monomial_exponents",
    "probe_record",
    "sharpness_probe",
    "solve_mod_pm",
    "space_dimension",
    "sturm_bound",
    "verify_refined_bounds",
]


# ---------------------------------------------------------------------------
# Dimensions, monomials, Sturm bound
# ---------------------------------------------------------------------------

def space_dimension(weight: int) -> int:
    """dim M_weight at level one (weight even, >= 0)."""
    if weight % 2 == 1:
        raise OddWeightError(f"no odd-weight spaces at level one, got {weight}")
    if weight < 0:
        return 0
    if weight % 12 == 2:
        return weight // 12
    return weight // 12 + 1


def monomial_exponents(weight: int) -> list[tuple[int, int, int]]:
    """Exponent triples (a, b, c) with 4a + 6b + 12c = weight, b in {0, 1}, one for
    each c < space_dimension(weight), ordered by c (so column j leads with q^j)."""
    out = []
    for c in range(space_dimension(weight)):
        rem = weight - 12 * c
        b = 1 if rem % 4 == 2 else 0
        out.append(((rem - 6 * b) // 4, b, c))
    return out


def sturm_bound(weight: int) -> int:
    """Coefficient index through which equal-weight congruence is certified."""
    if weight % 2 == 1:
        raise OddWeightError(f"weight must be even, got {weight}")
    return weight // 12 + 1


class BasisMatrix:
    """Monomial basis of M_weight over Z/p^m."""

    __slots__ = ("weight", "ring", "precision", "monomials", "columns")

    def __init__(self, weight: int, ring: ResidueRing, precision: int,
                 monomials: tuple[tuple[int, int, int], ...], columns: tuple[QSeries, ...]) -> None:
        self.weight, self.ring, self.precision = weight, ring, precision
        self.monomials, self.columns = monomials, columns

    @property
    def dimension(self) -> int:
        return len(self.columns)


def basis(weight: int, ring: ResidueRing, precision: int) -> BasisMatrix:
    """Basis of M_weight with integral q-expansions through q^precision.

    The columns are the monomials E_4^a E_6^b Delta^c (b in {0,1}, c
    ascending), so column j leads with q^j: the basis is unit triangular.
    """
    if weight % 2 == 1:
        raise OddWeightError(f"weight must be even, got {weight}")
    if weight == 2:
        raise QuasimodularWeightError("weight 2 is quasimodular; no basis")
    if weight < 0:
        raise ParameterOutOfRangeError("weight must be non-negative")
    monomials = tuple(monomial_exponents(weight))
    cols = tuple(monomial_series(a, b, c, ring, precision) for a, b, c in monomials)
    return BasisMatrix(weight, ring, precision, monomials, cols)


# ---------------------------------------------------------------------------
# Linear algebra over Z/p^m
# ---------------------------------------------------------------------------

class LinearSystem:
    """matrix * x = rhs over one residue ring; entries canonicalized."""

    __slots__ = ("ring", "matrix", "rhs")

    def __init__(self, ring: ResidueRing, matrix: tuple[tuple[int, ...], ...],
                 rhs: tuple[int, ...]) -> None:
        self.ring, self.matrix, self.rhs = ring, matrix, rhs

    @staticmethod
    def build(ring: ResidueRing, matrix, rhs) -> "LinearSystem":
        mod = ring.modulus
        rows = tuple(tuple(x % mod for x in row) for row in matrix)
        b = tuple(x % mod for x in rhs)
        if len(rows) != len(b):
            raise ValueError("matrix and rhs row counts differ")
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        return LinearSystem(ring, rows, b)


class Solution:
    __slots__ = ("vector",)

    def __init__(self, vector: tuple[int, ...]) -> None:
        self.vector = vector

    __eq__ = _equal_slots

    def __bool__(self) -> bool:
        return True


class NoSolution:
    __slots__ = ("reason", "detail")

    def __init__(self, reason: str, detail: dict) -> None:
        self.reason, self.detail = reason, detail

    __eq__ = _equal_slots

    def __bool__(self) -> bool:
        return False


def solve_mod_pm(system: LinearSystem) -> Solution | NoSolution:
    """Decide solvability of a linear system over Z/p^m and produce a solution.

    Row echelon form with minimum-valuation pivoting: at each step the first
    active entry (row-major) of least p-valuation is swapped to the diagonal,
    its row is scaled by the unit inverse (pivot becomes p^e), and the rows
    below are cleared. Every elimination divides exactly because the pivot
    valuation is minimal, so solvability is decided correctly despite zero
    divisors. Back substitution, with the free unknowns 0, gives the solution.
    """
    ring = system.ring
    p, m, mod = ring.p, ring.m, ring.modulus
    nrows = len(system.matrix)
    ncols = len(system.matrix[0]) if nrows else 0
    # The augmented matrix: row i is matrix row i, then rhs[i].
    A = [[*row, r] for row, r in zip(system.matrix, system.rhs)]
    order = list(range(ncols))  # column j of A holds unknown order[j]
    exponents: list[int] = []
    for t in range(min(nrows, ncols)):
        best, e = None, m
        for i in range(t, nrows):
            for j in range(t, ncols):
                if A[i][j]:
                    v = ring.valuation(A[i][j])
                    if v < e:
                        best, e = (i, j), v
                        if e == 0:
                            break
            if e == 0:
                break
        if best is None:
            break
        i0, j0 = best
        A[t], A[i0] = A[i0], A[t]
        for row in A:
            row[t], row[j0] = row[j0], row[t]
        order[t], order[j0] = order[j0], order[t]
        pe = p**e
        uinv = pow(A[t][t] // pe, -1, mod)
        pivot_row = A[t] = [x * uinv % mod for x in A[t]]
        for i in range(t + 1, nrows):
            f = A[i][t] // pe
            if f:
                A[i] = [(x - f * y) % mod for x, y in zip(A[i], pivot_row)]
        exponents.append(e)
    rank = len(exponents)
    for i in range(rank, nrows):
        if A[i][-1] % mod:
            return NoSolution("inconsistent-row", {"row": i, "residue": A[i][-1]})
    for t, e in enumerate(exponents):
        if A[t][-1] % p**e:
            return NoSolution(
                "valuation-obstruction",
                {"pivot": t, "pivot-valuation": e, "rhs-valuation": ring.valuation(A[t][-1])},
            )
    x = [0] * ncols
    for t in reversed(range(rank)):
        pe = p**exponents[t]
        x[order[t]] = (A[t][-1] // pe - sum(A[t][j] // pe * x[order[j]]
                                            for j in range(t + 1, ncols))) % mod
    return Solution(tuple(x))


# ---------------------------------------------------------------------------
# Factor filtration
# ---------------------------------------------------------------------------

def k0_of(k: int, p: int) -> int:
    """Least non-negative residue of k modulo p-1."""
    return k % (p - 1)

def k0m_of(k: int, p: int, m: int) -> int:
    """Smallest integer greater than m congruent to k modulo p-1."""
    x = k % (p - 1)
    while x <= m:
        x += p - 1
    return x


def cor13_bound(p: int, m: int, k: int) -> int:
    """Stated filtration bound (m-1)(p-1) + k0(m) for G_k, (p-1) not dividing k."""
    return (m - 1) * (p - 1) + k0m_of(k, p, m)


def cor14_bound(p: int, m: int) -> int:
    """Stated filtration bound (m-1)(p-1) for E_k with (p-1) | k and m <= p-1."""
    return (m - 1) * (p - 1)


class FiltrationReport:
    __slots__ = ("input_id", "p", "m", "weight", "bound_found", "witness_exponent",
                 "witness_monomials", "witness_coeffs", "certification",
                 "certified_coefficients", "sharpness")

    def __init__(self, input_id: str, p: int, m: int, weight: int, bound_found: int,
                 witness_exponent: int, witness_monomials: tuple[tuple[int, int, int], ...],
                 witness_coeffs: tuple[int, ...], certification: str,
                 certified_coefficients: int, sharpness: str | None = None) -> None:
        self.input_id, self.p, self.m, self.weight = input_id, p, m, weight
        self.bound_found, self.witness_exponent = bound_found, witness_exponent
        self.witness_monomials, self.witness_coeffs = witness_monomials, witness_coeffs
        self.certification, self.certified_coefficients = certification, certified_coefficients
        self.sharpness = sharpness

    __eq__ = _equal_slots

    def to_json_dict(self) -> dict:
        return {
            "input-id": self.input_id,
            "p": self.p,
            "m": self.m,
            "weight": self.weight,
            "bound-found": self.bound_found,
            "witness": {
                "n": self.witness_exponent,
                "monomials": [list(t) for t in self.witness_monomials],
                "coefficients": [str(c) for c in self.witness_coeffs],
            },
            "certification": self.certification,
            "certified-coefficients": self.certified_coefficients,
            "sharpness": self.sharpness,
        }


def _check_weight_match(k: int, w: int, p: int) -> int:
    if w < 0 or (k - w) % (p - 1) or k - w < 0:
        raise WeightMismatchError(
            f"candidate weight {w} is not k - n(p-1) for any n >= 0 (k = {k})"
        )
    return (k - w) // (p - 1)


def _checked_upto(f: QSeries, k: int, upto: int | None, w: int | None = None) -> int:
    """The last index compared by a search, or by a probe of weight w, on f of weight k."""
    if w is not None:
        _check_weight_match(k, w, f.ring.p)
    if upto is None:
        upto = sturm_bound(k)
    if f.precision < upto:
        raise PrecisionTooLowError(
            f"need coefficients through q^{upto}, have precision {f.precision}"
        )
    return upto


def _substitute(h: QSeries, monomials, upto: int) -> tuple[QSeries, list[int]]:
    """What is left of h, and the coefficients, after forward substitution in the monomial
    columns (a, b, c), each leading with q^c: its coefficient is the q^c coefficient of
    what is left (0 past q^upto). A column is `monomial_series(a, b, c, ring, upto)`, read
    where its coefficient is not 0: the cached object `basis` holds at that precision."""
    coeffs = []
    for a, b, c in monomials:
        x = h.coeffs[c] if c <= upto else 0
        if x:
            h = h - monomial_series(a, b, c, h.ring, upto).scale(x)
        coeffs.append(x)
    return h, coeffs


def _layer_bound(f: QSeries, k: int, upto: int) -> int | None:
    """The bound of f through q^upto, or None: h = f E_{p-1}^(-n) at the first weight
    with a basis (weight 2 has none), then, weight by weight, h times E_{p-1}.

    What is left of h at w is what a forward substitution in the whole
    weight-w basis leaves, so it is 0 exactly when w is solvable. Times
    E_{p-1}, the part already subtracted stays in the next space and the
    rest still vanishes below q^dim M_w, so only the new columns, the
    monomials with dim M_(w-(p-1)) <= c < dim M_w, are substituted.
    """
    ring, p = f.ring, f.ring.p
    first = k % (p - 1)
    if not space_dimension(first):
        first += p - 1
    e = e_series(p - 1, ring, upto)
    h, filled = None, 0
    for w in range(first, k + 1, p - 1):
        h = f * e_power(ring, upto, (w - k) // (p - 1)) if h is None else h * e
        monomials = monomial_exponents(w)
        h, _ = _substitute(h, monomials[filled:], upto)
        if not any(h.coeffs):
            return w
        filled = len(monomials)
    return None


def _probe(f: QSeries, k: int, bm: BasisMatrix, upto: int) -> Solution | NoSolution:
    """`sharpness_probe` at the weight of `bm`, in that basis."""
    h = f * e_power(f.ring, upto, (bm.weight - k) // (f.ring.p - 1))
    rest, coeffs = _substitute(h, bm.monomials, upto)
    row = next((i for i, c in enumerate(rest.coeffs) if c), None)
    return Solution(tuple(coeffs)) if row is None else NoSolution(
        "inconsistent-row", {"row": row, "residue": rest.coeffs[row]})


def sharpness_probe(f: QSeries, k: int, w: int, upto: int | None = None) -> Solution | NoSolution:
    """Decide whether f matches E_{p-1}^n g, n = (k-w)/(p-1), for some g of weight w.

    h = f E_{p-1}^(-n) is written in the weight-w basis by forward
    substitution: column j leads with q^j, so c_j is the q^j coefficient of
    what is left of h (0 past q^upto), and g exists exactly when nothing is
    left: the outcome `solve_mod_pm` gives on this unit triangular system.
    """
    upto = _checked_upto(f, k, upto, w)
    if not space_dimension(w):
        return NoSolution("empty-space", {"weight": w})
    return _probe(f, k, basis(w, f.ring, upto), upto)


def factor_filtration_bound(f: QSeries, k: int, input_id: str | None = None,
                            upto: int | None = None) -> FiltrationReport:
    """Least w = k - n(p-1) admitting a witness f = E_{p-1}^n g, g of weight w.

    Matching is coefficient-wise through q^upto (default: the Sturm index of
    weight k, which certifies the congruence; lower values are reported as
    coefficient evidence only). The layer pass finds w, a probe in the
    weight-w basis the witness, and the witness is round-trip checked by
    multiplying it by the positive power E_{p-1}^n.
    """
    certified = upto is None
    upto = _checked_upto(f, k, upto)
    if input_id is None:
        input_id = f"weight-{k}-series"
    ring, p = f.ring, f.ring.p
    w = _layer_bound(f, k, upto)
    if w is None:
        raise EiscongError(
            f"no witness found through weight {k}; is the declared weight correct?"
        )
    n, bm = (k - w) // (p - 1), basis(w, ring, upto)
    outcome = _probe(f, k, bm, upto)
    g = linear_combination(outcome.vector, bm.columns) if outcome else None
    if g is None or (g * e_power(ring, upto, n)).coeffs != f.coeffs[: upto + 1]:
        raise EiscongError("witness failed round-trip verification")
    cert = "sturm-certified" if certified else f"coefficient-evidence({upto + 1})"
    # Every lower candidate failed; an empty space is not a failure.
    below = w - (p - 1)
    sharpness = f"NoSolution at weight {below}" if space_dimension(below) else None
    return FiltrationReport(
        input_id, p, ring.m, k, w, n, bm.monomials, outcome.vector,
        cert, upto + 1, sharpness,
    )


def filtration_of(form: str, k: int, p: int, m: int,
                  upto: int | None = None) -> tuple[QSeries, FiltrationReport]:
    """G_k (form "G") or E_k (form "E") over Z/p^m, input id "G_k" or "E_k", and its
    bound: certified at the Sturm index of k (upto None), or evidence through q^upto."""
    series = g_series if form == "G" else e_series
    f = series(k, ResidueRing(p, m), sturm_bound(k) if upto is None else upto)
    return f, factor_filtration_bound(f, k, input_id=f"{form}_{k}", upto=upto)


def probe_record(f: QSeries, report: FiltrationReport, w: int, upto: int | None = None) -> dict:
    """The probe of f at weight w as a {"weight", "result"} record, read from f's report:
    f = E_{p-1}^n g at w gives f = E_{p-1}^(n-1) (E_{p-1} g) at w + (p-1), so w is
    solvable exactly from the bound on, and weight 2 is below every bound."""
    _checked_upto(f, report.weight, upto, w)
    return {"weight": w, "result": "Solvable" if w >= report.bound_found else "NoSolution"}


# ---------------------------------------------------------------------------
# Refined bound tables for m = 2, 3, 4
# ---------------------------------------------------------------------------

class BoundReport:
    __slots__ = ("p", "m", "k", "k0", "alpha", "case", "stated_bound", "computed_bound",
                 "verdict")

    def __init__(self, p: int, m: int, k: int, k0: int, alpha: int, case: str,
                 stated_bound: int | None, computed_bound: int | None,
                 verdict: str) -> None:  # "Pass" | "Fail" | "Skipped"
        self.p, self.m, self.k, self.k0, self.alpha, self.case = p, m, k, k0, alpha, case
        self.stated_bound, self.computed_bound, self.verdict = stated_bound, computed_bound, verdict

    @property
    def passed(self) -> bool:
        return self.verdict != "Fail"

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "k": self.k,
            "k0": self.k0,
            "alpha": self.alpha,
            "case": self.case,
            "stated-bound": self.stated_bound,
            "computed-bound": self.computed_bound,
            "verdict": self.verdict,
        }


# The refined rows of each (m, k0 class), k0 folded to the least value of its
# class: min(k0, 4) for m <= 3, min(k0, 6) for m = 4. A row (case, e, residues,
# j) covers alpha when alpha mod p^e is in residues and states j(p-1) + k0; the
# first covering row wins, and the last, with e = 0, covers every alpha. Each
# general row states Cor. 1.3's (m-1)(p-1) + k0(m), each special row less. j is
# None only for m2-k0eq2-external, a bound from prior work not verified here.
REFINED_ROWS = {
    (2, 2): (("m2-k0eq2-external", 0, (0,), None),),
    (2, 4): (("m2-k0ge4", 0, (0,), 1),),
    (3, 2): (("m3-k0eq2-alpha1", 1, (1,), 1), ("m3-k0eq2-alpha2", 1, (2,), 2),
             ("m3-k0eq2-general", 0, (0,), 3)),
    (3, 4): (("m3-k0ge4-alpha01", 1, (0, 1), 1), ("m3-k0ge4-general", 0, (0,), 2)),
    (4, 2): (("m4-k0eq2-alpha1-psq", 2, (1,), 1), ("m4-k0eq2-alpha2-psq", 2, (2,), 2),
             ("m4-k0eq2-alpha123", 1, (1, 2, 3), 3), ("m4-k0eq2-general", 0, (0,), 4)),
    (4, 4): (("m4-k0eq4-alpha1-psq", 2, (1,), 1), ("m4-k0eq4-alpha12", 1, (1, 2), 2),
             ("m4-k0eq4-alpha3", 1, (3,), 3), ("m4-k0eq4-general", 0, (0,), 4)),
    (4, 6): (("m4-k0ge6-alpha01-psq", 2, (0, 1), 1), ("m4-k0ge6-alpha012", 1, (0, 1, 2), 2),
             ("m4-k0ge6-general", 0, (0,), 3)),
}


def refined_bound_case(p: int, m: int, k0: int, alpha: int) -> tuple[str, int | None]:
    """Case label and stated filtration bound for G_k, k = k0 + alpha(p-1), at m in
    {2, 3, 4}: the first row of `REFINED_ROWS` that covers alpha (stated None at
    m2-k0eq2-external)."""
    if k0 % 2 or not 2 <= k0 <= p - 3:
        raise ParameterOutOfRangeError(f"k0 = {k0} must be even with 2 <= k0 <= p-3")
    rows = REFINED_ROWS.get((m, min(k0, 6 if m == 4 else 4)))
    if rows is None:
        raise ParameterOutOfRangeError(f"refined bounds cover m in {{2, 3, 4}}, got {m}")
    case, j = next((case, j) for case, e, residues, j in rows if alpha % p**e in residues)
    return case, None if j is None else j * (p - 1) + k0


def verify_refined_bounds(p: int, m: int, k: int) -> BoundReport:
    """Check the computed filtration bound of G_k against the m = 2/3/4 tables."""
    if k < 4:
        raise ParameterOutOfRangeError("k must be at least 4")
    k0, alpha = k0_of(k, p), k // (p - 1)
    case, stated = refined_bound_case(p, m, k0, alpha)
    if stated is None:
        return BoundReport(p, m, k, k0, alpha, case, None, None, "Skipped")
    _, report = filtration_of("G", k, p, m)
    verdict = "Pass" if report.bound_found <= stated else "Fail"
    return BoundReport(p, m, k, k0, alpha, case, stated, report.bound_found, verdict)
