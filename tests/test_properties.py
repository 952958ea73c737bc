"""Property-based differential checks of fast paths against the oracles in conftest.

Each property draws its inputs with `derandomize=True` and a bounded number of
examples, so tier-1 stays deterministic and the module runs in about 5 s.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eiscong import cache, cli, exact, series
from eiscong.cache import format_cache_line, parse_cache_line
from eiscong.congruences import (
    _certificate,
    _identity_sums,
    _inversion_defect,
    _inversion_defect_mod,
    _valuation_report,
    dpower_function,
)
from eiscong.congruences import CongruenceReport
from eiscong.eisenstein import divisor_sums, e_power, e_series, g_series
from eiscong.exact import bernoulli, bernoulli_cached_indices, prefetch_bernoulli, sigma_power_mod
from eiscong.filtration import LinearSystem, solve_mod_pm
from eiscong.residue import ResidueRing
from eiscong.series import PackedFamily, QSeries, linear_combination

from conftest import (
    bernoulli_by_tangent,
    cache_value_by_regex,
    combination_per_column,
    diagonalize,
    g_series_exact,
    identity_sum_by_triple_products,
    outcome,
    reduced,
    schoolbook_product,
    telescope_g,
    telescope_lhs,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@PROPERTY
@given(st.data())
def test_divisor_sums_across_exponent_periods(data):
    # The table of sigma_{k-1} is keyed on k-1 read by its period p^(m-1)(p-1)
    # past m; draw k-1 anywhere in the first five periods, edges included.
    p = data.draw(st.sampled_from((5, 7, 11, 13)), label="p")
    m = data.draw(st.integers(1, 5), label="m")
    period = p ** (m - 1) * (p - 1)
    exponent = data.draw(st.one_of(
        st.integers(0, m + 2),
        st.builds(lambda j, d: m + j * period + d, st.integers(0, 5), st.integers(-1, 2)),
        st.integers(0, m + 5 * period)), label="k-1")
    precision = data.draw(st.integers(0, 4 * p), label="precision")
    ring = ResidueRing(p, m)
    sums = divisor_sums(exponent + 1, ring, precision)
    assert sums == (0, *(sigma_power_mod(exponent, n, ring.modulus)
                         for n in range(1, precision + 1)))


@PROPERTY
@given(st.data())
def test_linear_combination_matches_the_per_column_sum(data):
    # Moduli from 5 to 65537^8 (128 bits), so every array slot size and the
    # byte-string slots are drawn; signed scalars of up to twice the modulus.
    p = data.draw(st.sampled_from((5, 7, 11, 13, 65521, 65537)), label="p")
    m = data.draw(st.integers(1, 8), label="m")
    ring = ResidueRing(p, m)
    mod = ring.modulus
    t = data.draw(st.integers(1, 6), label="terms")
    precision = data.draw(st.integers(0, 40), label="precision")
    # Residues from a drawn generator, or the largest slot sums: every residue
    # p^m - 1 and every scalar -1.
    if data.draw(st.booleans(), label="largest sums"):
        vectors, scalars = [[mod - 1] * (precision + 1)] * t, [-1] * t
    else:
        rng = data.draw(st.randoms(use_true_random=False), label="residues")
        vectors = [[rng.randrange(mod) for _ in range(precision + 1)] for _ in range(t)]
        scalars = data.draw(st.lists(st.integers(-2 * mod, 2 * mod), min_size=t, max_size=t),
                            label="scalars")
    terms = [QSeries(ring, tuple(vector), precision) for vector in vectors]
    expected = combination_per_column(scalars, vectors, mod)
    assert linear_combination(scalars, terms) == QSeries(ring, expected, precision)


@settings(PROPERTY, max_examples=60)
@given(st.data())
def test_a_packed_family_matches_the_per_column_sum_for_every_scalar_vector(data):
    # One family of up to 25 terms (a theorem-grid block packs m^2 <= 25),
    # moduli from 5 to 65537^8, so the byte-string slots are drawn, combined
    # with several signed scalar vectors; then t terms of p^m - 1 everywhere,
    # with every scalar -1, fill each slot to its largest sum.
    p = data.draw(st.sampled_from((5, 7, 11, 13, 65521, 65537)), label="p")
    m = data.draw(st.integers(1, 8), label="m")
    ring = ResidueRing(p, m)
    mod = ring.modulus
    t = data.draw(st.integers(1, 25), label="terms")
    precisions = data.draw(st.lists(st.integers(0, 80), min_size=t, max_size=t),
                           label="precisions")
    rng = data.draw(st.randoms(use_true_random=False), label="residues")
    vectors = [[rng.randrange(mod) for _ in range(n + 1)] for n in precisions]
    family = PackedFamily([QSeries(ring, tuple(v), n) for v, n in zip(vectors, precisions)])
    scalar_vectors = data.draw(st.lists(
        st.lists(st.integers(-2 * mod, 2 * mod), min_size=t, max_size=t),
        min_size=1, max_size=4), label="scalars") + [[-1] * t]
    for scalars in scalar_vectors:
        expected = combination_per_column(scalars, vectors, mod)
        assert family.combine(scalars) == QSeries(ring, expected, min(precisions))
    top = [[mod - 1] * (min(precisions) + 1)] * t
    assert (PackedFamily([QSeries(ring, tuple(v), min(precisions)) for v in top]).combine([-1] * t)
            == QSeries(ring, combination_per_column([-1] * t, top, mod), min(precisions)))


# The largest index the prefetch property draws: a start up to 600, ten gaps
# of up to 12, one jump of up to 700 and five more gaps.
PREFETCH_TOP = 600 + 10 * 12 + 700 + 5 * 12


@lru_cache(maxsize=1)
def tangent_table() -> dict:
    """B_k from the tangent-number oracle for every even k up to PREFETCH_TOP."""
    return bernoulli_by_tangent(range(2, PREFETCH_TOP + 1, 2))


@settings(PROPERTY, max_examples=60)
@given(st.data())
def test_prefetch_matches_the_tangent_oracle(data):
    # One index, which takes the Euler bracket, or a progression with gaps of
    # 2, 6 or 12, maybe one jump of at least 500 (a scan after its cache),
    # which takes the zeta sum; then odd and repeated indices. A drawn part
    # is memoized before the pass, as a loaded cache would leave it, and the
    # zeta sum's bracket is widened past use for a drawn part: a run that
    # takes the sum for one of them raises at the largest, as the pass runs
    # from the top down, and memoizes nothing.
    if data.draw(st.booleans(), label="lone"):
        ks = [data.draw(st.integers(2, PREFETCH_TOP // 2), label="k / 2") * 2]
    else:
        gap = data.draw(st.sampled_from((2, 6, 12)), label="gap")
        start = data.draw(st.integers(2, 300), label="start") * 2
        ks = list(range(start, start + gap * data.draw(st.integers(1, 10), label="steps") + 1, gap))
        if data.draw(st.booleans(), label="jump"):
            top = ks[-1] + 2 * data.draw(st.integers(250, 350), label="jump / 2")
            ks += range(top, top + gap * data.draw(st.integers(0, 5), label="after") + 1, gap)
    odd = data.draw(st.lists(st.integers(0, ks[-1]).map(lambda k: k | 1), max_size=4), label="odd")
    repeated = data.draw(st.lists(st.sampled_from(ks), max_size=4), label="repeated")
    warm = data.draw(st.lists(st.sampled_from(ks), max_size=len(ks) // 2), label="memoized")
    refused = data.draw(st.lists(st.sampled_from(ks), max_size=3), label="refused by the sum")
    indices = data.draw(st.permutations(ks + odd + repeated), label="order")
    oracle = tangent_table()
    zeta_bracket = exact._zeta_bracket

    def widened(values, errors, k, shift):
        # Z is over 2**w, so an error of Z leaves no rounding proven.
        zeta, error = zeta_bracket(values, errors, k, shift)
        return zeta, error + (zeta if k in refused else 0)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_BERNOULLI_MEMO", {k: exact._BERNOULLI_MEMO[k] for k in (0, 1, 2)})
        patch.setattr(exact, "_zeta_bracket", widened)
        for k in warm:
            exact.seed_bernoulli(k, oracle[k])
        missing = set(ks) - set(warm)
        if len(missing) > 1 and missing & set(refused):
            before = dict(exact._BERNOULLI_MEMO)
            with pytest.raises(ArithmeticError, match=f"^B_{max(missing & set(refused))}: "):
                prefetch_bernoulli(indices)
            assert exact._BERNOULLI_MEMO == before
        else:
            prefetch_bernoulli(indices)
            assert bernoulli_cached_indices() == sorted({0, 1, 2, *ks})
            assert all(exact._BERNOULLI_MEMO[k] == oracle[k] for k in ks)


def inversion_term(family: str, p: int, seed: int):
    """A sequence f of one family: the Eq. (6.4), Prop. 4.1 and Eq. (3.1) terms, an
    integer table (most points fail), or a table with p in some denominators."""
    rng = random.Random(seed)
    d = rng.choice([c for c in range(1, 4 * p) if c % p])
    kstar = (p - 1) * rng.randrange(1, 4)
    table = [rng.randrange(-60, 61) for _ in range(64)]
    units = [p ** rng.randrange(3) * rng.choice([c for c in range(1, 3 * p) if c % p])
             for _ in range(64)]
    return {
        "eq6.4": lambda r: Fraction(r * (p - 1) + kstar) / bernoulli(r * (p - 1) + kstar),
        "prop4.1": lambda r: d ** (r * (p - 1)) * Fraction(r) / bernoulli(r * (p - 1)),
        "eq3.1": dpower_function(rng.randrange(1, 5 * p), p),
        "integer table": lambda r: Fraction(table[r]),
        "p in denominators": lambda r: Fraction(table[r], units[r]),
    }[family]


# The examples are a failing point and a term with p in its denominator: both
# end on the exact defect.
@PROPERTY
@example(p=5, m=3, alpha=7, family="integer table", seed=0)
@example(p=7, m=2, alpha=5, family="p in denominators", seed=1)
@given(p=st.sampled_from((3, 5, 7, 11, 13)), m=st.integers(1, 6), alpha=st.integers(0, 40),
       family=st.sampled_from(("eq6.4", "prop4.1", "eq3.1", "integer table", "p in denominators")),
       seed=st.integers(0, 2**16))
def test_residue_first_report_matches_the_exact_one(p, m, alpha, family, seed):
    # The whole report, its failure detail included, is the one the exact
    # defect gives.
    f = inversion_term(family, p, seed)
    report = _valuation_report("X", {}, _inversion_defect_mod(f, p, m, alpha), p, m)
    assert report.to_json_dict() == _valuation_report(
        "X", {}, _inversion_defect(f, m, alpha), p, m).to_json_dict()


@st.composite
def linear_systems(draw):
    """Systems up to 12 x 7 over the solver's test rings, entries and rhs p^a u for a
    drawn up to m, so every pivot valuation occurs; half are solvable by a drawn vector."""
    p, m = draw(st.sampled_from(((5, 1), (5, 2), (7, 2), (5, 3), (7, 4), (17, 3))))
    mod = p**m
    entry = st.builds(lambda a, u: p**a * u, st.integers(0, m), st.integers(0, mod - 1))
    nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 7))
    matrix = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                           min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        known = draw(st.lists(st.integers(0, mod - 1), min_size=ncols, max_size=ncols))
        rhs = [sum(a * x for a, x in zip(row, known)) for row in matrix]
    else:
        rhs = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    return LinearSystem.build(ResidueRing(p, m), matrix, rhs)


# The examples: a valuation obstruction at the second pivot, after a column
# swap, and an inconsistent row below a pivot of valuation 1.
@settings(PROPERTY, max_examples=80)
@example(system=LinearSystem.build(ResidueRing(5, 2), [[0, 1, 0], [10, 0, 5]], [4, 7]))
@example(system=LinearSystem.build(ResidueRing(7, 2), [[7, 14], [14, 28], [0, 0]], [7, 21, 0]))
@given(system=linear_systems())
def test_the_echelon_solver_matches_the_diagonalizing_oracle(system):
    # The outcome, vector or NoSolution detail alike, is the oracle's.
    assert solve_mod_pm(system) == diagonalize(system)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.data())
def test_e_power_matches_binary_powering(data):
    # E_{p-1}^n from its binomial series in D = E_{p-1} - 1 against E_{p-1}
    # raised to n mod p^(m-1) by `QSeries.pow`, for n across several periods
    # either side of 0 and next to their edges.
    p = data.draw(st.sampled_from((5, 7, 11, 13)), label="p")
    m = data.draw(st.integers(1, 6), label="m")
    order = p ** (m - 1)
    n = data.draw(st.one_of(
        st.builds(lambda j, d: j * order + d, st.integers(-4, 4), st.integers(-2, 2)),
        st.integers(-5 * order, 5 * order)), label="n")
    precision = data.draw(st.integers(0, 3 * p), label="precision")
    ring = ResidueRing(p, m)
    assert e_power(ring, precision, n) == e_series(p - 1, ring, precision).pow(n % order)


@settings(PROPERTY, max_examples=100)
@given(st.data())
def test_box_block_kernels_match_the_per_point_oracles(data):
    # A block (m, j, s) with its alphas, small ones (where H collapses to a
    # delta below m) and ones up to and past 2^64, against one point at a time.
    m = data.draw(st.integers(2, 12), label="m")
    j = data.draw(st.integers(1, m - 1), label="j")
    s = data.draw(st.integers(0, m - j - 1), label="s")
    alphas = data.draw(st.lists(st.one_of(st.integers(0, 3 * m), st.integers(0, 2 ** 64 + 2)),
                                min_size=1, max_size=4), label="alphas")
    assert list(_identity_sums(m, j, s, alphas)) == [
        identity_sum_by_triple_products(m, j, s, alpha) for alpha in alphas]
    d = m - j - s
    for alpha in alphas:
        recurrence, sides = _certificate(m, j, s, alpha)
        assert recurrence == ((alpha - m) * identity_sum_by_triple_products(m, j, s, alpha)
                              + (m - s) * identity_sum_by_triple_products(m + 1, j, s, alpha)
                              == 0)
        assert [left for left, _ in sides] == [d * telescope_lhs(m, j, s, alpha, r)
                                               for r in range(s, m)]
        assert [Fraction(right, d) for _, right in sides] == [
            telescope_g(m, j, s, alpha, r) - telescope_g(m, j, s, alpha, r - 1)
            for r in range(s, m)]


@settings(PROPERTY, max_examples=60)
@given(st.data())
def test_kronecker_product_matches_the_schoolbook_on_byte_string_slots(data):
    # Moduli from 2^32 + 1 to 2^200, so every slot is wider than 8 bytes and is
    # packed as a byte string; residues drawn, or all modulus - 1 (the
    # largest slot sums); a product of two, or a square.
    modulus = data.draw(st.integers(2 ** 32 + 1, 2 ** 200), label="modulus")
    n = data.draw(st.integers(1, 60), label="n")
    assert series._slot(2 * (modulus - 1).bit_length() + n.bit_length())[1] is None
    if data.draw(st.booleans(), label="largest sums"):
        a = b = (modulus - 1,) * n
    else:
        rng = data.draw(st.randoms(use_true_random=False), label="residues")
        a, b = (tuple(rng.randrange(modulus) for _ in range(n)) for _ in range(2))
    square = data.draw(st.booleans(), label="square")
    expected = tuple(c % modulus for c in schoolbook_product(a, a if square else b))
    assert series._kronecker_product(a, None if square else b, n, modulus) == expected


@settings(PROPERTY, max_examples=80)
@given(p=st.sampled_from((5, 7, 11, 13)), m=st.integers(1, 6), half=st.integers(1, 150),
       precision=st.integers(0, 40))
def test_g_series_matches_the_rational_series(p, m, half, precision):
    # G_k modulo p^m against -B_k/2k and sigma_{k-1}(n) over the rationals,
    # for even k up to 300 that p - 1 does not divide.
    k = 2 * half
    if k % (p - 1) == 0:
        k += 2
    ring = ResidueRing(p, m)
    assert g_series(k, ring, precision) == reduced(g_series_exact(k, precision), ring)


# Names as a package string may hold them: any text but NUL, the template's mark.
NAMES = st.text(st.characters(blacklist_characters="\x00"), max_size=8)


PARAM_VALUES = st.integers(-2 ** 70, 2 ** 70)


@settings(PROPERTY, max_examples=80)
@given(statement=NAMES, certification=NAMES,
       params=st.dictionaries(NAMES, PARAM_VALUES, min_size=1, max_size=5),
       fmt=st.sampled_from(("jsonl", "json")), data=st.data())
def test_template_text_is_the_record_dump(statement, certification, params, fmt, data):
    # The template of a passing record's shape, filled with its int values, is
    # the record's own text. Filled with all but one or two of them, a run of
    # values for those gives the texts of the run's records, joined by the
    # format's separator.
    report = CongruenceReport(statement, params, "Pass", None, certification)
    template = cli._template(statement, certification, tuple(params), fmt)
    assert cli._fill(template, params) == [cli._dict_text(report.to_json_dict(), fmt)]
    varying = sorted(data.draw(st.lists(st.sampled_from(sorted(params)), min_size=1,
                                        max_size=2, unique=True), label="varying"))
    run = data.draw(st.lists(st.tuples(*[PARAM_VALUES] * len(varying)), min_size=1,
                             max_size=5), label="run")
    pieces = cli._fill(template, {k: v for k, v in params.items() if k not in varying})
    texts = [cli._dict_text(CongruenceReport(statement, dict(params, **dict(zip(varying, values))),
                                             "Pass", None, certification).to_json_dict(), fmt)
             for values in run]
    assert cli._run_text(pieces, cli._FRAMES[fmt][1], run) == cli._FRAMES[fmt][1].join(texts)


# Values past six characters: an opening, then hex digits with at most one
# other character among them (upper case, `_`, a sign, a non-ASCII digit).
HEX_LIKE = st.builds(
    lambda opening, digits, other, at: opening + digits[:at] + other + digits[at:],
    st.sampled_from(("0x", "-0x", "", "-", "+", "+0x", "--0x", "0X", "-0X", "x", "0")),
    st.text(st.sampled_from("0123456789abcdef"), min_size=5, max_size=60),
    st.sampled_from(("", "", "A", "F", "X", "x", "_", "-", "+", "g", "\u0663", "\uff11")),
    st.integers(0, 60))


@PROPERTY
@example(text="-0x" + "0" * 40 + "a_b")
@example(text="0x" + "f" * 30 + "\u0663")
@given(text=HEX_LIKE | st.text(min_size=7, max_size=60).filter(lambda s: not any(map(str.isspace, s))))
def test_the_hex_check_matches_the_regex_past_six_characters(text):
    # Past the exhaustive test's length 6: a value is read as hex exactly when
    # the regex takes it, and anything else has the regex oracle's outcome.
    assert outcome(cache._parse_int, text) == outcome(cache_value_by_regex, text)


@PROPERTY
@example(k=2200, digits=20000, seed=0, negative=True, denominator=1)
@given(k=st.integers(0, 10 ** 6), digits=st.integers(1, 20000), seed=st.integers(0, 2 ** 32),
       negative=st.booleans(), denominator=st.integers(1, 10 ** 30))
def test_a_cache_line_round_trips(k, digits, seed, negative, denominator):
    # Signed fractions whose numerator has up to 20,000 digits, far past
    # CPython's 4,300-digit limit on decimal conversion.
    numerator = random.Random(seed).randrange(10 ** (digits - 1) if digits > 1 else 0, 10 ** digits)
    value = Fraction(-numerator if negative else numerator, denominator)
    assert parse_cache_line(format_cache_line(k, value)) == (k, value)
