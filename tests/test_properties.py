"""Property-based differential checks of fast paths against the oracles in conftest.

Each property draws its inputs with `derandomize=True` and a bounded number of
examples, so tier-1 stays deterministic and the module runs in about 2 s.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from eiscong.eisenstein import divisor_sums
from eiscong.exact import sigma_power_mod
from eiscong.residue import ResidueRing
from eiscong.series import QSeries, linear_combination

from conftest import combination_per_column

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
