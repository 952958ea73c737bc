import json
from pathlib import Path

import pytest

from eiscong import cli, filtration
from eiscong.errors import (
    EiscongError,
    OddWeightError,
    ParameterOutOfRangeError,
    PrecisionTooLowError,
    QuasimodularWeightError,
    WeightMismatchError,
)
from eiscong.eisenstein import e_series, g_series, monomial_series
from eiscong.filtration import (
    BoundReport,
    LinearSystem,
    NoSolution,
    Solution,
    basis,
    cor13_bound,
    cor14_bound,
    factor_filtration_bound,
    k0m_of,
    monomial_exponents,
    probe_record,
    refined_bound_case,
    sharpness_probe,
    solve_mod_pm,
    space_dimension,
    sturm_bound,
    verify_refined_bounds,
)
from eiscong.residue import ResidueRing, is_prime
from eiscong.series import QSeries

from conftest import (
    _witness_system,
    brute_force_solvable,
    diagonalize,
    filtration_by_search,
    monomials_by_search,
    solve_by_digit_lifting,
)


class TestDimensions:
    @pytest.mark.parametrize("weight,dim", [
        (0, 1), (2, 0), (4, 1), (6, 1), (8, 1), (10, 1), (12, 2), (14, 1),
        (26, 2), (52, 5), (80, 7),
    ])
    def test_values(self, weight, dim):
        assert space_dimension(weight) == dim

    def test_odd_rejected(self):
        with pytest.raises(OddWeightError):
            space_dimension(13)

    def test_monomials_match_the_search(self):
        for weight in range(-24, 4002, 2):
            assert monomial_exponents(weight) == monomials_by_search(weight), weight

    def test_monomial_weights(self):
        for a, b, c in monomial_exponents(52):
            assert 4 * a + 6 * b + 12 * c == 52
            assert b in (0, 1)


class TestSturm:
    @pytest.mark.parametrize("weight,bound", [(12, 2), (2026, 169), (1296, 109), (0, 1)])
    def test_values(self, weight, bound):
        assert sturm_bound(weight) == bound


class TestBasis:
    def test_weight_four(self):
        ring = ResidueRing(5, 2)
        bm = basis(4, ring, 6)
        assert bm.dimension == 1
        assert bm.monomials == ((1, 0, 0),)
        assert bm.columns[0] == e_series(4, ring, 6)

    def test_weight_twelve_miller(self):
        # E_4^3 - 720 Delta and Delta: column j has expansion q^j + O(q^dimension)
        ring = ResidueRing(7, 2)
        e4_cubed, delta = basis(12, ring, 6).columns
        miller = e4_cubed - delta.scale(e4_cubed.coefficient(1))
        assert e4_cubed.coefficient(1) == 720 % ring.modulus
        assert miller.coeffs[:2] == (1, 0)
        assert delta.coeffs[:2] == (0, 1)

    def test_weight_two_rejected(self):
        with pytest.raises(QuasimodularWeightError):
            basis(2, ResidueRing(5, 1), 4)

    def test_odd_weight_rejected(self):
        with pytest.raises(OddWeightError):
            basis(5, ResidueRing(5, 1), 4)

    def test_negative_weight_rejected(self):
        for weight in (-2, -4, -12):
            with pytest.raises(ParameterOutOfRangeError, match="non-negative"):
                basis(weight, ResidueRing(5, 1), 4)

    def test_monomial_columns_unitriangular(self):
        ring = ResidueRing(11, 2)
        bm = basis(24, ring, 6)
        for j, col in enumerate(bm.columns):
            assert col.coeffs[j] == 1
            assert all(col.coeffs[i] == 0 for i in range(j))


class TestSolver:
    def test_identity_system(self):
        ring = ResidueRing(5, 2)
        out = solve_mod_pm(LinearSystem.build(ring, [[1, 0], [0, 1]], [7, 11]))
        assert isinstance(out, Solution)
        assert out.vector == (7, 11)

    def test_valuation_obstruction(self):
        ring = ResidueRing(5, 2)
        out = solve_mod_pm(LinearSystem.build(ring, [[5]], [3]))
        assert isinstance(out, NoSolution)
        assert out.reason == "valuation-obstruction"

    def test_divisible_rhs_solvable(self):
        ring = ResidueRing(5, 2)
        out = solve_mod_pm(LinearSystem.build(ring, [[5]], [10]))
        assert isinstance(out, Solution)
        assert 5 * out.vector[0] % 25 == 10

    def test_round_trip_random(self, rng):
        for _ in range(40):
            ring = ResidueRing(rng.choice([5, 7]), rng.choice([1, 2, 3]))
            mod = ring.modulus
            nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 4)
            matrix = [[rng.randrange(mod) for _ in range(ncols)] for _ in range(nrows)]
            x_known = [rng.randrange(mod) for _ in range(ncols)]
            rhs = [sum(row[j] * x_known[j] for j in range(ncols)) % mod for row in matrix]
            out = solve_mod_pm(LinearSystem.build(ring, matrix, rhs))
            assert isinstance(out, Solution)
            for row, b in zip(matrix, rhs):
                assert sum(r * v for r, v in zip(row, out.vector)) % mod == b

    def test_brute_force_agreement(self, rng):
        ring = ResidueRing(5, 2)
        mod = ring.modulus
        for _ in range(60):
            nrows, ncols = rng.randrange(1, 4), rng.randrange(1, 3)
            matrix = [
                [rng.choice([0, 5, 10, rng.randrange(mod)]) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            rhs = [rng.randrange(mod) for _ in range(nrows)]
            got = bool(solve_mod_pm(LinearSystem.build(ring, matrix, rhs)))
            assert got == brute_force_solvable(matrix, rhs, mod)

    @pytest.mark.parametrize("matrix, rhs, message", [
        ([[1], [2]], [1], "matrix and rhs row counts differ"),
        ([[1, 2], [3]], [1, 2], "ragged matrix"),
    ])
    def test_build_rejects_a_malformed_system(self, matrix, rhs, message):
        with pytest.raises(ValueError) as exc:
            LinearSystem.build(ResidueRing(5, 1), matrix, rhs)
        assert str(exc.value) == message

    def test_digit_lifting_oracle_on_medium_systems(self, rng):
        # Enumeration caps out at 2 unknowns; cross-check wider systems
        # against an algorithmically independent p-adic lifting solver.
        for p, m in ((5, 3), (7, 4), (17, 6)):
            ring = ResidueRing(p, m)
            mod = ring.modulus
            for trial in range(60):
                nrows = rng.randrange(3, 13)
                ncols = rng.randrange(3, 8)
                matrix = [
                    [rng.choice([0, p, rng.randrange(mod), rng.randrange(mod),
                                 p * rng.randrange(mod // p)]) % mod
                     for _ in range(ncols)]
                    for _ in range(nrows)
                ]
                if trial % 2 == 0:
                    known = [rng.randrange(mod) for _ in range(ncols)]
                    rhs = [sum(row[j] * known[j] for j in range(ncols)) % mod
                           for row in matrix]
                else:
                    rhs = [rng.randrange(mod) for _ in range(nrows)]
                got = solve_mod_pm(LinearSystem.build(ring, matrix, rhs))
                oracle = solve_by_digit_lifting(matrix, rhs, p, m)
                assert bool(got) == (oracle is not None)
                for solution in ([got.vector] if got else []) + (
                        [oracle] if oracle is not None else []):
                    for row, b in zip(matrix, rhs):
                        assert sum(r * v for r, v in zip(row, solution)) % mod == b

    def test_digit_lifting_oracle_on_witness_systems(self):
        # The systems the filtration scan actually solves: unitriangular
        # columns force a unique solution, so the two solvers must agree
        # exactly, and unsolvable probes must fail in both.
        from conftest import _witness_system

        for example in (("G", 2026, 7, 8, 52, 46), ("E", 1296, 17, 6, 80, 64)):
            kind, k, p, m, w_good, w_bad = example
            ring = ResidueRing(p, m)
            upto = sturm_bound(k)
            f = (g_series if kind == "G" else e_series)(k, ring, upto)
            system, _, _ = _witness_system(f, k, w_good, upto)
            got = solve_mod_pm(system)
            oracle = solve_by_digit_lifting(
                [list(r) for r in system.matrix], list(system.rhs), p, m)
            assert got and oracle is not None
            assert list(got.vector) == [v % ring.modulus for v in oracle]
            system_bad, _, _ = _witness_system(f, k, w_bad, upto)
            assert not solve_mod_pm(system_bad)
            assert solve_by_digit_lifting(
                [list(r) for r in system_bad.matrix], list(system_bad.rhs), p, m) is None

    @pytest.mark.parametrize("p, m", [(5, 1), (5, 2), (7, 2), (5, 3), (7, 4), (17, 3)])
    def test_matches_the_diagonalizing_oracle(self, rng, p, m):
        # Entries p^a u with a drawn up to m, so every pivot valuation and
        # zero rows and columns occur; half the systems are solvable.
        ring = ResidueRing(p, m)
        mod = ring.modulus
        for trial in range(100):
            nrows, ncols = rng.randrange(1, 13), rng.randrange(1, 8)
            matrix = [[p ** rng.randrange(m + 1) * rng.randrange(mod) % mod
                       for _ in range(ncols)] for _ in range(nrows)]
            if trial % 2:
                known = [rng.randrange(mod) for _ in range(ncols)]
                rhs = [sum(a * x for a, x in zip(row, known)) for row in matrix]
            else:
                rhs = [p ** rng.randrange(m + 1) * rng.randrange(mod) for _ in range(nrows)]
            system = LinearSystem.build(ring, matrix, rhs)
            assert solve_mod_pm(system) == diagonalize(system), (matrix, rhs)


class TestFiltrationBound:
    def test_constructed_witness_found(self):
        # f = E_{p-1}^3 * g with g in M_16 must come back with bound <= 16
        ring = ResidueRing(5, 2)
        k = 16 + 3 * 4
        upto = sturm_bound(k)
        g = monomial_series(4, 0, 0, ring, upto) + monomial_series(1, 0, 1, ring, upto).scale(21)
        f = e_series(4, ring, upto).pow(3) * g
        report = factor_filtration_bound(f, k)
        assert report.bound_found <= 16
        assert report.witness_exponent == (k - report.bound_found) // 4

    def test_g14_bound_matches_corollary(self):
        ring = ResidueRing(5, 3)
        f = g_series(14, ring, sturm_bound(14))
        report = factor_filtration_bound(f, 14, input_id="G_14")
        assert report.bound_found <= cor13_bound(5, 3, 14)
        assert report.certification == "sturm-certified"

    def test_precision_too_low(self):
        ring = ResidueRing(5, 2)
        f = g_series(26, ring, 1)
        with pytest.raises(PrecisionTooLowError):
            factor_filtration_bound(f, 26)

    def test_evidence_mode_labelled(self):
        ring = ResidueRing(5, 2)
        f = g_series(50, ring, 3)
        report = factor_filtration_bound(f, 50, upto=3)
        assert report.certification == "coefficient-evidence(4)"

    def test_monotone_in_m(self):
        for k in (14, 22, 26):
            bounds = []
            for m in (1, 2, 3):
                ring = ResidueRing(5, m)
                f = g_series(k, ring, sturm_bound(k))
                bounds.append(factor_filtration_bound(f, k).bound_found)
            assert bounds == sorted(bounds)

    def test_class_two_weights_floor_at_p_plus_one(self):
        # For k = 2 (mod p-1) the only smaller weight in the class is 2, whose
        # space is empty, so modulo p the bound is exactly p+1.
        for p in (5, 7, 11):
            ring = ResidueRing(p, 1)
            for alpha in (1, 3):
                k = alpha * (p - 1) + 2
                f = g_series(k, ring, sturm_bound(k))
                assert factor_filtration_bound(f, k).bound_found == p + 1

    def test_report_json(self):
        ring = ResidueRing(5, 2)
        f = g_series(14, ring, sturm_bound(14))
        data = factor_filtration_bound(f, 14, input_id="G_14").to_json_dict()
        assert data["input-id"] == "G_14"
        assert isinstance(data["witness"]["coefficients"][0], str)
        assert data["bound-found"] % 2 == 0

    @pytest.mark.parametrize("fault", ["perturbed-witness", "no-witness"])
    def test_a_witness_that_fails_its_round_trip_is_an_error(self, capsys, monkeypatch, fault):
        # The witness g at the bound is checked by g * E_{p-1}^n == f. A g with
        # one coefficient off, or a probe that finds no g at the bound the
        # layer pass found, must raise, and the CLI must report it as an error.
        if fault == "perturbed-witness":
            def combine(coeffs, columns, combination=filtration.linear_combination):
                g = combination(coeffs, columns)
                bumped = (g.coeffs[1] + 1) % g.ring.modulus
                return QSeries(g.ring, (g.coeffs[0], bumped, *g.coeffs[2:]), g.precision)
            monkeypatch.setattr(filtration, "linear_combination", combine)
        else:
            monkeypatch.setattr(filtration, "_probe",
                                lambda *args: NoSolution("inconsistent-row", {"row": 0}))
        f = g_series(40, ResidueRing(7, 3), sturm_bound(40))
        with pytest.raises(EiscongError, match="^witness failed round-trip verification$"):
            factor_filtration_bound(f, 40)
        status = cli.main(["filtration", "--form", "G", "--k", "40", "--p", "7", "--m", "3"])
        captured = capsys.readouterr()
        assert (status, captured.out) == (2, "")
        assert captured.err == "error: witness failed round-trip verification\n"


class TestSharpnessProbe:
    def test_constructed_solvable(self):
        ring = ResidueRing(5, 2)
        k = 16 + 4
        upto = sturm_bound(k)
        g = monomial_series(4, 0, 0, ring, upto) + monomial_series(1, 0, 1, ring, upto).scale(7)
        f = e_series(4, ring, upto) * g
        assert sharpness_probe(f, k, 16)

    def test_weight_mismatch(self):
        ring = ResidueRing(5, 2)
        f = g_series(14, ring, sturm_bound(14))
        with pytest.raises(WeightMismatchError):
            sharpness_probe(f, 14, 13)
        with pytest.raises(WeightMismatchError):
            sharpness_probe(f, 14, 16)  # larger than k

    def test_weight_two_probe_is_empty(self):
        ring = ResidueRing(5, 2)
        f = g_series(14, ring, sturm_bound(14))
        out = sharpness_probe(f, 14, 2)
        assert isinstance(out, NoSolution) and out.reason == "empty-space"


def _solver_search(f, k, upto):
    """The filtration search done with the general solver, one system per weight.

    Returns the bound's (weight, n, monomials, coefficients, sharpness), or
    None, and the solver's outcome at every candidate weight except 2.
    """
    p = f.ring.p
    outcomes = {}
    found = None
    for w in range(k % (p - 1), k + 1, p - 1):
        if w == 2:
            continue
        system, bm, n = _witness_system(f, k, w, upto)
        outcomes[w] = solve_mod_pm(system)
        if outcomes[w] and found is None:
            sharpness = f"NoSolution at weight {w - (p - 1)}" if len(outcomes) > 1 else None
            found = (w, n, bm.monomials, outcomes[w].vector, sharpness)
    return found, outcomes


def _differential_cases(p):
    """(m, form, k, upto) for m <= 5 and every weight class k0 = k mod (p-1),
    at a small, a middle and a near-100 weight. Class 0 has E_k only; class
    2 holds the rows whose bound sits above the empty weight-2 space."""
    for m in range(1, 6):
        for k0 in range(0, p - 1, 2):
            for a in (1, 3, 96 // (p - 1)):
                for form in ("G", "E") if k0 else ("E",):
                    for upto in (None, 2, 5):
                        yield m, form, a * (p - 1) + k0, upto


class TestTriangularSearch:
    """The search by forward substitution against `solve_mod_pm` on the
    witness systems E_{p-1}^n * M_j built the direct way."""

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_matches_solver(self, p):
        for m, form, k, upto in _differential_cases(p):
            last = sturm_bound(k) if upto is None else upto
            f = (g_series if form == "G" else e_series)(k, ResidueRing(p, m), last)
            found, outcomes = _solver_search(f, k, last)
            report = factor_filtration_bound(f, k, upto=upto)
            assert found == (report.bound_found, report.witness_exponent,
                             report.witness_monomials, report.witness_coeffs,
                             report.sharpness), (p, m, form, k, upto)
            for w, outcome in outcomes.items():
                assert sharpness_probe(f, k, w, upto=upto) == outcome, (p, m, form, k, upto, w)
            if k % (p - 1) == 2:
                assert sharpness_probe(f, k, 2, upto=upto).reason == "empty-space"

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_solver_matches_the_diagonalizing_oracle(self, p):
        for m, form, k, upto in _differential_cases(p):
            last = sturm_bound(k) if upto is None else upto
            f = (g_series if form == "G" else e_series)(k, ResidueRing(p, m), last)
            for w in range(k % (p - 1), k + 1, p - 1):
                if w != 2:
                    system, _, _ = _witness_system(f, k, w, last)
                    assert solve_mod_pm(system) == diagonalize(system), (p, m, form, k, upto, w)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_e_power_order_divides_p_to_the_m_minus_one(self, p):
        for m in range(1, 7):
            ring = ResidueRing(p, m)
            assert e_series(p - 1, ring, 40).pow(p ** (m - 1)) == QSeries.one(ring, 40)

    def test_weight_two_alone_has_no_witness(self):
        f = g_series(2, ResidueRing(5, 2), sturm_bound(2))
        with pytest.raises(EiscongError, match="no witness found through weight 2"):
            factor_filtration_bound(f, 2)


def _layer_cases():
    """(p, m, form, k) for the layer pass against the search: G_k at p <= 13,
    m <= 4 and every even k0 in 2..p-3; E_k at p = 5 with m <= 6 and at p = 7
    with m <= 8, so the m >= p rows. The alphas hold the alpha mod p = 0, 1,
    2, 3 rows the refined tables branch on, every residue for p <= 7 and
    alpha = 1 mod p^2 at p = 5."""
    for p in (5, 7, 11, 13):
        alphas = sorted({*range(p + 2 if p < 11 else 5), p, p + 1, p + 2,
                         *([2 * p + 1] if p < 11 else []), *([p * p + 1] if p < 7 else [])})
        for m in range(1, 5):
            for k0 in range(2, p - 2, 2):
                for alpha in alphas:
                    yield p, m, "G", k0 + alpha * (p - 1)
    for p, top in ((5, 6), (7, 8)):
        for m in range(1, top + 1):
            for alpha in (1, 2, 3, p + 1, 2 * p + 1, p * p + 1):
                yield p, m, "E", alpha * (p - 1)


class TestLayerPass:
    """The one-pass bound and the probe against the candidate search kept in
    conftest, at the Sturm index and as evidence through q^2 and q^5."""

    def test_matches_the_candidate_search(self):
        for p, m, form, k in _layer_cases():
            for upto in (None, 2, 5):
                f = (g_series if form == "G" else e_series)(
                    k, ResidueRing(p, m), sturm_bound(k) if upto is None else upto)
                expected, outcomes = filtration_by_search(f, k, upto, input_id="f")
                case = (p, m, form, k, upto)
                if expected is None:  # G_2, or a form whose every weight fails
                    with pytest.raises(EiscongError, match="no witness found"):
                        factor_filtration_bound(f, k, upto=upto)
                    continue
                report = factor_filtration_bound(f, k, input_id="f", upto=upto)
                assert report == expected, case
                for w, outcome in outcomes.items():
                    assert sharpness_probe(f, k, w, upto) == outcome, (case, w)
                    assert probe_record(f, report, w, upto) == {
                        "weight": w, "result": "Solvable" if outcome else "NoSolution"}, (case, w)

    @pytest.mark.parametrize("p,k", [(5, 14), (7, 20), (5, 16), (13, 100)])
    def test_zero_floors_at_the_least_weight_with_a_basis(self, p, k):
        # 0 lies in every space but the empty weight-2 one, so its bound is
        # k0, or p + 1 when k0 = 2.
        ring, upto = ResidueRing(p, 2), sturm_bound(k)
        f = QSeries(ring, (0,) * (upto + 1), upto)
        expected, _ = filtration_by_search(f, k)
        assert expected.bound_found == (p + 1 if k % (p - 1) == 2 else k % (p - 1))
        assert factor_filtration_bound(f, k) == expected

    @pytest.mark.parametrize("p,m,k", [(5, 3, 46), (7, 2, 52), (13, 4, 254)])
    def test_a_series_outside_the_space_has_no_witness(self, p, m, k):
        # G_k plus q^upto: past q^(dim M_k - 1) no form of weight k differs from
        # G_k in that coefficient alone, so no candidate weight is solvable.
        ring, upto = ResidueRing(p, m), sturm_bound(k)
        g = g_series(k, ring, upto)
        f = QSeries(ring, (*g.coeffs[:-1], (g.coeffs[-1] + 1) % ring.modulus), upto)
        report, outcomes = filtration_by_search(f, k)
        assert report is None and not any(outcomes.values())
        with pytest.raises(EiscongError, match=f"no witness found through weight {k}"):
            factor_filtration_bound(f, k)


class TestFiltrationFacts:
    def test_sum_stays_bounded(self):
        # witnesses for f and g at weight <= w give one for f + g at <= w
        ring = ResidueRing(5, 2)
        k = 16 + 2 * 4
        upto = sturm_bound(k)
        e = e_series(4, ring, upto).pow(2)
        g1 = monomial_series(4, 0, 0, ring, upto)
        g2 = monomial_series(1, 0, 1, ring, upto).scale(9)
        f1, f2 = e * g1, e * g2
        s = f1 + f2
        assert sharpness_probe(s, k, 16)

    def test_multiply_by_p_raises_modulus(self):
        # a witness for f mod p^m yields one for p*f mod p^(m+1) at the same weight
        p, m, k = 5, 2, 26
        upto = sturm_bound(k)
        ring_m = ResidueRing(p, m)
        ring_m1 = ResidueRing(p, m + 1)
        f = g_series(k, ring_m, upto)
        report = factor_filtration_bound(f, k)
        assert report.bound_found <= cor13_bound(p, m, k)
        # lift the found witness relation: p * f = E^n (p * g) mod p^(m+1)
        lifted = QSeries.residue(ring_m1, [c * p for c in f.coeffs])
        w_found = report.bound_found
        assert sharpness_probe(lifted, k, w_found)


# (p, m, k0, alpha, case, stated) as the per-case if-chain that REFINED_ROWS
# replaced gave them: p in {5, 7, 11, 13}, every even k0 in 2..p-3, m in
# {2, 3, 4}; alpha at 0, p and p^2, and at r, r + p and r + p^2 for each
# residue r a row of the class lists and the one past it.
KNOWN_CASES = json.loads((Path(__file__).parent / "refined_bound_answers.json").read_text())
KNOWN_CLASSES = sorted({(p, m, k0) for p, m, k0, *_ in KNOWN_CASES})


class TestRefinedBounds:
    @pytest.mark.parametrize("p,m,k0", KNOWN_CLASSES,
                             ids=[f"p{p}-m{m}-k0={k0}" for p, m, k0 in KNOWN_CLASSES])
    def test_known_answers(self, p, m, k0):
        expected = [(alpha, case, stated) for *key, alpha, case, stated in KNOWN_CASES
                    if key == [p, m, k0]]
        assert [(alpha, *refined_bound_case(p, m, k0, alpha))
                for alpha, _, _ in expected] == expected

    def test_known_answers_name_all_18_cases(self):
        assert len({case for *_, case, _ in KNOWN_CASES}) == 18

    def test_general_rows_state_cor13_and_special_rows_less(self):
        # Cor. 1.3 states (m-1)(p-1) + k0(m) for every alpha; a refined table
        # lowers it on its special classes only.
        wrong = []
        for p in filter(is_prime, range(5, 32)):
            for m in (2, 3, 4):
                for k0 in range(2, p - 2, 2):
                    for alpha in range(p * p + 2 * p):
                        case, stated = refined_bound_case(p, m, k0, alpha)
                        if stated is None:
                            assert case == "m2-k0eq2-external"
                            continue
                        cor13 = cor13_bound(p, m, k0 + alpha * (p - 1))
                        general = case.endswith("-general") or case == "m2-k0ge4"
                        if not (stated == cor13 if general else stated < cor13):
                            wrong.append((p, m, k0, alpha, case, stated, cor13))
        assert wrong == []

    def test_k0m(self):
        assert k0m_of(2026, 7, 8) == 10
        assert k0m_of(1296, 17, 6) == 16
        assert cor13_bound(7, 8, 2026) == 52
        assert cor14_bound(17, 6) == 80

    def test_m3_alpha_one_case(self):
        # p=7, k0=4, alpha = 1 (mod 7): bound <= (p-1)+4 = 10
        p, alpha, k0 = 7, 8, 4
        k = alpha * (p - 1) + k0
        report = verify_refined_bounds(p, 3, k)
        assert report.verdict == "Pass"
        assert report.stated_bound == 10
        assert report.computed_bound <= 10

    def test_m3_general_case(self):
        # p=5, k0=2, alpha = 3 -> general row: bound <= 3(p-1)+2 = 14
        report = verify_refined_bounds(5, 3, 14)
        assert report.case == "m3-k0eq2-general"
        assert report.stated_bound == 14
        assert report.verdict == "Pass"

    def test_m2_k0_2_skipped(self):
        report = verify_refined_bounds(5, 2, 14)
        assert report.verdict == "Skipped"
        assert report.stated_bound is None
        assert report.passed and report.to_json_dict() == {
            "p": 5, "m": 2, "k": 14, "k0": 2, "alpha": 3, "case": "m2-k0eq2-external",
            "stated-bound": None, "computed-bound": None, "verdict": "Skipped"}

    def test_m2_k0_4(self):
        report = verify_refined_bounds(7, 2, 4 + 3 * 6)
        assert report.verdict == "Pass"
        assert report.stated_bound == 10

    def test_m4_k0_2_alpha_one(self):
        # p=7, m=4, k0=2, alpha = 1 (mod p^2): bound <= (p-1)+2 = 8
        report = verify_refined_bounds(7, 4, 8)
        assert report.case == "m4-k0eq2-alpha1-psq"
        assert report.stated_bound == 8
        assert report.verdict == "Pass"
        assert report.passed and report.to_json_dict() == {
            "p": 7, "m": 4, "k": 8, "k0": 2, "alpha": 1, "case": "m4-k0eq2-alpha1-psq",
            "stated-bound": 8, "computed-bound": 8, "verdict": "Pass"}

    @pytest.mark.parametrize("p, k0", [(11, 6), (11, 8), (13, 6)])
    def test_m4_k0_at_least_6(self, p, k0):
        # The row is fixed by alpha mod p^2 in {0, 1}, then by alpha mod p in
        # {0, 1, 2}, else it is the general one; its bound is j(p-1) + k0.
        rows = {alpha: ("m4-k0ge6-alpha01-psq", 1) for alpha in (0, 1, p * p, p * p + 1)}
        rows |= {alpha: ("m4-k0ge6-alpha012", 2) for alpha in (2, p, p + 1, p + 2)}
        rows |= {alpha: ("m4-k0ge6-general", 3) for alpha in (3, 4, p + 3)}
        for alpha, (case, j) in rows.items():
            report = verify_refined_bounds(p, 4, k0 + alpha * (p - 1))
            assert (report.k0, report.alpha, report.case, report.stated_bound, report.verdict) == (
                k0, alpha, case, j * (p - 1) + k0, "Pass"), alpha
            assert report.computed_bound <= report.stated_bound

    def test_a_failing_row_does_not_pass(self):
        report = BoundReport(5, 1, 10, 2, 2, "m1", 2, 6, "Fail")
        assert not report.passed and report.to_json_dict() == {
            "p": 5, "m": 1, "k": 10, "k0": 2, "alpha": 2, "case": "m1", "stated-bound": 2,
            "computed-bound": 6, "verdict": "Fail"}

    @pytest.mark.parametrize("call, message", [
        (lambda: refined_bound_case(11, 2, 3, 1), "k0 = 3 must be even with 2 <= k0 <= p-3"),
        (lambda: refined_bound_case(11, 2, 10, 1), "k0 = 10 must be even with 2 <= k0 <= p-3"),
        (lambda: verify_refined_bounds(5, 2, 2), "k must be at least 4"),
        (lambda: verify_refined_bounds(5, 5, 14), "refined bounds cover m in {2, 3, 4}, got 5"),
    ], ids=["odd-k0", "k0-above-p-3", "k-below-4", "m5"])
    def test_out_of_range_arguments(self, call, message):
        with pytest.raises(ParameterOutOfRangeError) as exc:
            call()
        assert str(exc.value) == message
