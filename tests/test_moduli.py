from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prym6 import moduli
from prym6.moduli import (R6_BASIS, CurveClass, DivClassR6, MarkerPairingError,
                          ap_pullback_theta, prym_pullback_lambda,
                          pullback_boundary_D6, pullback_delta0, slope_bound)


class TestDivClassAlgebra:
    def test_vector_and_linearity(self):
        d = pullback_delta0()
        assert d.coeffs == {"delta0_prime": 1, "delta0_dblprime": 1,
                            "delta0_ram": 2}
        assert (2 * d).coeffs == {"delta0_prime": 2, "delta0_dblprime": 2,
                                  "delta0_ram": 4}
        assert d + d == 2 * d
        assert (d - d).coeffs == {}

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError):
            DivClassR6({"nonsense": 1})
        with pytest.raises(ValueError):
            CurveClass({"nonsense": 1})

    def test_marker_propagates(self):
        marked = ap_pullback_theta()
        plain = pullback_delta0()
        assert (marked + plain).unknown_boundary
        assert (3 * marked).unknown_boundary
        assert not (plain + plain).unknown_boundary


class TestPullbackFormulas:
    def test_delta0(self):
        assert pullback_delta0()["delta0_ram"] == 2
        assert pullback_delta0()["lambda"] == 0

    def test_prym_lambda(self):
        v = prym_pullback_lambda()
        assert v["lambda"] == 1
        assert v["delta0_ram"] == Fraction(-1, 4)
        assert not v.unknown_boundary

    def test_ap_theta_full_and_restricted(self):
        full = ap_pullback_theta()
        assert [full[f"psi{j}"] for j in range(1, 6)] == [
            Fraction(1, 2)] * 4 + [Fraction(2)]
        restricted = ap_pullback_theta(restricted=True)
        assert [restricted[f"psi{j}"] for j in range(1, 6)] == [
            Fraction(1, 2)] * 4 + [Fraction(0)]
        for cls in (full, restricted):
            assert cls["lambda"] == 0
            assert cls["delta0_prime"] == 0
            assert cls.unknown_boundary

    def test_boundary_pullback_structure(self):
        for restricted in (False, True):
            bp = pullback_boundary_D6(restricted)
            assert bp == -2 * ap_pullback_theta(restricted) + DivClassR6(
                {"delta0_prime": 1})
            assert [bp[f"psi{j}"] for j in range(1, 6)] == [
                Fraction(-1)] * 4 + [Fraction(0 if restricted else -4)]
            assert bp["delta0_prime"] == 1
            assert bp["lambda"] == 0
            assert bp.unknown_boundary


class TestMarkerDiscipline:
    def test_pairing_marked_class_requires_declaration(self):
        curve = CurveClass({"psi1": 9})
        with pytest.raises(MarkerPairingError):
            curve.pair(ap_pullback_theta())
        declared = CurveClass({"psi1": 9}, marker_orthogonal=True)
        assert declared.pair(ap_pullback_theta()) == Fraction(9, 2)

    def test_unmarked_pairing_is_free(self):
        curve = CurveClass({"lambda": 18})
        assert curve.pair(prym_pullback_lambda()) == 18


class TestEnumerativeChain:
    def test_chi_of_Y(self):
        chain = moduli.chi_of_Y_chain()
        assert chain["omega_class"] == (3, 1)
        assert chain["h0_omega_ambient"] == 20
        assert chain["h0_omega"] == 12
        assert chain["chi"] == 13

    def test_lambda_degree(self):
        chi = moduli.chi_of_Y_chain()["chi"]
        assert moduli.lambda_degree_from_family(chi) == 18
        assert moduli.lambda_degree_from_family(Fraction(13)) == 18

    def test_double_line_count_both_relations(self, e_lambda, euler):
        e_prime = euler["singular_members"]
        assert moduli.solve_double_line_count(e_lambda, e_prime) == 32
        assert moduli.solve_double_line_count(
            e_lambda, e_prime, unreduced=True) == 32

    def test_double_line_count_degenerate_input(self, euler):
        with pytest.raises(ValueError):
            moduli.solve_double_line_count(
                Fraction(0), euler["singular_members"])

    def test_degree_nine_lemma(self):
        assert moduli.degree_nine_lemma() == 9

    def test_psi_degree(self):
        assert moduli.psi_degree_via_Z() == 9


class TestCurveClasses:
    def test_single_pencil_numbers(self, curves):
        single = curves["single"]
        assert single["lambda"] == 18
        assert single["delta0_prime"] == 77
        assert single["delta0_dblprime"] == 0
        assert single["delta0_ram"] == 32

    def test_triple_is_three_times_single(self, curves):
        single, triple = curves["single"], curves["triple"]
        for key in ("lambda", "delta0_prime", "delta0_dblprime", "delta0_ram"):
            assert triple[key] == 3 * single[key]
        assert triple["lambda"] == 54
        assert triple["delta0_prime"] == 231
        assert triple["delta0_ram"] == 96

    def test_sweeping_psi_numbers(self, curves):
        sweeping = curves["sweeping"]
        for j in range(1, 6):
            assert sweeping[f"psi{j}"] == 9
        assert sweeping.marker_orthogonal

    def test_pairing_with_delta0_pullback(self, curves):
        single = curves["single"]
        assert single.pair(pullback_delta0()) == 141

    def test_scaling_scales_pairings(self, curves):
        single = curves["single"]
        five = 5 * single
        assert five.pair(pullback_delta0()) == 5 * 141


class TestSlopeBounds:
    def test_full_variant(self, curves):
        assert slope_bound("full", curves["sweeping"]) == (
            30, 159, Fraction(53, 10))

    def test_u4_variant(self, curves):
        lam, boundary, bound = slope_bound("u4", curves["sweeping"])
        assert (lam, boundary) == (30, 195)
        assert bound == Fraction(13, 2)

    def test_unknown_variant(self, curves):
        with pytest.raises(ValueError):
            slope_bound("bogus", curves["sweeping"])

    def test_requires_marker_orthogonality(self, curves):
        undeclared = curves["sweeping"]
        undeclared = CurveClass(undeclared.coeffs, marker_orthogonal=False)
        with pytest.raises(MarkerPairingError):
            slope_bound("full", curve=undeclared)

    def test_sensitivity_no_hardcoding(self, curves):
        # nudging any single curve number must change the output
        base = curves["sweeping"]
        reference = slope_bound("full", base)
        for key in ("lambda", "delta0_prime", "delta0_ram", "psi1", "psi5"):
            bumped = base.coeffs
            bumped[key] = bumped.get(key, Fraction(0)) + 1
            curve = CurveClass(bumped, marker_orthogonal=True)
            assert slope_bound("full", curve=curve) != reference


# -- the integer ledger against a Fraction reference ---------------------------

small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
ledger = st.dictionaries(st.sampled_from(R6_BASIS), small_fracs, max_size=6)


def ref_combine(a, b, sign):
    """a + sign * b as a dict of nonzero Fractions."""
    return {k: v for k in set(a) | set(b)
            if (v := a.get(k, Fraction(0)) + sign * b.get(k, Fraction(0)))}


class TestLedgerArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(ledger, ledger, small_fracs, st.booleans(), st.booleans())
    def test_matches_the_fraction_reference(self, a, b, k, ma, mb):
        x, y = DivClassR6(a, ma), DivClassR6(b, mb)
        assert (x + y).coeffs == ref_combine(a, b, 1)
        assert (x - y).coeffs == ref_combine(a, b, -1)
        assert (k * x).coeffs == ref_combine({}, a, k)
        assert (x * k).coeffs == (k * x).coeffs
        assert (-x).coeffs == ref_combine({}, a, -1)
        assert (x + y).unknown_boundary == (x - y).unknown_boundary == (ma or mb)
        assert (k * x).unknown_boundary == ma
        assert [x[key] for key in R6_BASIS] == [a.get(key, 0) for key in R6_BASIS]

        curve = CurveClass(b, marker_orthogonal=True)
        paired = sum((b.get(key, Fraction(0)) * v for key, v in a.items()),
                     Fraction(0))
        assert curve.pair(x) == paired
        assert curve.pair(x + x) == 2 * paired
        scaled = k * curve
        assert scaled.pair(x) == k * paired
        assert scaled.coeffs == ref_combine({}, b, k)
        assert scaled.marker_orthogonal
