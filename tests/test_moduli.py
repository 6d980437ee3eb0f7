from fractions import Fraction

import pytest

from prym6 import moduli
from prym6.moduli import (CurveClass, DivClassR6, MarkerPairingError,
                          ap_psi_coefficients, ap_pullback_theta,
                          pencil_curve_numbers, prym_pullback_lambda,
                          pullback_boundary_D6, pullback_delta0, slope_bound)


class TestDivClassAlgebra:
    def test_vector_and_linearity(self):
        d = pullback_delta0()
        assert d.vector() == (0, 1, 1, 2, 0, 0, 0, 0, 0)
        assert (2 * d).vector() == (0, 2, 2, 4, 0, 0, 0, 0, 0)
        assert (d + d).vector() == (2 * d).vector()
        assert (d - d).vector() == (0,) * 9

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError):
            DivClassR6({"nonsense": 1})
        with pytest.raises(ValueError):
            CurveClass({"nonsense": 1}, provenance="test")

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

    def test_ap_psi_generic_genus(self):
        assert ap_psi_coefficients(8) == (Fraction(1, 2),) * 6 + (Fraction(2),)
        assert ap_psi_coefficients(8, restricted=True) == (Fraction(1, 2),) * 6
        with pytest.raises(ValueError):
            ap_psi_coefficients(7)

    def test_boundary_pullback_structure(self):
        bp = pullback_boundary_D6()
        assert bp.theta_coeff == -2
        assert bp.tail.vector() == (0, 1, 0, 0, 0, 0, 0, 0, 0)
        expanded = bp.expanded()
        assert [expanded[f"psi{j}"] for j in range(1, 6)] == [
            Fraction(-1)] * 4 + [Fraction(-4)]
        assert expanded["delta0_prime"] == 1
        assert expanded.unknown_boundary


class TestMarkerDiscipline:
    def test_pairing_marked_class_requires_declaration(self):
        curve = CurveClass({"psi1": 9}, provenance="undeclared")
        with pytest.raises(MarkerPairingError):
            curve.pair(ap_pullback_theta())
        declared = CurveClass({"psi1": 9}, provenance="declared",
                              marker_orthogonal=True)
        assert declared.pair(ap_pullback_theta()) == Fraction(9, 2)

    def test_unmarked_pairing_is_free(self):
        curve = CurveClass({"lambda": 18}, provenance="plain")
        assert curve.pair(prym_pullback_lambda()) == 18


class TestEnumerativeChain:
    def test_chi_of_Y(self):
        chain = moduli.chi_of_Y_chain()
        assert chain["omega_class"] == (3, 1)
        assert chain["h0_omega_ambient"] == 20
        assert chain["h0_omega"] == 12
        assert chain["chi"] == 13

    def test_lambda_degree(self):
        assert moduli.lambda_degree_from_family() == 18
        assert moduli.lambda_degree_from_family(chi=Fraction(13)) == 18

    def test_double_line_count_both_relations(self):
        assert moduli.solve_double_line_count() == 32
        assert moduli.solve_double_line_count(unreduced=True) == 32

    def test_double_line_count_degenerate_input(self):
        with pytest.raises(ValueError):
            moduli.solve_double_line_count(e_lambda=Fraction(0))

    def test_degree_nine_lemma(self):
        assert moduli.degree_nine_lemma() == 9

    def test_psi_degree(self):
        assert moduli.psi_degree_via_Z() == 9


class TestCurveClasses:
    def test_single_pencil_numbers(self):
        single = pencil_curve_numbers()["single"]
        assert single["lambda"] == 18
        assert single["delta0_prime"] == 77
        assert single["delta0_dblprime"] == 0
        assert single["delta0_ram"] == 32

    def test_triple_is_three_times_single(self):
        curves = pencil_curve_numbers()
        single, triple = curves["single"], curves["triple"]
        for key in ("lambda", "delta0_prime", "delta0_dblprime", "delta0_ram"):
            assert triple[key] == 3 * single[key]
        assert triple["lambda"] == 54
        assert triple["delta0_prime"] == 231
        assert triple["delta0_ram"] == 96

    def test_sweeping_psi_numbers(self):
        sweeping = pencil_curve_numbers()["sweeping"]
        for j in range(1, 6):
            assert sweeping[f"psi{j}"] == 9
        assert sweeping.marker_orthogonal

    def test_pairing_with_delta0_pullback(self):
        single = pencil_curve_numbers()["single"]
        assert single.pair(pullback_delta0()) == 141

    def test_scaling_scales_pairings(self):
        single = pencil_curve_numbers()["single"]
        assert single.scaled(5).pair(pullback_delta0()) == 5 * 141


class TestSlopeBounds:
    def test_full_variant(self):
        assert slope_bound("full") == (30, 159, Fraction(53, 10))

    def test_u4_variant(self):
        lam, boundary, bound = slope_bound("u4")
        assert (lam, boundary) == (30, 195)
        assert bound == Fraction(13, 2)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            slope_bound("bogus")

    def test_requires_marker_orthogonality(self):
        undeclared = pencil_curve_numbers()["sweeping"]
        undeclared = CurveClass(undeclared.numbers, "copy",
                                marker_orthogonal=False)
        with pytest.raises(MarkerPairingError):
            slope_bound("full", curve=undeclared)

    def test_sensitivity_no_hardcoding(self):
        # nudging any single curve number must change the output
        base = pencil_curve_numbers()["sweeping"]
        reference = slope_bound("full")
        for key in ("lambda", "delta0_prime", "delta0_ram", "psi1", "psi5"):
            bumped = dict(base.numbers)
            bumped[key] = bumped.get(key, Fraction(0)) + 1
            curve = CurveClass(bumped, "perturbed", marker_orthogonal=True)
            assert slope_bound("full", curve=curve) != reference

    def test_threshold_report(self):
        report = moduli.general_type_threshold_report()
        assert report["bound"] == Fraction(53, 10)
        assert report["below_threshold"]
        assert not report["implies_general_type"]
