from fractions import Fraction
from math import factorial

import pytest

from prym6 import chow


class TestProductProjectiveRing:
    def test_degrees_and_truncation(self):
        R = chow.ProductProjectiveRing((2, 1))
        h1, h2 = R.h(0), R.h(1)
        assert (h1 ** 2 * h2).integrate() == 1
        assert (h1 ** 3).coeffs == {}
        assert (h1 * h1 * h2 * h2).coeffs == {}

    def test_ring_axioms_on_random_elements(self):
        R = chow.ProductProjectiveRing((2, 2, 2))
        a = 2 * R.h(0) + R.h(1)
        b = R.h(1) - 3 * R.h(2)
        c = R.one() + R.h(0) * R.h(2)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_classes_are_unhashable(self):
        # a class equals a scalar (R.one() == 1), which no hash can respect
        R = chow.ProductProjectiveRing((2, 1))
        assert R.one() == 1
        with pytest.raises(TypeError):
            hash(R.one())

    def test_degree_nine_integral(self):
        R = chow.ProductProjectiveRing((2, 2, 2))
        h1, h2, h3 = R.h(0), R.h(1), R.h(2)
        cls = (2 * h1 + h2 + h3) ** 3 * (3 * h3) * h1 * h1
        assert cls.integrate() == 9

    def test_multinomial_oracle(self):
        # (h1 + h2)^3 on P^2 x P^1 integrates against h2 wrongly unless the
        # truncation h2^2 = 0 is active: top coefficient is C(3,1) = 3
        R = chow.ProductProjectiveRing((2, 1))
        val = ((R.h(0) + R.h(1)) ** 3).integrate()
        assert val == 3


class TestDelPezzoRing:
    def test_intersection_pairing(self, S):
        assert (S.L() * S.L()).integrate() == 1
        assert (S.E(1) * S.E(1)).integrate() == -1
        assert (S.L() * S.E(2)).integrate() == 0
        assert (S.E(1) * S.E(2)).integrate() == 0

    def test_negative_power_raises(self, S):
        with pytest.raises(ValueError):
            S.L() ** -1
        assert S.L() ** 0 == S.one()

    def test_canonical_square_five(self, S):
        K = S.canonical()
        assert (K * K).integrate() == 5

    def test_anticanonical_degree_of_discriminant(self, S):
        # the discriminant class -2K has genus 6 by adjunction
        d = -2 * S.canonical()
        two_g_minus_2 = (d * (d + S.canonical())).integrate()
        assert two_g_minus_2 == 10

    def test_euler_number(self, S):
        assert S.euler_number() == 7


class TestProjectiveBundleRing:
    def test_grothendieck_normalization(self, P):
        # the convention is pinned by the Segre number: zeta^4 = c1^2 - c2
        assert (P.zeta() ** 4).integrate() == 2

    def test_zeta_cubed_relation(self, P):
        S = P.base
        z = P.zeta()
        lhs = z ** 3
        rhs = z * z * P.pull(-S.canonical()) - 3 * z * P.pull(S.pt())
        assert lhs == rhs

    def test_pullback_is_ring_map(self, P):
        S = P.base
        a, b = S.L() + S.E(1), 2 * S.E(2) - S.L()
        assert P.pull(a * b) == P.pull(a) * P.pull(b)
        assert P.pull(a + b) == P.pull(a) + P.pull(b)

    def test_fiber_integral(self, P):
        # zeta^2 restricted over a point integrates to 1
        assert (P.zeta() ** 2 * P.pull(P.base.pt())).integrate() == 1

    def test_commutativity_on_basis(self, P):
        z, L, E = P.zeta(), P.pull(P.base.L()), P.pull(P.base.E(3))
        for a in (z, L, E, z * L):
            for b in (z, E, z * z):
                assert a * b == b * a


class TestBlowupTable:
    def test_frozen_exceptional_numbers(self, table):
        assert table[(4, 0, 0, 0)] == -4
        assert table[(3, 1, 0, 0)] == 4
        assert table[(3, 0, 1, 0)] == 0
        assert table[(3, 0, 0, 1)] == 0
        assert table[(2, 2, 0, 0)] == 0
        assert table[(2, 0, 2, 0)] == 0
        assert table[(2, 0, 0, 2)] == 0

    def test_pullback_entries(self, table):
        assert table[(0, 2, 0, 2)] == 5   # (-K)^2 on the surface factor
        assert table[(0, 1, 1, 2)] == 3   # (-K).L
        assert table[(0, 0, 2, 2)] == 1   # L^2
        assert table[(0, 2, 2, 0)] == 0   # fewer than two fiber hyperplanes

    def test_table_is_complete(self, table):
        assert len(table) == 35  # compositions of 4 into 4 parts
        assert all(sum(k) == 4 for k in table)

    def test_intersection_number_multilinear(self, table):
        d = {"H1": Fraction(1), "H2": Fraction(1), "N": Fraction(-1)}
        e = {"H": Fraction(2)}
        v1 = chow.intersection_number(table, [d, d, d, e])
        scaled = {k: 5 * v for k, v in d.items()}
        assert chow.intersection_number(table, [scaled, d, d, e]) == 5 * v1


    def test_intersection_number_rejects_unknown_keys(self, table):
        assert chow.intersection_number(table, [{"H1": 1, "H2": 1}] * 4) == 6
        with pytest.raises(ValueError, match="h1"):
            chow.intersection_number(table, [{"h1": 1, "H2": 1}] * 4)


class TestDegreeAndCanonical:
    def test_deg_h_two_routes(self, table, P):
        assert chow.verify_deg_h_two_ways(table, P) == (2, 2)

    def test_canonical_classes(self):
        kp, kb = chow.canonical_classes()
        assert kp == {"H1": Fraction(-3), "H2": Fraction(-3), "N": Fraction(3)}
        assert kb == {"H1": Fraction(1), "H2": Fraction(1), "N": Fraction(-1)}

    def test_kb_squared(self, table):
        assert chow.kb_squared(table) == 8


class TestRiemannRoch:
    def test_chi_values(self, P):
        assert chow.hrr_chi(P, 0) == 1
        assert chow.hrr_chi(P, 1) == 5
        assert chow.hrr_chi(P, 2) == 16
        assert chow.hrr_chi(P, -2) == 0
        assert chow.hrr_chi(P, -4) == 5

    def test_chi_is_the_direct_integral(self, S):
        # a fresh ring, so its Hilbert coefficients are computed in this test
        P = chow.ProjectiveBundleRing(S, chow.conic_bundle_chern_data(S))
        td = P.one() + sum(chow.todd_classes(*chow.tangent_chern_classes(P)),
                           P.zero())
        for d in range(-6, 7):
            # ch(O_P(d)) = sum_k (d zeta)^k / k!
            ch = sum(((d * P.zeta()) ** k * Fraction(1, factorial(k))
                      for k in range(5)), P.zero())
            assert chow.hrr_chi(P, d) == (ch * td).integrate()

    def test_chi_is_degree_four_polynomial(self, P):
        # fourth finite difference must be constant 4! * leading coefficient
        vals = [chow.hrr_chi(P, d) for d in range(-3, 6)]
        diff = vals
        for _ in range(4):
            diff = [b - a for a, b in zip(diff, diff[1:])]
        assert len(set(diff)) == 1
        fifth = [b - a for a, b in zip(diff, diff[1:])]
        assert set(fifth) == {0}

    def test_chi_matches_section_count(self, P):
        # for d >= 0 the bundle has no higher cohomology here, so chi = h^0,
        # which splits over the double cover of P^4
        for d in range(4):
            assert chow.hrr_chi(P, d) == chow.sections_formula(d)

    def test_serre_duality_symmetry(self, P):
        # K_P = -3 zeta on the bundle, so chi(d) = chi(-3 - d)
        for d in range(-1, 4):
            assert chow.hrr_chi(P, d) == chow.hrr_chi(P, -3 - d)

    def test_todd_genus_one(self, P):
        td = chow.todd_classes(*chow.tangent_chern_classes(P))
        assert td[3].integrate() == 1

    def test_koszul_chi_B(self, P):
        assert chow.koszul_chi_B(P) == 6

    def test_noether_identity(self, P, table, euler):
        # 12 chi(O_B) = K_B^2 + c2(B)
        chi_b = chow.koszul_chi_B(P)
        assert 12 * chi_b == chow.kb_squared(table) + euler["e_B"]


class TestEulerNumbers:
    def test_full_ledger(self, euler):
        e = euler
        assert e["e_S"] == 7
        assert e["g_C"] == 6
        assert e["e_C"] == -10
        assert e["e_Q"] == 4
        assert e["e_Q0"] == 5
        assert e["e_P"] == 21
        assert e["chi_B"] == 6
        assert e["K_B^2"] == 8
        assert e["e_B"] == 64
        assert e["singular_members"] == 77

    def test_count_is_wired_not_retyped(self, euler):
        e = euler
        assert e["singular_members"] == e["e_P"] + e["e_B"] - 2 * e["e_Q"]
