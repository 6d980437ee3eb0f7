from fractions import Fraction
from itertools import product
from math import factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prym6 import chow, cli


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

    def test_classes_hash_by_value(self):
        # a class is never equal to a scalar, so equal classes can hash alike
        R = chow.ProductProjectiveRing((2, 1))
        assert R.one() != 1
        assert hash(R.one()) == hash(R.h(0) ** 0)
        assert len({R.h(0) * R.h(1), R.h(1) * R.h(0), R.h(1)}) == 2

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
        assert all(type(v) is int for v in table.values())

    def test_non_integral_surface_number_raises(self, monkeypatch):
        # an intersection number on S is an integer; the table refuses one
        # that is not instead of storing it
        monkeypatch.setattr(chow.DelPezzoRing, "integrate",
                            lambda self, cls: Fraction(1, 2))
        with pytest.raises(ArithmeticError, match="not an integer"):
            chow.blowup_intersection_table()

    def test_intersection_number_multilinear(self, blowup):
        d = blowup.divisor({"H1": 1, "H2": 1, "N": -1})
        e = blowup.divisor({"H": 2})
        v1 = chow.intersection_number([d, d, d, e])
        scaled = blowup.divisor({"H1": 5, "H2": 5, "N": -5})
        assert chow.intersection_number([scaled, d, d, e]) == 5 * v1

    def test_intersection_number_rejects_unknown_keys(self, blowup):
        d = blowup.divisor({"H1": 1, "H2": 1})
        assert chow.intersection_number([d] * 4) == 6
        with pytest.raises(ValueError, match="h1"):
            blowup.divisor({"h1": 1, "H2": 1})


class TestDegreeAndCanonical:
    def test_deg_h_two_routes(self, blowup, P):
        assert chow.verify_deg_h_two_ways(blowup, P) == (2, 2)

    def test_canonical_classes(self, blowup):
        kp, kb = chow.canonical_classes(blowup)
        assert kp.coeffs == {(0, 0, 1, 0): -3, (0, 0, 0, 1): -3, (1, 0, 0, 0): 3}
        assert kb.coeffs == {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1, (1, 0, 0, 0): -1}
        assert kb == blowup.zeta()

    def test_kb_squared(self, blowup):
        assert chow.kb_squared(blowup) == 8


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
        zero = chow.ChowClass(P, {})
        td = P.one() + sum(chow.todd_classes(*chow.tangent_chern_classes(P)),
                           zero)
        for d in range(-6, 7):
            # ch(O_P(d)) = sum_k (d zeta)^k / k!
            ch = sum(((d * P.zeta()) ** k * Fraction(1, factorial(k))
                      for k in range(5)), zero)
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

    def test_noether_identity(self, P, blowup, euler):
        # 12 chi(O_B) = K_B^2 + c2(B)
        chi_b = chow.koszul_chi_B(P)
        assert 12 * chi_b == chow.kb_squared(blowup) + euler["e_B"]


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


# -- the integer arithmetic against a Fraction reference ---------------------

def ref_mul_basis(ring, k1, k2):
    """Structure constants as Fractions, computed the way the rings did
    before they kept integers: exponent sums on a product of projective
    spaces, the intersection form on S, and the zeta^3 reduction on P."""
    if isinstance(ring, chow.ProductProjectiveRing):
        k = tuple(a + b for a, b in zip(k1, k2))
        if any(e > d for e, d in zip(k, ring.dims)):
            return {}
        return {k: Fraction(1)}
    if isinstance(ring, chow.DelPezzoRing):
        if k1 == "1":
            return {k2: Fraction(1)}
        if k2 == "1":
            return {k1: Fraction(1)}
        if k1 == k2 == "L":
            return {"pt": Fraction(1)}
        if k1 == k2 and k1.startswith("E"):
            return {"pt": Fraction(-1)}
        return {}
    out = {}
    for s, c in ref_mul_basis(ring.base, k1[1], k2[1]).items():
        for key, r in ref_reduce(ring, k1[0] + k2[0], s).items():
            out[key] = out.get(key, Fraction(0)) + c * r
    return out


def ref_reduce(P, a, s):
    """zeta^a s in the basis of P, by zeta^3 = c1 zeta^2 - c2 zeta."""
    if a <= 2:
        return {(a, s): Fraction(1)}
    out = {}
    for sk, sc in P.chern.c1.coeffs.items():
        for bs, bc in ref_mul_basis(P.base, s, sk).items():
            for key, c in ref_reduce(P, a - 1, bs).items():
                out[key] = out.get(key, Fraction(0)) + sc * bc * c
    for bs, bc in ref_mul_basis(P.base, s, "pt").items():
        for key, c in ref_reduce(P, a - 2, bs).items():
            out[key] = out.get(key, Fraction(0)) - Fraction(P.chern.c2) * bc * c
    return out


def ref_product(x, y):
    """x * y as a dict of nonzero Fractions, from the reference constants."""
    out = {}
    for k1, v1 in x.coeffs.items():
        for k2, v2 in y.coeffs.items():
            for k, c in ref_mul_basis(x.ring, k1, k2).items():
                out[k] = out.get(k, Fraction(0)) + v1 * v2 * c
    return {k: v for k, v in out.items() if v}


S_KEYS = ["1", "L", "E1", "E2", "E3", "E4", "pt"]
#: ring name -> its basis keys
BASES = {
    "S": S_KEYS,
    "P": [(a, s) for a in range(3) for s in S_KEYS],
    "P2xP2xP2": list(product(range(3), repeat=3)),
}


def make_ring(name):
    if name == "S":
        return chow.DelPezzoRing()
    if name == "P":
        S = chow.DelPezzoRing()
        return chow.ProjectiveBundleRing(S, chow.conic_bundle_chern_data(S))
    return chow.ProductProjectiveRing((2, 2, 2))


small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def class_strategy(ring, keys):
    return st.dictionaries(st.sampled_from(keys), small_fracs,
                           max_size=6).map(lambda c: chow.ChowClass(ring, c))


def assert_canonical(x):
    """nums / den in lowest terms, with no zero numerator and den > 0."""
    assert x.den > 0
    assert all(x.nums.values())
    assert gcd(x.den, *x.nums.values()) == 1


class TestIntegerArithmetic:
    @pytest.mark.parametrize("name", list(BASES))
    def test_products_match_the_fraction_reference(self, name):
        ring = make_ring(name)
        classes = class_strategy(ring, BASES[name])

        @settings(max_examples=40, deadline=None)
        @given(classes, classes)
        def check(x, y):
            xy = x * y
            assert_canonical(xy)
            assert xy.coeffs == ref_product(x, y)
            assert (x + y).coeffs == {
                k: v for k in set(x.coeffs) | set(y.coeffs)
                if (v := x.coeffs.get(k, 0) + y.coeffs.get(k, 0))}

        check()

    @pytest.mark.parametrize("name", list(BASES))
    def test_equal_classes_have_equal_numerators(self, name):
        ring = make_ring(name)
        classes = class_strategy(ring, BASES[name])

        @settings(max_examples=40, deadline=None)
        @given(classes, classes)
        def check(x, y):
            assert_canonical(x)
            third = x * Fraction(1, 3)
            assert_canonical(third)
            back = third * 3
            assert back == x
            assert (back.nums, back.den) == (x.nums, x.den)
            assert (x * y - y * x).nums == {}
            assert (x - x).den == 1

        check()

    def test_zero_coefficients_are_dropped(self, S):
        x = chow.ChowClass(S, {"L": 0, "E1": Fraction(2, 4), "pt": Fraction(0)})
        assert (x.nums, x.den) == ({"E1": 1}, 2)
        assert x.coeffs == {"E1": Fraction(1, 2)}
        cancelled = S.L() * S.E(1) + S.E(2) - S.E(2)
        assert (cancelled.nums, cancelled.den) == ({}, 1)

    def test_structure_constants_are_integers(self, P):
        z, L = P.zeta(), P.pull(P.base.L())
        for x in (z, z * z, z * L, P.pull(P.base.E(2))):
            for y in (z, z * z, L):
                for k1 in x.nums:
                    for k2 in y.nums:
                        assert all(type(c) is int
                                   for c in P.mul_basis(k1, k2).values())

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.dictionaries(st.sampled_from(["N", "H", "H1", "H2"]),
                                    small_fracs, max_size=4),
                    min_size=4, max_size=4))
    def test_intersection_number_is_the_term_expansion(self, divisors):
        table = chow.blowup_intersection_table()
        X = chow.BlowupRing(table)
        order = ("N", "H", "H1", "H2")
        brute = Fraction(0)
        for choice in product(*(d.items() for d in divisors)):
            counts = tuple(sum(name == n for n, _ in choice) for name in order)
            brute += table[counts] * prod(c for _, c in choice)
        assert chow.intersection_number([X.divisor(d) for d in divisors]) == brute


class TestChernData:
    def test_rejects_non_integral_chern_classes(self, S):
        with pytest.raises(ValueError, match="integral"):
            chow.ProjectiveBundleRing(
                S, chow.ChernData(c1=S.L() * Fraction(1, 2), c2=3))
        with pytest.raises(ValueError, match="integral"):
            chow.ProjectiveBundleRing(
                S, chow.ChernData(c1=-S.canonical(), c2=Fraction(1, 2)))

    @pytest.mark.parametrize("first", [3, 4])
    def test_each_ring_reduces_with_its_own_chern_data(self, first):
        # the Segre number c1^2 - c2, with c1 = -K_S (so c1^2 = 5), whichever
        # ring is built and used first: the reduction memo is per ring
        S = chow.DelPezzoRing()
        for c2 in (first, 7 - first):
            P = chow.ProjectiveBundleRing(
                S, chow.ChernData(c1=-S.canonical(), c2=c2))
            assert (P.zeta() ** 4).integrate() == 5 - c2


def rings_of(checks):
    """Every ring that the checks' computations close over."""
    kinds = (chow.DelPezzoRing, chow.ProjectiveBundleRing)
    rings, seen, stack = [], set(), [c.compute for c in checks]
    while stack:
        fn = stack.pop()
        fn = getattr(fn, "__wrapped__", fn)  # the functions under `cache`
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        for cell in getattr(fn, "__closure__", None) or ():
            value = cell.cell_contents
            if isinstance(value, kinds):
                rings += [value, getattr(value, "base", value)]
            elif callable(value):
                stack.append(value)
    return rings


def test_each_report_builds_its_own_rings():
    # a ring shared between reports would carry its memo and its Hilbert
    # coefficients over, and turn the benchmark's items into lookups
    first, second = rings_of(cli._checks()), rings_of(cli._checks())
    assert any(isinstance(r, chow.ProjectiveBundleRing) for r in first)
    assert any(isinstance(r, chow.DelPezzoRing) for r in first)
    assert not {id(r) for r in first} & {id(r) for r in second}
