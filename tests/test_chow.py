from fractions import Fraction
from itertools import product
from math import comb, gcd, prod

import bundle_oracle as oracle
import pytest
from bundle_oracle import integrate, one, power
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prym6 import chow, cli
from prym6.exactalg import SpaceMismatchError


@pytest.fixture(scope="module")
def bundle():
    """The Chow ring of the P^2-bundle, the oracle of `chow.ProjectiveBundle`."""
    return oracle.ProjectiveBundleRing()


class TestProductProjectiveRing:
    def test_degrees_and_truncation(self):
        R = chow.ProductProjectiveRing((2, 1))
        h1, h2 = R.h(0), R.h(1)
        assert integrate(power(h1, 2) * h2) == 1
        assert power(h1, 3).coeffs == {}
        assert (h1 * h1 * h2 * h2).coeffs == {}

    def test_ring_axioms_on_random_elements(self):
        R = chow.ProductProjectiveRing((2, 2, 2))
        a = 2 * R.h(0) + R.h(1)
        b = R.h(1) - 3 * R.h(2)
        c = one(R) + R.h(0) * R.h(2)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_classes_hash_by_value(self):
        # a class is never equal to a scalar, so equal classes can hash alike
        R = chow.ProductProjectiveRing((2, 1))
        assert one(R) != 1
        assert hash(one(R)) == hash(chow.ChowClass(R, {(0, 0): Fraction(2, 2)}))
        assert len({R.h(0) * R.h(1), R.h(1) * R.h(0), R.h(1)}) == 2

    def test_degree_nine_integral(self):
        R = chow.ProductProjectiveRing((2, 2, 2))
        h1, h2, h3 = R.h(0), R.h(1), R.h(2)
        cls = power(2 * h1 + h2 + h3, 3) * (3 * h3) * h1 * h1
        assert integrate(cls) == 9

    def test_multinomial_oracle(self):
        # (h1 + h2)^3 on P^2 x P^1 integrates against h2 wrongly unless the
        # truncation h2^2 = 0 is active: top coefficient is C(3,1) = 3
        R = chow.ProductProjectiveRing((2, 1))
        val = integrate(power(R.h(0) + R.h(1), 3))
        assert val == 3


class TestDelPezzoRing:
    def test_intersection_pairing(self, S):
        assert S.L().pairing(S.L()) == 1
        assert S.E(1).pairing(S.E(1)) == -1
        assert S.L().pairing(S.E(2)) == 0
        assert S.E(1).pairing(S.E(2)) == 0

    def test_negative_power_raises(self, S):
        # classes on S are paired, never multiplied: no class has a power,
        # and no product is formed on S
        for n in (-1, 0, 2):
            with pytest.raises(TypeError):
                S.L() ** n
        with pytest.raises(AttributeError, match="mul_into"):
            S.L() * S.L()

    def test_canonical_square_five(self, S):
        K = S.canonical()
        assert K.pairing(K) == 5

    def test_anticanonical_degree_of_discriminant(self, S):
        # the discriminant class -2K has genus 6 by adjunction
        d = -2 * S.canonical()
        two_g_minus_2 = d.pairing(d + S.canonical())
        assert two_g_minus_2 == 10

    def test_euler_number(self, S):
        assert S.euler_number() == 7


class TestProjectiveBundleRing:
    """The oracle ring of `bundle_oracle`, whose numbers `chow` reads on S."""

    def test_grothendieck_normalization(self, bundle):
        # the convention is pinned by the Segre number: zeta^4 = c1^2 - c2
        assert integrate(power(bundle.zeta(), 4)) == 2

    def test_zeta_cubed_relation(self, bundle):
        P, S = bundle, bundle.base
        z = P.zeta()
        lhs = power(z, 3)
        rhs = z * z * P.pull(-S.canonical()) - 3 * z * P.pull(S.pt())
        assert lhs == rhs

    def test_relative_third_chern_class_vanishes(self, bundle):
        # c3 of pi^* M^dual tensor O_P(1), which the oracle's
        # tangent_chern_classes leaves out of c3 and c4 of T_P
        P = bundle
        z = P.zeta()
        rel3 = (power(z, 3) - z * z * P.pull(P.c1)
                + z * (P.c2 * P.pull(P.base.pt())))
        assert rel3.nums == {}

    def test_pullback_is_ring_map(self, bundle):
        P, S = bundle, bundle.base
        a, b = S.L() + S.E(1), 2 * S.E(2) - S.L()
        assert P.pull(a * b) == P.pull(a) * P.pull(b)
        assert P.pull(a + b) == P.pull(a) + P.pull(b)

    def test_fiber_integral(self, bundle):
        # zeta^2 restricted over a point integrates to 1
        P = bundle
        assert integrate(power(P.zeta(), 2) * P.pull(P.base.pt())) == 1

    def test_products_accumulate_into_the_callers_dict(self):
        # a fresh ring, so a mutation that reached its rows would reach no
        # other test; zeta^4, zeta^3 L and zeta^3 E2 read the derived rows
        P = oracle.ProjectiveBundleRing()
        pairs = [((2, "1"), (2, "1")), ((2, "L"), (1, "1")),
                 ((1, "1"), (1, "L")), ((1, "E2"), (2, "1"))]

        def product_of(pair):
            out: dict = {}
            P.mul_into(out, *pair, 1)
            return out

        before = [product_of(pair) for pair in pairs]
        assert all(before)
        held = {(0, "1"): 5, (2, "pt"): -1, (1, "L"): 7}
        for pair, once in zip(pairs, before):
            out = dict(held)
            P.mul_into(out, *pair, 3)
            assert out == {k: held.get(k, 0) + 3 * once.get(k, 0)
                           for k in held.keys() | once.keys()}
            # the caller's dict is the caller's: clearing or overwriting it
            # changes no later product
            out.clear()
            out[0, "1"] = 99
        assert [product_of(pair) for pair in pairs] == before
        assert integrate(power(P.zeta(), 4)) == 2

    def test_top_power_is_derived_from_c2(self, monkeypatch, blowup):
        # zeta^4 integrates to c1^2 - c2, so with c2 = 4 it reads 5 - 4 = 1
        # in the oracle ring and on the Segre route of `chow`: no table of
        # the c2 = 3 values stands behind either
        monkeypatch.setattr(oracle.ProjectiveBundleRing, "c2", 4)
        monkeypatch.setattr(chow.ProjectiveBundle, "c2", 4)
        assert integrate(power(oracle.ProjectiveBundleRing().zeta(), 4)) == 1
        assert chow.verify_deg_h_two_ways(blowup, chow.ProjectiveBundle()) == (2, 1)

    def test_commutativity_on_basis(self, bundle):
        P = bundle
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
        monkeypatch.setattr(chow.ChowClass, "pairing",
                            lambda self, other: Fraction(1, 2))
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

    def test_zeroth_power_is_the_unit(self, blowup):
        # the zero count tuple is the unit of the ring's products
        z = blowup.zeta()
        assert power(z, 0) == one(blowup)
        assert one(blowup) * z == z * one(blowup) == z


class TestDegreeAndCanonical:
    def test_deg_h_two_routes(self, blowup, P):
        assert chow.verify_deg_h_two_ways(blowup, P) == (2, 2)

    def test_canonical_classes(self, blowup):
        kp, kb = chow.canonical_classes(blowup)
        assert kp.coeffs == {(0, 0, 1, 0): -3, (0, 0, 0, 1): -3, (1, 0, 0, 0): 3}
        assert kb.coeffs == {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1, (1, 0, 0, 0): -1}
        assert kb == blowup.zeta()

    def test_adjunction_check_is_reached(self):
        # with zeta' = H1 + H2, K_P + 4 zeta' = H1 + H2 + 3N is not zeta'
        class WrongZeta(chow.BlowupRing):
            def zeta(self):
                return self.divisor({"H1": 1, "H2": 1})

        with pytest.raises(ArithmeticError, match="adjunction"):
            chow.canonical_classes(WrongZeta())

    def test_kb_squared(self, blowup):
        assert chow.kb_squared(blowup) == 8


def sections_formula(d: int) -> int:
    """h^0(P, O_P(d)) for d >= 0, via the double-cover eigenspace split.

    The degree-2 map to P^4 pushes the structure sheaf forward as
    O + O(-2), so sections of O_P(d) split as degree-d plus degree-(d-2)
    forms on P^4.
    """
    return comb(d + 4, 4) + comb(d + 2, 4)


class TestRiemannRoch:
    def test_chi_values(self, P):
        assert chow.hrr_chi(P, 0) == 1
        assert chow.hrr_chi(P, 1) == 5
        assert chow.hrr_chi(P, 2) == 16
        assert chow.hrr_chi(P, -2) == 0
        assert chow.hrr_chi(P, -4) == 5

    def test_non_integer_twist_raises(self, P):
        # the Hilbert polynomial has values off the integers (155/64 at
        # 1/2), but O_P(d) is a sheaf only for an int d; a bool is no twist
        for d in (Fraction(1, 2), Fraction(2), True, 1.0):
            with pytest.raises(TypeError, match="twist"):
                chow.hrr_chi(P, d)

    def test_chi_is_the_direct_integral(self, bundle):
        # chi(S, Sym^d M) on S against the integral of ch(O_P(d)).Td(T_P) in
        # the oracle's ring of the 4-fold; a fresh record, so its numbers on
        # S are computed in this test
        P = chow.ProjectiveBundle()
        for d in range(-6, 9):
            assert chow.hrr_chi(P, d) == oracle.hrr_chi(bundle, d), d

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
            assert chow.hrr_chi(P, d) == sections_formula(d)

    def test_serre_duality_symmetry(self, P):
        # K_P = -3 zeta on the bundle, so chi(d) = chi(-3 - d)
        for d in range(-1, 4):
            assert chow.hrr_chi(P, d) == chow.hrr_chi(P, -3 - d)

    def test_todd_genus_one(self, P, bundle):
        # chi(O_P) = chi(O_S) = 1: the Todd genus of the 4-fold in the
        # oracle's ring, and Noether's formula (K_S^2 + e(S))/12 on S
        td = oracle.todd_classes(*oracle.tangent_chern_classes(bundle))
        assert integrate(td[3]) == 1
        c1, c2 = chow.tangent_chern_classes(P)
        assert (c1.pairing(c1) + c2) / 12 == 1

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
    if isinstance(ring, chow.BlowupRing):
        k = tuple(a + b for a, b in zip(k1, k2))
        return {k: Fraction(1)} if sum(k) <= 4 else {}
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
    for sk, sc in P.c1.coeffs.items():
        for bs, bc in ref_mul_basis(P.base, s, sk).items():
            for key, c in ref_reduce(P, a - 1, bs).items():
                out[key] = out.get(key, Fraction(0)) + sc * bc * c
    for bs, bc in ref_mul_basis(P.base, s, "pt").items():
        for key, c in ref_reduce(P, a - 2, bs).items():
            out[key] = out.get(key, Fraction(0)) - Fraction(P.c2) * bc * c
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
    # the count tuples (n, h, h1, h2) of degree at most 4
    "X": [k for k in product(range(5), repeat=4) if sum(k) <= 4],
}


def make_ring(name):
    """A ring with products: on S and on the bundle, the oracle's."""
    if name == "S":
        return oracle.DelPezzoProductRing()
    if name == "P":
        return oracle.ProjectiveBundleRing()
    if name == "X":
        return chow.BlowupRing()
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

    def test_bundle_basis_products_match_the_reference(self, bundle):
        # all 21 x 21 pairs of basis monomials, against the recursive
        # zeta^3 reduction of `ref_reduce`
        P = bundle
        for k1, k2 in product(BASES["P"], repeat=2):
            out: dict = {}
            P.mul_into(out, k1, k2, 1)
            assert all(type(v) is int and v for v in out.values())
            assert out == {k: v for k, v in ref_mul_basis(P, k1, k2).items()
                           if v}, (k1, k2)

    @pytest.mark.parametrize("name", list(BASES))
    def test_pairing_is_the_integral_of_the_product(self, name):
        ring = make_ring(name)
        classes = class_strategy(ring, BASES[name])

        @settings(max_examples=60, deadline=None)
        @given(classes, classes, st.integers(-3, 3))
        def check(x, y, n):
            assert x.pairing(y) == integrate(x * y)
            assert (n * x).pairing(y) == integrate(n * x * y)
            assert x.pairing(n * y) == n * x.pairing(y)

        check()
        other = make_ring("S" if name == "P" else "P")
        with pytest.raises(SpaceMismatchError):
            one(ring).pairing(one(other))
        with pytest.raises(SpaceMismatchError):
            one(other).pairing(one(ring))
        with pytest.raises(TypeError, match="cannot pair"):
            one(ring).pairing(1)

    def test_basis_integrals_are_the_top_coefficients(self):
        # every pair of basis monomials of every ring, through its `integral`
        for name, keys in BASES.items():
            ring = make_ring(name)
            for k1, k2 in product(keys, repeat=2):
                out: dict = {}
                ring.mul_into(out, k1, k2, 1)
                top = integrate(chow.ChowClass.from_ints(ring, out))
                assert ring.integral(k1, k2) == top, (name, k1, k2)
                assert type(ring.integral(k1, k2)) is int

    def test_bundle_products_above_degree_four_add_nothing(self, bundle):
        # zeta^4 L and zeta^3 pt have degree 5: no row is derived for them
        P = bundle
        assert len(P._zeta_rows) == 7
        for k1, k2 in (((2, "1"), (2, "L")), ((2, "L"), (2, "1")),
                       ((1, "1"), (2, "pt")), ((2, "pt"), (1, "1"))):
            out = {(0, "1"): 4}
            P.mul_into(out, k1, k2, 3)
            assert out == {(0, "1"): 4}
            assert P.integral(k1, k2) == 0

    def test_product_key_is_the_intersection_form(self, S, bundle):
        # all 7 x 7 pairs of basis classes of S: the oracle's product rule,
        # and the package's `integral`, which is its point coefficient
        for k1, k2 in product(S_KEYS, repeat=2):
            term = bundle.base.product_key(k1, k2)
            ref = ref_mul_basis(S, k1, k2)
            if term is None:
                assert ref == {}, (k1, k2)
            else:
                key, sign = term
                assert sign in (1, -1) and type(sign) is int
                assert ref == {key: sign}, (k1, k2)
            assert S.integral(k1, k2) == ref.get("pt", 0), (k1, k2)
            assert type(S.integral(k1, k2)) is int

    def test_zero_coefficients_are_dropped(self, bundle):
        S = bundle.base
        x = chow.ChowClass(S, {"L": 0, "E1": Fraction(2, 4), "pt": Fraction(0)})
        assert (x.nums, x.den) == ({"E1": 1}, 2)
        assert x.coeffs == {"E1": Fraction(1, 2)}
        cancelled = S.L() * S.E(1) + S.E(2) - S.E(2)
        assert (cancelled.nums, cancelled.den) == ({}, 1)

    def test_structure_constants_are_integers(self, bundle):
        P = bundle
        z, L = P.zeta(), P.pull(P.base.L())
        for x in (z, z * z, z * L, P.pull(P.base.E(2))):
            for y in (z, z * z, L):
                for k1 in x.nums:
                    for k2 in y.nums:
                        out: dict = {}
                        P.mul_into(out, k1, k2, 1)
                        assert all(type(c) is int for c in out.values())

    @pytest.mark.parametrize("name", list(BASES))
    def test_mul_into_adds_n_times_the_reference(self, name):
        ring = make_ring(name)
        keys = st.sampled_from(BASES[name])
        first, last = BASES[name][0], BASES[name][-1]

        @settings(max_examples=60, deadline=None)
        @given(keys, keys, st.integers(-5, 5),
               st.dictionaries(keys, st.integers(-5, 5), max_size=3))
        @example(first, last, 0, {last: 5})
        @example(first, last, -2, {last: 2})
        def check(k1, k2, n, held):
            out = dict(held)
            ring.mul_into(out, k1, k2, n)
            ref = ref_mul_basis(ring, k1, k2)
            expected = {k: held.get(k, 0) + n * ref.get(k, 0)
                        for k in held.keys() | ref.keys()}
            assert all(type(v) is int for v in out.values())
            assert ({k: v for k, v in out.items() if v}
                    == {k: v for k, v in expected.items() if v})

        check()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.dictionaries(st.sampled_from(["N", "H", "H1", "H2"]),
                                    small_fracs, max_size=4),
                    min_size=4, max_size=4))
    def test_intersection_number_is_the_term_expansion(self, divisors):
        X = chow.BlowupRing()
        table = X.table
        order = ("N", "H", "H1", "H2")
        brute = Fraction(0)
        for choice in product(*(d.items() for d in divisors)):
            counts = tuple(sum(name == n for n, _ in choice) for name in order)
            brute += table[counts] * prod(c for _, c in choice)
        assert chow.intersection_number([X.divisor(d) for d in divisors]) == brute


def rings_of(checks):
    """Every ring and bundle record that the checks' computations close
    over."""
    kinds = (chow.DelPezzoRing, chow.ProjectiveBundle)
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
    # a record shared between reports would carry its numbers on S over,
    # and turn the benchmark's items into lookups
    first, second = rings_of(cli._checks()), rings_of(cli._checks())
    assert any(isinstance(r, chow.ProjectiveBundle) for r in first)
    assert any(isinstance(r, chow.DelPezzoRing) for r in first)
    assert not {id(r) for r in first} & {id(r) for r in second}
