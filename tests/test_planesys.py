import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prym6 import planesys as ps

GF_P = ps.GF(ps.random_prime_ge_2_61(random.Random(5)))


class TestFields:
    def test_gf_arithmetic(self):
        F = ps.GF(101)
        assert F.reduce(100 + 2) == 1
        assert F.reduce(-3) == 98
        assert F.reduce(F.inv(7) * 7) == F.one
        assert F.inv(7 + 101) == F.inv(7)
        assert F.from_rational(Fraction(1, 2)) == 51
        with pytest.raises(ZeroDivisionError):
            F.from_rational(Fraction(1, 101))
        with pytest.raises(ZeroDivisionError):
            F.inv(202)

    def test_qq_field(self):
        F = ps.QQ
        assert F.inv(Fraction(2, 3)) == Fraction(3, 2)
        assert F.reduce(Fraction(-7, 3)) == Fraction(-7, 3)
        assert F.reduce(F.one - F.one) == F.zero

    @pytest.mark.parametrize("F", [ps.GF(101), GF_P, ps.QQ],
                             ids=["gf101", "gf", "qq"])
    def test_inv_all_equals_elementwise_inv(self, F):
        rng = random.Random(14)
        values = [F.random_element(rng) or F.one for _ in range(30)]
        if F is not ps.QQ:
            # unreduced entries, as the kernels pass them
            values[3] += 5 * F.p
            values[7] -= F.p
        assert F.inv_all(values) == [F.inv(v) for v in values]
        assert F.inv_all(values[:1]) == [F.inv(values[0])]
        assert F.inv_all([]) == []

    @pytest.mark.parametrize("F", [ps.GF(101), GF_P, ps.QQ],
                             ids=["gf101", "gf", "qq"])
    def test_inv_all_of_zero_raises(self, F):
        zero = F.zero if F is ps.QQ else F.p  # p is an unreduced zero
        with pytest.raises(ZeroDivisionError):
            F.inv(zero)
        for values in ([zero], [F.one, zero, F.one + F.one], [F.one, zero]):
            with pytest.raises(ZeroDivisionError):
                F.inv_all(values)


class TestPrimes:
    def test_small_cases(self):
        assert ps.is_probable_prime(2)
        assert ps.is_probable_prime(97)
        assert not ps.is_probable_prime(1)
        assert not ps.is_probable_prime(561)  # Carmichael number
        assert not ps.is_probable_prime(2 ** 61)

    def test_random_prime_size_and_determinism(self):
        rng = random.Random(3)
        p = ps.random_prime_ge_2_61(rng)
        assert p >= 2 ** 61
        assert ps.is_probable_prime(p)
        assert p == ps.random_prime_ge_2_61(random.Random(3))


class TestUnivariate:
    def test_divmod_and_gcd_gf(self):
        F = ps.GF(10007)
        a = [F.from_rational(c) for c in (2, 0, 1)]   # x^2 + 2
        b = [F.from_rational(c) for c in (1, 1)]      # x + 1
        prod = ps.uni_mul(F, a, b)
        q, r = ps.uni_divmod(F, prod, b)
        assert q == a and r == []
        g = ps.uni_gcd(F, prod, b)
        assert g == ps.uni_monic(F, b)

    def test_gcd_qq_fast_path_matches_structure(self):
        F = ps.QQ
        # (x-1)(x-2)(x+3) and (x-1)(x+3)(x+5): gcd (x-1)(x+3)
        f = ps.uni_mul(F, ps.uni_mul(F, [-1, 1], [-2, 1]), [3, 1])
        g = ps.uni_mul(F, ps.uni_mul(F, [-1, 1], [3, 1]), [5, 1])
        expect = ps.uni_monic(F, ps.uni_mul(F, [-1, 1], [3, 1]))
        assert ps.uni_gcd(F, f, g) == [Fraction(c) for c in expect]

    def test_gcd_qq_big_coefficients(self):
        F = ps.QQ
        big = Fraction(10 ** 40 + 1, 3)
        f = ps.uni_mul(F, [big, 1], [-2, 1])
        g = ps.uni_mul(F, [big, 1], [7, 1])
        assert ps.uni_gcd(F, f, g) == [big, Fraction(1)]

    def test_squarefree_part(self):
        F = ps.QQ
        f = ps.uni_mul(F, ps.uni_mul(F, [-1, 1], [-1, 1]), [2, 1])
        sf = ps.uni_squarefree_part(F, f)
        assert ps.uni_degree(sf) == 2
        assert ps.uni_eval(F, sf, Fraction(1)) == 0
        assert ps.uni_eval(F, sf, Fraction(-2)) == 0

    def test_interpolate(self):
        F = ps.QQ
        pts = [(Fraction(k), Fraction(k * k + 1)) for k in range(3)]
        assert ps.uni_interpolate(F, pts) == [1, 0, 1]
        # non-integer x values
        f = [Fraction(3, 7), Fraction(-2), Fraction(0), Fraction(5, 3)]
        xs = [Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5), Fraction(-9, 4)]
        assert ps.uni_interpolate(F, [(x, ps.uni_eval(F, f, x)) for x in xs]) == f
        # a single point, and all-zero values
        assert ps.uni_interpolate(F, [(Fraction(5, 2), Fraction(-3))]) == [-3]
        assert ps.uni_interpolate(F, [(Fraction(k, 3), F.zero) for k in range(6)]) == []
        # 26 random points over a 62-bit prime field
        rng = random.Random(1)
        G = ps.GF(ps.random_prime_ge_2_61(random.Random(1)))
        pts = [(x, G.random_element(rng)) for x in rng.sample(range(G.p), 26)]
        poly = ps.uni_interpolate(G, pts)
        assert ps.uni_degree(poly) <= 25
        assert all(ps.uni_eval(G, poly, x) == y for x, y in pts)

    @pytest.mark.parametrize("F", [ps.GF(101), ps.QQ], ids=["gf", "qq"])
    def test_interpolate_repeated_x_raises(self, F):
        def pts(*pairs):
            return [(F.from_rational(x), F.from_rational(y)) for x, y in pairs]
        with pytest.raises(ZeroDivisionError):
            ps.uni_interpolate(F, pts((1, 5), (1, 6), (2, 7)))
        # one of the two points at x = 2 has y = 0 and is skipped, but the
        # other's denominator still has the factor x_i - x_j = 0
        with pytest.raises(ZeroDivisionError):
            ps.uni_interpolate(F, pts((1, 0), (2, 3), (2, 0)))

    @pytest.mark.parametrize(
        "F", [ps.GF(ps.random_prime_ge_2_61(random.Random(5))), ps.QQ],
        ids=["gf", "qq"])
    def test_derivative_degree_25(self, F):
        rng = random.Random(6)
        a = [F.random_element(rng) for _ in range(25)] + [F.one]
        expect = [F.from_rational(i * a[i]) for i in range(1, 26)]
        assert ps.uni_derivative(F, a) == expect


class TestDetField:
    @pytest.mark.parametrize("p", [101, ps.random_prime_ge_2_61(random.Random(8))])
    def test_gf_matches_exact_determinant(self, p):
        from prym6.exactalg import QMatrix
        rng = random.Random(p)
        F = ps.GF(p)
        for trial in range(12):
            m = [[rng.randint(-50, 50) for _ in range(10)] for _ in range(10)]
            if trial % 3 == 1:
                # singular: one row is a combination of two others
                m[7] = [3 * a - 5 * b for a, b in zip(m[2], m[4])]
            elif trial % 3 == 2:
                # the first pivot needs a row swap
                m[0][0] = 0
            reduced = [[v % p for v in row] for row in m]
            det = ps.det_field(F, reduced)
            assert det == int(QMatrix(m).det()) % p
            assert 0 <= det < p
        assert ps.det_field(F, []) == 1


def _sylvester_low_first(F, a, b):
    """deg b rows of a's coefficients, then deg a rows of b's, low degree first."""
    n, m = len(a) - 1, len(b) - 1
    return ([[F.zero] * i + list(a) + [F.zero] * (m - 1 - i) for i in range(m)]
            + [[F.zero] * i + list(b) + [F.zero] * (n - 1 - i) for i in range(n)])


#: an integer polynomial of degree 0 to 3 with leading coefficient in 1..9,
#: so that it keeps its degree over Q and modulo a prime above 81
_small_poly = st.builds(lambda low, lead: low + [lead],
                        st.lists(st.integers(-9, 9), max_size=3),
                        st.integers(1, 9))


#: a pair (a, b) and a factor h of both, as in the batch of `uni_resultants`
_pair = st.tuples(_small_poly, _small_poly, st.one_of(st.just([1]), _small_poly))


class TestUniResultant:
    @pytest.mark.parametrize("F", [GF_P, ps.QQ], ids=["gf", "qq"])
    @settings(max_examples=60, deadline=None)
    @given(batch=st.lists(_pair, min_size=1, max_size=8))
    # one batch with every edge case: x^4 + x^2 + 2x + 1 mod x^3 + x is
    # 2x + 1, a remainder two degrees down, so that the sign
    # (-1)^(deg f deg r) of the loop is -1; constant operands, c^deg of the
    # other, and 1 (an empty matrix) for two; a shared factor; and a
    # coprime pair whose sequence runs longest
    @example(batch=[([1, 2, 1, 0, 1], [0, 1, 0, 1], [1]),
                    ([0, 1, 0, 1], [1, 2, 1, 0, 1], [1]),
                    ([3], [2, -1, 5], [1]), ([2, -1, 5], [3], [1]),
                    ([3], [3], [1]), ([1, 1], [2, 1], [-1, 0, 1]),
                    ([1, 0, 2, 0, 3, 0, 1], [1, 1, 0, 0, 0, 1], [1])])
    def test_equals_low_first_sylvester_determinant(self, F, batch):
        # each a*h and b*h has degree 0 to 6; a non-constant h is a shared
        # factor, so that pair's resultant is 0.  The pairs run in lockstep
        # and leave the loop in different rounds.
        def lift(c):
            return [F.from_rational(v) for v in c]
        pairs, shared = [], []
        for a, b, h in batch:
            a, b, h = (lift(c) for c in (a, b, h))
            pairs.append((ps.uni_mul(F, a, h), ps.uni_mul(F, b, h)))
            shared.append(len(h) > 1)
        expected = [ps.det_field(F, _sylvester_low_first(F, a, b)) for a, b in pairs]
        assert ps.uni_resultants(F, pairs) == expected
        for value, common in zip(expected, shared):
            if common:
                assert value == F.zero


class TestResultant:
    def test_resultant_detects_common_root(self):
        F = ps.QQ
        # f = (x3 - x1)(x3 - 2), g = (x3 - x1)(x3 + 1) on the chart x2 = 1
        f = {(0, 0, 2): F.one, (1, 0, 1): Fraction(-1), (0, 0, 1): Fraction(-2),
             (1, 0, 0): Fraction(2)}
        g = {(0, 0, 2): F.one, (1, 0, 1): Fraction(-1), (0, 0, 1): Fraction(1),
             (1, 0, 0): Fraction(-1)}
        r = ps.resultant_x3(F, f, g, 2, 2)
        # common root x3 = x1 for every x1, so the resultant vanishes identically
        assert r == []

    def test_resultant_of_coprime(self):
        F = ps.QQ
        f = {(0, 0, 1): F.one, (1, 0, 0): Fraction(-1)}  # x3 - x1
        g = {(0, 0, 1): F.one, (1, 0, 0): Fraction(-2)}  # x3 - 2 x1
        r = ps.resultant_x3(F, f, g, 1, 1)
        # Res = x1 evaluated pointwise: linear with root only at x1 = 0
        assert ps.uni_degree(r) == 1
        assert ps.uni_eval(F, r, Fraction(0)) == 0


def _circle_pair():
    """Two conics meeting in exactly the four points (±1 : ±1 : 1)."""
    one = Fraction(1)
    f = {(2, 0, 0): one, (0, 2, 0): one, (0, 0, 2): Fraction(-2)}
    g = {(2, 0, 0): one, (0, 2, 0): Fraction(4), (0, 0, 2): Fraction(-5)}
    h = {(2, 0, 0): Fraction(2), (0, 2, 0): Fraction(3), (0, 0, 2): Fraction(-5)}
    pts = [(a, b, one) for a in (1, -1) for b in (1, -1)]
    return [f, g, h], pts


class TestOnlyKnownCommonRoots:
    def test_accepts_complete_list(self):
        polys, pts = _circle_pair()
        assert ps.only_known_common_roots(ps.QQ, polys, pts, random.Random(2))

    def test_rejects_incomplete_list(self):
        polys, pts = _circle_pair()
        assert not ps.only_known_common_roots(ps.QQ, polys, pts[:3],
                                              random.Random(2))

    def test_mod_p_agrees(self):
        rng = random.Random(4)
        F = ps.GF(ps.random_prime_ge_2_61(rng))
        polys, pts = _circle_pair()
        fp = [{e: F.from_rational(c) for e, c in p.items()} for p in polys]
        assert ps.only_known_common_roots(F, fp, pts, rng)
        assert not ps.only_known_common_roots(F, fp, pts[:2], rng)

    def test_rejects_forms_of_different_degrees(self):
        polys, pts = _circle_pair()
        with pytest.raises(ValueError):
            ps.only_known_common_roots(ps.QQ, polys[:2] + [{(3, 0, 0): ps.QQ.one}],
                                       pts, random.Random(2))


class TestFindUniqueCommonRoot:
    def test_locates_single_point(self):
        # three conics through (1 : 2 : 1) and otherwise in general position;
        # the x1 x3 term breaks the sign symmetry that would otherwise force
        # a second common point at (-1 : -2 : 1)
        def conic(a, b, c, d):
            val = a + 4 * b + c + d
            return {(2, 0, 0): Fraction(a), (0, 2, 0): Fraction(b),
                    (0, 0, 2): Fraction(c), (1, 0, 1): Fraction(d),
                    (1, 1, 0): Fraction(-val, 2)}
        polys = [conic(1, 1, 1, 1), conic(2, -1, 3, 0), conic(1, 0, -2, 2)]
        pt = ps.find_unique_common_root(polys, random.Random(9))
        assert pt is not None
        assert all(ps.p3_eval(ps.QQ, p, pt) == 0 for p in polys)
        from prym6.exactalg import primitive
        assert primitive(pt) == (1, 2, 1)

    def test_returns_none_without_unique_root(self):
        polys, _ = _circle_pair()  # four common points
        assert ps.find_unique_common_root(polys, random.Random(9)) is None


@pytest.mark.parametrize("F", [GF_P, ps.QQ], ids=["gf", "qq"])
def test_linear_change_is_substitution(F):
    rng = random.Random(12)
    poly = {(2, 1, 0): F.from_rational(3), (0, 0, 3): F.from_rational(Fraction(-1, 2)),
            (1, 1, 1): F.from_rational(7)}
    m = ps._random_invertible(F, rng)
    changed = ps.p3_linear_change(F, poly, m)
    assert ps.p3_degree(changed) == 3
    for _ in range(5):
        pt = tuple(F.from_rational(rng.randint(-5, 5)) for _ in range(3))
        image = ps._mat3_apply(F, m, pt)
        assert ps.p3_eval(F, changed, pt) == ps.p3_eval(F, poly, image)


def test_monomials_of_degree():
    assert len(ps.monomials_of_degree(2)) == 6
    assert len(ps.monomials_of_degree(6)) == 28
    assert all(sum(e) == 4 for e in ps.monomials_of_degree(4))


def test_completeness_check_draw_count():
    # pins how many draws the mod-p check takes from its rng on seed 1's
    # sextic: the prime, then one matrix per change of coordinates.  The
    # literal is the next draw recorded before the kernels moved to native
    # ints; any change to the draws changes every sweep output.
    from prym6 import conicbundle as cb
    inst = cb.construct_instance(1)
    rng = random.Random(1)
    assert cb.singular_locus_is_exactly(inst.gamma, inst.nodes, rng)
    assert rng.random() == 0.9014274576114836
