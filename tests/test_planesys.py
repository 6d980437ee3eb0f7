import random
from fractions import Fraction
from itertools import combinations
from math import isqrt, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prym6 import conicbundle as cb
from prym6 import planesys as ps
from prym6.exactalg import MultiPoly, primitive

#: a Mersenne prime of 61 bits: its residues take two CPython digits, so the
#: kernels keep a multi-digit test beside the word-size primes of the proof
GF_P = ps.GF(2 ** 61 - 1)


def _element(F, rng):
    """A random element of F."""
    return F.random_element(rng) if F is ps.QQ else rng.randrange(F.p)


def uni_eval(F, c, x):
    """The value of a coefficient list at x, by Horner's rule."""
    acc = F.zero
    for coeff in reversed(c):
        acc = acc * x + coeff
    return F.reduce(acc)


def uni_mul(F, a, b):
    """The product of two coefficient lists, reduced and trimmed."""
    out = [F.zero] * max(0, len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return ps._reduced(F, out)


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
        values = [_element(F, rng) or F.one for _ in range(30)]
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


class TestWordPrimes:
    def test_table_entries_are_distinct_word_primes(self):
        # each prime exceeds 25, the last sample point of a sextic's
        # resultants, so the sample points stay distinct mod q; below 2^30,
        # trial division up to isqrt(q) < 2^15 decides primality
        primes = ps.WORD_PRIMES
        assert len(primes) == ps._TRIES
        assert len(set(primes)) == len(primes)
        for q in primes:
            assert 25 < q < 2 ** 30
            assert all(q % f for f in range(2, isqrt(q) + 1))


class TestUnivariate:
    def test_divmod_and_gcd_gf(self):
        F = ps.GF(10007)
        a = [F.from_rational(c) for c in (2, 0, 1)]   # x^2 + 2
        b = [F.from_rational(c) for c in (1, 1)]      # x + 1
        prod = uni_mul(F, a, b)
        q, r = ps.uni_divmod(F, prod, b)
        assert q == a and r == []
        g = ps.uni_gcd(F, prod, b)
        assert g == ps.uni_monic(F, b)

    def test_gcd_qq_fast_path_matches_structure(self):
        F = ps.QQ
        # (x-1)(x-2)(x+3) and (x-1)(x+3)(x+5): gcd (x-1)(x+3)
        f = uni_mul(F, uni_mul(F, [-1, 1], [-2, 1]), [3, 1])
        g = uni_mul(F, uni_mul(F, [-1, 1], [3, 1]), [5, 1])
        expect = ps.uni_monic(F, uni_mul(F, [-1, 1], [3, 1]))
        assert ps.uni_gcd(F, f, g) == [Fraction(c) for c in expect]

    def test_gcd_qq_big_coefficients(self):
        F = ps.QQ
        big = Fraction(10 ** 40 + 1, 3)
        f = uni_mul(F, [big, 1], [-2, 1])
        g = uni_mul(F, [big, 1], [7, 1])
        assert ps.uni_gcd(F, f, g) == [big, Fraction(1)]

    def test_squarefree_part(self):
        F = ps.QQ
        f = uni_mul(F, uni_mul(F, [-1, 1], [-1, 1]), [2, 1])
        sf = ps.uni_squarefree_part(F, f)
        assert ps.uni_degree(sf) == 2
        assert uni_eval(F, sf, Fraction(1)) == 0
        assert uni_eval(F, sf, Fraction(-2)) == 0

    def test_interpolate(self):
        # random polynomials of degree < n through their values at 0 .. n-1
        rng = random.Random(1)
        for F in (GF_P, ps.QQ):
            for n in range(1, 27):
                poly = ps._trim(F, [F.from_rational(Fraction(rng.randint(-30, 30),
                                                             rng.randint(1, 9)))
                                    for _ in range(n)])
                ys = [uni_eval(F, poly, F.from_rational(x)) for x in range(n)]
                assert ps.uni_interpolate(F, ys) == poly
                assert ps.uni_interpolate(F, [F.zero] * n) == []
        ys = [Fraction(k * k + 1) for k in range(3)]
        assert ps.uni_interpolate(ps.QQ, ys) == [1, 0, 1]

    def test_interpolate_repeated_x_raises(self):
        # over GF(p) with p <= n - 1 the sample points 0 .. n-1 repeat mod p
        for p in (2, 3, 5, 23):
            F = ps.GF(p)
            for n in (p + 1, 26):
                with pytest.raises(ZeroDivisionError):
                    ps.uni_interpolate(F, [F.one] * n)
                with pytest.raises(ZeroDivisionError):
                    ps.uni_interpolate(F, [F.zero] * n)
            # n = p points are distinct mod p
            assert ps.uni_interpolate(F, [F.one] * p) == [F.one]

    @pytest.mark.parametrize("F", [GF_P, ps.QQ], ids=["gf", "qq"])
    def test_derivative_degree_25(self, F):
        rng = random.Random(6)
        a = [_element(F, rng) for _ in range(25)] + [F.one]
        expect = [F.from_rational(i * a[i]) for i in range(1, 26)]
        assert ps.uni_derivative(F, a) == expect


class TestDetField:
    @pytest.mark.parametrize("p", [101, GF_P.p])
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
            pairs.append((uni_mul(F, a, h), uni_mul(F, b, h)))
            shared.append(len(h) > 1)
        expected = [ps.det_field(F, _sylvester_low_first(F, a, b)) for a, b in pairs]
        assert ps.uni_resultants(F, pairs) == expected
        for value, common in zip(expected, shared):
            if common:
                assert value == F.zero


def _poly_of_degree(d):
    """An integer polynomial of degree exactly d, leading coefficient 1..9."""
    return st.builds(lambda low, lead: low + [lead],
                     st.lists(st.integers(-9, 9), min_size=d, max_size=d),
                     st.integers(1, 9))


#: pairs of one shared degree, which run as one group of lanes, mixed with
#: pairs of any degrees
_mixed_batch = st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda d: st.lists(st.tuples(_poly_of_degree(d[0]), _poly_of_degree(d[1]),
                                 st.one_of(st.just([1]), _small_poly)),
                       min_size=1, max_size=8)
).flatmap(lambda same: st.lists(_pair, max_size=4).map(lambda other: same + other))


class TestLaneResultants:
    @pytest.mark.parametrize("F", [GF_P, ps.QQ], ids=["gf", "qq"])
    @settings(max_examples=60, deadline=None)
    @given(batch=_mixed_batch)
    # four pairs (a, b) of degrees (4, 3) and one of degrees (1, 0):
    # (x^4 + 2x^2 + 5x + 1, 2x^3 + 2x + 10) has remainders x^2 + 1 and then
    # 10, two degrees down in the second round; (x^4 + x^2 + 2x + 1, x^3 + x)
    # drops two in the first; ((x + 2)(x^2 + 1)(x + 1), (x^2 + 1)(x + 1))
    # has remainder 0 in the first; (x^4 + x + 1, x^3 + 2x^2 + 3) goes one
    # degree at a time; and (x + 2, 3) has a constant b
    @example(batch=[([1, 5, 2, 0, 1], [10, 2, 0, 2], [1]),
                    ([1, 2, 1, 0, 1], [0, 1, 0, 1], [1]),
                    ([2, 1, 2, 1], [1, 0, 1], [1, 1]),
                    ([1, 1, 0, 0, 1], [3, 0, 2, 1], [1]),
                    ([2, 1], [3], [1])])
    def test_batch_equals_one_pair_calls(self, F, batch):
        def lift(c):
            return [F.from_rational(v) for v in c]
        pairs = [(uni_mul(F, lift(a), lift(h)), uni_mul(F, lift(b), lift(h)))
                 for a, b, h in batch]
        assert ps.uni_resultants(F, pairs) == [ps.uni_resultants(F, [pair])[0]
                                               for pair in pairs]

    def test_resultant_x3_equals_sylvester_determinant_at_each_sample(self):
        # two random quintic forms over GF(2^61 - 1): on the chart x2 = 1
        # the value at x1 = x is the low-first Sylvester determinant in x3
        # of the two forms with x1 = x
        F = GF_P
        rng = random.Random(13)
        f, g = ({e: rng.randrange(F.p) for e in ps.monomials_of_degree(5)}
                for _ in range(2))
        r = ps.resultant_x3(F, f, g, 5, 5)
        assert ps.uni_degree(r) == 25
        for x in range(26):
            a, b = (ps._reduced(F, [sum(c * x ** e1 for (e1, _, e3), c in poly.items()
                                        if e3 == k) for k in range(6)])
                    for poly in (f, g))
            assert uni_eval(F, r, x) == ps.det_field(F, _sylvester_low_first(F, a, b))


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
        assert uni_eval(F, r, Fraction(0)) == 0


def _product(*factors):
    """The product of trivariate exponent dicts over Q."""
    out = MultiPoly.from_ints(cb.X_BLOCKS, {(0, 0, 0): 1})
    for f in factors:
        out = out * MultiPoly(cb.X_BLOCKS, f)
    return out.terms


def _two_conics():
    """f * g for two conics meeting transversally in exactly the four points
    (+-1 : +-1 : 1): a quartic with four nodes there."""
    f = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(-2)}
    g = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(4), (0, 0, 2): Fraction(-5)}
    return _product(f, g)


#: y^2 z - x^3 - x^2 z, a cubic whose only singular point is the node (0:0:1)
NODAL_CUBIC = {(0, 2, 1): Fraction(1), (3, 0, 0): Fraction(-1),
               (2, 0, 1): Fraction(-1)}


def _integer(curve):
    """An exponent dict over Q with integer values, as ints."""
    return {e: int(c) for e, c in curve.items()}


class TestOnlyKnownCommonRoots:
    def test_accepts_complete_list(self):
        assert ps.only_known_common_roots(_two_conics(), 4, random.Random(2),
                                          exact=True)

    def test_rejects_incomplete_list(self):
        assert not ps.only_known_common_roots(_two_conics(), 3,
                                              random.Random(2), exact=True)

    @staticmethod
    def primes_tried(monkeypatch, curve, k, seed):
        """The proof's answer, and the prime of each attempt that moved
        the curve."""
        moved, change = [], ps.p3_linear_change

        def spy(F, poly, m):
            moved.append(F.p)
            return change(F, poly, m)
        monkeypatch.setattr(ps, "p3_linear_change", spy)
        accepted = ps.only_known_common_roots(curve, k, random.Random(seed))
        monkeypatch.undo()
        return accepted, moved

    def test_mod_p_agrees(self, monkeypatch):
        # accepted at the first prime; an incomplete list rejects at all
        # eight, each attempt modulo the next prime of the table
        curve = _integer(_two_conics())
        assert self.primes_tried(monkeypatch, curve, 4, 4) == (
            True, [ps.WORD_PRIMES[0]])
        assert self.primes_tried(monkeypatch, curve, 2, 4) == (
            False, list(ps.WORD_PRIMES))

    def test_curve_that_vanishes_mod_the_first_prime(self, monkeypatch):
        # q0 * (two conics) is 0 mod q0: attempt 1 rejects before any draw,
        # and attempt 2 accepts modulo the second prime
        q0 = ps.WORD_PRIMES[0]
        curve = {e: q0 * c for e, c in _integer(_two_conics()).items()}
        assert self.primes_tried(monkeypatch, curve, 4, 4) == (
            True, [ps.WORD_PRIMES[1]])

    def test_curve_that_vanishes_mod_every_prime_is_rejected(self, monkeypatch):
        # a multiple of every prime of the table reduces to 0 at each
        # attempt, and a zero reduction never accepts
        scale = prod(ps.WORD_PRIMES)
        curve = {e: scale * c for e, c in _integer(_two_conics()).items()}
        assert self.primes_tried(monkeypatch, curve, 4, 4) == (False, [])

    def test_rejects_curve_of_degree_below_two(self):
        for curve in ({(1, 0, 0): ps.QQ.one}, {(0, 0, 0): ps.QQ.one}, {}):
            with pytest.raises(ValueError):
                ps.only_known_common_roots(curve, 0, random.Random(2),
                                           exact=True)


class TestFindUniqueCommonRoot:
    def test_locates_single_point(self):
        # the nodal cubic moved by x -> x - z, y -> y - 2z: its one node
        # goes from (0:0:1) to (1:2:1)
        cubic = ps.p3_linear_change(ps.QQ, NODAL_CUBIC,
                                    [[1, 0, -1], [0, 1, -2], [0, 0, 1]])
        pt = ps.find_unique_common_root(cubic, random.Random(9))
        assert pt is not None
        assert all(ps.p3_eval(ps.QQ, ps.p3_partial(ps.QQ, cubic, j), pt) == 0
                   for j in range(3))
        assert primitive(pt) == (1, 2, 1)

    def test_returns_none_without_unique_root(self):
        # four nodes
        assert ps.find_unique_common_root(_two_conics(), random.Random(9)) is None


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _det3(a, b, c):
    return sum(x * y for x, y in zip(_cross(a, b), c))


small_lines = st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=2, max_size=4)


class TestAdversarialCurves:
    """Curves with known singular sets.  The check accepts exactly when
    every singular point is an ordinary node and all of them are listed."""

    @staticmethod
    def certify(curve, points, seed, exact=False):
        gamma = MultiPoly(cb.X_BLOCKS, curve)
        pts = [tuple(Fraction(c) for c in pt) for pt in points]
        return cb.singular_locus_is_exactly(gamma, pts, random.Random(seed),
                                            exact=exact)

    @settings(max_examples=25, deadline=None)
    @given(small_lines, st.integers(0, 2 ** 16))
    def test_lines_in_general_position(self, lines, seed):
        # k lines, no two equal and no three concurrent: the C(k, 2) pairwise
        # meets are ordinary nodes and the only singular points
        assume(all(any(_cross(a, b)) for a, b in combinations(lines, 2)))
        assume(all(_det3(*triple) for triple in combinations(lines, 3)))
        curve = _product(*({e: c for e, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), a)
                            if c} for a in lines))
        nodes = [_cross(a, b) for a, b in combinations(lines, 2)]
        assert self.certify(curve, nodes, seed)
        assert not self.certify(curve, nodes[1:], seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_nodal_cubic(self, seed):
        assert self.certify(NODAL_CUBIC, [(0, 0, 1)], seed)
        assert not self.certify(NODAL_CUBIC, [], seed)

    @pytest.mark.parametrize("exact", [False, True], ids=["gf", "qq"])
    @pytest.mark.parametrize("seed", range(4))
    def test_cusp_listed_as_node(self, seed, exact):
        # y^2 z - x^3: the cusp (0:0:1) has Tjurina number 2
        cusp = {(0, 2, 1): Fraction(1), (3, 0, 0): Fraction(-1)}
        assert not self.certify(cusp, [(0, 0, 1)], seed, exact)

    @pytest.mark.parametrize("exact", [False, True], ids=["gf", "qq"])
    @pytest.mark.parametrize("seed", range(4))
    def test_cusp_times_conic(self, seed, exact):
        # (y^2 z - x^3)(y^2 - 14 x^2 + 49 xz - 36 z^2): the conic misses the
        # cusp (0:0:1) and meets the cubic (t^2 : t^3 : 1) transversally at
        # t = +-1, +-2, +-3, the roots of (t^2 - 1)(t^2 - 4)(t^2 - 9); the six
        # nodes are all listed, so only the cusp's Tjurina number 2 is wrong
        cusp = {(0, 2, 1): Fraction(1), (3, 0, 0): Fraction(-1)}
        conic = {(0, 2, 0): Fraction(1), (2, 0, 0): Fraction(-14),
                 (1, 0, 1): Fraction(49), (0, 0, 2): Fraction(-36)}
        nodes = [(t * t, t ** 3, 1) for t in (1, -1, 2, -2, 3, -3)]
        curve = _product(cusp, conic)
        gamma = MultiPoly(cb.X_BLOCKS, curve)
        for pt in [(0, 0, 1)] + nodes:  # so the count, not the listing, rejects
            assert not any(gamma.jet({"x": pt}, 1)[1])
        assert not self.certify(curve, [(0, 0, 1)] + nodes, seed, exact)
        assert not self.certify(curve, nodes, seed, exact)

    @pytest.mark.parametrize("seed", range(4))
    def test_line_times_conic(self, seed):
        # x (x^2 + y^2 - z^2): the line meets the conic at (0 : +-1 : 1)
        curve = {(3, 0, 0): Fraction(1), (1, 2, 0): Fraction(1),
                 (1, 0, 2): Fraction(-1)}
        nodes = [(0, 1, 1), (0, -1, 1)]
        assert self.certify(curve, nodes, seed)
        assert not self.certify(curve, nodes[:1], seed)
        assert not self.certify(curve, nodes[1:], seed)

    @pytest.mark.parametrize("exact", [False, True], ids=["gf", "qq"])
    @pytest.mark.parametrize("seed", range(4))
    def test_non_reduced_curve(self, seed, exact):
        # x^2 (y^2 - z^2) is singular along the whole line x = 0
        curve = {(2, 2, 0): Fraction(1), (2, 0, 2): Fraction(-1)}
        assert not self.certify(curve, [(0, 1, 1), (0, 1, -1), (1, 0, 0)],
                                seed, exact)

    @pytest.mark.parametrize("seed", range(4))
    def test_listed_smooth_point(self, seed):
        # (0:1:0) lies on the nodal cubic but is not singular there
        assert not self.certify(NODAL_CUBIC, [(0, 0, 1), (0, 1, 0)], seed)


@pytest.mark.parametrize("F", [GF_P, ps.QQ], ids=["gf", "qq"])
@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.dictionaries(
    st.sampled_from(ps.monomials_of_degree(d)),
    st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool),
    min_size=1, max_size=10)), st.integers(0, 2))
def test_partial_matches_multipoly_partial(F, terms, j):
    expected = MultiPoly(cb.X_BLOCKS, terms).partial("x", j).terms
    poly = {e: F.from_rational(c) for e, c in terms.items()}
    assert ps.p3_partial(F, poly, j) == {e: F.from_rational(c)
                                         for e, c in expected.items()}


@pytest.mark.parametrize("F", [GF_P, ps.QQ], ids=["gf", "qq"])
def test_linear_change_is_substitution(F):
    rng = random.Random(12)
    poly = {(2, 1, 0): F.from_rational(3), (0, 0, 3): F.from_rational(Fraction(-1, 2)),
            (1, 1, 1): F.from_rational(7)}
    m = ps._random_invertible(F, lambda: _element(F, rng))
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
    # sextic: one 62-bit bound, then nine entries per change of
    # coordinates.  Each literal is the next draw recorded when the proof
    # ran modulo one random 62-bit prime; any change to the draws changes
    # every sweep output.
    inst = cb.construct_instance(1)
    for seed, after in ((1, 0.9014274576114836), (0, 0.25050634136244054)):
        rng = random.Random(seed)
        assert cb.singular_locus_is_exactly(inst.gamma, cb.STANDARD_NODES, rng)
        assert rng.random() == after
