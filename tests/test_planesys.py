import random
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import isqrt, perm, prod
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prym6 import conicbundle as cb
from prym6 import planesys as ps
from prym6 import qpath as qp
from prym6.exactalg import MultiPoly, QMatrix, primitive

#: a Mersenne prime of 61 bits: its residues take two CPython digits, so the
#: kernels keep a multi-digit test beside the word-size primes of the proof
GF_P = ps.GF(2 ** 61 - 1)


def lift(F, v):
    """The rational v as an element of F: itself over Q, its residue over
    GF(p)."""
    v = Fraction(v)
    if F is ps.QQ:
        return v
    return v.numerator * pow(v.denominator, -1, F.p) % F.p


def dense(F, poly, n):
    """An exponent dict over Q, homogeneous of degree n, as a dense form
    over F: its coefficients on `monomials_of_degree(n)`, in that order."""
    return [lift(F, poly.get(e, 0)) for e in ps.monomials_of_degree(n)]


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
        # resultants, so the sample points stay distinct mod q; below 2^15,
        # trial division up to isqrt(q) < 2^8 decides primality
        primes = ps.WORD_PRIMES
        assert len(primes) == ps._TRIES
        assert len(set(primes)) == len(primes)
        for q in primes:
            assert 25 < q < 2 ** 15
            assert all(q % f for f in range(2, isqrt(q) + 1))

    @pytest.mark.parametrize("q", ps.WORD_PRIMES)
    def test_products_are_one_digit_and_a_sextic_packs(self, q):
        # a product of two residues is one 30-bit CPython digit; a sextic's
        # partials are quintics, whose x3-levels have at most 6 terms, and
        # their resultants have 26 sample points: both packed sums fit
        assert q * q < 2 ** 30
        assert ps._packs(ps.GF(q), 6) and ps._packs(ps.GF(q), 26)


def euclid_gcd(F, a, b):
    """The oracle of `uni_gcd` over GF(p): Euclid's remainders by
    `uni_divmod` alone, made monic."""
    a, b = list(a), list(b)
    while b:
        a, b = b, ps.uni_divmod(F, a, b)[1]
    return ps.uni_monic(F, a)


class TestUnivariate:
    def test_divmod_and_gcd_gf(self):
        F = ps.GF(10007)
        a = [lift(F, c) for c in (2, 0, 1)]   # x^2 + 2
        b = [lift(F, c) for c in (1, 1)]      # x + 1
        prod = uni_mul(F, a, b)
        q, r = ps.uni_divmod(F, prod, b)
        assert q == a and r == []
        g = ps.uni_gcd(F, prod, b)
        assert g == ps.uni_monic(F, b)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([ps.GF(5), ps.GF(101), ps.GF(ps.WORD_PRIMES[0])]),
           st.data())
    def test_gcd_gf_is_euclid_by_divmod(self, F, data):
        # h a and h b for random a, b and a common factor h, in either
        # order and with zero polynomials; over GF(5) remainders often drop
        # more than one degree, the steps that do not take the one-pass form
        def poly(top):
            return ps._trim(F, data.draw(st.lists(st.integers(0, F.p - 1), max_size=top)))

        h, a, b = poly(4), poly(9), poly(9)
        a, b = uni_mul(F, h, a), uni_mul(F, h, b)
        assert ps.uni_gcd(F, a, b) == euclid_gcd(F, a, b)
        assert ps.uni_gcd(F, b, a) == euclid_gcd(F, b, a)

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
        sf = qp.uni_squarefree_part(F, f)
        assert ps.uni_degree(sf) == 2
        assert uni_eval(F, sf, Fraction(1)) == 0
        assert uni_eval(F, sf, Fraction(-2)) == 0

    def test_interpolate(self):
        # random polynomials of degree < n through their values at 0 .. n-1
        rng = random.Random(1)
        for F in (GF_P, ps.QQ):
            for n in range(1, 27):
                poly = ps._trim(F, [lift(F, Fraction(rng.randint(-30, 30),
                                                     rng.randint(1, 9)))
                                    for _ in range(n)])
                ys = [uni_eval(F, poly, lift(F, x)) for x in range(n)]
                assert ps.uni_interpolate(F, ys) == poly
                assert ps.uni_interpolate(F, [F.zero] * n) == []
        ys = [Fraction(k * k + 1) for k in range(3)]
        assert ps.uni_interpolate(ps.QQ, ys) == [1, 0, 1]

    @pytest.mark.parametrize("F", [ps.GF(ps.WORD_PRIMES[0]), GF_P, ps.QQ],
                             ids=["word", "gf", "qq"])
    def test_interpolate_no_values_is_the_zero_polynomial(self, F):
        # no sample point: the polynomial of degree below 0
        assert ps.uni_interpolate(F, []) == []

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
        expect = [lift(F, i * a[i]) for i in range(1, 26)]
        assert qp.uni_derivative(F, a) == expect


class TestDetField:
    @pytest.mark.parametrize("p", [101, GF_P.p])
    def test_gf_matches_exact_determinant(self, p):
        # det_field is the Bareiss determinant of QMatrix, so the oracle is
        # sympy's, not QMatrix's
        sympy = pytest.importorskip("sympy")
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
            assert det == int(sympy.Matrix(m).det()) % p
            assert 0 <= det < p
        assert ps.det_field(F, []) == 1


#: Fractions with negative values and denominators, as `_uni_gcd_q` reads
#: them
_fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)

#: a nonzero polynomial over Q of degree 0 to 3, its leading coefficient of
#: either sign
_q_poly = st.builds(lambda low, lead: low + [lead], st.lists(_fracs, max_size=3),
                    _fracs.filter(bool))


class TestGcdQOracle:
    """`_uni_gcd_q`, through `uni_gcd` over QQ, against sympy's monic gcd."""

    @staticmethod
    def sympy_gcd(a, b):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def poly(c):
            return sympy.Poly([sympy.Rational(v.numerator, v.denominator)
                               for v in reversed(c)] or [0], x, domain="QQ")

        g = poly(a).gcd(poly(b))
        if g.is_zero:
            return []
        return [Fraction(int(v.p), int(v.q)) for v in reversed(g.monic().all_coeffs())]

    @settings(max_examples=80, deadline=None)
    @given(_q_poly, _q_poly, _q_poly, st.booleans())
    @example([Fraction(3), Fraction(-2)], [Fraction(1, 2), Fraction(-5, 3)],
             [Fraction(-7, 4), Fraction(0), Fraction(-1)], False)
    def test_matches_sympy(self, h, u, v, swap):
        # h divides both inputs; each may have a negative leading coefficient
        a, b = uni_mul(ps.QQ, h, u), uni_mul(ps.QQ, h, v)
        if swap:
            a, b = b, a
        assert ps.uni_gcd(ps.QQ, a, b) == self.sympy_gcd(a, b)

    def test_zero_inputs(self):
        a = [Fraction(-3, 2), Fraction(0), Fraction(-6)]
        assert ps.uni_gcd(ps.QQ, a, []) == self.sympy_gcd(a, []) == [
            Fraction(1, 4), 0, 1]
        assert ps.uni_gcd(ps.QQ, [], []) == []


#: the exponents of the value, the partials and the Hessian entries
_ORDER_2 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0),
            (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def parent_block_values(P, n, d=None):
    """The monomial table that `p3_weights` replaced in `conicbundle`: the
    values at P, or with a coordinate index d the partials in x_d."""
    if d is None:
        a, b, c = P
        return [a ** i * b ** j * c ** k for i, j, k in ps.monomials_of_degree(n)]
    return [e[d] * prod(v ** (k - (j == d)) for j, (v, k) in enumerate(zip(P, e)))
            if e[d] else 0 for e in ps.monomials_of_degree(n)]


def parent_jet_weights(P, n, d):
    """The weights that `_jet_table` built before `p3_weights`, from a power
    table per coordinate."""
    pw = [[v ** e for e in range(n + 1)] for v in P]
    return [prod(perm(a, b) * pw[k][a - b] if a >= b else 0
                 for k, (a, b) in enumerate(zip(e, d)))
            for e in ps.monomials_of_degree(n)]


class TestP3Weights:
    @settings(max_examples=150, deadline=None)
    @given(st.tuples(*[st.integers(-9, 9)] * 3), st.integers(0, 7),
           st.sampled_from(_ORDER_2))
    @example((0, 0, 0), 3, (1, 1, 0))
    @example((0, -1, 0), 2, (0, 0, 2))
    @example((3 ** 40, -(2 ** 70), 0), 6, (1, 0, 1))
    def test_matches_the_parent_tables(self, point, n, d):
        weights = ps.p3_weights(point, n, d)
        assert all(type(w) is int for w in weights)
        assert weights == parent_jet_weights(point, n, d)
        if sum(d) <= 1:
            index = d.index(1) if any(d) else None
            assert weights == parent_block_values(point, n, index)

    def test_matches_sympy_derivatives(self):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x0:3")
        for point in ((2, -3, 0), (0, 0, 5), (-1, 4, 7)):
            at = dict(zip(xs, point))
            for n in range(5):
                monomials = [sympy.prod(x ** k for x, k in zip(xs, e))
                             for e in ps.monomials_of_degree(n)]
                for d in _ORDER_2:
                    wrt = [x for x, k in zip(xs, d) for _ in range(k)]
                    expect = [int((sympy.diff(m, *wrt) if wrt else m).subs(at))
                              for m in monomials]
                    assert ps.p3_weights(point, n, d) == expect


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
        pairs, shared = [], []
        for a, b, h in batch:
            a, b, h = ([lift(F, v) for v in c] for c in (a, b, h))
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
        def lifted(c):
            return [lift(F, v) for v in c]
        pairs = [(uni_mul(F, lifted(a), lifted(h)), uni_mul(F, lifted(b), lifted(h)))
                 for a, b, h in batch]
        assert ps.uni_resultants(F, pairs) == [ps.uni_resultants(F, [pair])[0]
                                               for pair in pairs]

    def test_resultant_x3_equals_sylvester_determinant_at_each_sample(self):
        # two random quintic forms over GF(2^61 - 1): on the chart x2 = 1
        # the value at x1 = x is the low-first Sylvester determinant in x3
        # of the two forms with x1 = x
        F = GF_P
        rng = random.Random(13)
        mons = ps.monomials_of_degree(5)
        f, g = ([rng.randrange(F.p) for _ in mons] for _ in range(2))
        r, = qp.resultant_x3(F, f, [g])
        assert ps.uni_degree(r) == 25
        for x in range(26):
            a, b = (ps._reduced(F, [sum(c * x ** e1 for (e1, _, e3), c in zip(mons, form)
                                        if e3 == k) for k in range(6)])
                    for form in (f, g))
            assert uni_eval(F, r, x) == ps.det_field(F, _sylvester_low_first(F, a, b))


def horner_at_samples(F, tower, n):
    """The oracle of `_tower_at_samples`: each level by Horner's rule at
    every sample point x = 0 .. n - 1."""
    return list(zip(*([uni_eval(F, level, x) for x in range(n)] for level in tower)))


def lagrange_from_definition(F, ys):
    """The oracle of `uni_interpolate`, from the definition:
    sum_x y_x prod_{j != x} (t - j) / (x - j) over F, expanded by `uni_mul`."""
    n = len(ys)
    out = [F.zero] * n
    for x, y in enumerate(ys):
        basis, denominator = [F.one], 1
        for j in range(n):
            if j != x:
                basis = uni_mul(F, basis, [lift(F, -j), F.one])
                denominator *= x - j
        scale = y * F.inv(lift(F, denominator))
        out = [v + scale * c for v, c in zip(out, basis)]
    return ps._reduced(F, out)


def _inverse_mod(m, q):
    """The inverse of an invertible 3x3 integer matrix mod q: column j is
    the cross product of the two rows other than row j, over the
    determinant."""
    r0, r1, r2 = m
    cols = (_cross(r1, r2), _cross(r2, r0), _cross(r0, r1))
    inv = pow(_det3(r0, r1, r2), -1, q)
    return [[cols[j][i] * inv % q for j in range(3)] for i in range(3)]


def fixed_change(i):
    """The change of coordinates m_i of the word-prime proof's attempt i:
    entries randrange(q) from random.Random(f"m{i}"), q = WORD_PRIMES[i]."""
    q = ps.WORD_PRIMES[i]
    return ps._random_invertible(ps.GF(q), partial(random.Random(f"m{i}").randrange, q))


def levels_the_long_way(i, gamma):
    """The oracle of `_levels_at_samples`: gamma moved by `p3_linear_change`
    with m_i, each partial by `p3_partial`, its levels by `_x3_tower`, at
    the samples by `_tower_at_samples`; one row per partial and level."""
    F = ps.GF(ps.WORD_PRIMES[i])
    n = ps.p3_degree(gamma)
    moved = qp.p3_linear_change(F, gamma, fixed_change(i))
    return [list(level) for j in range(3)
            for level in zip(*qp._tower_at_samples(
                F, qp._x3_tower(F, qp.p3_partial(F, moved, j)), (n - 1) ** 2 + 1))]


@st.composite
def moved_forms(draw, q, n):
    """Dense forms of degree n mod q with zeros and top residues q - 1
    among the coefficients, as the image under m_i of the proof; the
    coefficients of x1 x3^(n-1), x2 x3^(n-1) and x3^n, the leading
    x3-levels of the three partials, are each 0 when a drawn flag says so."""
    form = draw(st.lists(st.one_of(st.just(0), st.just(q - 1),
                                   st.integers(0, q - 1)),
                         min_size=(n + 1) * (n + 2) // 2,
                         max_size=(n + 1) * (n + 2) // 2))
    leading = [(1, 0, n - 1), (0, 1, n - 1), (0, 0, n)]
    for e, flat in zip(leading, draw(st.lists(st.booleans(), min_size=3, max_size=3))):
        if flat:
            form[ps.monomials_of_degree(n).index(e)] = 0
    return form


class TestPackedPath:
    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("i", range(len(ps.WORD_PRIMES)))
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_lane_table_is_the_moved_partials_at_the_samples(self, i, n, data):
        # gamma = G o m_i^-1 for a drawn G, so gamma o m_i = G, with its
        # zero leading levels; and gamma drawn as it is
        q = ps.WORD_PRIMES[i]
        F = ps.GF(q)
        G = data.draw(moved_forms(q, n))
        gamma = qp.p3_linear_change(F, G, _inverse_mod(fixed_change(i), q))
        assert qp.p3_linear_change(F, gamma, fixed_change(i)) == G
        for form in (gamma, data.draw(moved_forms(q, n))):
            assert ps._levels_at_samples(i, form) == levels_the_long_way(i, form)

    def test_lane_table_reads_the_zero_form_and_top_residues(self):
        # the zero form gives zero lanes; every coefficient q - 1 gives the
        # largest slot sums of both packed products
        for i in (0, 7):
            q = ps.WORD_PRIMES[i]
            for n in (2, 6):
                size = (n + 1) * (n + 2) // 2
                for form in ([0] * size, [q - 1] * size):
                    assert ps._levels_at_samples(i, form) == levels_the_long_way(i, form)

    @pytest.mark.parametrize("q", ps.WORD_PRIMES)
    def test_packed_evaluation_is_horner(self, q):
        # random towers of reduced levels of up to 6 terms, as a quintic's,
        # at 26 sample points, with empty (all-zero) levels and levels of
        # top residue q - 1, the largest slot sum
        F = ps.GF(q)
        rng = random.Random(q)
        for _ in range(20):
            d = rng.randint(1, 5)
            n = rng.choice([1, d * d + 1, 26])
            tower = [ps._trim(F, [rng.choice([0, q - 1, rng.randrange(q)])
                                  for _ in range(rng.randint(0, d - e3 + 1))])
                     for e3 in range(d + 1)]
            tower[rng.randrange(d + 1)] = []
            tower[-1] = [rng.randrange(1, q)]
            assert qp._tower_at_samples(F, tower, n) == horner_at_samples(F, tower, n)
        top = [[q - 1] * 6, [], [q - 1]]
        assert qp._tower_at_samples(F, top, 26) == horner_at_samples(F, top, 26)

    @pytest.mark.parametrize("q", ps.WORD_PRIMES)
    def test_packed_interpolation_is_the_lagrange_dot_products(self, q):
        # random values, unreduced and negative ones among them; values of
        # a polynomial of low degree, whose result trims; and the zero values
        F = ps.GF(q)
        rng = random.Random(q)
        for n in range(1, 27):
            ys = [rng.randint(-3 * q, 3 * q) for _ in range(n)]
            assert ps.uni_interpolate(F, ys) == lagrange_from_definition(F, ys)
            low = [rng.randrange(q) for _ in range(rng.randint(1, n))]
            ys = [uni_eval(F, low, x) + rng.randint(-2, 2) * q for x in range(n)]
            assert ps.uni_interpolate(F, ys) == ps._trim(F, low)
            assert ps.uni_interpolate(F, [q * x for x in range(n)]) == []
            assert ps.uni_interpolate(F, [q - 1] * n) == [q - 1]

    @pytest.mark.parametrize("F", [GF_P, ps.QQ], ids=["gf", "qq"])
    def test_large_prime_and_q_take_the_unpacked_path(self, F, monkeypatch):
        # residues of 61 bits overflow a 64-bit slot; over Q there is none
        assert not ps._packs(F, 1)

        def fail(*args):
            raise AssertionError("packed sum read back")
        monkeypatch.setattr(ps, "_unpack", fail)
        for n in (1, 4, 26):
            for m in ps._sample_maps(F, n):
                # rows of field elements, not packed columns
                assert len(m) == n and all(len(row) == n for row in m)
        # on x2 = 1, Res(x3^2 + a, x3^2 + b x3 + c) = (c - a)^2 + a b^2 for
        # a = 3 x1 - x1^2, b = x1 and c = 2
        f = dense(F, {(0, 0, 2): 1, (2, 0, 0): -1, (1, 1, 0): 3}, 2)
        g = dense(F, {(0, 0, 2): 1, (0, 2, 0): 2, (1, 0, 1): 1}, 2)
        assert qp.resultant_x3(F, f, [g]) == [[lift(F, v) for v in (4, -12, 13, -3)]]
        ys = [lift(F, x * x + 1) for x in range(5)]
        assert ps.uni_interpolate(F, ys) == [F.one, F.zero, F.one]
        rng = random.Random(5)
        for n in (1, 4, 26):
            ys = [_element(F, rng) for _ in range(n)]
            assert ps.uni_interpolate(F, ys) == lagrange_from_definition(F, ys)

    @pytest.mark.parametrize("F", [ps.GF(ps.WORD_PRIMES[0]), GF_P, ps.QQ],
                             ids=["word", "gf", "qq"])
    def test_constant_f_has_one_sample_point(self, F):
        # Res_x3(c, g) = c^deg g: with f of degree 0 there is one sample
        # point, 0, and the levels of g = x1^2 + x3^2, of up to 3 terms,
        # are read at their constant terms only
        g = dense(F, {(2, 0, 0): 1, (0, 0, 2): 1}, 2)
        for c in (3, -7):
            assert qp.resultant_x3(F, [lift(F, c)], [g]) == [[lift(F, c * c)]]


class TestResultant:
    def test_resultant_detects_common_root(self):
        F = ps.QQ
        # f = (x3 - x1)(x3 - 2 x2), g = (x3 - x1)(x3 + x2)
        f = dense(F, {(0, 0, 2): 1, (1, 0, 1): -1, (0, 1, 1): -2, (1, 1, 0): 2}, 2)
        g = dense(F, {(0, 0, 2): 1, (1, 0, 1): -1, (0, 1, 1): 1, (1, 1, 0): -1}, 2)
        r, = qp.resultant_x3(F, f, [g])
        # common root x3 = x1 for every x1, so the resultant vanishes identically
        assert r == []

    def test_resultant_of_coprime(self):
        F = ps.QQ
        f = dense(F, {(0, 0, 1): 1, (1, 0, 0): -1}, 1)  # x3 - x1
        g = dense(F, {(0, 0, 1): 1, (1, 0, 0): -2}, 1)  # x3 - 2 x1
        r, = qp.resultant_x3(F, f, [g])
        # Res = x1 evaluated pointwise: linear with root only at x1 = 0
        assert ps.uni_degree(r) == 1
        assert uni_eval(F, r, Fraction(0)) == 0

    # gs of two degrees; an x3^d coefficient, d the degree of the form, that
    # is x1 or 0 in f, or x1 in the second g; no g at all
    @pytest.mark.parametrize("f, gs", [
        ({(0, 0, 3): 1, (1, 1, 1): 1, (3, 0, 0): 1, (0, 3, 0): 1},
         [{(0, 0, 1): 1, (1, 0, 0): 1}, {(0, 0, 2): 1, (2, 0, 0): 1}]),
        ({(1, 0, 1): 1, (0, 2, 0): 1}, [{(0, 0, 1): 1, (1, 0, 0): 1}]),
        ({(2, 0, 0): 1, (0, 1, 1): 1}, [{(0, 0, 2): 1, (2, 0, 0): 1}]),
        ({(0, 0, 1): 1, (1, 0, 0): 1},
         [{(0, 0, 2): 1, (2, 0, 0): 1}, {(1, 0, 1): 1, (0, 2, 0): 1}]),
        ({(0, 0, 1): 1, (1, 0, 0): 1}, []),
    ], ids=["degrees-differ", "f-lead-x1", "f-lead-0", "g-lead-x1", "no-g"])
    @pytest.mark.parametrize("F", [ps.GF(ps.WORD_PRIMES[0]), ps.QQ],
                             ids=["gf", "qq"])
    def test_rejects_what_it_cannot_interpolate(self, F, f, gs):
        # only_known_common_roots rejects an attempt on this ValueError
        def form(poly):
            return dense(F, poly, sum(next(iter(poly))))
        with pytest.raises(ValueError):
            qp.resultant_x3(F, form(f), [form(g) for g in gs])

    @pytest.mark.parametrize("F", [ps.GF(ps.WORD_PRIMES[0]), ps.QQ],
                             ids=["gf", "qq"])
    def test_batch_equals_one_g_calls(self, F, monkeypatch):
        # f = x3 g1 + x1^3 + x2^3 for g1 = x3^2 + x1 x2, so on x2 = 1 every
        # lane of g1 has the constant remainder x1^3 + 1, two degrees down,
        # while g2 = x3^2 + x1 x3 + x2^2 goes one degree at a time: two
        # degree groups in one uni_resultants call
        f = dense(F, {(0, 0, 3): 1, (1, 1, 1): 1, (3, 0, 0): 1, (0, 3, 0): 1}, 3)
        g1 = dense(F, {(0, 0, 2): 1, (1, 1, 0): 1}, 2)
        g2 = dense(F, {(0, 0, 2): 1, (1, 0, 1): 1, (0, 2, 0): 1}, 2)
        rng = random.Random(15)
        g3 = [_element(F, rng) for _ in ps.monomials_of_degree(2)]
        g3[-1] = F.one
        singles = [qp.resultant_x3(F, f, [g])[0] for g in (g1, g2, g3)]
        calls, lanes = [], ps.uni_resultants

        def spy(F, pairs):
            calls.append(len(pairs))
            return lanes(F, pairs)
        # resultant_x3 reads uni_resultants from the module it lives in
        monkeypatch.setattr(qp, "uni_resultants", spy)
        assert qp.resultant_x3(F, f, [g1, g2, g3]) == singles
        assert qp.resultant_x3(F, f, [g1, g2]) == singles[:2]
        assert calls == [21, 14]
        # Res(f, g1) is the product of f over the two roots of g1, at each
        # of which f is x1^3 + 1
        assert singles[0] == [lift(F, v) for v in (1, 0, 0, 2, 0, 0, 1)]


def _product(*factors):
    """The product of trivariate exponent dicts over Q."""
    out = MultiPoly.from_ints(cb.X_BLOCKS, {(0, 0, 0): 1})
    for f in factors:
        out = out * MultiPoly(cb.X_BLOCKS, f)
    return out.terms


def _two_conics():
    """f * g for two conics meeting transversally in exactly the four points
    (+-1 : +-1 : 1): a quartic with four nodes there, as a dense form over Q."""
    f = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(-2)}
    g = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(4), (0, 0, 2): Fraction(-5)}
    return dense(ps.QQ, _product(f, g), 4)


#: y^2 z - x^3 - x^2 z, a cubic whose only singular point is the node (0:0:1)
NODAL_CUBIC = {(0, 2, 1): Fraction(1), (3, 0, 0): Fraction(-1),
               (2, 0, 1): Fraction(-1)}


def _integer(curve):
    """A dense form over Q with integer values, as ints."""
    return [int(c) for c in curve]


def _rank_mod(rows, q):
    """The rank of an integer matrix modulo the prime q, by row reduction;
    the rows are reduced in place."""
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        head = [v * inv % q for v in rows[rank][col:]]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                rows[r][col:] = [(a - f * b) % q for a, b in zip(rows[r][col:], head)]
        rank += 1
    return rank


def jacobian_hilbert(form, k, q):
    """H_q(k) = dim (S/J)_k over GF(q), for the Jacobian ideal J of a dense
    integer plane form of degree n: C(k + 2, 2) minus the rank mod q of the
    products m * d_i form, over the monomials m of degree k - n + 1 (none
    when k < n - 1).

    Ranks only drop mod q, so H_q(k) >= H_Q(k).  A singular point of the
    curve adds its Tjurina number to H_Q(k) for k large, and for a reduced
    curve H_Q(3(n - 2)) is the sum of the Tjurina numbers (A. Dimca,
    "Syzygies of Jacobian ideals and defects of linear systems", 2013).  A
    curve singular along a component has H_Q(k) growing with k.  No random
    choice, resultant or gcd enters, so it shares nothing with
    `only_known_common_roots` but the form.
    """
    n = ps.p3_degree(form)
    partials = [[(tuple(a - (j == i) for j, a in enumerate(e)), e[i] * c)
                 for e, c in zip(ps.monomials_of_degree(n), form) if e[i] and c]
                for i in range(3)]
    column = {e: j for j, e in enumerate(ps.monomials_of_degree(k))}
    rows = []
    for m in ps.monomials_of_degree(k - n + 1) if k >= n - 1 else ():
        for terms in partials:
            row = [0] * len(column)
            for e, c in terms:
                row[column[tuple(a + b for a, b in zip(m, e))]] = c % q
            rows.append(row)
    return len(column) - _rank_mod(rows, q)


class TestJacobianOracle:
    def test_small_curves(self):
        # the sum of the Tjurina numbers at 3(n - 2): four nodes, one node,
        # and a cusp of Tjurina number 2
        cusp = {(0, 2, 1): 1, (3, 0, 0): -1}
        for curve, n, tau in ((_integer(_two_conics()), 4, 4),
                              (dense(ps.QQ, NODAL_CUBIC, 3), 3, 1),
                              (dense(ps.QQ, cusp, 3), 3, 2)):
            assert jacobian_hilbert(_integer(curve), 3 * (n - 2), GF_P.p) == tau

    def test_non_reduced_curve_grows(self):
        # x^2 (y^2 - z^2), of `TestAdversarialCurves`: its Jacobian scheme
        # contains the line x = 0, so H grows with k
        form = _integer(dense(ps.QQ, {(2, 2, 0): 1, (2, 0, 2): -1}, 4))
        values = [jacobian_hilbert(form, k, GF_P.p) for k in range(4, 10)]
        assert all(a < b for a, b in zip(values, values[1:])), values

    def test_construct_sextics_have_four_nodes(self):
        # the gamma of every seed the proof accepted: four ordinary nodes
        # and no other singular point
        for seed in range(1, 21):
            gamma = cb.construct_instance(seed).gamma
            assert jacobian_hilbert(cb._dense_form(gamma), 12, GF_P.p) == 4, seed


#: the extra singular point of each panel sextic; (1, -1, 0) and (1, 2, 0)
#: lie on the line x3 = 0 through two standard nodes, and (3, 0, 1) on the
#: line x2 = 0 through two others
PANEL_POINTS = ((2, 3, 5), (1, -1, 0), (1, 2, 0), (3, 0, 1))


def _partials_at(p, alphas):
    """One row per exponent alpha: d^alpha m at p, for each sextic monomial
    m in `monomials_of_degree(6)` order."""
    return [[prod(perm(e, a) * c ** (e - a) if a <= e else 0
                  for e, a, c in zip(m, alpha, p))
             for m in ps.monomials_of_degree(6)] for alpha in alphas]


def panel_sextic(kind, p):
    """A sextic with nodes at `STANDARD_NODES` and a singular point of the
    given kind at p, as a dense integer form: a fixed random member of the
    kernel of their condition rows.

    A node asks for the three first partials to vanish at p, a triple point
    for the six second partials.  A cusp asks for the first partials and
    for H e3 = 0, H the Hessian at p: with H p = 0 (Euler's formula) it has
    rank at most 1 when p is not (0 : 0 : 1).
    """
    first, second = ps.monomials_of_degree(1), ps.monomials_of_degree(2)
    alphas = {"node": first, "cusp": first + tuple(a for a in second if a[2]),
              "triple": second}[kind]
    rows = [row for q in cb.STANDARD_NODES for row in _partials_at(q, first)]
    kernel = QMatrix.from_ints(rows + _partials_at(p, alphas)).kernel()
    rng = random.Random(f"panel:{kind}:{p}")
    coeffs = [rng.randint(-9, 9) for _ in kernel]
    return [sum(map(mul, coeffs, column)) for column in zip(*kernel)]


class TestSingularityPanel:
    """Sextics singular at the four standard nodes and at one more point p:
    a fifth node, a cusp or a triple point, with p listed and unlisted."""

    @pytest.mark.parametrize("p", PANEL_POINTS, ids=str)
    @pytest.mark.parametrize("kind", ["node", "cusp", "triple"])
    def test_verdict_is_the_tjurina_count(self, kind, p):
        # the proof accepts exactly when the sum of the Tjurina numbers is
        # the number of listed points: each is then a node, and no other
        # point is singular; a cusp or a triple point is never a node
        form = panel_sextic(kind, p)
        tau = jacobian_hilbert(form, 12, GF_P.p)
        gamma = MultiPoly(cb.X_BLOCKS, dict(zip(ps.monomials_of_degree(6), form)))
        for listed in (cb.STANDARD_NODES + (p,), cb.STANDARD_NODES):
            assert cb.singular_locus_is_exactly(
                gamma, listed, random.Random(1)) == (tau == len(listed))
        assert cb.node_certificate(form, 1, p).is_node == (kind == "node")


class TestStreamPin:
    """The word-prime verdict is a function of the curve and k: each attempt
    i moves the curve by its fixed m_i, and the draws from the caller's rng,
    a 62-bit bound and the nine entries of one discarded change of
    coordinates per attempt reached, only keep the pinned stream."""

    @staticmethod
    def prove(monkeypatch, curve, k, seed):
        """The verdict under random.Random(seed) and the attempts that moved
        the curve; the rng must end where a replay of the pinned draws for
        those attempts ends."""
        attempts, table = [], ps._lane_table

        def spy(i, n):
            attempts.append(i)
            return table(i, n)
        monkeypatch.setattr(ps, "_lane_table", spy)
        rng = random.Random(seed)
        verdict = ps.only_known_common_roots(curve, k, rng)
        monkeypatch.undo()
        replay = random.Random(seed)
        bound = replay.getrandbits(62) | 1 << 61 | 1
        for i in attempts:
            q = ps.WORD_PRIMES[i]
            ps._random_invertible(ps.GF(q), lambda: replay.randrange(bound) % q)
        assert rng.getstate() == replay.getstate()
        return verdict, attempts

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_construct_curves(self, monkeypatch, seed):
        # the four nodes accept at the first attempt and three reject at all
        # eight, under every rng
        curve = cb._dense_form(cb.construct_instance(seed).gamma)
        for rng_seed in range(3):
            assert self.prove(monkeypatch, curve, 4, rng_seed) == (True, [0])
            assert self.prove(monkeypatch, curve, 3, rng_seed) == (
                False, list(range(len(ps.WORD_PRIMES))))

    @pytest.mark.parametrize("p", PANEL_POINTS, ids=str)
    @pytest.mark.parametrize("kind", ["node", "cusp", "triple"])
    def test_singularity_panel(self, monkeypatch, kind, p):
        form = panel_sextic(kind, p)
        for k in (5, 4):
            runs = {self.prove(monkeypatch, form, k, rng_seed)[0] for rng_seed in range(3)}
            assert len(runs) == 1


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
        the curve: each such attempt asks `_lane_table` for the maps of its
        fixed change of coordinates."""
        moved, table = [], ps._lane_table

        def spy(i, n):
            moved.append(ps.WORD_PRIMES[i])
            return table(i, n)
        monkeypatch.setattr(ps, "_lane_table", spy)
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

    def test_one_resultant_batch_per_attempt(self, monkeypatch):
        # Res(c0, c1) and Res(c0, c2) run as one call, at each of the eight
        # attempts of a rejected proof: the quartic's partials are cubics,
        # so each resultant is 3 * 3 + 1 = 10 sample lanes of the batch,
        # read back by one interpolation each
        calls, batch = [], ps.uni_resultants
        reads, interpolate = [], ps.uni_interpolate

        def spy(F, pairs):
            calls.append((F.p, len(pairs)))
            return batch(F, pairs)

        def spy_reads(F, ys):
            reads.append(len(ys))
            return interpolate(F, ys)
        monkeypatch.setattr(ps, "uni_resultants", spy)
        monkeypatch.setattr(ps, "uni_interpolate", spy_reads)
        assert not ps.only_known_common_roots(_integer(_two_conics()), 2,
                                              random.Random(4))
        assert calls == [(q, 2 * 10) for q in ps.WORD_PRIMES]
        assert reads == [10] * (2 * len(ps.WORD_PRIMES))

    def test_curve_that_vanishes_mod_the_first_prime(self, monkeypatch):
        # q0 * (two conics) is 0 mod q0: attempt 1 rejects before any draw,
        # and attempt 2 accepts modulo the second prime
        q0 = ps.WORD_PRIMES[0]
        curve = [q0 * c for c in _integer(_two_conics())]
        assert self.primes_tried(monkeypatch, curve, 4, 4) == (
            True, [ps.WORD_PRIMES[1]])

    def test_zero_leading_level_rejects_the_attempt(self, monkeypatch):
        # gamma = C o A for the two conics C and A = B m_0^-1 mod q0, where
        # the last column (7, 1, 5) of B lies on C: so gamma o m_0 = C o B
        # mod q0 has no x3^4 term, its x3-partial a zero leading level, and
        # attempt 0 rejects before any resultant; the second prime accepts
        q0 = ps.WORD_PRIMES[0]
        B = [[1, 0, 7], [0, 1, 1], [0, 0, 5]]
        m0_inv = _inverse_mod(fixed_change(0), q0)
        A = [[sum(B[r][k] * m0_inv[k][c] for k in range(3)) % q0 for c in range(3)]
             for r in range(3)]
        curve = _integer(qp.p3_linear_change(ps.QQ, _two_conics(), A))
        batches, batch = [], ps.uni_resultants

        def spy(F, pairs):
            batches.append(F.p)
            return batch(F, pairs)
        monkeypatch.setattr(ps, "uni_resultants", spy)
        assert self.primes_tried(monkeypatch, curve, 4, 4) == (
            True, list(ps.WORD_PRIMES[:2]))
        assert batches == [ps.WORD_PRIMES[1]]

    def test_curve_that_vanishes_mod_every_prime_is_rejected(self, monkeypatch):
        # a multiple of every prime of the table reduces to 0 at each
        # attempt, and a zero reduction never accepts
        scale = prod(ps.WORD_PRIMES)
        curve = [scale * c for c in _integer(_two_conics())]
        assert self.primes_tried(monkeypatch, curve, 4, 4) == (False, [])

    def test_rejects_curve_of_degree_below_two(self):
        for curve in ([ps.QQ.one, ps.QQ.zero, ps.QQ.zero], [ps.QQ.one], []):
            with pytest.raises(ValueError):
                ps.only_known_common_roots(curve, 0, random.Random(2),
                                           exact=True)


class TestFindUniqueCommonRoot:
    def test_locates_single_point(self):
        # the nodal cubic moved by x -> x - z, y -> y - 2z: its one node
        # goes from (0:0:1) to (1:2:1)
        cubic = qp.p3_linear_change(ps.QQ, dense(ps.QQ, NODAL_CUBIC, 3),
                                    [[1, 0, -1], [0, 1, -2], [0, 0, 1]])
        pt = ps.find_unique_common_root(cubic, random.Random(9))
        assert pt is not None
        assert all(qp.p3_eval(ps.QQ, qp.p3_partial(ps.QQ, cubic, j), pt) == 0
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
        """The check's answer, which must be whether `jacobian_hilbert` at
        3(n - 2) reads the number of listed points."""
        gamma = MultiPoly(cb.X_BLOCKS, curve)
        pts = [tuple(Fraction(c) for c in pt) for pt in points]
        accepted = cb.singular_locus_is_exactly(gamma, pts, random.Random(seed),
                                                exact=exact)
        form = cb._dense_form(gamma)
        n = ps.p3_degree(form)
        assert accepted == (jacobian_hilbert(form, 3 * (n - 2), GF_P.p) == len(pts))
        return accepted

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
        form = [int(curve.get(e, 0)) for e in ps.monomials_of_degree(6)]
        for pt in [(0, 0, 1)] + nodes:  # so the count, not the listing, rejects
            assert not any(ps.p3_jet(form, pt, 1)[1])
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


def _substituted(p, pt):
    """The value of a form over x at a point, through `MultiPoly.substitute`."""
    return p.substitute({"x": pt}).terms.get((), Fraction(0))


class TestJet:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 6).map(lambda n: len(ps.monomials_of_degree(n)))
           .flatmap(lambda size: st.lists(
               st.one_of(st.just(0), st.integers(-20, 20)),
               min_size=size, max_size=size)),
           st.tuples(*[st.one_of(st.just(0), st.integers(-3, 3),
                                 st.integers(-2 ** 500, 2 ** 500))] * 3))
    def test_matches_partial_and_substitute(self, form, pt):
        # forms of degree 0 to 6 with zero coefficients, points with zero
        # coordinates, so the skip of terms vanishing to high order is met,
        # and with coordinates of up to 500 bits, the size of a sweep t*;
        # the zero form is among the draws
        n = ps.p3_degree(form)
        p = MultiPoly(cb.X_BLOCKS, dict(zip(ps.monomials_of_degree(n), form)))
        value, grad, hess = ps.p3_jet(form, pt, 2)
        assert value == _substituted(p, pt)
        firsts = [p.partial("x", j) for j in range(3)]
        assert grad == tuple(_substituted(f, pt) for f in firsts)
        assert hess == tuple(tuple(_substituted(f.partial("x", j), pt)
                                   for j in range(3)) for f in firsts)
        assert ps.p3_jet(form, pt, 1) == (value, grad)
        assert ps.p3_jet(form, pt, 0) == (value,)
        assert all(type(v) is int for v in (value, *grad, *sum(hess, ())))

    def test_zero_polynomial(self):
        value, grad, hess = ps.p3_jet([0] * 10, (2, 0, -1), 2)
        assert value == 0 and grad == (0,) * 3
        assert hess == ((0,) * 3,) * 3

    @pytest.mark.parametrize("point, order", [((1, 1, 1), -1), ((1, 1, 1), 3),
                                              ((1, 1), 1), ((1, 1, 1, 1), 1)])
    def test_bad_point_or_order_raises(self, point, order):
        with pytest.raises(ValueError):
            ps.p3_jet([1, 2, 3], point, order)

    @pytest.mark.parametrize("point", [(1.0, 0, 0), (Fraction(1), 0, 0),
                                       (1, 0, True)])
    def test_point_of_other_type_raises(self, point):
        # (1.0, 0, 0) == (1, 0, 0), so a cached table would also serve it
        ps.p3_jet([1, 2, 3], (1, 0, 0), 1)
        with pytest.raises(TypeError):
            ps.p3_jet([1, 2, 3], point, 1)

    @pytest.mark.parametrize("point", [(0, 0, 1), (0, 3, 0), (-2, 0, 0),
                                       (1, 0, -1), (0, 5, 7), (2, -3, 0),
                                       (1, 1, 1)])
    def test_table_reads_the_terms_of_low_zero_degree(self, point):
        # the mask is the rule the table was built by: a term is read when
        # its degree in the point's zero coordinates is at most the order
        for n in range(8):
            for order in range(3):
                rule = tuple(sum(a for a, v in zip(e, point) if not v) <= order
                             for e in ps.monomials_of_degree(n))
                assert ps._jet_table(n, point, order)[0] == rule

    @pytest.fixture(scope="class")
    def gammas(self):
        # about 1800-bit coefficients
        return [cb._dense_form(cb.construct_instance(seed).gamma)
                for seed in (1, 2, 3)]

    def test_sextics_match_the_one_pass_loop(self, gammas):
        assert max(abs(c) for c in gammas[0]).bit_length() > 1000
        big = (3 ** 90 + 1, -(2 ** 130), 7 ** 41)
        for form in gammas:
            for pt in (*(primitive(p) for p in cb.STANDARD_NODES), big):
                for order in range(3):
                    assert ps.p3_jet(form, pt, order) == one_pass_jet(form, pt, order)

    def test_tables_survive_eviction(self, gammas):
        # more distinct points than the cache holds, then the standard
        # nodes again
        form = gammas[0]
        rng = random.Random(16)
        points = [tuple(rng.randrange(-10 ** 20, 10 ** 20) for _ in range(3))
                  for _ in range(ps._jet_table.cache_info().maxsize + 4)]
        points += [primitive(p) for p in cb.STANDARD_NODES]
        for pt in points * 2:
            assert ps.p3_jet(form, pt, 2) == one_pass_jet(form, pt, 2)
            assert ps.p3_jet(form, pt, 1) == one_pass_jet(form, pt, 1)


def one_pass_jet(form, point, order):
    """p3_jet as one pass over the terms, each derivative of each term
    built from a power table per coordinate, skipping the terms that
    vanish to order greater than ``order`` at a zero coordinate."""
    n = ps.p3_degree(form)
    zeros = [k for k in range(3) if not point[k]]
    pw = [[v ** e for e in range(n + 1)] for v in point]
    value, grad, hess = 0, [0, 0, 0], [[0] * 3 for _ in range(3)]
    for c, e in zip(form, ps.monomials_of_degree(n)):
        if not c or sum(e[k] for k in zeros) > order:
            continue
        f = [pw[k][e[k]] for k in range(3)]
        value += c * (f[0] * f[1] * f[2])
        d1 = [e[k] * pw[k][e[k] - 1] if e[k] else 0 for k in range(3)]
        # each pair (k, l) of distinct indices once, m the third index
        for k, l, m in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            if not e[k]:
                continue
            grad[k] += c * (d1[k] * f[l] * f[m])
            if e[k] > 1:
                hess[k][k] += c * (e[k] * (e[k] - 1) * pw[k][e[k] - 2]
                                   * f[l] * f[m])
            mixed = c * (d1[k] * d1[l] * f[m])
            hess[k][l] += mixed
            hess[l][k] += mixed
    return (value, tuple(grad), tuple(map(tuple, hess)))[:order + 1]


def _int_forms(degrees):
    """Dense integer forms of the given degrees, with zero coefficients."""
    return degrees.map(lambda n: len(ps.monomials_of_degree(n))).flatmap(
        lambda size: st.lists(st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6)),
                              min_size=size, max_size=size))


class TestMul:
    @settings(max_examples=80, deadline=None)
    @given(_int_forms(st.integers(0, 4)), _int_forms(st.integers(0, 4)))
    def test_matches_multipoly_product(self, f, g):
        # degrees 0 to 4 on each side; zero forms are among the draws
        def poly(form):
            n = ps.p3_degree(form)
            return MultiPoly.from_ints(cb.X_BLOCKS,
                                       dict(zip(ps.monomials_of_degree(n), form)))

        product = ps.p3_mul(f, g)
        assert ps.p3_degree(product) == ps.p3_degree(f) + ps.p3_degree(g)
        assert poly(product) == poly(f) * poly(g)

    @pytest.mark.parametrize("f, g", [([], []), ([], [1, 2, 3]), ([5], [])])
    def test_empty_form_gives_the_empty_form(self, f, g):
        assert ps.p3_mul(f, g) == []


@pytest.mark.parametrize("F", [GF_P, ps.QQ], ids=["gf", "qq"])
@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.dictionaries(
    st.sampled_from(ps.monomials_of_degree(d)),
    st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool),
    min_size=1, max_size=10)), st.integers(0, 2))
def test_partial_matches_multipoly_partial(F, terms, j):
    d = sum(next(iter(terms)))
    expected = MultiPoly(cb.X_BLOCKS, terms).partial("x", j).terms
    assert qp.p3_partial(F, dense(F, terms, d), j) == dense(F, expected, d - 1)


@pytest.mark.parametrize("F", [GF_P, ps.QQ], ids=["gf", "qq"])
def test_partial_of_a_constant_is_the_empty_form(F):
    for j in range(3):
        assert qp.p3_partial(F, [F.one], j) == []
        assert qp.p3_partial(F, [], j) == []


@pytest.mark.parametrize("F", [GF_P, ps.QQ], ids=["gf", "qq"])
def test_linear_change_is_substitution(F):
    rng = random.Random(12)
    poly = dense(F, {(2, 1, 0): 3, (0, 0, 3): Fraction(-1, 2), (1, 1, 1): 7}, 3)
    m = ps._random_invertible(F, lambda: _element(F, rng))
    changed = qp.p3_linear_change(F, poly, m)
    assert ps.p3_degree(changed) == 3
    for _ in range(5):
        pt = tuple(lift(F, rng.randint(-5, 5)) for _ in range(3))
        image = qp._mat3_apply(F, m, pt)
        assert qp.p3_eval(F, changed, pt) == qp.p3_eval(F, poly, image)


def test_random_invertible_gives_up_after_64_singular_draws():
    # a draw that is always 0 gives only the zero matrix
    draws = []

    def zero():
        draws.append(0)
        return 0

    with pytest.raises(RuntimeError, match="failed to draw an invertible matrix"):
        ps._random_invertible(ps.GF(32749), zero)
    assert len(draws) == 64 * 9


def dict_linear_change(F, poly, m):
    """x_i -> sum_j m[i][j] x_j on exponent dicts, by Horner's rule in x1
    and x2 with the powers of the third form: the sparse route that
    `p3_linear_change` replaced, kept as its oracle."""
    deg = max((sum(e) for e in poly), default=-1)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def times(acc, form):
        out = {}
        for e, v in acc.items():
            for u, a in zip(units, form):
                k = tuple(x + y for x, y in zip(e, u))
                out[k] = out.get(k, F.zero) + v * a
        return out

    x3_powers = [{(0, 0, 0): F.one}]
    for _ in range(deg):
        x3_powers.append(times(x3_powers[-1], m[2]))
    acc = {}
    for e1 in range(deg, -1, -1):
        inner = {}
        for e2 in range(deg - e1, -1, -1):
            inner = times(inner, m[1])
            for (f1, f2, e3), c in poly.items():
                if (f1, f2) == (e1, e2):
                    for k, v in x3_powers[e3].items():
                        inner[k] = inner.get(k, F.zero) + c * v
        acc = times(acc, m[0])
        for k, v in inner.items():
            acc[k] = acc.get(k, F.zero) + v
    reduced = {k: F.reduce(v) for k, v in acc.items()}
    return {k: v for k, v in reduced.items() if v != F.zero}


fracs_nonzero = st.fractions(min_value=-20, max_value=20,
                             max_denominator=12).filter(bool)


def _forms(d):
    """Homogeneous forms of degree d over Q: sparse, or on every monomial."""
    mons = ps.monomials_of_degree(d)
    return st.one_of(
        st.dictionaries(st.sampled_from(mons), fracs_nonzero, min_size=1,
                        max_size=6),
        st.lists(fracs_nonzero, min_size=len(mons), max_size=len(mons)).map(
            lambda cs: dict(zip(mons, cs))))


#: entries of a change of coordinates: zeros, small and word-size integers
_entries = st.one_of(st.just(0), st.integers(-9, 9), st.integers(0, 2 ** 62))


@pytest.mark.parametrize("F", [ps.GF(ps.WORD_PRIMES[0]), GF_P, ps.QQ],
                         ids=["gf-word", "gf", "qq"])
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6).flatmap(_forms),
       st.lists(_entries, min_size=9, max_size=9))
def test_linear_change_matches_dict_oracle(F, terms, entries):
    m = [[lift(F, v) for v in entries[3 * i:3 * i + 3]] for i in range(3)]
    (a, b, c), (d, e, f), (g, h, i) = m
    assume(F.reduce(a * (e * i - f * h) - b * (d * i - f * g)
                    + c * (d * h - e * g)) != F.zero)
    n = sum(next(iter(terms)))
    poly = {exp: lift(F, v) for exp, v in terms.items()}
    poly = {exp: v for exp, v in poly.items() if v != F.zero}
    assert (qp.p3_linear_change(F, dense(F, terms, n), m)
            == dense(F, dict_linear_change(F, poly, m), n))


def test_linear_change_of_the_empty_form():
    m = [[1, 2, 0], [0, 1, 0], [3, 0, 1]]
    assert qp.p3_linear_change(ps.QQ, [], m) == []
    assert qp.p3_linear_change(GF_P, [], m) == []


def test_degree_of_a_dense_form_is_read_from_its_length():
    for n in range(-1, 7):
        assert ps.p3_degree([0] * ((n + 1) * (n + 2) // 2)) == n
    for length in (2, 4, 5, 7, 27):
        with pytest.raises(ValueError):
            ps.p3_degree([0] * length)


def test_completeness_check_rejects_a_form_that_is_not_homogeneous():
    # x^2 + y is no plane curve, so no dense form of one degree holds it
    gamma = MultiPoly(cb.X_BLOCKS, {(2, 0, 0): Fraction(1),
                                    (0, 1, 0): Fraction(1)})
    with pytest.raises(ValueError):
        cb.singular_locus_is_exactly(gamma, [], random.Random(2))


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


def test_construct_proofs_accept_at_the_first_attempt(monkeypatch):
    # every completeness proof of gamma on construct seeds 1-20 accepts at
    # its first attempt, modulo the first prime, and draws the nine entries
    # of one discarded change of coordinates from the caller's rng: a
    # prime table that starts rejecting moves the rng stream that every
    # sweep digest pins.  The fixed m_0 is drawn from its own rng once, when
    # `_lane_table` builds the maps of attempt 0; they are built before the
    # spies go in, so that the draws counted are the caller's alone
    ps._lane_table(0, 6)
    proofs, calls, draws = [], [], []
    batch, change, prove = ps.uni_resultants, ps._random_invertible, cb.only_known_common_roots

    def count_batches(F, pairs):
        calls.append(F.p)
        return batch(F, pairs)

    def count_draws(F, draw):
        def counted():
            draws.append(1)
            return draw()
        return change(F, counted)

    def spy(curve, k, rng, exact=False):
        calls.clear()
        draws.clear()
        accepted = prove(curve, k, rng, exact)
        proofs.append((accepted, list(calls), len(draws)))
        return accepted
    monkeypatch.setattr(ps, "uni_resultants", count_batches)
    monkeypatch.setattr(ps, "_random_invertible", count_draws)
    monkeypatch.setattr(cb, "only_known_common_roots", spy)
    for seed in range(1, 21):
        cb.construct_instance(seed)
    assert len(proofs) >= 20
    assert all(p == (True, [ps.WORD_PRIMES[0]], 9) for p in proofs)
