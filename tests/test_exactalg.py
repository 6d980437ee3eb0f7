import random
from fractions import Fraction
from itertools import permutations, product
from math import gcd, prod
from operator import mul

import bundle_oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prym6 import chow, moduli
from prym6 import conicbundle as cb
from prym6 import planesys as ps
from prym6.exactalg import (MultiPoly, QMatrix, QVector, SpaceMismatchError,
                            _bareiss_echelon, det3_poly, integer_numerators,
                            primitive, solve_exact)
from prym6.moduli import R6_BASIS, CurveClass, DivClassR6

XY = (("x", 3), ("y", 3))
X = (("x", 3),)
#: the coordinate x_1 as a form on P^2 x P^2, and on P^2
X1_XY = MultiPoly.from_ints(XY, {(1, 0, 0, 0, 0, 0): 1})
X1 = MultiPoly.from_ints(X, {(1, 0, 0): 1})


def rand_poly(rng, blocks=XY, nterms=6, deg=2):
    nvars = sum(s for _, s in blocks)
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, deg) for _ in range(nvars))
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return MultiPoly(blocks, terms)


small_fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def poly_strategy():
    exps = st.tuples(*(st.integers(0, 2) for _ in range(6)))
    return st.dictionaries(exps, small_fracs, max_size=5).map(
        lambda t: MultiPoly(XY, t))


class TestMultiPoly:
    def test_zero_and_constant(self):
        z = MultiPoly(XY)
        assert not z.nums and not z.terms
        c = MultiPoly(XY, {(0,) * 6: Fraction(3, 2)})
        assert c.terms == {(0,) * 6: Fraction(3, 2)}

    def test_variable_and_partial(self):
        assert X1_XY.partial("x", 0) == MultiPoly(XY, {(0,) * 6: 1})
        assert X1_XY.partial("x", 1) == MultiPoly(XY)
        assert X1_XY.partial("y", 2) == MultiPoly(XY)

    def test_block_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            MultiPoly(XY) + MultiPoly(X)

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + MultiPoly(XY) == a
        assert a * MultiPoly.from_ints(XY, {(0,) * 6: 1}) == a
        assert a - a == MultiPoly(XY)

    @settings(max_examples=30, deadline=None)
    @given(poly_strategy(), poly_strategy())
    def test_leibniz_rule(self, a, b):
        d = lambda p: p.partial("x", 1)
        assert d(a * b) == d(a) * b + a * d(b)

    def test_euler_identity_bihomogeneous(self):
        # sum x_i dQ/dx_i = (x-degree) Q for a bidegree (2,2) form
        rng = random.Random(5)
        terms = {}
        for _ in range(8):
            xe = [0, 0, 0]
            ye = [0, 0, 0]
            for _ in range(2):
                xe[rng.randrange(3)] += 1
                ye[rng.randrange(3)] += 1
            terms[tuple(xe + ye)] = Fraction(rng.randint(1, 9))
        q = MultiPoly(XY, terms)
        acc = MultiPoly(XY)
        for i in range(3):
            unit = tuple(int(j == i) for j in range(6))
            acc = acc + MultiPoly.from_ints(XY, {unit: 1}) * q.partial("x", i)
        assert acc == 2 * q

    def test_substitute_partial_blocks(self):
        q = X1_XY * MultiPoly.from_ints(XY, {(0, 0, 0, 0, 1, 0): 1})
        r = q.substitute({"x": (Fraction(2), 0, 0)})
        assert r.blocks == (("y", 3),)
        assert r.terms == {(0, 1, 0): Fraction(2)}
        assert q.evaluate({"x": (2, 0, 0), "y": (0, 5, 0)}) == 10

    def test_every_block_must_be_assigned(self):
        with pytest.raises(ValueError):
            X1_XY.evaluate({"x": (1, 2, 3)})
        with pytest.raises(ValueError):
            X1_XY.evaluate({"x": (1, 2), "y": (1, 2, 3)})

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy(), st.tuples(*[st.one_of(st.just(0), small_fracs)] * 6))
    def test_substitute_one_block_then_the_other(self, p, pt):
        # a rational point with denominators and zero coordinates in x
        # leaves a form over y that evaluates as the whole form does
        px, py = pt[:3], pt[3:]
        r = p.substitute({"x": px})
        assert r.blocks == (("y", 3),)
        assert r.evaluate({"y": py}) == p.evaluate({"x": px, "y": py})

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy(), st.tuples(*[st.one_of(st.just(0), small_fracs)] * 6))
    def test_evaluate_matches_termwise_sum(self, p, pt):
        # points with denominators and zero coordinates; the zero
        # polynomial is among the draws
        value = p.evaluate({"x": pt[:3], "y": pt[3:]})
        assert isinstance(value, Fraction)
        assert value == sum(c * prod(v ** e for v, e in zip(pt, exp))
                            for exp, c in p.terms.items())


def _ring_classes(ring, keys):
    return lambda c: chow.ChowClass(ring, c), st.sampled_from(keys)


DP_KEYS = ["1", "L", "E1", "E2", "E3", "E4", "pt"]
#: every type built on QVector -> a maker of (make(coeffs), key strategy)
VECTOR_TYPES = {
    "QVector": lambda: (lambda c: QVector("test", c), st.integers(0, 5)),
    "MultiPoly": lambda: (lambda c: MultiPoly(XY, c),
                          st.tuples(*(st.integers(0, 2) for _ in range(6)))),
    "ChowClass-S": lambda: _ring_classes(chow.DelPezzoRing(), DP_KEYS),
    # the Chow ring of the P^2-bundle, kept by the tests as an oracle
    "ChowClass-P": lambda: _ring_classes(
        bundle_oracle.ProjectiveBundleRing(),
        [(a, s) for a in range(3) for s in DP_KEYS]),
    "ChowClass-P2xP2xP2": lambda: _ring_classes(
        chow.ProductProjectiveRing((2, 2, 2)),
        list(product(range(3), repeat=3))),
    "ChowClass-blowup": lambda: _ring_classes(
        chow.BlowupRing(),
        [k for k in product(range(3), repeat=4) if sum(k) <= 4]),
    "DivClassR6": lambda: (DivClassR6, st.sampled_from(R6_BASIS)),
    "CurveClass": lambda: (CurveClass, st.sampled_from(R6_BASIS)),
}


class TestCanonicalForm:
    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(), poly_strategy(),
           st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool))
    def test_equal_polynomials_have_one_form(self, p, other, k):
        by_factor = MultiPoly(XY, {e: k * c for e, c in p.terms.items()}) * (1 / k)
        by_product = (p * MultiPoly(XY, {(0,) * 6: k})) * (1 / k)
        by_cancelling = (p + other) + (-other)
        for q in (by_factor, by_product, by_cancelling,
                  MultiPoly(p.blocks, p.terms)):
            assert q == p
            assert hash(q) == hash(p)
            assert (q.nums, q.den) == (p.nums, p.den)
        assert p.den > 0 and gcd(p.den, *p.nums.values()) == 1
        for c in p.terms.values():
            assert type(c) is Fraction and c != 0
            assert gcd(c.numerator, c.denominator) == 1

    @pytest.mark.parametrize("name", list(VECTOR_TYPES))
    def test_every_vector_type_has_one_form(self, name):
        make, keys = VECTOR_TYPES[name]()
        coeffs = st.dictionaries(keys, small_fracs, max_size=5)

        @settings(max_examples=40, deadline=None)
        @given(coeffs, coeffs,
               st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool))
        def check(cx, cy, k):
            x, y = make(cx), make(cy)
            assert x.coeffs == {key: c for key, c in cx.items() if c}
            assert x.den > 0 and all(x.nums.values())
            assert gcd(x.den, *x.nums.values()) == 1
            for q in (make({key: k * c for key, c in cx.items()}) * (1 / k),
                      (x * k) * (1 / k), (x + y) - y, -(-x), make(x.coeffs)):
                assert q == x
                assert hash(q) == hash(x)
                assert (q.nums, q.den) == (x.nums, x.den)
            zero = x - x
            assert (zero.nums, zero.den) == ({}, 1)
            assert zero == make({}) and hash(zero) == hash(make({}))

        check()

    def test_vectors_combine_only_over_one_space(self):
        S1, S2 = chow.DelPezzoRing(), chow.DelPezzoRing()
        with pytest.raises(SpaceMismatchError):
            S1.L() + S2.L()
        with pytest.raises(SpaceMismatchError):
            S1.L() * S2.L()
        assert S1.L() != S2.L()
        with pytest.raises(TypeError):
            DivClassR6({"lambda": 1}) + CurveClass({"lambda": 1})
        with pytest.raises(TypeError):
            DivClassR6({"lambda": 1}) * DivClassR6({"lambda": 1})
        assert DivClassR6({"lambda": 1}) != CurveClass({"lambda": 1})

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=1, max_size=4)), st.integers(1, 6))
    def test_matrix_from_ints_or_fractions(self, rows, k):
        ints = QMatrix(rows)
        m = QMatrix([[Fraction(v) for v in row] for row in rows])
        assert m == ints
        assert all(type(v) is int for row in m.nums for v in row)
        assert m.rank() == ints.rank()
        assert m.kernel() == ints.kernel()
        # dividing by k keeps the row space and divides the det by k^n
        scaled = QMatrix([[Fraction(v, k) for v in row] for row in rows])
        assert QMatrix.from_ints(rows) == ints
        assert gcd(scaled.den, *(n for row in scaled.nums for n in row)) == 1
        assert [[Fraction(n, scaled.den) for n in row] for row in scaled.nums] == [
            [Fraction(v, k) for v in row] for row in rows]
        assert scaled.rank() == ints.rank()
        assert scaled.kernel() == ints.kernel()
        if m.rows == m.cols:
            assert m.det() == ints.det()
            assert scaled.det() == ints.det() / k ** m.rows

    def test_from_ints_reduces_by_one_gcd(self):
        # Fraction rows are in lowest terms over one den, not row by row:
        # rows that share factors with den, a zero row and a negative row
        # keep their ratio; integer rows are over den 1
        rows = [[2, 4, 6], [6, 10, 0], [0, 0, 0], [-4, 0, 8]]
        m = QMatrix([[Fraction(v, 4) for v in row] for row in rows])
        assert m.nums == ((1, 2, 3), (3, 5, 0), (0, 0, 0), (-2, 0, 4))
        assert m.den == 2
        assert QMatrix([[Fraction(0, 6)] * 2]).den == 1
        assert QMatrix.from_ints(rows).nums == tuple(map(tuple, rows))
        assert QMatrix.from_ints(rows).den == 1

    def test_ragged_rows_raise(self):
        with pytest.raises(ValueError, match="ragged"):
            QMatrix.from_ints([[1, 2], [3]])
        with pytest.raises(ValueError, match="ragged"):
            QMatrix([[1, 2], [Fraction(1, 2)]])


def vector_over(nums, den):
    """The Fraction-coefficient oracle of QVector.from_ints(_, nums, den)."""
    return {k: Fraction(n, den) for k, n in nums.items() if n}


def oracle_combine(x, y, sign):
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


vector_nums = st.dictionaries(st.integers(0, 5), st.integers(-12, 12),
                              max_size=5)


class TestSumsAndCopies:
    """Results keep the dict they are built in; sums over one denominator
    add numerators; a copy is made where the caller keeps its dict."""

    @pytest.mark.parametrize("den", [1, 4])
    def test_from_ints_keeps_no_reference_to_the_callers_dict(self, den):
        nums = {0: 3, 1: -2}
        v = QVector.from_ints("test", nums, den)
        fresh = QVector.from_ints("test", {0: 3, 1: -2}, den)
        before = hash(v)
        nums[0], nums[2] = 5, 7
        del nums[1]
        assert v.nums == {0: 3, 1: -2} and v.nums is not nums
        assert v == fresh and hash(v) == before == hash(fresh)

    @pytest.mark.parametrize("dens", [(1, 1), (6, 6), (4, 6)])
    def test_a_cancelled_key_is_not_stored(self, dens):
        dx, dy = dens
        x = QVector.from_ints("test", {0: dx, 1: 1}, dx)
        y = QVector.from_ints("test", {0: -dy, 2: 1}, dy)
        for s in (x + y, x - (-y)):
            assert 0 not in s.nums
            assert s.coeffs == {1: Fraction(1, dx), 2: Fraction(1, dy)}

    @pytest.mark.parametrize("den", [1, 6])
    def test_x_minus_x_is_the_zero_vector(self, den):
        x = QVector.from_ints("test", {0: 1, 3: -5}, den)
        zero = x - x
        assert (zero.nums, zero.den) == ({}, 1)
        assert zero == QVector("test") and hash(zero) == hash(QVector("test"))

    @settings(max_examples=80, deadline=None)
    @given(vector_nums, vector_nums, st.integers(1, 12), st.integers(1, 12),
           st.booleans(), st.integers(-4, 4))
    @example({0: 2}, {0: -2, 1: 3}, 4, 1, True, 0)
    @example({0: 1, 1: 3}, {1: 1}, 2, 6, False, -3)
    def test_sums_and_multiples_match_fractions(self, nx, ny, dx, dy, same, n):
        # half of the draws put both vectors over one denominator
        dy = dx if same else dy
        x = QVector.from_ints("test", nx, dx)
        y = QVector.from_ints("test", ny, dy)
        fx, fy = vector_over(nx, dx), vector_over(ny, dy)
        results = {
            "sum": (x + y, oracle_combine(fx, fy, 1)),
            "difference": (x - y, oracle_combine(fx, fy, -1)),
            "left multiple": (n * x, oracle_combine({}, fx, n)),
            "right multiple": (x * n, oracle_combine({}, fx, n)),
        }
        for name, (got, expected) in results.items():
            assert got.coeffs == expected, name
            assert got.den > 0 and 0 not in got.nums.values(), name
            assert gcd(got.den, *got.nums.values()) == 1, name
        assert x.coeffs == fx and y.coeffs == fy  # the operands are unchanged


#: every entry point of an exact value -> a call that passes it a float
FLOAT_ENTRY_POINTS = {
    "MultiPoly": lambda: MultiPoly(X, {(1, 0, 0): 0.1}),
    "MultiPoly-scalar": lambda: X1 * 0.5,
    "ChowClass": lambda: chow.ChowClass(chow.DelPezzoRing(), {"L": 0.1}),
    "ChowClass-scalar": lambda: chow.DelPezzoRing().L() * 0.5,
    "ChowClass-rscalar": lambda: 0.5 * chow.DelPezzoRing().L(),
    "ChowClass-sum": lambda: chow.DelPezzoRing().L() + 0.5,
    "blowup-divisor": lambda: chow.BlowupRing().divisor({"H1": 0.1, "H2": 1}),
    "DivClassR6": lambda: DivClassR6({"lambda": 0.1}),
    "DivClassR6-scalar": lambda: DivClassR6({"lambda": 1}) * 0.1,
    "CurveClass": lambda: CurveClass({"lambda": 0.5}),
    "lambda-degree": lambda: moduli.lambda_degree_from_family(13.0),
    "double-line-count": lambda: moduli.solve_double_line_count(18.0, 77),
    "double-line-count-delta0": lambda: moduli.solve_double_line_count(18, 77.0),
    "primitive": lambda: primitive([0.1, 1]),
    "QMatrix": lambda: QMatrix([[0.1, 1]]),
    "MultiPoly-evaluate": lambda: X1.evaluate({"x": (0.5, 1, 1)}),
    "MultiPoly-substitute": lambda: X1_XY.substitute({"x": (0.5, 1, 1)}),
    "SymQuadricMatrix-evaluated": lambda: cb.to_symmetric_matrix(
        MultiPoly(XY, {(2, 0, 0, 2, 0, 0): 1})).evaluated((0.5, 1, 1)),
    "LineInFiber": lambda: cb.LineInFiber((0.5, 1, 1), (1, 0, 0)),
    "node_certificate": lambda: cb.node_certificate(
        cb._dense_form(X1), 1, (0.5, 1, 1)),
    "base_system": lambda: cb.base_system(
        ((0.5, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))),
    "p3_jet": lambda: ps.p3_jet([1, 2, 3], (0.5, 1, 1), 1),
    # counts and indices that int() would truncate
    "MultiPoly-exponent": lambda: MultiPoly((("x", 3),), {(2.5, 0, 0): 1}),
    "MultiPoly-block-size": lambda: MultiPoly((("x", 2.7),), {(1, 0): 1}),
    "ProductProjectiveRing": lambda: chow.ProductProjectiveRing((2.5,)),
    "DelPezzoRing-E": lambda: chow.DelPezzoRing().E(True),
}


class TestIntegerNumerators:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.integers(-50, 50), small_fracs), max_size=6))
    def test_values_over_the_lcm(self, values):
        nums, d = integer_numerators(values)
        assert all(type(n) is int for n in nums) and d > 0
        assert [Fraction(n, d) for n in nums] == values
        # d is the least denominator: no factor of it divides every numerator
        assert gcd(d, *nums) == 1


class TestRejectsFloats:
    @pytest.mark.parametrize("entry", list(FLOAT_ENTRY_POINTS))
    def test_entry_point(self, entry):
        # a float would round silently; every exact entry point raises
        with pytest.raises(TypeError):
            FLOAT_ENTRY_POINTS[entry]()


def type_checked_primitive(vector):
    """`primitive` as it was before int vectors went straight to gcd: a
    vector of ints only if every entry's type is int, any other through
    `integer_numerators`."""
    if all(type(v) is int for v in vector):
        ints = vector
    else:
        ints, _ = integer_numerators(vector)
    g = gcd(*ints)
    if g == 0:
        return tuple(ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


class TestPrimitive:
    def test_basic(self):
        assert primitive((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)
        assert primitive((Fraction(-2), Fraction(4))) == (1, -2)
        assert primitive((0, 0)) == (0, 0)

    def test_float_entry_raises_among_ints(self):
        # gcd refuses the float wherever it sits, and the rational path
        # that the refusal sends it to rejects it
        with pytest.raises(TypeError):
            primitive((2, 4.0, 6))
        for vec in ([1.5], [0.0, 0.0], (3, 0, 2.0)):
            with pytest.raises(TypeError):
                primitive(vec)

    def test_zero_vector_gives_ints(self):
        # gcd takes bools, but a zero vector of them still gives int zeros
        for vec in ([False, False], (0, 0, 0), [Fraction(0)]):
            out = primitive(vec)
            assert out == (0,) * len(vec)
            assert all(type(v) is int for v in out)
        assert primitive([True, False, True]) == (1, 0, 1)
        assert primitive([]) == ()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(-2 ** 70, 2 ** 70) | st.just(0), max_size=8),
        st.lists(st.integers(-3, 3), max_size=5),
        st.lists(st.booleans(), max_size=6),
        st.lists(small_fracs, max_size=6),
        st.lists(st.integers(-99, 99) | small_fracs, max_size=6)))
    def test_matches_the_type_checked_implementation(self, vec):
        # int vectors go straight to gcd: the same result, of int entries,
        # as checking every entry's type first (zeros, negatives, entries
        # above 2^64, bools and Fractions)
        out = primitive(vec)
        assert out == type_checked_primitive(vec)
        assert all(type(v) is int for v in out)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-60, 60), min_size=1, max_size=6))
    def test_ints_match_the_rational_path(self, vec):
        # a vector of ints skips integer_numerators; Fractions go through it
        assert primitive(vec) == primitive([Fraction(v) for v in vec])
        assert primitive(tuple(vec)) == primitive(vec)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(small_fracs, min_size=1, max_size=6))
    def test_invariance_under_scaling(self, vec):
        p = primitive(vec)
        assert p == primitive([3 * v for v in vec])
        assert all(v.denominator == 1 for v in p)
        lead = next((v for v in p if v != 0), None)
        assert lead is None or lead > 0


def form_poly(form):
    """A dense form of `planesys` as a `MultiPoly` in x."""
    n = ps.p3_degree(form)
    return MultiPoly.from_ints(X, dict(zip(ps.monomials_of_degree(n), form)))


def multipoly_det3(m):
    """The permutation expansion of a 3x3 determinant of `MultiPoly`
    entries: the oracle of `det3_poly`."""
    out = MultiPoly(X)
    for p in permutations(range(3)):
        inversions = sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3))
        out = out + (-1) ** inversions * (m[0][p[0]] * m[1][p[1]] * m[2][p[2]])
    return out


def rand_form(rng, n, nterms):
    """A dense integer form of degree n with up to nterms nonzero terms."""
    form = [0] * len(ps.monomials_of_degree(n))
    for _ in range(nterms):
        form[rng.randrange(len(form))] = rng.randint(-9, 9)
    return form


class TestDet3Poly:
    def test_matches_laplace_oracle(self):
        rng = random.Random(7)
        m = [[rand_form(rng, 2, 3) for _ in range(3)] for _ in range(3)]
        p = [[form_poly(e) for e in row] for row in m]
        # independent cofactor expansion along the second row
        co = lambda i, j: (
            p[(i + 1) % 3][(j + 1) % 3] * p[(i + 2) % 3][(j + 2) % 3]
            - p[(i + 1) % 3][(j + 2) % 3] * p[(i + 2) % 3][(j + 1) % 3])
        oracle = sum((p[1][j] * co(1, j) for j in range(3)),
                     MultiPoly(X))
        assert form_poly(det3_poly(m)) == oracle == multipoly_det3(p)

    def test_alternating_and_multilinear(self):
        rng = random.Random(8)
        m = [[rand_form(rng, 2, 3) for _ in range(3)] for _ in range(3)]
        det = det3_poly(m)
        assert len(det) == len(ps.monomials_of_degree(6))
        swapped = [m[1], m[0], m[2]]
        assert det3_poly(swapped) == [-c for c in det]
        assert not any(det3_poly([m[0], m[0], m[2]]))
        scaled = [[[3 * c for c in e] for e in m[0]], m[1], m[2]]
        assert det3_poly(scaled) == [3 * c for c in det]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sympy(self, seed):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(seed)
        xs = sympy.symbols("x0:3")
        # a 3x3 matrix of linear forms, each the dense list of its three
        # coefficients
        m = [[[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
             for _ in range(3)]
        ours = det3_poly(m)
        theirs = sympy.Poly(sympy.Matrix(
            [[sum(c * v for c, v in zip(a, xs)) for a in row] for row in m]
        ).det(), *xs)
        assert ({e: c for e, c in zip(ps.monomials_of_degree(3), ours) if c}
                == {e: int(c) for e, c in theirs.terms() if c})

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-30, 30) | st.just(0), min_size=6,
                             max_size=6) | st.just([0] * 6),
                    min_size=6, max_size=6),
           st.integers(1, 12))
    def test_det_of_symmetric_quadrics_matches_multipoly(self, upper, den):
        # the upper triangle of a symmetric matrix of dense quadrics, with
        # zero coefficients and zero entries, as `SymQuadricMatrix` holds it
        pos = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 1): 3, (1, 2): 4, (2, 2): 5}
        entries = tuple(tuple(tuple(upper[pos[min(i, j), max(i, j)]])
                              for j in range(3)) for i in range(3))
        det = det3_poly(entries)
        oracle = multipoly_det3([[form_poly(e) for e in row] for row in entries])
        assert form_poly(det) == oracle
        A = cb.SymQuadricMatrix(entries, den)
        if oracle == MultiPoly(X):
            with pytest.raises(cb.DegenerateConfigurationError):
                cb.discriminant(A)
        else:
            assert cb.discriminant(A) == oracle * Fraction(1, den ** 3)

    def test_entries_of_two_lengths_raise(self):
        # zip and the sums would cut the products to the shorter length:
        # an empty entry gave [], read as an identically degenerate pencil,
        # and a linear entry among quadratics gave 21 zeros
        rng = random.Random(9)
        m = [[rand_form(rng, 2, 3) for _ in range(3)] for _ in range(3)]
        for bad in ([], rand_form(rng, 1, 2)):
            broken = [row[:] for row in m]
            broken[1][2] = bad
            with pytest.raises(ValueError, match="one degree"):
                det3_poly(broken)
        upper = [[m[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
        upper[0][1] = upper[1][0] = []
        with pytest.raises(ValueError) as err:
            cb.discriminant(cb.SymQuadricMatrix(upper, 1))
        assert type(err.value) is ValueError

    def test_only_3x3_matrices(self):
        rng = random.Random(10)
        m = [[rand_form(rng, 2, 3) for _ in range(3)] for _ in range(3)]
        for bad in (m[:2], [row[:2] for row in m], m + [m[0]]):
            with pytest.raises(ValueError, match="3x3"):
                det3_poly(bad)


@st.composite
def degenerate_int_matrices(draw, bound=6):
    """Integer matrices with zero columns, repeated rows and rank drops,
    entries of the free rows at most bound in absolute value: k rows drawn
    freely, the rest integer combinations of two of them (a repeat, a
    multiple or a zero row among them); square half the time."""
    nc = draw(st.integers(1, 5))
    nr = nc if draw(st.booleans()) else draw(st.integers(1, 6))
    k = draw(st.integers(1, nr))
    zero = draw(st.sets(st.integers(0, nc - 1)))
    row = st.lists(st.integers(-bound, bound), min_size=nc, max_size=nc).map(
        lambda r: [0 if j in zero else v for j, v in enumerate(r)])
    rows = draw(st.lists(row, min_size=k, max_size=k))
    pick, coef = st.integers(0, k - 1), st.integers(-3, 3)
    for _ in range(nr - k):
        i, j, a, b = draw(pick), draw(pick), draw(coef), draw(coef)
        rows.append([a * u + b * v for u, v in zip(rows[i], rows[j])])
    return rows


def perm_sign(perm):
    n = len(perm)
    return (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))


def leibniz_det(rows):
    n = len(rows)
    return sum(perm_sign(perm) * prod(rows[i][perm[i]] for i in range(n))
               for perm in permutations(range(n)))


class TestPivotRule:
    """Bareiss pivots each column on the smallest nonzero entry; no result
    may depend on which row that is."""

    @settings(max_examples=100, deadline=None)
    @given(degenerate_int_matrices(), st.data())
    def test_rows_permuted_and_scaled(self, rows, data):
        n = len(rows)
        perm = data.draw(st.permutations(range(n)))
        scales = data.draw(st.lists(st.integers(-5, 5).filter(bool),
                                    min_size=n, max_size=n))
        m = QMatrix.from_ints(rows)
        moved = QMatrix.from_ints([[c * v for v in rows[p]]
                                   for p, c in zip(perm, scales)])
        assert moved.rank() == m.rank()
        assert moved.kernel() == m.kernel()
        if m.rows == m.cols:
            assert moved.det() == perm_sign(perm) * prod(scales) * m.det()
            assert m.det() == leibniz_det(rows)

    def test_smallest_entry_pivots_first(self):
        rows = [[5, 1, 3], [0, 2, 7], [2, 4, 1]]
        echelon, pivots, sign = _bareiss_echelon(rows)
        # the row with 2 swaps with the first, past the row with 0
        assert echelon[0] == [2, 4, 1]
        assert pivots == [0, 1, 2] and sign == -1
        assert QMatrix.from_ints(rows).det() == leibniz_det(rows) == -128


def gcd_rescaling_kernel(rows):
    """The kernel basis as back-substitution found it before Cramer's rule:
    x[f] = 1, and at each pivot row the whole vector is scaled by the part
    of the pivot that the gcd with the row's sum leaves."""
    nc = len(rows[0])
    echelon, pivots, _ = _bareiss_echelon(rows)
    basis = []
    for f in (c for c in range(nc) if c not in pivots):
        x = [0] * nc
        x[f] = 1
        for p, row in reversed(list(zip(pivots, echelon))):
            s = sum(row[j] * x[j] for j in range(p + 1, nc) if x[j])
            g = gcd(s, row[p])
            if row[p] < 0:
                g = -g
            scale = row[p] // g
            if scale != 1:
                x = [v * scale for v in x]
            x[p] = -s // g
        basis.append(primitive(x))
    return basis


class TestKernelByCramer:
    """Each free column's kernel vector starts from the Bareiss pivot before
    it, so every division is exact and one `primitive` scales the vector."""

    @settings(max_examples=150, deadline=None)
    @given(degenerate_int_matrices(2 ** 64))
    def test_matches_gcd_rescaling(self, rows):
        m = QMatrix.from_ints(rows)
        kernel = m.kernel()
        assert kernel == gcd_rescaling_kernel(rows)
        assert m.rank() + len(kernel) == m.cols
        for vec in kernel:
            assert all(sum(map(mul, row, vec)) == 0 for row in rows)


class TestQMatrix:
    def test_rank_and_kernel_dims(self):
        m = QMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert m.rank() == 2
        ker = m.kernel()
        assert len(ker) == 1
        for row in m.nums:
            assert sum(a * b for a, b in zip(row, ker[0])) == 0

    def test_kernel_vectors_are_primitive(self):
        m = QMatrix([[Fraction(1, 2), Fraction(1, 3), 0]])
        for vec in m.kernel():
            assert primitive(vec) == vec

    def test_det_exact(self):
        m = QMatrix([[Fraction(1, 2), 2], [3, Fraction(4, 5)]])
        assert m.det() == Fraction(1, 2) * Fraction(4, 5) - 6
        with pytest.raises(ValueError):
            QMatrix([[1, 2]]).det()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_det_matches_leibniz(self, rows):
        # small entries often leave a leading column zero, so the elimination
        # skips a column and the matrix is singular, or swaps rows
        assert QMatrix(rows).det() == leibniz_det(rows)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(small_fracs, min_size=4, max_size=4),
                    min_size=2, max_size=5))
    def test_rank_nullity(self, rows):
        m = QMatrix(rows)
        assert m.rank() + len(m.kernel()) == m.cols

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6),
                    min_size=1, max_size=5),
           st.integers(1, 12))
    def test_kernel_basis_is_pinned(self, rows, denom):
        # small entries make rank drops common; a shared denominator makes
        # the integer rows differ from the rational ones
        m = QMatrix([[Fraction(v, denom) for v in row] for row in rows])
        ker = m.kernel()
        assert m.rank() + len(ker) == m.cols
        nonzero = [[c for c, v in enumerate(vec) if v] for vec in ker]
        # the basis vector of free column f is supported on f and pivot
        # columns before it, and is primitive with a positive first entry
        free = [max(cols) for cols in nonzero]
        assert free == sorted(set(free))
        for vec, f in zip(ker, free):
            assert all(vec[g] == 0 for g in free if g != f)
            assert primitive(vec) == vec
            for row in m.nums:
                assert sum(a * b for a, b in zip(row, vec)) == 0

    def test_solve_exact(self):
        m = QMatrix([[2, 1], [1, 3]])
        x = solve_exact(m, [5, 10])
        assert x == (Fraction(1), Fraction(3))
        assert solve_exact(QMatrix([[1, 1], [1, 1]]), [0, 1]) is None


def test_node_condition_matrix_has_rank_twenty():
    # the 4-point double-vanishing conditions on (2,2) forms drop 36 -> 16
    from prym6.conicbundle import STANDARD_NODES, node_condition_rows
    rows = []
    for pt in STANDARD_NODES:
        rows.extend(node_condition_rows(pt))
    m = QMatrix(rows)
    assert m.rank() == 20
    assert len(m.kernel()) == 16
