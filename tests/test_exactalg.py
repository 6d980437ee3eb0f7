import random
from fractions import Fraction
from itertools import permutations, product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prym6 import chow, moduli
from prym6 import conicbundle as cb
from prym6.exactalg import (MultiPoly, QMatrix, QVector, SpaceMismatchError,
                            det3_poly, integer_numerators, primitive,
                            solve_exact)
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
        assert z.is_zero()
        c = MultiPoly(XY, {(0,) * 6: Fraction(3, 2)})
        assert c.terms == {(0,) * 6: Fraction(3, 2)}

    def test_variable_and_partial(self):
        assert X1_XY.partial("x", 0) == MultiPoly(XY, {(0,) * 6: 1})
        assert X1_XY.partial("x", 1).is_zero()
        assert X1_XY.partial("y", 2).is_zero()

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
        assert (a - a).is_zero()

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
        assert q.multidegree() == (2, 2)
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

    def test_multidegree_none_for_mixed(self):
        p = MultiPoly(XY, {(1, 0, 0, 0, 0, 0): 1, (2, 0, 0, 0, 0, 0): 1})
        assert p.multidegree() is None


def _ring_classes(ring, keys):
    return lambda c: chow.ChowClass(ring, c), st.sampled_from(keys)


def _bundle_ring():
    S = chow.DelPezzoRing()
    return chow.ProjectiveBundleRing(S, chow.conic_bundle_chern_data(S))


DP_KEYS = ["1", "L", "E1", "E2", "E3", "E4", "pt"]
#: every type built on QVector -> a maker of (make(coeffs), key strategy)
VECTOR_TYPES = {
    "QVector": lambda: (lambda c: QVector("test", c), st.integers(0, 5)),
    "MultiPoly": lambda: (lambda c: MultiPoly(XY, c),
                          st.tuples(*(st.integers(0, 2) for _ in range(6)))),
    "ChowClass-S": lambda: _ring_classes(chow.DelPezzoRing(), DP_KEYS),
    "ChowClass-P": lambda: _ring_classes(
        _bundle_ring(), [(a, s) for a in range(3) for s in DP_KEYS]),
    "ChowClass-P2xP2xP2": lambda: _ring_classes(
        chow.ProductProjectiveRing((2, 2, 2)),
        list(product(range(3), repeat=3))),
    "ChowClass-blowup": lambda: _ring_classes(
        chow.BlowupRing(chow.blowup_intersection_table()),
        [k for k in product(range(3), repeat=4) if sum(k) <= 4]),
    "DivClassR6": lambda: (DivClassR6, st.sampled_from(R6_BASIS)),
    "CurveClass": lambda: (lambda c: CurveClass(c, "test"),
                           st.sampled_from(R6_BASIS)),
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
            DivClassR6({"lambda": 1}) + CurveClass({"lambda": 1}, "test")
        with pytest.raises(TypeError):
            DivClassR6({"lambda": 1}) * DivClassR6({"lambda": 1})
        assert DivClassR6({"lambda": 1}) != CurveClass({"lambda": 1}, "test")

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
        assert QMatrix.from_ints(rows, k) == scaled
        assert [[Fraction(n, d) for n in row]
                for row, d in zip(scaled.nums, scaled.dens)] == [
            [Fraction(v, k) for v in row] for row in rows]
        assert scaled.rank() == ints.rank()
        assert scaled.kernel() == ints.kernel()
        if m.rows == m.cols:
            assert m.det() == ints.det()
            assert scaled.det() == ints.det() / k ** m.rows

    def test_from_ints_reduces_each_row(self):
        # a den sharing factors with some rows, a zero row, a negative row
        rows = [[2, 4, 6], [3, 5, 0], [0, 0, 0], [-4, 0, 8]]
        m = QMatrix.from_ints(rows, 4)
        assert m.nums == ((1, 2, 3), (3, 5, 0), (0, 0, 0), (-1, 0, 2))
        assert m.dens == (2, 4, 1, 1)
        assert m == QMatrix([[Fraction(v, 4) for v in row] for row in rows])

    @pytest.mark.parametrize("den", [0, -1, -6])
    def test_from_ints_needs_a_positive_denominator(self, den):
        with pytest.raises(ValueError):
            QMatrix.from_ints([[1, 2]], den)

    def test_ragged_rows_raise(self):
        with pytest.raises(ValueError, match="ragged"):
            QMatrix.from_ints([[1, 2], [3]])
        with pytest.raises(ValueError, match="ragged"):
            QMatrix([[1, 2], [Fraction(1, 2)]])


#: every entry point of an exact value -> a call that passes it a float
FLOAT_ENTRY_POINTS = {
    "MultiPoly": lambda: MultiPoly(X, {(1, 0, 0): 0.1}),
    "MultiPoly-scalar": lambda: X1 * 0.5,
    "ChowClass": lambda: chow.ChowClass(chow.DelPezzoRing(), {"L": 0.1}),
    "ChowClass-scalar": lambda: chow.DelPezzoRing().L() * 0.5,
    "ChowClass-rscalar": lambda: 0.5 * chow.DelPezzoRing().L(),
    "ChowClass-sum": lambda: chow.DelPezzoRing().L() + 0.5,
    "ChernData": lambda: chow.ChernData(
        c1=-chow.DelPezzoRing().canonical(), c2=3.0),
    "blowup-divisor": lambda: chow.BlowupRing(
        chow.blowup_intersection_table()).divisor({"H1": 0.1, "H2": 1}),
    "DivClassR6": lambda: DivClassR6({"lambda": 0.1}),
    "DivClassR6-scalar": lambda: DivClassR6({"lambda": 1}) * 0.1,
    "CurveClass": lambda: CurveClass({"lambda": 0.5}, "test"),
    "CurveClass-scaled": lambda: CurveClass({"lambda": 18}, "test").scaled(
        0.1, "tenth"),
    "lambda-degree": lambda: moduli.lambda_degree_from_family(13.0),
    "double-line-count": lambda: moduli.solve_double_line_count(18.0, 77),
    "double-line-count-delta0": lambda: moduli.solve_double_line_count(18, 77.0),
    "primitive": lambda: primitive([0.1, 1]),
    "QMatrix": lambda: QMatrix([[0.1, 1]]),
    "MultiPoly-jet": lambda: X1.jet({"x": (0.5, 1, 1)}),
    "MultiPoly-evaluate": lambda: X1.evaluate({"x": (0.5, 1, 1)}),
    "MultiPoly-substitute": lambda: X1_XY.substitute({"x": (0.5, 1, 1)}),
    "SymQuadricMatrix-evaluated": lambda: cb.to_symmetric_matrix(
        MultiPoly(XY, {(2, 0, 0, 2, 0, 0): 1})).evaluated((0.5, 1, 1)),
    "LineInFiber": lambda: cb.LineInFiber((0.5, 1, 1), (1, 0, 0)),
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


def _substituted(p, at):
    """Value of p at a point through `substitute`, the reference for `jet`."""
    return p.substitute(at).terms.get((), Fraction(0))


def _points():
    coord = st.one_of(st.just(Fraction(0)), small_fracs)
    return st.tuples(*(st.tuples(coord, coord, coord) for _ in range(2)))


class TestJet:
    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(), _points())
    def test_matches_partial_and_substitute(self, p, pts):
        # two-block polynomials of mixed degrees, points with denominators
        # and zero coordinates; the zero polynomial is among the draws
        at = {"x": pts[0], "y": pts[1]}
        value, grad, hess = p.jet(at, 2)
        assert value == _substituted(p, at) == p.evaluate(at)
        variables = [(b, j) for b in ("x", "y") for j in range(3)]
        firsts = [p.partial(b, j) for b, j in variables]
        assert grad == tuple(_substituted(f, at) for f in firsts)
        assert hess == tuple(tuple(_substituted(f.partial(b, j), at)
                                   for b, j in variables) for f in firsts)
        assert p.jet(at, 1) == (value, grad)
        assert p.jet(at, 0) == (value,)

    def test_zero_polynomial(self):
        at = {"x": (Fraction(1, 2), 0, 3), "y": (1, 1, Fraction(-2, 5))}
        value, grad, hess = MultiPoly(XY).jet(at)
        assert value == 0 and grad == (0,) * 6
        assert hess == ((0,) * 6,) * 6

    def test_every_block_must_be_assigned(self):
        p = X1_XY
        with pytest.raises(ValueError):
            p.jet({"x": (1, 2, 3)})
        with pytest.raises(ValueError):
            p.evaluate({"x": (1, 2), "y": (1, 2, 3)})
        with pytest.raises(ValueError):
            p.jet({"x": (1, 2, 3), "y": (1, 2, 3)}, 3)


class TestPrimitive:
    def test_basic(self):
        assert primitive((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)
        assert primitive((Fraction(-2), Fraction(4))) == (1, -2)
        assert primitive((0, 0)) == (0, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(small_fracs, min_size=1, max_size=6))
    def test_invariance_under_scaling(self, vec):
        p = primitive(vec)
        assert p == primitive([3 * v for v in vec])
        assert all(v.denominator == 1 for v in p)
        lead = next((v for v in p if v != 0), None)
        assert lead is None or lead > 0


class TestDet3Poly:
    def test_matches_laplace_oracle(self):
        rng = random.Random(7)
        m = [[rand_poly(rng, X, 3, 2) for _ in range(3)] for _ in range(3)]
        # independent cofactor expansion along the second row
        co = lambda i, j: (
            m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
            - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3])
        oracle = sum((m[1][j] * co(1, j) for j in range(3)),
                     MultiPoly(X))
        assert det3_poly(m) == oracle

    def test_alternating_and_multilinear(self):
        rng = random.Random(8)
        m = [[rand_poly(rng, X, 3, 2) for _ in range(3)] for _ in range(3)]
        swapped = [m[1], m[0], m[2]]
        assert det3_poly(swapped) == -1 * det3_poly(m)
        assert det3_poly([m[0], m[0], m[2]]).is_zero()
        scaled = [[3 * e for e in m[0]], m[1], m[2]]
        assert det3_poly(scaled) == 3 * det3_poly(m)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sympy(self, seed):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(seed)
        xs = sympy.symbols("x0:3")
        units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        # a 3x3 matrix of linear forms, each as its three coefficients
        m = [[[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
             for _ in range(3)]
        ours = det3_poly([[MultiPoly(X, dict(zip(units, map(Fraction, a))))
                           for a in row] for row in m])
        theirs = sympy.Poly(sympy.Matrix(
            [[sum(c * v for c, v in zip(a, xs)) for a in row] for row in m]
        ).det(), *xs)
        assert ours.terms == {e: Fraction(int(c)) for e, c in theirs.terms()}


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
        n = len(rows)
        leibniz = sum(
            (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            * prod(rows[i][perm[i]] for i in range(n))
            for perm in permutations(range(n)))
        assert QMatrix(rows).det() == leibniz

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
    from prym6.conicbundle import (STANDARD_NODES, bidegree_monomials,
                                   node_condition_rows)
    monos = bidegree_monomials((2, 2))
    rows = []
    for pt in STANDARD_NODES:
        rows.extend(node_condition_rows(monos, pt, 2))
    m = QMatrix(rows)
    assert m.rank() == 20
    assert len(m.kernel()) == 16
