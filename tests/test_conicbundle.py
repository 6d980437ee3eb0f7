import json
import random
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import prod
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prym6 import conicbundle as cb
from prym6 import net as nt
from prym6 import planesys as ps
from prym6.exactalg import MultiPoly, QMatrix, det3_poly, primitive

XY = cb.XY_BLOCKS
X = cb.X_BLOCKS
T = (("t", 3),)


fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)
coords = st.one_of(st.just(Fraction(0)), fracs)
#: int points, with zero coordinates, as the certificates take them
int_points = st.tuples(*[st.integers(-20, 20)] * 3)


def var(block, i):
    """The coordinate x_i or y_i as a form on P^2 x P^2."""
    k = i + (3 if block == "y" else 0)
    return MultiPoly.from_ints(XY, {tuple(int(j == k) for j in range(6)): 1})


def rank_at(A, x):
    """The rank of A(x), from the int rows of den * A(x)."""
    return QMatrix.from_ints(A.evaluated(x)).rank()


def quadric(A, i, j):
    """The entry (i, j) of a SymQuadricMatrix as a `MultiPoly` in x."""
    return MultiPoly(X, {e: Fraction(n, A.den)
                         for e, n in zip(cb._DEG2, A.entries[i][j])})


def node_cert(curve, point):
    """The node certificate of a `MultiPoly` plane curve at a point."""
    return cb.node_certificate(cb._dense_form(curve), curve.den, point)


def monomial_row(monomials, point, d=None):
    """Reference for every condition row: the value of each monomial, or of
    its partial in coordinate d, at the 6-tuple point (x, y), with each block
    first scaled to a primitive integer vector.  The product loop that the
    outer products of `ps.p3_weights` tables replaced."""
    point = [c for block in (point[:3], point[3:]) for c in primitive(block)]
    row = []
    for exp in monomials:
        c = 1
        if d is not None:
            # d z^e = e z^(e-1); at e = 0, c is 0 and the max avoids 0^-1
            c, exp = exp[d], exp[:d] + (max(exp[d] - 1, 0),) + exp[d + 1:]
        row.append(c * prod(v ** e for v, e in zip(point, exp) if e))
    return row


def lines_for(seed):
    rng = random.Random(seed)
    return [cb.random_line_in_fiber(rng) for _ in range(5)], rng


class TestBaseSystem:
    def test_standard_dimension_sixteen(self):
        sys = cb.base_system(cb.STANDARD_NODES)
        assert sys.dim == 16
        assert {len(v) for v in sys.vectors} == {36}

    def test_imposed_conditions_hold(self):
        sys = cb.base_system(cb.STANDARD_NODES)
        w = cb.STANDARD_NODES[1]
        at = {"x": w, "y": w}
        for b in sys.basis:
            assert b.evaluate(at) == 0
            for block in ("x", "y"):
                for j in range(3):
                    assert b.partial(block, j).evaluate(at) == 0

    def test_rescaled_nodes_give_the_same_system(self):
        factors = (Fraction(1, 2), Fraction(-3), Fraction(2, 7), Fraction(5, 3))
        scaled = tuple(tuple(f * c for c in pt)
                       for f, pt in zip(factors, cb.STANDARD_NODES))
        assert (cb.base_system(scaled).vectors
                == cb.base_system(cb.STANDARD_NODES).vectors)

    def test_collinear_points_rejected(self):
        # (1:0:0), (0:1:0) and a point of the line x3 = 0, or a zero point,
        # whose triple product with any two points is 0
        for third in ((1, 1, 0), (Fraction(-1, 2), 3, 0), (0, 0, 0)):
            bad = (cb.STANDARD_NODES[0], cb.STANDARD_NODES[1], third,
                   cb.STANDARD_NODES[3])
            with pytest.raises(cb.DegenerateConfigurationError):
                cb.base_system(bad)

    def test_no_points_raise(self):
        # the condition matrix of no rows has no columns either, so its
        # kernel would be the zero system, not all 36 forms
        with pytest.raises(ValueError, match="at least one point"):
            cb.base_system(())
        assert cb.base_system(cb.STANDARD_NODES[:1]).dim == 31

    def test_point_of_other_than_three_entries_raises(self):
        # points of 2 and of 4 entries, alone or beside three good ones,
        # are rejected before any cross product or monomial table
        for bad in (((1, 0), (0, 1), (1, 1)), ((1, 0, 0, 1),),
                    cb.STANDARD_NODES[:3] + ((1, 1, 1, 1),)):
            with pytest.raises(ValueError, match="3 entries"):
                cb.base_system(bad)

    def test_dependent_point_conditions_raise(self):
        # eight points of the conic x1 x3 = x2^2, no three collinear: their
        # 40 conditions on the 36 forms have rank 26
        points = tuple((1, t, t * t) for t in range(8))
        with pytest.raises(cb.DegenerateConfigurationError,
                           match=r"^dependent point conditions: "
                                 r"rank 26 of 40 rows$"):
            cb.base_system(points)


class TestImposeLine:
    def test_dimension_chain(self):
        lines, _ = lines_for(101)
        sys = cb.base_system(cb.STANDARD_NODES)
        dims = [sys.dim]
        for lf in lines:
            sys = cb.impose_line(sys, lf)
            dims.append(sys.dim)
        assert dims == [16, 13, 10, 7, 4, 1]

    def test_contained_line_drops_nothing(self):
        lines, _ = lines_for(102)
        Q, sys = cb.zeta(lines)
        again = cb.impose_line(sys, lines[0], expected_drop=0)
        assert again.dim == 1

    def test_nongeneric_drop_flagged(self):
        lines, _ = lines_for(103)
        sys = cb.base_system(cb.STANDARD_NODES)
        sys = cb.impose_line(sys, lines[0])
        with pytest.raises(cb.NonGenericDropError):
            cb.impose_line(sys, lines[0])  # same line again: drop 0, not 3


integer_lines = st.tuples(*[st.integers(-20, 20)] * 6)
rational_lines = st.tuples(*[fracs] * 6)


#: points with zero coordinates and denominators, on which every condition
#: row is checked against `monomial_row`
points = st.tuples(coords, coords, coords).filter(any)


class TestLineConditionRows:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(integer_lines, rational_lines))
    def test_matches_monomial_row(self, data):
        o, dual = data[:3], data[3:]
        assume(any(o) and any(dual))
        lf = cb.LineInFiber(o, dual)
        p, q = cb._plane_basis(lf.dual)
        third = tuple(a + b for a, b in zip(p, q))
        assert cb.line_condition_rows(lf) == [
            monomial_row(cb.XY_MONOMIALS, tuple(lf.o) + tuple(y))
            for y in (p, q, third)]


class TestConditionRowsOracle:
    """Node and point rows against `monomial_row`."""

    @settings(max_examples=60, deadline=None)
    @given(points)
    def test_node_rows_every_partial(self, u):
        at = u + u
        k = max(j for j in range(3) if u[j])
        partials = [monomial_row(cb.XY_MONOMIALS, at, 3 * block + j)
                    for block in (0, 1) for j in range(3) if j != k]
        value = monomial_row(cb.XY_MONOMIALS, at)
        assert cb.node_condition_rows(u) == [value] + partials

    @settings(max_examples=60, deadline=None)
    @given(points, points)
    def test_point_rows(self, x, y):
        # the row impose_point cuts by, read from its call of _cut
        with mock.patch.object(cb, "_cut") as cut:
            cb.impose_point(cb.LinearSystem(()), x, y)
        (_, rows, drop, _), _ = cut.call_args
        assert drop == 1
        assert rows == [monomial_row(cb.XY_MONOMIALS, x + y)]


class TestLineInFiber:
    @pytest.mark.parametrize("o, dual", [
        ((1, 2), (1, 2, 3)), ((1, 2, 3, 4), (1, 2, 3)), ((1, 2, 3), (1, 2)),
        ((1, 2, 3), (1, 2, 3, 4)), ((), ())])
    def test_vectors_without_three_entries_raise(self, o, dual):
        # (1, 2) with (1, 2, 3) used to build a line
        with pytest.raises(ValueError, match="3 entries"):
            cb.LineInFiber(o, dual)

    @pytest.mark.parametrize("o, dual", [((0, 0, 0), (1, 2, 3)),
                                         ((1, 2, 3), (0, 0, 0))])
    def test_zero_vectors_are_degenerate(self, o, dual):
        with pytest.raises(cb.DegenerateConfigurationError):
            cb.LineInFiber(o, dual)


class TestPlaneBasis:
    @settings(max_examples=80, deadline=None)
    @given(st.tuples(*[st.integers(-40, 40) | st.just(0)] * 3))
    def test_matches_the_kernel(self, v):
        # zero and negative entries, the first nonzero one anywhere
        assume(any(v))
        assert list(cb._plane_basis(v)) == QMatrix.from_ints([v]).kernel()

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError):
            cb._plane_basis((0, 0, 0))


def random_rational(rng):
    """The Fraction draw that the integer draws replaced: their oracle."""
    return Fraction(rng.randint(-97, 97), rng.randint(1, 97))


def is_positive_multiple(v, w):
    """Whether v = s w for a rational s > 0, w nonzero."""
    return (all(a * d == b * c for (a, b), (c, d) in combinations(zip(v, w), 2))
            and sum(map(mul, v, w)) > 0)


class TestIntegerDraws:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_points_and_stream_as_the_fraction_draws(self, seed):
        # each integer draw is a positive multiple of the rational one it
        # replaced, after the same randint calls in the same order
        rng, oracle = random.Random(seed), random.Random(seed)
        o = cb.random_point(rng)
        want = [random_rational(oracle) for _ in range(3)]
        assert all(type(c) is int for c in o)
        assert is_positive_multiple(o, want)
        assert rng.getstate() == oracle.getstate()

        lf = cb.random_line_in_fiber(rng)
        while True:
            ro = [random_rational(oracle) for _ in range(3)]
            rd = [random_rational(oracle) for _ in range(3)]
            if any(ro) and any(rd):
                break
        assert lf == cb.LineInFiber(ro, rd)
        assert rng.getstate() == oracle.getstate()

        o = lf.o
        line = nt.pencil_line_through(o, rng)
        p, q = cb._plane_basis(o)
        while True:
            a, b = random_rational(oracle), random_rational(oracle)
            dual = [a * u + b * v for u, v in zip(p, q)]
            if any(dual):
                break
        assert line == cb.LineInFiber(o, dual)
        assert rng.getstate() == oracle.getstate()


class TestImposePoint:
    def test_rescaled_point_gives_the_same_cut(self):
        sys = cb.base_system(cb.STANDARD_NODES)
        x = (Fraction(1), Fraction(-2), Fraction(3))
        y = (Fraction(4), Fraction(1), Fraction(-1))
        cut = cb.impose_point(sys, x, y)
        assert cut.dim == 15
        scaled = cb.impose_point(sys, tuple(Fraction(-3, 5) * c for c in x),
                                 tuple(Fraction(7, 2) * c for c in y))
        assert scaled.vectors == cut.vectors

    def test_point_without_three_coordinates_raises(self):
        # (1, 0, 0) and (1, 2) used to give a 15-dimensional cut, the five
        # coordinates zipped against six-entry exponents
        sys = cb.base_system(cb.STANDARD_NODES)
        for x, y in (((1, 0, 0), (1, 2)), ((1, 2), (1, 0, 0)),
                     ((1, 0, 0, 0), (1, 2, 3)), ((), ())):
            with pytest.raises(ValueError, match="not a point"):
                cb.impose_point(sys, x, y)

    def test_zero_system_raises_in_both_cuts(self):
        # impose_point used to raise NonGenericDropError here and
        # impose_line ValueError; the check is in _cut, which both share
        zero = cb.LinearSystem(())
        with pytest.raises(ValueError, match="zero system"):
            cb.impose_point(zero, (1, 2, 3), (3, -1, 2))
        with pytest.raises(ValueError, match="zero system"):
            cb.impose_line(zero, cb.LineInFiber((1, 2, 3), (1, 0, -1)))

    def test_zero_point_is_degenerate(self):
        # (0, 0, 0) used to make a zero row, and a NonGenericDropError
        sys = cb.base_system(cb.STANDARD_NODES)
        for x, y in (((0, 0, 0), (1, 2, 3)), ((1, 2, 3), (0, 0, 0))):
            with pytest.raises(cb.DegenerateConfigurationError):
                cb.impose_point(sys, x, y)


def stacked_condition_matrix(points, lines):
    """All (2,2) node and line conditions as one matrix on raw coefficient
    vectors: the route to the unique member that `zeta`'s cut of the base
    system replaces, kept as its independent oracle."""
    rows = []
    for pt in points:
        rows.extend(cb.node_condition_rows(pt))
    for lf in lines:
        rows.extend(cb.line_condition_rows(lf))
    return QMatrix.from_ints(rows)


class TestZeta:
    def test_unique_member_and_rank(self):
        lines, _ = lines_for(104)
        Q, sys = cb.zeta(lines)
        assert sys.dim == 1
        m = stacked_condition_matrix(cb.STANDARD_NODES, lines)
        assert m.rows == 35 and m.cols == 36
        assert m.rank() == 35
        ker = m.kernel()
        assert len(ker) == 1
        assert set(Q.nums) <= set(cb.XY_MONOMIALS)
        assert primitive([Q.coeffs.get(m, 0) for m in cb.XY_MONOMIALS]) in (
            ker[0], tuple(-v for v in ker[0]))

    def test_membership_of_marked_lines(self):
        lines, _ = lines_for(105)
        Q, _ = cb.zeta(lines)
        for lf in lines:
            p, q = cb._plane_basis(lf.dual)
            for t in range(4):
                y = tuple(a + t * b for a, b in zip(p, q))
                assert Q.evaluate({"x": lf.o, "y": y}) == 0

    def test_base_system_terms_are_scanned_once(self):
        # a cut reads the (monomial, vector, coefficient) terms of its system
        # from a cache: three instances scan the base system's once, and the
        # cache is bounded, since it is keyed on any system that is cut
        cb._system_terms.cache_clear()
        for seed in (1, 2, 3):
            cb.construct_instance(seed)
        info = cb._system_terms.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert info.hits >= 2
        assert type(info.maxsize) is int and info.maxsize > 0

    def test_net_terms_are_scanned_once_per_net(self):
        # sweep cuts the base system once for the net, then the net once
        # per pencil line: two scans, whatever the number of samples
        cb._system_terms.cache_clear()
        report = nt.sweep(7, 3)
        info = cb._system_terms.cache_info()
        assert info.misses == 2
        assert info.hits >= len(report["samples"]) - 1

    def test_repeated_line_gives_kernel_four(self):
        lines, _ = lines_for(106)
        repeated = [lines[0], lines[0], lines[1], lines[2], lines[3]]
        m = stacked_condition_matrix(cb.STANDARD_NODES, repeated)
        assert len(m.kernel()) == 4
        with pytest.raises(cb.NonGenericDropError):
            cb.zeta(repeated)


class TestSymmetricMatrix:
    def test_single_cross_term(self):
        Q = var("x", 0) * var("x", 0) * var("y", 0) * var("y", 1)
        A = cb.to_symmetric_matrix(Q)
        assert quadric(A, 0, 1) == MultiPoly(X, {(2, 0, 0): Fraction(1, 2)})
        assert A.entries[1][0] == A.entries[0][1]
        assert not any(A.entries[2][2])

    def test_diagonal_form(self):
        Q = sum((var("x", i) * var("x", i) * var("y", i) * var("y", i)
                 for i in range(3)), MultiPoly(XY))
        A = cb.to_symmetric_matrix(Q)
        for i in range(3):
            assert quadric(A, i, i) == MultiPoly(
                X, {tuple(2 if k == i else 0 for k in range(3)): 1})
        gamma = cb.discriminant(A)
        assert gamma == MultiPoly(X, {(2, 2, 2): Fraction(1)})

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.sampled_from(cb.XY_MONOMIALS),
                           fracs, min_size=1, max_size=12),
           int_points, st.tuples(coords, coords, coords))
    def test_evaluated_matches_entrywise_evaluate(self, terms, x, y):
        # forms with denominators, int points x and points y with
        # denominators, both with zero coordinates
        Q = MultiPoly(XY, terms)
        A = cb.to_symmetric_matrix(Q)
        assert all(A.entries[i][j] == A.entries[j][i]
                   for i in range(3) for j in range(3))
        values = [[quadric(A, i, j).evaluate({"x": x}) for j in range(3)]
                  for i in range(3)]
        # den * A(x) as int rows, as NetT.restricted hands them on
        Ax = A.evaluated(x)
        assert all(type(v) is int for row in Ax for v in row)
        assert Ax == tuple(tuple(A.den * v for v in row) for row in values)
        # the defining identity Q(x, y) = y^T A(x) y
        assert sum(y[i] * Fraction(Ax[i][j], A.den) * y[j]
                   for i in range(3) for j in range(3)) \
            == Q.evaluate({"x": x, "y": y})

    def test_rejects_wrong_bidegree(self):
        with pytest.raises(ValueError):
            cb.to_symmetric_matrix(var("x", 0) * var("y", 0))

    def test_rejects_a_mixed_zero_or_other_block_form(self):
        # a form of two bidegrees, the zero form, and a (2, 2) form over
        # blocks other than XY_BLOCKS
        Q = var("x", 0) * var("x", 1) * var("y", 2) * var("y", 2)
        for bad in (Q + var("x", 0) * var("y", 0), MultiPoly(XY),
                    MultiPoly((("a", 3), ("b", 3)), Q.terms)):
            with pytest.raises(ValueError, match="bidegree"):
                cb.to_symmetric_matrix(bad)


class TestDiscriminant:
    def test_zeta_instance_sextic_vanishing_at_nodes(self):
        lines, _ = lines_for(108)
        Q, _ = cb.zeta(lines)
        gamma = cb.discriminant(cb.to_symmetric_matrix(Q))
        assert gamma.blocks == X and {sum(e) for e in gamma.nums} == {6}
        for u in cb.STANDARD_NODES:
            assert gamma.evaluate({"x": u}) == 0

    def test_reducible_factor_oracle(self):
        # Q = l(x) * K(x, y) with K of bidegree (1, 2) forces det A = l^3 det B
        rng = random.Random(9)
        ell = var("x", 0) + 2 * var("x", 1)
        kterms = {}
        for xe in ps.monomials_of_degree(1):
            for ye in ps.monomials_of_degree(2):
                kterms[xe + ye] = Fraction(rng.randint(-5, 5))
        K = MultiPoly(XY, kterms)
        Q = ell * K
        gamma = cb.discriminant(cb.to_symmetric_matrix(Q))
        # independent assembly of twice the linear symmetric matrix B of K,
        # each entry the dense list of its three coefficients
        b = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        for exp, c in K.nums.items():
            xe, ye = exp[:3], exp[3:]
            idx = [k for k in range(3) for _ in range(ye[k])]
            i, j = idx
            at = ps.monomials_of_degree(1).index(xe)
            if i == j:
                b[i][i][at] += 2 * c
            else:
                b[i][j][at] += c
                b[j][i][at] += c
        det_2b = MultiPoly.from_ints(X, dict(zip(ps.monomials_of_degree(3),
                                                 det3_poly(b))), K.den ** 3)
        ell_x = MultiPoly(X, {(1, 0, 0): 1, (0, 1, 0): 2})
        assert gamma == ell_x * ell_x * ell_x * det_2b * Fraction(1, 8)

    def test_identically_zero_rejected(self):
        zero = cb.SymQuadricMatrix((((0,) * 6,) * 3,) * 3, 1)
        with pytest.raises(cb.DegenerateConfigurationError):
            cb.discriminant(zero)


class TestNodeCertificates:
    def test_zeta_instance_nodes(self):
        lines, rng = lines_for(109)
        Q, _ = cb.zeta(lines)
        gamma = cb.discriminant(cb.to_symmetric_matrix(Q))
        certs = cb.certify_nodes(gamma, rng)
        assert len(certs) == 4
        for cert in certs:
            assert cert.is_node
            assert all(g == 0 for g in cert.gradient)
            assert cert.hessian_minor != 0

    def test_smooth_point_fails_gradient(self):
        gamma = MultiPoly(X, {(2, 2, 2): Fraction(1)})  # x^2 y^2 z^2
        cert = node_cert(gamma, (1, 1, 1))
        assert not cert.is_node
        assert any(g != 0 for g in cert.gradient)

    def test_cusp_pattern_fails_hessian(self):
        # x2^2 x3^4 - x1^3 x3^3: gradient vanishes at (1:0:0) but the chart
        # Hessian is identically zero there (worse-than-nodal singularity)
        gamma = MultiPoly(X, {(0, 2, 4): Fraction(1), (3, 0, 3): Fraction(-1)})
        cert = node_cert(gamma, (1, 0, 0))
        assert all(g == 0 for g in cert.gradient)
        assert cert.hessian_minor == 0
        assert not cert.is_node
        # (1:0:0) is the first of the standard nodes
        with pytest.raises(cb.CertificationError, match=r"\(1, 0, 0\)"):
            cb.certify_nodes(gamma, random.Random(0))

    def test_completeness_check_rejects_extra_node(self):
        # three double lines: singular everywhere on each line; and two
        # triple lines, free of x1, so one partial is 0
        rng = random.Random(3)
        for exp, pt in (((2, 2, 2), (1, 1, 1)), ((0, 3, 3), (1, 0, 0))):
            gamma = MultiPoly(X, {exp: Fraction(1)})
            assert not cb.singular_locus_is_exactly(
                gamma, [tuple(Fraction(c) for c in pt)], rng)

    def test_mod_p_completeness_on_instance(self):
        lines, rng = lines_for(110)
        Q, _ = cb.zeta(lines)
        gamma = cb.discriminant(cb.to_symmetric_matrix(Q))
        assert cb.singular_locus_is_exactly(gamma, cb.STANDARD_NODES,
                                            random.Random(1))

    @staticmethod
    def two_conics():
        # product of two transversal conics: singular exactly at the four
        # intersection points (+-1 : +-1 : 1); small coefficients keep the
        # exact resultants cheap
        one = Fraction(1)
        f = MultiPoly(X, {(2, 0, 0): one, (0, 2, 0): one, (0, 0, 2): -2 * one})
        g = MultiPoly(X, {(2, 0, 0): one, (0, 2, 0): 4 * one,
                          (0, 0, 2): -5 * one})
        pts = [(Fraction(a), Fraction(b), one) for a in (1, -1) for b in (1, -1)]
        return f * g, pts

    def test_exact_mode_on_small_curve(self):
        gamma, pts = self.two_conics()
        assert cb.singular_locus_is_exactly(gamma, pts, random.Random(2),
                                            exact=True)
        assert not cb.singular_locus_is_exactly(gamma, pts[:3], random.Random(2),
                                                exact=True)

    def test_exact_mode_rejects_unlisted_node_for_every_draw(self):
        # the node (-1 : -1 : 1) is left out; a sound check rejects the
        # curve whatever change of coordinates it draws, also on draws 8,
        # 10, 11 and 13, where the unlisted node projects onto a listed one
        gamma, pts = self.two_conics()
        accepted = [i for i in range(1, 17)
                    if cb.singular_locus_is_exactly(
                        gamma, pts[:3], random.Random(f"control:{i}"), exact=True)]
        assert accepted == []

    def test_smooth_point_listed_as_node_is_rejected(self):
        # a point of seed 103's sextic on the chord of the nodes (0:1:0)
        # and (0:0:1), which is not singular there
        lines, _ = lines_for(103)
        Q, _ = cb.zeta(lines)
        gamma = cb.discriminant(cb.to_symmetric_matrix(Q))
        pt = (Fraction(0), Fraction(231), Fraction(1943))
        assert gamma.evaluate({"x": pt}) == 0
        assert not cb.singular_locus_is_exactly(
            gamma, cb.STANDARD_NODES[:3] + (pt,), random.Random(0))

    def test_curve_over_t_is_certified_as_over_x(self):
        # the same quartic over the block t, as a net's cubic is: the check
        # reads the block from gamma, for both verdicts and both fields
        gamma, pts = self.two_conics()
        over_t = MultiPoly(T, gamma.terms)
        for exact in (False, True):
            for listed in (pts, pts[:3]):
                assert (cb.singular_locus_is_exactly(
                            over_t, listed, random.Random(2), exact)
                        == cb.singular_locus_is_exactly(
                            gamma, listed, random.Random(2), exact)
                        == (listed == pts))

    def test_form_in_two_blocks_raises(self):
        # gamma(x) * y0 on P^2 x P^2
        gamma, pts = self.two_conics()
        times_y0 = MultiPoly(XY, {e + (1, 0, 0): c for e, c in gamma.terms.items()})
        with pytest.raises(ValueError, match="one block"):
            cb.singular_locus_is_exactly(times_y0, pts, random.Random(2))

    def test_form_not_homogeneous_in_one_block_raises_at_every_reader(self):
        # gamma(x) * y0, gamma and the nodal cubic plus a linear term, and
        # 0: the conversion to a dense form and the completeness check
        # reject each; the node certificate rejects a list of a length no
        # form has
        gamma, pts = self.two_conics()
        cubic = MultiPoly(X, {(0, 2, 1): Fraction(1), (3, 0, 0): Fraction(-1),
                              (2, 0, 1): Fraction(-1)})
        assert node_cert(cubic, (0, 0, 1)).is_node
        x1 = MultiPoly(X, {(1, 0, 0): Fraction(1)})
        times_y0 = MultiPoly(XY, {e + (1, 0, 0): c for e, c in gamma.terms.items()})
        for bad in (times_y0, gamma + x1, cubic + x1, MultiPoly(X)):
            with pytest.raises(ValueError, match="one block"):
                cb._dense_form(bad)
            with pytest.raises(ValueError, match="one block"):
                cb.singular_locus_is_exactly(bad, pts, random.Random(2))
        for length in (0, 2, 4, 5, 7, 9, 11, 27):
            with pytest.raises(ValueError):
                cb.node_certificate([1] * length, 1, (0, 0, 1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.dictionaries(
               st.sampled_from(ps.monomials_of_degree(n)), fracs,
               min_size=1, max_size=8)),
           int_points)
    def test_matches_partials_at_a_rational_point(self, terms, pt):
        # forms of degree 0 to 4 with denominators, and int points (a
        # rational point of P^2 scaled to integers) with zero coordinates;
        # below degree 2 the Hessian is 0
        assume(any(pt))
        gamma = MultiPoly(X, terms)
        at = {"x": pt}
        cert = node_cert(gamma, pt)
        firsts = [gamma.partial("x", j) for j in range(3)]
        hess = tuple(tuple(f.partial("x", j).evaluate(at) for j in range(3))
                     for f in firsts)
        assert cert.point == pt
        assert cert.chart == max(k for k in range(3) if pt[k])
        assert cert.gradient == ((gamma.evaluate(at),)
                                 + tuple(f.evaluate(at) for f in firsts))
        a, b = (j for j in range(3) if j != cert.chart)
        assert cert.hessian_minor == hess[a][a] * hess[b][b] - hess[a][b] ** 2
        assert all(type(v) is int for v in cert.point)
        assert all(type(v) is Fraction for v in (*cert.gradient, cert.hessian_minor))

    def test_certificates_take_int_points_only(self):
        # an equal Fraction point raises, as a float does
        x, y, z = _plane_variables()
        cubic = y * y * z - x * x * x - x * x * z
        x0, y0 = var("x", 0), var("y", 0)
        A = cb.to_symmetric_matrix(x0 * x0 * y0 * y0)
        point = (Fraction(0), Fraction(0), Fraction(1))
        for call in (lambda: node_cert(cubic, point),
                     lambda: A.evaluated(point)):
            with pytest.raises(TypeError, match="int coordinates"):
                call()
        assert node_cert(cubic, (0, 0, 1)).is_node

    def test_repeated_or_zero_point_is_rejected(self):
        # either would make up the count of four with a node left unlisted
        gamma, pts = self.two_conics()
        for fourth in (tuple(2 * c for c in pts[0]), (Fraction(0),) * 3):
            assert not cb.singular_locus_is_exactly(
                gamma, pts[:3] + [fourth], random.Random(2), exact=True)

    @staticmethod
    def fifth_node_member(coeffs, p=(1, 2, 3), q=None):
        """A member of the system singular at the four standard nodes and
        at (p, q), q = p unless given, cut by three lines in fibers: 12
        dimensional before the cut on the diagonal, 11 off it.  Its
        discriminant is singular at p too."""
        fifth = (cb.node_condition_rows(p) if q is None
                 else fiber_singular_rows(p, q))
        rows = [row for pt in cb.STANDARD_NODES
                for row in cb.node_condition_rows(pt)] + fifth
        kernel = QMatrix(rows).kernel()
        assert len(rows) == 25 and len(kernel) == (12 if q is None else 11)
        sys = cb.LinearSystem(tuple(kernel))
        rng = random.Random(5)
        for _ in range(3):
            sys = cb.impose_line(sys, cb.random_line_in_fiber(rng))
        Q = sum((c * b for c, b in zip(coeffs, sys.basis)), MultiPoly(XY))
        return cb.discriminant(cb.to_symmetric_matrix(Q)), cb.STANDARD_NODES + (p,)

    def test_unlisted_fifth_node_is_rejected(self):
        gamma, nodes = self.fifth_node_member((1, 2, -3))
        assert all(node_cert(gamma, pt).is_node for pt in nodes)
        assert not cb.singular_locus_is_exactly(gamma, nodes[:4], random.Random(0))
        assert cb.singular_locus_is_exactly(gamma, nodes, random.Random(0))
        # the same failure as the pipeline meets it
        with pytest.raises(cb.CertificationError, match="unexplained components"):
            cb.certify_nodes(gamma, random.Random(0))

    @pytest.mark.parametrize("p, q", [((1, 2, 3), (3, -1, 2)),
                                      ((2, -1, 1), (1, 1, 0)),
                                      ((1, 3, -2), (0, 1, 1))])
    def test_off_diagonal_singular_point_is_rejected(self, p, q):
        # Q singular at (p, q) with p != q: gamma gains a fifth node at p,
        # which certify_nodes, listing only the standard four, rejects
        for coeffs in ((1, 2), (2, -1)):
            gamma, nodes = self.fifth_node_member(coeffs, p, q)
            assert cb.singular_locus_is_exactly(gamma, nodes, random.Random(0))
            with pytest.raises(cb.CertificationError,
                               match="unexplained components"):
                cb.certify_nodes(gamma, random.Random(0))

    def test_listed_non_node_is_rejected(self):
        # (0:0:1) is singular on the first basis member but not an ordinary
        # node, so its Tjurina number exceeds 1 and the count exceeds five
        gamma, nodes = self.fifth_node_member((1, 0, 0))
        cert = node_cert(gamma, nodes[2])
        assert all(g == 0 for g in cert.gradient) and not cert.is_node
        assert not cb.singular_locus_is_exactly(gamma, nodes, random.Random(0))


def fiber_singular_rows(p, q):
    """Rows over `XY_MONOMIALS` for vanishing to order 2 at (p, q), for int
    points: the value and the chart partials in x at p and in y at q, as
    `node_condition_rows` takes them at (u, u)."""
    def chart_partials(P):
        k = cb._chart_index(P)
        return [ps.p3_weights(P, 2, d) for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
                if not d[k]]
    Tp, Tq = ps.p3_weights(p, 2), ps.p3_weights(q, 2)
    tables = ([(Tp, Tq)] + [(D, Tq) for D in chart_partials(p)]
              + [(Tp, D) for D in chart_partials(q)])
    return [[u * v for u in U for v in V] for U, V in tables]


def test_fiber_singular_rows_on_the_diagonal():
    for u in cb.STANDARD_NODES + ((1, 2, 3), (2, -1, 0)):
        assert fiber_singular_rows(u, u) == cb.node_condition_rows(u)


def kernel_point_by_jet(A, Q, u):
    """The route `singular_point_on_Q` replaced: the Bareiss kernel of A(u),
    and the gradient of Q at (u, y) checked to vanish."""
    kernel = QMatrix.from_ints(A.evaluated(u)).kernel()
    assert len(kernel) == 1
    (y,) = kernel
    at = {"x": u, "y": y}
    return y, tuple(Q.partial(b, j).evaluate(at) for b in "xy" for j in range(3))


class TestSingularPointOnQ:
    def test_unique_fiber_point(self):
        lines, _ = lines_for(111)
        Q, _ = cb.zeta(lines)
        A = cb.to_symmetric_matrix(Q)
        gamma = cb.discriminant(A)
        for u in cb.STANDARD_NODES:
            y = cb.singular_point_on_Q(A, node_cert(gamma, u))
            assert rank_at(A, u) == 2
            assert Q.evaluate({"x": u, "y": y}) == 0

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_matches_kernel_and_jet(self, seed):
        # the cross product is the Bareiss kernel vector, and Jacobi's
        # formula holds: the jet of Q vanishes there, as it used to be checked
        inst = cb.construct_instance(seed)
        for cert, y in zip(inst.node_certificates, inst.fiber_singular_points):
            expected, grad = kernel_point_by_jet(inst.A, inst.Q, cert.point)
            assert cb.singular_point_on_Q(inst.A, cert) == y == expected
            assert not any(grad)

    def test_smooth_curve_point_is_not_singular_on_Q(self):
        # a point of seed 132's sextic on the chord of the nodes (1:0:0)
        # and (0:1:0): rank 2 there, but its kernel point is smooth on Q,
        # and the sextic's gradient there is not 0
        lines, _ = lines_for(132)
        Q, _ = cb.zeta(lines)
        A = cb.to_symmetric_matrix(Q)
        gamma = cb.discriminant(A)
        pt = (117, 230, 0)
        cert = node_cert(gamma, pt)
        assert cert.gradient[0] == 0 and any(cert.gradient)
        assert rank_at(A, pt) == 2
        _, grad = kernel_point_by_jet(A, Q, pt)
        assert any(grad)
        with pytest.raises(cb.CertificationError):
            cb.singular_point_on_Q(A, cert)

    def test_rank_one_point_is_rejected(self):
        # A = diag(x^2, y^2, z^2) has gamma = x^2 y^2 z^2, singular at
        # (1:0:0) with A(1:0:0) of rank 1: a zero gradient, but no unique
        # kernel point
        A = cb.to_symmetric_matrix(sum((var("x", i) * var("x", i) * var("y", i)
                                        * var("y", i) for i in range(3)), MultiPoly(XY)))
        gamma = cb.discriminant(A)
        assert gamma == MultiPoly.from_ints(X, {(2, 2, 2): 1})
        cert = node_cert(gamma, (1, 0, 0))
        assert not any(cert.gradient)
        assert rank_at(A, cert.point) == 1
        with pytest.raises(cb.CertificationError):
            cb.singular_point_on_Q(A, cert)


def probe_by_evaluate(gamma, rng):
    """The off-sextic probe as it read gamma through `MultiPoly.evaluate`:
    the number of points drawn until one is off gamma, or None after 16."""
    for n in range(1, 17):
        pt = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
        if any(pt) and gamma.evaluate({"x": pt}) != 0:
            return n
    return None


class TestRankStratification:
    @staticmethod
    def same_draws(gamma, seed):
        """The probe's verdict and rng state against `probe_by_evaluate`
        from the same seed; returns the reference's number of draws."""
        ours, theirs = random.Random(seed), random.Random(seed)
        try:
            cb.rank_stratification_check(gamma, ours)
            found = True
        except cb.CertificationError:
            found = False
        drawn = probe_by_evaluate(gamma, theirs)
        assert found == (drawn is not None)
        assert ours.getstate() == theirs.getstate()
        return drawn

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_same_draws_as_evaluate_on_construct_sextics(self, seed):
        gamma = cb.construct_instance(seed).gamma
        for s in range(10):
            self.same_draws(gamma, s)

    def test_same_draws_as_evaluate_when_draws_land_on_the_curve(self):
        # x y z (x y z / 3 - 2 x^3 / 5) vanishes on the three coordinate
        # lines, so every draw with a zero coordinate lands on it
        gamma = MultiPoly(X, {(2, 2, 2): Fraction(1, 3), (4, 1, 1): Fraction(-2, 5)})
        drawn = [self.same_draws(gamma, s) for s in range(40)]
        assert max(drawn) > 1


    def test_off_curve_probe_must_find_a_point(self):
        # every draw is the zero vector, so the rank-3 probe checks nothing
        class ZeroRng:
            def randint(self, a, b):
                return 0

        lines, _ = lines_for(103)
        Q, _ = cb.zeta(lines)
        A = cb.to_symmetric_matrix(Q)
        gamma = cb.discriminant(A)
        with pytest.raises(cb.CertificationError):
            cb.rank_stratification_check(gamma, ZeroRng())

    def test_generic_point_rank_three(self):
        lines, _ = lines_for(114)
        Q, _ = cb.zeta(lines)
        A = cb.to_symmetric_matrix(Q)
        gamma = cb.discriminant(A)
        pt = (1, 2, 5)
        assert gamma.evaluate({"x": pt}) != 0
        assert rank_at(A, pt) == 3


class TestResidualLine:
    def test_division_round_trip(self):
        lines, _ = lines_for(115)
        Q, _ = cb.zeta(lines)
        A = cb.to_symmetric_matrix(Q)
        for lf in lines:
            m, y = cb.residual_line(A, lf)
            # reconstruct the conic, restricted from Q directly, from the
            # two linear factors
            conic = Q.substitute({"x": lf.o})
            prod = {}
            for i in range(3):
                for k in range(3):
                    e = tuple((1 if a == i else 0) + (1 if a == k else 0)
                              for a in range(3))
                    prod[e] = prod.get(e, Fraction(0)) + lf.dual[i] * m[k]
            ratio = None
            for mono in cb._DEG2:
                c1 = conic.terms.get(mono, Fraction(0))
                c2 = prod.get(mono, Fraction(0))
                if c2 != 0:
                    r = c1 / c2
                    assert ratio is None or r == ratio
                    ratio = r
                else:
                    assert c1 == 0
            assert ratio is not None and ratio != 0
            if y is not None:
                assert sum(a * b for a, b in zip(lf.dual, y)) == 0
                assert sum(a * b for a, b in zip(m, y)) == 0

    def test_double_line_case(self):
        # Q = g(x) * (y1 + y2)^2 restricts to a double line in every fiber
        g = var("x", 0) * var("x", 2)
        ell = var("y", 0) + var("y", 1)
        Q = g * ell * ell
        lf = cb.LineInFiber((Fraction(1), Fraction(1), Fraction(1)),
                            (Fraction(1), Fraction(1), Fraction(0)))
        m, y = cb.residual_line(cb.to_symmetric_matrix(Q), lf)
        assert y is None
        assert primitive(m) == primitive(lf.dual)

    def test_nondividing_line_is_internal_error(self):
        Q = sum((var("x", i) * var("x", i) * var("y", i) * var("y", i)
                 for i in range(3)), MultiPoly(XY))
        lf = cb.LineInFiber((Fraction(1), Fraction(1), Fraction(1)),
                            (Fraction(1), Fraction(0), Fraction(0)))
        with pytest.raises(cb.MarkedLineInvariantError):
            cb.residual_line(cb.to_symmetric_matrix(Q), lf)


def _bool_exponent(data):
    """Write the first exponent 1 of an instance file as true."""
    exponents = next(e for e, _ in data["coefficients"] if 1 in e)
    exponents[exponents.index(1)] = True


class TestInstancePipeline:
    def test_construct_and_roundtrip(self):
        inst = cb.construct_instance(5)
        assert len(inst.node_certificates) == 4
        assert len(inst.fiber_singular_points) == 4
        text = inst.to_json()
        again = cb.ConicBundleInstance.from_json(text)
        assert again.to_json() == text
        assert again.Q == inst.Q
        json.loads(text)  # valid JSON

    def test_coefficients_are_written_as_reduced_fractions(self):
        # Q of den 1 is written from its numerators; a Q of another den,
        # which no certified instance has, still gets each coefficient as
        # its reduced Fraction
        inst = cb.construct_instance(5)
        for Q in (inst.Q, inst.Q * Fraction(2, 3)):
            written = json.loads(inst._replace(Q=Q).to_json())["coefficients"]
            assert written == [[list(e), [c.numerator, c.denominator]]
                               for e, c in sorted(Q.terms.items())]

    @pytest.mark.parametrize("seed", ["abc", 2.0, True])
    def test_seed_that_from_json_refuses_is_rejected(self, seed):
        # to_json writes the seed as it is, and from_json refuses every seed
        # but null and an int, so no such instance is made
        with pytest.raises(TypeError, match="not an int"):
            cb.construct_instance(seed)

    @pytest.mark.parametrize("tamper", [
        lambda d: d["certificates"][0].update(hessian_minor=[1, 1]),
        lambda d: d["certificates"][2]["gradient"][1].__setitem__(0, 1),
        lambda d: d["certificates"][1].update(chart=0),
        lambda d: d["nodes"].__setitem__(0, [[5, 1], [7, 1], [11, 1]]),
        lambda d: d["certificates"][0].update(point=[[5, 1], [7, 1], [11, 1]]),
        lambda d: d["certificates"][3]["fiber_singular_point"][0].__setitem__(0, 7),
        lambda d: d["certificates"].pop(),
        lambda d: d["marked_lines"][2]["dual"][0].__setitem__(0, 1234),
        # Q passes every certificate with four of its lines, but four lines
        # cut a system of dimension 4, so they do not determine Q
        lambda d: d["marked_lines"].pop(),
        lambda d: d["coefficients"][0][1].__setitem__(
            0, d["coefficients"][0][1][0] + 1),
        lambda d: d["marked_lines"][0].update(dual=[[0, 1]] * 3),
    ], ids=["minor", "gradient", "chart", "node", "point", "fiber-point",
            "missing", "marked-line", "dropped-line", "coefficient", "zero-line"])
    def test_tampered_json_is_rejected(self, tamper):
        data = json.loads(cb.construct_instance(1).to_json())
        tamper(data)
        with pytest.raises(cb.CertificationError):
            cb.ConicBundleInstance.from_json(json.dumps(data))

    @pytest.mark.parametrize("tamper", [
        lambda d: d["coefficients"][0][1].__setitem__(1, 0),
        lambda d: d["nodes"][1][0].__setitem__(1, 0),
        lambda d: d["marked_lines"][3]["o"][2].__setitem__(1, 0),
        lambda d: d["certificates"][0]["gradient"][0].__setitem__(1, 0),
        lambda d: d["marked_lines"][0].pop("dual"),
        lambda d: d.update(seed=[1, "x"]),
        # these used to raise a bare ValueError from tuple unpacking, and an
        # IndexError
        lambda d: d["marked_lines"][1]["o"].pop(),
        lambda d: d["marked_lines"][1]["o"].append([1, 1]),
        lambda d: d["marked_lines"][4]["dual"].pop(),
        # these used to load: int() truncated each exponent back, and the
        # later of two entries of one monomial overwrote the earlier
        lambda d: d["coefficients"][0].__setitem__(
            0, [e + 0.5 if e else e for e in d["coefficients"][0][0]]),
        lambda d: d["coefficients"].append(d["coefficients"][0]),
        # these used to load: a bool or a float equals the int it stands for
        lambda d: d["certificates"][0].update(chart=0.0),
        lambda d: d["certificates"][1].update(chart=True),
        _bool_exponent,
        lambda d: d["nodes"][0][0].__setitem__(0, True),
    ], ids=["coefficient", "node", "marked-line", "certificate", "missing-dual",
            "seed", "short-o", "long-o", "short-dual", "float-exponent",
            "duplicate-monomial", "float-chart", "bool-chart", "bool-exponent",
            "bool-numerator"])
    def test_malformed_json_is_a_value_error(self, tamper):
        data = json.loads(cb.construct_instance(1).to_json())
        tamper(data)
        with pytest.raises(ValueError, match="malformed instance file"):
            cb.ConicBundleInstance.from_json(json.dumps(data))

    def test_internal_error_is_not_resampled(self, monkeypatch):
        # construct_instance used to catch it and resample, and raise
        # GenericityError after 16 tries
        calls = []

        def broken(A, lf):
            calls.append(lf)
            raise cb.MarkedLineInvariantError("broken invariant")

        monkeypatch.setattr(cb, "residual_line", broken)
        with pytest.raises(cb.MarkedLineInvariantError, match="broken invariant"):
            cb.construct_instance(1)
        with pytest.raises(cb.MarkedLineInvariantError, match="broken invariant"):
            nt.sweep(7, 1)
        assert len(calls) == 2

    @pytest.mark.parametrize("text", ["[]", "1", '{"format": "other"}'])
    def test_other_formats_are_rejected(self, text):
        with pytest.raises(ValueError, match="unknown instance format"):
            cb.ConicBundleInstance.from_json(text)

    def test_missing_certificates_fail_before_any_replay(self, monkeypatch):
        data = json.loads(cb.construct_instance(1).to_json())
        del data["certificates"]
        replays = []

        def spy(name):
            def record(*args, **kwargs):
                replays.append(name)
                raise AssertionError(f"{name} ran")
            return record

        monkeypatch.setattr(cb, "zeta", spy("zeta"))
        monkeypatch.setattr(cb, "certify_instance", spy("certify_instance"))
        with pytest.raises(ValueError, match="malformed instance file"):
            cb.ConicBundleInstance.from_json(json.dumps(data))
        assert replays == []

    @pytest.mark.parametrize("repeat", [0, 1], ids=["four-lines", "first-twice"])
    def test_other_member_of_the_four_line_system_is_rejected(self, repeat):
        # the primitive form of the combination (-2, 4, 3, -3) of the basis
        # of the system through seed 1's first four lines passes
        # certify_instance with the first of them marked twice, where zeta
        # finds no unique member; its file with four marked lines, which
        # certify_instance refuses to write, is rejected too
        inst = cb.construct_instance(1)
        four = list(inst.marked_lines[:4])
        sys = cb.base_system(cb.STANDARD_NODES)
        for lf in four:
            sys = cb.impose_line(sys, lf)
        coeffs = primitive([sum(c * v[k] for c, v in zip((-2, 4, 3, -3), sys.vectors))
                            for k in range(36)])
        Q = MultiPoly.from_ints(XY, dict(zip(cb.XY_MONOMIALS, coeffs)))
        with pytest.raises(ValueError, match="five"):
            cb.certify_instance(Q, four, random.Random(0))
        data = json.loads(cb.certify_instance(Q, four + four[:1],
                                              random.Random(0)).to_json())
        data["marked_lines"] = data["marked_lines"][:4 + repeat]
        with pytest.raises(cb.CertificationError):
            cb.ConicBundleInstance.from_json(json.dumps(data))

    def test_rescaled_form_is_rejected(self):
        # 2Q has the same certificates up to scale, but the stored form is
        # the primitive member that zeta gives
        inst = cb.construct_instance(1)
        data = json.loads(inst.to_json())
        for _, c in data["coefficients"]:
            c[0] *= 2
        with pytest.raises(cb.CertificationError, match="unique member"):
            cb.ConicBundleInstance.from_json(json.dumps(data))

    @pytest.mark.parametrize("change", [
        lambda Q, lines: (2 * Q, lines),
        lambda Q, lines: (-Q, lines),
        lambda Q, lines: (Q * Fraction(1, 3), lines),
        lambda Q, lines: (Q, lines[:4]),
    ], ids=["twice", "negated", "third", "four-lines"])
    def test_certify_instance_takes_only_the_zeta_form(self, change):
        # each certifies up to scale or with four lines, but from_json
        # would refuse the file to_json wrote of it
        inst = cb.construct_instance(1)
        Q, lines = change(inst.Q, inst.marked_lines)
        with pytest.raises(ValueError):
            cb.certify_instance(Q, lines, random.Random(0))

    def test_reducible_member_is_a_certification_error(self):
        # l m for two (1, 1) forms vanishing at (u, u) for each standard
        # node u, three marked lines on l and two on m: zeta's unique member
        # is l m, whose det A is 0
        monomials = [ex + ey for ex in ps.monomials_of_degree(1)
                     for ey in ps.monomials_of_degree(1)]
        rows = [monomial_row(monomials, u + u) for u in cb.STANDARD_NODES]
        base = [MultiPoly.from_ints(XY, dict(zip(monomials, v)))
                for v in QMatrix.from_ints(rows).kernel()]
        assert len(base) == 5

        def member(coeffs):
            return sum((c * b for c, b in zip(coeffs, base)), MultiPoly(XY))

        def line_on(form, o):
            restricted = form.substitute({"x": o})
            return cb.LineInFiber(o, [restricted.terms.get(e, 0)
                                      for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))])

        ell, m = member((1, 2, -1, 3, 1)), member((2, -1, 1, 1, -3))
        lines = ([line_on(ell, o) for o in ((1, 2, 3), (2, -1, 1), (3, 1, -2))]
                 + [line_on(m, o) for o in ((1, -3, 2), (-2, 1, 5))])
        Q, _ = cb.zeta(lines)
        assert Q in (ell * m, -(ell * m))
        with pytest.raises(cb.DegenerateConfigurationError):
            cb.discriminant(cb.to_symmetric_matrix(Q))
        data = json.loads(cb.construct_instance(1).to_json())
        data["coefficients"] = [[list(e), [c.numerator, c.denominator]]
                                for e, c in sorted(Q.terms.items())]
        data["marked_lines"] = [
            {key: [[int(c), 1] for c in getattr(lf, key)] for key in ("o", "dual")}
            for lf in lines]
        with pytest.raises(cb.CertificationError, match="degenerate"):
            cb.ConicBundleInstance.from_json(json.dumps(data))

    def test_sweep_instances_load(self):
        # a sweep member is cut from the net by its pencil line, not by
        # zeta, and is still zeta's member through its five marked lines
        for sample in nt.sweep(7, 3)["samples"]:
            text = sample.to_json()
            assert cb.ConicBundleInstance.from_json(text).to_json() == text

    def test_determinism(self):
        a = cb.construct_instance(12)
        b = cb.construct_instance(12)
        assert a.to_json() == b.to_json()
        c = cb.construct_instance(13)
        assert c.to_json() != a.to_json()

    def test_retry_exhaustion(self):
        # a sampler that always returns the same line can never be generic
        fixed = cb.LineInFiber((Fraction(1), Fraction(0), Fraction(0)),
                               (Fraction(0), Fraction(0), Fraction(1)))
        with pytest.raises(cb.GenericityError):
            cb.construct_instance(1, line_sampler=lambda rng: fixed)


#: generators of the S4 inside GL3(Z) that permutes `STANDARD_NODES`: the
#: swap of e0 and e1, the 3-cycle e0 -> e1 -> e2 -> e0, and M, which swaps
#: e0 and (1, 1, 1) and sends e1 and e2 to their negatives
S4_GENERATORS = {
    "swap": ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    "cycle": ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    "M": ((1, 0, 0), (1, -1, 0), (1, 0, -1)),
}


def _apply(M, v):
    return tuple(sum(map(mul, row, v)) for row in M)


def _inverse_transpose(M):
    """M^-T of an integer matrix of determinant +-1: its rows are the cross
    products of the rows of M, over the determinant."""
    det = sum(map(mul, M[0], ps._cross(M[1], M[2])))
    return tuple(tuple(c // det for c in ps._cross(M[(i + 1) % 3], M[(i + 2) % 3]))
                 for i in range(3))


def _substituted(terms, N):
    """A form on the monomials of `XY_BLOCKS`, exponent tuples to ints, at
    (N x, N y): each x_i and y_i becomes the linear form of row i of N, and
    the products are expanded term by term."""
    out = {}
    for e, c in terms.items():
        poly = {(0,) * 6: c}
        for k, power in enumerate(e):
            row, block = N[k % 3], k - k % 3
            for _ in range(power):
                step = {}
                for f, v in poly.items():
                    for j, a in enumerate(row):
                        g = f[:block + j] + (f[block + j] + 1,) + f[block + j + 1:]
                        step[g] = step.get(g, 0) + a * v
                poly = step
        for f, v in poly.items():
            out[f] = out.get(f, 0) + v
    return out


class TestNodeSymmetry:
    """(x, y) -> (M x, M y), for M in the S4 that permutes the four nodes,
    maps the construction to itself: an oracle with no second
    implementation."""

    @pytest.mark.parametrize("name", S4_GENERATORS)
    def test_moved_lines_give_the_moved_instance(self, name):
        # lines go (o, dual) -> (M o, M^-T dual), Q to Q o M^-1, and the
        # fiber singular point y at a node u to M y at the node M u
        M = S4_GENERATORS[name]
        M_inv_T = _inverse_transpose(M)
        M_inv = tuple(zip(*M_inv_T))
        image_of = [next(k for k, v in enumerate(cb.STANDARD_NODES)
                         if not any(ps._cross(v, _apply(M, u))))
                    for u in cb.STANDARD_NODES]
        assert sorted(image_of) == [0, 1, 2, 3]
        for seed in range(1, 11):
            inst = cb.construct_instance(seed)
            lines = [cb.LineInFiber(_apply(M, lf.o), _apply(M_inv_T, lf.dual))
                     for lf in inst.marked_lines]
            Q, _ = cb.zeta(lines)
            moved = _substituted(inst.Q.nums, M_inv)
            assert Q.den == 1
            assert ([Q.nums.get(e, 0) for e in cb.XY_MONOMIALS]
                    == list(primitive([moved.get(e, 0) for e in cb.XY_MONOMIALS]))), seed
            image = cb.certify_instance(Q, lines, random.Random(seed))
            for k, y in zip(image_of, inst.fiber_singular_points):
                assert image.fiber_singular_points[k] == primitive(_apply(M, y)), seed


def _plane_variables():
    return [MultiPoly.from_ints(X, {unit: 1})
            for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]


#: plane cubics singular at (0:0:1), as functions of the coordinates, and
#: whether a line through (0:0:1) lies on them
NODAL_AT_ORIGIN = {
    "nodal cubic y^2 z - x^3 - x^2 z": (
        lambda x, y, z: y * y * z - x * x * x - x * x * z, False),
    "line x times conic yz - x^2 through the node": (
        lambda x, y, z: x * (y * z - x * x), True),
    "three lines x y (x + y + z)": (
        lambda x, y, z: x * y * (x + y + z), True),
    "line pair x^2 - y^2 through the node times z + x": (
        lambda x, y, z: (x * x - y * y) * (z + x), True),
}


def one_node_proof(cubic):
    """The net cubic's certificate: the completeness proof with k = 1 on
    a `MultiPoly` plane cubic, with the rng `discriminant_cubic` uses."""
    return ps.only_known_common_roots(cb._dense_form(cubic), 1, random.Random(0))


def proof_matches_the_oracle(cubic, node):
    """The proof accepts a cubic singular at node exactly when the node
    certificate finds an ordinary node and the Sylvester determinant finds
    no line through it on the cubic.  Returns the verdict."""
    verdict = one_node_proof(cubic)
    assert verdict == (node_cert(cubic, node).is_node
                       and sylvester_says_no_line(cubic, node))
    return verdict


class TestNoLineThroughNode:
    """The net cubic's certificate on cubics singular at a point: it
    accepts exactly when the point is an ordinary node and no line through
    it lies on the cubic."""

    @pytest.mark.parametrize("moved", [False, True], ids=["origin", "moved"])
    @pytest.mark.parametrize("name", list(NODAL_AT_ORIGIN))
    def test_accepts_only_without_a_line(self, name, moved):
        curve, has_line = NODAL_AT_ORIGIN[name]
        x, y, z = _plane_variables()
        if moved:
            # x -> N x with N (1, 2, 3) = (0, 0, 3) moves the node to (1:2:3)
            cubic, node = curve(2 * x - y, 3 * x - z, z), (1, 2, 3)
        else:
            cubic, node = curve(x, y, z), (0, 0, 1)
        assert node_cert(cubic, node).is_node
        assert proof_matches_the_oracle(cubic, node) is not has_line

    def test_reads_the_jet_of_its_own_cubic(self):
        # x (y^2 + x z) is singular at (0:0:1), where the line x = 0 on it
        # is tangent to the conic y^2 + x z: no node, and a line through
        # the singular point; the proof must see that from this cubic
        x, y, z = _plane_variables()
        cubic = x * (y * y + x * z)
        assert not proof_matches_the_oracle(cubic, (0, 0, 1))
        assert not sylvester_says_no_line(cubic, (0, 0, 1))


def sylvester_says_no_line(cubic, point):
    """Reference for the net cubic's certificate: the 5x5 Sylvester determinant
    of the tangent cone q and the cubic c on t_k = 0 is nonzero exactly when
    they share no root, that is, when no line through the singular point
    lies on the cubic.  The Hessian comes from `MultiPoly.partial`."""
    k = max(j for j in range(3) if point[j])
    a, b = (j for j in range(3) if j != k)
    ((name, _),) = cubic.blocks
    firsts = [cubic.partial(name, j) for j in range(3)]
    h = [[f.partial(name, j).evaluate({name: point}) for j in range(3)]
         for f in firsts]
    q = [h[a][a], 2 * h[a][b], h[b][b]]
    c = [Fraction(0)] * 4
    for e, v in cubic.terms.items():
        if e[k] == 0:
            c[3 - e[a]] = v
    return QMatrix([q + [0, 0], [0] + q + [0], [0, 0] + q,
                    c + [0], [0] + c]).det() != 0


#: z Q(x, y) + C(x, y), singular at (0:0:1) with tangent cone q ~ Q and c = C,
#: for tangent cones of three shapes, each with and without a common root of
#: Q and C: Q without x^2, Q = xy, and Q = x^2 + y^2
BRANCH_CASES = {
    "q0=0, no line": (lambda x, y: x * y + y * y,
                      lambda x, y: x * x * x + 2 * y * y * y, False),
    "q0=0, line y = -x": (lambda x, y: x * y + y * y,
                          lambda x, y: x * x * x + y * y * y, True),
    "q0=q2=0, no line": (lambda x, y: x * y,
                         lambda x, y: x * x * x + y * y * y, False),
    "q0=q2=0, line x = 0": (lambda x, y: x * y,
                            lambda x, y: x * x * x + x * x * y + x * y * y,
                            True),
    "q0=q2=0, line y = 0": (lambda x, y: x * y,
                            lambda x, y: y * y * y + x * y * y, True),
    "r1=0, r0 != 0": (lambda x, y: x * x + y * y,
                      lambda x, y: x * x * x + x * y * y + y * y * y, False),
    "r1=r0=0, lines x = +-iy": (lambda x, y: x * x + y * y,
                                lambda x, y: x * x * x + x * y * y, True),
}

small = st.integers(-2, 2)


class TestNoLineThroughNodeOracle:
    """The net cubic's certificate against the node certificate and the
    Sylvester determinant over Q, on cubics singular at (0:0:1)."""

    @pytest.mark.parametrize("name", list(BRANCH_CASES))
    def test_branches(self, name):
        quad, cub, has_line = BRANCH_CASES[name]
        x, y, z = _plane_variables()
        cubic = z * quad(x, y) + cub(x, y)
        assert node_cert(cubic, (0, 0, 1)).is_node
        assert proof_matches_the_oracle(cubic, (0, 0, 1)) is not has_line

    @settings(max_examples=150, deadline=None)
    @given(st.lists(small, min_size=3, max_size=3),
           st.lists(small, min_size=4, max_size=4))
    def test_random_singular_cubics(self, q, c):
        # every singular point, ordinary or not, including q = 0
        x, y, z = _plane_variables()
        cubic = (z * (q[0] * x * x + q[1] * x * y + q[2] * y * y)
                 + c[0] * x * x * x + c[1] * x * x * y + c[2] * x * y * y
                 + c[3] * y * y * y)
        assume(cubic.nums)
        proof_matches_the_oracle(cubic, (0, 0, 1))

    def test_every_prime_divides_the_resultant(self):
        # z xy + P x^3 + y^3 for P the product of the eight primes: an
        # ordinary node with no line through it, but mod every prime it is
        # y (xz + y^2), singular at (0:0:1) and (1:0:0), so each attempt
        # rejects and so does the proof: the cost of deciding modulo primes
        x, y, z = _plane_variables()
        cubic = z * x * y + prod(ps.WORD_PRIMES) * x * x * x + y * y * y
        assert node_cert(cubic, (0, 0, 1)).is_node
        assert sylvester_says_no_line(cubic, (0, 0, 1))
        assert not one_node_proof(cubic)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_sweep_nets(self, seed):
        report = nt.sweep(seed, 1)["cubic"]
        form, node = report["cubic"], report["node"]
        cubic = MultiPoly.from_ints(T, dict(zip(ps.monomials_of_degree(3), form)), 8)
        assert proof_matches_the_oracle(cubic, node)


def rank_one_net(rng):
    """(cubic, net): a hand-built net whose member singular at o has rank 1,
    with its cubic as a dense integer list.

    Draws again until the member singular at o is unique (the columns
    A_k o span a plane) and the cubic is not zero."""

    def draw():
        return [rng.randint(-5, 5) for _ in range(3)]

    while True:
        o, v = draw(), draw()
        b = [o[1] * v[2] - o[2] * v[1], o[2] * v[0] - o[0] * v[2],
             o[0] * v[1] - o[1] * v[0]]  # o x v, so b . o = 0
        if not any(b):
            continue
        mats = [[[b[i] * b[j] for j in range(3)] for i in range(3)]]
        oo = sum(c * c for c in o)
        for _ in range(2):
            s = [[0] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    s[i][j] = s[j][i] = rng.randint(-5, 5)
            oso = sum(o[i] * s[i][j] * o[j] for i in range(3) for j in range(3))
            mats.append([[oo * s[i][j] - oso * (i == j) for j in range(3)]
                         for i in range(3)])
        images = [[sum(r * c for r, c in zip(row, o)) for row in m] for m in mats]
        if QMatrix.from_ints(images).rank() != 2:
            continue
        # entry (i, j) of sum t_k A_k is the linear form of its coefficients
        cubic = det3_poly([[[m[i][j] for m in mats] for j in range(3)]
                           for i in range(3)])
        if not any(cubic):
            continue
        net = nt.NetT(o=primitive(o), fixed_lines=(), system=None,
                      restricted=tuple(tuple(map(tuple, m)) for m in mats))
        return cubic, net


class TestNetAndSweep:
    def test_net_dimension_and_cubic(self):
        rng = random.Random(21)
        fixed = [cb.random_line_in_fiber(rng) for _ in range(4)]
        o = cb.random_point(rng)
        net = nt.build_net_T(o, fixed)
        assert net.system.dim == 3
        ladder = cb.base_system(cb.STANDARD_NODES)
        for lf in fixed:
            ladder = cb.impose_line(ladder, lf)
        assert net.system == cb.impose_point(ladder, net.o, net.o)
        for g in net.system.basis:
            assert g.evaluate({"x": net.o, "y": net.o}) == 0
        report = nt.discriminant_cubic(net, rng)
        assert len(report["cubic"]) == 10 and any(report["cubic"])
        # "cubic" is 8 C for C = det(sum t_k A_k(o)), each A_k(o) read off
        # member k's conic over o in Fractions
        def a(g, i, j):
            conic = g.substitute({"x": net.o}).terms
            e = tuple((m == i) + (m == j) for m in range(3))
            return conic.get(e, Fraction(0)) / (1 if i == j else 2)

        assert net.restricted == tuple(
            tuple(tuple(2 * a(g, i, j) for j in range(3)) for i in range(3))
            for g in net.system.basis)
        t = [MultiPoly(T, {tuple(int(j == k) for j in range(3)): 1})
             for k in range(3)]
        M = [[sum((a(g, i, j) * tk for g, tk in zip(net.system.basis, t)),
                  MultiPoly(T)) for j in range(3)] for i in range(3)]
        C = (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
             - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
             + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
        assert C.nums
        assert MultiPoly(T, dict(zip(ps.monomials_of_degree(3),
                                     report["cubic"]))) == 8 * C
        # proved, not checked, by discriminant_cubic: t* is an ordinary
        # node of C, and the singular member has rank 2 and vertex o
        tstar = report["node"]
        assert node_cert(C, tstar).is_node
        B = QMatrix.from_ints([[sum(t * m[i][j] for t, m in zip(tstar, net.restricted))
                                for j in range(3)] for i in range(3)])
        assert B.kernel() == [net.o]

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_kernel_node_is_the_elimination_root(self, seed):
        # the node from the 3x3 kernel is the point the Q elimination finds
        report = nt.sweep(seed, 1)["cubic"]
        cubic = [Fraction(c, 8) for c in report["cubic"]]
        root = ps.find_unique_common_root(cubic, random.Random(seed))
        assert primitive(root) == report["node"]
        # Jacobi's formula, not a check, makes t* singular on the cubic
        value, grad = ps.p3_jet(report["cubic"], report["node"], 1)
        assert value == 0 and not any(grad)

    @pytest.mark.parametrize("seed", [0, 1, 2948, 10293])
    def test_pin_makes_the_draws_of_the_rational_change(self, seed):
        # discriminant_cubic draws and drops a change of coordinates in
        # ints; the rng must then stand where the draw over Q left it.
        # Seeds 2948 and 10293 draw a singular matrix first and redraw.
        rng = random.Random(21)
        fixed = [cb.random_line_in_fiber(rng) for _ in range(4)]
        net = nt.build_net_T(cb.random_point(rng), fixed)
        ours, rational = random.Random(seed), random.Random(seed)
        nt.discriminant_cubic(net, ours)
        ps._random_invertible(ps.QQ, partial(ps.QQ.random_element, rational))
        assert ([ours.getrandbits(64) for _ in range(3)]
                == [rational.getrandbits(64) for _ in range(3)])

    def test_net_with_several_members_singular_at_o_is_rejected(self):
        # three equal restrictions: every t with t1 + t2 + t3 = 0 gives the
        # zero conic, so the 3x3 kernel has dimension 2
        rng = random.Random(21)
        fixed = [cb.random_line_in_fiber(rng) for _ in range(4)]
        o = cb.random_point(rng)
        net = nt.build_net_T(o, fixed)
        same = net._replace(restricted=(net.restricted[0],) * 3)
        with pytest.raises(cb.CertificationError, match="unique member"):
            nt.discriminant_cubic(same, rng)

    def test_identically_singular_net_is_degenerate(self):
        # o = e_1 and three restrictions whose first row and column are 0:
        # every member passes through (o, o), and every member is singular
        # at o, so the determinant of the net vanishes identically;
        # discriminant_cubic reads only o and the restrictions
        net = nt.NetT(o=(1, 0, 0), fixed_lines=(), system=None,
                      restricted=tuple(((0, 0, 0), (0, a, b), (0, b, c))
                                       for a, b, c in ((1, 0, 0), (0, 1, 0),
                                                       (0, 0, 1))))
        with pytest.raises(cb.DegenerateConfigurationError,
                           match="identically singular net"):
            nt.discriminant_cubic(net, random.Random(0))

    def test_member_off_the_base_point_is_rejected(self):
        # o^T A_1(o) o != 0: the first member no longer passes through (o, o)
        rng = random.Random(21)
        fixed = [cb.random_line_in_fiber(rng) for _ in range(4)]
        o = cb.random_point(rng)
        net = nt.build_net_T(o, fixed)
        a = net.restricted[0]
        off = tuple(tuple(v + (i == j) for j, v in enumerate(row))
                    for i, row in enumerate(a))
        bad = net._replace(restricted=(off,) + net.restricted[1:])
        with pytest.raises(cb.CertificationError, match=r"misses the point"):
            nt.discriminant_cubic(bad, rng)

    @pytest.mark.parametrize("seed", range(20))
    def test_rank_one_singular_member_is_not_a_node(self, seed):
        # A_1 = b b^T with b . o = 0, and A_2, A_3 random with o^T A_k o = 0:
        # the singular member is t* = e_1, singular on the cubic by
        # construction, B = A_1 has rank 1, its Hessian minor is 0, and the
        # proof rejects it, as step 3 of discriminant_cubic says it must
        cubic, net = rank_one_net(random.Random(seed))
        value, grad = ps.p3_jet(cubic, (1, 0, 0), 1)
        assert value == 0 and not any(grad)
        cert = cb.node_certificate(cubic, 1, (1, 0, 0))
        assert not any(cert.gradient) and cert.hessian_minor == 0
        with pytest.raises(cb.CertificationError, match="not a one-nodal cubic"):
            nt.discriminant_cubic(net, random.Random(seed))

    def test_degenerate_base_point_flagged(self):
        rng = random.Random(22)
        fixed = [cb.random_line_in_fiber(rng) for _ in range(3)]
        o = (Fraction(1), Fraction(1), Fraction(0))
        # a fixed line through o in the fiber over o itself
        bad = cb.LineInFiber(o, (Fraction(1), Fraction(-1), Fraction(0)))
        with pytest.raises(cb.DegenerateConfigurationError):
            nt.build_net_T(o, fixed + [bad])

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_base_point_in_a_fixed_lines_fiber_is_not_injective(self, seed):
        # o in the fiber of the first fixed line, off that line: the cut
        # still drops by 13, but every member restricts over o to a conic
        # through o that contains the line, a space of dimension 2, so the
        # three restrictions are dependent
        rng = random.Random(seed)
        fixed = [cb.random_line_in_fiber(rng) for _ in range(4)]
        o = fixed[0].o
        assert sum(a * b for a, b in zip(fixed[0].dual, o))
        with pytest.raises(cb.NonGenericDropError,
                           match="restriction to the fiber over o is not injective"):
            nt.build_net_T(o, fixed)

    @pytest.mark.parametrize("o", [(0, 0, 0), (Fraction(0),) * 3])
    def test_zero_base_point_is_degenerate(self, o):
        # it used to raise NonGenericDropError: the zero point's row is zero
        rng = random.Random(21)
        fixed = [cb.random_line_in_fiber(rng) for _ in range(4)]
        with pytest.raises(cb.DegenerateConfigurationError, match="base point"):
            nt.build_net_T(o, fixed)

    def test_sweep_without_a_generic_net_raises(self, monkeypatch):
        # no seed in 0-399 draws 16 degenerate nets, so a stage is made to
        # fail: each retry draws a new net, and the last failure is reported
        calls = []

        def degenerate(o, fixed):
            calls.append(o)
            raise cb.NonGenericDropError("dimension dropped by 3, expected 2")

        # sweep looks its stages up in prym6.net, where it lives
        monkeypatch.setattr(nt, "build_net_T", degenerate)
        with pytest.raises(cb.GenericityError,
                           match="no generic net in 16 tries: dimension dropped"):
            nt.sweep(7, 1)
        assert len(calls) == 16

    def test_failed_pencil_line_is_resampled(self, monkeypatch):
        # the first pencil line whose member fails to certify is dropped,
        # and the sweep goes on until it holds the samples asked for
        certify, lines = cb.certify_instance, []

        def first_fails(Q, marked, rng, seed):
            lines.append(marked[-1])
            if len(lines) == 1:
                raise cb.CertificationError("first pencil member rejected")
            return certify(Q, marked, rng, seed=seed)

        monkeypatch.setattr(nt, "certify_instance", first_fails)
        samples = nt.sweep(7, 3)["samples"]
        assert len(samples) == 3 and len(lines) == 4
        assert [inst.marked_lines[4] for inst in samples] == lines[1:]
        assert lines[0] not in lines[1:]

    def test_sweep_exhausts_its_pencil_budget(self, monkeypatch):
        calls = []

        def rejected(Q, marked, rng, seed):
            calls.append(marked[-1])
            raise cb.CertificationError("every pencil member rejected")

        monkeypatch.setattr(nt, "certify_instance", rejected)
        with pytest.raises(cb.GenericityError,
                           match="pencil sampling exhausted"):
            nt.sweep(7, 1)
        assert len(calls) == 17  # _RETRIES + samples lines, each certified

    def test_sweep_shares_fixed_lines(self):
        report = nt.sweep(7, 2)
        assert report["net"].system.dim == 3
        assert len(report["samples"]) == 2
        for inst in report["samples"]:
            assert type(inst) is cb.ConicBundleInstance
            assert len(inst.node_certificates) == 4
            assert inst.marked_lines[:4] == report["net"].fixed_lines
            # the fifth marked line is the pencil line, through o in its fiber
            lf = inst.marked_lines[4]
            assert lf.o == report["net"].o
            assert sum(a * b for a, b in zip(lf.dual, lf.o)) == 0
