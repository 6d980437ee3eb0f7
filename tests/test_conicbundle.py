import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prym6 import conicbundle as cb
from prym6 import planesys as ps
from prym6.exactalg import MultiPoly, QMatrix, det3_poly, primitive

XY = cb.XY_BLOCKS
X = cb.X_BLOCKS


fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)
coords = st.one_of(st.just(Fraction(0)), fracs)


def var(block, i):
    """The coordinate x_i or y_i as a form on P^2 x P^2."""
    k = i + (3 if block == "y" else 0)
    return MultiPoly.from_ints(XY, {tuple(int(j == k) for j in range(6)): 1})


def entry(m, i, j):
    """The entry (i, j) of a QMatrix."""
    return Fraction(m.nums[i][j], m.dens[i])


def lines_for(seed):
    rng = random.Random(seed)
    return [cb.random_line_in_fiber(rng) for _ in range(5)], rng


class TestBaseSystem:
    def test_standard_dimension_sixteen(self):
        sys = cb.base_system(cb.STANDARD_NODES)
        assert sys.dim == 16
        assert sys.bidegree == (2, 2)
        assert len(sys.monomials) == 36

    def test_bidegree_one_one_analog(self):
        sys = cb.base_system(cb.STANDARD_NODES, (1, 1), 1)
        assert sys.dim == 5

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
        bad = (cb.STANDARD_NODES[0], cb.STANDARD_NODES[1],
               (Fraction(1), Fraction(1), Fraction(0)),
               cb.STANDARD_NODES[3])
        with pytest.raises(cb.DegenerateConfigurationError):
            cb.base_system(bad)


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


class TestLineConditionRows:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(integer_lines, rational_lines))
    def test_matches_monomial_row(self, data):
        o, dual = data[:3], data[3:]
        assume(any(o) and any(dual))
        lf = cb.LineInFiber(o, dual)
        monomials = cb.bidegree_monomials((2, 2))
        p, q = lf.spanning_points()
        third = tuple(a + b for a, b in zip(p, q))
        assert cb.line_condition_rows(monomials, lf) == [
            cb._monomial_row(monomials, tuple(lf.o) + tuple(y))
            for y in (p, q, third)]


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


def stacked_condition_matrix(points, lines):
    """All (2,2) node and line conditions as one matrix on raw coefficient
    vectors: the route to the unique member that `zeta`'s cut of the base
    system replaces, kept as its independent oracle."""
    monomials = cb.bidegree_monomials((2, 2))
    rows = []
    for pt in points:
        rows.extend(cb.node_condition_rows(monomials, pt, 2))
    for lf in lines:
        rows.extend(cb.line_condition_rows(monomials, lf))
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
        monos = cb.bidegree_monomials((2, 2))
        assert set(Q.nums) <= set(monos)
        assert primitive([Q.coeffs.get(m, 0) for m in monos]) in (
            ker[0], tuple(-v for v in ker[0]))

    def test_membership_of_marked_lines(self):
        lines, _ = lines_for(105)
        Q, _ = cb.zeta(lines)
        for lf in lines:
            p, q = lf.spanning_points()
            for t in range(4):
                y = tuple(a + t * b for a, b in zip(p, q))
                assert Q.evaluate({"x": lf.o, "y": y}) == 0

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
        x1sq_half = MultiPoly(X, {(2, 0, 0): Fraction(1, 2)})
        assert A.entries[0][1] == x1sq_half
        assert A.entries[1][0] == x1sq_half
        assert A.entries[2][2].is_zero()

    def test_diagonal_form(self):
        Q = sum((var("x", i) * var("x", i) * var("y", i) * var("y", i)
                 for i in range(3)), MultiPoly(XY))
        A = cb.to_symmetric_matrix(Q)
        for i in range(3):
            assert A.entries[i][i] == MultiPoly(
                X, {tuple(2 if k == i else 0 for k in range(3)): 1})
        gamma = cb.discriminant(A)
        assert gamma == MultiPoly(X, {(2, 2, 2): Fraction(1)})

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.sampled_from(cb.bidegree_monomials((2, 2))),
                           fracs, min_size=1, max_size=12),
           st.tuples(coords, coords, coords), st.tuples(coords, coords, coords))
    def test_evaluated_matches_entrywise_evaluate(self, terms, x, y):
        # forms and points with denominators and zero coordinates
        Q = MultiPoly(XY, terms)
        A = cb.to_symmetric_matrix(Q)
        at = {"x": x}
        values = [[e.evaluate(at) for e in row] for row in A.entries]
        # the same integer rows and row denominators, as NetT.restricted
        # hands them on
        assert A.evaluated(x) == QMatrix(values)
        # the defining identity Q(x, y) = y^T A(x) y
        Ax = A.evaluated(x)
        assert sum(y[i] * entry(Ax, i, j) * y[j] for i in range(3) for j in range(3)) \
            == Q.evaluate({"x": x, "y": y})

    def test_rejects_wrong_bidegree(self):
        with pytest.raises(ValueError):
            cb.to_symmetric_matrix(var("x", 0) * var("y", 0))


class TestDiscriminant:
    def test_zeta_instance_sextic_vanishing_at_nodes(self):
        lines, _ = lines_for(108)
        Q, _ = cb.zeta(lines)
        gamma = cb.discriminant(cb.to_symmetric_matrix(Q))
        assert gamma.multidegree() == (6,)
        for u in cb.STANDARD_NODES:
            assert gamma.evaluate({"x": u}) == 0

    def test_reducible_factor_oracle(self):
        # Q = l(x) * K(x, y) with K of bidegree (1, 2) forces det A = l^3 det B
        rng = random.Random(9)
        ell = var("x", 0) + 2 * var("x", 1)
        kterms = {}
        for xe in cb.bidegree_monomials((1, 0)):
            for ye in cb.bidegree_monomials((0, 2)):
                exp = tuple(a + b for a, b in zip(xe, ye))
                kterms[exp] = Fraction(rng.randint(-5, 5))
        K = MultiPoly(XY, kterms)
        Q = ell * K
        gamma = cb.discriminant(cb.to_symmetric_matrix(Q))
        # independent assembly of the linear symmetric matrix of K
        b = [[MultiPoly(X) for _ in range(3)] for _ in range(3)]
        for exp, c in K.terms.items():
            xe, ye = exp[:3], exp[3:]
            idx = [k for k in range(3) for _ in range(ye[k])]
            i, j = idx
            if i == j:
                b[i][i] = b[i][i] + MultiPoly(X, {xe: c})
            else:
                b[i][j] = b[i][j] + MultiPoly(X, {xe: c / 2})
                b[j][i] = b[j][i] + MultiPoly(X, {xe: c / 2})
        ell_x = MultiPoly(X, {(1, 0, 0): 1, (0, 1, 0): 2})
        assert gamma == ell_x * ell_x * ell_x * det3_poly(b)

    def test_identically_zero_rejected(self):
        zero = cb.SymQuadricMatrix(tuple(
            tuple(MultiPoly(X) for _ in range(3)) for _ in range(3)))
        with pytest.raises(cb.DegenerateConfigurationError):
            cb.discriminant(zero)


class TestNodeCertificates:
    def test_zeta_instance_nodes(self):
        lines, rng = lines_for(109)
        Q, _ = cb.zeta(lines)
        gamma = cb.discriminant(cb.to_symmetric_matrix(Q))
        certs = cb.certify_nodes(gamma, cb.STANDARD_NODES, rng)
        assert len(certs) == 4
        for cert in certs:
            assert cert.is_node
            assert all(g == 0 for g in cert.gradient)
            assert cert.hessian_minor != 0

    def test_smooth_point_fails_gradient(self):
        gamma = MultiPoly(X, {(2, 2, 2): Fraction(1)})  # x^2 y^2 z^2
        cert = cb.node_certificate(gamma, (1, 1, 1))
        assert not cert.is_node
        assert any(g != 0 for g in cert.gradient)

    def test_cusp_pattern_fails_hessian(self):
        # x2^2 x3^4 - x1^3 x3^3: gradient vanishes at (1:0:0) but the chart
        # Hessian is identically zero there (worse-than-nodal singularity)
        gamma = MultiPoly(X, {(0, 2, 4): Fraction(1), (3, 0, 3): Fraction(-1)})
        cert = cb.node_certificate(gamma, (1, 0, 0))
        assert all(g == 0 for g in cert.gradient)
        assert cert.hessian_minor == 0
        assert not cert.is_node
        with pytest.raises(cb.CertificationError):
            cb.certify_nodes(gamma, [(Fraction(1), Fraction(0), Fraction(0))],
                             random.Random(0))

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

    def test_repeated_or_zero_point_is_rejected(self):
        # either would make up the count of four with a node left unlisted
        gamma, pts = self.two_conics()
        for fourth in (tuple(2 * c for c in pts[0]), (Fraction(0),) * 3):
            assert not cb.singular_locus_is_exactly(
                gamma, pts[:3] + [fourth], random.Random(2), exact=True)

    @staticmethod
    def fifth_node_member(coeffs):
        """A member of the 12-dimensional system singular at the four
        standard nodes and at (1:2:3), cut by three lines in fibers."""
        fifth = (Fraction(1), Fraction(2), Fraction(3))
        monomials = cb.bidegree_monomials((2, 2))
        rows = [row for pt in cb.STANDARD_NODES + (fifth,)
                for row in cb.node_condition_rows(monomials, pt, 2)]
        kernel = QMatrix(rows).kernel()
        assert len(rows) == 25 and len(kernel) == 12
        sys = cb.LinearSystem((2, 2), monomials, tuple(kernel))
        rng = random.Random(5)
        for _ in range(3):
            sys = cb.impose_line(sys, cb.random_line_in_fiber(rng))
        Q = sum((c * b for c, b in zip(coeffs, sys.basis)), MultiPoly(XY))
        return cb.discriminant(cb.to_symmetric_matrix(Q)), cb.STANDARD_NODES + (fifth,)

    def test_unlisted_fifth_node_is_rejected(self):
        gamma, nodes = self.fifth_node_member((1, 2, -3))
        assert all(cb.node_certificate(gamma, pt).is_node for pt in nodes)
        assert not cb.singular_locus_is_exactly(gamma, nodes[:4], random.Random(0))
        assert cb.singular_locus_is_exactly(gamma, nodes, random.Random(0))

    def test_listed_non_node_is_rejected(self):
        # (0:0:1) is singular on the first basis member but not an ordinary
        # node, so its Tjurina number exceeds 1 and the count exceeds five
        gamma, nodes = self.fifth_node_member((1, 0, 0))
        cert = cb.node_certificate(gamma, nodes[2])
        assert all(g == 0 for g in cert.gradient) and not cert.is_node
        assert not cb.singular_locus_is_exactly(gamma, nodes, random.Random(0))


class TestSingularPointOnQ:
    def test_unique_fiber_point(self):
        lines, _ = lines_for(111)
        Q, _ = cb.zeta(lines)
        A = cb.to_symmetric_matrix(Q)
        for u in cb.STANDARD_NODES:
            y = cb.singular_point_on_Q(A, Q, u)
            assert A.evaluated(u).rank() == 2
            assert Q.evaluate({"x": u, "y": y}) == 0

    def test_smooth_curve_point_is_not_singular_on_Q(self):
        # a point of seed 132's sextic on the chord of the nodes (1:0:0)
        # and (0:1:0): rank 2 there, but its kernel point is smooth on Q
        lines, _ = lines_for(132)
        Q, _ = cb.zeta(lines)
        A = cb.to_symmetric_matrix(Q)
        gamma = cb.discriminant(A)
        pt = (Fraction(117), Fraction(230), Fraction(0))
        assert gamma.evaluate({"x": pt}) == 0
        assert A.evaluated(pt).rank() == 2
        with pytest.raises(cb.CertificationError):
            cb.singular_point_on_Q(A, Q, pt)


class TestRankStratification:
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
            cb.rank_stratification_check(A, gamma, ZeroRng())

    def test_generic_point_rank_three(self):
        lines, _ = lines_for(114)
        Q, _ = cb.zeta(lines)
        A = cb.to_symmetric_matrix(Q)
        gamma = cb.discriminant(A)
        pt = (Fraction(1), Fraction(2), Fraction(5))
        assert gamma.evaluate({"x": pt}) != 0
        assert A.evaluated(pt).rank() == 3


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

    @pytest.mark.parametrize("tamper", [
        lambda d: d["certificates"][0].update(hessian_minor=[1, 1]),
        lambda d: d["certificates"][2]["gradient"][1].__setitem__(0, 1),
        lambda d: d["certificates"][1].update(chart=0),
        lambda d: d["nodes"].__setitem__(0, [[5, 1], [7, 1], [11, 1]]),
        lambda d: d["certificates"][0].update(point=[[5, 1], [7, 1], [11, 1]]),
        lambda d: d["certificates"][3]["fiber_singular_point"][0].__setitem__(0, 7),
        lambda d: d["certificates"].pop(),
        lambda d: d["marked_lines"][2]["dual"][0].__setitem__(0, 1234),
        lambda d: d["coefficients"][0][1].__setitem__(
            0, d["coefficients"][0][1][0] + 1),
    ], ids=["minor", "gradient", "chart", "node", "point", "fiber-point",
            "missing", "marked-line", "coefficient"])
    def test_tampered_json_is_rejected(self, tamper):
        data = json.loads(cb.construct_instance(1).to_json())
        tamper(data)
        with pytest.raises(cb.CertificationError):
            cb.ConicBundleInstance.from_json(json.dumps(data))

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


class TestNoLineThroughNode:
    """The uniqueness step of the net cubic's certificate: it accepts
    exactly when no line through the node lies on the cubic."""

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
        cert = cb.node_certificate(cubic, node)
        assert cert.is_node
        assert cb.no_line_through_node(cubic, cert) is not has_line

    def test_needs_a_singular_point(self):
        x, y, z = _plane_variables()
        cubic = y * y * z - x * x * x - x * x * z
        with pytest.raises(ValueError):
            cb.no_line_through_node(cubic, cb.node_certificate(cubic, (0, 1, 0)))


def sylvester_says_no_line(cubic, node):
    """Reference for `no_line_through_node`: the 5x5 Sylvester determinant
    of the tangent cone q and the cubic c on t_k = 0 is nonzero exactly when
    they share no root, that is, when no line through the node lies on the
    cubic."""
    k = node.chart
    a, b = (j for j in range(3) if j != k)
    h = node.hessian
    q = [h[a][a], 2 * h[a][b], h[b][b]]
    c = [Fraction(0)] * 4
    for e, v in cubic.terms.items():
        if e[k] == 0:
            c[3 - e[a]] = v
    return QMatrix([q + [0, 0], [0] + q + [0], [0, 0] + q,
                    c + [0], [0] + c]).det() != 0


#: z Q(x, y) + C(x, y), singular at (0:0:1) with tangent cone q ~ Q and c = C,
#: for the branches of the check: Q without x^2 (q0 = 0), Q = xy (q0 = q2 = 0),
#: and Q = x^2 + y^2 with k0 = k2 (remainder r1 = 0)
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
    """The integer check of `no_line_through_node` against the Sylvester
    determinant it replaced."""

    @pytest.mark.parametrize("name", list(BRANCH_CASES))
    def test_branches(self, name):
        quad, cub, has_line = BRANCH_CASES[name]
        x, y, z = _plane_variables()
        cubic = z * quad(x, y) + cub(x, y)
        cert = cb.node_certificate(cubic, (0, 0, 1))
        assert cert.is_node
        verdict = cb.no_line_through_node(cubic, cert)
        assert verdict is not has_line
        assert verdict == sylvester_says_no_line(cubic, cert)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(small, min_size=3, max_size=3),
           st.lists(small, min_size=4, max_size=4))
    def test_random_singular_cubics(self, q, c):
        # every singular point, ordinary or not, including q = 0
        x, y, z = _plane_variables()
        cubic = (z * (q[0] * x * x + q[1] * x * y + q[2] * y * y)
                 + c[0] * x * x * x + c[1] * x * x * y + c[2] * x * y * y
                 + c[3] * y * y * y)
        assume(not cubic.is_zero())
        cert = cb.node_certificate(cubic, (0, 0, 1))
        assert (cb.no_line_through_node(cubic, cert)
                == sylvester_says_no_line(cubic, cert))

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_sweep_nets(self, seed):
        report = cb.sweep(seed, 1)["cubic"]
        cubic, cert = report["cubic"], report["certificate"]
        assert cb.no_line_through_node(cubic, cert)
        assert sylvester_says_no_line(cubic, cert)


def rank_one_net(rng):
    """(cubic, net): a hand-built net whose member singular at o has rank 1.

    Draws again until the member singular at o is unique (the columns
    A_k o span a plane) and the cubic is not zero."""
    t = [MultiPoly.from_ints(cb.T_BLOCKS, {unit: 1})
         for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]

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
        cubic = det3_poly([[sum((t[k] * mats[k][i][j] for k in range(3)),
                                MultiPoly(cb.T_BLOCKS))
                            for j in range(3)] for i in range(3)])
        if cubic.is_zero():
            continue
        net = cb.NetT(o=primitive(o), fixed_lines=(), system=None,
                      restricted=tuple(QMatrix.from_ints(m) for m in mats))
        return cubic, net


class TestNetAndSweep:
    def test_net_dimension_and_cubic(self):
        rng = random.Random(21)
        fixed = [cb.random_line_in_fiber(rng) for _ in range(4)]
        o = tuple(cb.random_rational(rng) for _ in range(3))
        net = cb.build_net_T(o, fixed)
        assert net.system.dim == 3
        ladder = cb.base_system(cb.STANDARD_NODES)
        for lf in fixed:
            ladder = cb.impose_line(ladder, lf)
        assert net.system == cb.impose_point(ladder, net.o, net.o)
        for g in net.system.basis:
            assert g.evaluate({"x": net.o, "y": net.o}) == 0
        report = cb.discriminant_cubic(net, rng)
        assert report["cubic"].multidegree() == (3,)
        assert report["certificate"].is_node
        # proved, not checked, by discriminant_cubic: the singular member
        # has rank 2 and vertex o
        B = QMatrix([[sum(t * entry(m, i, j) for t, m in zip(report["node"],
                                                            net.restricted))
                      for j in range(3)] for i in range(3)])
        assert B.kernel() == [net.o]

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_kernel_node_is_the_elimination_root(self, seed):
        # the node from the 3x3 kernel is the point the Q elimination finds
        report = cb.sweep(seed, 1)["cubic"]
        root = ps.find_unique_common_root(report["cubic"].terms,
                                          random.Random(seed))
        assert primitive(root) == report["node"]

    def test_net_with_several_members_singular_at_o_is_rejected(self):
        # three equal restrictions: every t with t1 + t2 + t3 = 0 gives the
        # zero conic, so the 3x3 kernel has dimension 2
        rng = random.Random(21)
        fixed = [cb.random_line_in_fiber(rng) for _ in range(4)]
        o = tuple(cb.random_rational(rng) for _ in range(3))
        net = cb.build_net_T(o, fixed)
        same = dataclasses.replace(net, restricted=(net.restricted[0],) * 3)
        with pytest.raises(cb.CertificationError, match="unique member"):
            cb.discriminant_cubic(same, rng)

    def test_member_off_the_base_point_is_rejected(self):
        # o^T A_1(o) o != 0: the first member no longer passes through (o, o)
        rng = random.Random(21)
        fixed = [cb.random_line_in_fiber(rng) for _ in range(4)]
        o = tuple(cb.random_rational(rng) for _ in range(3))
        net = cb.build_net_T(o, fixed)
        a = net.restricted[0]
        off = QMatrix([[entry(a, i, j) + (i == j) for j in range(3)]
                       for i in range(3)])
        bad = dataclasses.replace(net, restricted=(off,) + net.restricted[1:])
        with pytest.raises(cb.CertificationError, match=r"misses the point"):
            cb.discriminant_cubic(bad, rng)

    @pytest.mark.parametrize("seed", range(20))
    def test_rank_one_singular_member_is_not_a_node(self, seed):
        # A_1 = b b^T with b . o = 0, and A_2, A_3 random with o^T A_k o = 0:
        # the singular member is t* = e_1, B = A_1 has rank 1, and the node
        # certificate rejects it, as the proof of step 4 says it must
        cubic, net = rank_one_net(random.Random(seed))
        cert = cb.node_certificate(cubic, (1, 0, 0))
        assert not any(cert.gradient) and cert.hessian_minor == 0
        with pytest.raises(cb.CertificationError, match="not a node"):
            cb.discriminant_cubic(net, random.Random(seed))

    def test_degenerate_base_point_flagged(self):
        rng = random.Random(22)
        fixed = [cb.random_line_in_fiber(rng) for _ in range(3)]
        o = (Fraction(1), Fraction(1), Fraction(0))
        # a fixed line through o in the fiber over o itself
        bad = cb.LineInFiber(o, (Fraction(1), Fraction(-1), Fraction(0)))
        with pytest.raises(cb.DegenerateConfigurationError):
            cb.build_net_T(o, fixed + [bad])

    def test_sweep_shares_fixed_lines(self):
        report = cb.sweep(7, 2)
        assert report["net"].system.dim == 3
        assert len(report["samples"]) == 2
        for s in report["samples"]:
            inst = s["instance"]
            assert len(inst.node_certificates) == 4
            assert inst.marked_lines[:4] == report["net"].fixed_lines
            lf = s["line"]
            assert sum(a * b for a, b in zip(lf.dual, lf.o)) == 0
            assert len(s["sections"]) == 4
