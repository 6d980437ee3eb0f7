import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prym6.exactalg import (BlockMismatchError, MultiPoly, QMatrix, det3_poly,
                            primitive, solve_exact)

XY = (("x", 3), ("y", 3))
X = (("x", 3),)


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
        z = MultiPoly.zero(XY)
        assert z.is_zero()
        c = MultiPoly.constant(XY, Fraction(3, 2))
        assert c.terms == {(0,) * 6: Fraction(3, 2)}

    def test_variable_and_partial(self):
        x1 = MultiPoly.variable(XY, "x", 0)
        assert x1.partial("x", 0) == MultiPoly.constant(XY, 1)
        assert x1.partial("x", 1).is_zero()
        assert x1.partial("y", 2).is_zero()

    def test_block_mismatch(self):
        with pytest.raises(BlockMismatchError):
            MultiPoly.zero(XY) + MultiPoly.zero(X)

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + MultiPoly.zero(XY) == a
        assert a * MultiPoly.constant(XY, 1) == a
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
        acc = MultiPoly.zero(XY)
        for i in range(3):
            acc = acc + MultiPoly.variable(XY, "x", i) * q.partial("x", i)
        assert acc == 2 * q

    def test_substitute_partial_blocks(self):
        q = (MultiPoly.variable(XY, "x", 0) * MultiPoly.variable(XY, "y", 1))
        r = q.substitute({"x": (Fraction(2), 0, 0)})
        assert r.blocks == (("y", 3),)
        assert r.terms == {(0, 1, 0): Fraction(2)}
        assert q.evaluate({"x": (2, 0, 0), "y": (0, 5, 0)}) == 10

    def test_multidegree_none_for_mixed(self):
        p = MultiPoly(XY, {(1, 0, 0, 0, 0, 0): 1, (2, 0, 0, 0, 0, 0): 1})
        assert p.multidegree() is None

    def test_coefficient_vector_roundtrip(self):
        rng = random.Random(1)
        p = rand_poly(rng)
        monos = sorted(p.terms)
        vec = p.coefficient_vector(monos)
        assert MultiPoly(XY, dict(zip(monos, vec))) == p
        with pytest.raises(ValueError):
            p.coefficient_vector(monos[:-1])


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
                     MultiPoly.zero(X))
        assert det3_poly(m) == oracle

    def test_alternating_and_multilinear(self):
        rng = random.Random(8)
        m = [[rand_poly(rng, X, 3, 2) for _ in range(3)] for _ in range(3)]
        swapped = [m[1], m[0], m[2]]
        assert det3_poly(swapped) == -1 * det3_poly(m)
        assert det3_poly([m[0], m[0], m[2]]).is_zero()
        scaled = [[3 * e for e in m[0]], m[1], m[2]]
        assert det3_poly(scaled) == 3 * det3_poly(m)


class TestQMatrix:
    def test_rank_and_kernel_dims(self):
        m = QMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert m.rank() == 2
        ker = m.kernel()
        assert len(ker) == 1
        for row in m.entries:
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

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(small_fracs, min_size=4, max_size=4),
                    min_size=2, max_size=5))
    def test_rank_nullity(self, rows):
        m = QMatrix(rows)
        assert m.rank() + len(m.kernel()) == m.cols

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
