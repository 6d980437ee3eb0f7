"""Constructive engine for 4-nodal conic bundles in P^2 x P^2.

Builds the 16-dimensional linear system of (2,2) forms singular at four
diagonal points, cuts it down by lines in fibers to a unique member, extracts
the symmetric matrix of quadratic forms, and certifies that the discriminant
sextic is nodal exactly at the four prescribed points.  Everything is exact;
the only probabilistic ingredient is the no-extra-singularity check, which
runs modulo one large random prime (or over Q behind a flag).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, prod
from typing import Callable, Sequence

from .exactalg import MultiPoly, QMatrix, det3_poly, primitive, solve_exact
from .planesys import (GF, QQ, find_unique_common_root, monomials_of_degree,
                       only_known_common_roots, random_prime_ge_2_61)

XY_BLOCKS = (("x", 3), ("y", 3))
X_BLOCKS = (("x", 3),)
T_BLOCKS = (("t", 3),)

#: the four nodes of every discriminant sextic built here; any four general
#: points can be moved to these by a projectivity
STANDARD_NODES: tuple[tuple[Fraction, ...], ...] = tuple(
    tuple(Fraction(c) for c in pt)
    for pt in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))


class DegenerateConfigurationError(ValueError):
    """Input data violates a genericity precondition (e.g. collinear nodes)."""


class NonGenericDropError(RuntimeError):
    """A linear imposition dropped the dimension by less than expected."""


class GenericityError(RuntimeError):
    """Random resampling exhausted its retry budget."""


class CertificationError(RuntimeError):
    """An instance failed a nodality / rank / completeness certificate."""


class MarkedLineInvariantError(RuntimeError):
    """A marked line does not divide its restricted conic (internal error)."""


# -- linear systems ---------------------------------------------------------

def bidegree_monomials(bidegree: tuple[int, int]) -> tuple[tuple[int, ...], ...]:
    """Exponent 6-tuples of the monomials of a given (x, y)-bidegree."""
    return tuple(ex + ey for ex in monomials_of_degree(bidegree[0])
                 for ey in monomials_of_degree(bidegree[1]))


@dataclass(frozen=True)
class LinearSystem:
    """A linear system of fixed bidegree, stored by primitive coefficient
    vectors over its monomials."""

    bidegree: tuple[int, int]
    monomials: tuple[tuple[int, ...], ...]
    vectors: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @property
    def basis(self) -> tuple[MultiPoly, ...]:
        return tuple(MultiPoly(XY_BLOCKS, dict(zip(self.monomials, v)))
                     for v in self.vectors)


@dataclass(frozen=True)
class LineInFiber:
    """A line in the fiber {o} x P^2, stored by its dual vector."""

    o: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "o", primitive(self.o))
        object.__setattr__(self, "dual", primitive(self.dual))
        if all(c == 0 for c in self.o) or all(c == 0 for c in self.dual):
            raise DegenerateConfigurationError("zero point or zero line")

    def contains_base_point(self) -> bool:
        """Whether o itself lies on the line (sweeping-curve incidence)."""
        return sum(a * b for a, b in zip(self.dual, self.o)) == 0

    def spanning_points(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        ker = QMatrix([self.dual]).kernel()
        return ker[0], ker[1]


def _chart_index(point: Sequence[Fraction]) -> int:
    for k in range(len(point) - 1, -1, -1):
        if point[k] != 0:
            return k
    raise ValueError("zero point has no chart")


def _monomial_row(monomials, point: Sequence[Fraction],
                  d: int | None = None) -> list[Fraction]:
    """Value of each monomial, or of its partial in coordinate d, at a point.

    The point is the 6-tuple (x, y); the row is the linear condition
    "vanishes there" on coefficient vectors over the monomials.
    """
    row = []
    for exp in monomials:
        c = 1
        if d is not None:
            # d z^e = e z^(e-1); at e = 0, c is 0 and the max avoids 0^-1
            c, exp = exp[d], exp[:d] + (max(exp[d] - 1, 0),) + exp[d + 1:]
        row.append(c * prod(v ** e for v, e in zip(point, exp) if e))
    return row


def node_condition_rows(monomials, point: Sequence[Fraction],
                        order: int) -> list[list[Fraction]]:
    """Linear conditions on coefficient vectors for vanishing at (u, u).

    order 1 is plain vanishing; order 2 adds the four chart partials (the
    Euler relations make value + four partials equivalent to all six).
    """
    at = tuple(point) * 2
    rows = [_monomial_row(monomials, at)]
    if order >= 2:
        k = _chart_index(point)
        rows += [_monomial_row(monomials, at, 3 * block + j)
                 for block in (0, 1) for j in range(3) if j != k]
    return rows


def _no_three_collinear(points) -> bool:
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                d = QMatrix([pts[i], pts[j], pts[k]]).det()
                if d == 0:
                    return False
    return True


@lru_cache(maxsize=None)
def base_system(points: tuple[tuple[Fraction, ...], ...],
                bidegree: tuple[int, int] = (2, 2),
                order: int = 2) -> LinearSystem:
    """Forms of the given bidegree vanishing to the given order at (u, u).

    With bidegree (2,2) and order 2 at four general points this is the
    16-dimensional system at the heart of the construction; with bidegree
    (1,1) and order 1 it is the 5-dimensional system of the base surface.
    """
    points = tuple(tuple(Fraction(c) for c in pt) for pt in points)
    if not _no_three_collinear(points):
        raise DegenerateConfigurationError("three of the base points are collinear")
    monomials = bidegree_monomials(bidegree)
    rows = []
    for pt in points:
        rows.extend(node_condition_rows(monomials, pt, order))
    matrix = QMatrix(rows)
    rank = matrix.rank()
    if rank != len(rows):
        raise DegenerateConfigurationError(
            f"dependent point conditions: rank {rank} of {len(rows)} rows")
    return LinearSystem(bidegree, monomials, tuple(matrix.kernel()))


def line_condition_rows(monomials, lf: LineInFiber) -> list[list[Fraction]]:
    """Vanishing on {o} x line, as 3 rows of monomial values.

    A fiber conic restricted to a line is a binary quadratic, so vanishing
    at three distinct points of the line kills it.
    """
    p, q = lf.spanning_points()
    third = tuple(a + b for a, b in zip(p, q))
    return [_monomial_row(monomials, lf.o + y) for y in (p, q, third)]


def _cut(sys: LinearSystem, rows: list[list[Fraction]],
         expected_drop: int, label: str) -> LinearSystem:
    """The members of sys on which every condition row vanishes.

    The rows are restricted to the basis of sys; each kernel vector of that
    matrix gives a member, scaled to a primitive coefficient vector.

    Cutting by all rows at once gives the same basis, vector for vector, as
    cutting by groups of them in turn (as repeated `impose_line` does).
    For each free column f, `QMatrix.kernel` returns the primitive kernel
    vector that is 1 at f and 0 at the other free columns, and f is its
    last nonzero index.  The free columns of a subspace are the last
    nonzero indices of its vectors, so they and this basis depend only on
    the subspace, not on how its conditions are grouped.  A cut's basis,
    written in the coordinates of the system it was cut from, has
    increasing last nonzero indices and is 0 at the other free columns, so
    it carries the basis of a later cut to the one-step basis up to scale,
    and `primitive` removes the scale.  The drop by all rows is the sum of
    the drops by each group, and no group drops by more than its number of
    rows, so one drop check is the check of every step.
    """
    restricted = QMatrix([[sum(r * c for r, c in zip(row, vec))
                           for vec in sys.vectors] for row in rows])
    ker = restricted.kernel()
    drop = sys.dim - len(ker)
    if drop != expected_drop:
        raise NonGenericDropError(
            f"{label}: dimension dropped by {drop}, expected {expected_drop}")
    vectors = tuple(
        primitive([sum(k * v[m] for k, v in zip(kv, sys.vectors) if k)
                   for m in range(len(sys.monomials))])
        for kv in ker)
    return LinearSystem(sys.bidegree, sys.monomials, vectors)


def _line_rows(monomials, lines: Sequence[LineInFiber]) -> list[list[Fraction]]:
    return [row for lf in lines for row in line_condition_rows(monomials, lf)]


def impose_line(sys: LinearSystem, lf: LineInFiber,
                expected_drop: int = 3) -> LinearSystem:
    """Cut the system by vanishing on {o} x line (generically codim 3)."""
    if sys.dim == 0:
        raise ValueError("cannot impose conditions on the zero system")
    return _cut(sys, line_condition_rows(sys.monomials, lf),
                expected_drop, f"line in fiber over {lf.o}")


def impose_point(sys: LinearSystem, x: Sequence[Fraction], y: Sequence[Fraction],
                 expected_drop: int = 1) -> LinearSystem:
    rows = [_monomial_row(sys.monomials, tuple(x) + tuple(y))]
    return _cut(sys, rows, expected_drop, f"point ({tuple(x)}, {tuple(y)})")


def stacked_condition_matrix(points, lines: Sequence[LineInFiber],
                             bidegree=(2, 2), order: int = 2) -> QMatrix:
    """All node and line conditions as one matrix on raw coefficient vectors."""
    monomials = bidegree_monomials(bidegree)
    rows = []
    for pt in points:
        rows.extend(node_condition_rows(monomials, pt, order))
    return QMatrix(rows + _line_rows(monomials, lines))


# -- symmetric matrix and discriminant ---------------------------------------

@dataclass(frozen=True)
class SymQuadricMatrix:
    """3x3 symmetric matrix of quadratic forms in x representing a (2,2) form."""

    entries: tuple[tuple[MultiPoly, ...], ...]

    def __post_init__(self):
        for i in range(3):
            for j in range(3):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError("matrix is not symmetric")

    def evaluated(self, x: Sequence[Fraction]) -> QMatrix:
        x = tuple(x)
        return QMatrix([[e.evaluate({"x": x}) for e in row] for row in self.entries])

    def reassemble(self) -> MultiPoly:
        acc = MultiPoly.zero(XY_BLOCKS)
        for i in range(3):
            for j in range(3):
                acc = acc + MultiPoly(
                    XY_BLOCKS, {e + _Y_EXPS[i][j]: c
                                for e, c in self.entries[i][j].terms.items()})
        return acc


_Y_EXPS = [[tuple((1 if k == i else 0) + (1 if k == j else 0) for k in range(3))
            for j in range(3)] for i in range(3)]


def to_symmetric_matrix(Q: MultiPoly) -> SymQuadricMatrix:
    """Write a (2,2) form as y^T A(x) y with A symmetric."""
    if Q.multidegree() != (2, 2):
        raise ValueError("expected a form of bidegree (2, 2)")
    grids: list[list[dict]] = [[{} for _ in range(3)] for _ in range(3)]
    for exp, c in Q.terms.items():
        xexp, yexp = exp[:3], exp[3:]
        idx = [k for k in range(3) for _ in range(yexp[k])]
        i, j = idx
        if i == j:
            grids[i][j][xexp] = c
        else:
            grids[i][j][xexp] = c / 2
            grids[j][i][xexp] = c / 2
    entries = tuple(tuple(MultiPoly(X_BLOCKS, grids[i][j]) for j in range(3))
                    for i in range(3))
    A = SymQuadricMatrix(entries)
    if A.reassemble() != Q:  # reassembly identity is part of the contract
        raise AssertionError("reassembly identity failed")
    return A


def discriminant(A: SymQuadricMatrix) -> MultiPoly:
    """det A(x): the plane sextic of degenerate fibers."""
    gamma = det3_poly(A.entries)
    if gamma.is_zero():
        raise DegenerateConfigurationError("identically degenerate pencil of conics")
    return gamma


# -- certificates -------------------------------------------------------------

@dataclass(frozen=True)
class NodeCertificate:
    point: tuple[Fraction, ...]
    chart: int
    gradient: tuple[Fraction, ...]
    hessian_minor: Fraction

    @property
    def is_node(self) -> bool:
        return (all(g == 0 for g in self.gradient) and self.hessian_minor != 0)


def node_certificate(gamma: MultiPoly, point: Sequence[Fraction]) -> NodeCertificate:
    """Exact gradient and chart-Hessian data of a plane curve at a point.

    gamma is a form in a single block of three variables: x for the
    discriminant sextic, t for the discriminant cubic of a net.
    """
    ((block, _),) = gamma.blocks
    point = tuple(Fraction(c) for c in point)
    at = {block: point}
    value = gamma.evaluate(at)
    grad = tuple(gamma.partial(block, j).evaluate(at) for j in range(3))
    k = _chart_index(point)
    local = [j for j in range(3) if j != k]
    hess = [[gamma.partial(block, a).partial(block, b).evaluate(at) for b in local]
            for a in local]
    minor = hess[0][0] * hess[1][1] - hess[0][1] * hess[1][0]
    return NodeCertificate(point=point, chart=k,
                           gradient=(value,) + grad, hessian_minor=minor)


def singular_locus_is_exactly(gamma: MultiPoly, points, rng: random.Random,
                              exact: bool = False) -> bool:
    """Certify Sing(gamma) = {points}; mod a large prime unless exact."""
    partials = [gamma.partial("x", j).terms for j in range(3)]
    if exact:
        F = QQ
        polys = partials
    else:
        F = GF(random_prime_ge_2_61(rng))
        polys = [{e: F.from_rational(c) for e, c in p.items()} for p in partials]
    return only_known_common_roots(F, polys, list(points), rng)


def certify_nodes(gamma: MultiPoly, points, rng: random.Random,
                  exact_elimination: bool = False) -> tuple[NodeCertificate, ...]:
    """Nodality at each point plus the no-extra-singularity completeness check."""
    certs = []
    for pt in points:
        cert = node_certificate(gamma, pt)
        if not cert.is_node:
            raise CertificationError(f"point {tuple(pt)} is not an ordinary node")
        certs.append(cert)
    if not singular_locus_is_exactly(gamma, points, rng, exact=exact_elimination):
        raise CertificationError("singular locus has unexplained components")
    return tuple(certs)


def singular_point_on_Q(A: SymQuadricMatrix, Q: MultiPoly,
                        u: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The unique fiber point making (u, y) a singular point of Q.

    Requires rank A(u) = 2; the kernel direction y is then unique, and both
    gradient blocks of Q are verified to vanish at (u, y).
    """
    u = tuple(Fraction(c) for c in u)
    mat = A.evaluated(u)
    if mat.rank() != 2:
        raise CertificationError(f"rank A({u}) != 2")
    (y,) = mat.kernel()
    at = {"x": u, "y": y}
    for block in ("x", "y"):
        for j in range(3):
            if Q.partial(block, j).evaluate(at) != 0:
                raise CertificationError(
                    f"({u}, {y}) is a kernel point but not singular on Q")
    return y


def rational_points_on_curve(gamma: MultiPoly, nodes,
                             max_points: int = 8) -> list[tuple[Fraction, ...]]:
    """Rational points of the sextic on chords of its nodes, if any.

    On the line through two nodes the restricted binary sextic is divisible
    by the square of each node's parameter; rational roots of the residual
    quadratic give exact points on the curve.  May legitimately return [].
    """
    out: list[tuple[Fraction, ...]] = []
    nodes = [tuple(Fraction(c) for c in p) for p in nodes]
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            coeffs = _restrict_to_chord(gamma, nodes[a], nodes[b])
            if coeffs[0] != 0 or coeffs[1] != 0 or coeffs[5] != 0 or coeffs[6] != 0:
                continue  # line not as expected; skip defensively
            for s, t in _rational_roots_of_quadratic(coeffs[2], coeffs[3], coeffs[4]):
                pt = primitive(tuple(s * p + t * q
                                     for p, q in zip(nodes[a], nodes[b])))
                if pt not in out and pt not in nodes:
                    out.append(pt)
                if len(out) >= max_points:
                    return out
    return out


def _restrict_to_chord(gamma: MultiPoly, p, q) -> list[Fraction]:
    """Coefficients of gamma(s p + t q) as a binary sextic, by t-degree."""
    acc = [Fraction(0)] * 7
    for exp, c in gamma.terms.items():
        term = [c]
        for m in range(3):
            for _ in range(exp[m]):
                # multiply by (s p_m + t q_m)
                nxt = [Fraction(0)] * (len(term) + 1)
                for k, v in enumerate(term):
                    nxt[k] += v * p[m]
                    nxt[k + 1] += v * q[m]
                term = nxt
        for k, v in enumerate(term):
            acc[k] += v
    return acc


def _rational_roots_of_quadratic(a: Fraction, b: Fraction, c: Fraction):
    """Projective rational roots (s, t) of a s^2 + b s t + c t^2."""
    if a == 0 and b == 0 and c == 0:
        return []
    if a == 0:
        # t (b s + c t): roots (1, 0) and (c, -b) if b != 0
        return [(Fraction(1), Fraction(0))] + (
            [(Fraction(c), Fraction(-b))] if b != 0 else [])
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    num, den = disc.numerator, disc.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return []
    root = Fraction(rn, rd)
    return [(-b + root, 2 * a), (-b - root, 2 * a)] if root != 0 else [(-b, 2 * a)]


def rank_stratification_check(A: SymQuadricMatrix, gamma: MultiPoly, nodes,
                              rng: random.Random) -> dict:
    """Spot-check rank A = 2 on the sextic and rank 3 off it."""
    samples = rational_points_on_curve(gamma, nodes)
    on_curve = []
    for pt in samples:
        r = A.evaluated(pt).rank()
        if r != 2:
            raise CertificationError(f"rank {r} at curve point {pt}")
        on_curve.append({"point": pt, "rank": r})
    for pt in nodes:
        r = A.evaluated(pt).rank()
        if r != 2:
            raise CertificationError(f"rank {r} at node {tuple(pt)}")
    # a random point off the sextic must have rank 3
    for _ in range(16):
        pt = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
        if any(pt) and gamma.evaluate({"x": pt}) != 0:
            if A.evaluated(pt).rank() != 3:
                raise CertificationError(f"degenerate fiber off the sextic at {pt}")
            break
    else:
        raise CertificationError("no point off the sextic in 16 draws")
    return {"curve_samples": len(on_curve), "all_rank_two": True,
            "skipped": not on_curve}


# -- residual lines -----------------------------------------------------------

_Y_DEG2 = monomials_of_degree(2)


def restricted_conic(Q: MultiPoly, o: Sequence[Fraction]) -> MultiPoly:
    """Q restricted to the fiber {o} x P^2, a conic in y."""
    return Q.substitute({"x": tuple(o)})


def residual_line(Q: MultiPoly, lf: LineInFiber):
    """Split the restricted conic as (marked line) * (residual line).

    Returns (m, y) with m the residual dual vector and y the intersection
    point of the two lines; y is None in the double-line case m = line.
    """
    conic = restricted_conic(Q, lf.o)
    # conic coefficients over the 6 degree-2 monomials in y
    target = [conic.terms.get(m, Fraction(0)) for m in _Y_DEG2]
    # matrix of the multiplication map m -> (dual . y)(m . y)
    cols = []
    for k in range(3):
        prod: dict = {}
        for i in range(3):
            if lf.dual[i]:
                e = tuple((1 if a == i else 0) + (1 if a == k else 0)
                          for a in range(3))
                prod[e] = prod.get(e, Fraction(0)) + lf.dual[i]
        cols.append([prod.get(m, Fraction(0)) for m in _Y_DEG2])
    M = QMatrix([[cols[k][r] for k in range(3)] for r in range(6)])
    m = solve_exact(M, target)
    if m is None:
        raise MarkedLineInvariantError(
            "marked line does not divide the restricted conic")
    m = primitive(m)
    y = primitive(_cross(lf.dual, m))
    if all(c == 0 for c in y):
        return m, None  # double line: residual equals the marked line
    return m, y


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


# -- full instances -----------------------------------------------------------

@dataclass(frozen=True)
class ConicBundleInstance:
    nodes: tuple[tuple[Fraction, ...], ...]
    Q: MultiPoly
    A: SymQuadricMatrix
    gamma: MultiPoly
    node_certificates: tuple[NodeCertificate, ...]
    fiber_singular_points: tuple[tuple[Fraction, ...], ...]
    marked_lines: tuple[LineInFiber, ...]
    seed: int | None = None

    def to_json(self) -> str:
        def frac(v: Fraction):
            return [v.numerator, v.denominator]

        def vec(t):
            return [frac(c) for c in t]

        data = {
            "format": "conic-bundle-instance-v1",
            "seed": self.seed,
            "nodes": [vec(p) for p in self.nodes],
            "coefficients": [[list(e), frac(c)]
                             for e, c in sorted(self.Q.terms.items())],
            "marked_lines": [{"o": vec(lf.o), "dual": vec(lf.dual)}
                             for lf in self.marked_lines],
            "certificates": [
                {"point": vec(c.point), "chart": c.chart,
                 "gradient": vec(c.gradient),
                 "hessian_minor": frac(c.hessian_minor),
                 "fiber_singular_point": vec(y)}
                for c, y in zip(self.node_certificates,
                                self.fiber_singular_points)],
        }
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ConicBundleInstance":
        data = json.loads(text)
        if data.get("format") != "conic-bundle-instance-v1":
            raise ValueError("unknown instance format")

        def frac(v):
            return Fraction(v[0], v[1])

        def vec(t):
            return tuple(frac(c) for c in t)

        nodes = tuple(vec(p) for p in data["nodes"])
        Q = MultiPoly(XY_BLOCKS, {tuple(e): frac(c)
                                  for e, c in data["coefficients"]})
        lines = tuple(LineInFiber(vec(d["o"]), vec(d["dual"]))
                      for d in data["marked_lines"])
        A = to_symmetric_matrix(Q)
        gamma = discriminant(A)
        certs = tuple(
            NodeCertificate(point=vec(c["point"]), chart=c["chart"],
                            gradient=vec(c["gradient"]),
                            hessian_minor=frac(c["hessian_minor"]))
            for c in data["certificates"])
        ys = tuple(vec(c["fiber_singular_point"]) for c in data["certificates"])
        return cls(nodes=nodes, Q=Q, A=A, gamma=gamma, node_certificates=certs,
                   fiber_singular_points=ys, marked_lines=lines,
                   seed=data.get("seed"))


def random_rational(rng: random.Random, bound: int = 97) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_line_in_fiber(rng: random.Random) -> LineInFiber:
    while True:
        o = tuple(random_rational(rng) for _ in range(3))
        dual = tuple(random_rational(rng) for _ in range(3))
        if any(o) and any(dual):
            return LineInFiber(o, dual)


def zeta(lines: Sequence[LineInFiber],
         nodes=STANDARD_NODES) -> tuple[MultiPoly, LinearSystem]:
    """The unique (2,2) form through five lines in fibers, up to scale.

    One cut of the 16-dimensional base system by the 15 line rows; it gives
    the system that five `impose_line` cuts would.
    """
    if len(lines) != 5:
        raise ValueError("exactly five lines are required")
    base = base_system(tuple(tuple(p) for p in nodes))
    sys = _cut(base, _line_rows(base.monomials, lines), 15, "five lines in fibers")
    return sys.basis[0], sys


def certify_instance(Q: MultiPoly, lines, rng: random.Random,
                     nodes=STANDARD_NODES, seed: int | None = None,
                     exact_elimination: bool = False) -> ConicBundleInstance:
    """Run the whole certificate chain on a candidate (2,2) form."""
    A = to_symmetric_matrix(Q)
    gamma = discriminant(A)
    certs = certify_nodes(gamma, nodes, rng, exact_elimination=exact_elimination)
    ys = tuple(singular_point_on_Q(A, Q, pt) for pt in nodes)
    rank_stratification_check(A, gamma, nodes, rng)
    for lf in lines:
        residual_line(Q, lf)  # raises if the marked-line invariant is broken
    return ConicBundleInstance(
        nodes=tuple(tuple(Fraction(c) for c in p) for p in nodes),
        Q=Q, A=A, gamma=gamma, node_certificates=certs,
        fiber_singular_points=ys, marked_lines=tuple(lines), seed=seed)


def construct_instance(seed: int, retries: int = 16,
                       exact_elimination: bool = False,
                       line_sampler: Callable[[random.Random], LineInFiber]
                       | None = None) -> ConicBundleInstance:
    """Seeded end-to-end construction with genericity resampling."""
    rng = random.Random(seed)
    sampler = line_sampler or random_line_in_fiber
    last: Exception | None = None
    for _ in range(retries):
        lines = [sampler(rng) for _ in range(5)]
        try:
            Q, _ = zeta(lines)
            return certify_instance(Q, lines, rng, seed=seed,
                                    exact_elimination=exact_elimination)
        except (NonGenericDropError, CertificationError,
                DegenerateConfigurationError, MarkedLineInvariantError) as exc:
            last = exc
    raise GenericityError(f"no generic configuration in {retries} tries: {last}")


# -- the net of conic bundles through a point ---------------------------------

@dataclass(frozen=True)
class NetT:
    o: tuple[Fraction, ...]
    fixed_lines: tuple[LineInFiber, ...]
    system: LinearSystem
    restricted: tuple[QMatrix, ...]  # A_i(o), symmetric 3x3 over Q

    @property
    def generators(self) -> tuple[MultiPoly, ...]:
        return self.system.basis


def build_net_T(o: Sequence[Fraction], fixed_lines: Sequence[LineInFiber],
                nodes=STANDARD_NODES) -> NetT:
    """The net of members through (o, o) containing four fixed fiber lines."""
    if len(fixed_lines) != 4:
        raise ValueError("exactly four fixed lines are required")
    o = primitive(tuple(Fraction(c) for c in o))
    for lf in fixed_lines:
        if primitive(lf.o) == o and sum(a * b for a, b in zip(lf.dual, o)) == 0:
            raise DegenerateConfigurationError(
                "base point lies on a fixed line in its own fiber")
    base = base_system(tuple(tuple(p) for p in nodes))
    rows = (_line_rows(base.monomials, fixed_lines)
            + [_monomial_row(base.monomials, o + o)])
    sys = _cut(base, rows, 13, "four fixed lines and the point (o, o)")
    restricted = tuple(to_symmetric_matrix(g).evaluated(o) for g in sys.basis)
    if QMatrix([[m[i, j] for i in range(3) for j in range(i, 3)]
                for m in restricted]).rank() != 3:
        raise NonGenericDropError("restriction to the fiber over o is not injective")
    return NetT(o=o, fixed_lines=tuple(fixed_lines), system=sys,
                restricted=restricted)


def discriminant_cubic(net: NetT, rng: random.Random) -> dict:
    """det(t1 A1 + t2 A2 + t3 A3) on the fiber over o: a nodal plane cubic.

    Certifies: the cubic has exactly one singular point, that point is an
    ordinary node (so the cubic is irreducible: every reducible cubic has
    either several singular points or a worse one), and the corresponding
    rank-2 member splits as two lines through o (its vertex is o itself).
    """
    t = [MultiPoly.variable(T_BLOCKS, "t", i) for i in range(3)]
    entries = [[sum((t[k] * MultiPoly.constant(T_BLOCKS, net.restricted[k][i, j])
                     for k in range(3)), MultiPoly.zero(T_BLOCKS))
                for j in range(3)] for i in range(3)]
    cubic = det3_poly(entries)
    if cubic.is_zero():
        raise DegenerateConfigurationError("identically singular net")
    partials = [dict(cubic.partial("t", j).terms) for j in range(3)]
    tstar = find_unique_common_root(partials, rng)
    if tstar is None:
        raise CertificationError("net discriminant is not a one-nodal cubic")
    tstar = primitive(tstar)
    cert = node_certificate(cubic, tstar)
    if not cert.is_node:
        raise CertificationError("singular member of the net is not a node")
    B = QMatrix([[sum((tstar[k] * net.restricted[k][i, j] for k in range(3)),
                      Fraction(0)) for j in range(3)] for i in range(3)])
    if B.rank() != 2:
        raise CertificationError("singular net member is not a rank-2 conic")
    vertex = B.kernel()[0]
    if primitive(vertex) != primitive(net.o):
        raise CertificationError("singular conic does not split through o")
    return {"cubic": cubic, "node": tstar, "certificate": cert,
            "vertex": primitive(vertex)}


def pencil_line_through(o, rng: random.Random) -> LineInFiber:
    """A random line through o in its own fiber (the sweeping pencil)."""
    basis = QMatrix([tuple(o)]).kernel()
    while True:
        a, b = random_rational(rng), random_rational(rng)
        dual = tuple(a * u + b * v for u, v in zip(basis[0], basis[1]))
        if any(dual):
            return LineInFiber(tuple(o), dual)


def sweep(seed: int, samples: int, retries: int = 16,
          exact_elimination: bool = False) -> dict:
    """Fix four lines and o, certify the net, and sweep the pencil through o."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    last: Exception | None = None
    for _ in range(retries):
        fixed = [random_line_in_fiber(rng) for _ in range(4)]
        o = tuple(random_rational(rng) for _ in range(3))
        if not any(o):
            continue
        try:
            net = build_net_T(o, fixed)
            cubic_report = discriminant_cubic(net, rng)
            break
        except (NonGenericDropError, CertificationError,
                DegenerateConfigurationError) as exc:
            last = exc
    else:
        raise GenericityError(f"no generic net in {retries} tries: {last}")

    results = []
    attempts = 0
    while len(results) < samples:
        attempts += 1
        if attempts > retries + samples:
            raise GenericityError("pencil sampling exhausted its retry budget")
        lf = pencil_line_through(net.o, rng)
        try:
            cut = impose_line(net.system, lf, expected_drop=2)
            if cut.dim != 1:
                raise NonGenericDropError("pencil line did not single out a member")
            Q = cut.basis[0]
            inst = certify_instance(Q, list(net.fixed_lines) + [lf], rng,
                                    seed=seed,
                                    exact_elimination=exact_elimination)
            sections = []
            for j, fixed_lf in enumerate(net.fixed_lines):
                m, y = residual_line(Q, fixed_lf)
                sections.append({"index": j, "residual": m, "point": y})
            results.append({"line": lf, "instance": inst, "sections": sections})
        except (NonGenericDropError, CertificationError,
                MarkedLineInvariantError, DegenerateConfigurationError):
            continue
    return {"net": net, "cubic": cubic_report, "samples": results}


def expected_system_dimension(bidegree: tuple[int, int]) -> int:
    """Vector-space dimension of all forms of the given bidegree."""
    return comb(bidegree[0] + 2, 2) * comb(bidegree[1] + 2, 2)
