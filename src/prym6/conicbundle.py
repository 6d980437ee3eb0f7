"""Constructive engine for 4-nodal conic bundles in P^2 x P^2.

Builds the 16-dimensional linear system of (2,2) forms singular at four
diagonal points, cuts it down by lines in fibers to a unique member, extracts
the symmetric matrix of quadratic forms, and certifies that the discriminant
sextic is nodal exactly at the four prescribed points.  Everything is exact;
the no-extra-singularity proof runs modulo half-word primes, one per
attempt, and is sound for every prime.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .exactalg import MultiPoly, QMatrix, det3_poly, primitive
from .planesys import (QQ, _cross, _random_invertible, monomials_of_degree,
                       only_known_common_roots, p3_degree, p3_jet, p3_weights)

XY_BLOCKS = (("x", 3), ("y", 3))
X_BLOCKS = (("x", 3),)

#: the exponents of the six quadratic monomials in one block of three
_DEG2 = monomials_of_degree(2)

#: exponent 6-tuples of the 36 monomials of bidegree (2, 2), x-major: their
#: values at (x, y) are the outer product of `p3_weights` at x and at y
XY_MONOMIALS = tuple(ex + ey for ex in _DEG2 for ey in _DEG2)

#: the four nodes of every discriminant sextic built here; any four general
#: points can be moved to these by a projectivity
STANDARD_NODES = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))

#: random configurations `construct_instance` and `sweep` draw before they
#: give up with `GenericityError`
_RETRIES = 16


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

class LinearSystem(NamedTuple):
    """A linear system of (2,2) forms, stored by primitive integer
    coefficient vectors over `XY_MONOMIALS`."""

    vectors: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @property
    def basis(self) -> tuple[MultiPoly, ...]:
        return tuple(MultiPoly.from_ints(XY_BLOCKS, dict(zip(XY_MONOMIALS, v)))
                     for v in self.vectors)


class _LineInFiber(NamedTuple):
    o: tuple[int, ...]
    dual: tuple[int, ...]


class LineInFiber(_LineInFiber):
    """A line in the fiber {o} x P^2, stored by its dual vector.

    Both vectors are stored scaled to primitive integer vectors.  A vector
    of other than 3 entries raises ValueError, a zero one
    `DegenerateConfigurationError`.
    """

    __slots__ = ()

    def __new__(cls, o, dual):
        if len(o) != 3 or len(dual) != 3:
            raise ValueError("a line in a fiber needs o and dual of 3 entries")
        o, dual = primitive(o), primitive(dual)
        if all(c == 0 for c in o) or all(c == 0 for c in dual):
            raise DegenerateConfigurationError("zero point or zero line")
        return super().__new__(cls, o, dual)


def _plane_basis(v: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A basis of the plane orthogonal to a nonzero integer triple v: the
    vectors that `QMatrix.kernel` gives for the one row v, in closed form.

    With p the first nonzero index of v, the row's one pivot is at p and
    each other index f is a free column, in increasing order.  The kernel
    vector of f is v_p e_f - v_f e_p, scaled to its `primitive` form.
    """
    p = next((k for k in range(3) if v[k]), None)
    if p is None:
        raise ValueError("the zero vector has no orthogonal plane")
    basis = []
    for f in range(3):
        if f != p:
            x = [0, 0, 0]
            x[f], x[p] = v[p], -v[f]
            basis.append(primitive(x))
    return basis[0], basis[1]


def _chart_index(point: Sequence[int]) -> int:
    for k in range(len(point) - 1, -1, -1):
        if point[k] != 0:
            return k
    raise ValueError("zero point has no chart")


def node_condition_rows(point: Sequence[int | Fraction]) -> list[list[int]]:
    """Rows over `XY_MONOMIALS` for vanishing to order 2 at (u, u), with u
    scaled to a primitive integer vector: the value and the four chart
    partials, in x and then in y (the Euler relations make value + four
    partials equivalent to all six).
    """
    P = primitive(point)
    T, k = p3_weights(P, 2), _chart_index(P)
    partials = [p3_weights(P, 2, d) for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
                if not d[k]]
    tables = [(T, T)] + [(D, T) for D in partials] + [(T, D) for D in partials]
    return [[u * v for u in U for v in V] for U, V in tables]


@lru_cache(maxsize=None)
def base_system(points: tuple[tuple[int | Fraction, ...], ...]) -> LinearSystem:
    """(2,2) forms vanishing to order 2 at (u, u) for each of the points:
    at four general points, the 16-dimensional system at the heart of the
    construction.  No points, or a point of other than 3 entries, raise
    ValueError."""
    if not points:
        raise ValueError("a base system needs at least one point")
    if any(len(pt) != 3 for pt in points):
        raise ValueError("a base point needs 3 entries")
    points = [primitive(pt) for pt in points]
    if not all(sum(map(mul, a, _cross(b, c)))
               for a, b, c in combinations(points, 3)):
        raise DegenerateConfigurationError("three of the base points are collinear")
    rows = []
    for pt in points:
        rows.extend(node_condition_rows(pt))
    kernel = QMatrix.from_ints(rows).kernel()
    rank = len(rows[0]) - len(kernel)  # rank-nullity: one elimination
    if rank != len(rows):
        raise DegenerateConfigurationError(
            f"dependent point conditions: rank {rank} of {len(rows)} rows")
    return LinearSystem(tuple(kernel))


def line_condition_rows(lf: LineInFiber) -> list[list[int]]:
    """Vanishing on {o} x line, as 3 rows of monomial values.

    A fiber conic restricted to a line is a binary quadratic, so vanishing
    at three distinct points of the line kills it.  Each row is the outer
    product of one table at o and one at a point y of the line, both
    primitive integer vectors.
    """
    p, q = _plane_basis(lf.dual)
    X = p3_weights(lf.o, 2)
    tables = [p3_weights(y, 2)
              for y in (p, q, primitive([a + b for a, b in zip(p, q)]))]
    return [[u * v for u in X for v in Y] for Y in tables]


def _cut(sys: LinearSystem, rows: list[list[int]],
         expected_drop: int, label: str) -> LinearSystem:
    """The members of sys on which every condition row vanishes; the zero
    system raises ValueError.

    The integer rows are restricted to the primitive integer basis of sys;
    each kernel vector of that matrix gives a member, combined in integers
    and scaled to a primitive coefficient vector.  A row scaled by a nonzero
    factor (as the condition rows scale their points) spans the same row space,
    so it leaves the kernel, and with it the cut, unchanged.

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
    if sys.dim == 0:
        raise ValueError("cannot impose conditions on the zero system")
    # (monomial, basis vector, coefficient) of each nonzero basis entry: the
    # basis is sparse, and one flat loop over it restricts a row or
    # combines a kernel vector
    terms = [(i, k, v) for k, vec in enumerate(sys.vectors)
             for i, v in enumerate(vec) if v]
    restricted = []
    for row in rows:
        acc = [0] * sys.dim
        for i, k, v in terms:
            acc[k] += row[i] * v
        restricted.append(acc)
    ker = QMatrix.from_ints(restricted).kernel()
    drop = sys.dim - len(ker)
    if drop != expected_drop:
        raise NonGenericDropError(
            f"{label}: dimension dropped by {drop}, expected {expected_drop}")
    vectors = []
    for kv in ker:
        acc = [0] * len(XY_MONOMIALS)
        for i, k, v in terms:
            acc[i] += kv[k] * v
        vectors.append(primitive(acc))
    return LinearSystem(tuple(vectors))


def _line_rows(lines: Sequence[LineInFiber]) -> list[list[int]]:
    return [row for lf in lines for row in line_condition_rows(lf)]


def impose_line(sys: LinearSystem, lf: LineInFiber,
                expected_drop: int = 3) -> LinearSystem:
    """Cut the system by vanishing on {o} x line (generically codim 3)."""
    return _cut(sys, line_condition_rows(lf),
                expected_drop, f"line in fiber over {lf.o}")


def impose_point(sys: LinearSystem, x: Sequence[int | Fraction],
                 y: Sequence[int | Fraction]) -> LinearSystem:
    """Cut the system by vanishing at the point (x, y) (codim 1); a block
    of other than 3 coordinates, or of zeros, raises."""
    x, y = tuple(x), tuple(y)
    if len(x) != 3 or len(y) != 3:
        raise ValueError(f"({x}, {y}) is not a point of P^2 x P^2")
    if not any(x) or not any(y):
        raise DegenerateConfigurationError(f"zero coordinates in ({x}, {y})")
    X, Y = p3_weights(primitive(x), 2), p3_weights(primitive(y), 2)
    return _cut(sys, [[u * v for u in X for v in Y]], 1, f"point ({x}, {y})")


# -- symmetric matrix and discriminant ---------------------------------------

#: exponent of x^e y_i y_j (i <= j) -> ((i, j), index of e in `_DEG2`, factor)
_SYM_POSITIONS = {ex + tuple((m == i) + (m == j) for m in range(3)):
                  ((i, j), k, 2 if i == j else 1) for k, ex in enumerate(_DEG2)
                  for i in range(3) for j in range(i, 3)}


class SymQuadricMatrix(NamedTuple):
    """3x3 symmetric matrix of quadratic forms in x representing a (2,2) form.

    Entry (i, j) is entries[i][j] / den: six integer coefficients on `_DEG2`,
    the `planesys` layout of a plane curve; entries (i, j) and (j, i) are equal.
    """

    entries: tuple[tuple[tuple[int, ...], ...], ...]
    den: int

    def evaluated(self, x: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """den * A(x) at an int point x, as int rows (any other coordinate
        raises TypeError): each entry N / den gives N(x), one dot product
        with a table, taken once for each of the six entries on and above
        the diagonal."""
        if any(type(c) is not int for c in x):
            raise TypeError("A(x) takes a point of int coordinates")
        table = p3_weights(x, 2)
        (a00, a01, a02), (a11, a12), (a22,) = (
            [sum(map(mul, entry, table)) for entry in row[i:]]
            for i, row in enumerate(self.entries))
        return (a00, a01, a02), (a01, a11, a12), (a02, a12, a22)


def to_symmetric_matrix(Q: MultiPoly) -> SymQuadricMatrix:
    """Write a (2,2) form as y^T A(x) y with A symmetric.

    With Q = N / D, the coefficient c of x^e y_i y_j goes to A_ii as
    2 N_e / 2D when i = j, and to A_ij and A_ji as N_e / 2D otherwise; the
    entries share the denominator 2D.
    """
    if (Q.blocks != XY_BLOCKS or not Q.nums
            or not Q.nums.keys() <= _SYM_POSITIONS.keys()):
        raise ValueError("expected a form of bidegree (2, 2)")
    upper = {(i, j): [0] * len(_DEG2) for i in range(3) for j in range(i, 3)}
    for exp, n in Q.nums.items():
        entry, k, factor = _SYM_POSITIONS[exp]
        upper[entry][k] = factor * n
    return SymQuadricMatrix(tuple(tuple(tuple(upper[min(i, j), max(i, j)])
                                        for j in range(3)) for i in range(3)),
                            2 * Q.den)


def discriminant(A: SymQuadricMatrix) -> MultiPoly:
    """det A(x): the plane sextic of degenerate fibers.

    `det3_poly` takes the dense integer entries and gives the dense sextic
    of their determinant, which is over den^3.
    """
    form = det3_poly(A.entries)
    if not any(form):
        raise DegenerateConfigurationError("identically degenerate pencil of conics")
    return MultiPoly.from_ints(X_BLOCKS, dict(zip(monomials_of_degree(6), form)),
                               A.den ** 3)


# -- certificates -------------------------------------------------------------

class NodeCertificate(NamedTuple):
    """What the instance JSON stores of the curve N / den at the int point
    P, for a dense integer form N.

    ``gradient`` is the value followed by the three partials: N(P) and
    dN/dx_j (P), over den.  ``hessian_minor`` is the chart minor: the 2x2
    minor of the Hessian off ``chart``, the index of P's last nonzero
    coordinate, over den^2.
    """

    point: tuple[int, ...]
    chart: int
    gradient: tuple[Fraction, ...]
    hessian_minor: Fraction

    @property
    def is_node(self) -> bool:
        return (all(g == 0 for g in self.gradient) and self.hessian_minor != 0)


def _dense_form(curve: MultiPoly) -> list[int]:
    """den * curve as a dense integer form over `monomials_of_degree(n)`.

    curve is a nonzero homogeneous form in a single block of three
    variables, such as the discriminant sextic in x, which `certify_nodes`,
    `singular_locus_is_exactly` and `rank_stratification_check` read
    through here.  Anything else raises ValueError: a term of another
    degree or length is not on the list, so fewer entries than terms are
    nonzero.
    """
    nums = curve.nums
    if len(curve.blocks) != 1 or not nums:
        raise ValueError("expected a nonzero homogeneous form in one block")
    form = [nums.get(e, 0) for e in monomials_of_degree(sum(next(iter(nums))))]
    if len(form) - form.count(0) != len(nums):
        raise ValueError("expected a nonzero homogeneous form in one block")
    return form


def node_certificate(form: Sequence[int], den: int,
                     point: Sequence[int]) -> NodeCertificate:
    """Exact gradient and chart-Hessian data of a plane curve at an int point.

    The curve is N / den for the dense integer form N = form, as
    `_dense_form` or `det3_poly` gives it, and `p3_jet` takes N at the
    point, so a coordinate that is not an int raises TypeError.
    """
    if not form:
        raise ValueError("the empty form is no curve")
    value, grad, hess = p3_jet(form, point, 2)
    k = _chart_index(point)
    a, b = (j for j in range(3) if j != k)
    minor = hess[a][a] * hess[b][b] - hess[a][b] * hess[b][a]
    return NodeCertificate(
        point=tuple(point), chart=k,
        gradient=tuple(Fraction(g, den) for g in (value, *grad)),
        hessian_minor=Fraction(minor, den * den))


def singular_locus_is_exactly(gamma: MultiPoly, points, rng: random.Random,
                              exact: bool = False) -> bool:
    """Certify Sing(gamma) = {points}, all ordinary nodes; modulo half-word
    primes unless exact.  The count of `only_known_common_roots` needs the
    points to be distinct singular points, which is checked here exactly
    over Q.  gamma is a form as `_dense_form` takes it; anything else raises
    ValueError."""
    # the integer form den * gamma has the same singular points
    curve = _dense_form(gamma)
    listed = [primitive(pt) for pt in points]
    if len(set(listed)) != len(listed):
        return False
    for pt in listed:
        if not any(pt) or any(p3_jet(curve, pt, 1)[1]):
            return False
    return only_known_common_roots(curve, len(listed), rng, exact)


def certify_nodes(gamma: MultiPoly,
                  rng: random.Random) -> tuple[NodeCertificate, ...]:
    """Nodality at each of `STANDARD_NODES` plus the completeness check."""
    form = _dense_form(gamma)
    certs = []
    for pt in STANDARD_NODES:
        cert = node_certificate(form, gamma.den, pt)
        if not cert.is_node:
            raise CertificationError(f"point {pt} is not an ordinary node")
        certs.append(cert)
    if not singular_locus_is_exactly(gamma, STANDARD_NODES, rng):
        raise CertificationError("singular locus has unexplained components")
    return tuple(certs)


def singular_point_on_Q(A: SymQuadricMatrix,
                        cert: NodeCertificate) -> tuple[int, ...]:
    """The unique fiber point y making (u, y) a singular point of Q.

    cert is the certificate of u on gamma = det A from `node_certificate`,
    and Q = y^T A(x) y.  The point is rejected with `CertificationError`
    unless the certificate's gradient, which holds the value, is 0 (so
    det A(u) = 0), and some cross product of two rows of A(u) is nonzero
    (so rank A(u) = 2).  That cross product spans the kernel of A(u); y is
    its primitive form.  No jet of Q is taken, by Jacobi's formula:

    - A(u) has rank 2, so adj A(u) = lambda y y^T with lambda != 0;
    - so d_i gamma(u) = tr(adj A(u) d_i A(u)) = lambda y^T d_i A(u) y,
      which is lambda dQ/dx_i (u, y), while dQ/dy (u, y) = 2 A(u) y = 0;
    - so (u, y) is singular on Q exactly when grad gamma(u) = 0, which the
      certificate has shown.
    """
    u = cert.point
    if any(cert.gradient):
        raise CertificationError(f"{u} is not a singular point of det A")
    rows = A.evaluated(u)  # den * A(u): the same kernel
    for i, j in ((0, 1), (0, 2), (1, 2)):
        y = _cross(rows[i], rows[j])
        if any(y):
            return primitive(y)
    raise CertificationError(f"rank A({u}) < 2")


def rank_stratification_check(gamma: MultiPoly, rng: random.Random) -> None:
    """Find a random point off the sextic gamma = det A, so of rank A = 3.

    Rank 2 on the whole sextic over Q-bar needs no sample: det A(x) = 0
    there, and rank A(x) <= 1 gives adj A(x) = 0, so d det A / dx_i =
    tr(adj A(x) dA/dx_i) = 0 and x is singular on gamma: one of the nodes,
    by the completeness proof, where `singular_point_on_Q` proves rank 2.
    """
    # kept: perfbench pins the sweep pencil draws that follow, and traces this name
    form = _dense_form(gamma)
    for _ in range(16):
        pt = [rng.randint(-9, 9) for _ in range(3)]
        if any(pt) and sum(map(mul, form, p3_weights(pt, p3_degree(form)))):
            return
    raise CertificationError("no point off the sextic in 16 draws")


# -- residual lines -----------------------------------------------------------


def residual_line(A: SymQuadricMatrix, lf: LineInFiber):
    """Split the fiber conic y^T A(o) y as (marked line) * (residual line).

    Returns (m, y) with m the residual dual vector and y the intersection
    point of the two lines; y is None in the double-line case m = line.

    Write d for the marked line's dual vector and a_jk for the entries of
    A(o).  If the conic is c (d . y)(m . y), then A(o) = c (d m^T + m d^T)/2.
    For an i with d_i != 0, the vector with entries 2 a_ik d_i - d_k a_ii
    is then c d_i^2 m, and with it as m, 2 d_i^2 A(o) = d m^T + m d^T.
    Conversely that identity makes the conic (d . y)(m . y) / d_i^2.  So
    the identity, checked entry by entry, holds exactly when d divides the
    conic.  The identity is linear in A(o) = N / D, so it is checked in
    integers on N = `evaluated`, with m taken from N.
    """
    a = A.evaluated(lf.o)
    d = lf.dual
    i = next(k for k in range(3) if d[k])
    m = [2 * a[i][k] * d[i] - d[k] * a[i][i] for k in range(3)]
    scale = 2 * d[i] * d[i]
    # both sides are symmetric, so the upper triangle is the whole check
    if any(scale * a[j][k] != d[j] * m[k] + m[j] * d[k]
           for j in range(3) for k in range(j, 3)):
        raise MarkedLineInvariantError(
            "marked line does not divide the fiber conic")
    m = primitive(m)
    y = primitive(_cross(lf.dual, m))
    if all(c == 0 for c in y):
        return m, None  # double line: residual equals the marked line
    return m, y


# -- full instances -----------------------------------------------------------

class ConicBundleInstance(NamedTuple):
    nodes = STANDARD_NODES
    Q: MultiPoly
    A: SymQuadricMatrix
    gamma: MultiPoly
    node_certificates: tuple[NodeCertificate, ...]
    fiber_singular_points: tuple[tuple[int, ...], ...]
    marked_lines: tuple[LineInFiber, ...]
    #: ``residual_line(A, lf)`` for each marked line, in the same order
    residuals: tuple[tuple[tuple[int, ...], tuple[int, ...] | None], ...]
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
        """Load an instance and replay its certificate chain: Q is `zeta` of
        its five marked lines, then `certify_instance` reruns on Q.

        Every field is read before anything is replayed.  A file of another
        format raises ``ValueError("unknown instance format")``; one with a
        field missing, of the wrong shape or with a zero denominator, a
        monomial listed twice, or other than an int (a bool or a float too)
        where an integer goes, save a null seed, raises
        ``ValueError("malformed instance file ...")``.
        The completeness proof reruns with a fixed rng; it holds for every
        prime, so none is stored.  Nodes other than `STANDARD_NODES`, marked
        lines that are not five or whose unique member is not Q, stored
        certificates or fiber points unlike the recomputed ones, a failed
        certificate or a degenerate configuration raise `CertificationError`.
        Each marked line lies on Q, so it divides its fiber conic.
        """
        data = json.loads(text)
        if (not isinstance(data, dict)
                or data.get("format") != "conic-bundle-instance-v1"):
            raise ValueError("unknown instance format")

        def integer(v):
            if type(v) is not int:
                raise TypeError(f"{v!r} is not an integer")
            return v

        def frac(v):
            return Fraction(integer(v[0]), integer(v[1]))

        def vec(t):
            return tuple(frac(c) for c in t)

        try:
            nodes = tuple(vec(p) for p in data["nodes"])
            terms = [(tuple(map(integer, e)), frac(c))
                     for e, c in data["coefficients"]]
            if len(dict(terms)) != len(terms):
                raise ValueError("a monomial is listed twice")
            Q = MultiPoly(XY_BLOCKS, dict(terms))
            marked = [(vec(d["o"]), vec(d["dual"])) for d in data["marked_lines"]]
            if any(len(v) != 3 for line in marked for v in line):
                raise ValueError("a marked line needs 3 entries in o and in dual")
            stored = tuple((NodeCertificate(point=vec(c["point"]),
                                            chart=integer(c["chart"]),
                                            gradient=vec(c["gradient"]),
                                            hessian_minor=frac(c["hessian_minor"])),
                            vec(c["fiber_singular_point"]))
                           for c in data["certificates"])
            seed = data.get("seed")
            if seed is not None:
                integer(seed)
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed instance file: {exc!r}") from exc
        if nodes != STANDARD_NODES:
            raise CertificationError("stored nodes are not the standard nodes")
        try:
            lines = tuple(LineInFiber(o, dual) for o, dual in marked)
            if len(lines) != 5 or zeta(lines)[0] != Q:
                raise CertificationError(
                    "Q is not the unique member through five marked lines")
            inst = certify_instance(Q, lines, random.Random(0), seed=seed)
        except (NonGenericDropError, DegenerateConfigurationError) as exc:
            raise CertificationError(str(exc)) from exc
        if stored != tuple(zip(inst.node_certificates, inst.fiber_singular_points)):
            raise CertificationError("stored certificates do not match Q")
        return inst


def random_point(rng: random.Random) -> tuple[int, int, int]:
    """A random point of three rationals a/c, each a = randint(-97, 97)
    drawn before c = randint(1, 97), as an integer triple: the numerators
    scaled by the lcm of the denominators.  Two draws per coordinate keep
    the rng stream that perfbench/digests.json pins (ROADMAP item 6)."""
    draws = [(rng.randint(-97, 97), rng.randint(1, 97)) for _ in range(3)]
    scale = lcm(*(den for _, den in draws))
    return tuple(num * (scale // den) for num, den in draws)


def random_line_in_fiber(rng: random.Random) -> LineInFiber:
    while True:
        o, dual = random_point(rng), random_point(rng)
        if any(o) and any(dual):
            return LineInFiber(o, dual)


def zeta(lines: Sequence[LineInFiber]) -> tuple[MultiPoly, LinearSystem]:
    """The unique (2,2) form through five lines in fibers, up to scale.

    One cut of the 16-dimensional base system by the 15 line rows; it gives
    the system that five `impose_line` cuts would.
    """
    if len(lines) != 5:
        raise ValueError("exactly five lines are required")
    base = base_system(STANDARD_NODES)
    sys = _cut(base, _line_rows(lines), 15, "five lines in fibers")
    return sys.basis[0], sys


def certify_instance(Q: MultiPoly, lines, rng: random.Random,
                     seed: int | None = None) -> ConicBundleInstance:
    """Run the whole certificate chain on a candidate (2,2) form.

    Q must be the unique member through the five marked lines, as `zeta`
    returns it (`from_json` checks that).  ValueError is raised unless Q's
    coefficients on `XY_MONOMIALS` are their own `primitive`
    (coprime, the first nonzero positive), so `to_json` writes no file that
    `from_json` refuses; for the same reason a seed other than None or an
    int (a bool or a float too) raises TypeError.
    """
    if seed is not None and type(seed) is not int:
        raise TypeError(f"the seed {seed!r} is not an int")
    if len(lines) != 5:
        raise ValueError("exactly five marked lines are required")
    coeffs = [Q.nums.get(e, 0) for e in XY_MONOMIALS]
    if Q.den != 1 or gcd(*coeffs) != 1 or next(filter(None, coeffs)) < 0:
        raise ValueError("Q is not a primitive integer coefficient vector")
    A = to_symmetric_matrix(Q)
    gamma = discriminant(A)
    certs = certify_nodes(gamma, rng)
    ys = tuple(singular_point_on_Q(A, cert) for cert in certs)
    rank_stratification_check(gamma, rng)
    # residual_line raises if the marked-line invariant is broken
    residuals = tuple(residual_line(A, lf) for lf in lines)
    return ConicBundleInstance(
        Q=Q, A=A, gamma=gamma, node_certificates=certs,
        fiber_singular_points=ys, marked_lines=tuple(lines),
        residuals=residuals, seed=seed)


def construct_instance(seed: int,
                       line_sampler: Callable[[random.Random], LineInFiber]
                       | None = None) -> ConicBundleInstance:
    """Seeded end-to-end construction, resampling non-generic draws only."""
    rng = random.Random(seed)
    sampler = line_sampler or random_line_in_fiber
    last: Exception | None = None
    for _ in range(_RETRIES):
        lines = [sampler(rng) for _ in range(5)]
        try:
            Q, _ = zeta(lines)
            return certify_instance(Q, lines, rng, seed=seed)
        except (NonGenericDropError, CertificationError,
                DegenerateConfigurationError) as exc:
            last = exc
    raise GenericityError(f"no generic configuration in {_RETRIES} tries: {last}")


# -- the net of conic bundles through a point ---------------------------------

class NetT(NamedTuple):
    o: tuple[int, ...]  # primitive
    fixed_lines: tuple[LineInFiber, ...]
    system: LinearSystem
    # 2 A_k(o) as int rows: basis member k is an integer form, so A_k has
    # den 2; o^T A_k(o) o = 0
    restricted: tuple[tuple[tuple[int, ...], ...], ...]


def build_net_T(o: Sequence[int | Fraction],
                fixed_lines: Sequence[LineInFiber]) -> NetT:
    """The net of members through (o, o) containing four fixed fiber lines."""
    if len(fixed_lines) != 4:
        raise ValueError("exactly four fixed lines are required")
    o = primitive(o)
    if not any(o):
        raise DegenerateConfigurationError("the zero vector is no base point")
    for lf in fixed_lines:
        if lf.o == o and sum(a * b for a, b in zip(lf.dual, o)) == 0:
            raise DegenerateConfigurationError(
                "base point lies on a fixed line in its own fiber")
    base = base_system(STANDARD_NODES)
    table = p3_weights(o, 2)
    rows = _line_rows(fixed_lines) + [[u * v for u in table for v in table]]
    sys = _cut(base, rows, 13, "four fixed lines and the point (o, o)")
    restricted = tuple(to_symmetric_matrix(g).evaluated(o) for g in sys.basis)
    if QMatrix.from_ints([[m[i][j] for i in range(3) for j in range(i, 3)]
                          for m in restricted]).rank() != 3:
        raise NonGenericDropError("restriction to the fiber over o is not injective")
    return NetT(o=o, fixed_lines=tuple(fixed_lines), system=sys,
                restricted=restricted)


def discriminant_cubic(net: NetT, rng: random.Random) -> dict:
    """det(t1 A1 + t2 A2 + t3 A3) on the fiber over o: a one-nodal plane cubic.

    Certifies, exactly, that the cubic C has exactly one singular point t*,
    that t* is an ordinary node, so C is irreducible, and that the member
    B = sum t*_k A_k(o) has rank 2 and vertex o, so it splits as two lines
    through o.  It rests on o^T A_k(o) o = 0 for each k (every member of
    the net passes through (o, o)), checked in integers first.  Returns
    8 C, dense, as "cubic", and t*, a primitive int triple, as "node".

    1. Construction: t* spans the kernel of the 3x3 matrix whose column k
       is A_k(o) o, so B o = 0 and C(t*) = det B = 0.  B o = 0 also makes
       adj B either lambda o o^T (rank B = 2, kernel o) or 0 (rank B <= 1),
       so by Jacobi's formula dC/dt_k (t*) = tr(adj B A_k(o)) =
       lambda o^T A_k(o) o = 0: t* is a singular point of C, which is what
       the proof of step 2 needs, with no check of its own.
    2. Count: `only_known_common_roots` with k = 1, the proof that certifies
       every sextic, shows Sing(C) = {t*} with Tjurina number 1, so t* is
       an ordinary node (G.-M. Greuel, C. Lossen and E. Shustin,
       Introduction to Singularities and Deformations, I.2).  And C is
       irreducible: a reducible cubic has two singular points, or one that
       is not a node (W. Fulton, Algebraic Curves, ch. 5).  Its rng is fixed,
       as in `ConicBundleInstance.from_json`, so the caller's stream stays.
    3. B has rank 2 and kernel o, with no check of its own: B o = 0 gives
       rank B <= 2, and a node rules out rank B <= 1.  For suppose
       B = lambda b b^T.  Take coordinates with o = e_1 (C changes by a
       nonzero constant factor); then b_1 = 0, and S = sum s_k A_k(o) has
       S_11 = 0.  So C(t* + s) = det(B + S) = lambda b^T adj(S) b + det S,
       whose quadratic part lambda b^T adj(S) b =
       -lambda (b_2 S_13 - b_3 S_12)^2 is a square of a linear form in s:
       the Hessian at t* has rank <= 1, so t* has Tjurina number at least
       2, and step 2 has already failed.
    """
    o = net.o
    images = [[sum(map(mul, row, o)) for row in m]  # 2 A_k(o) o
              for m in net.restricted]
    if any(sum(map(mul, o, image)) for image in images):
        raise CertificationError("a member of the net misses the point (o, o)")
    # entry (i, j) of 2 sum t_k A_k(o) is the dense linear form of its
    # three coefficients, so its determinant is the dense cubic form of 8 C
    form = det3_poly([[[m[i][j] for m in net.restricted] for j in range(3)]
                      for i in range(3)])
    if not any(form):
        raise DegenerateConfigurationError("identically singular net")
    # kept: perfbench pins the sweep pencil draws that follow; the
    # elimination that used to find t* drew this change of coordinates, of
    # entries QQ.random_element, which are rng.randint(-30, 30) as Fractions
    _random_invertible(QQ, partial(rng.randint, -30, 30))
    kernel = QMatrix.from_ints([[images[k][i] for k in range(3)]
                                for i in range(3)]).kernel()
    if len(kernel) != 1:
        raise CertificationError("the net has no unique member singular at o")
    if not only_known_common_roots(form, 1, random.Random(0)):
        raise CertificationError("net discriminant is not a one-nodal cubic")
    return {"cubic": form, "node": kernel[0]}


def pencil_line_through(o: tuple[int, ...], rng: random.Random) -> LineInFiber:
    """A random line through o in its own fiber (the sweeping pencil)."""
    p, q = _plane_basis(o)
    while True:
        # the dual vector a/c p + b/d q, scaled by c d
        a, c = rng.randint(-97, 97), rng.randint(1, 97)
        b, d = rng.randint(-97, 97), rng.randint(1, 97)
        dual = tuple(a * d * u + b * c * v for u, v in zip(p, q))
        if any(dual):
            return LineInFiber(tuple(o), dual)


def sweep(seed: int, samples: int) -> dict:
    """Fix four lines and o, certify the net, and sweep the pencil through o;
    each sample is the instance of a pencil line, marked after the four."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    last: Exception | None = None
    for _ in range(_RETRIES):
        fixed = [random_line_in_fiber(rng) for _ in range(4)]
        o = random_point(rng)
        try:
            net = build_net_T(o, fixed)
            cubic_report = discriminant_cubic(net, rng)
            break
        except (NonGenericDropError, CertificationError,
                DegenerateConfigurationError) as exc:
            last = exc
    else:
        raise GenericityError(f"no generic net in {_RETRIES} tries: {last}")

    results = []
    for _ in range(_RETRIES + samples):
        lf = pencil_line_through(net.o, rng)
        try:
            # net.system has dim 3, so a drop of 2 leaves one member
            Q = impose_line(net.system, lf, expected_drop=2).basis[0]
            results.append(certify_instance(Q, list(net.fixed_lines) + [lf],
                                            rng, seed=seed))
        except (NonGenericDropError, CertificationError,
                DegenerateConfigurationError):
            continue
        if len(results) == samples:
            return {"net": net, "cubic": cubic_report, "samples": results}
    raise GenericityError("pencil sampling exhausted its retry budget")
