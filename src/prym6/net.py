"""The net of conic bundles through a point, and the pencil it sweeps.

Four fixed lines in fibers and a base point o cut the 16-dimensional base
system of `prym6.conicbundle` down to a net; its discriminant on the fiber
over o is a one-nodal plane cubic, certified by the completeness proof, and
each line of the pencil through o in its fiber cuts the net down to one
member, certified as a `construct` instance is.  Only `prym6 sweep` runs
this module, so `construct` never compiles it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from operator import mul
from typing import NamedTuple, Sequence

from .conicbundle import (STANDARD_NODES, _RETRIES, CertificationError,
                          DegenerateConfigurationError, GenericityError,
                          LineInFiber, LinearSystem, NonGenericDropError, _cut,
                          _line_rows, _plane_basis, base_system,
                          certify_instance, impose_line, random_line_in_fiber,
                          random_point, to_symmetric_matrix)
from .exactalg import QMatrix, det3_poly, primitive
from .planesys import QQ, _random_invertible, only_known_common_roots, p3_weights


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
