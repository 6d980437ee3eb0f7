"""The Q path of `prym6.planesys`: elimination over the rationals.

No command runs it.  The exact completeness proof
(``only_known_common_roots(..., exact=True)``), `find_unique_common_root`
and the gcd over Q load it on first use, so neither `prym6 construct` nor
`prym6 sweep` compiles it.  Forms and univariate polynomials are the dense
lists of `prym6.planesys`, and the field is passed explicitly, Q or GF(q).

`resultant_x3` finds the bivariate resultants of one f and several g by
evaluation at the fixed sample points x = 0 .. n - 1 and interpolation, one
`uni_resultant` call per sample and g: 52 for a completeness proof's two on
a sextic.  The exact proof moves the curve by a random change of
coordinates over Q with `p3_linear_change`, takes its partials with
`p3_partial` and eliminates x3 with `resultant_x3`, the long way round the
word-prime proof's packed maps and lane rounds; its gcd over Q is a
primitive pseudo-remainder sequence over Z (`_uni_gcd_q`).
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from operator import mul

from .exactalg import primitive
from .planesys import (QQ, _TRIES, _random_invertible, _reduced, _sample_maps,
                       _times, monomials_of_degree, p3_degree, p3_weights,
                       uni_degree, uni_divmod, uni_gcd, uni_interpolate,
                       uni_monic, uni_resultant)


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of integer polynomials (coefficient lists)."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db and a:
        f = a[-1]
        shift = len(a) - 1 - db
        a = [lb * v for v in a]
        for j, bj in enumerate(b):
            a[shift + j] -= f * bj
        while a and a[-1] == 0:
            a.pop()
    return a


def _uni_gcd_q(a, b):
    """Monic gcd over Q via a primitive pseudo-remainder sequence over Z.

    Avoids the catastrophic coefficient growth of naive Euclid on Fractions
    when the inputs come from resultants of large exact data.  Each
    remainder is scaled to its `primitive` form; the sign that fixes does
    not matter, since the gcd is made monic at the end.
    """
    A, B = primitive(a), primitive(b)
    while B:
        A, B = B, primitive(_int_prem(A, B))
    return uni_monic(QQ, list(A))


def uni_derivative(F, a):
    return _reduced(F, [i * a[i] for i in range(1, len(a))])


def uni_squarefree_part(F, a):
    d = uni_derivative(F, a)
    if not d:
        return uni_monic(F, a)
    q, _ = uni_divmod(F, a, uni_gcd(F, a, d))
    return uni_monic(F, q)


def p3_eval(F, form, pt):
    return F.reduce(sum(map(mul, form, p3_weights(pt, p3_degree(form)))))


def p3_partial(F, form, j: int):
    """The partial derivative of form in x_j: the coefficient of x^f is
    (f_j + 1) times that of x^f x_j, which `_shifts` places."""
    n = p3_degree(form)
    if n < 1:
        return []
    out = [F.zero] * len(monomials_of_degree(n - 1))
    for e, c, s in zip(monomials_of_degree(n), form, _shifts(n - 1)):
        if e[j]:
            out[s[j]] = e[j] * c
    return F.reduce_all(out)


def p3_linear_change(F, form, m):
    """Substitute x_i -> sum_j m[i][j] x_j in a dense form.

    form is evaluated at the three linear forms by Horner's rule in x1 and,
    within each x1-coefficient, in x2; x3^e becomes the e-th power of the
    third form, from a table; the x2-sum of x1^e1 reads its run of the
    dense layout by slicing.  Every step of both Horner sums is homogeneous:
    the x2-sum of x1^e1 has degree n - e1 - e2 after the step at e2, and
    the x1-sum degree n - e1, so a product by a linear form is one list
    comprehension over `_shifts`.  Sums stay unreduced, and each output
    coefficient is reduced once.  The empty form gives the empty form.
    """
    n = p3_degree(form)
    zero = F.zero

    def times(linear, dense, k):
        """The degree-k dense form times a linear form."""
        a, b, c = linear
        padded = dense + [zero]
        return [a * padded[i] + b * padded[j] + c * padded[l]
                for i, j, l in _shifts(k)]

    x3_powers = [[F.one]]
    for k in range(n):
        x3_powers.append(F.reduce_all(times(m[2], x3_powers[-1], k)))
    acc, start = form[:1], 1
    for e1 in range(n - 1, -1, -1):
        run = form[start:start + n - e1 + 1]
        start += len(run)
        inner = run[:1]
        for e3, c in enumerate(run[1:], 1):
            inner = times(m[1], inner, e3 - 1)
            if c:
                inner = [v + c * w for v, w in zip(inner, x3_powers[e3])]
        acc = [v + w for v, w in zip(times(m[0], acc, n - e1 - 1), inner)]
    return F.reduce_all(acc)


@lru_cache(maxsize=None)
def _shifts(k: int):
    """For each monomial x^f of degree k + 1, the positions of x^f / x_j
    among the monomials of degree k for j = 0, 1, 2, or the pad position
    past the end where f_j = 0: the index map of a product of a dense form
    of degree k by a linear form."""
    lower = monomials_of_degree(k)
    pos = {e: i for i, e in enumerate(lower)}
    pad = len(lower)
    return tuple(tuple(pos[f[:j] + (f[j] - 1,) + f[j + 1:]] if f[j] else pad
                       for j in range(3))
                 for f in monomials_of_degree(k + 1))


def _x3_tower(F, form):
    """Coefficients of x3^k after setting x2 = 1, as univariates in x1."""
    n = p3_degree(form)
    tower = [[F.zero] * (n - e3 + 1) for e3 in range(n + 1)]
    for (e1, _, e3), c in zip(monomials_of_degree(n), form):
        tower[e3][e1] = c
    return [_reduced(F, level) for level in tower]


def _tower_at_samples(F, tower, n: int):
    """The x3-levels of an `_x3_tower`, polynomials in x1 with reduced
    coefficients, at the sample points x1 = 0 .. n - 1: one tuple of level
    values per sample, each level one `_times` of the evaluation matrix of
    `_sample_maps`.  A level has at most n terms when both forms of
    `resultant_x3` have degree >= 1; otherwise n = 1, and the sample point
    0 reads only the constant term, so reading the first n is exact."""
    powers = _sample_maps(F, n)[0]
    return list(zip(*(_times(F, powers, level) for level in tower)))


def resultant_x3(F, f, gs):
    """Res_{x3}(f, g) for each g in gs, on the chart x2 = 1, by
    evaluation/interpolation.

    f and the gs are dense forms of degrees d1 and d2, read from their
    lengths, whose x3^d1 and x3^d2 coefficients must be nonzero constants;
    anything else, or gs of two degrees, raises ValueError.  Each result is
    a univariate polynomial in x1 of degree at most d1*d2; its value at each
    sample x1 = 0 .. d1*d2 is the low-first Sylvester determinant in x3.
    `_tower_at_samples` evaluates each x3-level at all samples at once, f's
    once for all gs, one matrix product per level.  Each sample pair's
    resultant is one `uni_resultant` call, and `uni_interpolate` reads each
    g's values.
    """
    tf, tgs = _x3_tower(F, f), [_x3_tower(F, g) for g in gs]
    if (len({len(t) for t in tgs}) != 1
            or any(uni_degree(t[-1]) != 0 for t in [tf] + tgs)):
        raise ValueError("no gs, gs of two degrees, or a leading x3 "
                         "coefficient that is not a nonzero constant")
    n = (len(tf) - 1) * (len(tgs[0]) - 1) + 1
    at_f = _tower_at_samples(F, tf, n)
    return [uni_interpolate(F, [uni_resultant(F, a, b)
                                for a, b in zip(at_f, _tower_at_samples(F, t, n))])
            for t in tgs]


def _mat3_apply(F, m, v):
    return tuple(F.reduce(m[i][0] * v[0] + m[i][1] * v[1] + m[i][2] * v[2])
                 for i in range(3))


def _exact_resultants(curve, rng: random.Random):
    """QQ and r1, r2 of the curve moved by a fresh random m over Q, for each
    of _TRIES attempts whose leading x3 coefficients are nonzero constants.
    """
    draw = partial(QQ.random_element, rng)
    for _ in range(_TRIES):
        moved = p3_linear_change(QQ, curve, _random_invertible(QQ, draw))
        c = [p3_partial(QQ, moved, j) for j in range(3)]
        try:
            r1, r2 = resultant_x3(QQ, c[0], c[1:])
        except ValueError:
            continue  # a leading x3 coefficient is not a nonzero constant
        yield QQ, r1, r2


def _restrict_to_fiber(F, form, x1):
    """form at x1 on the chart x2 = 1, a univariate in x3, by `_x3_tower`."""
    return _reduced(F, [sum((c * x1 ** e1 for e1, c in enumerate(level)), F.zero)
                        for level in _x3_tower(F, form)])
