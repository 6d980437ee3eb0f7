"""Resultant-based elimination for plane polynomial systems.

Used to certify that a plane curve is singular only at k known points, all
ordinary nodes, and to locate the unique node of a plane cubic.  The
same code runs over Q and over prime fields GF(q) with q below 2^30, where
every residue is a single machine word; the field is passed explicitly.

Polynomials in three variables are plain dicts mapping exponent triples to
field elements; univariate polynomials are coefficient lists, low degree
first.

A field object supplies ``zero``, ``one``, ``reduce``, ``reduce_all``,
``inv``, ``inv_all`` and ``from_rational``; sums and products are Python's
own operators on its elements.  ``reduce`` maps such a sum or product back
to a field element: ``v % p`` over GF(p), the identity over Q;
``reduce_all`` does so for a whole list.  Reduction is lazy: a kernel sums
unreduced products and reduces each coefficient once, before it compares
it with ``zero``, returns it or uses it as a key.
``inv_all`` inverts a whole list: over GF(p) by Montgomery's trick, one
modular inverse and three products per entry, since an inverse mod p costs
about as much as sixteen products.

A resultant is computed by the Euclidean remainder sequence,
Res(b, a) = lc(b)^(deg a - deg r) Res(b, r) for r = a mod b, in O(deg^2)
field operations, instead of a Sylvester determinant.  `resultant_x3` finds
a bivariate resultant by evaluation at the fixed sample points
x = 0 .. n - 1 and interpolation.  Its sample pairs are stored column-major:
column j of a polynomial holds its x3^j coefficient in every lane (one lane
per sample), so each step of the remainder sequences, and of the
evaluation, is one list operation across all lanes, and each round of
remainders costs one ``inv_all``.  Interpolation at 0 .. n - 1 is a dot
product per coefficient with a cached integer Lagrange table, which depends
on n alone, and one inverse per call.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement
from math import comb, factorial
from operator import mul


class QQ:
    """The rational field, as a field object."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def reduce(v):
        return v

    @staticmethod
    def reduce_all(values):
        return list(values)

    @staticmethod
    def from_rational(v):
        return Fraction(v)

    @staticmethod
    def inv(a):
        return Fraction(1) / a

    @staticmethod
    def inv_all(values):
        return [Fraction(1) / a for a in values]

    @staticmethod
    def random_element(rng: random.Random):
        """An entry of a change of coordinates over Q."""
        return Fraction(rng.randint(-30, 30))


class GF:
    """Prime field GF(p) on plain ints in [0, p)."""

    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def reduce(self, v):
        return v % self.p

    def reduce_all(self, values):
        p = self.p
        return [v % p for v in values]

    def from_rational(self, v):
        v = Fraction(v)
        if v.denominator % self.p == 0:
            raise ZeroDivisionError("denominator vanishes mod p")
        return v.numerator * pow(v.denominator, -1, self.p) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def inv_all(self, values):
        """The inverse of each entry, from one modular inverse.

        prefix[i] is the product of the entries before i; with inv the
        inverse of the product of the first i + 1 entries, prefix[i] * inv
        is the inverse of entry i, and inv times entry i is the next inv.
        """
        p = self.p
        prefix = []
        acc = 1
        for v in values:
            prefix.append(acc)
            acc = acc * v % p
        if acc == 0:
            raise ZeroDivisionError("inverse of zero")
        inv = pow(acc, -1, p)
        out = [0] * len(prefix)
        for i in range(len(prefix) - 1, -1, -1):
            out[i] = prefix[i] * inv % p
            inv = inv * values[i] % p
        return out


# -- univariate polynomials over a field -------------------------------

def _trim(F, c):
    while c and c[-1] == F.zero:
        c.pop()
    return c


def _reduced(F, c):
    """The reduced, trimmed coefficient list of unreduced sums c."""
    return _trim(F, [F.reduce(v) for v in c])


def uni_degree(c) -> int:
    return len(c) - 1  # -1 for the zero polynomial


def uni_divmod(F, a, b):
    """Quotient and remainder; a's entries are reduced only as they are read."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = F.inv(b[-1])
    a = list(a)
    top = len(b) - 1
    q = [F.zero] * max(0, len(a) - top)
    for k in range(len(a) - len(b), -1, -1):
        f = F.reduce(a[k + top] * inv_lead)
        if f == F.zero:
            continue
        q[k] = f
        for j in range(top):
            a[k + j] -= f * b[j]
    return _trim(F, q), _reduced(F, a[:top])


def uni_monic(F, a):
    if not a:
        return a
    inv = F.inv(a[-1])
    return [F.reduce(inv * v) for v in a]


def uni_gcd(F, a, b):
    if F is QQ:
        return _uni_gcd_q(a, b)
    a, b = list(a), list(b)
    while b:
        _, r = uni_divmod(F, a, b)
        a, b = b, r
    return uni_monic(F, a)


def _int_primitive_poly(c: list[int]) -> list[int]:
    from math import gcd
    g = 0
    for v in c:
        g = gcd(g, v)
    if g == 0:
        return []
    if c[-1] < 0:
        g = -g
    return [v // g for v in c]


def _to_int_poly(c) -> list[int]:
    from math import lcm
    if not c:
        return []
    den = lcm(*(Fraction(v).denominator for v in c))
    return _int_primitive_poly([int(Fraction(v) * den) for v in c])


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
    when the inputs come from resultants of large exact data.
    """
    A, B = _to_int_poly(a), _to_int_poly(b)
    while B:
        A, B = B, _int_primitive_poly(_int_prem(A, B))
    if not A:
        return []
    lead = Fraction(A[-1])
    return [Fraction(v) / lead for v in A]


def uni_derivative(F, a):
    return _reduced(F, [i * a[i] for i in range(1, len(a))])


def uni_squarefree_part(F, a):
    d = uni_derivative(F, a)
    if not d:
        return uni_monic(F, a)
    q, _ = uni_divmod(F, a, uni_gcd(F, a, d))
    return uni_monic(F, q)


def uni_resultants(F, pairs):
    """Determinant of the low-first Sylvester matrix of each pair (a, b).

    That matrix has deg b rows a_0 .. a_n and deg a rows b_0 .. b_m, each
    shifted one column right of the row before, and its determinant is
    (-1)^(deg a deg b) Res(a, b) = Res(b, a).  Each a and b is nonzero and
    trimmed.  With r = g mod f of degree k, Res(f, g) = lc(f)^(n - k)
    Res(f, r) for m = deg f and n = deg g, Res(f, 0) = 0 for m > 0,
    Res(f, r) = (-1)^(m k) Res(r, f), and a constant f gives f_0^n.

    The pairs run as lanes, starting from f, g = b, a.  Lanes with the same
    (m, n) form a group (lanes, acc, sign, f, g): the index of each lane,
    the product acc of leading-coefficient powers met so far in each lane,
    one sign, and f and g as lists of coefficient columns, low degree
    first, where column j holds the x^j coefficient of every lane.  Each
    lane's answer is sign * acc * Res(f, g).  Each round divides every
    group with m > 0, one list operation across its lanes per quotient
    coefficient and per column of f, with the leading inverses of all
    dividing lanes from one ``inv_all``.  When every remainder of a group
    has degree m - 1, the group goes on whole as (r, f); otherwise its
    lanes split into one group per remainder degree, and a lane whose
    remainder is 0 leaves with the answer 0.
    """
    by_degrees: dict = {}
    for i, (a, b) in enumerate(pairs):
        by_degrees.setdefault((len(a), len(b)), []).append(i)
    groups = [(lanes, [F.one] * len(lanes), 1,
               [list(col) for col in zip(*(pairs[i][1] for i in lanes))],
               [list(col) for col in zip(*(pairs[i][0] for i in lanes))])
              for lanes in by_degrees.values()]
    out = [F.zero] * len(pairs)
    while groups:
        dividing = []
        for lanes, acc, sign, f, g in groups:
            if len(f) > 1:
                dividing.append((lanes, acc, sign, f, g))
                continue
            e = len(g) - 1
            for i, a, c in zip(lanes, acc, f[0]):
                out[i] = F.reduce(sign * a * c ** e)
        invs = F.inv_all([v for group in dividing for v in group[3][-1]])
        groups, start = [], 0
        for lanes, acc, sign, f, g in dividing:
            inv = invs[start:start + len(lanes)]
            start += len(lanes)
            m, n = len(f) - 1, len(g) - 1
            g = list(g)
            for k in range(n - m, -1, -1):
                q = F.reduce_all(map(mul, g[k + m], inv))
                for j in range(m):
                    g[k + j] = [a - c * b for a, c, b in zip(g[k + j], q, f[j])]
            r = [F.reduce_all(col) for col in g[:m]]
            lead = f[-1]
            if len(r) == m and F.zero not in r[-1]:
                # k = m - 1 in every lane; (-1)^(m (m - 1)) = 1
                e = n - m + 1
                acc = F.reduce_all(a * c ** e for a, c in zip(acc, lead))
                groups.append((lanes, acc, sign, r, f))
                continue
            by_degree: dict = {}
            for pos, i in enumerate(lanes):
                k = len(r) - 1
                while k >= 0 and r[k][pos] == F.zero:
                    k -= 1
                if k < 0:
                    out[i] = F.zero
                else:
                    by_degree.setdefault(k, []).append(pos)
            for k, kept in by_degree.items():
                groups.append(([lanes[p] for p in kept],
                               [F.reduce(acc[p] * lead[p] ** (n - k)) for p in kept],
                               sign * (-1) ** (m * k),
                               [[col[p] for p in kept] for col in r[:k + 1]],
                               [[col[p] for p in kept] for col in f]))
    return out


@lru_cache(maxsize=None)
def _lagrange_table(n: int):
    """Integer Lagrange numerators for the n sample points x = 0 .. n - 1.

    With D = (n - 1)! and w_i = (-1)^(n-1-i) C(n-1, i), the Lagrange basis
    polynomial of the point i is N_i / D for the integer polynomial
    N_i = w_i prod_{j != i} (x - j), since prod_{j != i} (i - j) =
    (-1)^(n-1-i) i! (n-1-i)!.  Each N_i is the master polynomial
    prod_j (x - j) divided by x - i by synthetic division.  Returns the rows
    (N_0[k], .., N_{n-1}[k]) for k = 0 .. n - 1 and D: the polynomial with
    values y has k-th coefficient (row k . y) / D.  No entry depends on a
    prime, so each n is built once per process.
    """
    master = [1]
    for j in range(n):
        master = [a - j * b for a, b in zip([0] + master, master + [0])]
    numerators = []
    for i in range(n):
        w = (-1) ** (n - 1 - i) * comb(n - 1, i)
        quotient, carry = [0] * n, 0
        for k in range(n, 0, -1):
            carry = master[k] + i * carry
            quotient[k - 1] = w * carry
        numerators.append(quotient)
    return tuple(zip(*numerators)), factorial(n - 1)


def uni_interpolate(F, ys):
    """The polynomial of degree < n that takes the value ys[x] at each
    sample point x = 0 .. n - 1, n = len(ys).

    Each coefficient is one dot product of ys with a row of the cached
    integer Lagrange numerators of `_lagrange_table`, times the inverse of
    their common denominator D = (n - 1)!: one inverse per call.  Over GF(p)
    with p <= n - 1 two sample points coincide mod p, D vanishes, and the
    call raises ZeroDivisionError.
    """
    lagrange, den = _lagrange_table(len(ys))
    inv = F.inv(den)
    return _trim(F, F.reduce_all(sum(map(mul, row, ys), F.zero) * inv
                                 for row in lagrange))


def det_field(F, m):
    """Determinant over a field by Gaussian elimination.

    Over Q this delegates to fraction-free Bareiss elimination, which is
    far faster on the huge exact entries produced by resultant towers.
    Over GF(p) the entries are plain ints in [0, p), and the elimination
    runs on ints with one reduction per update.  It divides by no pivot:
    row i becomes pivot * row i - row_i[k] * pivot row, which multiplies
    the determinant by the pivot.  Those factors are collected in one scale
    and inverted once at the end, since an inverse mod p costs more than a
    whole row update.
    """
    if F is QQ:
        from .exactalg import QMatrix
        return QMatrix(m).det()
    p = F.p
    m = [row[:] for row in m]
    n = len(m)
    det = scale = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        top = m[k][k + 1:]
        pk = m[k][k]
        det = det * pk % p
        for i in range(k + 1, n):
            row = m[i]
            rk = row[k]
            if rk:
                row[k + 1:] = [(pk * a - rk * b) % p for a, b in zip(row[k + 1:], top)]
                scale = scale * pk % p
    return det * pow(scale, -1, p) % p


# -- trivariate polynomials as exponent dicts ---------------------------

def p3_degree(poly) -> int:
    return max((sum(e) for e in poly), default=-1)


def p3_eval(F, poly, pt):
    x, y, z = pt
    return F.reduce(sum(c * x ** e1 * y ** e2 * z ** e3
                        for (e1, e2, e3), c in poly.items()))


def p3_partial(F, poly, j: int):
    """The partial derivative of poly in x_j."""
    terms = ((e[:j] + (e[j] - 1,) + e[j + 1:], F.reduce(e[j] * c))
             for e, c in poly.items() if e[j])
    return {e: v for e, v in terms if v != F.zero}


def p3_linear_change(F, poly, m):
    """Substitute x_i -> sum_j m[i][j] x_j.

    An exponent triple (a, b, c) is packed into the int key
    a << 16 | b << 8 | c, so multiplying by x_j adds a fixed unit to a key.
    poly is evaluated at the three linear forms by Horner's rule in x1 and,
    within each x1-coefficient, in x2; x3^e becomes the e-th power of the
    third form, from a table.  Sums stay unreduced, and each output
    coefficient is reduced once.
    """
    deg = p3_degree(poly)
    units = (1 << 16, 1 << 8, 1)
    forms = [[(u, a) for u, a in zip(units, row) if a != F.zero] for row in m]

    def times(acc, form):
        out: dict = {}
        for k, v in acc.items():
            for u, a in form:
                out[k + u] = out.get(k + u, F.zero) + v * a
        return out

    x3_powers = [{0: F.one}]
    for _ in range(deg):
        x3_powers.append({k: F.reduce(v) for k, v in times(x3_powers[-1], forms[2]).items()})
    by_x1_x2: dict = {}
    for (e1, e2, e3), c in poly.items():
        by_x1_x2.setdefault((e1, e2), []).append((e3, c))
    acc: dict = {}
    for e1 in range(deg, -1, -1):
        inner: dict = {}
        for e2 in range(deg - e1, -1, -1):
            inner = times(inner, forms[1])
            for e3, c in by_x1_x2.get((e1, e2), ()):
                for k, v in x3_powers[e3].items():
                    inner[k] = inner.get(k, F.zero) + c * v
        acc = times(acc, forms[0])
        for k, v in inner.items():
            acc[k] = acc.get(k, F.zero) + v
    changed = {}
    for k, v in acc.items():
        v = F.reduce(v)
        if v != F.zero:
            changed[(k >> 16, (k >> 8) & 255, k & 255)] = v
    return changed


def _x3_tower(F, poly, deg3: int):
    """Coefficients of x3^k after setting x2 = 1, as univariates in x1."""
    tower = [[] for _ in range(deg3 + 1)]
    for (e1, _, e3), c in poly.items():
        level = tower[e3]
        level.extend([F.zero] * (e1 + 1 - len(level)))
        level[e1] += c
    return [_reduced(F, level) for level in tower]


def resultant_x3(F, f, g, d1, d2):
    """Res_{x3}(f, g) on the chart x2 = 1, by evaluation/interpolation.

    f and g are trivariate exponent dicts with formal x3-degrees d1 and d2
    (their top x3 coefficients must be nonzero constants).  The result is a
    univariate polynomial in x1 of degree at most d1*d2; its value at each
    sample x1 = 0 .. d1*d2 is the determinant of the low-first Sylvester
    matrix in x3.  Each x3-level of f and g, a polynomial in x1, is
    evaluated at all samples at once, as one coefficient column: Horner's
    rule steps a whole column of values, one list operation per
    coefficient, with small integer samples and one reduction at the end.
    The d1*d2 + 1 sample resultants run as one group of lanes in
    `uni_resultants`, one ``inv_all`` per round of remainders, and
    `uni_interpolate` takes one more inverse.
    """
    tf = _x3_tower(F, f, d1)
    tg = _x3_tower(F, g, d2)
    if uni_degree(tf[d1]) != 0 or uni_degree(tg[d2]) != 0:
        raise ValueError("leading x3 coefficient is not a nonzero constant")
    xs = range(d1 * d2 + 1)

    def columns(tower):
        """Each level's values at all samples, by Horner's rule on columns."""
        out = []
        for level in tower:
            col = [level[-1] if level else F.zero] * len(xs)
            for c in reversed(level[:-1]):
                col = [v * x + c for v, x in zip(col, xs)]
            out.append(F.reduce_all(col))
        return out

    pairs = list(zip(zip(*columns(tf)), zip(*columns(tg))))
    return uni_interpolate(F, uni_resultants(F, pairs))


def _random_invertible(F, draw):
    """A 3x3 matrix of entries draw(), drawn again while it is singular
    over F."""
    for _ in range(64):
        m = [[draw() for _ in range(3)] for _ in range(3)]
        (a, b, c), (d, e, f), (g, h, i) = m
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        if F.reduce(det) != F.zero:
            return m
    raise RuntimeError("failed to draw an invertible matrix")


def _mat3_apply(F, m, v):
    return tuple(F.reduce(m[i][0] * v[0] + m[i][1] * v[1] + m[i][2] * v[2])
                 for i in range(3))


#: random changes of coordinates an elimination draws before it gives up
_TRIES = 8

#: the eight largest primes below 2^30, one per attempt of the mod-p proof;
#: each is above 25, the last sample point of `resultant_x3` on a sextic
WORD_PRIMES = (1073741789, 1073741783, 1073741741, 1073741723, 1073741719,
               1073741717, 1073741689, 1073741671)


def _moved_curves(curve, rng: random.Random, exact: bool):
    """Each attempt's field F and the curve over F, moved by a fresh random
    invertible m.

    If exact: QQ and the curve as given, _TRIES times.  Otherwise attempt i
    is over GF(q) for q = WORD_PRIMES[i], and an integer curve that reduces
    to 0 mod q yields nothing, so that attempt rejects.  Each entry of m is
    rng.randrange(bound) mod q, for one bound drawn per call.
    """
    if exact:
        draw = partial(QQ.random_element, rng)
        for _ in range(_TRIES):
            yield QQ, p3_linear_change(QQ, curve, _random_invertible(QQ, draw))
        return
    # the bound only keeps the rng stream that perfbench/digests.json pins;
    # a new stream is for the benchmark revision (ROADMAP item 1)
    bound = rng.getrandbits(62) | 1 << 61 | 1
    for q in WORD_PRIMES:
        reduced = {e: c % q for e, c in curve.items() if c % q}
        if reduced:
            F = GF(q)
            m = _random_invertible(F, lambda: rng.randrange(bound) % q)
            yield F, p3_linear_change(F, reduced, m)


def only_known_common_roots(curve, k: int, rng: random.Random,
                            exact: bool = False) -> bool:
    """Certify that a plane curve has no singular points beyond k known ones,
    each an ordinary node.

    Precondition, checked by the caller: the curve has k distinct singular
    points.  curve, gamma, is a homogeneous trivariate exponent dict of
    degree n >= 2, with integer coefficients, or rational ones if exact.
    Each attempt works over its own field: Q if exact, otherwise GF(q) for
    the next prime q of WORD_PRIMES, with gamma reduced mod q (a reduction
    that is 0 rejects the attempt).  It draws an invertible m, moves the
    curve once to gamma o m and sets c_j = d(gamma o m)/dx_j, forms of
    degree d = n - 1 that generate the Jacobian ideal J of gamma o m.  It
    accepts when r1 = Res_x3(c0, c1) and r2 = Res_x3(c0, c2), on the chart
    x2 = 1, have full degree d^2 and deg gcd(r1, r2) = k.  Let Z be the
    scheme of J over the closure of the field, tau_p its length and tau_Q
    the length of the scheme over Q-bar.

    1. Semicontinuity: the rank of each graded piece of the integer ideal
       can only drop mod p, so if Z is finite, so is the scheme over Q-bar,
       and tau_p >= tau_Q >= k + (the number of unlisted singular points).
    2. Degree check: if Z is not finite, c0 and c1 share a component and
       r1 = 0.  As the leading x3-coefficients are nonzero constants,
       full degree means no common root of c0 and c_i lies on x2 = 0.
    3. I_P(c0, c_i) >= len_P Z: r_i is a constant times the product of
       (x1 - v)^e, e the sum of I_P(c0, c_i) over the roots P projecting to
       v (the resultant description of intersection numbers, W. Fulton,
       Algebraic Curves), so deg gcd(r1, r2) >= tau_p.  Points on one fiber
       line add up; a colliding projection hides none of them.
    4. Conclusion: deg gcd = k gives k <= tau_Q <= tau_p <= k, so there is
       no unlisted singular point and each known one has length 1: Tjurina
       number 1 (gamma is in J by Euler's formula), an ordinary node.

    This holds for every prime and every m, so a bad draw (a leading
    coefficient that is not constant, a short degree, a gcd raised by a
    tangency) can only reject, and the next attempt draws a fresh m.  So
    can a bad prime, one where gamma mod q gains a singular point or
    vanishes; as each attempt has its own prime, it costs one attempt.  The
    size of the primes only sets how often an attempt rejects.  The entries
    of m are drawn below a 62-bit bound and then reduced mod q, which keeps
    the random stream, and the outputs pinned on it, of a proof modulo one
    random 62-bit prime.
    """
    d = p3_degree(curve) - 1
    if d < 1:
        raise ValueError("expected a curve of degree at least 2")
    for F, moved in _moved_curves(curve, rng, exact):
        c = [p3_partial(F, moved, j) for j in range(3)]
        try:
            r1 = resultant_x3(F, c[0], c[1], d, d)
            r2 = resultant_x3(F, c[0], c[2], d, d)
        except ValueError:
            continue  # a leading x3 coefficient is not a nonzero constant
        if uni_degree(r1) != d * d or uni_degree(r2) != d * d:
            continue  # a common root on the line x2 = 0
        if uni_degree(uni_gcd(F, r1, r2)) == k:
            return True
    return False


def find_unique_common_root(curve, rng: random.Random):
    """Rational singular point of a plane curve that has exactly one.

    Works over Q on the three partials of the curve.  Returns the point as
    a primitive rational triple, or None when the partials do not have
    exactly one common root (up to the retry budget).  The package no
    longer calls it: the net cubic's node comes from a 3x3 kernel.  The
    tests compare the two routes, and the benchmark's tracer names it.
    """
    F = QQ
    polys = [p3_partial(F, curve, j) for j in range(3)]
    degs = [p3_degree(p) for p in polys]
    for _ in range(_TRIES):
        m = _random_invertible(F, partial(QQ.random_element, rng))
        try:
            changed = [p3_linear_change(F, p, m) for p in polys]
            r1 = resultant_x3(F, changed[0], changed[1], degs[0], degs[1])
            r2 = resultant_x3(F, changed[0], changed[2], degs[0], degs[2])
        except (ValueError, ZeroDivisionError):
            continue
        if uni_degree(r1) != degs[0] * degs[1] or uni_degree(r2) != degs[0] * degs[2]:
            continue
        g = uni_squarefree_part(F, uni_gcd(F, r1, r2))
        if uni_degree(g) != 1:
            continue
        v = F.reduce(-g[0] * F.inv(g[1]))
        # recover x3 from the univariate restrictions of the first two curves
        u1 = _restrict_to_fiber(F, changed[0], v)
        u2 = _restrict_to_fiber(F, changed[1], v)
        h = uni_squarefree_part(F, uni_gcd(F, u1, u2))
        if uni_degree(h) != 1:
            continue
        w = F.reduce(-h[0] * F.inv(h[1]))
        pt = _mat3_apply(F, m, (v, F.one, w))
        if all(p3_eval(F, p, pt) == F.zero for p in polys):
            return pt
    return None


def _restrict_to_fiber(F, poly, x1):
    out = [F.zero] * (max((e3 for _, _, e3 in poly), default=0) + 1)
    for (e1, _, e3), c in poly.items():
        out[e3] += c * x1 ** e1
    return _reduced(F, out)


def monomials_of_degree(d: int):
    """All exponent triples of total degree d, in a fixed order."""
    out = []
    for combo in combinations_with_replacement(range(3), d):
        e = [0, 0, 0]
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out
