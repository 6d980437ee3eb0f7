"""Resultant-based elimination for plane polynomial systems.

Used to certify that the singular locus of a plane curve contains no points
beyond a known list, and to locate the unique node of a plane cubic.  The
same code runs over Q (exact mode) and over a large prime field
(probabilistic mode); the field is passed explicitly.

Polynomials in three variables are plain dicts mapping exponent triples to
field elements; univariate polynomials are coefficient lists, low degree
first.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement


class QQ:
    """The rational field, as a field object."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def from_rational(v):
        return Fraction(v)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return Fraction(1) / a

    @staticmethod
    def random_element(rng: random.Random):
        return Fraction(rng.randint(-30, 30))


class GF:
    """Prime field GF(p) on plain ints in [0, p)."""

    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def from_rational(self, v):
        v = Fraction(v)
        if v.denominator % self.p == 0:
            raise ZeroDivisionError("denominator vanishes mod p")
        return v.numerator * pow(v.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def random_element(self, rng: random.Random):
        return rng.randrange(self.p)


# -- primes ------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (covers 62-bit inputs)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime_ge_2_61(rng: random.Random) -> int:
    n = rng.getrandbits(62) | (1 << 61) | 1
    while not is_probable_prime(n):
        n += 2
    return n


# -- univariate polynomials over a field -------------------------------

def _trim(F, c):
    while c and c[-1] == F.zero:
        c.pop()
    return c


def uni_degree(c) -> int:
    return len(c) - 1  # -1 for the zero polynomial


def uni_eval(F, c, x):
    acc = F.zero
    for coeff in reversed(c):
        acc = F.add(F.mul(acc, x), coeff)
    return acc


def uni_mul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == F.zero:
            continue
        for j, bj in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return _trim(F, out)


def uni_divmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [F.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = F.inv(b[-1])
    for k in range(len(a) - len(b), -1, -1):
        f = F.mul(a[k + len(b) - 1], inv_lead)
        if f == F.zero:
            continue
        q[k] = f
        for j, bj in enumerate(b):
            a[k + j] = F.sub(a[k + j], F.mul(f, bj))
    return _trim(F, q), _trim(F, a)


def uni_monic(F, a):
    if not a:
        return a
    inv = F.inv(a[-1])
    return [F.mul(inv, v) for v in a]


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
    return _trim(F, [F.mul(i, a[i]) for i in range(1, len(a))])


def uni_squarefree_part(F, a):
    d = uni_derivative(F, a)
    if not d:
        return uni_monic(F, a)
    g = uni_gcd(F, a, d)
    q, r = uni_divmod(F, a, g)
    assert not r
    return uni_monic(F, q)


def uni_interpolate(F, points):
    """Lagrange interpolation through (x, y) pairs with distinct x.

    The master polynomial prod (x - x_j) is built once; each Lagrange
    numerator is its quotient by (x - x_i), by synthetic division, so the
    whole interpolation takes O(n^2) field operations.
    """
    master = [F.one]
    for xj, _ in points:
        master = [F.sub(a, F.mul(xj, b))
                  for a, b in zip([F.zero] + master, master + [F.zero])]
    result = [F.zero] * len(points)
    for xi, yi in points:
        if yi == F.zero:
            continue
        num = [F.zero] * len(points)
        carry = F.zero
        for k in range(len(points), 0, -1):
            carry = F.add(master[k], F.mul(xi, carry))
            num[k - 1] = carry
        den = F.one
        for xj, _ in points:
            if xj != xi:
                den = F.mul(den, F.sub(xi, xj))
        scale = F.mul(yi, F.inv(den))
        result = [F.add(r, F.mul(scale, v)) for r, v in zip(result, num)]
    return _trim(F, result)


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

def p3_from_terms(F, terms) -> dict:
    out = {}
    for exp, c in terms.items():
        v = F.from_rational(c)
        if v != F.zero:
            out[tuple(exp)] = v
    return out


def p3_degree(poly) -> int:
    return max((sum(e) for e in poly), default=-1)


def p3_eval(F, poly, pt):
    acc = F.zero
    for (e1, e2, e3), c in poly.items():
        v = c
        for coord, e in zip(pt, (e1, e2, e3)):
            for _ in range(e):
                v = F.mul(v, coord)
        acc = F.add(acc, v)
    return acc


def p3_linear_change(F, poly, m):
    """Substitute x_i -> sum_j m[i][j] x_j."""
    lin = [{(1 if k == 0 else 0, 1 if k == 1 else 0, 1 if k == 2 else 0): m[i][k]
            for k in range(3) if m[i][k] != F.zero} for i in range(3)]
    pow_cache: list[dict[int, dict]] = [{0: {(0, 0, 0): F.one}} for _ in range(3)]

    def power(i, e):
        cache = pow_cache[i]
        if e not in cache:
            cache[e] = _p3_mul(F, power(i, e - 1), lin[i])
        return cache[e]

    out: dict = {}
    for (e1, e2, e3), c in poly.items():
        term = {(0, 0, 0): c}
        for i, e in enumerate((e1, e2, e3)):
            if e:
                term = _p3_mul(F, term, power(i, e))
        for exp, v in term.items():
            acc = F.add(out.get(exp, F.zero), v)
            if acc == F.zero:
                out.pop(exp, None)
            else:
                out[exp] = acc
    return out


def _p3_mul(F, a, b):
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            acc = F.add(out.get(e, F.zero), F.mul(ca, cb))
            if acc == F.zero:
                out.pop(e, None)
            else:
                out[e] = acc
    return out


def _x3_tower(F, poly, deg3: int):
    """Coefficients of x3^k after setting x2 = 1, as univariates in x1."""
    tower = [dict() for _ in range(deg3 + 1)]
    for (e1, e2, e3), c in poly.items():
        level = tower[e3]
        level[e1] = F.add(level.get(e1, F.zero), c)
    out = []
    for level in tower:
        if level:
            coeffs = [F.zero] * (max(level) + 1)
            for e1, c in level.items():
                coeffs[e1] = c
            out.append(_trim(F, coeffs))
        else:
            out.append([])
    return out


def _sylvester_det(F, fc, gc, d1, d2):
    n = d1 + d2
    m = [[F.zero] * n for _ in range(n)]
    for i in range(d2):
        for j, c in enumerate(fc):
            m[i][i + j] = c
    for i in range(d1):
        for j, c in enumerate(gc):
            m[d2 + i][i + j] = c
    return det_field(F, m)


def resultant_x3(F, f, g, d1, d2, sample_offset=0):
    """Res_{x3}(f, g) on the chart x2 = 1, by evaluation/interpolation.

    f and g are trivariate exponent dicts with formal x3-degrees d1 and d2
    (their top x3 coefficients must be nonzero constants).  The result is a
    univariate polynomial in x1 of degree at most d1*d2.
    """
    tf = _x3_tower(F, f, d1)
    tg = _x3_tower(F, g, d2)
    if uni_degree(tf[d1]) != 0 or uni_degree(tg[d2]) != 0:
        raise ValueError("leading x3 coefficient is not a nonzero constant")
    bound = d1 * d2
    pts = []
    for k in range(bound + 1):
        x = F.from_rational(sample_offset + k)
        fc = [uni_eval(F, level, x) for level in tf]
        gc = [uni_eval(F, level, x) for level in tg]
        # pad formal degrees
        fc = fc + [F.zero] * (d1 + 1 - len(fc))
        gc = gc + [F.zero] * (d2 + 1 - len(gc))
        pts.append((x, _sylvester_det(F, fc, gc, d1, d2)))
    return uni_interpolate(F, pts)


def _random_invertible(F, rng):
    for _ in range(64):
        m = [[F.random_element(rng) for _ in range(3)] for _ in range(3)]
        det = F.sub(
            F.add(F.add(F.mul(m[0][0], F.sub(F.mul(m[1][1], m[2][2]), F.mul(m[1][2], m[2][1]))),
                        F.mul(m[0][2], F.sub(F.mul(m[1][0], m[2][1]), F.mul(m[1][1], m[2][0])))),
                  F.zero),
            F.mul(m[0][1], F.sub(F.mul(m[1][0], m[2][2]), F.mul(m[1][2], m[2][0]))))
        if det != F.zero:
            return m, det
    raise RuntimeError("failed to draw an invertible matrix")


def _mat3_inverse(F, m, det):
    inv_det = F.inv(det)
    cof = [[None] * 3 for _ in range(3)]
    idx = ((0, 1, 2), (0, 1, 2))
    for i in range(3):
        for j in range(3):
            r = [a for a in idx[0] if a != i]
            c = [a for a in idx[1] if a != j]
            minor = F.sub(F.mul(m[r[0]][c[0]], m[r[1]][c[1]]),
                          F.mul(m[r[0]][c[1]], m[r[1]][c[0]]))
            sign = minor if (i + j) % 2 == 0 else F.neg(minor)
            cof[j][i] = F.mul(sign, inv_det)
    return cof


def _mat3_apply(F, m, v):
    return tuple(
        F.add(F.add(F.mul(m[i][0], v[0]), F.mul(m[i][1], v[1])), F.mul(m[i][2], v[2]))
        for i in range(3))


def only_known_common_roots(F, polys, known_points, rng: random.Random,
                            tries: int = 8) -> bool:
    """Certify that three plane curves meet only at the listed points.

    polys are homogeneous trivariate exponent dicts over F; known_points are
    projective points with rational coordinates.  After a random change of
    coordinates, every common root projects to a common root of two
    x3-resultants; dividing out the known projections must leave a constant.
    Structural bad luck (degree drop, spurious projection collisions)
    triggers a retry with a fresh change of coordinates; a genuine extra
    common root makes every attempt fail.
    """
    degs = [p3_degree(p) for p in polys]
    known = [tuple(F.from_rational(c) for c in pt) for pt in known_points]
    for _ in range(tries):
        m, det = _random_invertible(F, rng)
        minv = _mat3_inverse(F, m, det)
        try:
            changed = [p3_linear_change(F, p, m) for p in polys]
            r1 = resultant_x3(F, changed[0], changed[1], degs[0], degs[1])
            r2 = resultant_x3(F, changed[0], changed[2], degs[0], degs[2])
        except (ValueError, ZeroDivisionError):
            continue
        if uni_degree(r1) != degs[0] * degs[1] or uni_degree(r2) != degs[0] * degs[2]:
            continue  # root at infinity of the chart; re-randomize
        g = uni_gcd(F, r1, r2)
        ok = True
        for pt in known:
            q = _mat3_apply(F, minv, pt)
            if q[1] == F.zero:
                ok = False
                break
            v = F.mul(q[0], F.inv(q[1]))
            while uni_degree(g) >= 1 and uni_eval(F, g, v) == F.zero:
                g, r = uni_divmod(F, g, [F.neg(v), F.one])
                assert not r
        if not ok:
            continue
        if uni_degree(g) <= 0:
            return True
        # leftover factor: either an extra common root or a projection
        # collision; retry distinguishes the two
    return False


def find_unique_common_root(polys, rng: random.Random, tries: int = 8):
    """Rational common root of three plane curves meeting in a single point.

    Works over Q.  Returns the point as a primitive rational triple, or
    None when the system does not have exactly one common root (up to the
    retry budget).
    """
    F = QQ
    degs = [p3_degree(p) for p in polys]
    for _ in range(tries):
        m, det = _random_invertible(F, rng)
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
        v = F.neg(F.mul(g[0], F.inv(g[1])))
        # recover x3 from the univariate restrictions of the first two curves
        u1 = _restrict_to_fiber(F, changed[0], v)
        u2 = _restrict_to_fiber(F, changed[1], v)
        h = uni_squarefree_part(F, uni_gcd(F, u1, u2))
        if uni_degree(h) != 1:
            continue
        w = F.neg(F.mul(h[0], F.inv(h[1])))
        pt = _mat3_apply(F, m, (v, F.one, w))
        if all(p3_eval(F, p, pt) == F.zero for p in polys):
            return pt
    return None


def _restrict_to_fiber(F, poly, x1):
    out: dict[int, object] = {}
    for (e1, e2, e3), c in poly.items():
        v = c
        for _ in range(e1):
            v = F.mul(v, x1)
        out[e3] = F.add(out.get(e3, F.zero), v)
    coeffs = [F.zero] * (max(out, default=0) + 1)
    for e, c in out.items():
        coeffs[e] = c
    return _trim(F, coeffs)


def monomials_of_degree(d: int):
    """All exponent triples of total degree d, in a fixed order."""
    out = []
    for combo in combinations_with_replacement(range(3), d):
        e = [0, 0, 0]
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out
