"""Resultant-based elimination for plane polynomial systems.

Used to certify that a plane curve is singular only at k known points, all
ordinary nodes, and to locate the unique node of a plane cubic.  The
same code runs over Q and over prime fields GF(q); the field is passed
explicitly.  The completeness proof runs over GF(q) for q below 2^15, so
that q^2 < 2^30 and every product of two residues is one 30-bit CPython
digit.
`p3_weights` gives every weight table at an integer point: the values of
the monomials of one degree, or of one of their derivatives.  `p3_jet`, the
value, gradient and Hessian of a form at a point, runs on integers, with no
field, as dot products with cached tables of those weights: it is the one
jet of the node certificates.
`p3_mul`, the product of two forms, runs on integers too: it builds the
determinants of `exactalg.det3_poly`.

A form of degree n in three variables is a dense list of coefficients on
the C(n + 2, 2) monomials of `monomials_of_degree(n)`, in that order, so
its length gives its degree and it is homogeneous by construction.  The
monomials with x1^e1 form one run of n - e1 + 1 entries, x1^n first, with
x3^e3 at offset e3.  Univariate polynomials are coefficient lists, low
degree first.

A field object supplies ``zero``, ``one``, ``reduce``, ``reduce_all`` and
``inv``, and GF(p) also ``inv_all``; sums and products are Python's own
operators on its elements.  ``reduce`` maps such a sum or product back to a
field element: ``v % p`` over GF(p), the identity over Q; ``reduce_all``
does so for a whole list.  Reduction is lazy: a kernel sums unreduced
products and reduces each coefficient once, before it compares it with
``zero``, returns it or uses it as a key.
``inv_all`` inverts a whole list by Montgomery's trick, one modular inverse
and three products per entry, since an inverse mod p costs about as much as
sixteen products.

A resultant is computed by the Euclidean remainder sequence,
Res(b, a) = lc(b)^(deg a - deg r) Res(b, r) for r = a mod b, in O(deg^2)
field operations, instead of a Sylvester determinant: `uni_resultant` for
one pair, over any field.  Over GF(p), `_resultant_rounds` runs many of
them as lanes, one per sample point x = 0 .. n - 1 and resultant: 52 lanes
for a completeness proof's two on a sextic.  Column j of a polynomial holds
its x3^j coefficient in every lane, so each step of the remainder sequences
is one list operation across all lanes.  Its one round type is the normal
round, whose degrees drop by one: one fused pass per remainder column on
pseudo-remainders, with no inverse, and one ``inv_all`` at the end divides
out the leading-coefficient powers they scale by.  A lane whose remainder
drops further, rare on the proofs' curves, leaves the batch for
`uni_resultant`.

Evaluation at the n sample points and interpolation from them are two
fixed n x n matrices times a vector, built once per field and n by
`_sample_maps` and multiplied by `_times`.  Over GF(p), when a sum of n
products of two residues stays below 2^64, the product runs packed
(Kronecker substitution; von zur Gathen and Gerhard, Modern Computer
Algebra, 8.4): a column of the matrix is one integer with its entry for row
i in the 64-bit slot i, so the product is one big-integer multiply-add per
input, read back slot by slot.  Over Q, and over primes too large for that
bound, it is one dot product per row.  The interpolation matrix's entries
already carry the inverse of the common denominator, so over GF(p) each
entry is one residue.

The completeness proof modulo the word primes moves the curve by a fixed
change of coordinates m_i at its attempt i.  So the map from the curve mod
q to the x3-levels of the partials of the moved curve at the sample points
is one fixed linear map per attempt and degree, which `_lane_table` builds
once as two packed tables: the curve to the moved curve, and the moved
curve to the levels.  An attempt is then two packed products, read back by
`_unpack`, and its 52 lanes go to `_resultant_rounds` as they are: their
columns are the x3-levels.  The exact proof, `find_unique_common_root` and
the gcd over Q take the long way, by `p3_linear_change`, `p3_partial` and
`resultant_x3` of `prym6.qpath` (the Q path), which they load on first
use, so no command compiles it.
"""

from __future__ import annotations

import random
import struct
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement, compress
from math import comb, factorial, isqrt, perm
from operator import mul

from .exactalg import QMatrix


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
    def inv(a):
        return Fraction(1) / a

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

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash((GF, self.p))

    def reduce(self, v):
        return v % self.p

    def reduce_all(self, values):
        p = self.p
        return [v % p for v in values]

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
    """The monic gcd of a and b: over Q by `_uni_gcd_q`, over GF(p) by
    Euclid's remainder sequence.  Its normal step, a of degree m + 1 by b of
    degree m >= 1, is one pass, like the fused round of `_resultant_rounds`
    but dividing by lc(b): with
    q1 = lc(a) / lc(b) and q0 = (a_m - q1 b_(m-1)) / lc(b), coefficient j of
    the remainder is a_j - q0 b_j - q1 b_(j-1), reduced once."""
    if F is QQ:
        from .qpath import _uni_gcd_q
        return _uni_gcd_q(a, b)
    p = F.p
    a, b = list(a), list(b)
    while b:
        m = len(b) - 1
        if len(a) == m + 2 and m:
            u = pow(b[m], -1, p)
            q1 = a[m + 1] * u % p
            q0 = (a[m] - q1 * b[m - 1]) * u % p
            r = _trim(F, [(x - q0 * y - q1 * z) % p
                          for x, y, z in zip(a[:m], b, [0] + b)])
        else:
            _, r = uni_divmod(F, a, b)
        a, b = b, r
    return uni_monic(F, a)


def uni_resultant(F, a, b):
    """Determinant of the low-first Sylvester matrix of (a, b).

    That matrix has deg b rows a_0 .. a_n and deg a rows b_0 .. b_m, each
    shifted one column right of the row before, and its determinant is
    (-1)^(deg a deg b) Res(a, b) = Res(b, a).  a and b are nonzero and
    trimmed.  Euclid's remainder sequence from f, g = b, a: with
    r = g mod f of degree k, Res(f, g) = lc(f)^(n - k) Res(f, r) for
    m = deg f and n = deg g, Res(f, 0) = 0 for m > 0,
    Res(f, r) = (-1)^(m k) Res(r, f), and a constant f gives f_0^n.
    """
    f, g, acc = b, a, F.one
    while len(f) > 1:
        r = uni_divmod(F, g, f)[1]
        if not r:
            return F.zero
        m, n, k = len(f) - 1, len(g) - 1, len(r) - 1
        acc = F.reduce(acc * f[-1] ** (n - k) * (-1) ** (m * k))
        f, g = r, f
    return F.reduce(acc * f[0] ** (len(g) - 1))


def _resultant_rounds(F, f, g):
    """Res(f, g) in each lane over GF(p), for f and g as lists of
    coefficient columns, low degree first, where column j holds the x^j
    coefficient of every lane, with deg f = m and m <= deg g = n <= m + 1
    in every lane.  `_word_prime_resultants` hands its 2N lanes here.

    Each round is the normal round of a remainder sequence, one fused pass
    on pseudo-remainders with no inverse: write l = lc(f); with
    c = n - m + 1 and the scaled quotient coefficients Q1 = l g_n and
    Q0 = l g_m - g_n f_(m-1) when n = m + 1, Q1 = 0 and Q0 = g_m when
    n = m, column j of r' = l^c (g mod f) is l^c g_j - Q0 f_j - Q1 f_(j-1),
    one comprehension with one reduction per residue.  Where r' has degree
    m - 1, Res(f, g) = l^(n - m + 1) Res(f, r' / l^c) = Res(r', f) / l^t
    for t = c m - n + m - 1 >= 0, as (-1)^(m (m - 1)) = 1, so the lane's den
    takes l^t and the lane goes on as (r', f), of degrees (m - 1, m).  A
    lane whose remainder has lower degree leaves the batch and takes the
    `uni_resultant` of its original pair.  Once f is a constant f_0, a lane
    answers f_0^n / den, the dens inverted by one ``inv_all`` at the end.
    """
    p, size, f0, g0 = F.p, len(f[0]), f, g
    out, lanes, den = [0] * size, range(size), [1] * size
    while len(f) > 1:
        m, n = len(f) - 1, len(g) - 1
        lead, zero = f[-1], [0] * len(lanes)
        if n > m:
            q1 = [a * u % p for a, u in zip(g[n], lead)]
            q0 = [(a * u - c * b) % p
                  for a, u, c, b in zip(g[m], lead, g[n], f[m - 1])]
            scale = [u * u % p for u in lead]
        else:
            q1, q0, scale = zero, g[m], lead
        r = [[(s * a - c0 * b0 - c1 * b1) % p
              for a, s, c0, b0, c1, b1 in zip(g[j], scale, q0, f[j], q1, below)]
             for j, below in zip(range(m), [zero] + f)]
        t = (n - m + 1) * m - n + m - 1
        if t:
            den = [d * u ** t % p for d, u in zip(den, lead)]
        if 0 in r[-1]:
            for i, v in zip(lanes, r[-1]):
                if not v:
                    out[i] = uni_resultant(F, [col[i] for col in g0],
                                           [col[i] for col in f0])
            kept = [pos for pos, v in enumerate(r[-1]) if v]
            lanes, den = [lanes[pos] for pos in kept], [den[pos] for pos in kept]
            r, f = ([[col[pos] for pos in kept] for col in h] for h in (r, f))
        f, g = r, f
    e = len(g) - 1
    for i, c, v in zip(lanes, f[0], F.inv_all(den)):
        out[i] = c ** e * v % p
    return out


def _packs(F, terms: int) -> bool:
    """Whether a sum of `terms` products of two residues of F fits one
    64-bit slot: the bound under which a matrix over GF(p) with `terms`
    columns multiplies a vector packed."""
    return isinstance(F, GF) and terms * (F.p - 1) ** 2 < 1 << 64


def _unpack(F, packed: int, n: int) -> list[int]:
    """The n 64-bit slots of a nonnegative packed sum, each reduced over F."""
    p = F.p
    return [v % p for v in struct.unpack("<%dQ" % n, packed.to_bytes(8 * n, "little"))]


@lru_cache(maxsize=16)
def _sample_maps(F, n: int):
    """The evaluation and interpolation matrices over F of the n >= 1
    sample points x = 0 .. n - 1: E[x][e] = x^e, and T with row k . y the
    x^k coefficient of the polynomial of degree < n with values y.

    With D = (n - 1)! and w_i = (-1)^(n-1-i) C(n-1, i), the Lagrange basis
    polynomial of the point i is N_i / D for the integer polynomial
    N_i = w_i prod_{j != i} (x - j), since prod_{j != i} (i - j) =
    (-1)^(n-1-i) i! (n-1-i)!.  Each N_i is the master polynomial
    prod_j (x - j) divided by x - i by synthetic division, and
    T[k][x] = N_x[k] / D.  Over GF(p) each entry is one residue; with
    p <= n - 1, D vanishes mod p and ``F.inv`` raises ZeroDivisionError.
    Returns (E, T), each as its n columns packed into 64-bit slots, entry i
    of a column in slot i, when `_packs(F, n)`, and as its n rows otherwise:
    the two forms `_times` multiplies.  A sextic's proofs ask for n = 26
    and the net cubic's for n = 5 over the word primes; the exact checks,
    which no command runs, ask for n = 26 over Q, and for n = 10 on a
    quartic: 18 keys in all.  A command process asks only for the 16 keys
    of the word primes, so 16 entries hold them all; `_lane_table` reads
    the evaluation matrix of the same keys.
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
    inv = F.inv(factorial(n - 1))
    rows = ([F.reduce_all(x ** e for e in range(n)) for x in range(n)],
            [F.reduce_all(v * inv for v in row) for row in zip(*numerators)])
    if _packs(F, n):
        return tuple(tuple(int.from_bytes(struct.pack("<%dQ" % n, *col), "little")
                           for col in zip(*m)) for m in rows)
    return tuple(tuple(map(tuple, m)) for m in rows)


def _times(F, matrix, v):
    """An n x n matrix of `_sample_maps` times the first n entries of v,
    reduced over F: packed (its columns are ints), one multiply-add per
    entry of v, which must be reduced, read back by `_unpack`; otherwise
    one dot product per row."""
    if type(matrix[0]) is int:
        return _unpack(F, sum(map(mul, v, matrix)), len(matrix))
    return F.reduce_all(sum(map(mul, row, v), F.zero) for row in matrix)


def uni_interpolate(F, ys):
    """The polynomial of degree < n that takes the value ys[x] at each
    sample point x = 0 .. n - 1, n = len(ys); no values give the zero
    polynomial.

    One `_times` of the interpolation matrix of `_sample_maps`, whose
    entries already carry the inverse of the common denominator (n - 1)!,
    with the reduced ys.  Over GF(p) with p <= n - 1 two sample points
    coincide mod p, and the call raises ZeroDivisionError.
    """
    if not ys:
        return []
    return _trim(F, _times(F, _sample_maps(F, len(ys))[1], F.reduce_all(ys)))


def det_field(F, m):
    """Determinant over a field, by the Bareiss elimination of `QMatrix`.

    Over GF(p) the entries are ints, and the integer determinant reduced
    mod p is the determinant over GF(p), as reduction mod p is a ring map.
    """
    det = QMatrix(m).det()
    return det if F is QQ else F.reduce(int(det))


# -- trivariate forms as dense lists -----------------------------------

def p3_degree(form) -> int:
    """The degree n of a dense form, from its length C(n + 2, 2); -1 for
    the empty form.  Raises ValueError on any other length."""
    n = (isqrt(8 * len(form) + 1) - 3) // 2
    if (n + 1) * (n + 2) // 2 != len(form):
        raise ValueError(f"no form of any degree has {len(form)} coefficients")
    return n


def p3_weights(point, n: int, d=(0, 0, 0)) -> list[int]:
    """The x^d-derivative, for an exponent triple d, of each monomial of
    `monomials_of_degree(n)` at an integer point: the weights of that
    derivative of a dense form of degree n.  With d = 0, the values, as
    products of powers, which take field elements as well; otherwise the
    product over k of perm(e_k, d_k) x_k^(e_k - d_k), 0 if some d_k > e_k,
    one entry of a falling-factorial power table per coordinate.
    """
    if not any(d):
        a, b, c = point
        return [a ** i * b ** j * c ** k for i, j, k in monomials_of_degree(n)]
    ta, tb, tc = ([perm(e, f) * v ** (e - f) if e >= f else 0
                   for e in range(n + 1)] for v, f in zip(point, d))
    return [ta[i] * tb[j] * tc[k] for i, j, k in monomials_of_degree(n)]


def p3_mul(f, g):
    """The product of two dense integer forms, as a dense form.

    Term i of f times term j of g lands at ``_product_table(a, b)[i][j]``
    for the degrees a and b of f and g.  A product with the empty form is
    the empty form.
    """
    if not f or not g:
        return []
    a, b = p3_degree(f), p3_degree(g)
    out = [0] * ((a + b + 1) * (a + b + 2) // 2)
    for c, row in zip(f, _product_table(a, b)):
        if c:
            for v, k in zip(g, row):
                out[k] += c * v
    return out


@lru_cache(maxsize=None)
def _product_table(a: int, b: int):
    """For each monomial x^e of degree a, the positions of x^e x^f among
    the monomials of degree a + b, for each x^f of degree b in order: the
    index map of a product of dense forms of degrees a and b."""
    pos = {e: i for i, e in enumerate(monomials_of_degree(a + b))}
    return tuple(tuple(pos[e[0] + f[0], e[1] + f[1], e[2] + f[2]]
                       for f in monomials_of_degree(b))
                 for e in monomials_of_degree(a))


def p3_jet(form, point, order: int):
    """(value, gradient, Hessian)[:order + 1] of a dense integer form at an
    int point, in ints, each entry one dot product of the form's terms with
    a row of `_jet_table`, that is, with the `p3_weights` of one derivative;
    the gradient is a triple, the Hessian a triple of rows.
    A coordinate that is not an int raises TypeError: it would round,
    or share the cached table of an equal int.
    """
    if len(point) != 3 or not 0 <= order <= 2:
        raise ValueError("expected a point of P^2 and an order of 0, 1 or 2")
    if any(type(c) is not int for c in point):
        raise TypeError("p3_jet takes a point of int coordinates")
    read, rows = _jet_table(p3_degree(form), tuple(point), order)
    coeffs = list(compress(form, read))
    # the table has no rows past the order; their outputs are cut off
    out = [sum(map(mul, coeffs, row)) for row in rows] + [0] * 9
    h = out[4:]
    return (out[0], tuple(out[1:4]), ((h[0], h[1], h[2]), (h[1], h[3], h[4]),
                                      (h[2], h[4], h[5])))[:order + 1]


@lru_cache(maxsize=16)
def _jet_table(n: int, point: tuple[int, int, int], order: int):
    """The mask of the terms of degree n that a jet of that order reads at
    point, and for the value, the partials and the Hessian entries 00, 01,
    02, 11, 12, 22, up to the order, the `p3_weights` of each term read.
    A term is read when some row weighs it: one of degree above ``order``
    in the point's zero coordinates is not, since each of its derivatives
    keeps a zero coordinate.  The cache is bounded, since
    `node_certificate` takes any point.
    """
    ds = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0),
          (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)][:(1, 4, 10)[order]]
    rows = [p3_weights(point, n, d) for d in ds]
    read = tuple(map(any, zip(*rows)))
    return read, tuple(tuple(compress(row, read)) for row in rows)


def _random_invertible(F, draw):
    """A 3x3 matrix of entries draw(), drawn again while it is singular
    over F."""
    for _ in range(64):
        m = [[draw() for _ in range(3)] for _ in range(3)]
        if F.reduce(sum(map(mul, m[0], _cross(m[1], m[2])))) != F.zero:
            return m
    raise RuntimeError("failed to draw an invertible matrix")


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


#: random changes of coordinates an elimination draws before it gives up
_TRIES = 8

#: the eight largest primes below 2^15, one per attempt of the mod-p proof:
#: q^2 < 2^30, so a product of two residues is one 30-bit CPython digit,
#: and a sextic's 26 sample points pass the slot bound of `_packs`.  Each
#: is above 25, the last sample point of the proof on a sextic
WORD_PRIMES = (32749, 32719, 32717, 32713, 32707, 32693, 32687, 32653)


def _reduce_slots(q: int, forms, size: int) -> list[int]:
    """Each packed form of `size` nonnegative 64-bit slots, with every slot
    reduced mod q: one unpack, one comprehension and one pack for all."""
    words = struct.unpack("<%dQ" % (len(forms) * size),
                          b"".join(f.to_bytes(8 * size, "little") for f in forms))
    raw = struct.pack("<%dQ" % len(words), *[w % q for w in words])
    return [int.from_bytes(raw[r:r + 8 * size], "little")
            for r in range(0, len(raw), 8 * size)]


@lru_cache(maxsize=16)
def _lane_table(i: int, n: int):
    """The two packed maps (T, E) of attempt i of the word-prime proof on a
    curve of degree n >= 2: over GF(q), q = WORD_PRIMES[i], with the fixed
    change of coordinates m_i, the `_random_invertible` of entries
    randrange(q) drawn from random.Random(f"m{i}").

    A form of degree k <= n sits in 64-bit slots, x1^e1 x2^e2 x3^(k-e1-e2)
    in slot e1 (n + 1) + e2, so that the product of two forms is the
    product of their ints (Kronecker substitution), and a slot with
    e1 + e2 > k holds 0.  T[b], for each x^b of `monomials_of_degree(n)` in
    order, is (m_i x)^b, each slot congruent mod q and below 3 (q - 1)^2,
    so sum_b gamma_b T[b] packs gamma o m_i, each slot below
    3 C(n + 2, 2) (q - 1)^3 < 2^64.  The monomials of degree k with e1 > 0
    are x1 times those of degree k - 1, in order, and the rest are x2 times
    the last k of those, then x3^k; so with y_j = (m_i x)_j, each level is
    the one below times y1, y2 and y3 as packed linear forms.  The slots
    are reduced mod q at the levels n - 1, n - 3, ..., so that between two
    reductions they stay below 9 (q - 1)^3 < 2^64, and level n is one
    product past the last.

    E holds, in the slot of x^c for each c of degree n, and for each j with
    c_j > 0 and x^c / x_j = x1^a x2^b x3^e, the value c_j s^a at each of
    the N = (n - 1)^2 + 1 samples s, in slot (j n + e) N + s: the column a of
    the evaluation matrix of `_sample_maps(F, N)`, shifted.  So the
    packed gamma o m_i times E gives, in that slot, the x3^e coefficient of
    its x_j-partial on the chart x2 = 1 at x1 = s, each slot below
    C(n + 2, 2) n (q - 1)^2.  The two maps replace `p3_linear_change`,
    `p3_partial`, `_x3_tower` and `_tower_at_samples`.  A process asks
    for (0, 6), and on a sweep also (0, 3), unless an attempt rejects.
    """
    q = WORD_PRIMES[i]
    F = GF(q)
    m = _random_invertible(F, partial(random.Random(f"m{i}").randrange, q))
    B, N = n + 1, (n - 1) ** 2 + 1
    y1, y2, y3 = (a << 64 * B | b << 64 | c for a, b, c in m)
    T = [1]
    for k in range(1, n + 1):
        T = [f * y1 for f in T] + [f * y2 for f in T[-k:]] + [T[-1] * y3]
        if (n - k) % 2:
            T = _reduce_slots(q, T, k * B + 1)
    powers = _sample_maps(F, N)[0]
    E = [0] * (n * B + 1)
    for c in monomials_of_degree(n):
        for j in range(3):
            if c[j]:
                a, e = c[0] - (j == 0), c[2] - (j == 2)
                E[c[0] * B + c[1]] += c[j] * powers[a] << 64 * N * (j * n + e)
    return tuple(T), tuple(E)


def _levels_at_samples(i: int, form) -> list[list[int]]:
    """The x3-levels of the partials of form o m_i at the sample points, for
    a dense form of degree n reduced mod q = WORD_PRIMES[i]: row j n + e
    holds the x3^e coefficient of d(form o m_i)/dx_j on the chart x2 = 1 at
    x1 = 0 .. (n - 1)^2, mod q.  Two packed products with the maps of
    `_lane_table`."""
    n = p3_degree(form)
    N, F = (n - 1) ** 2 + 1, GF(WORD_PRIMES[i])
    T, E = _lane_table(i, n)
    moved = _unpack(F, sum(map(mul, form, T)), len(E))
    lanes = _unpack(F, sum(map(mul, moved, E)), 3 * n * N)
    return [lanes[r:r + N] for r in range(0, 3 * n * N, N)]


def _word_prime_resultants(curve, rng: random.Random):
    """Attempt i's field GF(q), q = WORD_PRIMES[i], and r1, r2 of the
    curve moved by m_i, for each attempt whose leading x3 coefficients are
    nonzero; an integer curve that reduces to 0 mod q yields nothing.

    The bound and one draw of an m per attempt reached, each entry
    rng.randrange(bound) mod q, are discarded: they only keep the rng
    stream that perfbench/digests.json pins (ROADMAP item 2).
    """
    n = p3_degree(curve)
    N = (n - 1) ** 2 + 1
    bound = rng.getrandbits(62) | 1 << 61 | 1
    for i, q in enumerate(WORD_PRIMES):
        reduced = [c % q for c in curve]
        if not any(reduced):
            continue
        F = GF(q)
        _random_invertible(F, lambda: rng.randrange(bound) % q)
        levels = _levels_at_samples(i, reduced)
        if not all(levels[j * n + n - 1][0] for j in range(3)):
            continue  # a leading x3 coefficient is 0
        # Res(c0, c1) and Res(c0, c2) at the N samples: 2N lanes, all of
        # degrees (n - 1, n - 1), their columns the x3-levels
        values = _resultant_rounds(
            F, [levels[n + e] + levels[2 * n + e] for e in range(n)],
            [levels[e] * 2 for e in range(n)])
        yield F, uni_interpolate(F, values[:N]), uni_interpolate(F, values[N:])


def only_known_common_roots(curve, k: int, rng: random.Random,
                            exact: bool = False) -> bool:
    """Certify that a plane curve has no singular points beyond k known ones,
    each an ordinary node.

    Precondition, checked by the caller: the curve has k distinct singular
    points.  curve, gamma, is a dense form of degree n >= 2 with integer
    coefficients, in both modes.
    Each attempt works over its own field with its own invertible m: if
    exact, Q and a fresh m drawn from rng; otherwise attempt i is over
    GF(q) for q = WORD_PRIMES[i], with gamma reduced mod q (a reduction
    that is 0 rejects the attempt), and m is the fixed m_i of
    `_lane_table`.  It moves the curve to gamma o m and sets
    c_j = d(gamma o m)/dx_j, forms of degree d = n - 1 that generate the
    Jacobian ideal J of gamma o m.  It accepts when r1 = Res_x3(c0, c1) and
    r2 = Res_x3(c0, c2), on the chart x2 = 1, have full degree d^2 and
    deg gcd(r1, r2) = k.  Let Z be the scheme of J over the closure of the
    field, tau_p its length and tau_Q the length of the scheme over Q-bar.

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

    This holds for every prime and every m, so the fixed m_i need no
    randomness: a bad m (a leading coefficient that is 0, a short degree, a
    gcd raised by a tangency) can only reject, and the next attempt has
    another prime and another m.  So can a bad prime, one where gamma mod q
    gains a singular point or vanishes; it costs one attempt.  The size of
    the primes only sets how often an attempt rejects, and the word-prime
    verdict is a function of the curve and k.  It still draws a 62-bit
    bound and, for each attempt reached, the entries of an m from rng, and
    discards them: a stream pin that keeps the outputs pinned on it, those
    of a proof modulo one random 62-bit prime.
    """
    d = p3_degree(curve) - 1
    if d < 1:
        raise ValueError("expected a curve of degree at least 2")
    if exact:
        from .qpath import _exact_resultants
        attempts = _exact_resultants(curve, rng)
    else:
        attempts = _word_prime_resultants(curve, rng)
    for F, r1, r2 in attempts:
        if uni_degree(r1) != d * d or uni_degree(r2) != d * d:
            continue  # a common root on the line x2 = 0
        if uni_degree(uni_gcd(F, r1, r2)) == k:
            return True
    return False


def find_unique_common_root(curve, rng: random.Random):
    """Rational singular point of a plane curve that has exactly one.

    Works over Q on the three partials of curve, a dense form with rational
    coefficients.  Returns the point as a rational triple, or None when
    the partials do not have exactly one common root (up to the retry
    budget).  The package no longer calls it: the net cubic's node comes
    from a 3x3 kernel.  The tests compare the two routes, and the
    benchmark's tracer names it.
    """
    from .qpath import (_mat3_apply, _restrict_to_fiber, p3_eval,
                        p3_linear_change, p3_partial, resultant_x3,
                        uni_squarefree_part)

    F = QQ
    polys = [p3_partial(F, curve, j) for j in range(3)]
    d = p3_degree(curve) - 1
    for _ in range(_TRIES):
        m = _random_invertible(F, partial(QQ.random_element, rng))
        try:
            changed = [p3_linear_change(F, p, m) for p in polys]
            r1, r2 = resultant_x3(F, changed[0], changed[1:])
        except (ValueError, ZeroDivisionError):
            continue
        if uni_degree(r1) != d * d or uni_degree(r2) != d * d:
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


def __getattr__(name):
    """The two functions of `prym6.qpath` that perfbench/tracer.py spans
    under this module's name (ROADMAP item 1b), loading it on first use."""
    if name in ("resultant_x3", "p3_linear_change"):
        from . import qpath
        return getattr(qpath, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@lru_cache(maxsize=None)
def monomials_of_degree(d: int) -> tuple[tuple[int, int, int], ...]:
    """All exponent triples of total degree d, in a fixed order."""
    out = []
    for combo in combinations_with_replacement(range(3), d):
        e = [0, 0, 0]
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return tuple(out)
