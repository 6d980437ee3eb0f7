"""Intersection rings for the geometry of 4-nodal conic bundles.

Four tiny graded rings are enough: products of projective spaces, the
degree-5 del Pezzo surface S (the plane blown up in four points), the
P^2-bundle P over S carrying the conic bundles, and the divisor monomials
on the blown-up S x P^2, integrated by the blow-up intersection table.
Their classes are `ChowClass`es, exact vectors over the ring's basis.  On
top of them sit the Riemann-Roch engine for O_P(d) and the Euler-number
bookkeeping behind the count of 77 singular members and 32 double lines in
a pencil.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial
from operator import add, gt, index
from typing import Mapping, Sequence

from .exactalg import QVector


class ChowClass(QVector):
    """Element of a Chow ring: a rational combination of basis monomials.

    A `QVector` whose space is its ring.  A product adds each pair of terms
    into one dict through the ring's ``mul_into``, whose structure constants
    are integers, and reduces once per result.  An intersection number is a
    `pairing`, read from the ring's ``integral`` with no product formed.
    """

    __slots__ = ()

    ring = QVector.space

    def _product(self, other):
        mul_into = self.ring.mul_into
        out: dict = {}
        for k1, n1 in self.nums.items():
            for k2, n2 in other.nums.items():
                mul_into(out, k1, k2, n1 * n2)
        return self._like(out, self.den * other.den, other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("Chow classes have no negative powers")
        if n == 0:
            return self.ring.one()
        acc = self
        for _ in range(n - 1):
            acc = acc * self
        return acc

    def integrate(self) -> Fraction:
        return self.ring.integrate(self)

    def pairing(self, other: "ChowClass") -> Fraction:
        """The integral of self * other, summed over pairs of terms with the
        ring's intersection form; no class, dict or reduction is built."""
        if not self._matches(other):
            raise TypeError(f"cannot pair a Chow class with {other!r}")
        integral = self.ring.integral
        return Fraction(sum(n1 * n2 * integral(k1, k2)
                            for k1, n1 in self.nums.items()
                            for k2, n2 in other.nums.items()),
                        self.den * other.den)


class ProductProjectiveRing:
    """CH of a product of projective spaces P^{d_1} x ... x P^{d_k}."""

    def __init__(self, dims):
        self.dims = tuple(map(index, dims))
        if any(d < 1 for d in self.dims):
            raise ValueError("each factor must have dimension >= 1")

    def h(self, i: int) -> ChowClass:
        exp = [0] * len(self.dims)
        exp[i] = 1
        return ChowClass.from_ints(self, {tuple(exp): 1})

    def one(self) -> ChowClass:
        return ChowClass.from_ints(self, {(0,) * len(self.dims): 1})

    def mul_into(self, out: dict, k1, k2, n: int) -> None:
        """Add n times the basis product k1 * k2 to out."""
        k = tuple(map(add, k1, k2))
        if not any(map(gt, k, self.dims)):
            out[k] = out.get(k, 0) + n

    def integrate(self, cls: ChowClass) -> Fraction:
        return Fraction(cls.nums.get(self.dims, 0), cls.den)

    def integral(self, k1, k2) -> int:
        """The integral of the basis product k1 * k2."""
        return 1 if tuple(map(add, k1, k2)) == self.dims else 0


class DelPezzoRing:
    """CH of the quintic del Pezzo surface S = Bl_4 P^2.

    Basis {1; L, E1..E4; pt} with L^2 = pt, Ei^2 = -pt, L.Ei = 0.
    """

    basis = ("1", "L", "E1", "E2", "E3", "E4", "pt")
    picard_rank = 5

    def L(self) -> ChowClass:
        return ChowClass.from_ints(self, {"L": 1})

    def E(self, i: int) -> ChowClass:
        if type(i) is not int:
            raise TypeError(f"an exceptional index is an int, not {i!r}")
        if not 1 <= i <= 4:
            raise ValueError("exceptional index out of range")
        return ChowClass.from_ints(self, {f"E{i}": 1})

    def pt(self) -> ChowClass:
        return ChowClass.from_ints(self, {"pt": 1})

    def one(self) -> ChowClass:
        return ChowClass.from_ints(self, {"1": 1})

    def canonical(self) -> ChowClass:
        return ChowClass.from_ints(
            self, {"L": -3, "E1": 1, "E2": 1, "E3": 1, "E4": 1})

    def euler_number(self) -> int:
        # b0 + b2 + b4 with b2 = Picard rank
        return 2 + self.picard_rank

    def product_key(self, k1, k2) -> tuple[str, int] | None:
        """(key, sign) with k1 * k2 = sign * key, or None when it is 0: 1
        is the unit, L^2 = pt, Ei^2 = -pt, and every other product is 0."""
        if k1 == "1":
            return k2, 1
        if k2 == "1":
            return k1, 1
        if k1 != k2 or k1 == "pt":
            return None
        return "pt", 1 if k1 == "L" else -1

    def mul_into(self, out: dict, k1, k2, n: int) -> None:
        """Add n times the basis product k1 * k2 to out."""
        term = self.product_key(k1, k2)
        if term is not None:
            out[term[0]] = out.get(term[0], 0) + term[1] * n

    def integrate(self, cls: ChowClass) -> Fraction:
        return Fraction(cls.nums.get("pt", 0), cls.den)

    def integral(self, k1, k2) -> int:
        """The integral of the basis product k1 * k2."""
        term = self.product_key(k1, k2)
        return term[1] if term is not None and term[0] == "pt" else 0


class ProjectiveBundleRing:
    """CH of the P^2-bundle P(M) -> S carrying the 4-nodal conic bundles.

    M is the rank-3 bundle on the quintic del Pezzo surface S with
    c1(M) = -K_S and c2(M) = 3 times the point class (c3 = 0); ``base`` is
    S and ``c1``, ``c2`` hold these Chern classes.  Basis monomials are
    zeta^a * s with a <= 2 and s a basis class of the base.  The sign
    convention is pinned so that the top self-intersection of zeta equals
    the Segre number c1(M)^2 - c2(M) = 2; concretely
    zeta^3 = c1.zeta^2 - c2.zeta.

    The ring derives zeta^a * s for a = 3, 4 and each basis class s with
    a + codim s <= 4 once, when it is built, from
    zeta^a s = zeta^(a-1) (c1 s) - zeta^(a-2) (c2 s), and keeps these 7
    integer rows in ``_zeta_rows``; every product above degree 4 is 0.  A
    product of basis monomials is then one key and sign from
    `DelPezzoRing.product_key` and one key or row, added into the caller's
    dict, with no dict built per pair, and its integral is the row's
    zeta^2 pt entry.  The Hilbert coefficients behind `hrr_chi` are kept per
    ring as a `QVector` over the powers of d, never as a ChowClass, so a
    ring and its classes form no reference cycle.
    """

    c2 = 3

    def __init__(self):
        S = self.base = DelPezzoRing()
        self.c1 = -S.canonical()
        self._hilbert: QVector | None = None
        self._zeta_rows: dict = {}
        # zeta^a s = zeta^(a-1) (c1 s) - zeta^(a-2) (c2 s), with c1 and
        # c2 pt integer classes (den 1)
        relation = ((1, self.c1), (2, -self.c2 * S.pt()))
        # the basis runs 1, the divisors, pt: zeta^3 s for s of codim <= 1,
        # then zeta^4, which reads the zeta^3 rows
        for a, keys in ((3, S.basis[:-1]), (4, S.basis[:1])):
            for s in keys:
                row: dict = {}
                for drop, cls in relation:
                    for sk, n in cls.nums.items():
                        self.mul_into(row, (a - drop, s), (0, sk), n)
                self._zeta_rows[a, s] = {k: v for k, v in row.items() if v}

    def zeta(self) -> ChowClass:
        return ChowClass.from_ints(self, {(1, "1"): 1})

    def pull(self, cls: ChowClass) -> ChowClass:
        if cls.ring is not self.base:
            raise ValueError("can only pull back classes from the base")
        return ChowClass.from_ints(
            self, {(0, k): n for k, n in cls.nums.items()}, cls.den)

    def one(self) -> ChowClass:
        return ChowClass.from_ints(self, {(0, "1"): 1})

    def mul_into(self, out: dict, k1, k2, n: int) -> None:
        """Add n times the basis product k1 * k2 to out."""
        term = self.base.product_key(k1[1], k2[1])
        if term is None:
            return
        s, sign = term
        a, c = k1[0] + k2[0], sign * n
        if a <= 2:
            out[a, s] = out.get((a, s), 0) + c
        elif row := self._zeta_rows.get((a, s)):  # none above degree 4
            for key, r in row.items():
                out[key] = out.get(key, 0) + c * r

    def integral(self, k1, k2) -> int:
        """The integral of the basis product k1 * k2."""
        term = self.base.product_key(k1[1], k2[1])
        if term is None:
            return 0
        s, sign = term
        a = k1[0] + k2[0]
        if a <= 2:
            return sign if (a, s) == (2, "pt") else 0
        row = self._zeta_rows.get((a, s))  # none above degree 4
        return sign * row.get((2, "pt"), 0) if row else 0

    def integrate(self, cls: ChowClass) -> Fraction:
        return Fraction(cls.nums.get((2, "pt"), 0), cls.den)


# -- blow-up intersection table -------------------------------------------

def blowup_intersection_table() -> dict[tuple[int, int, int, int], int]:
    """Top intersection numbers of (N, H, H1, H2) on the blown-up S x P^2.

    N is the sum of the four exceptional divisors over the curves
    E_i x {u_i}; H, H1, H2 pull back -K_S, L and the P^2 hyperplane.  By
    the blow-up formula (Fulton, Intersection Theory, 6.7) only three
    families are nonzero: N^4 = -4, N^3.H = 4, and the N-free monomials
    (-K_S)^h L^(2-h) times a point of P^2, integrated on S.  Every entry
    is an int: an intersection number on S that is not an integer raises
    `ArithmeticError`.
    """
    S = DelPezzoRing()
    mk, line = -S.canonical(), S.L()
    table = {(n, h, h1, 4 - n - h - h1): 0
             for n in range(5) for h in range(5 - n) for h1 in range(5 - n - h)}
    table[4, 0, 0, 0] = -4  # N_i^4 = -1 per centre
    table[3, 1, 0, 0] = 4   # N_i^3 . H = (-K_S).E_i = 1 per centre
    for h, (x, y) in enumerate(((line, line), (mk, line), (mk, mk))):
        v = x.pairing(y)  # (-K_S)^h L^(2-h)
        if v.denominator != 1:
            raise ArithmeticError(
                f"intersection number {v} on S is not an integer")
        table[0, h, 2 - h, 2] = v.numerator
    return table


#: count-tuple key of each divisor generator of `BlowupRing`
_BLOWUP_GENERATORS = {"N": (1, 0, 0, 0), "H": (0, 1, 0, 0),
                      "H1": (0, 0, 1, 0), "H2": (0, 0, 0, 1)}


class BlowupRing:
    """Divisor monomials on the blown-up S x P^2, integrated by the table.

    The monomial N^n H^h H1^h1 H2^h2 is keyed by its count tuple
    (n, h, h1, h2).  A product adds count tuples and drops those of degree
    above 4, and `integrate` reads the degree-4 part against ``table``, the
    `blowup_intersection_table`.  No relation is imposed below degree 4, so
    only integrals are intersection numbers.
    """

    def __init__(self):
        self.table = blowup_intersection_table()

    @cached_property
    def zeta4(self) -> Fraction:
        """The integral of zeta^4, computed on first use and kept by the
        ring: K_B^2 and the blow-up route of deg h both read it."""
        return intersection_number([self.zeta()] * 4)

    def divisor(self, coeffs: Mapping[str, int | Fraction]) -> ChowClass:
        """The divisor with the given coefficients on N, H, H1 and H2."""
        unknown = sorted(set(coeffs) - set(_BLOWUP_GENERATORS))
        if unknown:
            raise ValueError(f"unknown divisor keys {unknown}; "
                             f"expected a subset of {list(_BLOWUP_GENERATORS)}")
        return ChowClass(self, {_BLOWUP_GENERATORS[name]: c
                                for name, c in coeffs.items()})

    def zeta(self) -> ChowClass:
        """zeta = H1 + H2 - N, the class of O_P(1) on the bundle P."""
        return self.divisor({"H1": 1, "H2": 1, "N": -1})

    def one(self) -> ChowClass:
        return ChowClass.from_ints(self, {(0, 0, 0, 0): 1})

    def mul_into(self, out: dict, k1, k2, n: int) -> None:
        """Add n times the basis product k1 * k2 to out."""
        k = tuple(map(add, k1, k2))
        if sum(k) <= 4:
            out[k] = out.get(k, 0) + n

    def integrate(self, cls: ChowClass) -> Fraction:
        table = self.table
        return Fraction(sum(n * table[k] for k, n in cls.nums.items()
                            if sum(k) == 4), cls.den)

    def integral(self, k1, k2) -> int:
        """The integral of the basis product k1 * k2."""
        return self.table.get(tuple(map(add, k1, k2)), 0)


def intersection_number(divisors: Sequence[ChowClass]) -> Fraction:
    """The product of four divisors of one `BlowupRing`, integrated."""
    a, b, c, d = divisors  # ValueError unless there are four
    return (a * b).pairing(c * d)


def verify_deg_h_two_ways(X: BlowupRing, P: ProjectiveBundleRing
                          ) -> tuple[Fraction, Fraction]:
    """deg of the half-anticanonical double cover P -> P^4, two routes.

    Route one reads ``X.zeta4``, zeta^4 = (H1 + H2 - N)^4 integrated
    against the blow-up table once per ring, as `kb_squared` does; route
    two pairs zeta^2 with itself in the projective bundle ring.  Both should
    equal 2; the `verify` report checks each.
    """
    z2 = P.zeta() * P.zeta()
    return X.zeta4, z2.pairing(z2)


# -- canonical classes ------------------------------------------------------

def canonical_classes(X: BlowupRing) -> tuple[ChowClass, ChowClass]:
    """(K_P, K_B) as divisors of X over H1, H2 and N on the bundle P.

    K_P comes from pushing the blow-up canonical class forward and
    eliminating H via the relation H = 3H1 - N (valid on P, where the
    contracted divisors are gone).  K_B is checked against adjunction for
    the base surface B of a pencil: K_B = (K_P + 4 zeta)|_B = zeta.
    """
    # upstairs K = pullback(K_S x K_{P^2}) + 2N = -H - 3H2 + 2N, and on P
    # the relation H = 3H1 - N eliminates H
    h_on_P = X.divisor({"H1": 3, "N": -1})
    kp = X.divisor({"H2": -3, "N": 2}) - h_on_P
    zeta = X.zeta()
    kb = kp + 4 * zeta
    if kb != zeta:
        raise ArithmeticError("adjunction K_B = zeta|_B fails")
    return kp, kb


def kb_squared(X: BlowupRing) -> Fraction:
    """K_B^2 = 4 zeta^4 = 8 for the base surface of a pencil."""
    return 4 * X.zeta4


# -- Riemann-Roch on P -------------------------------------------------------

def tangent_chern_classes(P: ProjectiveBundleRing) -> tuple[ChowClass, ...]:
    """c1..c4 of the tangent bundle of P, from the relative Euler sequence.

    c(T_P) = c(pi^* M^dual tensor O_P(1)) . c(pi^* T_S), with c1(T_S) =
    -K_S and c2(T_S) = e(S) pt.  The first factor's classes are rel1, rel2
    and zeta^3 - c1 zeta^2 + c2 zeta, which is 0 by the bundle relation.
    """
    S = P.base
    z = P.zeta()
    c1m = P.pull(P.c1)
    c2m = P.c2 * P.pull(S.pt())
    z2 = z * z
    rel1 = 3 * z - c1m
    rel2 = 3 * z2 - 2 * z * c1m + c2m
    ts1 = P.pull(-S.canonical())
    ts2 = S.euler_number() * P.pull(S.pt())
    c1 = rel1 + ts1
    c2 = rel2 + rel1 * ts1 + ts2
    c3 = rel2 * ts1 + rel1 * ts2
    c4 = rel2 * ts2
    return c1, c2, c3, c4


def hrr_chi(P: ProjectiveBundleRing, d: int) -> Fraction:
    """chi(O_P(d)) by Riemann-Roch, evaluated as the Hilbert polynomial.

    ch(O_P(d)) = sum_k d^k zeta^k / k!, so the integral of ch(O_P(d)).Td(T_P)
    is the quartic sum_k c_k d^k with c_k = integral of zeta^k.Td(T_P) / k!.
    zeta^k meets only the codimension-(4 - k) Todd class td_(4-k) in degree
    4, and each c_k is a sum of pairings of Chern classes of T_P: td_1 =
    c1/2, td_2 = (c1^2 + c2)/12, td_3 = c1 c2/24, and td_4 is never formed,
    its integral being (-c1^2.c1^2 + 4 c1^2.c2 + 3 c2.c2 + c1.c3 - c4)/720.
    The five c_k are computed once per ring, on first use, and kept as
    integer numerators over one denominator.  A twist d that is not an int
    raises TypeError: the polynomial's value there is no Euler
    characteristic.
    """
    if type(d) is not int:
        raise TypeError(f"a twist is an int, not {d!r}")
    if P._hilbert is None:
        c1, c2, c3, c4 = tangent_chern_classes(P)
        z = P.zeta()
        z2, zc1, c11 = z * z, z * c1, c1 * c1
        integrals = (  # of zeta^k td_(4-k), k = 0..4
            (-c11.pairing(c11) + 4 * c11.pairing(c2) + 3 * c2.pairing(c2)
             + c1.pairing(c3) - c4.integrate()) / 720,
            zc1.pairing(c2) / 24, z2.pairing(c11 + c2) / 12,
            z2.pairing(zc1) / 2, z2.pairing(z2))
        P._hilbert = QVector("d^k", {k: v / factorial(k)
                                     for k, v in enumerate(integrals)})
    h = P._hilbert
    return Fraction(sum(n * d ** k for k, n in h.nums.items()), h.den)


def koszul_chi_B(P: ProjectiveBundleRing) -> Fraction:
    """chi(O_B) for the base surface of a pencil in |O_P(2)|, via Koszul.

    B is the complete intersection of two members, so
    chi(O_B) = chi(O_P) - 2 chi(O_P(-2)) + chi(O_P(-4)).
    """
    return hrr_chi(P, 0) - 2 * hrr_chi(P, -2) + hrr_chi(P, -4)


# -- Euler numbers and the pencil count --------------------------------------

def euler_numbers(chi_b: Fraction, kb2: Fraction) -> dict[str, Fraction]:
    """Topological Euler numbers feeding the count of singular pencil members.

    e(S) = 7; the discriminant of a smooth member is a genus-6 curve C in
    |-2K_S| (adjunction), so e(C) = -10 and e(Q) = 2e(S) + e(C) = 4; a
    one-nodal discriminant raises e by 1, giving e(Q0) = 5.  e(P) = 3e(S)
    for the P^2-bundle and e(B) = c2(B) = 12 chi(O_B) - K_B^2 = 64, from
    chi_b = `koszul_chi_B` and kb2 = `kb_squared`.  The count of singular
    members of a pencil is e(P) + e(B) - 2 e(Q) = 77.
    """
    S = DelPezzoRing()
    e_s = Fraction(S.euler_number())
    d = -2 * S.canonical()
    two_g_minus_2 = d.pairing(d + S.canonical())
    g = (two_g_minus_2 + 2) / 2
    e_c = 2 - 2 * g
    e_q = 2 * e_s + e_c
    e_q0 = 2 * e_s + (e_c + 1)  # one node contracts a vanishing cycle
    e_p = 3 * e_s
    e_b = 12 * chi_b - kb2
    delta = e_p + e_b - 2 * e_q
    return {
        "e_S": e_s, "g_C": g, "e_C": e_c, "e_Q": e_q, "e_Q0": e_q0,
        "e_P": e_p, "chi_B": chi_b, "K_B^2": kb2, "e_B": e_b,
        "singular_members": delta,
    }
