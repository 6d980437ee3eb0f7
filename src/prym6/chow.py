"""Intersection rings for the geometry of 4-nodal conic bundles.

Three tiny graded rings are enough: products of projective spaces, the
degree-5 del Pezzo surface S (the plane blown up in four points), and the
divisor monomials on the blown-up S x P^2, integrated by the blow-up
intersection table.  Their classes are `ChowClass`es, exact vectors over
the ring's basis.  The P^2-bundle P over S that carries the conic bundles
is a record of its data on S, since every number read from P is a number
on S: chi(O_P(d)) by Riemann-Roch on S, and deg h by the Segre class of
the bundle.  On top of them sits the Euler-number bookkeeping behind the
count of 77 singular members and 32 double lines in a pencil.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import add, gt, index
from typing import Mapping, Sequence

from .exactalg import QVector


class ChowClass(QVector):
    """Element of a Chow ring: a rational combination of basis monomials.

    A `QVector` whose space is its ring.  A product adds each pair of terms
    into one dict through the ring's ``mul_into``, whose structure constants
    are integers, and reduces once per result; only the rings that the
    package multiplies in have one.  An intersection number is a `pairing`,
    read from the ring's ``integral`` with no product formed.
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

    def mul_into(self, out: dict, k1, k2, n: int) -> None:
        """Add n times the basis product k1 * k2 to out."""
        k = tuple(map(add, k1, k2))
        if not any(map(gt, k, self.dims)):
            out[k] = out.get(k, 0) + n

    def integral(self, k1, k2) -> int:
        """The integral of the basis product k1 * k2."""
        return 1 if tuple(map(add, k1, k2)) == self.dims else 0


class DelPezzoRing:
    """CH of the quintic del Pezzo surface S = Bl_4 P^2.

    Basis {1; L, E1..E4; pt} with L^2 = pt, Ei^2 = -pt, L.Ei = 0.  Classes
    on S are paired, never multiplied.
    """

    picard_rank = 5

    def L(self) -> ChowClass:
        return ChowClass.from_ints(self, {"L": 1})

    def E(self, i: int) -> ChowClass:
        if type(i) is not int:
            raise TypeError(f"an exceptional index is an int, not {i!r}")
        if not 1 <= i <= 4:
            raise ValueError("exceptional index out of range")
        return ChowClass.from_ints(self, {f"E{i}": 1})

    def canonical(self) -> ChowClass:
        return ChowClass.from_ints(
            self, {"L": -3, "E1": 1, "E2": 1, "E3": 1, "E4": 1})

    def euler_number(self) -> int:
        # b0 + b2 + b4 with b2 = Picard rank
        return 2 + self.picard_rank

    def integral(self, k1, k2) -> int:
        """The integral of the basis product k1 * k2: 1 for 1.pt and L.L,
        -1 for Ei.Ei, and 0 for every other pair."""
        if {k1, k2} == {"1", "pt"}:
            return 1
        if k1 != k2 or k1 in ("1", "pt"):
            return 0
        return 1 if k1 == "L" else -1


class ProjectiveBundle:
    """The P^2-bundle P(M) -> S carrying the 4-nodal conic bundles, by its
    data on S.

    M is the rank-3 bundle on the quintic del Pezzo surface S with
    c1(M) = -K_S and c2(M) = 3 times the point class (c3 = 0); ``base`` is
    S, ``c1`` is the class c1(M) and ``c2`` the degree of c2(M).  The
    tautological class zeta satisfies zeta^3 = c1 zeta^2 - c2 zeta, so the
    integral of zeta^(2+i) against a class pulled back from S is the
    integral on S against the Segre class s_i(M) (W. Fulton, Intersection
    Theory, 3.1), and pi_* O_P(d) = Sym^d M.  Every number read from P is
    therefore a number on S, and the record does no arithmetic.  The
    intersection numbers on S behind `hrr_chi` are kept per record, as
    ``_numbers``, once computed.
    """

    c2 = 3

    def __init__(self):
        self.base = DelPezzoRing()
        self.c1 = -self.base.canonical()
        self._numbers: tuple[Fraction, ...] | None = None


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
    above 4, and `integral` reads a degree-4 product against ``table``, the
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

    def mul_into(self, out: dict, k1, k2, n: int) -> None:
        """Add n times the basis product k1 * k2 to out."""
        k = tuple(map(add, k1, k2))
        if sum(k) <= 4:
            out[k] = out.get(k, 0) + n

    def integral(self, k1, k2) -> int:
        """The integral of the basis product k1 * k2."""
        return self.table.get(tuple(map(add, k1, k2)), 0)


def intersection_number(divisors: Sequence[ChowClass]) -> Fraction:
    """The product of four divisors of one `BlowupRing`, integrated."""
    a, b, c, d = divisors  # ValueError unless there are four
    return (a * b).pairing(c * d)


def verify_deg_h_two_ways(X: BlowupRing, P: ProjectiveBundle
                          ) -> tuple[Fraction, Fraction]:
    """deg of the half-anticanonical double cover P -> P^4, two routes.

    Route one reads ``X.zeta4``, zeta^4 = (H1 + H2 - N)^4 integrated
    against the blow-up table once per ring, as `kb_squared` does; route
    two is the Segre number s2(M) = c1(M)^2 - c2(M), the integral of zeta^4
    on P, with c1(M) paired with itself on S.  Both should equal 2; the
    `verify` report checks each.
    """
    return X.zeta4, P.c1.pairing(P.c1) - P.c2


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


# -- Riemann-Roch on S ------------------------------------------------------

def tangent_chern_classes(P: ProjectiveBundle) -> tuple[ChowClass, int]:
    """(c1, c2) of the tangent bundle of the base S: c1 = -K_S, and c2 =
    e(S) times the point class, given by its degree."""
    S = P.base
    return -S.canonical(), S.euler_number()


def hrr_chi(P: ProjectiveBundle, d: int) -> Fraction:
    """chi(O_P(d)) = chi(S, Sym^d M) by Riemann-Roch on S, a polynomial in d.

    pi_* O_P(d) = Sym^d M with no higher direct images for d >= 0, so the
    Hilbert polynomial of O_P(d) is the polynomial in d below, and
    Riemann-Roch on a surface (Fulton, Intersection Theory, 15.2) reads
    chi(S, E) = ch2(E) + ch1(E).c1(T_S)/2 + rank(E) td2(S), with
    td2(S) = (c1(T_S)^2 + c2(T_S))/12 (Noether's formula, derived here).
    Over the Chern roots a of M, Sym^d M has the roots i.a for the
    N = C(d + 2, 2) exponent triples i with |i| = d, so by symmetry
    ch1 = (N d/3) c1(M) and ch2 = A/2 c1(M)^2 + (B - A) c2(M), with the
    simplex sums A = sum i1^2 = N d(d + 1)/6 and B = sum i1 i2 =
    N d(d - 1)/12.  The three intersection numbers on S are computed once
    per record, on first use.  A twist d that is not an int raises
    TypeError: the polynomial's value there is no Euler characteristic.
    """
    if type(d) is not int:
        raise TypeError(f"a twist is an int, not {d!r}")
    if P._numbers is None:
        c1t, c2t = tangent_chern_classes(P)
        P._numbers = (P.c1.pairing(P.c1), P.c1.pairing(c1t),
                      (c1t.pairing(c1t) + c2t) / 12)
    c11, c1t, td2 = P._numbers
    n = (d + 1) * (d + 2) // 2  # a product of consecutive ints is even
    a, b = Fraction(n * d * (d + 1), 6), Fraction(n * d * (d - 1), 12)
    return a / 2 * c11 + (b - a) * P.c2 + Fraction(n * d, 6) * c1t + n * td2


def koszul_chi_B(P: ProjectiveBundle) -> Fraction:
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
