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

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from operator import add, gt
from typing import Mapping, Sequence

from .exactalg import QVector, rational


class ChowClass(QVector):
    """Element of a Chow ring: a rational combination of basis monomials.

    A `QVector` whose space is its ring.  Products multiply numerators by
    the ring's integer structure constants (``ring.mul_basis``) and reduce
    once per result.
    """

    __slots__ = ()

    ring = QVector.space

    def _product(self, other):
        mul_basis = self.ring.mul_basis
        out: dict = {}
        for k1, n1 in self.nums.items():
            for k2, n2 in other.nums.items():
                n = n1 * n2
                for k, c in mul_basis(k1, k2).items():
                    out[k] = out.get(k, 0) + n * c
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


class ProductProjectiveRing:
    """CH of a product of projective spaces P^{d_1} x ... x P^{d_k}."""

    def __init__(self, dims):
        self.dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in self.dims):
            raise ValueError("each factor must have dimension >= 1")

    def h(self, i: int) -> ChowClass:
        exp = [0] * len(self.dims)
        exp[i] = 1
        return ChowClass.from_ints(self, {tuple(exp): 1})

    def one(self) -> ChowClass:
        return ChowClass.from_ints(self, {(0,) * len(self.dims): 1})

    def mul_basis(self, k1, k2) -> dict:
        k = tuple(map(add, k1, k2))
        if any(map(gt, k, self.dims)):
            return {}
        return {k: 1}

    def integrate(self, cls: ChowClass) -> Fraction:
        return Fraction(cls.nums.get(self.dims, 0), cls.den)


_DP_CODIM = {"1": 0, "L": 1, "E1": 1, "E2": 1, "E3": 1, "E4": 1, "pt": 2}


class DelPezzoRing:
    """CH of the quintic del Pezzo surface S = Bl_4 P^2.

    Basis {1; L, E1..E4; pt} with L^2 = pt, Ei^2 = -pt, L.Ei = 0.
    """

    picard_rank = 5

    def L(self) -> ChowClass:
        return ChowClass.from_ints(self, {"L": 1})

    def E(self, i: int) -> ChowClass:
        if not 1 <= i <= 4:
            raise ValueError("exceptional index out of range")
        return ChowClass.from_ints(self, {f"E{i}": 1})

    def pt(self) -> ChowClass:
        return ChowClass.from_ints(self, {"pt": 1})

    def one(self) -> ChowClass:
        return ChowClass.from_ints(self, {"1": 1})

    def canonical(self) -> ChowClass:
        return sum((self.E(i) for i in range(1, 5)), -3 * self.L())

    def euler_number(self) -> int:
        # b0 + b2 + b4 with b2 = Picard rank
        return 2 + self.picard_rank

    def mul_basis(self, k1, k2) -> dict:
        c1, c2 = _DP_CODIM[k1], _DP_CODIM[k2]
        if c1 + c2 > 2:
            return {}
        if k1 == "1":
            return {k2: 1}
        if k2 == "1":
            return {k1: 1}
        if k1 == "L" and k2 == "L":
            return {"pt": 1}
        if k1 == k2:  # Ei.Ei
            return {"pt": -1}
        return {}

    def integrate(self, cls: ChowClass) -> Fraction:
        return Fraction(cls.nums.get("pt", 0), cls.den)


@dataclass(frozen=True)
class ChernData:
    """Chern data of a rank-3 bundle on a surface; c3 is implicitly zero.

    The Chern classes of a vector bundle are integral, and the bundle ring
    relies on it: c1 must have integer coefficients and c2 be an integer,
    or `ValueError` is raised.
    """

    c1: ChowClass
    c2: int | Fraction

    def __post_init__(self):
        if self.c1.den != 1 or rational(self.c2).denominator != 1:
            raise ValueError("Chern classes of a vector bundle are integral: "
                             "c1 needs integer coefficients, c2 an integer")


class ProjectiveBundleRing:
    """CH of the P^2-bundle P(M) -> S for a rank-3 bundle M on a surface.

    Basis monomials are zeta^a * s with a <= 2 and s a basis class of the
    base.  The sign convention is pinned so that the top self-intersection
    of zeta equals the Segre number c1(M)^2 - c2(M); concretely
    zeta^3 = c1.zeta^2 - c2.zeta.

    The integer structure constants of each pair of basis monomials are
    reduced through that relation once per ring, on first use, and kept in
    ``_products``, one row per first factor.  The Hilbert coefficients
    behind `hrr_chi` are kept per ring as a `QVector` over the powers of d,
    never as a ChowClass, so a ring and its classes form no reference
    cycle.
    """

    def __init__(self, base: DelPezzoRing, chern: ChernData):
        self.base = base
        self.chern = chern
        self._products: dict = {}
        self._hilbert: QVector | None = None

    def zeta(self) -> ChowClass:
        return ChowClass.from_ints(self, {(1, "1"): 1})

    def pull(self, cls: ChowClass) -> ChowClass:
        if cls.ring is not self.base:
            raise ValueError("can only pull back classes from the base")
        return ChowClass.from_ints(
            self, {(0, k): n for k, n in cls.nums.items()}, cls.den)

    def one(self) -> ChowClass:
        return ChowClass.from_ints(self, {(0, "1"): 1})

    def mul_basis(self, k1, k2) -> dict:
        row = self._products.setdefault(k1, {})
        out = row.get(k2)
        if out is None:
            out = {}
            for s, c in self.base.mul_basis(k1[1], k2[1]).items():
                for key, r in self._reduce(k1[0] + k2[0], s).items():
                    out[key] = out.get(key, 0) + c * r
            out = row[k2] = {k: v for k, v in out.items() if v}
        return out

    def _reduce(self, a: int, s: str) -> dict:
        if a <= 2:
            return {(a, s): 1}
        # zeta^3 = c1 zeta^2 - c2 zeta, applied recursively; c1 has den 1
        out: dict = {}
        for sk, sc in self.chern.c1.nums.items():
            for bs, bc in self.base.mul_basis(s, sk).items():
                for key, c in self._reduce(a - 1, bs).items():
                    out[key] = out.get(key, 0) + sc * bc * c
        c2 = self.chern.c2.numerator
        for bs, bc in self.base.mul_basis(s, "pt").items():
            for key, c in self._reduce(a - 2, bs).items():
                out[key] = out.get(key, 0) - c2 * bc * c
        return out

    def integrate(self, cls: ChowClass) -> Fraction:
        return Fraction(cls.nums.get((2, "pt"), 0), cls.den)


def conic_bundle_chern_data(S: DelPezzoRing) -> ChernData:
    """The rank-3 bundle carrying the 4-nodal conic bundles: c1 = -K_S, c2 = 3."""
    return ChernData(c1=-S.canonical(), c2=3)


# -- blow-up intersection table -------------------------------------------

def blowup_intersection_table() -> dict[tuple[int, int, int, int], int]:
    """Top intersection numbers of (N, H, H1, H2) on the blown-up S x P^2.

    N is the sum of the four exceptional divisors over the curves
    E_i x {u_i}; H, H1, H2 pull back -K_S, L and the P^2 hyperplane.  The
    exceptional pushforward rules give N^4 = -4, N^3.H = 4, N^3.H1 =
    N^3.H2 = 0 and N^2.(anything pulled back) = 0; N-free monomials are
    computed on S x P^2.  Every entry is an int: an intersection number on
    S that is not an integer raises `ArithmeticError`.
    """
    S = DelPezzoRing()
    mk = -S.canonical()
    table: dict[tuple[int, int, int, int], int] = {}
    for n in range(5):
        for h in range(5 - n):
            for h1 in range(5 - n - h):
                h2 = 4 - n - h - h1
                key = (n, h, h1, h2)
                if n == 0:
                    if h2 != 2:
                        table[key] = 0
                    else:
                        v = ((mk ** h) * (S.L() ** h1)).integrate()
                        if v.denominator != 1:
                            raise ArithmeticError(
                                f"intersection number {v} on S is not an integer")
                        table[key] = v.numerator
                elif n in (1, 2):
                    table[key] = 0
                elif n == 3:
                    # N_i^3 . pullback(g) = deg(g restricted to E_i x {u_i})
                    if (h, h1, h2) == (1, 0, 0):
                        table[key] = 4  # (-K_S).E_i = 1 per centre
                    else:
                        table[key] = 0
                else:
                    table[key] = -4  # N_i^4 = -1 per centre
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

    def __init__(self, table: Mapping[tuple[int, int, int, int], int]):
        self.table = table

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

    def mul_basis(self, k1, k2) -> dict:
        k = tuple(map(add, k1, k2))
        return {k: 1} if sum(k) <= 4 else {}

    def integrate(self, cls: ChowClass) -> Fraction:
        table = self.table
        return Fraction(sum(n * table[k] for k, n in cls.nums.items()
                            if sum(k) == 4), cls.den)


def intersection_number(divisors: Sequence[ChowClass]) -> Fraction:
    """The product of four divisors of one `BlowupRing`, integrated."""
    a, b, c, d = divisors  # ValueError unless there are four
    return (a * b * c * d).integrate()


def verify_deg_h_two_ways(X: BlowupRing, P: ProjectiveBundleRing
                          ) -> tuple[Fraction, Fraction]:
    """deg of the half-anticanonical double cover P -> P^4, two routes.

    Route one integrates zeta^4 = (H1 + H2 - N)^4 against the blow-up
    table; route two integrates zeta^4 in the projective bundle ring.  Both
    should equal 2; the `verify` report checks each.
    """
    blowup_route = intersection_number([X.zeta()] * 4)
    bundle_route = (P.zeta() ** 4).integrate()
    return blowup_route, bundle_route


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
    return 4 * intersection_number([X.zeta()] * 4)


# -- Riemann-Roch on P -------------------------------------------------------

def tangent_chern_classes(P: ProjectiveBundleRing) -> tuple[ChowClass, ...]:
    """c1..c4 of the tangent bundle of P, from the relative Euler sequence.

    c(T_P) = c(pi^* M^dual tensor O_P(1)) . c(pi^* T_S), with c1(T_S) =
    -K_S and c2(T_S) = e(S) pt.
    """
    S = P.base
    z = P.zeta()
    c1m = P.pull(P.chern.c1)
    c2m = P.chern.c2 * P.pull(S.pt())
    rel1 = 3 * z - c1m
    rel2 = 3 * z * z - 2 * z * c1m + c2m
    rel3 = z ** 3 - z * z * c1m + z * c2m  # vanishes by the bundle relation
    ts1 = P.pull(-S.canonical())
    ts2 = S.euler_number() * P.pull(S.pt())
    c1 = rel1 + ts1
    c2 = rel2 + rel1 * ts1 + ts2
    c3 = rel3 + rel2 * ts1 + rel1 * ts2
    c4 = rel3 * ts1 + rel2 * ts2
    return c1, c2, c3, c4


def todd_classes(c1: ChowClass, c2: ChowClass, c3: ChowClass,
                 c4: ChowClass) -> tuple[ChowClass, ...]:
    """Todd classes of a 4-fold, truncated at codimension 4."""
    td1 = c1 * Fraction(1, 2)
    td2 = (c1 * c1 + c2) * Fraction(1, 12)
    td3 = c1 * c2 * Fraction(1, 24)
    td4 = (-(c1 ** 4) + 4 * c1 * c1 * c2 + 3 * c2 * c2 + c1 * c3 - c4) \
        * Fraction(1, 720)
    return td1, td2, td3, td4


def hrr_chi(P: ProjectiveBundleRing, d: int) -> Fraction:
    """chi(O_P(d)) by Riemann-Roch, evaluated as the Hilbert polynomial.

    ch(O_P(d)) = sum_k d^k zeta^k / k!, so the integral of ch(O_P(d)).Td(T_P)
    is the quartic sum_k c_k d^k with c_k = integral of zeta^k.Td(T_P) / k!.
    The five c_k are computed once per ring, on first use, and kept as
    integer numerators over one denominator.
    """
    if P._hilbert is None:
        # zeta^k meets only the codimension-(4 - k) Todd class in degree 4
        td = (P.one(), *todd_classes(*tangent_chern_classes(P)))
        zk, coeffs = P.one(), {}
        for k in range(5):
            coeffs[k] = (zk * td[4 - k]).integrate() / factorial(k)
            zk = zk * P.zeta()
        P._hilbert = QVector("d^k", coeffs)
    h = P._hilbert
    return Fraction(sum(n * d ** k for k, n in h.nums.items()), h.den)


def sections_formula(d: int) -> int:
    """h^0(P, O_P(d)) for d >= 0, via the double-cover eigenspace split.

    The degree-2 map to P^4 pushes the structure sheaf forward as
    O + O(-2), so sections of O_P(d) split as degree-d plus degree-(d-2)
    forms on P^4.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    return comb(d + 4, 4) + comb(d + 2, 4)


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
    two_g_minus_2 = (d * (d + S.canonical())).integrate()
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
