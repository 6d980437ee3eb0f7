"""The Chow ring of the P^2-bundle P = P(M) -> S, kept as an oracle.

`chow` reads chi(O_P(d)) and deg h as numbers on the del Pezzo surface S
(`chow.ProjectiveBundle`).  The route they replace is kept here, for the
tests to compare against: the whole Chow ring of the 4-fold P, with the
bundle relation zeta^3 = c1 zeta^2 - c2 zeta, the Chern classes of T_P
from the relative Euler sequence, and Riemann-Roch as the integral of
ch(O_P(d)).Td(T_P).  The ring of S here adds to `chow.DelPezzoRing` the
products that the package no longer forms on S.  `one`, `power` and
`integrate` give every ring of `chow` and of this module the unit, the
powers and the degree of a class, which the package's rings do not carry.
"""

from fractions import Fraction
from math import factorial

from prym6 import chow
from prym6.chow import ChowClass


def _unit_and_top(ring):
    """(unit key, key of the top degree) of a ring with one top monomial."""
    if isinstance(ring, chow.ProductProjectiveRing):
        return (0,) * len(ring.dims), ring.dims
    if isinstance(ring, chow.DelPezzoRing):
        return "1", "pt"
    return (0, "1"), (2, "pt")  # ProjectiveBundleRing


def one(ring) -> ChowClass:
    """The unit class of ring."""
    unit = ((0, 0, 0, 0) if isinstance(ring, chow.BlowupRing)
            else _unit_and_top(ring)[0])
    return ChowClass.from_ints(ring, {unit: 1})


def integrate(cls: ChowClass) -> Fraction:
    """The degree of cls, read from its top-degree coefficients and never
    from the ring's intersection form `integral`."""
    ring = cls.ring
    if isinstance(ring, chow.BlowupRing):
        num = sum(n * ring.table[k] for k, n in cls.nums.items() if sum(k) == 4)
    else:
        num = cls.nums.get(_unit_and_top(ring)[1], 0)
    return Fraction(num, cls.den)


def power(x: ChowClass, n: int) -> ChowClass:
    """x^n as n products, from the unit."""
    if n < 0:
        raise ValueError("Chow classes have no negative powers")
    acc = one(x.ring)
    for _ in range(n):
        acc = acc * x
    return acc


class DelPezzoProductRing(chow.DelPezzoRing):
    """S with its products: the del Pezzo rule as one key and sign."""

    def pt(self) -> ChowClass:
        return ChowClass.from_ints(self, {"pt": 1})

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


class ProjectiveBundleRing:
    """CH of the P^2-bundle P(M) -> S carrying the 4-nodal conic bundles.

    M has c1(M) = -K_S and c2(M) = 3 times the point class (c3 = 0), as
    in `chow.ProjectiveBundle`.  Basis monomials are zeta^a * s with
    a <= 2 and s a basis class of the base.  The sign convention is pinned
    so that the top self-intersection of zeta equals the Segre number
    c1(M)^2 - c2(M) = 2; concretely zeta^3 = c1.zeta^2 - c2.zeta.

    The ring derives zeta^a * s for a = 3, 4 and each basis class s with
    a + codim s <= 4 once, when it is built, from
    zeta^a s = zeta^(a-1) (c1 s) - zeta^(a-2) (c2 s), and keeps these 7
    integer rows in ``_zeta_rows``; every product above degree 4 is 0.
    """

    c2 = 3

    def __init__(self):
        S = self.base = DelPezzoProductRing()
        self.c1 = -S.canonical()
        self._zeta_rows: dict = {}
        relation = ((1, self.c1), (2, -self.c2 * S.pt()))
        # zeta^3 s for s of codim <= 1, then zeta^4, which reads those rows
        for a, keys in ((3, ("1", "L", "E1", "E2", "E3", "E4")), (4, ("1",))):
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
    rel1 = 3 * z - c1m
    rel2 = 3 * z * z - 2 * z * c1m + c2m
    ts1 = P.pull(-S.canonical())
    ts2 = S.euler_number() * P.pull(S.pt())
    return (rel1 + ts1, rel2 + rel1 * ts1 + ts2, rel2 * ts1 + rel1 * ts2,
            rel2 * ts2)


def todd_classes(c1, c2, c3, c4):
    """Todd classes of a 4-fold, truncated at codimension 4, each formed in
    full."""
    c11 = c1 * c1
    td1 = c1 * Fraction(1, 2)
    td2 = (c11 + c2) * Fraction(1, 12)
    td3 = c1 * c2 * Fraction(1, 24)
    td4 = (-(c11 * c11) + 4 * c11 * c2 + 3 * c2 * c2 + c1 * c3 - c4) \
        * Fraction(1, 720)
    return td1, td2, td3, td4


def hrr_chi(P: ProjectiveBundleRing, d: int) -> Fraction:
    """chi(O_P(d)) as the integral of ch(O_P(d)).Td(T_P) on the 4-fold,
    with ch(O_P(d)) = sum_k (d zeta)^k / k!."""
    zero = ChowClass(P, {})
    td = one(P) + sum(todd_classes(*tangent_chern_classes(P)), zero)
    ch = sum((power(d * P.zeta(), k) * Fraction(1, factorial(k))
              for k in range(5)), zero)
    return integrate(ch * td)
