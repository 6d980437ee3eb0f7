"""Divisor-class bookkeeping on the genus-6 Prym moduli side.

Everything here is finite-dimensional exact linear algebra.  Divisor
classes and curve classes are `QVector`s over one ordered basis,
`R6_BASIS`, stored as integer numerators over one denominator: a curve
class holds its intersection numbers against the basis, and pairing it
with a divisor class is one integer dot product.  Each named operation
returns one specific pullback or pairing.  The enumerative inputs (77
singular members, 32 double lines, lambda-degree 18) are computed by the
intersection-theory module and the chi-chain and passed in as arguments,
never retyped.

One modelling point deserves emphasis: the theta pullback is only known up
to boundary terms that are never written down.  Those are carried as an
explicit "unknown boundary" marker, and any pairing against a marked class
demands that the curve be declared orthogonal to the marker first.  That
turns a silent assumption into an auditable one.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping

from . import chow
from .exactalg import QVector, rational

#: ordered basis of the divisor-class ledger: Hodge class, the three
#: boundary pieces of the Prym compactification, and the five point classes
#: on the universal-curve product
R6_BASIS = ("lambda", "delta0_prime", "delta0_dblprime", "delta0_ram",
            "psi1", "psi2", "psi3", "psi4", "psi5")

#: quoted, not derivable here: the pencil avoids the second boundary piece
E_DELTA0_DBLPRIME = 0

#: genus of the curves of the ledger: R6 over the moduli of genus-6 curves
GENUS = 6


class MarkerPairingError(RuntimeError):
    """Pairing a marked class with a curve not declared marker-orthogonal."""


class _LedgerVector(QVector):
    """A `QVector` over R6_BASIS; a name outside the basis raises."""

    __slots__ = ()

    def __init__(self, coeffs: Mapping[str, int | Fraction]):
        bad = set(coeffs) - set(R6_BASIS)
        if bad:
            raise ValueError(f"unknown basis elements: {sorted(bad)}")
        super().__init__(R6_BASIS, coeffs)

    def __getitem__(self, key: str) -> Fraction:
        if key not in R6_BASIS:
            raise KeyError(key)
        return Fraction(self.nums.get(key, 0), self.den)


class DivClassR6(_LedgerVector):
    """Divisor class over R6_BASIS, optionally carrying the unknown-boundary
    marker for omitted boundary terms; sums and multiples keep the marker."""

    __slots__ = ("unknown_boundary",)

    def __init__(self, coeffs: Mapping[str, int | Fraction],
                 unknown_boundary: bool = False):
        super().__init__(coeffs)
        self.unknown_boundary = unknown_boundary

    def _like(self, nums, den, other):
        out = super()._like(nums, den, other)
        out.unknown_boundary = self.unknown_boundary or other.unknown_boundary
        return out


class CurveClass(_LedgerVector):
    """Intersection numbers of a 1-cycle against R6_BASIS.

    A sum or multiple is marker-orthogonal when both operands are.
    """

    __slots__ = ("marker_orthogonal",)

    def __init__(self, numbers: Mapping[str, int | Fraction],
                 marker_orthogonal: bool = False):
        super().__init__(numbers)
        self.marker_orthogonal = marker_orthogonal

    def _like(self, nums, den, other):
        out = super()._like(nums, den, other)
        out.marker_orthogonal = self.marker_orthogonal and other.marker_orthogonal
        return out

    def pair(self, div: DivClassR6) -> Fraction:
        if div.unknown_boundary and not self.marker_orthogonal:
            raise MarkerPairingError(
                "class carries unknown boundary terms; declare the curve "
                "marker-orthogonal before pairing")
        get = div.nums.get
        return Fraction(sum(n * get(k, 0) for k, n in self.nums.items()),
                        self.den * div.den)


# -- pullback formulas -------------------------------------------------------

def pullback_delta0() -> DivClassR6:
    """Pullback of the boundary of M6 along the forgetful double-cover map:
    the three boundary pieces, the ramified one with multiplicity two."""
    return DivClassR6({"delta0_prime": 1, "delta0_dblprime": 1,
                       "delta0_ram": 2})


def prym_pullback_lambda() -> DivClassR6:
    """Pullback of the Hodge class lambda_1 along the Prym map."""
    return DivClassR6({"lambda": 1, "delta0_ram": Fraction(-1, 4)})


def ap_pullback_theta(restricted: bool = False) -> DivClassR6:
    """Theta pullback as a marked divisor class on the genus-6 ledger.

    Full variant: 1/2 on the first GENUS - 2 point classes and 2 on point
    GENUS - 1.  Restricted variant (only GENUS - 2 marked points): the 1/2
    coefficients alone.  The lambda and boundary coefficients are exactly
    zero; the omitted boundary corrections are the unknown-boundary marker.
    """
    coeffs = {f"psi{j}": Fraction(1, 2) for j in range(1, GENUS - 1)}
    if not restricted:
        coeffs[f"psi{GENUS - 1}"] = 2
    return DivClassR6(coeffs, unknown_boundary=True)


def pullback_boundary_D6(restricted: bool = False) -> DivClassR6:
    """The boundary divisor of A6-bar pulled back: -2 theta + delta0',
    with theta the full or restricted `ap_pullback_theta`."""
    return -2 * ap_pullback_theta(restricted) + DivClassR6({"delta0_prime": 1})


# -- enumerative inputs ------------------------------------------------------

def chi_of_Y_chain() -> dict:
    """chi(O) of the blown-up family surface over the pencil, step by step.

    The surface Y sits in P^2 x P^1 in class 6h1 + 3h2; adjunction gives
    omega_Y of class (3,1), whose sections are the 20 bidegree-(3,1) forms.
    Four of the exceptional (-1)-lines of the actual family each absorb a
    pencil of sections, leaving h^0(omega) = 12 and chi(O) = 1 - 0 + 12 = 13.
    """
    ring = chow.ProductProjectiveRing((2, 1))
    h1, h2 = ring.h(0), ring.h(1)
    canonical = -3 * h1 - 2 * h2
    surface_class = 6 * h1 + 3 * h2
    omega = canonical + surface_class
    # omega is integral (its den is 1), so its numerators are its degrees
    omega_class = tuple(omega.nums.get(k, 0) for k in ((1, 0), (0, 1)))
    h0_omega_ambient = _h0_product((2, 1), omega_class)
    correction = 4 * _h0_product((1,), (1,))  # one pencil per contracted line
    h0_omega = h0_omega_ambient - correction
    chi = 1 - 0 + h0_omega  # h^1(O) = 0: the family is a rational surface
    return {"omega_class": omega_class, "h0_omega_ambient": h0_omega_ambient,
            "h0_omega": h0_omega, "chi": chi}


def _h0_product(dims, degs) -> int:
    out = 1
    for n, d in zip(dims, degs):
        out *= comb(n + d, n)
    return out


def lambda_degree_from_family(chi: int | Fraction) -> int | Fraction:
    """Degree of lambda on the pencil: chi(O of the family) + g - 1, with
    chi from `chi_of_Y_chain`."""
    return rational(chi) + GENUS - 1


def solve_double_line_count(e_lambda: int | Fraction,
                            e_delta0_prime: int | Fraction,
                            unreduced: bool = False) -> Fraction:
    """Count of double-line members of the pencil, from the vanishing of the
    Gieseker-Petri-type relation 47 e.lambda - 6 e.delta0' - 12 e.delta0ram = 0
    (or its unreduced double, as a cross-check).  e_delta0_prime is the count
    of singular members from `chow.euler_numbers`."""
    if rational(e_lambda) <= 0:
        raise ValueError("degenerate family: lambda-degree must be positive")
    e_delta0 = rational(e_delta0_prime) + E_DELTA0_DBLPRIME
    if unreduced:
        return Fraction(94 * e_lambda - 12 * e_delta0, 24)
    return Fraction(47 * e_lambda - 6 * e_delta0, 12)


def degree_nine_lemma() -> Fraction:
    """The key intersection number on P^2 x P^2 x P^2 behind the psi-degree:
    (2h1 + h2 + h3)^3 . 3h3 . h1^2 = 9."""
    ring = chow.ProductProjectiveRing((2, 2, 2))
    h1, h2, h3 = ring.h(0), ring.h(1), ring.h(2)
    s = 2 * h1 + h2 + h3
    # the monomials first: h1^3 = h3^3 = 0 drop terms before the cube expands
    return (h1 * h1 * (3 * h3) * s * s).pairing(s)


def psi_degree_via_Z() -> Fraction:
    """Degree of each psi class on the sweeping curve, via the threefold Z.

    Z is a complete intersection in P^2 x P^2 x P^2 of three divisors of
    multidegree (2,1,1) and one of (0,0,3); adjunction gives omega_Z of
    multidegree (3,0,3).  Pairing against a section line with degrees
    (L.h1, L.h3) = (0, 3) gives psi = 3*0 + 3*3 = 9.
    """
    ring = chow.ProductProjectiveRing((2, 2, 2))
    h = [ring.h(i) for i in range(3)]
    canonical = -3 * h[0] - 3 * h[1] - 3 * h[2]
    ci = 3 * (2 * h[0] + h[1] + h[2]) + 3 * h[2]
    omega = canonical + ci
    l_h1, l_h3 = 0, 3  # the section line's degrees (L.h1, L.h3)
    return omega.coeffs[(1, 0, 0)] * l_h1 + omega.coeffs[(0, 0, 1)] * l_h3


# -- curve classes -----------------------------------------------------------

def pencil_curve_numbers(e_lambda: Fraction, e_delta0_prime: Fraction,
                         e_delta0_ram: Fraction, psi_degree: Fraction
                         ) -> dict[str, CurveClass]:
    """The three curve classes of the story, from the computed inputs.

    single: one pencil of conic bundles; its lambda-degree comes from the
    chi-chain (`lambda_degree_from_family`) and its boundary numbers are the
    computed counts (77 singular members, 32 double lines from
    `solve_double_line_count`).
    triple: the same pencil traced three times around the nodal-cubic base.
    sweeping: the triple curve on the universal-curve product, where each of
    the five point classes has degree psi_degree (`psi_degree_via_Z`).
    """
    single = CurveClass(
        {"lambda": e_lambda, "delta0_prime": e_delta0_prime,
         "delta0_dblprime": E_DELTA0_DBLPRIME, "delta0_ram": e_delta0_ram})
    triple = 3 * single
    psi = {f"psi{j}": psi_degree for j in range(1, 6)}
    sweeping = CurveClass(
        dict(triple.coeffs, **psi),
        marker_orthogonal=True)  # assumed orthogonal to omitted boundary terms
    return {"single": single, "triple": triple, "sweeping": sweeping}


def slope_bound(variant: str, curve: CurveClass
                ) -> tuple[Fraction, Fraction, Fraction]:
    """(degree on lambda1, degree on the boundary, slope bound).

    full: sweeping curve against the boundary pullback on the whole space;
    u4: the four-point restricted variant.  The bound is the ratio, valid
    because the curve sweeps a divisor and so meets every effective divisor
    not containing it nonnegatively.
    """
    if variant not in ("full", "u4"):
        raise ValueError("variant must be 'full' or 'u4'")
    lam = curve.pair(prym_pullback_lambda())
    boundary = curve.pair(pullback_boundary_D6(restricted=(variant == "u4")))
    if lam <= 0:
        raise ValueError("nonpositive lambda-degree: no slope bound")
    return lam, boundary, boundary / lam
