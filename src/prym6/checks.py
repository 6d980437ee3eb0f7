"""The checks of `prym6 verify`: every frozen number of the Chow, count and
slope replay, with its anchor and the computation that derives it.

Only `cli.run_checks` loads this module, and with it `chow` and `moduli`,
so `construct` and `sweep` compile none of them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple

from . import chow, moduli


class Check(NamedTuple):
    identifier: str
    anchor: str
    expected: int | Fraction
    compute: Callable[[], int | Fraction]


def _checks() -> list[Check]:
    """Every check of the report, on one bundle record and one blow-up ring.

    Each number that more than one check or computation reads is wrapped in
    a `cache` local to this build, so it is computed once, by the first
    check that reads it, and its `millis` include that work.  Nothing is
    kept between builds: every report replays the whole computation.
    """
    P = chow.ProjectiveBundle()
    X = cache(chow.BlowupRing)
    kp = cache(lambda: chow.canonical_classes(X())[0])
    deg_h = cache(lambda: chow.verify_deg_h_two_ways(X(), P))
    kb2 = cache(lambda: chow.kb_squared(X()))
    chi_b = cache(lambda: chow.koszul_chi_B(P))
    eul = cache(lambda: chow.euler_numbers(chi_b(), kb2()))
    chain = cache(moduli.chi_of_Y_chain)
    e_lambda = cache(lambda: moduli.lambda_degree_from_family(chain()["chi"]))
    double_lines = cache(lambda unreduced: moduli.solve_double_line_count(
        e_lambda(), eul()["singular_members"], unreduced))
    psi_degree = cache(moduli.psi_degree_via_Z)
    curves = cache(lambda: moduli.pencil_curve_numbers(
        e_lambda(), eul()["singular_members"], double_lines(False),
        psi_degree()))
    bound = cache(lambda variant: moduli.slope_bound(
        variant, curves()["sweeping"]))
    return [
        Check("chow.blowup.N4", "exceptional quartic self-intersection",
              -4, lambda: X().table[(4, 0, 0, 0)]),
        Check("chow.blowup.N3H", "cubic exceptional against anticanonical",
              4, lambda: X().table[(3, 1, 0, 0)]),
        Check("chow.blowup.N3H1", "cubic exceptional against line class",
              0, lambda: X().table[(3, 0, 1, 0)]),
        Check("chow.blowup.N3H2", "cubic exceptional against fiber hyperplane",
              0, lambda: X().table[(3, 0, 0, 1)]),
        Check("chow.blowup.N2H2", "square exceptional against pullbacks",
              0, lambda: X().table[(2, 2, 0, 0)]),
        Check("chow.blowup.N2H1sq", "square exceptional against pullbacks",
              0, lambda: X().table[(2, 0, 2, 0)]),
        Check("chow.blowup.N2H2sq", "square exceptional against pullbacks",
              0, lambda: X().table[(2, 0, 0, 2)]),
        Check("chow.deg_h.blowup", "degree of the double cover, blow-up route",
              2, lambda: deg_h()[0]),
        Check("chow.deg_h.segre", "degree of the double cover, Segre route",
              2, lambda: deg_h()[1]),
        Check("chow.canonical.KP_H1", "canonical class of the bundle",
              -3, lambda: kp().coeffs.get((0, 0, 1, 0), 0)),
        Check("chow.canonical.KP_H2", "canonical class of the bundle",
              -3, lambda: kp().coeffs.get((0, 0, 0, 1), 0)),
        Check("chow.canonical.KP_N", "canonical class of the bundle",
              3, lambda: kp().coeffs.get((1, 0, 0, 0), 0)),
        Check("chow.KB_squared", "canonical square of the base surface",
              8, kb2),
        Check("chow.hrr.chi_O", "structure-sheaf Euler characteristic",
              1, lambda: chow.hrr_chi(P, 0)),
        Check("chow.hrr.chi_1", "sections of the half-anticanonical bundle",
              5, lambda: chow.hrr_chi(P, 1)),
        Check("chow.hrr.chi_2", "sections of the conic-bundle system",
              16, lambda: chow.hrr_chi(P, 2)),
        Check("chow.koszul.chi_B", "chi(O) of the pencil base surface",
              6, chi_b),
        Check("counts.euler.S", "Euler number of the del Pezzo surface",
              7, lambda: eul()["e_S"]),
        Check("counts.euler.genus_C", "genus of the discriminant curve",
              6, lambda: eul()["g_C"]),
        Check("counts.euler.C", "Euler number of the discriminant curve",
              -10, lambda: eul()["e_C"]),
        Check("counts.euler.Q", "Euler number of a smooth member",
              4, lambda: eul()["e_Q"]),
        Check("counts.euler.Q0", "Euler number of a one-nodal member",
              5, lambda: eul()["e_Q0"]),
        Check("counts.euler.P", "Euler number of the ambient bundle",
              21, lambda: eul()["e_P"]),
        Check("counts.euler.B", "second Chern number of the base surface",
              64, lambda: eul()["e_B"]),
        Check("counts.singular_members", "singular members of a pencil",
              77, lambda: eul()["singular_members"]),
        Check("counts.chiY.omega_h1", "dualizing class of the family surface",
              3, lambda: chain()["omega_class"][0]),
        Check("counts.chiY.omega_h2", "dualizing class of the family surface",
              1, lambda: chain()["omega_class"][1]),
        Check("counts.chiY.h0_ambient", "ambient sections of the dualizing class",
              20, lambda: chain()["h0_omega_ambient"]),
        Check("counts.chiY.chi", "chi(O) of the family surface",
              13, lambda: chain()["chi"]),
        Check("counts.lambda_degree", "lambda-degree of the pencil",
              18, e_lambda),
        Check("counts.double_lines", "double-line members of a pencil",
              32, lambda: double_lines(False)),
        Check("counts.double_lines_unreduced", "same count, unreduced relation",
              32, lambda: double_lines(True)),
        Check("counts.degree_nine", "triple-product intersection number",
              9, moduli.degree_nine_lemma),
        Check("counts.psi_degree", "point-class degree on the sweeping curve",
              9, psi_degree),
        Check("slope.pairing.delta0", "pencil against the boundary pullback",
              141,
              lambda: curves()["single"].pair(moduli.pullback_delta0())),
        Check("slope.triple.lambda", "triple-pencil lambda-degree",
              54, lambda: curves()["triple"]["lambda"]),
        Check("slope.triple.delta0_prime", "triple-pencil boundary degree",
              231, lambda: curves()["triple"]["delta0_prime"]),
        Check("slope.triple.delta0_dblprime", "triple-pencil boundary degree",
              0, lambda: curves()["triple"]["delta0_dblprime"]),
        Check("slope.triple.delta0_ram", "triple-pencil ramified degree",
              96, lambda: curves()["triple"]["delta0_ram"]),
        Check("slope.full.lambda1", "sweeping curve against the Hodge class",
              30, lambda: bound("full")[0]),
        Check("slope.full.boundary", "sweeping curve against the boundary",
              159, lambda: bound("full")[1]),
        Check("slope.full.bound", "slope bound on the full space",
              Fraction(53, 10), lambda: bound("full")[2]),
        Check("slope.u4.boundary", "restricted variant boundary degree",
              195, lambda: bound("u4")[1]),
        Check("slope.u4.bound", "slope bound on the four-point locus",
              Fraction(13, 2), lambda: bound("u4")[2]),
    ]
