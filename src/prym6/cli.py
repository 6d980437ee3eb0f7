"""Command-line front end: verification suites, seeded construction, sweeps.

`prym6 verify` replays every frozen numerical claim with exact arithmetic and
exits nonzero on the first discrepancy; `prym6 construct` builds and certifies
one seeded conic-bundle instance; `prym6 sweep` runs the net-and-pencil
pipeline.  All reports are deterministic JSON for a fixed seed.
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple, Sequence


class Check(NamedTuple):
    identifier: str
    anchor: str
    expected: int | Fraction
    compute: Callable[[], int | Fraction]


#: the suites of `prym6 verify`; each selects the checks whose identifier
#: starts with its name and a dot
SUITES = ("chow", "counts", "slope")


def _checks() -> list[Check]:
    """Every check of the report, on one bundle record and one blow-up ring.

    Each number that more than one check or computation reads is wrapped in
    a `cache` local to this build, so it is computed once, by the first
    check that reads it, and its `millis` include that work.  Nothing is
    kept between builds: every report replays the whole computation.
    """
    from . import chow, moduli

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


def run_checks(suite: str) -> dict:
    """Run the checks of one suite, or of all of them, sorted by identifier."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"expected 'all' or one of {', '.join(SUITES)}")
    checks = sorted((c for c in _checks()
                     if suite == "all" or c.identifier.startswith(suite + ".")),
                    key=lambda c: c.identifier)
    results = []
    for c in checks:
        start = time.perf_counter()
        computed = c.compute()
        millis = round((time.perf_counter() - start) * 1000, 3)
        results.append({
            "identifier": c.identifier,
            "anchor": c.anchor,
            "expected": _frac_json(c.expected),
            "computed": _frac_json(computed),
            "pass": computed == c.expected,
            "millis": millis,
        })
    return {"suite": suite, "checks": results,
            "pass": all(r["pass"] for r in results)}


def _dump(data: dict | str, path: str | None) -> int:
    """Print data as JSON text, or write it to the ``--json`` path; 0, or
    2 after one line on stderr if that file cannot be written."""
    text = data if isinstance(data, str) else json.dumps(
        data, sort_keys=True, indent=2)
    if not path:
        print(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print(f"prym6: cannot write {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return 0


def cmd_verify(args) -> int:
    report = run_checks(args.suite)
    if _dump(report, args.json):
        return 2
    if args.json:
        status = "ok" if report["pass"] else "FAILED"
        print(f"{args.suite}: {len(report['checks'])} checks {status}")
    return 0 if report["pass"] else 1


def cmd_construct(args) -> int:
    from . import conicbundle

    try:
        inst = conicbundle.construct_instance(args.seed)
    except conicbundle.GenericityError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    if _dump(inst.to_json(), args.json):
        return 2
    if args.json:
        print(f"instance written to {args.json}")
    return 0


def _frac_json(v: int | Fraction) -> list[int]:
    return [v.numerator, v.denominator]


def cmd_sweep(args) -> int:
    from . import conicbundle

    try:
        report = conicbundle.sweep(args.seed, args.samples)
    except conicbundle.GenericityError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    net = report["net"]
    data = {
        "seed": args.seed,
        "net_dimension": net.system.dim,
        "base_point": [_frac_json(c) for c in net.o],
        "cubic_node": [_frac_json(c) for c in report["cubic"]["node"]],
        "samples": [
            {
                "line_dual": [_frac_json(c) for c in inst.marked_lines[4].dual],
                "certified_nodes": len(inst.node_certificates),
                "sections": [
                    {"index": j,
                     "residual_dual": [_frac_json(c) for c in m],
                     "point": None if y is None
                     else [_frac_json(c) for c in y]}
                    for j, (m, y) in enumerate(inst.residuals[:4])],
            }
            for inst in report["samples"]],
    }
    return _dump(data, args.json)


def _positive_int(text: str) -> int:
    import argparse

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="prym6",
        description="exact verification toolkit for genus-6 Prym conic bundles")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=["all", *SUITES], default="all")
    p_verify.add_argument("--json", metavar="PATH", default=None,
                          help="write the report to a file instead of stdout")
    p_verify.set_defaults(func=cmd_verify)

    p_construct = sub.add_parser("construct",
                                 help="build and certify a seeded instance")
    p_construct.add_argument("--seed", type=int, required=True)
    p_construct.add_argument("--json", metavar="PATH", default=None)
    p_construct.set_defaults(func=cmd_construct)

    p_sweep = sub.add_parser("sweep", help="run the net-and-pencil pipeline")
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--samples", type=_positive_int, default=3)
    p_sweep.add_argument("--json", metavar="PATH", default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull, so that the
        # interpreter's last flush of what is left stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return status


if __name__ == "__main__":
    raise SystemExit(main())
