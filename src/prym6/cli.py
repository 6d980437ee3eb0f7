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
from typing import Sequence


#: the suites of `prym6 verify`; each selects the checks whose identifier
#: starts with its name and a dot
SUITES = ("chow", "counts", "slope")


def run_checks(suite: str) -> dict:
    """Run the checks of one suite, or of all of them, sorted by identifier."""
    from .checks import _checks

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
    from . import net

    try:
        report = net.sweep(args.seed, args.samples)
    except net.GenericityError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    net_t = report["net"]
    data = {
        "seed": args.seed,
        "net_dimension": net_t.system.dim,
        "base_point": [_frac_json(c) for c in net_t.o],
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
