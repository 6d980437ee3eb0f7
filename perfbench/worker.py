"""One benchmark process: set up, run one workload's items, check, report.

``run.py`` starts this script once per measurement, one process at a time,
so every import, cache and peak-memory figure belongs to a single workload.
The last line of standard output is one JSON object.  Exits nonzero when
prym6 cannot be imported from the checkout's ``src`` directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

#: seconds ``calibration_s`` takes on the reference machine (2 vCPU Xeon,
#: Python 3.11.7) when no other tenant slows it down
CALIBRATION_NOMINAL_S = 0.005


def import_prym6():
    """Import prym6 from this checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import prym6
    if Path(prym6.__file__).resolve().parent != SRC / "prym6":
        raise ImportError(f"prym6 imported from {prym6.__file__}, not {SRC}")
    return prym6


def calibration_s() -> float:
    """Wall time of a fixed standard-library loop shaped like prym6's work.

    Fraction sums, tuple-keyed dicts and big-integer products run on the
    same interpreter paths as prym6, so when other tenants of the host slow
    this machine down, they stretch the loop about as much as an item.  The
    collector is off meanwhile, so garbage that prym6 left behind does not
    bill its collections to the loop.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(1, 200):
            acc += Fraction(i * 7919, i * i + 1)
            key = (i % 11, i % 7, i % 5)
            table[key] = table.get(key, Fraction(0)) + Fraction(
                acc.numerator % 1000003, i)
        for _ in range(6):
            table = {k[::-1]: v * 2 - Fraction(1, 3) for k, v in table.items()}
        x = 3 ** 2000
        for _ in range(40):
            x = x * 1234567891 % 7 ** 1500
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference machine, from two calibrations."""
    return (before + after) / 2 / CALIBRATION_NOMINAL_S


def calibration_median() -> float:
    """Median of three calibrations, for the one-off set-up measurement."""
    return statistics.median(calibration_s() for _ in range(3))


def peak_rss_mib() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / (1 << 20) if sys.platform == "darwin" else kib / 1024


class Checked:
    """Runs items and checks their outputs; counts what was attempted."""

    def __init__(self, workload, digests):
        self.workload, self.digests = workload, digests
        self.attempted = self.failed = 0

    def judge(self, label, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"{self.workload.name}: {label} failed its check",
                  file=sys.stderr)

    def run(self, s, inp, run_item):
        """Time one item on universe seed ``s``; returns its wall seconds."""
        start = perf_counter()
        try:
            out = run_item(inp)
        except Exception:
            elapsed = perf_counter() - start
            traceback.print_exc()
            self.judge(f"item {s}", False)
            return elapsed
        elapsed = perf_counter() - start
        self.judge(f"item {s}", self.workload.output_ok(s, out, self.digests))
        return elapsed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--setup-only", action="store_true")
    group.add_argument("--seconds", type=float,
                       help="stop once the items have taken this long")
    group.add_argument("--items", type=int, help="run exactly this many items")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", metavar="PATH", help="write the spans here")
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    digests = workloads.load_digests()

    before = calibration_median()
    start = perf_counter()
    prym6 = import_prym6()
    base_system = prym6.conicbundle.base_system
    if wl.uses_base_system:
        base_system(tuple(tuple(p) for p in prym6.conicbundle.STANDARD_NODES))
    setup_wall_s = perf_counter() - start
    checked = Checked(wl, digests)
    warmup = wl.make_input(workloads.WARMUP_SEED)
    setup_wall_s += checked.run(workloads.WARMUP_SEED, warmup, wl.run_item)
    result = {
        "setup_s": setup_wall_s / slowdown(before, calibration_median()),
        "setup_wall_s": setup_wall_s,
    }
    if args.setup_only:
        result.update(attempted=checked.attempted, failed=checked.failed)
        print(json.dumps(result))
        return 0

    checked.judge("negative control (a curve with an unlisted node passed "
                  "the exact completeness check)",
                  workloads.negative_control())
    false_accepts = workloads.control_false_accepts()
    if false_accepts:
        print(f"known defect: the exact completeness check accepted a curve "
              f"with an unlisted node under {false_accepts} of "
              f"{workloads.CONTROL_PANEL} changes of coordinates",
              file=sys.stderr)

    order = wl.order(args.seed)
    ready = None
    if args.items is not None:
        # made before the wrappers go in, so no span covers input generation
        order = order[:args.items]
        ready = [wl.make_input(s) for s in order]
    run_item = wl.run_item
    trace = None
    if args.trace:
        trace = tracer.Tracer()
        trace.install(prym6)
        run_item = trace.spanned("bench.item", run_item)
    item_wall_s, slowdowns = [], []
    before = calibration_s()
    for index, s in enumerate(order):
        if args.seconds is not None and sum(item_wall_s) >= args.seconds:
            break
        if trace:
            trace.begin_item(index)
        inp = ready[index] if ready else wl.make_input(s)
        item_wall_s.append(checked.run(s, inp, run_item))
        after = calibration_s()
        slowdowns.append(slowdown(before, after))
        before = after

    result.update({
        "item_s": [t / f for t, f in zip(item_wall_s, slowdowns)],
        "item_wall_s": item_wall_s,
        "slowdown": statistics.median(slowdowns) if slowdowns else 1.0,
        "peak_rss_mb": peak_rss_mib(),
        "attempted": checked.attempted,
        "failed": checked.failed,
    })
    if trace:
        spans = [s for s in trace.spans if s is not None]
        result["layers"] = {
            "spans": trace.summary(),
            "counts": dict(trace.counts),
            "zeta_calls": sum(1 for s in spans if s[2] == "conicbundle.zeta"),
            "pencil_cuts": tracer.child_count(
                spans, "conicbundle.impose_line", "conicbundle.sweep"),
            "proof_resultants": tracer.child_count(
                spans, "planesys.resultant_x3",
                "planesys.only_known_common_roots"),
            "q_bits": trace.q_bits,
            "gamma_bits": trace.gamma_bits,
            "repeat_calls": trace.repeat_calls,
            "repeats": trace.repeats,
            "base_system_misses": base_system.cache_info().misses,
            "control_false_accepts": false_accepts,
        }
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            trace.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
