"""Benchmark for prym6: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each measurement runs in its own single-threaded worker process, one at a
time.  With ``--trace 0`` the end-to-end metrics come from untraced workers:
set-up is measured in three fresh processes and reported as the median, then
one worker runs items back to back (a closed loop with one client) until the
items have taken ``--seconds``.  With ``--trace 1`` a fixed number of items
runs three times: traced, untraced, traced again, with spans around prym6's
public functions; the two traced runs must agree on every count.  The last line of
standard output is one JSON object; the exit code is 1 when an output failed
its check and 2 when the benchmark could not run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

#: a run must end within 180 seconds; this leaves room to print and exit
TIME_LIMIT_S = 170.0
SETUP_SAMPLES = 3
#: a traced run has ``--seconds`` / TRACE_SHARE worth of nominal items
TRACE_SHARE = 5

END_TO_END_UNITS = {"setup_s": "s", "item_s.p50": "s", "item_s.p90": "s",
                    "items_per_s": "1/s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_worker(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before {' '.join(extra)}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker timed out ({' '.join(extra)})") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{workload}: worker printed no result") from exc


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    runs = [run_worker(workload, seed, deadline, "--setup-only")
            for _ in range(SETUP_SAMPLES - 1)]
    main = run_worker(workload, seed, deadline, "--seconds", str(seconds))
    runs.append(main)
    item_s = main["item_s"]
    if not item_s:
        raise BenchError(f"{workload}: no item ran")
    p90 = statistics.quantiles(item_s, n=10)[-1] if len(item_s) > 1 else item_s[0]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "item_s.p50": statistics.median(item_s),
        "item_s.p90": p90,
        "items_per_s": len(item_s) / sum(item_s),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return {
        "correct": all(r["failed"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()},
    }


def trace_items(workload: str, seconds: float) -> int:
    nominal = workloads.WORKLOADS[workload].nominal_item_s
    return max(1, round(seconds / nominal / TRACE_SHARE))


def exact_counts(layers: dict) -> dict:
    """Everything a traced run counts; two runs on one seed must agree."""
    counts = {f"{k}.calls": v["calls"] for k, v in layers["spans"].items()}
    counts.update({f"{k}.calls": v for k, v in layers["counts"].items()})
    counts.update({k: v for k, v in layers.items()
                   if k not in ("spans", "counts")})
    return counts


def layer_metrics(workload: str, n: int, runs: list, overhead: float) -> dict:
    wl = workloads.WORKLOADS[workload]
    a = runs[0]["layers"]
    out = {}
    for name in tracer.span_names():
        calls = a["spans"].get(name, {}).get("calls", 0)
        self_s = statistics.fmean(
            r["layers"]["spans"].get(name, {}).get("self_s", 0.0) / r["slowdown"]
            for r in runs)
        out[f"{name}.calls"] = metric(calls / n, "calls/item")
        out[f"{name}.self_s"] = metric(self_s / n, "s/item")
    for name in tracer.counted_names():
        out[f"{name}.calls"] = metric(a["counts"].get(name, 0) / n, "calls/item")
    certified = wl.certified_per_item * n
    proofs = a["spans"].get("planesys.only_known_common_roots", {}).get("calls", 0)
    out.update({
        "conicbundle.base_system.cache_misses": metric(
            a["base_system_misses"], "count"),
        "planesys.only_known_common_roots.false_accepts": metric(
            a["control_false_accepts"], "count"),
        "conicbundle.attempts_per_item": metric(
            (a["zeta_calls"] + a["pencil_cuts"]) / certified if certified else 0,
            "tries/instance"),
        "planesys.coord_changes_per_proof": metric(
            a["proof_resultants"] / 2 / proofs if proofs else 0, "tries/proof"),
        "conicbundle.Q_bits.max": metric(a["q_bits"], "bits"),
        "conicbundle.gamma_bits.max": metric(a["gamma_bits"], "bits"),
        "chow.repeat_ratio": metric(
            a["repeats"] / a["repeat_calls"] if a["repeat_calls"] else 0, "ratio"),
        "trace.overhead_ratio": metric(overhead, "ratio"),
    })
    return out


def traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    n = trace_items(workload, seconds)
    spans = BENCH / "out" / f"spans-{workload}-{seed}.jsonl"
    # the untraced run sits between the traced ones, so a drift in machine
    # speed during the three runs does not bias the overhead ratio
    first = run_worker(workload, seed, deadline, "--items", str(n), "--trace",
                       "--spans", str(spans))
    plain = run_worker(workload, seed, deadline, "--items", str(n))
    runs = [first, run_worker(workload, seed, deadline, "--items", str(n),
                              "--trace")]
    ca, cb = (exact_counts(r["layers"]) for r in runs)
    drift = sorted(k for k in ca.keys() | cb.keys() if ca.get(k) != cb.get(k))
    if drift:
        print(f"{workload}: counts differ between two traced runs: {drift}",
              file=sys.stderr)
    overhead = statistics.fmean(sum(r["item_s"]) for r in runs) / sum(plain["item_s"])
    all_runs = [plain, *runs]
    return {
        "correct": not drift and all(r["failed"] == 0 for r in all_runs),
        "attempted": sum(r["attempted"] for r in all_runs),
        "failed": sum(r["failed"] for r in all_runs),
        "metrics": layer_metrics(workload, n, runs, overhead),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        p.error("--seconds must be positive")

    try:
        if not (ROOT / "src" / "prym6" / "__init__.py").is_file():
            raise BenchError(f"no prym6 sources under {ROOT / 'src'}")
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        measure = traced if args.trace else end_to_end
        results = {name: measure(name, args.seed, args.seconds,
                                 monotonic() + TIME_LIMIT_S) for name in names}
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
