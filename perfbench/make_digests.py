"""Recompute digests.json from the current code.

Run only when a change alters prym6's outputs on purpose, and say why in
that change: the benchmark fails every item whose output differs from the
digest kept here.  Takes about two minutes.

    python3 perfbench/make_digests.py
"""

from __future__ import annotations

import json
import sys

import worker
import workloads


def digest(wl, s: int) -> str:
    text = wl.output_text(wl.run_item(wl.make_input(s)))
    if text is None:
        raise SystemExit(f"{wl.name} item {s} gave an invalid output")
    return workloads.sha256(text)


def main() -> int:
    worker.import_prym6()
    out = {}
    for name in ("construct", "sweep", "exact"):
        wl = workloads.WORKLOADS[name]
        out[name] = {str(s): digest(wl, s)
                     for s in [workloads.WARMUP_SEED, *wl.universe]}
        print(f"{name}: {len(out[name])} digests", file=sys.stderr)
    out["verify"] = digest(workloads.WORKLOADS["verify"], workloads.WARMUP_SEED)
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
