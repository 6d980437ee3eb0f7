"""Spans around prym6's public functions, installed from outside the package.

Each wrapped call records a span ``(id, parent id, name, start, end, item)``
in memory; the spans are written out when the run ends.  A function's self
time is its span's duration minus the durations of its direct child spans.
The hottest ``MultiPoly`` methods only count calls, since a span each would
cost more than the work it measures.

Run as a script to summarise a spans file:
``python3 perfbench/tracer.py perfbench/out/spans-construct-1.jsonl``.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: module -> public functions (``Class.method`` for methods) given a span
SPANNED = {
    "exactalg": ("QMatrix.rank", "QMatrix.kernel", "QMatrix.det",
                 "det3_poly", "solve_exact"),
    "planesys": ("only_known_common_roots", "find_unique_common_root",
                 "resultant_x3", "uni_interpolate", "det_field",
                 "p3_linear_change", "uni_gcd"),
    "conicbundle": ("construct_instance", "sweep", "zeta", "base_system",
                    "impose_line", "impose_point", "certify_instance",
                    "to_symmetric_matrix", "discriminant", "certify_nodes",
                    "node_certificate", "singular_locus_is_exactly",
                    "singular_point_on_Q", "rank_stratification_check",
                    "residual_line", "build_net_T", "discriminant_cubic"),
    "chow": ("blowup_intersection_table", "hrr_chi", "koszul_chi_B",
             "euler_numbers", "tangent_chern_classes", "kb_squared",
             "intersection_number", "verify_deg_h_two_ways"),
    "moduli": ("chi_of_Y_chain", "solve_double_line_count",
               "pencil_curve_numbers", "slope_bound", "psi_degree_via_Z",
               "degree_nine_lemma"),
    "cli": ("run_checks",),
}
COUNTED = {"exactalg": ("MultiPoly.evaluate", "MultiPoly.substitute",
                        "MultiPoly.partial")}
#: calls whose arguments ``chow.repeat_ratio`` compares within one report
REPEAT_TRACKED = ("chow.hrr_chi", "chow.euler_numbers")
#: calls whose first argument is Q or gamma, for the coefficient sizes
Q_ARG = "conicbundle.to_symmetric_matrix"
GAMMA_ARG = "conicbundle.singular_locus_is_exactly"


def span_names() -> list[str]:
    """Every span name a traced run can report, in a fixed order."""
    names = []
    for mod, funcs in SPANNED.items():
        for f in funcs:
            if f == "uni_gcd":
                names += [f"{mod}.uni_gcd.gfp", f"{mod}.uni_gcd.qq"]
            else:
                names.append(f"{mod}.{f}")
    return names


def counted_names() -> list[str]:
    return [f"{mod}.{f}" for mod, funcs in COUNTED.items() for f in funcs]


def coefficient_bits(poly) -> int:
    """Largest numerator or denominator size of a polynomial's coefficients."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in poly.terms.values()), default=0)


def structural_key(obj, depth: int = 4):
    """A hashable key under which equal arguments compare equal.

    Objects without value equality (a ring built afresh for each call) are
    keyed by their type and attributes, so a recomputation on equal data is
    seen as a repeat.
    """
    if isinstance(obj, (int, float, str, bytes, bool, type(None))):
        return obj
    if depth == 0:
        return type(obj).__name__
    if isinstance(obj, (list, tuple)):
        return tuple(structural_key(v, depth - 1) for v in obj)
    if isinstance(obj, dict):
        return tuple(sorted((repr(k), structural_key(v, depth - 1))
                            for k, v in obj.items()))
    attrs = getattr(obj, "__dict__", None)
    if attrs is None:
        return repr(obj)
    return (type(obj).__name__, structural_key(attrs, depth - 1))


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.item = -1
        self.q_bits = 0
        self.gamma_bits = 0
        self.repeat_calls = 0
        self.repeats = 0
        self._seen_args: set = set()

    def begin_item(self, index: int) -> None:
        """Start a new item; repeats are judged within one item."""
        self.item = index
        self._seen_args = set()

    def _observe(self, name: str, args) -> None:
        if name == Q_ARG:
            self.q_bits = max(self.q_bits, coefficient_bits(args[0]))
        elif name == GAMMA_ARG:
            self.gamma_bits = max(self.gamma_bits, coefficient_bits(args[0]))
        elif name in REPEAT_TRACKED:
            key = (name, structural_key(args))
            self.repeat_calls += 1
            if key in self._seen_args:
                self.repeats += 1
            self._seen_args.add(key)

    def spanned(self, name, fn, name_of=None):
        spans, stack, observe = self.spans, self.stack, self._observe
        observed = name in (Q_ARG, GAMMA_ARG, *REPEAT_TRACKED)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name_of(args) if name_of else name
            if observed:
                observe(name, args)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, label, start, end, self.item)
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, package) -> None:
        """Wrap every listed function wherever prym6 holds a reference to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for kind, table in (("span", SPANNED), ("count", COUNTED)):
            for mod_name, funcs in table.items():
                mod = getattr(package, mod_name)
                for func in funcs:
                    name = f"{mod_name}.{func}"
                    if "." in func:
                        cls_name, meth = func.split(".")
                        cls = getattr(mod, cls_name)
                        orig = getattr(cls, meth)
                        wrapped = (self.spanned(name, orig) if kind == "span"
                                   else self.counted(name, orig))
                        setattr(cls, meth, wrapped)
                        continue
                    orig = getattr(mod, func)
                    name_of = None
                    if func == "uni_gcd":
                        qq = mod.QQ
                        name_of = (lambda args, qq=qq, base=name:
                                   f"{base}.qq" if args[0] is qq else f"{base}.gfp")
                    wrapped = self.spanned(name, orig, name_of)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is orig:
                                setattr(m, attr, wrapped)

    def summary(self) -> dict:
        """Per name: calls, self seconds and total seconds, over all items."""
        return summarise(s for s in self.spans if s is not None)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, item in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "item": item}) + "\n")


def summarise(spans) -> dict:
    spans = list(spans)
    child_time = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for sid, _, name, start, end, _ in spans:
        rec = out[name]
        rec["calls"] += 1
        rec["total_s"] += end - start
        rec["self_s"] += end - start - child_time[sid]
    return dict(out)


def child_count(spans, child: str, parent: str) -> int:
    """Calls of ``child`` made directly from a span of ``parent``."""
    names = {s[0]: s[2] for s in spans if s is not None}
    return sum(1 for s in spans
               if s is not None and s[2] == child and names.get(s[1]) == parent)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: tracer.py SPANS.jsonl", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    spans = [(r["id"], r["parent"], r["name"], r["start"], r["end"], r["item"])
             for r in rows]
    items = len({s[5] for s in spans})
    print(f"{len(spans)} spans over {items} items; wall seconds per item")
    print(f"{'name':48} {'calls':>9} {'self_s':>10} {'total_s':>10}")
    table = summarise(spans)
    for name, rec in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:48} {rec['calls'] / items:9.2f} "
              f"{rec['self_s'] / items:10.5f} {rec['total_s'] / items:10.5f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
