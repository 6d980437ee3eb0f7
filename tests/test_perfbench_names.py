"""The benchmark's tracer wraps prym6 functions it looks up by name.

A renamed or deleted kernel would only show in the slower harness smoke
test; this loads ``perfbench/tracer.py`` (without running or changing
anything) and checks that each name it binds still resolves.  Some of those
names are forwarded from the module the tracer names to the one the
function lives in, so a fresh interpreter also installs the tracer and
checks that the forwarded functions are spanned where they are called.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import prym6

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
SRC = ROOT / "src"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(mod_name: str, dotted: str):
    obj = getattr(prym6, mod_name)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_name_resolves():
    tracer = load_tracer()
    names = [(mod, func) for table in (tracer.SPANNED, tracer.COUNTED)
             for mod, funcs in table.items() for func in funcs]
    names += [tuple(name.split(".", 1)) for name in
              (tracer.Q_ARG, tracer.GAMMA_ARG, *tracer.REPEAT_TRACKED)]
    # the uni_gcd span is labelled by comparing its field argument with QQ
    names.append(("planesys", "QQ"))
    missing = []
    for mod, func in names:
        try:
            resolve(mod, func)
        except AttributeError:
            missing.append(f"{mod}.{func}")
    assert missing == []


#: in a fresh interpreter, so the wrappers die with it: one warm `sweep`
#: item and one warm exact proof, so that `prym6.net` and `prym6.qpath` are
#: loaded before `Tracer.install` lists the modules it patches; then the
#: tracer is installed and one item of each runs traced.  Prints the span
#: names of each traced item with their counts.
TRACED_PROBE = """
import argparse, contextlib, importlib.util, io, json, random, sys
from collections import Counter

import prym6
from prym6 import cli
from prym6.conicbundle import X_BLOCKS, singular_locus_is_exactly
from prym6.exactalg import MultiPoly

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)


def sweep(seed):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.cmd_sweep(argparse.Namespace(seed=seed, samples=3, json=None))


def exact():
    # the two-conic quartic of test_exact_mode_on_small_curve
    f = MultiPoly.from_ints(X_BLOCKS, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -2})
    g = MultiPoly.from_ints(X_BLOCKS, {(2, 0, 0): 1, (0, 2, 0): 4, (0, 0, 2): -5})
    points = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)]
    return singular_locus_is_exactly(f * g, points, random.Random(2), exact=True)


sweep(0)
exact()
trace = tracer.Tracer()
trace.install(prym6)
trace.begin_item(0)
status = [sweep(7)]
trace.begin_item(1)
status.append(exact())
items = [Counter(s[2] for s in trace.spans if s is not None and s[5] == i)
         for i in (0, 1)]
print(json.dumps({"status": status, "sweep": items[0], "exact": items[1]}))
"""


def test_tracer_spans_the_moved_functions_where_they_are_called():
    # sweep, build_net_T and discriminant_cubic live in prym6.net, and
    # resultant_x3 and p3_linear_change in prym6.qpath; the tracer finds
    # them under their conicbundle and planesys names through each module's
    # __getattr__, and replaces every reference to them in the loaded
    # modules, so the spans appear where the functions are called
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", TRACED_PROBE, str(TRACER)],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    out = json.loads(run.stdout)
    assert out["status"] == [0, True]
    sweep = out["sweep"]
    assert [sweep.get(f"conicbundle.{name}", 0) for name in
            ("sweep", "build_net_T", "discriminant_cubic", "impose_line")] == [1, 1, 1, 3]
    # the net cubic's proof and one per certified pencil member
    assert sweep["planesys.only_known_common_roots"] == 4
    exact = out["exact"]
    assert exact["planesys.only_known_common_roots"] == 1
    assert exact.get("planesys.resultant_x3", 0) >= 1
    assert exact.get("planesys.p3_linear_change", 0) >= 1
    assert exact["planesys.resultant_x3"] == exact["planesys.p3_linear_change"]
