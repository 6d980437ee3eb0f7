"""The package's start-up and record contracts.

`import prym6` loads each submodule on first access, so a command compiles
only the modules it runs; the records are NamedTuples, immutable and equal
by value.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from prym6 import checks
from prym6 import conicbundle as cb
from prym6 import net as nt

SRC = Path(__file__).resolve().parents[1] / "src"

#: run in a fresh interpreter, so no module loaded by the tests counts
IMPORT_PROBE = """
import json, sys
import prym6
first = sorted(m for m in sys.modules if m.startswith("prym6."))
import prym6.conicbundle
prym6.conicbundle.construct_instance(1).to_json()
construct = sorted(m for m in ("dataclasses", "prym6.chow", "prym6.moduli",
                               "prym6.cli", "prym6.checks", "prym6.net",
                               "prym6.qpath") if m in sys.modules)
resolved = [name for name in prym6.__all__
            if getattr(prym6, name) is sys.modules[f"prym6.{name}"]]
try:
    prym6.no_such_module
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({"first": first, "construct": construct,
                  "resolved": resolved, "unknown": unknown}))
"""


#: runs one command, or the exact completeness check on the two-conic
#: quartic of `test_exact_mode_on_small_curve`, in a fresh interpreter and
#: prints the prym6 modules it loaded
COMMAND_PROBE = """
import contextlib, io, json, random, sys
from prym6.cli import main, run_checks
with contextlib.redirect_stdout(io.StringIO()):
    if sys.argv[1] == "construct":
        main(["construct", "--seed", "1"])
    elif sys.argv[1] == "sweep":
        main(["sweep", "--seed", "7", "--samples", "1"])
    elif sys.argv[1] == "verify":
        run_checks("all")
    else:
        from prym6.conicbundle import X_BLOCKS, singular_locus_is_exactly
        from prym6.exactalg import MultiPoly
        f = MultiPoly.from_ints(X_BLOCKS, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -2})
        g = MultiPoly.from_ints(X_BLOCKS, {(2, 0, 0): 1, (0, 2, 0): 4, (0, 0, 2): -5})
        points = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)]
        if not singular_locus_is_exactly(f * g, points, random.Random(2), exact=True):
            raise SystemExit("the exact check rejected the two-conic quartic")
print(json.dumps(sorted(m for m in sys.modules if m.startswith("prym6."))))
"""


def _probe(code: str, *args: str):
    """What a fresh interpreter running code prints, as JSON."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", code, *args],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_submodules_load_on_first_use():
    import prym6
    assert _probe(IMPORT_PROBE) == {
        "first": [], "construct": [], "resolved": prym6.__all__,
        "unknown": "AttributeError"}


#: the prym6 modules each probed command must load
NEEDED = {
    "sweep": {"prym6.net"},
    "verify": {"prym6.checks", "prym6.chow", "prym6.moduli"},
    "construct": {"prym6.conicbundle", "prym6.planesys"},
    "exact": {"prym6.qpath"},
}


@pytest.mark.parametrize("command, unloaded", [
    ("sweep", {"prym6.chow", "prym6.moduli", "prym6.checks", "prym6.qpath"}),
    ("verify",
     {"prym6.conicbundle", "prym6.planesys", "prym6.net", "prym6.qpath"}),
    ("construct",
     {"prym6.chow", "prym6.moduli", "prym6.checks", "prym6.net", "prym6.qpath"}),
    ("exact", {"prym6.checks", "prym6.net"}),
])
def test_each_command_loads_only_what_it_runs(command, unloaded):
    loaded = set(_probe(COMMAND_PROBE, command))
    assert {"prym6.cli", *NEEDED[command]} <= loaded
    assert loaded & unloaded == set()


@pytest.fixture(scope="module")
def instance():
    return cb.construct_instance(1)


@pytest.fixture(scope="module")
def records(instance):
    """One of each of the seven records."""
    rng = random.Random(21)
    o = cb.random_point(rng)
    net = nt.build_net_T(o, [cb.random_line_in_fiber(rng) for _ in range(4)])
    return {
        "LinearSystem": net.system,
        "LineInFiber": instance.marked_lines[0],
        "SymQuadricMatrix": instance.A,
        "NodeCertificate": instance.node_certificates[0],
        "ConicBundleInstance": instance,
        "NetT": net,
        "Check": checks._checks()[0],
    }


def test_instance_round_trips_by_value(instance):
    loaded = cb.ConicBundleInstance.from_json(instance.to_json())
    assert loaded == instance and hash(loaded) == hash(instance)


def test_line_is_its_primitive_representative():
    half = cb.LineInFiber((Fraction(1, 2), Fraction(1), Fraction(3, 2)),
                          (-2, -4, 0))
    ints = cb.LineInFiber((1, 2, 3), (1, 2, 0))
    assert half == ints and hash(half) == hash(ints)
    assert half.o == (1, 2, 3) and type(half.o[0]) is int


@pytest.mark.parametrize("name", ["LinearSystem", "LineInFiber",
                                  "SymQuadricMatrix", "NodeCertificate",
                                  "ConicBundleInstance", "NetT", "Check"])
def test_records_are_immutable_values(records, name):
    record = records[name]
    assert type(record).__name__ == name
    for field in (*record._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    # positional and keyword construction give an equal record
    assert type(record)(*record) == record
    assert type(record)(**record._asdict()) == record
