"""The benchmark's tracer wraps prym6 functions it looks up by name.

A renamed or deleted kernel would only show in the slower harness smoke
test; this loads ``perfbench/tracer.py`` (without running or changing
anything) and checks that each name it binds still resolves.
"""

import importlib.util
from pathlib import Path

import prym6

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
