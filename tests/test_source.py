"""Checks on the package source itself."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prym6"


def _nodes(kind):
    """(file name, node) for every node of the given kind in the package."""
    return [(path.name, node) for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, kind)]


def _names_used() -> set[str]:
    """Every name the package refers to: only a Name or Attribute node
    counts, not a mention in a string or a comment."""
    return ({node.id for _, node in _nodes(ast.Name)}
            | {node.attr for _, node in _nodes(ast.Attribute)})


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # silently stop running; a check in src/ raises an exception instead
    found = [f"{name}:{node.lineno}" for name, node in _nodes(ast.Assert)]
    assert found == []


def test_no_float_literals():
    # the package computes in exact arithmetic only; a float literal would
    # round silently wherever it met a Fraction
    found = [f"{name}:{node.lineno}" for name, node in _nodes(ast.Constant)
             if isinstance(node.value, float)]
    assert found == []


def test_every_private_helper_has_a_caller():
    # a private function or class that nothing in the package names is dead
    # code
    used = _names_used()
    unused = [f"{name}:{node.lineno} {node.name}"
              for name, node in _nodes((ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))
              if node.name.startswith("_")
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in used]
    assert unused == []


#: public top-level functions that nothing in the package calls, each with
#: the reason it stays; a new one fails the test below until it has a caller
#: or an entry here
UNCALLED_PUBLIC = {
    "conicbundle.impose_point": "spanned by perfbench/tracer.py (ROADMAP item 1)",
    "exactalg.solve_exact": "spanned by perfbench/tracer.py (ROADMAP item 1)",
    "planesys.det_field": "spanned by perfbench/tracer.py (ROADMAP item 1)",
    "planesys.find_unique_common_root":
        "spanned by perfbench/tracer.py (ROADMAP item 1)",
}


def test_uncalled_public_functions_are_pinned():
    used = _names_used()
    uncalled = {f"{path.stem}.{node.name}"
                for path in sorted(SRC.glob("*.py"))
                for node in ast.parse(path.read_text(encoding="utf-8")).body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_") and node.name not in used}
    assert uncalled == set(UNCALLED_PUBLIC)


def test_tracer_pins_are_spanned():
    # an entry kept for the benchmark's tracer is dead code once the tracer
    # stops spanning or counting it; the tracer is loaded, not run, as in
    # test_perfbench_names.py
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {f"{mod}.{func}" for table in (tracer.SPANNED, tracer.COUNTED)
              for mod, funcs in table.items() for func in funcs}
    for pins in (UNCALLED_PUBLIC, UNCALLED_PUBLIC_METHODS):
        pinned = [name for name, reason in pins.items()
                  if "perfbench/tracer.py" in reason]
        assert pinned
        assert [name for name in pinned if name not in traced] == []


#: caches in the package with no finite maxsize, each with the reason its
#: keys are finite; a cache keyed on input data needs a bound instead, or
#: it grows peak memory with every new input
UNBOUNDED_CACHES = {
    "conicbundle.base_system": "the package asks it at STANDARD_NODES only",
    "planesys._product_table": "keyed on a degree pair",
    "planesys.monomials_of_degree": "keyed on a degree",
    "qpath._shifts": "keyed on a degree",
}


def _cache_maxsize(decorator):
    """The maxsize of a functools cache decorator: None when it is unbounded
    or not an int literal, False when the decorator is no cache."""
    call = decorator if isinstance(decorator, ast.Call) else None
    name = ast.unparse(call.func if call else decorator).rsplit(".", 1)[-1]
    if name not in ("cache", "lru_cache"):
        return False
    if not call:
        return None if name == "cache" else 128
    args = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args
    if not args:
        return 128
    value = getattr(args[0], "value", None)
    return value if type(value) is int else None


def test_every_cache_is_bounded_or_pinned():
    sizes = [(f"{path.stem}.{node.name}", _cache_maxsize(d))
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for d in node.decorator_list]
    assert ("planesys._jet_table", 16) in sizes
    assert {name for name, size in sizes if size is None} == set(UNBOUNDED_CACHES)


#: public methods that nothing in the package reads as an attribute, each
#: with the reason it stays; a new one fails the test below until it has a
#: caller or an entry here.  Matching is by attribute name, so a plain name
#: (``functools.partial``, a parameter ``vector``) hides no method, but any
#: attribute of the same name (``QVector.coeffs`` for a ``coeffs`` method
#: elsewhere) does.
UNCALLED_PUBLIC_METHODS = {
    "chow.DelPezzoRing.E":
        "a generator of S's Picard group beside L, which the tests build; "
        "canonical() writes -3L + E1 + ... + E4 as one integer row",
    "conicbundle.ConicBundleInstance.from_json":
        "the public loader of instance JSON, which the CI installed-script "
        "step runs",
    "exactalg.MultiPoly.evaluate": "counted by perfbench/tracer.py (ROADMAP item 1)",
    "exactalg.MultiPoly.partial": "counted by perfbench/tracer.py (ROADMAP item 1)",
}


def test_uncalled_public_methods_are_pinned():
    used = {node.attr for _, node in _nodes(ast.Attribute)}
    uncalled = {f"{path.stem}.{cls.name}.{node.name}"
                for path in sorted(SRC.glob("*.py"))
                for cls in ast.parse(path.read_text(encoding="utf-8")).body
                if isinstance(cls, ast.ClassDef)
                for node in cls.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_") and node.name not in used}
    assert uncalled == set(UNCALLED_PUBLIC_METHODS)


def test_every_ring_has_the_methods_chow_classes_read():
    # a ChowClass multiplies and pairs through its ring, so a ring without
    # one of those methods would fail only when a caller first took that
    # path: every ring pairs, and the two rings that the package multiplies
    # in also multiply; classes on S are paired, never multiplied, and the
    # P^2-bundle is a record of its data on S, not a ring
    tree = ast.parse((SRC / "chow.py").read_text(encoding="utf-8"))
    classes = {node.name: node for node in tree.body
               if isinstance(node, ast.ClassDef)}
    read = {node.attr for node in ast.walk(classes.pop("ChowClass"))
            if isinstance(node, ast.Attribute)
            and ast.unparse(node.value) == "self.ring"}
    assert read == {"integral", "mul_into"}
    methods = {name: {node.name for node in cls.body
                      if isinstance(node, ast.FunctionDef)}
               for name, cls in classes.items()}
    rings = {name: sorted(read & defined) for name, defined in methods.items()
             if read & defined}
    assert rings == {"ProductProjectiveRing": ["integral", "mul_into"],
                     "DelPezzoRing": ["integral"],
                     "BlowupRing": ["integral", "mul_into"]}
    assert "ProjectiveBundle" in methods
    # one product method per ring: the one that ChowClass reads
    assert [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8")
                                     .splitlines(), 1)
            if "mul_basis" in line] == []


def test_no_product_is_formed_only_to_be_integrated():
    # an intersection number is a pairing, which reads the ring's integral
    # on pairs of terms; no class and no ring has an integrate, so no
    # product class can be formed only to read its top degree
    found = ([f"{name}:{node.lineno} def {node.name}"
              for name, node in _nodes(ast.FunctionDef)
              if node.name == "integrate"]
             + [f"{name}:{node.lineno} {ast.unparse(node)}"
                for name, node in _nodes(ast.Attribute)
                if node.attr == "integrate"])
    assert found == []


def test_ring_products_build_no_dict_per_pair():
    # ChowClass products reach mul_into once per pair of terms, and each
    # ring's mul_into adds into the caller's dict and builds none of its own
    tree = ast.parse((SRC / "chow.py").read_text(encoding="utf-8"))
    mul_into = {cls.name: node for cls in tree.body
                if isinstance(cls, ast.ClassDef)
                for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "mul_into"}
    assert set(mul_into) == {"ProductProjectiveRing", "BlowupRing"}
    built = [f"{name}: {ast.unparse(node)}" for name, fn in mul_into.items()
             for node in ast.walk(fn)
             if isinstance(node, (ast.Dict, ast.DictComp))
             or isinstance(node, ast.Call) and ast.unparse(node.func) == "dict"]
    assert built == []


def test_every_import_is_used():
    # an import nothing in its module reads is a leftover of deleted code;
    # __future__ imports set flags
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []


#: functions in the package that import inside their body, each with the
#: reason the import is not at the top of its module; a new one fails the
#: test below until it states its reason here
FUNCTION_LEVEL_IMPORTS = {
    "cli.run_checks": "only verify reads the check table, the rings and the "
                      "ledger",
    "cli.cmd_construct": "only construct and sweep build conic bundles",
    "cli.cmd_sweep": "only sweep builds the net and its pencil",
    "cli.build_parser": "argparse is needed only to parse a command line",
    "cli._positive_int": "argparse is needed only to parse a command line",
    "conicbundle.__getattr__": "forwards the three names perfbench/tracer.py "
                               "spans from prym6.net, which construct never "
                               "loads (ROADMAP item 1b)",
    "exactalg.det3_poly": "planesys imports exactalg at the top, and only "
                          "det3_poly needs planesys, which chow never loads",
    "planesys.__getattr__": "forwards the two names perfbench/tracer.py spans "
                            "from prym6.qpath, which no command loads "
                            "(ROADMAP item 1b)",
    "planesys.find_unique_common_root": "it runs on prym6.qpath, which no "
                                        "command loads and which imports "
                                        "planesys at its top",
    "planesys.only_known_common_roots": "only exact mode runs prym6.qpath, "
                                        "which no command loads",
    "planesys.uni_gcd": "only a gcd over Q runs prym6.qpath, which no "
                        "command loads",
}


def _functions_with(predicate) -> set[str]:
    """Every function of the package with a node, in its body or in a
    nested function, for which predicate holds."""
    return {f"{path.stem}.{func.name}"
            for path in sorted(SRC.glob("*.py"))
            for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(map(predicate, ast.walk(func)))}


def test_function_level_imports_are_pinned():
    found = _functions_with(lambda node: isinstance(node, (ast.Import, ast.ImportFrom)))
    assert found == set(FUNCTION_LEVEL_IMPORTS)


#: functions in the package that call int(), each with the reason the
#: conversion cannot truncate; a new one fails the test below until it states
#: its reason here, since int() of a float or a Fraction rounds toward zero
#: where `operator.index` raises
INT_CALLS = {
    "cli._positive_int": "parses the text of a command-line argument",
    "planesys.det_field": "converts an integral Fraction, the determinant of "
                          "an integer matrix",
}


def test_int_calls_are_pinned():
    found = _functions_with(lambda node: isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Name)
                            and node.func.id == "int")
    assert found == set(INT_CALLS)


def test_tests_the_readme_names_exist():
    # README cites tests as evidence for its certificates; a renamed or
    # deleted test must not leave a citation behind
    defined = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        defined |= {method.name, f"{node.name}::{method.name}"}
    cited = re.findall(r"`((?:Test\w+::)?(?:test_|Test)\w+)`",
                       (ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(cited) >= 8
    assert [name for name in cited if name not in defined] == []


def test_every_file_parses_as_python_3_10():
    # pyproject.toml allows Python 3.10, so no file of the package, its
    # tests or its benchmark may use newer grammar; the parser's check is
    # best-effort, but it knows an except* clause
    files = sorted(path for top in ("src", "tests", "perfbench")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(files) >= 24
    failed = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path),
                      feature_version=(3, 10))
        except SyntaxError as exc:
            failed.append(f"{path.relative_to(ROOT)}:{exc.lineno} {exc.msg}")
    assert failed == []
    # 3.11 and later name the version they need; 3.10 says "invalid syntax"
    with pytest.raises(SyntaxError, match=r"3\.11|invalid syntax"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
