"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "prym6"


def _nodes(kind):
    """(file name, node) for every node of the given kind in the package."""
    return [(path.name, node) for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, kind)]


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
    # code; only a Name or Attribute node counts, not a mention in a string
    # or a comment
    used = ({node.id for _, node in _nodes(ast.Name)}
            | {node.attr for _, node in _nodes(ast.Attribute)})
    unused = [f"{name}:{node.lineno} {node.name}"
              for name, node in _nodes((ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))
              if node.name.startswith("_")
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in used]
    assert unused == []
