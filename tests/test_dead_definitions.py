"""Every top-level function and class in src/udfield, and every method
of a top-level class other than the dunders, is named somewhere in src/
outside its own definition: called, imported, subclassed, read as an
attribute or listed by name as an export.  A definition that only tests
reach is dead code.  The package's `__getattr__` and `__dir__` are called
by Python itself (PEP 562) and are exempt.  The Fraction ComplexInterval,
which the oracles in tests/ keep, is named nowhere in src/."""

import ast
import pathlib
from collections import Counter

import udfield

SRC = pathlib.Path(udfield.__file__).parent
EXEMPT = {"__getattr__", "__dir__"}


def _names(node):
    """Counter of the identifiers a syntax tree mentions: names, attributes,
    imported names and string constants that are identifiers."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out[sub.value] += 1
    return out


def _definitions(statements):
    """(file, name, node) of each top-level function and class, and of each
    non-dunder method of a top-level class, as Class.method."""
    for name, stmt in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield name, stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield name, f"{stmt.name}.{sub.name}", sub


def test_every_top_level_definition_is_named_elsewhere_in_src():
    statements = [(path.name, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    total = sum((_names(stmt) for _, stmt in statements), Counter())
    dead = []
    for name, qualname, node in _definitions(statements):
        short = node.name
        if short not in EXEMPT and total[short] == _names(node)[short]:
            dead.append(f"{name}: {qualname}")
    assert not dead, dead


def test_complex_interval_is_named_nowhere_in_src():
    assert not [path.name for path in SRC.glob("*.py") if "ComplexInterval" in path.read_text()]
