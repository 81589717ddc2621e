"""Every top-level function and class in src/udfield is named somewhere in
src/ outside its own definition: called, imported, subclassed, read as an
attribute or listed by name as an export.  A definition that only tests
reach is dead code.  The package's `__getattr__` and `__dir__` are called
by Python itself (PEP 562) and are exempt."""

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


def test_every_top_level_definition_is_named_elsewhere_in_src():
    statements = [(path.name, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    counts = [_names(stmt) for _, stmt in statements]
    total = sum(counts, Counter())
    dead = []
    for (name, stmt), own in zip(statements, counts):
        if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and stmt.name not in EXEMPT and total[stmt.name] == own[stmt.name]):
            dead.append(f"{name}: {stmt.name}")
    assert not dead, dead
