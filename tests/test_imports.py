"""Import footprint: a command runs the udfield layers it uses and no
others.  The package binds its submodules as lazy modules, which run on
first attribute access, and resolves its exports on first use (PEP 562).
No command imports mpmath (certified pi and ln run on Python integers) or
`dataclasses` and `inspect` (the records are named tuples and classes with
__slots__), and only the float counting paths (`count --method
hashed|brute`, `--oracle`, `grid`) import numpy."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import udfield

SRC = os.path.dirname(os.path.dirname(os.path.abspath(udfield.__file__)))

# runs argv[1:] as `python -m udfield` or as a -c snippet, then prints the
# udfield modules that ran (a lazy module not yet run is a subclass of
# ModuleType) and which of mpmath, numpy, dataclasses and inspect were loaded
PROBE = """
import atexit, json, runpy, sys, types
def report():
    sys.stderr.write("PROBE " + json.dumps({
        "udfield": sorted(m for m, mod in sys.modules.items()
                          if m.startswith("udfield") and type(mod) is types.ModuleType),
        **{m: m in sys.modules for m in ("mpmath", "numpy", "dataclasses", "inspect")}})
        + "\\n")
atexit.register(report)
if sys.argv[1] == "-c":
    sys.argv = sys.argv[2:]
    exec(compile(sys.argv[0], "<snippet>", "exec"), {"__name__": "__main__"})
else:
    sys.argv = ["udfield"] + sys.argv[1:]
    runpy.run_module("udfield", run_name="__main__")
"""

# the benchmark's set-up child: import, field build and CM detection
SETUP = ("import sys, udfield\n"
         "from udfield.cli import build_field\n"
         "from udfield.numberfield import detect_cm\n"
         "sys.exit(detect_cm(build_field(sys.argv[1])) is None)\n")

FIELD_LAYERS = ["udfield", "udfield.cli", "udfield.errors", "udfield.intervals",
                "udfield.linalg", "udfield.numberfield", "udfield.numthy",
                "udfield.polynomials", "udfield.roots"]


def _probe(cwd, *args):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", PROBE, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    line = [ln for ln in proc.stderr.splitlines() if ln.startswith("PROBE ")][-1]
    return json.loads(line[len("PROBE "):])


def test_exact_count_loads_only_its_layers(tmp_path, capsys):
    from udfield.cli import main

    assert main(["generate", "--field", "gaussian", "--scale", "1", "--R", "4",
                 "--no-plot", "--out", str(tmp_path / "in")]) == 0
    got = _probe(tmp_path, "count", "--csv", "in/pointset.csv", "--method", "exact")
    # the window's pairs are a join over the unit differences, which one
    # radius-1 enumeration finds
    assert got["udfield"] == sorted(FIELD_LAYERS + ["udfield.counting",
                                                    "udfield.enumeration",
                                                    "udfield.serialize"])
    assert not got["mpmath"]
    assert not got["numpy"]
    assert not got["dataclasses"]


@pytest.mark.parametrize("args", [
    ["--field", "gaussian", "--prime", "5", "--k", "2", "--R", "3"],
    ["--field", "adjoin-i:5", "--prime", "29", "--k", "1", "--mode", "closure",
     "--allow-small-R", "--R", "843/841", "--scale", "1/841"]])
def test_generate_does_not_load_numpy(tmp_path, args):
    got = _probe(tmp_path, "generate", *args, "--out", "out")
    assert "udfield.construct" in got["udfield"]
    for module in ("numpy", "mpmath", "dataclasses", "inspect"):
        assert not got[module], module
    for name in ("report.json", "pointset.csv", "pointset.json", "scatter.svg"):
        assert (tmp_path / "out" / name).is_file()


def test_hashed_count_loads_numpy(tmp_path):
    from udfield.cli import main

    assert main(["generate", "--field", "gaussian", "--scale", "1", "--R", "4",
                 "--no-plot", "--out", str(tmp_path / "in")]) == 0
    got = _probe(tmp_path, "count", "--csv", "in/pointset.csv", "--method", "hashed",
                 "--oracle")
    assert got["numpy"] and not got["mpmath"]
    assert "udfield.enumeration" not in got["udfield"]


@pytest.mark.parametrize("field", ["gaussian", "adjoin-i:5"])
def test_field_setup_loads_neither_mpmath_nor_numpy(tmp_path, field):
    got = _probe(tmp_path, "-c", SETUP, field)
    assert got == {"udfield": FIELD_LAYERS, "mpmath": False, "numpy": False,
                   "dataclasses": False, "inspect": False}


def test_exponent_does_not_load_mpmath(tmp_path):
    # the ledger is arithmetic on T and p, beside the GS ledger in gstower:
    # no udfield.construct and none of the field stack
    got = _probe(tmp_path, "exponent", "--T", "3,5,7,11,13,17", "--p", "101")
    assert got["udfield"] == ["udfield", "udfield.cli", "udfield.errors", "udfield.gstower",
                              "udfield.intervals", "udfield.numthy", "udfield.serialize"]
    assert not got["mpmath"]


EXACT_STACK = {"udfield.numberfield", "udfield.roots", "udfield.polynomials",
               "udfield.linalg", "udfield.enumeration"}


@pytest.mark.parametrize("args", [
    ["grid", "--n", "100"],
    ["count", "--csv", "in/pointset.csv", "--method", "hashed"],
    ["r2", "--alpha", "25"]])
def test_float_paths_skip_the_field_stack(tmp_path, args):
    from udfield.cli import main

    if args[0] == "count":
        assert main(["generate", "--field", "gaussian", "--scale", "1", "--R", "4",
                     "--no-plot", "--out", str(tmp_path / "in")]) == 0
    got = _probe(tmp_path, *args)
    assert "udfield.counting" in got["udfield"]
    assert not EXACT_STACK & set(got["udfield"])


def test_exports_resolve_to_their_modules():
    assert udfield.__all__
    for name in udfield.__all__:
        home = importlib.import_module(f"udfield.{udfield._HOME[name]}")
        assert getattr(udfield, name) is getattr(home, name), name
    assert udfield.construct is importlib.import_module("udfield.construct")
    assert udfield.linalg.stack_rows is importlib.import_module("udfield.linalg").stack_rows
    assert set(udfield.__all__) <= set(dir(udfield))
    assert not hasattr(udfield, "no_such_name")
    assert not hasattr(udfield, "stack_rows")
    assert not hasattr(udfield, "__main__")


def test_submodules_are_bound_lazily():
    assert set(udfield._SUBMODULES) == {
        name[:-3] for name in os.listdir(os.path.dirname(udfield.__file__))
        if name.endswith(".py") and name not in ("__init__.py", "__main__.py")}
    for name in udfield._SUBMODULES:
        assert sys.modules[f"udfield.{name}"] is getattr(udfield, name)
