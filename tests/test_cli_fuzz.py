"""CLI fuzz test: argv drawn over all seven subcommands, with malformed
numbers and paths, truncated, NaN or huge CSV/JSON inputs, a field JSON
whose minimal polynomial is reducible, and a CM quartic over its power
basis, which complex conjugation does not map to itself.

Every invocation must end in exit code 0 or a typed family code (2 from
argparse, 3..8 from UdfieldError), never in an uncaught exception.
R and scale are drawn small or malformed so that each call stays at desk
scale.  The searches sized by k, grid n and translate candidates are
capped, so those are also drawn past their caps, where a run with
otherwise good arguments must exit 7 (WindowTooLarge).
"""

import contextlib
import io
import itertools
import json
import os
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from udfield.cli import main
from udfield.construct import PIGEONHOLE_LIMIT, TRANSLATE_LIMIT
from udfield.counting import GRID_LIMIT

ALLOWED = {0, 2, 3, 4, 5, 6, 7, 8}
HUGE = str(10 ** 400)
MALFORMED = ["", "abc", "nan", "inf", "-inf", "1e999", "1/0", "-1", "0", "1.5",
             "0x10", "1e30", "-7/3"]
BAD_CELLS = ["", "nan", "inf", "-inf", "1e400", HUGE, f"1/{HUGE}", "1/0", "x",
             "1,2", " ", "0.1"]
BAD_JSON = [float("nan"), float("inf"), 1e300, 10 ** 400, -1, 0, 1.5, "x", "",
            None, [], {}, [[1, 0], [0, 1]], [1, 0, 1]]
FIELDS = ["gaussian", "qsqrt-5", "qsqrt5", "qsqrt0", "qsqrtx", "adjoin-i:",
          "adjoin-i:x", "adjoin-i:4", "adjoin-i:-1", "nope"]
# x^4 + x^2 + 1 = (x^2 + x + 1)(x^2 - x + 1): squarefree and CM-shaped, but
# not a field
REDUCIBLE = [1, 0, 1, 0, 1]
# x^4 - 8x^2 + 36, the polynomial of sqrt(5) + i, with no integral_basis
QUARTIC = [36, 0, -8, 0, 1]
PATHS = ["missing.csv", "", "dir", "a\x00b", "x" * 300, "dir/missing/f.csv"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with a real small point set (pointset.csv and its
    pointset.json sidecar) to mutate."""
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--field", "gaussian", "--prime", "5", "--k", "1",
                     "--R", "2", "--scale", "1/2", "--out", str(root / "good")]) == 0
    return root


def numbers(*good):
    """A good value four times in five, else a malformed or huge one."""
    good = st.sampled_from([str(g) for g in good])
    return st.one_of(good, good, good, good, st.sampled_from(MALFORMED + [HUGE]))


def past(limit):
    """A value past a search cap: just past it, far past it, or huge."""
    return st.one_of(st.integers(limit + 1, 10 ** 12), st.just(10 ** 400)).map(str)


def flags(**options):
    """Each option present or absent; present ones drawn from their strategy."""
    parts = [st.one_of(st.just([]), s.map(lambda v, k=k: [k, v]))
             for k, s in options.items()]
    return st.tuples(*parts).map(lambda xs: list(itertools.chain(*xs)))


def _mutate_csv(text, data):
    lines = text.splitlines()
    how = data.draw(st.sampled_from(["truncate", "cell", "header", "garbage", "empty"]))
    if how == "truncate":
        return text[:data.draw(st.integers(0, len(text)))]
    if how == "cell":
        i = data.draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(st.sampled_from(BAD_CELLS))
        lines[i] = ",".join(cells)
    elif how == "header":
        lines[0] = data.draw(st.sampled_from(["index,re,im", "re,im,c0", "c0,c1",
                                              "index,re,im,c0,c1,c2", ""]))
    elif how == "garbage":
        return "\udcff\udcfe\x00garbage"   # bytes ff fe: not UTF-8
    else:
        return ""
    return "\n".join(lines) + "\n"


def _mutate_json(obj, data):
    """A copy of obj with one value at a drawn path replaced by a bad value."""
    obj = json.loads(json.dumps(obj))
    node = obj
    while isinstance(node, (dict, list)):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return obj
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        node[key] = data.draw(st.sampled_from(BAD_JSON))
        break
    return obj


def _json_text(obj, data):
    text = json.dumps(obj)
    if data.draw(st.booleans()):
        return text[:data.draw(st.integers(0, len(text)))]
    return text


def _files(workdir, data):
    """A fresh directory holding a mutated copy of the good point set, and
    a subdirectory `dir`."""
    d = pathlib.Path(tempfile.mkdtemp(dir=workdir))
    (d / "dir").mkdir()
    good = workdir / "good"
    csv_text = (good / "pointset.csv").read_text()
    sidecar = json.loads((good / "pointset.json").read_text())
    if data.draw(st.booleans()):
        csv_text = _mutate_csv(csv_text, data)
    if data.draw(st.booleans()):
        sidecar = _mutate_json(sidecar, data)
    (d / "pointset.csv").write_bytes(csv_text.encode("utf-8", "surrogateescape"))
    (d / "pointset.json").write_text(_json_text(sidecar, data))
    (d / "field.json").write_text(_json_text(_mutate_json(sidecar["field"], data), data))
    (d / "reducible.json").write_text(json.dumps({"min_poly": REDUCIBLE}))
    (d / "quartic.json").write_text(json.dumps({"min_poly": QUARTIC}))
    return d


def _argv(data, d):
    path = st.sampled_from([str(d / "pointset.csv"), str(d / "pointset.json"),
                            str(d / "field.json")] + PATHS)
    field = st.sampled_from(FIELDS + [str(d / "field.json"), str(d / "reducible.json"),
                                      str(d / "quartic.json")])
    command = data.draw(st.sampled_from(
        ["generate", "count", "exponent", "gs-check", "find-split-primes", "r2",
         "grid", "bogus"]))
    if command == "generate":
        return (["generate", "--field", data.draw(field), "--out", str(d / "out")]
                + data.draw(flags(**{
                    "--prime": numbers(2, 3, 5, 13),
                    "--k": st.one_of(numbers(0, 1, 2), past(PIGEONHOLE_LIMIT)),
                    "--R": numbers(2, 3, "5/2", "1/2"), "--scale": numbers(1, "1/2"),
                    # auto was once an alias of window; it is invalid now
                    "--mode": st.sampled_from(["auto", "window", "closure", "x"]),
                    "--projection-coordinate": numbers(0, 1),
                    "--translate-candidates": st.one_of(numbers(0, 2),
                                                        past(TRANSLATE_LIMIT)),
                    "--max-points": numbers(10, 1000)}))
                + data.draw(st.sampled_from([[], ["--allow-small-R"], ["--no-plot"]])))
    if command == "count":
        return (["count", "--csv", data.draw(path)]
                + data.draw(flags(**{
                    "--method": st.sampled_from(["hashed", "brute", "exact", "x"]),
                    "--eps": numbers("1e-9", "0.01"), "--field": field}))
                + data.draw(st.sampled_from([[], ["--oracle"]])))
    if command == "exponent":
        return (["exponent", "--T", data.draw(st.sampled_from(
                    ["3", "3,5", "", "4", "-3", "3,,5", "abc", "3,3"])),
                 "--p", data.draw(numbers(5, 13, 101))]
                + data.draw(flags(**{"--precision": numbers(32, 64, 5000)})))
    if command == "gs-check":
        return ["gs-check",
                "--T", data.draw(st.sampled_from(["3,5,7", "3", "", "4", "x", "3,5"])),
                "--S", data.draw(st.sampled_from(["101", "", "3", "-1", "x", "4"]))]
    if command == "find-split-primes":
        return (["find-split-primes", "--cap", data.draw(numbers(100, 5000)),
                 "--T", data.draw(st.sampled_from(["5", "3,5", "", "4", "x"]))]
                + data.draw(flags(**{"--count": numbers(1, 3)}))
                + data.draw(st.sampled_from([[], ["--no-require-1-mod-4"]])))
    if command == "r2":
        return ["r2", "--alpha", data.draw(numbers(25, 5, "1,2", "1,2,3", "3,1"))] + data.draw(
            flags(**{"--field": st.sampled_from(["qsqrt5", "qsqrt2", "gaussian", "qsqrtx",
                                                 str(d / "field.json"),
                                                 str(d / "reducible.json")]),
                     "--box": numbers(3, 10)}))
    if command == "grid":
        return (["grid", "--n", data.draw(st.one_of(numbers(4, 25, 5), past(GRID_LIMIT)))]
                + data.draw(flags(**{"--eps": numbers("1e-9")})))
    return [command]


def _run(argv, d):
    """(exit code, stderr) of the CLI run in-process from directory d."""
    err = io.StringIO()
    home = os.getcwd()
    os.chdir(d)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:   # argparse usage errors
                rc = exc.code
    finally:
        os.chdir(home)
    return rc, err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_fuzz_exits_typed(workdir, data):
    d = _files(workdir, data)
    argv = _argv(data, d)
    if argv[0] == "generate" and data.draw(st.booleans()):   # a malformed --out
        argv[argv.index("--out") + 1] = data.draw(st.sampled_from(PATHS))
    rc, err = _run(argv, d)
    assert rc in ALLOWED, (argv, err)
    assert "Traceback" not in err


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_past_caps_exit_7(workdir, data):
    field, prime = data.draw(st.sampled_from(
        [("gaussian", "5"), ("gaussian", "13"), ("qsqrt-5", "3"), ("adjoin-i:5", "29")]))
    scale = data.draw(st.sampled_from([["--scale", "1"], []]))   # []: construct picks it
    generate = ["generate", "--field", field, "--prime", prime, "--R", "3",
                *scale, "--out", "out"]
    argv = data.draw(st.one_of(
        past(PIGEONHOLE_LIMIT).map(lambda k: generate + ["--k", k]),
        past(TRANSLATE_LIMIT).map(lambda c: generate + ["--translate-candidates", c]),
        past(GRID_LIMIT).map(lambda n: ["grid", "--n", n])))
    rc, err = _run(argv, workdir)
    assert rc == 7, (argv, err)
    assert "limit" in err and "Traceback" not in err
