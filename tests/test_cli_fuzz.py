"""CLI fuzz test: argv drawn over all seven subcommands, with malformed
numbers and paths and truncated, NaN or huge CSV/JSON inputs.

Every invocation must end in exit code 0 or a typed family code (2 from
argparse, 3..8 from UdfieldError), never in an uncaught exception.
Parameters that size the work (k, R, scale, grid n, translate
candidates) are drawn small or malformed, never huge, so that each call
stays at desk scale; huge values go into parsed-only options and the files.
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


def numbers(*good, huge=True):
    """A good value four times in five, else a malformed (or huge) one."""
    good = st.sampled_from([str(g) for g in good])
    return st.one_of(good, good, good, good,
                     st.sampled_from(MALFORMED + [HUGE] * huge))


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
    return d


def _argv(data, d):
    path = st.sampled_from([str(d / "pointset.csv"), str(d / "pointset.json"),
                            str(d / "field.json")] + PATHS)
    field = st.sampled_from(FIELDS + [str(d / "field.json")])
    command = data.draw(st.sampled_from(
        ["generate", "count", "exponent", "gs-check", "find-split-primes", "r2",
         "grid", "bogus"]))
    if command == "generate":
        return (["generate", "--field", data.draw(field), "--out", str(d / "out")]
                + data.draw(flags(**{
                    "--prime": numbers(2, 3, 5, 13), "--k": numbers(0, 1, 2, huge=False),
                    "--R": numbers(2, 3, "5/2", "1/2"), "--scale": numbers(1, "1/2"),
                    "--mode": st.sampled_from(["auto", "window", "closure", "x"]),
                    "--projection-coordinate": numbers(0, 1),
                    "--translate-candidates": numbers(0, 2, huge=False),
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
                                                 str(d / "field.json")]),
                     "--box": numbers(3, 10)}))
    if command == "grid":
        return (["grid", "--n", data.draw(numbers(4, 25, 5, huge=False))]
                + data.draw(flags(**{"--eps": numbers("1e-9")})))
    return [command]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_fuzz_exits_typed(workdir, data):
    d = _files(workdir, data)
    argv = _argv(data, d)
    if argv[0] == "generate" and data.draw(st.booleans()):   # a malformed --out
        argv[argv.index("--out") + 1] = data.draw(st.sampled_from(PATHS))
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
    assert rc in ALLOWED, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
