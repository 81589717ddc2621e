import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_serialize
from test_cli import _BAD_ENTRIES
from udfield import serialize
from udfield.cli import main
from udfield.errors import ParseError, UdfieldError
from udfield.serialize import (certified_digits, dump_json, frac_str,
                               parse_frac, read_exact_csv, read_points_csv, write_svg)


def test_frac_roundtrip():
    for q in (Fraction(5), Fraction(-7, 25), Fraction(0), Fraction(10 ** 40, 3)):
        assert parse_frac(frac_str(q)) == q
    with pytest.raises(ParseError):
        parse_frac("3/0")
    with pytest.raises(ParseError):
        parse_frac("abc")


def test_certified_digits():
    lo = Fraction(62391, 10 ** 42)
    hi = Fraction(62392, 10 ** 42)
    assert certified_digits(lo, hi, 3) == "6.24e-38"
    assert certified_digits(Fraction(12341, 10000), Fraction(12349, 10000), 3) == "1.23e+00"
    # interval spanning a rounding boundary is refused
    assert certified_digits(Fraction(6235, 10 ** 4), Fraction(6245, 10 ** 4), 3) is None
    # mantissa promotion across a decade
    assert certified_digits(Fraction(99951, 10 ** 5), Fraction(99959, 10 ** 5), 3) == "1.00e+00"
    # an exact power of ten, where the bit-length estimate of log10 is one short
    assert certified_digits(Fraction(1000), Fraction(1000), 3) == "1.00e+03"


def test_dump_json_deterministic(tmp_path):
    payload = {"b": Fraction(1, 3), "a": [Fraction(2), {"z": Fraction(-7, 2)}]}
    t1 = dump_json(payload)
    t2 = dump_json(payload)
    assert t1 == t2
    assert '"1/3"' in t1 and '"-7/2"' in t1


def test_read_points_csv(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("re,im\n0,0\n1.5,2.25\n")
    pts = read_points_csv(str(p))
    assert pts.shape == (2, 2)
    assert pts[1, 0] == 1.5
    bad = tmp_path / "bad.csv"
    bad.write_text("re,im\n1,oops\n")
    with pytest.raises(ParseError) as err:
        read_points_csv(str(bad))
    assert "line 2" in str(err.value)
    noheader = tmp_path / "noheader.csv"
    noheader.write_text("x,y\n1,2\n")
    with pytest.raises(ParseError):
        read_points_csv(str(noheader))


def test_read_points_csv_extra_columns(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("index,re,im,c0,c1\n0,1.0,2.0,1,2\n1,3.0,4.0,3,4\n")
    pts = read_points_csv(str(p))
    assert pts.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def _svg_per_use(planar, pairs, size=800):
    """write_svg's text as it was when each coordinate was scaled and
    formatted at every use: four times per edge, twice per point."""
    xs = [x for x, _ in planar]
    ys = [y for _, y in planar]
    xmin, xmax = min(xs, default=0.0), max(xs, default=0.0)
    ymin, ymax = min(ys, default=0.0), max(ys, default=0.0)
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    pad = 0.05 * span

    def sx(x):
        return (x - xmin + pad) / (span + 2 * pad) * size

    def sy(y):
        return size - (y - ymin + pad) / (span + 2 * pad) * size

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for i, j in pairs:
        parts.append(f'<line x1="{sx(xs[i]):.2f}" y1="{sy(ys[i]):.2f}" '
                     f'x2="{sx(xs[j]):.2f}" y2="{sy(ys[j]):.2f}" '
                     'stroke="#4070c0" stroke-width="0.8"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
                     'fill="#202020"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@pytest.mark.parametrize("count", [0, 1, 80])
def test_write_svg_matches_per_use_formatting(tmp_path, count):
    # each point's strings are formatted once, by the same expressions
    rng = random.Random(count)
    planar = [(rng.uniform(-3, 3), rng.uniform(-2, 5)) for _ in range(count)]
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count) if rng.random() < 0.05]
    path = tmp_path / "scatter.svg"
    write_svg(SimpleNamespace(planar=planar), pairs, str(path))
    assert path.read_text() == _svg_per_use(planar, pairs)


# entry texts for the exact columns: what int() reads, what only Fraction()
# reads, and what neither reads
_ENTRIES = st.one_of(
    st.integers(-999, 999).map(str),
    st.tuples(st.sampled_from(["", "+", "-", "+ ", "--"]), st.integers(0, 10 ** 30),
              st.sampled_from(["", " ", "\t", "  "])).map(lambda t: f"{t[2]}{t[0]}{t[1]}{t[2]}"),
    st.integers(1000, 10 ** 12).map(lambda v: f"{v:_}"),
    st.sampled_from(["\u0663", "\u0661\u0662", "\u0663/\u0664", "\uff17", "1__0", "_1", "1_"]),
    st.tuples(st.integers(-99, 99), st.integers(-9, 99)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["3/4", "-3/4", "6/8", " 3/4 ", "+6/8", "-0/5", "3 /4", "3/ 4",
                     "3/-4", "1/0", "1_0/3", "1/1_2"]),
    st.sampled_from(["1.5", "2e3", "-0.25", "1E-2", ".5", "5.", "1e400", "1.5/2"]),
    st.sampled_from(_BAD_ENTRIES))


@st.composite
def exact_csv(draw):
    """(text, n): a point CSV with the exact columns in any order, whose
    rows draw their entries from a small pool (so texts repeat across rows),
    with blank lines and now and then a row of the wrong length."""
    n = draw(st.sampled_from([2, 4]))
    cols = draw(st.permutations(["index", "re", "im"] + [f"c{i}" for i in range(n)]))
    pool = draw(st.lists(_ENTRIES, min_size=1, max_size=6))
    lines = [",".join(cols)]
    for idx in range(draw(st.sampled_from([8, 8, 8, *range(1, 8), 0]))):
        entry = {c: draw(st.sampled_from(pool)) for c in cols if c[0] == "c"}
        fields = [entry.get(c, str(idx)) for c in cols]
        kind = draw(st.sampled_from(["row"] * 20 + ["blank"] * 2 + ["short", "long"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        lines.append(",".join(fields[:-1] if kind == "short" else
                              fields + ["0"] if kind == "long" else fields))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"])), n


def _read(reader, path, n):
    try:
        return reader(path, n)
    except UdfieldError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(case=exact_csv())
def test_read_exact_csv_matches_oracle(tmp_path_factory, case):
    # equal (rows, denom), or the same error with the same text
    text, n = case
    path = str(tmp_path_factory.mktemp("csv") / "pointset.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert _read(read_exact_csv, path, n) == _read(oracle_serialize.read_exact_csv, path, n)


# generate runs whose point sets write_pointset_csv is checked on
_WINDOWS = {
    "gaussian window": ["--field", "gaussian", "--prime", "5", "--k", "2",
                        "--scale", "1", "--R", "239/10"],
    "p = 29 degree-4 closure": ["--field", "adjoin-i:5", "--prime", "29", "--k", "1",
                                "--mode", "closure", "--allow-small-R",
                                "--R", "843/841", "--scale", "1/841"],
    "(1/5) window": ["--field", "adjoin-i:5", "--prime", "29", "--k", "0",
                     "--scale", "1/5", "--R", "1", "--allow-small-R"],
}


@pytest.fixture(scope="module")
def written_point_sets(tmp_path_factory):
    """The PointSet each of _WINDOWS hands write_pointset_csv."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, args in _WINDOWS.items():
            mp.setattr(serialize, "write_pointset_csv",
                       lambda ps, path, name=name: out.setdefault(name, ps))
            assert main(["generate", *args, "--no-plot",
                         "--out", str(tmp_path_factory.mktemp("run"))]) == 0
    return out


# positions whose %.17g and float17 texts must agree
_ODD_FLOATS = (-0.0, 0.1 + 0.2, 5e-324, -1e300, 123456789012345678.0, float("inf"),
               float("-inf"), float("nan"))


@pytest.mark.parametrize("name, count", [("gaussian window", 0), ("gaussian window", 1),
                                         ("gaussian window", None),
                                         ("gaussian window", len(_ODD_FLOATS)),
                                         ("p = 29 degree-4 closure", None),
                                         ("(1/5) window", None)])
def test_write_pointset_csv_matches_oracle(tmp_path, written_point_sets, name, count):
    # each distinct entry reduced once and each line one %-format, to the
    # oracle's bytes
    ps = written_point_sets[name]
    planar = tuple(zip(_ODD_FLOATS, _ODD_FLOATS[::-1])) if count == len(_ODD_FLOATS) else ps.planar
    ps = ps._replace(rows=ps.rows[:count], planar=planar[:count])
    serialize.write_pointset_csv(ps, str(tmp_path / "new.csv"))
    oracle_serialize.write_pointset_csv(ps, str(tmp_path / "old.csv"))
    text = (tmp_path / "new.csv").read_text()
    assert text == (tmp_path / "old.csv").read_text()
    assert len(text.splitlines()) == len(ps.rows) + 1
    if name == "(1/5) window":
        entries = {e for line in text.splitlines()[1:] for e in line.split(",")[3:]}
        assert any(e.startswith("-") and "/" in e for e in entries)
    if name != "gaussian window" or count is None:
        assert read_exact_csv(str(tmp_path / "new.csv"), ps.field.n) == (ps.rows, ps.denom)


def test_reading_a_window_makes_one_fraction_per_distinct_entry(tmp_path, monkeypatch):
    # int() reads the integer entries; each distinct fractional text is
    # parsed once, and the rows are laid out over one lcm
    assert main(["generate", *_WINDOWS["(1/5) window"], "--no-plot",
                 "--out", str(tmp_path)]) == 0
    path = str(tmp_path / "pointset.csv")
    with open(path) as fh:
        entries = [e for line in list(fh)[1:] for e in line.split(",")[3:]]
    fractional = {e for e in entries if "/" in e}
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    got = read_exact_csv(path, 4)
    monkeypatch.undo()
    assert len(entries) > 10 * len(fractional) > 0
    assert len(made) <= len(fractional)
    assert got == oracle_serialize.read_exact_csv(path, 4)
