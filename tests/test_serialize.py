import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from udfield.errors import ParseError
from udfield.serialize import (certified_digits, dump_json, frac_str,
                               parse_frac, read_points_csv, write_svg)


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
