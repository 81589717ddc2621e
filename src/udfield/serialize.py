"""JSON and CSV encoding: exact rationals as "p/q" strings, symbolic
powers as {"base", "exp"}, intervals as endpoint pairs, floats at 17
significant digits."""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .construct import ConstructionReport, PointSet, SymbolicPower, UnitSet
from .errors import InputError, ParseError
from .intervals import RealInterval


def frac_str(q: Fraction) -> str:
    return str(Fraction(q))


def parse_frac(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}") from None


def float17(x: float) -> str:
    return format(float(x), ".17g")


def interval_dict(iv: RealInterval) -> dict:
    return {"lo": frac_str(iv.lo), "hi": frac_str(iv.hi),
            "approx": float17(float(iv.midpoint()))}


def _pow10(e: int) -> Fraction:
    return Fraction(10) ** e


def _exponent10(q: Fraction) -> int:
    """floor(log10(q)) for q > 0, exact."""
    e = int((q.numerator.bit_length() - q.denominator.bit_length()) * 0.30103)
    while _pow10(e) > q:
        e -= 1
    while _pow10(e + 1) <= q:
        e += 1
    return e


def certified_digits(lo: Fraction, hi: Fraction, digits: int = 3) -> Optional[str]:
    """Scientific-notation string to `digits` significant digits, provided
    lo and hi round to the same string; None otherwise."""
    if lo <= 0 or hi <= 0 or lo > hi:
        return None
    e10 = _exponent10(lo)
    scale = _pow10(digits - 1 - e10)

    def rounded(q: Fraction) -> int:
        v = q * scale
        return (2 * v.numerator + v.denominator) // (2 * v.denominator)

    nlo, nhi = rounded(lo), rounded(hi)
    if nlo != nhi:
        return None
    mant = nlo
    # renormalize if rounding bumped the mantissa to the next decade
    if mant >= 10 ** digits:
        mant //= 10
        e10 += 1
    s = str(mant)
    return f"{s[0]}.{s[1:]}e{e10:+03d}"


def jsonify(obj):
    """Recursively convert package values to JSON-encodable structures."""
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, SymbolicPower):
        return obj.to_dict()
    if isinstance(obj, RealInterval):
        return interval_dict(obj)
    if isinstance(obj, dict):
        return {k: jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    return obj


@contextmanager
def open_file(path: str, mode: str = "r"):
    """open(path, mode) for a file the user named: a path that cannot be
    opened, or text that does not decode, is an InputError."""
    try:
        fh = open(path, mode)
    except (OSError, ValueError) as exc:   # ValueError: a NUL in the path
        raise InputError(f"cannot open {path!r}: {exc}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not text ({exc.reason})") from None


def dump_json(obj, path=None) -> str:
    text = json.dumps(jsonify(obj), sort_keys=True, indent=2) + "\n"
    if path is not None:
        with open_file(path, "w") as fh:
            fh.write(text)
    return text


def unitset_dict(us: UnitSet) -> dict:
    return {
        "units": [[frac_str(c) for c in u.coords] for u in us.units],
        "ideal_witnesses": [[frac_str(c) for c in u.coords]
                            for u in us.ideal_witnesses],
        "distinct_ideal_count": us.distinct_ideal_count,
        "guaranteed_min": frac_str(us.guaranteed_min) if us.guaranteed_min is not None else None,
        "class_number": us.h,
        "D": us.D,
        "Q_norm": frac_str(us.Q.norm()),
        "Q_hnf": [list(r) for r in us.Q.hnf],
        "Q_den": us.Q.den,
        "inconclusive": us.inconclusive,
    }


def report_dict(rep: ConstructionReport) -> dict:
    out = {
        "f": rep.f,
        "delta": frac_str(rep.delta),
        "R": frac_str(rep.R),
        "v_upper": frac_str(rep.v_upper),
        "units_emitted": rep.units_emitted,
        "units_usable": rep.units_usable,
        "distinct_unit_ideals": rep.distinct_unit_ideals,
        "guaranteed_min": (frac_str(rep.guaranteed_min)
                           if rep.guaranteed_min is not None else None),
        "inner_window_count": rep.inner_count,
        "translation_bound_2nu": rep.translation_bound,
        "packing_bound_points": frac_str(rep.packing_bound),
        "measured_points": rep.measured_points,
        "measured_unit_pairs": rep.measured_unit_pairs,
        "mode": rep.mode,
        "translate_is_zero": rep.translate_is_zero,
        "checks": dict(rep.checks),
        "warnings": list(rep.warnings),
    }
    if rep.volumetric_lower_2nu is not None:
        lo, hi = rep.volumetric_lower_2nu
        out["volumetric_lower_2nu"] = {"lo": frac_str(lo), "hi": frac_str(hi),
                                  "approx": float17(float((lo + hi) / 2))}
    if rep.exponent_bound is not None:
        lo, hi = rep.exponent_bound
        out["exponent_bound"] = {"lo": frac_str(lo), "hi": frac_str(hi),
                                 "approx": float17(float((lo + hi) / 2))}
    if rep.inner_count_zero_translate is not None:
        out["inner_window_count_zero_translate"] = rep.inner_count_zero_translate
    return out


def _reduced_str(num: int, den: int) -> str:
    """frac_str(Fraction(num, den)) for den > 0."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def write_pointset_csv(ps: PointSet, path: str):
    """Columns: index, re/im float positions (within the certified bound of
    counting.planar_image; exact zeros print as 0), exact coordinates, each
    in lowest terms."""
    n = ps.field.n
    header = "index,re,im," + ",".join(f"c{i}" for i in range(n))
    lines = [header]
    for idx, (row, (x, y)) in enumerate(zip(ps.rows.tolist(), ps.planar.tolist())):
        coords = ",".join(_reduced_str(c, ps.denom) for c in row)
        lines.append(f"{idx},{float17(x)},{float17(y)},{coords}")
    with open_file(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def pointset_sidecar(ps: PointSet) -> dict:
    return {
        "n_points": len(ps.rows),
        "field": ps.field.to_dict(),
        "projection_coordinate": ps.projection_coordinate,
        "provenance": ps.provenance,
        "unit_pairs_exact": len(ps.unit_pairs),
    }


def read_points_csv(path: str):
    """Read a planar point CSV with header re,im (extra columns ignored)."""
    import numpy as np

    pts: List[Tuple[float, float]] = []
    with open_file(path) as fh:
        header = fh.readline().strip()
        cols = [c.strip().lower() for c in header.split(",")]
        if "re" not in cols or "im" not in cols:
            raise ParseError(f"line 1: header must contain re,im (got {header!r})")
        ire, iim = cols.index("re"), cols.index("im")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                pts.append((float(parts[ire]), float(parts[iim])))
            except (ValueError, IndexError):
                raise ParseError(f"line {lineno}: cannot parse {line!r}") from None
    if not pts:
        raise ParseError("no points in CSV")
    return np.array(pts, dtype=float)


def write_svg(ps: PointSet, pairs: Sequence[Tuple[int, int]], path: str,
              size: int = 800):
    """Static scatter plot with unit-distance edges; deterministic bytes."""
    xs = ps.planar[:, 0].tolist()
    ys = ps.planar[:, 1].tolist()
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
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
    with open_file(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
