"""Command-line surface: generate, count, exponent, gs-check,
find-split-primes, r2, grid.

All machine output is JSON (exact rationals as strings); exit codes group
error families, and a generate run exits 0 only if every asserted bound
held.  The exponent ledger's working precision comes from
`exponent --precision` or UDF_PRECISION_BITS (default 256 bits).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import (BoundViolation, ConjugateCollision, InputError,
                     InvalidArgument, ParseError, PreconditionError,
                     UdfieldError, WindowTooLarge)

PRECISION_MIN, PRECISION_MAX = 32, 4096


def _parse_T(text: str):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ParseError(f"cannot parse prime list {text!r}") from None


def build_field(name: str):
    """Field from a CLI name: gaussian, qsqrt<d>, adjoin-i:<d1,d2,...>,
    or a JSON field-description path."""
    from .numberfield import compositum_multiquadratic, nf_new
    from .polynomials import make_poly

    if name == "gaussian":
        return nf_new(make_poly([1, 0, 1]), label="Q(i)")
    if name.startswith("qsqrt"):
        try:
            d = int(name[5:])
        except ValueError:
            raise ParseError(f"bad field name {name!r}") from None
        return nf_new(make_poly([-d, 0, 1]), label=f"Q(sqrt({d}))")
    if name.startswith("adjoin-i:"):
        ds = _parse_T(name.split(":", 1)[1])
        return compositum_multiquadratic(tuple(ds) + (-1,),
                                         label="Q(" + ",".join(f"sqrt({d})" for d in ds) + ",i)")
    if os.path.exists(name):
        return load_field_json(name)
    raise ParseError(f"unknown field name {name!r}")


def _read_json(path: str):
    from .serialize import open_file

    with open_file(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON ({exc})") from None


def load_field_json(path: str):
    return _field_from_dict(_read_json(path))


def _field_from_dict(data):
    """Field from a description {"min_poly": [...], "integral_basis": [[...]],
    "label": "..."}; only min_poly is required."""
    from .numberfield import nf_new
    from .polynomials import make_poly
    from .serialize import parse_frac

    try:
        coeffs = data["min_poly"]
        # JSON integers only: int() would truncate 1.5 and read "1"
        if any(type(c) is not int for c in coeffs):
            raise TypeError
        poly = make_poly(coeffs)
        basis = None
        if data.get("integral_basis") is not None:
            basis = [[parse_frac(str(c)) for c in row] for row in data["integral_basis"]]
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ParseError("field description: min_poly must be an integer list "
                         "and integral_basis a list of rational rows") from None
    n = len(poly) - 1
    if basis is not None and (len(basis) != n or any(len(r) != n for r in basis)):
        raise ParseError(f"field description: integral_basis must be {n} x {n}")
    try:
        return nf_new(poly, integral_basis=basis, label=data.get("label", ""))
    except (ValueError, ZeroDivisionError) as exc:
        # a singular integral basis, or one not closed under multiplication
        raise ParseError(f"field description: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    from .construct import WindowConfig, build_pointset, pigeonhole_units
    from .ideals import split_prime
    from .numberfield import detect_cm
    from .serialize import (dump_json, parse_frac, pointset_sidecar,
                            report_dict, unitset_dict, write_pointset_csv,
                            write_svg)

    K = build_field(args.field)
    cm = detect_cm(K)
    if cm is None:
        raise PreconditionError(f"{K.label} is not a CM field")
    R = parse_frac(args.R)
    if R < 2 and not args.allow_small_R:
        raise PreconditionError(
            "R < 2 voids the volumetric bounds; pass --allow-small-R to proceed")

    if args.k < 0:
        raise InvalidArgument(f"--k must be >= 0, not {args.k}")
    # every window argument and --out are checked before the exact work; in
    # auto mode the scale is chosen later, so 1 stands in for it here
    cfg = WindowConfig(R=R, scale=1 if args.scale is None else parse_frac(args.scale),
                       mode=args.mode if args.mode != "auto" else "window",
                       translate_candidates=args.translate_candidates,
                       projection_coordinate=args.projection_coordinate,
                       max_points=args.max_points)
    cfg.check_projection(cm.f)
    try:
        os.makedirs(args.out, exist_ok=True)
    except (OSError, ValueError) as exc:   # ValueError: a NUL in the path
        raise InputError(f"--out {args.out!r}: {exc}") from None

    prime_pairs = []
    if args.k > 0:
        primes = split_prime(K, args.prime)
        seen = set()
        for pr in sorted(primes, key=lambda p: p.lattice.hnf):
            if pr.lattice in seen:
                continue
            conj = pr.lattice.conjugate(cm)
            if conj == pr.lattice:
                raise ConjugateCollision(
                    f"prime above {args.prime} is self-conjugate; "
                    "choose a completely split prime")
            seen.add(conj)
            prime_pairs.append((pr, args.k))
    units = pigeonhole_units(K, prime_pairs)

    warnings = []
    if args.scale is not None:
        ps, rep = build_pointset(K, units, cfg)
    else:
        ps, rep, warnings = _auto_window(K, units, cfg)

    rep.warnings.extend(warnings + K.warnings)
    if units.distinct_ideal_count <= 1:
        rep.warnings.append("no nontrivial units: the unit-ideal class "
                            "pigeonhole produced only u = 1 (and torsion)")

    csv_path = os.path.join(args.out, "pointset.csv")
    write_pointset_csv(ps, csv_path)
    dump_json(pointset_sidecar(ps), os.path.join(args.out, "pointset.json"))
    report = {
        "field": K.to_dict(),
        "run": {"prime": args.prime, "k": args.k},
        "unit_set": unitset_dict(units),
        "construction": report_dict(rep),
        "pointset": pointset_sidecar(ps),
    }
    dump_json(report, os.path.join(args.out, "report.json"))
    if args.plot and len(ps.rows) <= 2000:
        write_svg(ps, ps.unit_pairs, os.path.join(args.out, "scatter.svg"))
    sys.stdout.write(dump_json(report["construction"]))
    if not rep.all_asserted_hold():
        raise BoundViolation("an asserted bound failed; see report checks")
    return 0


def _auto_window(K, units, cfg):
    """Try the natural 1/D lattice; fall back to O_K with usable units."""
    from .construct import WindowConfig, build_pointset, estimate_window_points

    warnings = []
    natural = Fraction(1, units.D)
    for scale in ([natural, Fraction(1)] if natural != 1 else [Fraction(1)]):
        est = estimate_window_points(K, scale, cfg.R, cfg.mode, units.units)
        if est > cfg.max_points:
            if scale == natural:
                warnings.append(
                    f"{cfg.mode} over (1/{units.D})*O_K holds ~{est:.2g} points, "
                    "beyond the desk budget; falling back to the unit "
                    "lattice O_K (only integral units enter the "
                    "translation bound)")
                continue
            break
        try:
            ps, rep = build_pointset(K, units, WindowConfig(
                cfg.R, scale, cfg.translate_candidates, cfg.projection_coordinate,
                cfg.mode, cfg.max_points))
            return ps, rep, warnings
        except WindowTooLarge:
            continue
    raise WindowTooLarge(
        "no desk-feasible window at these parameters; lower --R, raise "
        "--max-points, or use --mode closure with an explicit small R")


def cmd_count(args) -> int:
    from .counting import PlanarFloatSet, count_exact, count_float
    from .serialize import dump_json, read_points_csv

    if args.method == "exact":
        census = _count_exact_csv(args)
    else:
        pts = read_points_csv(args.csv)
        ps = PlanarFloatSet(points=pts, eps=args.eps)
        census = count_float(ps, method=args.method)
        if args.oracle:
            brute = count_float(ps, method="brute")
            if brute.unit_pairs != census.unit_pairs:
                raise BoundViolation(
                    f"hashed count {census.unit_pairs} != brute {brute.unit_pairs}")
    sys.stdout.write(dump_json(census.to_dict()))
    return 0


def _count_exact_csv(args):
    """Exact counting from the exact coordinate columns of a CSV.

    The field comes from --field or from the pointset.json sidecar written
    next to the CSV by `generate`."""
    from .counting import count_exact
    from .linalg import stack_rows
    from .numberfield import detect_cm
    from .serialize import open_file, parse_frac

    if args.field is not None:
        K = build_field(args.field)
    else:
        sidecar = os.path.join(os.path.dirname(os.path.abspath(args.csv)),
                               "pointset.json")
        if not os.path.exists(sidecar):
            raise ParseError("--method exact needs --field or a pointset.json "
                             "sidecar next to the CSV")
        data = _read_json(sidecar)
        if not isinstance(data, dict) or "field" not in data:
            raise ParseError(f"{sidecar}: no \"field\" entry")
        K = _field_from_dict(data["field"])
    cm = detect_cm(K)
    if cm is None:
        raise PreconditionError("exact counting needs a CM field")

    def entry(text):
        # int() reads a subset of what Fraction() reads, with the same value
        try:
            return int(text)
        except ValueError:
            return parse_frac(text)

    entries = []
    with open_file(args.csv) as fh:
        cols = [c.strip() for c in fh.readline().split(",")]
        if any(f"c{i}" not in cols for i in range(K.n)):
            raise ParseError(f"{args.csv}: needs exact coordinate columns c0..c{K.n - 1}")
        idxs = [cols.index(f"c{i}") for i in range(K.n)]
        for lineno, line in enumerate(fh, start=2):
            parts = line.split(",")
            if len(parts) != len(cols):
                if not line.strip():
                    continue
                raise ParseError(f"line {lineno}: {len(parts)} fields, "
                                 f"header has {len(cols)}")
            try:
                entries.extend([entry(parts[t]) for t in idxs])
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
    rows, denom = stack_rows([((q.numerator,), q.denominator) for q in entries], K.n)
    return count_exact(rows, denom, cm)


def cmd_exponent(args) -> int:
    from .gstower import exponent_ledger
    from .serialize import certified_digits, dump_json, frac_str, jsonify

    bits = args.precision
    if not PRECISION_MIN <= bits <= PRECISION_MAX:
        raise ParseError(f"precision {bits} outside [{PRECISION_MIN}, {PRECISION_MAX}]")
    ledger = exponent_ledger(_parse_T(args.T), args.p, precision_bits=bits)
    iv = ledger["exponent"]
    excess_lo, excess_hi = iv.lo - 1, iv.hi - 1
    digits = certified_digits(excess_lo, excess_hi, 3)
    out = {
        "T": ledger["T"], "p": ledger["p"], "r": ledger["r"], "k": ledger["k"],
        "u": frac_str(ledger["u"]), "v": frac_str(ledger["v"]),
        "delta": ledger["delta"].to_dict(), "D": ledger["D"].to_dict(),
        # always: pi is irrational, so the ledger's u pi exceeds 36 v
        "feasible": True,
        "exponent": jsonify(iv),
        "excess": {
            "lo": frac_str(excess_lo), "hi": frac_str(excess_hi),
            "certified_3_digits": digits, "width": frac_str(iv.width()),
        },
    }
    sys.stderr.write(f"exponent = 1 + {digits}\n" if digits else
                     "exponent interval too wide for 3 digits\n")
    sys.stdout.write(dump_json(out))
    return 0


def cmd_gs_check(args) -> int:
    from .gstower import TowerSpec, gs_check
    from .serialize import dump_json

    tower = TowerSpec(T=_parse_T(args.T), S_finite=_parse_T(args.S))
    report = gs_check(tower)
    sys.stdout.write(dump_json(report.to_dict()))
    return 0


def cmd_find_split_primes(args) -> int:
    from .gstower import find_split_primes, multiquadratic_generators
    from .serialize import dump_json

    T = _parse_T(args.T)
    primes = find_split_primes(T, args.count, args.require_1_mod_4, cap=args.cap)
    sys.stdout.write(dump_json({
        "T": list(T),
        "generators": multiquadratic_generators(T),
        "require_1_mod_4": args.require_1_mod_4,
        "primes": primes,
    }))
    return 0


def cmd_r2(args) -> int:
    from .serialize import dump_json

    if args.field is None:
        from .counting import r2_count_rational

        try:
            alpha = int(args.alpha)
        except ValueError:
            raise ParseError(f"bad integer --alpha {args.alpha!r}") from None
        count = r2_count_rational(alpha)
        sys.stdout.write(dump_json({"alpha": alpha, "field": "Q", "count": count}))
        return 0
    from .counting import r2_count
    from .serialize import parse_frac

    F = build_field(args.field)
    coords = [parse_frac(c) for c in args.alpha.split(",")]
    if len(coords) == 1:
        coords = coords + [Fraction(0)] * (F.n - 1)
    if len(coords) != F.n:
        raise ParseError(f"--alpha has {len(coords)} coordinates; {F.label} needs {F.n}")
    alpha = F.element(coords)
    box = parse_frac(args.box) if args.box else _auto_box(F, alpha)
    count = r2_count(F, alpha, box)
    sys.stdout.write(dump_json({
        "alpha": [str(c) for c in coords], "field": F.label,
        "box": str(box), "count": count,
    }))
    return 0


def _auto_box(F, alpha) -> Fraction:
    """Smallest convenient box satisfying box^2 >= max sigma(alpha)."""
    from .intervals import sqrt_upper

    hi = Fraction(0)
    for i in range(F.n):
        box = alpha.embed(i, 32)
        hi = max(hi, Fraction(box.re_hi, 1 << box.e))
    if hi <= 0:
        return Fraction(1)
    return sqrt_upper(hi, 12) + Fraction(1, 1 << 10)


def cmd_grid(args) -> int:
    from .counting import PlanarFloatSet, count_float, erdos_grid
    from .serialize import dump_json

    g = erdos_grid(args.n)
    census = count_float(PlanarFloatSet(points=g.points, eps=args.eps),
                         method="hashed")
    out = g.to_dict()
    out["measured_pairs"] = census.unit_pairs
    out["measured_equals_predicted"] = census.unit_pairs == g.predicted_pairs
    sys.stdout.write(dump_json(out))
    if not out["measured_equals_predicted"]:
        raise BoundViolation("measured grid pairs differ from prediction")
    return 0


# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="udfield",
        description="Unit-distance-rich planar point sets from CM number "
                    "fields, with exact certification.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a point set and bound report")
    g.add_argument("--field", required=True,
                   help="gaussian | qsqrt<d> | adjoin-i:<d1,d2,..> | JSON path")
    g.add_argument("--prime", type=int, default=5)
    g.add_argument("--k", type=int, default=1)
    g.add_argument("--R", default="2")
    g.add_argument("--scale", default=None,
                   help="window lattice is scale*O_K (default: auto)")
    g.add_argument("--mode", choices=["auto", "window", "closure"], default="auto")
    g.add_argument("--translate-candidates", type=int, default=0)
    g.add_argument("--projection-coordinate", type=int, default=0)
    g.add_argument("--max-points", type=int, default=200_000,
                   help="cap on a window's search work (prefixes tried plus "
                        "points found) and on a closure's points")
    g.add_argument("--allow-small-R", action="store_true")
    g.add_argument("--plot", action=argparse.BooleanOptionalAction, default=True)
    g.add_argument("--out", default=".")
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("count", help="count unit distances in a CSV point set")
    c.add_argument("--csv", required=True)
    c.add_argument("--eps", type=float, default=1e-9)
    c.add_argument("--method", choices=["hashed", "brute", "exact"],
                   default="hashed")
    c.add_argument("--field", default=None,
                   help="field for --method exact (default: pointset.json sidecar)")
    c.add_argument("--oracle", action="store_true",
                   help="cross-check against the brute-force counter")
    c.set_defaults(func=cmd_count)

    e = sub.add_parser("exponent", help="the explicit exponent ledger")
    e.add_argument("--T", required=True, help="comma-separated odd primes")
    e.add_argument("--p", type=int, required=True)
    # argparse converts (and rejects) a bad UDF_PRECISION_BITS like a bad flag
    e.add_argument("--precision", type=int,
                   default=os.environ.get("UDF_PRECISION_BITS", "256"))
    e.set_defaults(func=cmd_exponent)

    gs = sub.add_parser("gs-check", help="Golod-Shafarevich ledger")
    gs.add_argument("--T", required=True)
    gs.add_argument("--S", required=True, help="finite split primes (infinity implied)")
    gs.set_defaults(func=cmd_gs_check)

    fs = sub.add_parser("find-split-primes", help="completely split primes")
    fs.add_argument("--T", required=True)
    fs.add_argument("--count", type=int, default=1)
    fs.add_argument("--require-1-mod-4", dest="require_1_mod_4",
                    action=argparse.BooleanOptionalAction, default=True)
    fs.add_argument("--cap", type=int, default=1_000_000)
    fs.set_defaults(func=cmd_find_split_primes)

    r2 = sub.add_parser("r2", help="two-squares representation count")
    r2.add_argument("--alpha", required=True)
    r2.add_argument("--field", default=None,
                    help="totally real field (default: Q)")
    r2.add_argument("--box", default=None)
    r2.set_defaults(func=cmd_r2)

    gr = sub.add_parser("grid", help="square-grid baseline")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--eps", type=float, default=1e-9)
    gr.set_defaults(func=cmd_grid)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UdfieldError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
