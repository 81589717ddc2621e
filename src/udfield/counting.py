"""Unit-distance counting: exact algebraic, fast grid-hashed float, the
square-grid baseline, and two-squares representation counts.

The exact counter takes a point set as integer coordinate rows over the
integral basis with one common denominator D.  It never makes a
floating-point decision: float positions with a certified error bound may
only rule a pair out, and every surviving pair is decided by exact integer
equality of the Hermitian form, |x - y|^2 = 1 as
sum_{j,l} d_j d_l T[j,l,:] = L D^2 coords(1) for the difference row d
(see hermitian_form).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import (BoxTooSmall, InvalidArgument, ParseError, PrecisionExhausted,
                     PreconditionError, TooLargeEps, WindowTooLarge)
from .numberfield import CMStructure, FieldElement, NumberField

# neighbor-cell offsets for cell size 1: 21 cells cover the unit annulus
_HALF_OFFSETS = ((0, 1), (0, 2), (1, -2), (1, -1), (1, 0), (1, 1), (1, 2),
                 (2, -1), (2, 0), (2, 1))


@dataclass
class PlanarFloatSet:
    """Plain float points with an annulus tolerance."""

    points: "object"   # (n, 2) float ndarray
    eps: float

    def __post_init__(self):
        import numpy as np

        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ParseError("points must be an (n, 2) array")
        if not np.isfinite(pts).all():
            raise ParseError("points contain NaN or infinity")
        self.points = pts
        if not self.eps >= 0:
            raise InvalidArgument(f"eps must be a nonnegative number, not {self.eps}")


@dataclass
class DistanceCensus:
    unit_pairs: int
    method: str                   # "exact" | "hashed" | "brute"
    n_points: int
    eps: Optional[float] = None
    runtime_ms: float = 0.0
    duplicate_pairs: int = 0
    warnings: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = {
            "unit_pairs": self.unit_pairs,
            "method": self.method,
            "n_points": self.n_points,
            "eps": self.eps,
            "runtime_ms": round(self.runtime_ms, 3),
        }
        if self.duplicate_pairs:
            out["duplicate_pairs"] = self.duplicate_pairs
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def hermitian_form(cm: CMStructure):
    """(T, e): T[j][l][k] = L coords(b_j conj(b_l))_k and e = L coords(1)
    over the integral basis b, with L the least common denominator, so that
    z = sum_j (d_j / D) b_j has |z|^2 = 1 exactly when
    sum_{j,l} d_j d_l T[j][l][k] = D^2 e_k for every k.

    Built on first use and kept on the CM structure."""
    if cm.hermitian is None:
        K = cm.field
        n = K.n
        basis = [K.element([1 if k == j else 0 for k in range(n)]) for j in range(n)]
        table = [[(b * cm.conj(c)).coords for c in basis] for b in basis]
        one = K.one().coords
        L = math.lcm(*(q.denominator for q in one),
                     *(q.denominator for row in table for v in row for q in v))

        def integral(v):
            scaled = [q * L for q in v]
            assert all(q.denominator == 1 for q in scaled)
            return [q.numerator for q in scaled]

        cm.hermitian = ([[integral(v) for v in row] for row in table], integral(one))
    return cm.hermitian


def planar_image(rows, denom: int, cm: CMStructure, coordinate: int = 0):
    """(xy, err): the (re, im) of sigma(z) at root cm.pair_reps[coordinate]
    as an (n, 2) float array, every entry within err of the exact value,
    for the points z = sum_k (rows[:, k] / denom) b_k.

    sigma(z) = sum_k c_k sigma(b_k) over the integral basis: the basis images
    are embedded once, as float midpoints m_k with exact errors e_k, and
    fl(c_k) m_k is summed in a fixed k order.  fl(c_k) is the correctly
    rounded quotient rows / denom.  err bounds sum_k C_k (e_k +
    2 (n + 2) 2^-53 |m_k|) with C_k >= max |c_k|, as enumeration._margins
    does, plus 2^-1074 (1 + |m_k|) for underflow.  A column that is exactly
    0 (conj(b_k) = -b_k for re, conj(b_k) = b_k for im) stays exactly 0.
    """
    import numpy as np

    from .enumeration import _float_columns, _max_abs, _round_up

    K = cm.field
    n = K.n
    rep = cm.pair_reps[coordinate]
    unit = [[1 if k == j else 0 for k in range(n)] for j in range(n)]
    boxes = K.basis_images(rep, 128)
    zero = ([list(cm.conj_mat[j]) == [-c for c in unit[j]] for j in range(n)],
            [list(cm.conj_mat[j]) == unit[j] for j in range(n)])
    xy = np.zeros((len(rows), 2))
    C = [Fraction(_max_abs(rows[:, k]), denom) for k in range(n)]
    try:
        if _max_abs(rows) < 1 << 53 and denom < 1 << 53:
            # both exact in float64, so the IEEE quotient is correctly rounded
            c = rows.astype(float) / denom
        else:
            c = np.array([[float(Fraction(r, denom)) for r in row]
                          for row in rows.tolist()]).reshape(len(rows), n)
        err = 0.0
        for axis, part in enumerate(("re", "im")):
            mids, errs = _float_columns([getattr(box, part) for box in boxes])
            bound = Fraction(0)
            for k in range(n):
                if zero[axis][k]:
                    continue
                xy[:, axis] += c[:, k] * mids[k]
                m = abs(Fraction(mids[k]))
                bound += (C[k] * (errs[k] + Fraction(n + 2, 1 << 52) * m)
                          + (1 + m) / (1 << 1074))
            err = max(err, _round_up(bound))
    except OverflowError:
        raise PrecisionExhausted("point coordinates beyond float range") from None
    return xy, err


def unit_pair_indices(rows, denom: int, xy, err: float,
                      cm: CMStructure) -> List[Tuple[int, int]]:
    """Sorted index pairs (i < j) with |x_i - x_j| = 1, decided exactly.

    `rows` / `denom` are the points' integral-basis coordinates and `xy`,
    `err` their positions in any one embedding (planar_image).  The cell
    hash of `count_float` finds nearby positions, their squared float
    distance prunes with a rigorous margin, and all survivors are decided
    at once by the integer identity of hermitian_form.
    """
    import numpy as np

    if len(rows) < 2:
        return []
    # a float coordinate difference is off by at most e (the error of two
    # positions plus the rounding of the difference, e >= 2^-50), so for
    # |d| = 1 the float d^2 is within 4 e + 2 e^2 plus a few ulps of 1
    m = float(max(np.max(np.abs(xy)), 1.0))
    e = 2 * err + m * 2.0 ** -50
    margin = 8 * e + 4 * e * e
    if not margin <= 0.5:
        raise PrecisionExhausted(
            f"positions too coarse to prune unit pairs (error {err:.3g})")
    order, blocks = _cell_blocks(xy)
    x, y = xy[order, 0], xy[order, 1]
    a, b = [], []
    for left, right in blocks:
        dx = x[left] - x[right]
        dy = y[left] - y[right]
        close = np.abs(dx * dx + dy * dy - 1.0) <= margin
        a.append(order[left[close]])
        b.append(order[right[close]])
    a, b = np.concatenate(a), np.concatenate(b)
    i, j = np.minimum(a, b), np.maximum(a, b)
    unit = _unit_distance(rows, denom, i, j, cm)
    i, j = i[unit], j[unit]
    order = np.lexsort((j, i))
    return list(zip(i[order].tolist(), j[order].tolist()))


def _unit_distance(rows, denom: int, i, j, cm: CMStructure):
    """Boolean mask: |z_i - z_j|^2 = 1 for each index pair, by the integer
    identity sum_{p,q} d_p d_q T[p][q][k] = D^2 e_k over d = rows[i] - rows[j].

    Each partial sum is at most max|d|^2 max_k sum_{p,q} |T[p][q][k]| in
    modulus, so int64 is used only when that bound is below 2^63, and Python
    ints (object dtype) otherwise."""
    import numpy as np

    from .enumeration import _max_abs

    T, e = hermitian_form(cm)
    n = len(e)
    target = [denom * denom * x for x in e]
    span = max(sum(abs(T[p][q][k]) for p in range(n) for q in range(n))
               for k in range(n))
    dmax = 2 * _max_abs(rows)
    fits = dmax * dmax * span < 1 << 63 and max(map(abs, target)) < 1 << 63
    dtype = np.int64 if fits else object
    d = rows[i].astype(dtype) - rows[j].astype(dtype)
    unit = np.ones(len(d), dtype=bool)
    for k in range(n):
        acc = np.zeros(len(d), dtype=dtype)
        for p in range(n):
            for q in range(n):
                if T[p][q][k]:
                    acc += d[:, p] * d[:, q] * T[p][q][k]
        unit &= acc == target[k]
    return unit


def count_exact(rows, denom: int, cm: CMStructure) -> DistanceCensus:
    """Unordered pairs with |x - y| = 1 among the points rows / denom (see
    unit_pair_indices)."""
    t0 = time.perf_counter()
    xy, err = planar_image(rows, denom, cm)
    pairs = unit_pair_indices(rows, denom, xy, err, cm)
    ms = (time.perf_counter() - t0) * 1000
    return DistanceCensus(unit_pairs=len(pairs), method="exact",
                          n_points=len(rows), runtime_ms=ms)


def _pair_distances_ok(xl, yl, xr, yr, eps):
    import numpy as np

    dx = xl - xr
    dy = yl - yr
    d = np.sqrt(dx * dx + dy * dy)
    return np.abs(d - 1.0) <= eps


def count_float(ps: PlanarFloatSet, method: str = "hashed") -> DistanceCensus:
    """Pairs with | |x-y| - 1 | <= eps among float points.

    "hashed" buckets points into unit cells so each point only meets the
    <= 21 cells its annulus can intersect (the search unit_pair_indices
    prunes with too); "brute" is the blockwise O(n^2) reference behind
    `count --method brute` and `--oracle`.  Both evaluate the identical
    float expression, _pair_distances_ok, so they agree exactly.
    """
    if ps.eps >= 0.1:
        raise TooLargeEps(f"eps = {ps.eps} >= 0.1")
    t0 = time.perf_counter()
    pts = ps.points
    n = len(pts)
    warnings = []
    dup = _duplicate_pairs(pts)
    if dup:
        warnings.append(f"{dup} coincident point pairs (distance 0, never unit)")
    if method == "brute":
        count = _count_brute(pts, ps.eps)
    elif method == "hashed":
        count = _count_hashed(pts, ps.eps)
    else:
        raise ValueError(f"unknown method {method!r}")
    ms = (time.perf_counter() - t0) * 1000
    return DistanceCensus(unit_pairs=int(count), method=method, n_points=n,
                          eps=ps.eps, runtime_ms=ms, duplicate_pairs=dup,
                          warnings=tuple(warnings))


def _duplicate_pairs(pts) -> int:
    import numpy as np

    view = np.ascontiguousarray(pts).view([("x", float), ("y", float)]).ravel()
    _, counts = np.unique(view, return_counts=True)
    return int(sum(c * (c - 1) // 2 for c in counts if c > 1))


def _count_brute(pts, eps, block: int = 2048) -> int:
    import numpy as np

    n = len(pts)
    x = pts[:, 0]
    y = pts[:, 1]
    total = 0
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        for j0 in range(i0, n, block):
            j1 = min(j0 + block, n)
            ok = _pair_distances_ok(x[i0:i1, None], y[i0:i1, None],
                                    x[None, j0:j1], y[None, j0:j1], eps)
            if i0 == j0:
                ok = np.triu(ok, k=1)
            total += int(ok.sum())
    return total


def _cross_indices(starts_a, sizes_a, starts_b, sizes_b):
    """Flat index arrays for the blockwise cartesian products
    [starts_a[t], +sizes_a[t]) x [starts_b[t], +sizes_b[t])."""
    import numpy as np

    m = sizes_a * sizes_b
    total = int(m.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    block = np.repeat(np.arange(len(m)), m)
    excl = np.concatenate(([0], np.cumsum(m)[:-1]))
    within = np.arange(total, dtype=np.int64) - excl[block]
    nb = sizes_b[block]
    left = starts_a[block] + within // nb
    right = starts_b[block] + within % nb
    return left, right


def _cell_blocks(pts):
    """The neighbour search of both counters: (n, 2) points in unit cells.

    Returns (order, blocks): `order` sorts the points by cell, and `blocks`
    yields (left, right) positions into that order, same-cell pairs (left <
    right) first, then one block per _HALF_OFFSETS neighbour.  Every pair
    closer than sqrt(2) appears exactly once."""
    import numpy as np

    n = len(pts)
    if n == 0:
        return np.empty(0, np.int64), iter(())
    cells = np.floor(pts).astype(np.int64)
    # pack cell coords into one int64 key (coordinates fit in 31 bits)
    shift = np.int64(1) << np.int64(31)
    base = np.int64(1) << np.int64(30)
    key = (cells[:, 0] + base) * shift + (cells[:, 1] + base)
    order = np.argsort(key, kind="stable")
    skey = key[order]
    starts = np.flatnonzero(np.concatenate(([True], skey[1:] != skey[:-1])))
    sizes = np.diff(np.concatenate((starts, [n])))
    ukeys = skey[starts]

    def blocks():
        multi = sizes > 1
        left, right = _cross_indices(starts[multi], sizes[multi],
                                     starts[multi], sizes[multi])
        keep = left < right
        yield left[keep], right[keep]
        for dx_c, dy_c in _HALF_OFFSETS:
            nkey = ukeys + np.int64(dx_c) * shift + np.int64(dy_c)
            pos = np.clip(np.searchsorted(ukeys, nkey), 0, len(ukeys) - 1)
            match = np.flatnonzero(ukeys[pos] == nkey)
            tgt = pos[match]
            yield _cross_indices(starts[match], sizes[match],
                                 starts[tgt], sizes[tgt])

    return order, blocks()


def _count_hashed(pts, eps) -> int:
    order, blocks = _cell_blocks(pts)
    x = pts[order, 0]
    y = pts[order, 1]
    return sum(int(_pair_distances_ok(x[left], y[left], x[right], y[right],
                                      eps).sum())
               for left, right in blocks)


# ---------------------------------------------------------------------------
# Square-grid baseline
# ---------------------------------------------------------------------------

@dataclass
class GridResult:
    n: int
    side: int
    m: int                      # squared distance normalized to 1
    r2_in_grid: int             # signed representations realizable in-grid
    predicted_pairs: int
    points: "object"            # (n, 2) floats, scaled by 1/sqrt(m)

    def to_dict(self) -> dict:
        return {"n": self.n, "side": self.side, "m": self.m,
                "r2_in_grid": self.r2_in_grid,
                "predicted_pairs": self.predicted_pairs}


def erdos_grid(n: int) -> GridResult:
    """sqrt(n) x sqrt(n) grid scaled so that a most-represented realizable
    squared distance m becomes 1 (ties toward smaller m)."""
    import numpy as np

    s = math.isqrt(max(n, 0))
    if s * s != n or s < 2:
        raise InvalidArgument(f"n must be a perfect square >= 4, not {n}")
    cap = 2 * (s - 1) * (s - 1)
    best_m, best_r2 = None, -1
    for m in range(1, cap + 1):
        r2 = _r2_in_grid(m, s - 1)
        if r2 > best_r2:
            best_m, best_r2 = m, r2
    predicted = _predicted_grid_pairs(best_m, s)
    xs, ys = np.meshgrid(np.arange(s), np.arange(s))
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float)
    pts /= math.sqrt(best_m)
    return GridResult(n=n, side=s, m=best_m, r2_in_grid=best_r2,
                      predicted_pairs=predicted, points=pts)


def _r2_in_grid(m: int, amax: int) -> int:
    """Signed representations m = a^2 + b^2 with |a|, |b| <= amax."""
    count = 0
    for a in range(-amax, amax + 1):
        rest = m - a * a
        if rest < 0:
            continue
        b = math.isqrt(rest)
        if b * b == rest and b <= amax:
            count += 2 if b > 0 else 1
    return count


def _predicted_grid_pairs(m: int, s: int) -> int:
    total = 0
    for a in range(-(s - 1), s):
        rest = m - a * a
        if rest < 0:
            continue
        b = math.isqrt(rest)
        if b * b == rest and b <= s - 1:
            for bb in ({b, -b} if b else {0}):
                total += (s - abs(a)) * (s - abs(bb))
    return total // 2


# ---------------------------------------------------------------------------
# Two-squares representation counting
# ---------------------------------------------------------------------------

R2_SEARCH_LIMIT = 2_000_000   # candidates of one representation search


def r2_count_rational(alpha: int) -> int:
    """Ordered pairs (x, y) in Z^2 with x^2 + y^2 = alpha, by a search over
    x with |x| <= sqrt(alpha) (WindowTooLarge past R2_SEARCH_LIMIT values)."""
    if alpha < 0:
        return 0
    if alpha == 0:
        return 1
    s = math.isqrt(alpha)
    if 2 * s + 1 > R2_SEARCH_LIMIT:
        raise WindowTooLarge(f"{2 * s + 1} candidates for x (limit {R2_SEARCH_LIMIT})")
    count = 0
    for xv in range(-s, s + 1):
        rest = alpha - xv * xv
        t = math.isqrt(rest)
        if t * t == rest:
            count += 2 if t > 0 else 1
    return count


def r2_count(F: NumberField, alpha: FieldElement, box: Fraction) -> int:
    """Ordered pairs (x, y) in O_F^2 with x^2 + y^2 = alpha, F totally real.

    All solutions satisfy |sigma(x)|, |sigma(y)| <= sqrt(sigma(alpha)), so
    box >= max_sigma sqrt(sigma(alpha)) makes the lattice search complete;
    smaller boxes are rejected (BoxTooSmall) rather than risking an
    undercount.
    """
    from .enumeration import elements, lattice_points_in_polydisc
    from .linalg import identity

    if not F.is_totally_real():
        raise PreconditionError(f"r2_count needs a totally real field, not {F.label}")
    box = Fraction(box)
    if F.n == 1:
        a = (alpha.power_coords()[0] if isinstance(alpha, FieldElement)
             else Fraction(alpha))
        if a.denominator != 1:
            return 0
        if a > box * box:
            raise BoxTooSmall(f"box^2 = {box * box} < alpha = {a}")
        return r2_count_rational(int(a))

    # completeness precondition: sigma(alpha) <= box^2 in every embedding
    gap = box * box * F.one() - alpha
    for i in range(F.n):
        if gap.sign_at(i) < 0:
            raise BoxTooSmall(
                f"box = {box} is below sqrt(sigma(alpha)) in embedding {i}")
    # negative alpha in any embedding means no solutions
    for i in range(F.n):
        if alpha.sign_at(i) < 0:
            return 0

    basis = [F.element([Fraction(1 if k == j else 0) for k in range(F.n)])
             for j in range(F.n)]
    # the box |sigma_i(x)| <= box is the polydisc sigma_i(x)^2 <= box^2 under
    # the identity conjugation, one coordinate per real root
    real = CMStructure(field=F, conj_mat=identity(F.n), fixed_basis=tuple(basis),
                       f=F.n, pair_reps=tuple(range(F.n)))
    pts = elements(basis, lattice_points_in_polydisc(basis, real, [box * box] * F.n,
                                                     limit=R2_SEARCH_LIMIT))
    squares = {}
    for y in pts:
        sq = y * y
        squares.setdefault(tuple(sq.coords), []).append(y)
    count = 0
    for x in pts:
        need = alpha - x * x
        count += len(squares.get(tuple(need.coords), ()))
    return count
