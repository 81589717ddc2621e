"""Unit-distance counting: exact algebraic, fast grid-hashed float, the
square-grid baseline, and two-squares representation counts.

The exact counter takes a point set as integer coordinate rows over the
integral basis with one common denominator D (tuples of Python ints) and
runs on Python ints and floats alone; numpy serves only the float counting
paths below.  It never makes a floating-point decision.  Unit distance is
the exact identity |x - y|^2 = 1, that is
sum_{j,l} d_j d_l T[j,l,:] = L D^2 coords(1) for the difference row d (see
hermitian_form), and the pairs are found in one of two ways, chosen from
the rows alone:

- a join: every difference of the rows lies in the lattice diag(g) / D,
  g_k the gcd of column k's differences, and its unit differences
  U = {d : d conj(d) = 1} lie in the radius-1 polydisc, so one exact
  enumeration of it gives U, and the pairs are the points whose translate
  by some d in U (one of each +-d) is a point;
- a cell hash, when that enumeration passes its work cap (a dense lattice,
  as for a closure of unit translates) or float range, or the rows repeat:
  float positions with a certified error bound rule pairs out, and each
  surviving pair is decided by the identity, memoised per difference row.

The exact side imports the field stack where it is used, so the float
counters, the grid and r2 over Q run without it.
"""

from __future__ import annotations

import math
import time
from itertools import chain
from fractions import Fraction
from operator import itemgetter, mul, sub
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from .errors import (BoxTooSmall, InvalidArgument, ParseError, PrecisionExhausted,
                     PreconditionError, TooLargeEps, WindowTooLarge)

if TYPE_CHECKING:
    from .numberfield import CMStructure, FieldElement, NumberField


class PlanarFloatSet:
    """Plain float points, an (n, 2) float ndarray, with an annulus tolerance."""

    __slots__ = ("points", "eps")

    def __init__(self, points, eps: float):
        import numpy as np

        pts = np.asarray(points, dtype=float)
        if not np.isfinite(pts).all():
            raise ParseError("points contain NaN or infinity")
        if not eps >= 0:
            raise InvalidArgument(f"eps must be a nonnegative number, not {eps}")
        self.points, self.eps = pts, eps


class DistanceCensus(NamedTuple):
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


def planar_image(rows, denom: int, cm: CMStructure, coordinate: int = 0):
    """(xy, err): the (re, im) of sigma(z) at root cm.pair_reps[coordinate]
    as a tuple of float pairs, every entry within err of the exact value,
    for the points z = sum_k (row_k / denom) b_k of the integer rows.

    sigma(z) = sum_k c_k sigma(b_k) over the integral basis: the basis images
    come from NumberField.float_image once, as float midpoints m_k with
    float errors e_k, and fl(c_k) m_k is summed in a fixed k order.
    fl(c_k) = row_k / denom, the correctly rounded quotient of two Python
    ints.  err is float_sum_error's bound, with weights C_k >= max |c_k|,
    the one enumeration._margins takes.  A column that is exactly 0
    (conj(b_k) = -b_k for re, conj(b_k) = b_k for im) stays exactly 0.
    """
    from .numberfield import FieldElement, float_sum_error

    K = cm.field
    n = K.n
    rep = cm.pair_reps[coordinate]
    unit = [[1 if k == j else 0 for k in range(n)] for j in range(n)]
    C, L = cm.conj_mat, cm.conj_den
    zero = ([list(C[j]) == [-L * c for c in unit[j]] for j in range(n)],
            [list(C[j]) == [L * c for c in unit[j]] for j in range(n)])
    try:
        # the unit rows take the basis images at 128 bits
        images = [K.float_image(FieldElement(K, u), rep) for u in unit]
        C = [max(map(abs, map(itemgetter(k), rows)), default=0) / denom for k in range(n)]
        err, xy = 0.0, []
        for axis, skip in enumerate(zero):
            mids, errs = zip(*((0.0, 0.0) if z else (m[axis], m[2])
                               for z, m in zip(skip, images)))
            acc = [0.0] * len(rows)
            for k, m in enumerate(mids):
                if not skip[k]:
                    acc = [a + r / denom * m for a, r in zip(acc, map(itemgetter(k), rows))]
            err = max(err, float_sum_error(C, mids, errs))
            xy.append(acc)
    except OverflowError:
        raise PrecisionExhausted("point coordinates beyond float range") from None
    return tuple(zip(*xy)), err


# the join's radius-1 search may take this many times the point count in
# work: a window's search takes about one unit of work per point (1977 for
# the 1961 points of the Gaussian (1/25) O_K window at R = 1), so a cap of
# len(rows) alone would send such windows to the cell hash, and twice that
# still ends a closure's dense-lattice search within a few milliseconds
JOIN_WORK = 2


def unit_pair_indices(rows, denom: int, xy, err: float,
                      cm: CMStructure) -> List[Tuple[int, int]]:
    """Sorted index pairs (i < j) with |x_i - x_j| = 1, decided exactly.

    `rows` / `denom` are the points' integral-basis coordinates and `xy`,
    `err` their positions in any one embedding (planar_image); positions
    too coarse to prune raise PrecisionExhausted.  Every difference of the
    rows lies in the lattice diag(g) / denom, g_k the gcd of column k's
    differences from the first row (denom for a constant column), so the
    pairs are the join of the rows with their translates by that lattice's
    unit differences.  When that search takes more than JOIN_WORK work per
    row, or the rows repeat, a cell hash runs instead: the cells of
    `count_float` find nearby positions, their squared float distance
    prunes with a rigorous margin, and each survivor is decided by the
    integer identity of hermitian_form, once per difference row.
    """
    if len(rows) < 2:
        return []
    margin = _margin(xy, err)
    steps = [math.gcd(*[c - c0 for c in col]) or denom
             for c0, col in zip(rows[0], zip(*rows))]
    try:
        pairs = _join(rows, unit_differences(cm, steps, denom,
                                             limit=JOIN_WORK * len(rows)))
    except (PrecisionExhausted, WindowTooLarge):
        pairs = None
    if pairs is None:
        pairs = _cell_pairs(rows, denom, xy, margin, cm)
    return pairs


def _margin(xy, err: float) -> float:
    """The margin of the float test |d^2 - 1| <= margin that no unit pair
    fails; PrecisionExhausted when it passes 1/2."""
    # a float coordinate difference is off by at most e (the error of two
    # positions plus the rounding of the difference, e >= 2^-50), so for
    # |d| = 1 the float d^2 is within 4 e + 2 e^2 plus a few ulps of 1
    # (a position that is not finite makes the sum inf or nan)
    finite = sum(map(abs, chain.from_iterable(xy))) < math.inf
    m = max(max(map(abs, chain.from_iterable(xy))), 1.0) if finite else math.inf
    e = 2 * err + m * 2.0 ** -50
    margin = 8 * e + 4 * e * e
    if not margin <= 0.5:
        raise PrecisionExhausted(
            f"positions too coarse to prune unit pairs (error {err:.3g})")
    return margin


def _join(rows, diffs) -> Optional[List[Tuple[int, int]]]:
    """The pairs (i < j) with row_j - row_i = +-d for a difference d, rows
    and differences over one denominator; None when two rows are equal.

    Each vector is keyed by the integer sum_k c_k B^k.  B exceeds twice
    every |c_k| of a row plus a difference, so the key is linear and
    one-to-one on those vectors, and row + d is a row exactly when
    key(row) + key(d) is a key."""
    top = (max(map(abs, chain.from_iterable(rows)))
           + max(map(abs, chain.from_iterable(diffs)), default=0))
    radix = [(2 * top + 1) ** k for k in range(len(rows[0]))]
    keys = [0] * len(rows)
    for k, w in enumerate(radix):
        keys = [x + c * w for x, c in zip(keys, map(itemgetter(k), rows))]
    index = list(range(len(keys)))
    where = dict(zip(keys, index))
    if len(where) < len(keys):
        return None
    pairs = []
    for d in diffs:
        step = sum(map(mul, d, radix))
        hits = map(where.get, [k + step for k in keys])
        pairs += [(i, j) if i < j else (j, i)
                  for i, j in zip(index, hits) if j is not None]
    pairs.sort()
    return pairs


def _unit_test(cm: CMStructure, denom: int):
    """The exact test |z|^2 = 1 of a difference row d over denom: the
    integer identity sum_{p,q} d_p d_q T[p][q][k] = denom^2 e_k of
    hermitian_form, for every k."""
    from .numberfield import hermitian_form

    T, e = hermitian_form(cm)
    n = len(e)
    checks = [([(p, q, T[p][q][k]) for p in range(n) for q in range(n) if T[p][q][k]],
               denom * denom * e[k]) for k in range(n)]
    return lambda d: all(sum(d[p] * d[q] * t for p, q, t in terms) == target
                         for terms, target in checks)


def _cell_pairs(rows, denom: int, xy, margin: float,
                cm: CMStructure) -> List[Tuple[int, int]]:
    """The unit pairs among positions within margin of distance 1 in the
    squared float distance: the cells and offsets of _cell_blocks, in
    Python, and the exact test of each difference row decided once."""
    xs, ys = zip(*xy)
    k = _cells_per_unit(len(xy), max(xs) - min(xs), max(ys) - min(ys))
    offsets = _cell_offsets(k, math.sqrt(1 - margin), math.sqrt(1 + margin))
    same = offsets[:1] == [(0, 0)]
    cells = {}
    for i, (x, y) in enumerate(xy):
        cells.setdefault((math.floor(x * k), math.floor(y * k)), []).append(i)
    close = []
    for (cx, cy), here in cells.items():
        blocks = [(here[:t], here[t]) for t in range(1, len(here))] if same else []
        for dx, dy in offsets[same:]:
            there = cells.get((cx + dx, cy + dy))
            if there:
                blocks.extend((here, j) for j in there)
        for left, j in blocks:
            xj, yj = xy[j]
            for i in left:
                dx = xs[i] - xj
                dy = ys[i] - yj
                if abs(dx * dx + dy * dy - 1.0) <= margin:
                    close.append((i, j))
    unit = _unit_test(cm, denom)
    decided = {}
    pairs = []
    for i, j in close:
        d = tuple(map(sub, rows[i], rows[j]))
        hit = decided.get(d)
        if hit is None:
            hit = decided[d] = unit(d)
        if hit:
            pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


def unit_differences(cm: CMStructure, steps, denom: int, limit: Optional[int] = None):
    """The d in the lattice diag(steps) / denom with d conj(d) = 1, one of
    each pair +-d (the one whose first nonzero coordinate is positive), as
    integer rows over denom.

    |sigma(d)| = 1 at every embedding, so all of them lie in the closed
    radius-1 polydisc: one enumeration of it, with the exact identity of
    hermitian_form on each point.  Raises WindowTooLarge when the
    enumeration's work (prefixes tried plus points found) passes limit."""
    from .enumeration import lattice_points_in_polydisc

    n = len(steps)
    basis = [[s if k == j else 0 for k in range(n)] for j, s in enumerate(steps)]
    unit = _unit_test(cm, denom)
    return tuple(d for d in lattice_points_in_polydisc(basis, denom, cm,
                                                      [Fraction(1)] * cm.f, limit=limit)
                 if d > tuple(-c for c in d) and unit(d))


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

    "hashed" buckets points into cells (of side 1, finer for dense sets)
    so each point only meets the cells its annulus can intersect
    (_cell_blocks, whose cells and offsets the exact cell hash shares);
    "brute" is the blockwise O(n^2) reference behind `count --method
    brute` and `--oracle`, and any other method counts as "hashed".  Both
    evaluate the identical float expression, _pair_distances_ok, so they
    agree exactly.
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
    count = (_count_brute if method == "brute" else _count_hashed)(pts, ps.eps)
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


def _cell_offsets(k: int, lo: float, hi: float):
    """The offsets (dx, dy) of one half plane (dx > 0, or dx = 0 <= dy), in
    lexicographic order, between cells of side 1/k that hold two points at
    a distance in [lo, hi]: (0, 0), the same cell, only when its diagonal
    sqrt(2) / k reaches lo, so never for k >= 2.  The range is widened by
    2^-20, which covers the rounding of the cell indices floor(k x) for
    |k x| < 2^30 and of the distances the counters test."""
    lo, hi = (lo - 2.0 ** -20) * k, (hi + 2.0 ** -20) * k
    r = math.ceil(hi) + 1
    return [(dx, dy) for dx in range(r + 1) for dy in range(-r, r + 1)
            if (dx > 0 or dy >= 0)
            and math.hypot(max(dx - 1, 0), max(abs(dy) - 1, 0)) <= hi
            and math.hypot(dx + 1, abs(dy) + 1) >= lo]


def _cells_per_unit(n: int, w: float, h: float) -> int:
    """k, for cells of side 1/k: the integer square root of the n points
    per unit area of their w x h bounding box, at least 1."""
    return max(1, math.isqrt(int(n / ((w + 1) * (h + 1)))))


def _cell_blocks(pts, lo: float, hi: float):
    """The neighbour search of the float counters: every pair of the
    (n, 2) points whose distance may lie in [lo, hi], exactly once.

    Cells have side 1/k (_cells_per_unit), so a dense set does not crowd
    into a few unit cells.  Returns (order, blocks): `order` sorts the
    points by cell, and `blocks` yields (left, right) positions into that
    order: same-cell pairs (left < right) first when _cell_offsets admits
    (0, 0), then one block per other _cell_offsets neighbour."""
    import numpy as np

    n = len(pts)
    if n == 0:
        return np.empty(0, np.int64), iter(())
    k = _cells_per_unit(n, *np.ptp(pts, axis=0))
    offsets = _cell_offsets(k, lo, hi)
    same = offsets[:1] == [(0, 0)]
    cells = np.floor(pts * k).astype(np.int64)
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
        if same:
            multi = sizes > 1
            left, right = _cross_indices(starts[multi], sizes[multi],
                                         starts[multi], sizes[multi])
            keep = left < right
            yield left[keep], right[keep]
        for dx_c, dy_c in offsets[same:]:
            nkey = ukeys + np.int64(dx_c) * shift + np.int64(dy_c)
            pos = np.clip(np.searchsorted(ukeys, nkey), 0, len(ukeys) - 1)
            match = np.flatnonzero(ukeys[pos] == nkey)
            tgt = pos[match]
            yield _cross_indices(starts[match], sizes[match],
                                 starts[tgt], sizes[tgt])

    return order, blocks()


def _count_hashed(pts, eps) -> int:
    order, blocks = _cell_blocks(pts, 1 - eps, 1 + eps)
    x = pts[order, 0]
    y = pts[order, 1]
    return sum(int(_pair_distances_ok(x[left], y[left], x[right], y[right],
                                      eps).sum())
               for left, right in blocks)


# ---------------------------------------------------------------------------
# Square-grid baseline
# ---------------------------------------------------------------------------

class GridResult(NamedTuple):
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


GRID_LIMIT = 10_000   # points of one grid; caps the float pair count of `grid`


def erdos_grid(n: int) -> GridResult:
    """sqrt(n) x sqrt(n) grid scaled so that a most-represented realizable
    squared distance m becomes 1 (ties toward smaller m); WindowTooLarge
    past GRID_LIMIT points."""
    import numpy as np

    if n > GRID_LIMIT:
        raise WindowTooLarge(f"{n} grid points (limit {GRID_LIMIT})")
    s = math.isqrt(max(n, 0))
    if s * s != n or s < 2:
        raise InvalidArgument(f"n must be a perfect square >= 4, not {n}")
    # entry m of the bincount is the number of signed representations
    # m = a^2 + b^2 with |a|, |b| <= s - 1; argmax takes the smallest m
    a = np.arange(-(s - 1), s) ** 2
    r2 = np.bincount((a[:, None] + a[None, :]).ravel())
    best_m = 1 + int(np.argmax(r2[1:]))
    best_r2 = int(r2[best_m])
    predicted = _predicted_grid_pairs(best_m, s)
    xs, ys = np.meshgrid(np.arange(s), np.arange(s))
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float)
    pts /= math.sqrt(best_m)
    return GridResult(n=n, side=s, m=best_m, r2_in_grid=best_r2,
                      predicted_pairs=predicted, points=pts)


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

R2_SEARCH_LIMIT = 2_000_000   # candidates, or enumerator work, of one search


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
    from .enumeration import lattice_points_in_polydisc
    from .numberfield import CMStructure, FieldElement

    if not F.is_totally_real():
        raise PreconditionError(f"r2_count needs a totally real field, not {F.label}")
    box = Fraction(box)
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

    eye = [[1 if k == j else 0 for k in range(F.n)] for j in range(F.n)]
    # the box |sigma_i(x)| <= box is the polydisc sigma_i(x)^2 <= box^2 under
    # the identity conjugation, one coordinate per real root
    real = CMStructure(F, eye, 1, F.n, tuple(range(F.n)))
    pts = [FieldElement(F, row) for row in lattice_points_in_polydisc(
        eye, 1, real, [box * box] * F.n, limit=R2_SEARCH_LIMIT)]
    squares = {}
    for y in pts:
        squares.setdefault(y * y, []).append(y)
    count = 0
    for x in pts:
        count += len(squares.get(alpha - x * x, ()))
    return count
