"""The exact pair search as it stood while it ran on numpy: the planar
image of integer rows, the cell-hash pair search with its integer decision
of the survivors, and the neighbour search it shared with the float
counter, kept verbatim as a differential-test oracle (only the imports are
made absolute, and `max_abs` is copied from `udfield.linalg`, where it no
longer exists).

The rows may be any (m, n) integer array, int64 or object dtype.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

from udfield.errors import PrecisionExhausted
from udfield.numberfield import CMStructure, hermitian_form


def max_abs(rows) -> int:
    import numpy as np

    return int(np.abs(rows).max(initial=0))


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

    from udfield.intervals import float_columns, float_up

    K = cm.field
    n = K.n
    rep = cm.pair_reps[coordinate]
    unit = [[1 if k == j else 0 for k in range(n)] for j in range(n)]
    boxes = K.basis_images(rep, 128)
    zero = ([list(cm.conj_mat[j]) == [-c for c in unit[j]] for j in range(n)],
            [list(cm.conj_mat[j]) == unit[j] for j in range(n)])
    xy = np.zeros((len(rows), 2))
    C = [Fraction(max_abs(rows[:, k]), denom) for k in range(n)]
    try:
        if max_abs(rows) < 1 << 53 and denom < 1 << 53:
            # both exact in float64, so the IEEE quotient is correctly rounded
            c = rows.astype(float) / denom
        else:
            c = np.array([[float(Fraction(r, denom)) for r in row]
                          for row in rows.tolist()]).reshape(len(rows), n)
        err = 0.0
        for axis, part in enumerate(("re", "im")):
            mids, errs = float_columns([getattr(box, part) for box in boxes])
            bound = Fraction(0)
            for k in range(n):
                if zero[axis][k]:
                    continue
                xy[:, axis] += c[:, k] * mids[k]
                m = abs(Fraction(mids[k]))
                bound += (C[k] * (errs[k] + Fraction(n + 2, 1 << 52) * m)
                          + (1 + m) / (1 << 1074))
            err = max(err, float_up(bound))
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
    order, blocks = _cell_blocks(xy, math.sqrt(1 - margin), math.sqrt(1 + margin))
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

    T, e = hermitian_form(cm)
    n = len(e)
    target = [denom * denom * x for x in e]
    span = max(sum(abs(T[p][q][k]) for p in range(n) for q in range(n))
               for k in range(n))
    dmax = 2 * max_abs(rows)
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
    """The offsets (dx, dy) of one half plane (dx > 0, or dx = 0 < dy), in
    lexicographic order, between cells of side 1/k that hold two points at
    a distance in [lo, hi].  The range is widened by 2^-20, which covers the
    rounding of the cell indices floor(k x) for |k x| < 2^30 and of the
    distances the counters test."""
    lo, hi = (lo - 2.0 ** -20) * k, (hi + 2.0 ** -20) * k
    r = math.ceil(hi) + 1
    return [(dx, dy) for dx in range(r + 1) for dy in range(-r, r + 1)
            if (dx > 0 or dy > 0)
            and math.hypot(max(dx - 1, 0), max(abs(dy) - 1, 0)) <= hi
            and math.hypot(dx + 1, abs(dy) + 1) >= lo]


def _cell_blocks(pts, lo: float, hi: float):
    """The neighbour search of both counters: every pair of the (n, 2)
    points whose distance may lie in [lo, hi], exactly once.

    Cells have side 1/k, with k the integer square root of the points per
    unit area of the bounding box (at least 1), so a dense set does not
    crowd into a few unit cells.  Returns (order, blocks): `order` sorts the
    points by cell, and `blocks` yields (left, right) positions into that
    order: same-cell pairs (left < right) first, then one block per
    _cell_offsets neighbour."""
    import numpy as np

    n = len(pts)
    if n == 0:
        return np.empty(0, np.int64), iter(())
    w, h = np.ptp(pts, axis=0)
    k = max(1, math.isqrt(int(n / ((w + 1) * (h + 1)))))
    offsets = _cell_offsets(k, lo, hi)
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
        multi = sizes > 1
        left, right = _cross_indices(starts[multi], sizes[multi],
                                     starts[multi], sizes[multi])
        keep = left < right
        yield left[keep], right[keep]
        for dx_c, dy_c in offsets:
            nkey = ukeys + np.int64(dx_c) * shift + np.int64(dy_c)
            pos = np.clip(np.searchsorted(ukeys, nkey), 0, len(ukeys) - 1)
            match = np.flatnonzero(ukeys[pos] == nkey)
            tgt = pos[match]
            yield _cross_indices(starts[match], sizes[match],
                                 starts[tgt], sizes[tgt])

    return order, blocks()
