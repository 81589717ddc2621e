"""The polydisc enumerator as it stood while it tested the last
coefficient for all its values at once in numpy, and returned an (m, n)
int64 or object array, kept verbatim as a differential-test oracle (only
the imports are made absolute; the helpers it shares with the current
enumerator are imported from `udfield.enumeration`, except the Fraction
set-up `_image_box`, `_basis_embeddings`, `_coord_bounds`, `_columns`,
`_margins`, `float_columns`, `round_outward` and `_PREFILTER_BITS`, which
come from `oracle_setup`, `int_rows` and `max_abs` are copied from
`udfield.linalg` and `_embedding_columns` from `udfield.enumeration`,
where they no longer exist).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from oracle_setup import (_PREFILTER_BITS, _basis_embeddings, _columns, _coord_bounds,
                          _image_box, _margins, float_columns, round_outward)
from udfield.enumeration import _SLACK, _lll_reduce_basis
from udfield.errors import PrecisionExhausted, WindowTooLarge
from udfield.numberfield import CMStructure, FieldElement, abs_sq


def _embedding_columns(real: Sequence[bool]):
    """The column indices of each embedding in the float rows: re and im
    at a complex root, re alone at a real root (where im is exactly 0)."""
    cols, t = [], 0
    for r in real:
        cols.append(range(t, t + (1 if r else 2)))
        t += len(cols[-1])
    return cols


def max_abs(rows) -> int:
    import numpy as np

    return int(np.abs(rows).max(initial=0))


def int_rows(flat, n: int):
    """The integers `flat` as an (m, n) array, row by row: int64 when every
    |entry| is below 2^63, Python ints (object dtype) otherwise."""
    import numpy as np

    dtype = np.int64 if max(map(abs, flat), default=0) < 1 << 63 else object
    return np.array(flat, dtype=dtype).reshape(-1, n)


def lattice_points_in_polydisc(basis: Sequence[Sequence[int]], denom: int,
                               cm: CMStructure, radii_sq: Sequence[Fraction],
                               center: Optional[Sequence[int]] = None,
                               limit: Optional[int] = None):
    """The points z = (center + sum_j c_j basis_j) / denom, c integer, with
    |sigma_i(z)|^2 <= radii_sq[i] for all i, as an (m, n) integer array of
    their coordinate rows over the integral basis, all over denom.

    basis is n rows of n Python ints, the lattice's basis over the integral
    basis times denom, and center (optional) one such row.  sigma_i is the
    embedding at root cm.pair_reps[i] and |.|^2 is decided through
    abs_sq(z, cm).  The polydisc is closed; boundary points are included;
    a negative radius gives no points.  Deterministic order (lexicographic
    in the integer coefficients c on the LLL-reduced basis).  Raises
    WindowTooLarge when the certified coefficient box has more than limit
    points.
    """
    field = cm.field
    n = field.n
    reps = cm.pair_reps
    real = [field.roots()[idx].is_real for idx in reps]
    cols = _embedding_columns(real)
    radii_sq = [Fraction(r) for r in radii_sq]
    if any(r < 0 for r in radii_sq):
        return int_rows([], n)
    basis = _lll_reduce_basis(basis, cm)
    emb = _basis_embeddings(field, basis, denom, reps, real, 64)
    center_emb = None
    if center is not None and any(center):
        center_emb = [round_outward(_image_box(field, center, denom, idx, 64),
                                    _PREFILTER_BITS) for idx in reps]
    bounds = None
    bits = 64
    while bounds is None:
        bounds = _coord_bounds(emb, cols, radii_sq, center_emb)
        if bounds is None:
            bits *= 2
            if bits > 4096:
                raise PrecisionExhausted(
                    "basis embeddings too coarse to bound the search box")
            emb = _basis_embeddings(field, basis, denom, reps, real, bits)
    total = 1
    for m in bounds:
        total *= 2 * m + 1
    if limit is not None and total > limit:
        raise WindowTooLarge(
            f"candidate box has {total} points (limit {limit})")

    import numpy as np

    try:
        mids, errs = zip(*map(float_columns, emb))
        if center_emb is None:
            base, base_err = [0.0] * n, [Fraction(0)] * n
        else:
            base, base_err = float_columns(_columns(center_emb, real))
        margins = _margins(bounds, mids, errs, base, base_err)
        # the slack absorbs the rounding of float(r^2) and of the bound sums,
        # so a float comparison can prune or accept but never decide the band
        hi = [float(r) * (1 + _SLACK) for r in radii_sq]
        lo = [float(r) * (1 - _SLACK) for r in radii_sq]
    except OverflowError:
        raise PrecisionExhausted("basis, centre or radii beyond float range") from None

    def outside(P, D):
        """Some |sigma_i|^2 exceeds r_i^2 for every x within D of P."""
        for i, ts in enumerate(cols):
            s = 0.0
            for t in ts:
                d = abs(P[t]) - D[t]
                if d > 0:
                    s += d * d
            if s > hi[i]:
                return True
        return False

    last = margins[-1]
    one = field.one()
    origin = [0] * n if center is None else list(center)

    def exact_inside(cvec, undecided):
        row = origin
        for c, v in zip(cvec, basis):
            if c:
                row = [x + c * y for x, y in zip(row, v)]
        z = FieldElement(field, row, denom)
        z2 = abs_sq(z, cm)
        return all((z2 - radii_sq[i] * one).sign_at(reps[i]) <= 0 for i in undecided)

    prefixes, partial = [], []

    def walk(k, cvec, P):
        if k + 1 == n:
            prefixes.append(cvec)
            partial.append(P)
            return
        m, D = mids[k], margins[k]
        for c in range(-bounds[k], bounds[k] + 1):
            Q = [p + c * x for p, x in zip(P, m)]
            if not outside(Q, D):
                walk(k + 1, cvec + (c,), Q)

    walk(0, (), base)
    # the last coordinate takes every value for a chunk of prefixes at once:
    # the test of outside() and the accept test, elementwise in the same order
    cs = np.arange(-bounds[-1], bounds[-1] + 1)
    step = max(1, (1 << 16) // len(cs))
    blocks = [np.empty((0, n), dtype=np.int64)]
    for start in range(0, len(prefixes), step):
        P = np.array(partial[start:start + step]).reshape(-1, len(base))
        A = [np.abs(P[:, t, None] + cs * x) for t, x in enumerate(mids[-1])]
        keep = np.ones(A[0].shape, dtype=bool)
        band = []
        for i, ts in enumerate(cols):
            s_out = s_in = 0.0
            for t in ts:
                d = np.maximum(A[t] - last[t], 0.0)
                s_out = s_out + d * d
                d = A[t] + last[t]
                s_in = s_in + d * d
            keep &= ~(s_out > hi[i])
            band.append(s_in >= lo[i])
        for r, c in zip(*np.nonzero(keep & np.logical_or.reduce(band))):
            undecided = [i for i in range(len(cols)) if band[i][r, c]]
            keep[r, c] = exact_inside(prefixes[start + r] + (int(cs[c]),), undecided)
        r, c = np.nonzero(keep)
        block = np.empty((len(r), n), dtype=np.int64)
        block[:, :-1] = np.array(prefixes[start:start + step],
                                 dtype=np.int64).reshape(-1, n - 1)[r]
        block[:, -1] = cs[c]
        blocks.append(block)
    return _combine(np.concatenate(blocks), basis, origin)


def _combine(rows, B, c):
    """c + rows @ B exactly (integer matmul, no BLAS): int64 when the bound
    max|rows| * max_k sum_j |B_jk| + max|c| on every partial sum is below
    2^63, Python ints otherwise."""
    import numpy as np

    col_sums = [sum(abs(row[k]) for row in B) for k in range(len(c))]
    bound = max_abs(rows) * max(col_sums, default=0) + max(map(abs, c), default=0)
    dtype = np.int64 if bound < 1 << 63 else object
    return rows.astype(dtype) @ np.array(B, dtype=dtype) + np.array(c, dtype=dtype)
