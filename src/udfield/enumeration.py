"""Exact enumeration of lattice points in polydiscs of the Minkowski space.

There is one coordinate per conjugate pair of roots.  A CM field gives a
complex polydisc; a totally real field, with the identity as conjugation,
gives the real box |sigma_i(z)| <= r_i.

The basis is LLL-reduced, and a certified box |c_j| <= M_j from the inverse
basis matrix bounds the integer coordinates.  The box is walked depth
first, c_0 outermost and each coordinate ascending, so points come out in
lexicographic order; the last coordinate is tested for all its values at
once, elementwise in numpy.  Points are returned as integer coefficient
rows; only the margin band below builds field elements.  Every real column t (re, and im for a complex root)
of every basis vector is held as a float64 midpoint with a rigorous error,
and each level keeps float partial sums P_t with a margin D_t that bounds
|x_t - P_t| over every completion: the unfixed coordinates'
sum M_j |m_jt| plus the centre's error, the sum of M_j e_jt and the
rounding of the sums.  Floats only prune or accept:

    prune   if  sum_t max(0, |P_t| - D_t)^2 > r_i^2 (1 + 2^-40)  for some i
    accept  if  sum_t (|P_t| + D_t)^2 < r_i^2 (1 - 2^-40)        for every i

The slack 2^-40 covers the rounding of these bounds and of r_i^2 itself.
A point in neither case is decided exactly, by the sign of
abs_sq(z) - r_i^2 at the embedding (the embedding of a nonzero element is
nonzero, so refinement terminates).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence

from .errors import PrecisionExhausted, WindowTooLarge
from .intervals import (ComplexInterval, RealInterval, round_down, round_up,
                        sqrt_upper)
from .numberfield import CMStructure, FieldElement, NumberField, abs_sq

_PREFILTER_BITS = 48
_SLACK = 2.0 ** -40


def _columns(boxes, real: Sequence[bool]) -> List[RealInterval]:
    """Real columns of one box per embedding: re and im for a complex root,
    re alone for a real root (its im is exactly 0 and would make the basis
    matrix singular)."""
    return [iv for box, r in zip(boxes, real)
            for iv in ((box.re,) if r else (box.re, box.im))]


def _embedding_columns(real: Sequence[bool]) -> List[range]:
    """The column indices of each embedding in the rows of _columns."""
    cols, t = [], 0
    for r in real:
        cols.append(range(t, t + (1 if r else 2)))
        t += len(cols[-1])
    return cols


def _image_box(v: FieldElement, idx: int, bits: int) -> ComplexInterval:
    """sigma_idx(v), of width <= 2^-bits, as the exact combination
    sum_k c_k sigma(b_k) of the field's cached integral-basis images.

    With L the common denominator of the c_k, the integer combination
    sum_k (L c_k) sigma(b_k) is exact and its quotient by L is rounded
    outward to 2^-g, so the width is at most (sum |c_k| + 2) 2^-g for
    images of width 2^-g; g exceeds bits by a multiple of 64 that covers
    the bit length of sum |c_k| + 2."""
    L = math.lcm(*(c.denominator for c in v.coords))
    N = [c.numerator * (L // c.denominator) for c in v.coords]
    S = -(-sum(map(abs, N)) // L) + 2          # ceil(sum |c_k|) + 2
    g = bits + 64 * (1 + S.bit_length() // 64)
    parts = []
    for axis in ("re", "im"):
        lo = hi = Fraction(0)
        for c, box in zip(N, v.field.basis_images(idx, g)):
            iv = getattr(box, axis)
            if c > 0:
                lo, hi = lo + c * iv.lo, hi + c * iv.hi
            elif c < 0:
                lo, hi = lo + c * iv.hi, hi + c * iv.lo
        parts.append(RealInterval(round_down(lo / L, g), round_up(hi / L, g)))
    return ComplexInterval(*parts)


def _basis_embeddings(basis: Sequence[FieldElement], reps: Sequence[int],
                      real: Sequence[bool], bits: int):
    """Columns of sigma_i(v_j) as coarse intervals, one row per basis vector."""
    keep = max(_PREFILTER_BITS, bits - 16)
    return [_columns([_image_box(v, idx, bits).round_outward(keep) for idx in reps],
                     real) for v in basis]


def _coord_bounds(rows, cols, radii_sq: Sequence[Fraction],
                  center_emb) -> Optional[List[int]]:
    """Certified per-coordinate bounds M_j with |c_j| <= M_j for every solution.

    Writes the real n x n basis matrix as an interval matrix B, takes the
    exact inverse V of its midpoint, and certifies eta = ||I - B V||_1 < 1;
    then c = y (I - E)^{-1} with y = (x - a) V gives
        |c_j| <= |y_j| + ||y||_inf * eta / (1 - eta).
    """
    from . import linalg

    n = len(rows)
    try:
        V = linalg.mat_inv(linalg.mat([[iv.midpoint() for iv in row] for row in rows]))
    except ZeroDivisionError:
        return None
    # E = I - B V in interval arithmetic (V exact rational)
    col_sums = [Fraction(0)] * n
    for r in range(n):
        for c in range(n):
            acc = RealInterval.point(-1 if r == c else 0)
            for t in range(n):
                acc = acc + rows[r][t] * RealInterval.point(V[t][c])
            col_sums[c] += acc.magnitude()
    eta = max(col_sums)
    if eta >= 1:
        return None
    # per-real-coordinate bound on |x_t - a_t|
    bnd = [Fraction(0)] * n
    for i, ts in enumerate(cols):
        r = sqrt_upper(radii_sq[i], 16)
        extra = Fraction(0)
        if center_emb is not None:
            extra = max(center_emb[i].re.magnitude(), center_emb[i].im.magnitude())
        for t in ts:
            bnd[t] = r + extra
    y = [sum(bnd[t] * abs(V[t][j]) for t in range(n)) for j in range(n)]
    y_max = max(y)
    slop = y_max * eta / (1 - eta)
    return [int(yj + slop) + 1 for yj in y]


def lattice_points_in_polydisc(basis: Sequence[FieldElement], cm: CMStructure,
                               radii_sq: Sequence[Fraction],
                               center: Optional[FieldElement] = None,
                               limit: Optional[int] = None):
    """All z = center + sum c_j v_j with |sigma_i(z)|^2 <= radii_sq[i] for all i,
    as an (m, len(basis)) integer array of the coefficient rows c (see
    coordinate_rows and elements).

    sigma_i is the embedding at root cm.pair_reps[i] and |.|^2 is decided
    through abs_sq(z, cm).  The polydisc is closed; boundary points are
    included.  Deterministic order (lexicographic in the integer
    coordinates of the LLL-reduced basis).
    """
    field = basis[0].field
    reps = cm.pair_reps
    real = [field.roots()[idx].is_real for idx in reps]
    cols = _embedding_columns(real)
    radii_sq = [Fraction(r) for r in radii_sq]
    if any(r < 0 for r in radii_sq):
        return _int_rows([], len(basis))
    U, basis = _lll_reduce_basis(basis, cm.conj)
    emb = _basis_embeddings(basis, reps, real, 64)
    center_emb = None
    if center is not None and not center.is_zero():
        center_emb = [_image_box(center, idx, 64).round_outward(_PREFILTER_BITS)
                      for idx in reps]
    bounds = None
    bits = 64
    while bounds is None:
        bounds = _coord_bounds(emb, cols, radii_sq, center_emb)
        if bounds is None:
            bits *= 2
            if bits > 4096:
                raise PrecisionExhausted(
                    "basis embeddings too coarse to bound the search box")
            emb = _basis_embeddings(basis, reps, real, bits)
    total = 1
    for m in bounds:
        total *= 2 * m + 1
    if limit is not None and total > limit:
        raise WindowTooLarge(
            f"candidate box has {total} points (limit {limit})")

    import numpy as np

    n = len(basis)
    try:
        mids, errs = zip(*map(_float_columns, emb))
        if center_emb is None:
            base, base_err = [0.0] * n, [Fraction(0)] * n
        else:
            base, base_err = _float_columns(_columns(center_emb, real))
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

    def exact_inside(cvec, undecided):
        z = field.zero() if center is None else center
        for j, c in enumerate(cvec):
            if c:
                z = z + basis[j] * c
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
    return _combine(np.concatenate(blocks), U, [0] * n)


def _float_columns(ivs):
    """Float midpoints of the intervals, with exact bounds on their error."""
    exact = [iv.midpoint() for iv in ivs]
    mids = [float(q) for q in exact]
    errs = [iv.width() / 2 + abs(Fraction(x) - q) for x, q, iv in zip(mids, exact, ivs)]
    return mids, errs


def _round_up(q: Fraction) -> float:
    x = float(q)
    return x if Fraction(x) >= q else math.nextafter(x, math.inf)


def _margins(bounds, mids, errs, base, base_err) -> List[List[float]]:
    """margins[k][t] >= |x_t - P_t| over every completion of c_0..c_k.

    x_t is the exact column t of center + sum c_j v_j and P_t the float
    partial sum base_t + c_0 m_0t + ... + c_k m_kt.  The bound is
    tail + E: tail = sum_{j>k} M_j |m_jt| covers the coordinates not yet
    fixed, and E covers the centre's error, sum_j M_j e_jt and the
    rounding of the n products and n additions, which is below
    2 (n + 2) 2^-53 (|base_t| + sum_j M_j |m_jt|).
    """
    n = len(bounds)
    out = []
    for t in range(len(base)):
        terms = [M * abs(Fraction(m[t])) for M, m in zip(bounds, mids)]
        E = (base_err[t] + sum(M * e[t] for M, e in zip(bounds, errs))
             + Fraction(n + 2, 1 << 52) * (abs(Fraction(base[t])) + sum(terms)))
        out.append([_round_up(E + sum(terms[k + 1:])) for k in range(n)])
    return [list(row) for row in zip(*out)]


def _lll_reduce_basis(basis: Sequence[FieldElement], conj):
    """(U, reduced): exact LLL on the T2 Gram matrix Tr(x * conj(y)); the
    reduced basis is U @ basis, U an integer matrix."""
    from . import linalg

    n = len(basis)
    if n <= 1:
        return [[1] * n for _ in range(n)], list(basis)
    field = basis[0].field
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(field._trace_coords((basis[i] * conj(basis[j])).coords))
        gram.append(tuple(row))
    U = [list(row) for row in linalg.lll_transform(linalg.mat(gram))]
    out = []
    for row in U:
        z = field.zero()
        for c, v in zip(row, basis):
            if c:
                z = z + v * c
        out.append(z)
    return U, out


# ---------------------------------------------------------------------------
# Integer coordinate rows
# ---------------------------------------------------------------------------

def _max_abs(rows) -> int:
    import numpy as np

    return int(np.abs(rows).max(initial=0))


def _int_rows(flat, n: int):
    """The integers `flat` as an (m, n) array, row by row: int64 when every
    |entry| is below 2^63, Python ints (object dtype) otherwise."""
    import numpy as np

    dtype = np.int64 if max(map(abs, flat), default=0) < 1 << 63 else object
    return np.array(flat, dtype=dtype).reshape(-1, n)


def _combine(rows, B, c):
    """c + rows @ B exactly (integer matmul, no BLAS): int64 when the bound
    max|rows| * max_k sum_j |B_jk| + max|c| on every partial sum is below
    2^63, Python ints otherwise."""
    import numpy as np

    col_sums = [sum(abs(row[k]) for row in B) for k in range(len(c))]
    bound = _max_abs(rows) * max(col_sums, default=0) + max(map(abs, c), default=0)
    dtype = np.int64 if bound < 1 << 63 else object
    return rows.astype(dtype) @ np.array(B, dtype=dtype) + np.array(c, dtype=dtype)


def point_rows(points: Sequence[FieldElement], n: int):
    """(rows, denom): the integral-basis coordinates of the points as one
    (m, n) integer array over one common denominator."""
    denom = math.lcm(1, *(q.denominator for z in points for q in z.coords))
    return _int_rows([q.numerator * (denom // q.denominator)
                      for z in points for q in z.coords], n), denom


def coordinate_rows(basis: Sequence[FieldElement], rows,
                    center: Optional[FieldElement] = None):
    """(coords, denom): the points center + sum_j c_j basis_j of the
    coefficient rows c, as integer coordinate rows over one denominator."""
    field = basis[0].field
    B, denom = point_rows(list(basis) + [center or field.zero()], field.n)
    *B, c = B.tolist()
    return _combine(rows, B, c), denom


def elements(basis: Sequence[FieldElement], rows,
             center: Optional[FieldElement] = None) -> List[FieldElement]:
    """The points of coefficient rows (see coordinate_rows) as field elements."""
    field = basis[0].field
    coords, denom = coordinate_rows(basis, rows, center)
    return [FieldElement(field, tuple(Fraction(c, denom) for c in row))
            for row in coords.tolist()]


def roots_of_unity(field: NumberField, cm: CMStructure) -> List[FieldElement]:
    """Torsion units: integral elements of modulus exactly 1 in all embeddings."""
    from .numberfield import is_unit_modulus

    n = field.n
    basis = [FieldElement(field, tuple(Fraction(1 if k == j else 0) for k in range(n)))
             for j in range(n)]
    candidates = elements(basis, lattice_points_in_polydisc(basis, cm,
                                                            [Fraction(1)] * cm.f))
    return [z for z in candidates if not z.is_zero() and is_unit_modulus(z, cm)]
