"""Exact enumeration of lattice points in polydiscs of the Minkowski space.

There is one coordinate per conjugate pair of roots.  A CM field gives a
complex polydisc; a totally real field, with the identity as conjugation,
gives the real box |sigma_i(z)| <= r_i.

A lattice is given as integer basis rows over the integral basis, with an
optional integer centre row, all over one common denominator D, and its
points come back as integer coordinate rows over D (tuples of Python
ints): the representation point sets use.  The basis is LLL-reduced on
the integer T2 Gram matrix B G B^T (G the trace form of the integral
basis, numberfield.trace_form), and a certified box |c_j| <= M_j from the
inverse basis matrix bounds the integer coefficients.  The box is walked
depth first, c_0 outermost and each coefficient ascending, so points come
out in lexicographic order of their coefficients on the reduced basis.
Only the margin band below builds field elements, each straight from its
integer row.  Every real column t (re, and im for a complex root) of every
basis vector is held as a float64 midpoint with a rigorous error, and each
level keeps float partial sums P_t with a margin D_t that bounds
|x_t - P_t| over every completion: the unfixed coefficients' sum
M_j |m_jt| plus the centre's error, the sum of M_j e_jt and the rounding
of the sums.  Floats only prune or accept:

    prune   if  sum_t max(0, |P_t| - D_t)^2 > r_i^2 (1 + 2^-40)  for some i
    accept  if  sum_t (|P_t| + D_t)^2 < r_i^2 (1 - 2^-40)        for every i

The slack 2^-40 covers the rounding of these bounds and of r_i^2 itself.
A point in neither case is decided exactly, by the sign of
abs_sq(z) - r_i^2 at the embedding (the embedding of a nonzero element is
nonzero, so refinement terminates).

The last coefficient c is not tried value by value.  Each |sigma_i(z)|^2
is a convex function of c, so the points of one prefix inside the
polydisc are one run of consecutive c.  Line-disc chords of the float
partial sums give the run's likely accepted core; the accept test at its
two ends certifies every c between them, and the tests above run only
outward from the ends, each side stopping at its first point outside.  A
prefix with no accepted c runs the tests on every c of a rigorous outer
chord, which covers the rounding of the partial sums.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import List, Optional, Sequence

from .errors import PrecisionExhausted, WindowTooLarge
from .intervals import (ComplexInterval, RealInterval, float_columns, float_up,
                        round_down, round_up, sqrt_upper)
from .numberfield import (CMStructure, FieldElement, NumberField, abs_sq,
                          trace_form)

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


def _image_box(field: NumberField, row: Sequence[int], denom: int, idx: int,
               bits: int) -> ComplexInterval:
    """sigma_idx(z) for z = sum_k (row_k / denom) b_k, of width <= 2^-bits,
    as the exact combination of the field's cached integral-basis images.

    The integer combination sum_k row_k sigma(b_k) is exact and its
    quotient by denom is rounded outward to 2^-g, so the width is at most
    (sum |row_k| / denom + 2) 2^-g for images of width 2^-g; g exceeds bits
    by a multiple of 64 that covers the bit length of that factor."""
    S = -(-sum(map(abs, row)) // denom) + 2    # ceil(sum |row_k| / denom) + 2
    g = bits + 64 * (1 + S.bit_length() // 64)
    parts = []
    for axis in ("re", "im"):
        lo = hi = Fraction(0)
        for c, box in zip(row, field.basis_images(idx, g)):
            iv = getattr(box, axis)
            if c > 0:
                lo, hi = lo + c * iv.lo, hi + c * iv.hi
            elif c < 0:
                lo, hi = lo + c * iv.hi, hi + c * iv.lo
        parts.append(RealInterval(round_down(lo / denom, g), round_up(hi / denom, g)))
    return ComplexInterval(*parts)


def _basis_embeddings(field: NumberField, basis, denom: int, reps: Sequence[int],
                      real: Sequence[bool], bits: int):
    """Columns of sigma_i(v_j) as coarse intervals, one row per basis row."""
    keep = max(_PREFILTER_BITS, bits - 16)
    return [_columns([_image_box(field, v, denom, idx, bits).round_outward(keep)
                      for idx in reps], real) for v in basis]


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


def lattice_points_in_polydisc(basis: Sequence[Sequence[int]], denom: int,
                               cm: CMStructure, radii_sq: Sequence[Fraction],
                               center: Optional[Sequence[int]] = None,
                               limit: Optional[int] = None):
    """The points z = (center + sum_j c_j basis_j) / denom, c integer, with
    |sigma_i(z)|^2 <= radii_sq[i] for all i, as a tuple of their coordinate
    rows over the integral basis (n-tuples of ints), all over denom.

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
        return ()
    basis = _lll_reduce_basis(basis, cm)
    emb = _basis_embeddings(field, basis, denom, reps, real, 64)
    center_emb = None
    if center is not None and any(center):
        center_emb = [_image_box(field, center, denom, idx, 64)
                      .round_outward(_PREFILTER_BITS) for idx in reps]
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

    one = field.one()
    # the last coordinate: float columns, margins, integer row and bound
    x, last, v, M = mids[-1], margins[-1], basis[-1], bounds[-1]

    def exact_inside(row, undecided):
        z2 = abs_sq(FieldElement(field, row, denom), cm)
        return all((z2 - radii_sq[i] * one).sign_at(reps[i]) <= 0 for i in undecided)

    def leaf(P, row, c, exact=True):
        """Whether the last coefficient c puts the point inside: the outside
        and accept tests at P + c x, then, if exact, sign_at on the
        embeddings in the band; without exact, whether it is accepted."""
        undecided = []
        for i, ts in enumerate(cols):
            s_out = s_in = 0.0
            for t in ts:
                a = abs(P[t] + c * x[t])
                d = max(a - last[t], 0.0)
                s_out = s_out + d * d
                d = a + last[t]
                s_in = s_in + d * d
            if s_out > hi[i]:
                return False
            if s_in >= lo[i]:
                undecided.append(i)
        if not undecided:
            return True
        return exact and exact_inside([a + c * b for a, b in zip(row, v)], undecided)

    # per disc: its columns with their last-coordinate floats, |x|^2,
    # |x|^-1, the radii of the inner and outer chords below, and M |x|_1
    discs = []
    for i, ts in enumerate(cols):
        xx = sum(x[t] * x[t] for t in ts)
        if xx > 0:
            lsum = sum(last[t] for t in ts)
            discs.append(([(t, x[t]) for t in ts], xx, xx ** -0.5,
                          lo[i] ** 0.5 - lsum, hi[i] ** 0.5 * (1 + 2.0 ** -40) + lsum,
                          M * sum(abs(x[t]) for t in ts)))

    def chords(P):
        """Two ranges (first, last) of integers c in [-M, M], from the
        line-disc chords of the float values.  The inner one, of discs
        shrunk by the margins, holds the c whose accept test is expected to
        pass.  The outer one, of discs grown by the margins and by the
        rounding of P + c x, holds every c inside the polydisc:
        |P_t(c) - P_t - c x_t| <= 2^-52 (|P_t| + 2 M |x_t|), and c0 and
        dist are good to far better than 2^-40 (|P| + M |x|)."""
        in_lo = out_lo = -M
        in_hi = out_hi = M
        for tx, xx, inv, r_in, r_out, mx in discs:
            px = dd = pad = 0.0
            for t, y in tx:
                px += P[t] * y
            c0 = -px / xx
            for t, y in tx:
                e = P[t] + c0 * y
                dd += e * e
                pad += abs(P[t])
            slop = (pad + mx) * 2.0 ** -40
            rho = r_out + slop
            near = dd ** 0.5 - slop
            if near > rho:
                return (1, 0), (1, 0)
            if near < 0:
                near = 0.0
            half = (rho * rho - near * near) ** 0.5 * inv * (1 + 2.0 ** -30) + slop * inv
            half += (1 + abs(c0) + half) * 2.0 ** -30
            if c0 - half > out_lo:
                out_lo = c0 - half
            if c0 + half < out_hi:
                out_hi = c0 + half
            if r_in * r_in > dd:
                half = (r_in * r_in - dd) ** 0.5 * inv
                if c0 - half > in_lo:
                    in_lo = c0 - half
                if c0 + half < in_hi:
                    in_hi = c0 + half
            else:
                in_lo, in_hi = 1, 0
        return ((math.ceil(in_lo), math.floor(in_hi)),
                (math.ceil(out_lo), math.floor(out_hi)))

    points = []

    def fibre(P, row):
        """Every last coefficient c of the prefix with its point inside, in
        ascending order.  The points inside form an interval of c, since
        |sigma_i|^2 is convex in c, so once two values a1 <= a2 pass the
        accept test every c between them is inside, and a scan outward from
        them ends at the first c that is not, or at the outer chord."""
        (a1, a2), (o1, o2) = chords(P)
        while a1 <= a2 and not leaf(P, row, a1, False):
            a1 += 1
        while a2 > a1 and not leaf(P, row, a2, False):
            a2 -= 1
        if a1 <= a2:
            first = a1
            while first > o1 and leaf(P, row, first - 1):
                first -= 1
            stop = a2 + 1
            while stop <= o2 and leaf(P, row, stop):
                stop += 1
            cur = tuple(a + first * b for a, b in zip(row, v))
            for _ in range(stop - first):
                points.append(cur)
                cur = tuple(map(add, cur, v))
        else:
            points.extend(tuple(a + c * b for a, b in zip(row, v))
                          for c in range(o1, o2 + 1) if leaf(P, row, c))

    def walk(k, row, P):
        if k + 1 == n:
            fibre(P, row)
            return
        m, D, w = mids[k], margins[k], basis[k]
        for c in range(-bounds[k], bounds[k] + 1):
            Q = [p + c * y for p, y in zip(P, m)]
            if not outside(Q, D):
                walk(k + 1, [a + c * b for a, b in zip(row, w)], Q)

    walk(0, [0] * n if center is None else list(center), base)
    return tuple(points)


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
        out.append([float_up(E + sum(terms[k + 1:])) for k in range(n)])
    return [list(row) for row in zip(*out)]


def _lll_reduce_basis(basis: Sequence[Sequence[int]], cm: CMStructure) -> List[List[int]]:
    """The rows U @ basis, U the integer transform of exact LLL on the T2
    Gram matrix B G B^T of the integer basis rows B (G = trace_form(cm));
    a common denominator of the rows scales the Gram matrix, which LLL
    ignores."""
    from . import linalg

    G = trace_form(cm)
    BG = [[sum(b * g[l] for b, g in zip(row, G)) for l in range(len(G))]
          for row in basis]
    gram = [[sum(x * y for x, y in zip(r, b)) for b in basis] for r in BG]
    U = linalg.lll_transform(linalg.mat(gram))
    return [[sum(u * v[k] for u, v in zip(row, basis)) for k in range(len(G))]
            for row in U]


def roots_of_unity(field: NumberField, cm: CMStructure) -> List[FieldElement]:
    """Torsion units: integral elements of modulus exactly 1 in all embeddings."""
    from .numberfield import is_unit_modulus

    n = field.n
    eye = [[1 if k == j else 0 for k in range(n)] for j in range(n)]
    candidates = [FieldElement(field, row) for row in lattice_points_in_polydisc(
        eye, 1, cm, [Fraction(1)] * cm.f)]
    return [z for z in candidates if not z.is_zero() and is_unit_modulus(z, cm)]
