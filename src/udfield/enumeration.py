"""Exact enumeration of lattice points in polydiscs of the Minkowski space.

There is one coordinate per conjugate pair of roots.  A CM field gives a
complex polydisc; a totally real field, with the identity as conjugation,
gives the real box |sigma_i(z)| <= r_i.

A lattice is given as integer basis rows over the integral basis, with an
optional integer centre row, all over one common denominator D, and its
points come back as integer coordinate rows over D (tuples of Python
ints): the representation point sets use.  The basis is LLL-reduced on
the integer T2 Gram matrix B G B^T (G the trace form of the integral
basis, numberfield.trace_form) by integral LLL.  The polydisc lies inside
the T2 ellipsoid, so the integer ranges lo_j <= c_j <= hi_j of the
coefficients on that ellipsoid (_coef_ranges) hold every point; let
M_j = max(-lo_j, hi_j).  The ranges are walked depth first, c_0
outermost and each coefficient ascending, so points come out in
lexicographic order of their coefficients on the reduced basis.
Every real column t (re, and im for a complex root) of every basis vector
and of the centre is a float64 midpoint m_jt with a float error e_jt, both
from NumberField.float_image, and each level keeps float partial sums P_t
with a margin D_t that bounds |x_t - P_t| over every completion: the
unfixed coefficients' sum M_j |m_jt| plus the centre's error, the sum of
M_j e_jt and the rounding of the sums, bounded in floats by
numberfield.float_sum_error.  In the walk, only the margin band below
builds field elements, each straight from its integer row.  Floats only
prune or accept:

    prune   if  sum_t max(0, |P_t| - D_t)^2 > r_i^2 (1 + 2^-40)  for some i
    accept  if  sum_t (|P_t| + D_t)^2 < r_i^2 (1 - 2^-40)        for every i

The slack 2^-40 covers the rounding of these bounds and of r_i^2 itself.
A point in neither case is decided exactly, by the sign of
abs_sq(z) - r_i^2 at the embedding (the embedding of a nonzero element is
nonzero, so refinement terminates).

The last coefficient c is not tried value by value.  Each |sigma_i(z)|^2
is a convex function of c, so the points of one prefix inside the
polydisc are one run of consecutive c.  One rigorous chord per prefix,
the line-disc chords of the float partial sums with the discs grown by
the margins and by the rounding of the sums, holds that run.  The tests
above (float prune and accept, then the exact sign in the band) run
inward from the chord's two ends, upward to the first c inside and
downward to the last; every c between those two is inside by convexity.
A prefix with no point inside tests every c of its chord.

A search's work is the prefixes the walk tries (every c of every level
but the last) plus the points it finds.  It is counted in bulk, per level
loop and per run of the last coefficient, and a search raises
WindowTooLarge as soon as its work passes its limit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .errors import PrecisionExhausted, WindowTooLarge
from .numberfield import (CMStructure, FieldElement, abs_sq, float_sum_error,
                          trace_form)

_SLACK = 2.0 ** -40


def _embedding_columns(real: Sequence[bool]) -> List[range]:
    """The column indices of each embedding in the float rows: re and im
    at a complex root, re alone at a real root (where im is exactly 0)."""
    cols, t = [], 0
    for r in real:
        cols.append(range(t, t + (1 if r else 2)))
        t += len(cols[-1])
    return cols


def _coef_ranges(basis, denom: int, cm: CMStructure, radii_sq: Sequence[Fraction],
                 real: Sequence[bool], center) -> List[Tuple[int, int]]:
    """Integer ranges lo_j <= c_j <= hi_j that hold every solution.

    T2(z) = sum_i w_i |sigma_i(z)|^2 (w_i = 2 for a complex pair, 1 for a
    real root) is at most R = sum_i w_i r_i^2 on the polydisc.  With
    center = a V on the basis V, z D = (c + a) V, so every solution has
    (c + a) Gram (c + a)^T <= R D^2 for the integer Gram matrix V G V^T,
    and hence |c_j + a_j| <= sqrt(R D^2 (Gram^-1)_jj) (Fincke and Pohst,
    Math. Comp. 44, 1985; Cohen, GTM 138, Alg. 2.7.5).  On integers: the
    adjugates from fraction-free Gauss-Jordan give Gram^-1 = Y / g and
    a = A / d, and with u_j = isqrt(floor(d^2 R D^2 Y_jj / g)), the floor
    of d sqrt(...), the exact range is ceil((-u_j - A_j) / d) ..
    floor((u_j - A_j) / d)."""
    n = len(basis)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    R = sum((1 if r else 2) * q for r, q in zip(real, radii_sq))
    g, Y = linalg.gauss_jordan([row + e for row, e in zip(_t2_gram(basis, cm), eye)])
    if not g:
        raise ValueError("singular lattice basis")
    d, A = 1, [0] * n
    if center is not None:
        d, X = linalg.gauss_jordan([list(v) + e for v, e in zip(basis, eye)])
        A = [sum(map(mul, center, col)) for col in zip(*X)]
    if d < 0:
        d, A = -d, [-a for a in A]
    scale = d * d * denom * denom * R.numerator
    out = []
    for j, a in enumerate(A):
        u = math.isqrt(scale * Y[j][j] // (g * R.denominator))
        out.append((-((u + a) // d), (u - a) // d))
    return out


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
    WindowTooLarge as soon as the search's work, the prefixes the walk
    tries plus the points it finds, passes limit.
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
    if center is not None and not any(center):
        center = None
    ranges = _coef_ranges(basis, denom, cm, radii_sq, real, center)
    if any(lo > hi for lo, hi in ranges):
        return ()
    bounds = [max(-lo, hi) for lo, hi in ranges]
    work = 0

    def spend(count):
        """Add count to the work (prefixes tried plus points found) and
        raise once it passes the limit."""
        nonlocal work
        work += count
        if limit is not None and work > limit:
            raise WindowTooLarge(f"search work {work} (prefixes tried plus points "
                                 f"found) past the limit {limit}")

    def columns(row):
        """The float columns of row / denom and their errors."""
        z = FieldElement(field, row, denom)
        mids, errs = [], []
        for idx, ts in zip(reps, cols):
            re, im, err = field.float_image(z, idx)
            mids += (re, im)[:len(ts)]
            errs += [err] * len(ts)
        return mids, errs

    try:
        mids, errs = zip(*map(columns, basis))
        if center is None:
            base, base_err = [0.0] * n, [0.0] * n
        else:
            base, base_err = columns(center)
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
    # the last coordinate: float columns, margins, integer row, range and bound
    x, last, v, (c_lo, c_hi), M = mids[-1], margins[-1], basis[-1], ranges[-1], bounds[-1]

    def leaf(P, row, c):
        """Whether the last coefficient c puts the point inside: the outside
        and accept tests at P + c x, then sign_at on the embeddings in the
        band."""
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
        z2 = abs_sq(FieldElement(field, [a + c * b for a, b in zip(row, v)], denom), cm)
        return all((z2 - radii_sq[i] * one).sign_at(reps[i]) <= 0 for i in undecided)

    # per disc: its columns with their last-coordinate floats, |x|^2,
    # |x|^-1, the radius of the chord below, and M |x|_1
    discs = []
    for i, ts in enumerate(cols):
        xx = sum(x[t] * x[t] for t in ts)
        if xx > 0:
            discs.append(([(t, x[t]) for t in ts], xx, xx ** -0.5,
                          hi[i] ** 0.5 * (1 + 2.0 ** -40) + sum(last[t] for t in ts),
                          M * sum(abs(x[t]) for t in ts)))

    def chord(P):
        """The integers c in [c_lo, c_hi] on the line-disc chords of the
        float values, as (first, last), of discs grown by the margins and
        by the rounding of P + c x.  They hold every c inside the
        polydisc: |P_t(c) - P_t - c x_t| <= 2^-52 (|P_t| + 2 M |x_t|), and
        c0 and dist are good to far better than 2^-40 (|P| + M |x|)."""
        first, final = c_lo, c_hi
        for tx, xx, inv, r, mx in discs:
            px = dd = pad = 0.0
            for t, y in tx:
                px += P[t] * y
            c0 = -px / xx
            for t, y in tx:
                e = P[t] + c0 * y
                dd += e * e
                pad += abs(P[t])
            slop = (pad + mx) * 2.0 ** -40
            rho = r + slop
            near = dd ** 0.5 - slop
            if near > rho:
                return 1, 0
            if near < 0:
                near = 0.0
            half = (rho * rho - near * near) ** 0.5 * inv * (1 + 2.0 ** -30) + slop * inv
            half += (1 + abs(c0) + half) * 2.0 ** -30
            if c0 - half > first:
                first = c0 - half
            if c0 + half < final:
                final = c0 + half
        return math.ceil(first), math.floor(final)

    points = []

    def fibre(P, row):
        """Every last coefficient c of the prefix with its point inside, in
        ascending order.  The points inside form an interval of c, since
        |sigma_i|^2 is convex in c, and the chord holds it: a scan upward
        from the chord's low end stops at the first c inside, a scan
        downward from its high end at the last, and every c between them
        is inside."""
        first, final = chord(P)
        while first <= final and not leaf(P, row, first):
            first += 1
        while final > first and not leaf(P, row, final):
            final -= 1
        if first <= final:
            cur = tuple(a + first * b for a, b in zip(row, v))
            for _ in range(final - first + 1):
                points.append(cur)
                cur = tuple(map(add, cur, v))
            spend(final - first + 1)

    def walk(k, row, P):
        if k + 1 == n:
            fibre(P, row)
            return
        m, D, w, (lo_k, hi_k) = mids[k], margins[k], basis[k], ranges[k]
        spend(hi_k - lo_k + 1)
        for c in range(lo_k, hi_k + 1):
            Q = [p + c * y for p, y in zip(P, m)]
            if not outside(Q, D):
                walk(k + 1, [a + c * b for a, b in zip(row, w)], Q)

    walk(0, [0] * n if center is None else list(center), base)
    return tuple(points)


def _margins(bounds, mids, errs, base, base_err) -> List[List[float]]:
    """margins[k][t] >= |x_t - P_t| over every completion of c_0..c_k.

    x_t is the exact column t of center + sum c_j v_j and P_t the float
    partial sum base_t + c_0 m_0t + ... + c_k m_kt.  A coefficient not yet
    fixed, |c_j| <= M_j for j > k, adds at most M_j (|m_jt| + e_jt), so
    the bound is float_sum_error's with the error e_jt + |m_jt| for j > k.
    """
    return [[float_sum_error(bounds, m, [e + abs(y) if j > k else e
                                         for j, (y, e) in enumerate(zip(m, err))], b, be)
             for m, err, b, be in zip(zip(*mids), zip(*errs), base, base_err)]
            for k in range(len(bounds))]


def _t2_gram(basis: Sequence[Sequence[int]], cm: CMStructure) -> List[List[int]]:
    """The integer T2 Gram matrix B G B^T of the integer basis rows B
    (G = trace_form(cm))."""
    G = trace_form(cm)
    BG = [[sum(b * g[l] for b, g in zip(row, G)) for l in range(len(G))]
          for row in basis]
    return [[sum(x * y for x, y in zip(r, b)) for b in basis] for r in BG]


def _lll_reduce_basis(basis: Sequence[Sequence[int]], cm: CMStructure) -> List[List[int]]:
    """The rows U @ basis, U the integer transform of exact LLL on the T2
    Gram matrix of the basis rows; a common denominator of the rows scales
    the Gram matrix, which LLL ignores."""
    U = linalg.lll_transform(_t2_gram(basis, cm))
    return [[sum(u * v[k] for u, v in zip(row, basis)) for k in range(len(basis))]
            for row in U]

