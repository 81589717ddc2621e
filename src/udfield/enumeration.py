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
the T2 ellipsoid, and _levels bounds each coefficient on it exactly,
given the coefficients before it: one integer range per level, so the
inner levels of the walk do integer arithmetic only.  The ranges are
walked depth first, c_0 outermost and each coefficient ascending, so
points come out in lexicographic order of their coefficients on the
reduced basis.

Floats enter at the last level only.  The walk keeps float partial sums
P_t of each real column t (re, and im for a complex root) from the
float64 midpoints and errors of NumberField.float_image, and _margins
bounds |x_t - P_t| by D_t.  Only the margin band below builds field
elements, each straight from its integer row.  Floats only prune or
accept: the chord below prunes, and leaf accepts

    if  sum_t (|P_t| + D_t)^2 < r_i^2 (1 - 2^-40)  for every i.

The slack 2^-40 covers the rounding of this bound and of r_i^2 itself.
Any other point is decided exactly, by the sign of abs_sq(z) - r_i^2 at
the embedding (the embedding of a nonzero element is nonzero, so
refinement terminates).

The last coefficient c is not tried value by value.  Each |sigma_i(z)|^2
is a convex function of c, so the points of one prefix inside the
polydisc are one run of consecutive c.  One rigorous chord per prefix,
the line-disc chords of the float partial sums with the discs grown by
the margins and by the rounding of the sums, cut to the last level's
range, holds that run, and no c outside it is tried.  The leaf test
(float accept, then the exact sign in the band) runs inward from the
chord's two ends, upward to the first c inside and downward to the last;
every c between those two is inside by convexity.  A prefix with no point
inside tests every c of its chord.

A search's work is the prefixes the walk tries (every c in the range of
every level but the last) plus the points it finds.  It is counted in
bulk, per level loop and per run of the last coefficient, and a search
raises WindowTooLarge as soon as its work passes its limit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul
from typing import List, Optional, Sequence

from . import linalg
from .errors import PrecisionExhausted, WindowTooLarge
from .numberfield import (CMStructure, FieldElement, abs_sq, float_sum_error,
                          trace_form)

_SLACK = 2.0 ** -40


def _levels(basis, denom: int, cm: CMStructure, radii_sq: Sequence[Fraction], center):
    """The walk's data (bounds, weights, steps, cols, start, top), or None
    when some coefficient has no value.

    T2(z) = w sum_i |sigma_i(z)|^2 (w = n / f: 2 for the complex pairs of
    a CM field, 1 for the real roots of a totally real one) is at most
    R = w sum_i r_i^2 on the polydisc.  With
    center = a V on the basis V, z D = x V with x = c + a, so every
    solution has x Gram x^T <= R D^2 for the integer Gram matrix V G V^T
    (Fincke and Pohst, Math. Comp. 44, 1985; Cohen, GTM 138, Alg. 2.7.5).
    Fraction-free Gauss-Jordan gives Gram^-1 = H / g and a = A / q, and
    with u_j = isqrt(floor(q^2 R D^2 H_jj / g)) every solution has
    -((u_j + A_j) // q) <= c_j <= (u_j - A_j) // q, so |c_j| <= bounds_j.
    The integral Gram-Schmidt data (lam, d) of the reversed Gram write
    Gram = U Delta U^T, U unit upper triangular, so x Gram x^T = sum_k
    Delta_k y_k^2 with y = x U, and sum_(i<=k) Delta_i y_i^2 is the least
    value over the completions of x_0..x_k.  With l_kj = lam[n-1-j][n-1-k],
    Delta_k y_k^2 = Y_k^2 / (d_(n-k) d_(n-1-k)) for the integer Y_k =
    sum_(j<=k) l_kj (q c_j + A_j) = steps_k c_k + start_k + sum_(j<k)
    cols[j][k] c_j, so over the lcm T of those denominators c_0..c_k has a
    completion exactly when sum_(i<=k) weights_i Y_i^2 <= floor(T R D^2 q^2) = top."""
    n = len(basis)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    R = n // cm.f * sum(radii_sq)
    gram = linalg.congruent(basis, trace_form(cm))
    g, H = linalg.gauss_jordan([row + e for row, e in zip(gram, eye)])
    q, A = 1, [0] * n
    if center is not None:
        q, X = linalg.gauss_jordan([list(v) + e for v, e in zip(basis, eye)])
        A = [sum(map(mul, center, col)) for col in zip(*X)]
    if q < 0:
        q, A = -q, [-a for a in A]
    scale = q * q * denom * denom * R.numerator
    bounds = []
    for j, a in enumerate(A):
        u = math.isqrt(scale * H[j][j] // (g * R.denominator))
        lo, hi = -((u + a) // q), (u - a) // q
        if lo > hi:
            return None
        bounds.append(max(-lo, hi))
    lam, d, _ = linalg.integral_gso([row[::-1] for row in gram[::-1]])
    ell = [[lam[n - 1 - j][n - 1 - k] for j in range(n)] for k in range(n)]
    dens = [d[n - k] * d[n - 1 - k] for k in range(n)]
    T = math.lcm(*dens)
    return (bounds, [T // e for e in dens], [q * ell[k][k] for k in range(n)],
            [[q * ell[i][j] if i > j else 0 for i in range(n)] for j in range(n)],
            [sum(map(mul, row, A)) for row in ell], scale * T // R.denominator)


def lattice_points_in_polydisc(basis: Sequence[Sequence[int]], denom: int,
                               cm: CMStructure, radii_sq: Sequence[Fraction],
                               center: Optional[Sequence[int]] = None,
                               limit: Optional[int] = None):
    """The points z = (center + sum_j c_j basis_j) / denom, c integer, with
    |sigma_i(z)|^2 <= radii_sq[i] for all i, as a tuple of their coordinate
    rows over the integral basis (n-tuples of ints), all over denom.

    basis is n independent rows of n Python ints, the lattice's basis over
    the integral basis times denom, and center (optional) one such row.
    sigma_i is the embedding at root cm.pair_reps[i] and |.|^2 is decided
    through abs_sq(z, cm).  The polydisc is closed; boundary points are included;
    a negative radius gives no points.  Deterministic order (lexicographic
    in the integer coefficients c on the LLL-reduced basis).  Raises
    WindowTooLarge as soon as the search's work, the prefixes the walk
    tries plus the points it finds, passes limit.
    """
    field = cm.field
    n = field.n
    reps = cm.pair_reps
    # the float columns of each embedding: re and im at a complex pair,
    # re alone at a real root (where im is exactly 0)
    width = n // cm.f
    cols = [range(i * width, i * width + width) for i in range(cm.f)]
    radii_sq = [Fraction(r) for r in radii_sq]
    if any(r < 0 for r in radii_sq):
        return ()
    basis = _lll_reduce_basis(basis, cm)
    if center is not None and not any(center):
        center = None
    levels = _levels(basis, denom, cm, radii_sq, center)
    if levels is None:
        return ()
    bounds, weights, steps, level_cols, start, top = levels
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
        for idx in reps:
            re, im, err = field.float_image(z, idx)
            mids += (re, im)[:width]
            errs += [err] * width
        return mids, errs

    try:
        mids, errs = zip(*map(columns, basis))
        base, base_err = ([0.0] * n, [0.0] * n) if center is None else columns(center)
        last = _margins(bounds, mids, errs, base, base_err)
        # the slack absorbs the rounding of float(r^2) and of the bound sums,
        # so a float comparison can prune or accept but never decide the band
        hi = [float(r) * (1 + _SLACK) for r in radii_sq]
        lo = [float(r) * (1 - _SLACK) for r in radii_sq]
    except OverflowError:
        raise PrecisionExhausted("basis, centre or radii beyond float range") from None

    one = field.one()
    # the last coordinate: float columns, integer row and bound
    x, v, M = mids[-1], basis[-1], bounds[-1]

    def leaf(P, row, c):
        """Whether the last coefficient c puts the point inside: the accept
        test at P + c x, then sign_at on the embeddings in the band."""
        undecided = []
        for i, ts in enumerate(cols):
            s_in = 0.0
            for t in ts:
                d = abs(P[t] + c * x[t]) + last[t]
                s_in = s_in + d * d
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

    def chord(P, first, final):
        """The integers c in [first, final] on the line-disc chords of the
        float values, as (first, last), of discs grown by the margins and
        by the rounding of P + c x.  They hold every c inside the
        polydisc: |P_t(c) - P_t - c x_t| <= 2^-52 (|P_t| + 2 M |x_t|), and
        c0 and dist are good to far better than 2^-40 (|P| + M |x|)."""
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

    def fibre(P, row, first, final):
        """Every last coefficient c in [first, final] with its point inside,
        in ascending order.  The points inside form an interval of c, since
        |sigma_i|^2 is convex in c, and the chord holds it: a scan upward
        from the chord's low end stops at the first c inside, a scan
        downward from its high end at the last, and every c between them
        is inside."""
        first, final = chord(P, first, final)
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

    def walk(k, row, P, S, rem):
        """The points of the prefix: its row, float sums, partial Y of _levels, top left."""
        e, s, K = steps[k], S[k], weights[k]
        u = math.isqrt(rem // K)
        lo, hi = -((u + s) // e), (u - s) // e
        if k + 1 == n:
            fibre(P, row, lo, hi)
            return
        m, w, t = mids[k], basis[k], level_cols[k]
        spend(hi - lo + 1)
        for c in range(lo, hi + 1):
            walk(k + 1, [a + c * b for a, b in zip(row, w)], [p + c * y for p, y in zip(P, m)],
                 [a + c * b for a, b in zip(S, t)], rem - K * (e * c + s) ** 2)

    walk(0, [0] * n if center is None else list(center), base, start, top)
    return tuple(points)


def _margins(bounds, mids, errs, base, base_err) -> List[float]:
    """float_sum_error's bound on |x_t - P_t| for every point, x_t the exact
    column t of center + sum c_j v_j and P_t its float sum, |c_j| <= M_j."""
    return [float_sum_error(bounds, m, err, b, be)
            for m, err, b, be in zip(zip(*mids), zip(*errs), base, base_err)]


def _lll_reduce_basis(basis: Sequence[Sequence[int]], cm: CMStructure) -> List[List[int]]:
    """The rows U @ basis, U the integer transform of exact LLL on the T2
    Gram matrix of the basis rows; a common denominator of the rows scales
    the Gram matrix, which LLL ignores."""
    U = linalg.lll_transform(linalg.congruent(basis, trace_form(cm)))
    return [[sum(u * v[k] for u, v in zip(row, basis)) for k in range(len(basis))]
            for row in U]

