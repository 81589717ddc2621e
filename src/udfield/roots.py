"""Certified isolation of the complex roots of squarefree integer polynomials.

Strategy: take Aberth-Ehrlich approximations as seeds (fixed-point
Gaussian integers from deterministic starting points), then certify
with the classical inclusion bound
    min_i |z0 - r_i|  <=  deg(p) * |p(z0) / p'(z0)|,
evaluated in exact interval arithmetic.  With one disk per seed and all
disks pairwise disjoint, each disk contains exactly one root.  Conjugate
pairing and realness are decided from disk geometry, never from signs of
floating-point noise; the seeds only steer the certificate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import PrecisionExhausted
from .intervals import (ComplexInterval, RealInterval, round_up, sqrt_lower,
                        sqrt_upper)
from .polynomials import check_squarefree, degree, derivative, eval_at

_MAX_BITS = 1 << 16


class RootBox:
    """One isolated root: a rectangle certified to contain exactly it."""

    __slots__ = ("box", "conj_index", "is_real")

    def __init__(self, box: ComplexInterval, conj_index: int, is_real: bool):
        # conj_index: the index of the complex-conjugate root in the full list
        self.box, self.conj_index, self.is_real = box, conj_index, is_real

    @property
    def re(self) -> RealInterval:
        return self.box.re

    @property
    def im(self) -> RealInterval:
        return self.box.im


_STEPS = 200     # Aberth iteration cap
_SEED_BITS = 32  # seeds are rounded to 2^-(bits + 32)


def _start_points(p: Sequence):
    """Deterministic Aberth starting points (Bini 1996, Numer. Algorithms 13):
    for each edge (k, k + m) of the upper convex hull of (k, log2|a_k|),
    m points on the circle of radius (|a_k| / |a_(k+m)|)^(1/m), spread in
    angle.  Each point is (unit complex, log2 of its modulus)."""
    n = degree(p)
    pts = [(k, math.log2(abs(c))) for k, c in enumerate(p) if c]
    hull = []
    for pt in pts:
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (pt[1] - hull[-2][1])
                                  >= (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])):
            hull.pop()
        hull.append(pt)
    circles = [(k1 - k0, (l0 - l1) / (k1 - k0))
               for (k0, l0), (k1, l1) in zip(hull, hull[1:])]
    if pts[0][0]:   # x divides p: its root 0 starts inside the smallest circle
        circles.insert(0, (pts[0][0], min((e for _, e in circles), default=0.0) - 1))
    out = []
    for t, (m, e) in enumerate(circles):
        for j in range(m):
            angle = 2 * math.pi * (j / m + t / n) + 0.7
            out.append((complex(math.cos(angle), math.sin(angle)), e))
    return out


def _to_fixed(x: float, scale: int) -> int:
    num, den = x.as_integer_ratio()
    return (num << scale) // den if scale >= 0 else num // (den << -scale)


def _seed_roots(p: Sequence, bits: int) -> List[Tuple[Fraction, Fraction]]:
    """Dyadic (re, im) approximations of all roots of p by Aberth-Ehrlich
    iteration (Aberth 1973, Math. Comp. 27) in fixed-point Gaussian integers
    at scale 2^F until every correction is below 2^-(bits + 8).  F is
    bits + 32, plus bits // 2 + 64 so that the rounding noise of a
    correction, 2^-F / |p'(z)|, stays below that bound for clustered
    roots, plus deg(p) bits per binade of the largest root, by which
    Horner's rounding grows.  The seeds are rounded to 2^-(bits + 32), and
    the seeds of a conjugate pair are made exact conjugates (those of a
    real root real), so roots that share a real part compare equal in the
    canonical order.  Raises PrecisionExhausted when the iteration does not
    converge within the step cap."""
    starts = _start_points(p)
    F = (bits + 32 + bits // 2 + 64
         + degree(p) * max(0, math.ceil(max(e for _, e in starts))))
    # the start point u 2^e at scale 2^F
    z = [(_to_fixed(u.real * 2.0 ** (e % 1), F + math.floor(e)),
          _to_fixed(u.imag * 2.0 ** (e % 1), F + math.floor(e))) for u, e in starts]
    c = [int(a) << F for a in reversed(p)]
    tol = 1 << (F - bits - 8)
    done = [False] * len(z)
    for _ in range(_STEPS):
        if all(done):
            break
        for i, (x, y) in enumerate(z):
            if done[i]:
                continue
            fr, fi, dr, di = c[0], 0, 0, 0
            for a in c[1:]:
                dr, di = ((dr * x - di * y) >> F) + fr, ((dr * y + di * x) >> F) + fi
                fr, fi = ((fr * x - fi * y) >> F) + a, (fr * y + fi * x) >> F
            # s = sum_j 1 / (z_i - z_j); a coincident z_j counts as one unit away
            sr = si = 0
            for j, (u, v) in enumerate(z):
                if j != i:
                    dx, dy = x - u, y - v
                    if not (dx or dy):
                        dx = 1
                    q = dx * dx + dy * dy
                    sr += (dx << 2 * F) // q
                    si -= (dy << 2 * F) // q
            # w = p / (p' - p s)
            er = dr - ((fr * sr - fi * si) >> F)
            ei = di - ((fr * si + fi * sr) >> F)
            q = er * er + ei * ei
            if not q:
                continue
            wr = ((fr * er + fi * ei) << F) // q
            wi = ((fi * er - fr * ei) << F) // q
            z[i] = (x - wr, y - wi)
            done[i] = abs(wr) < tol and abs(wi) < tol
    if not all(done):
        raise PrecisionExhausted(f"root seeding did not converge at {bits} bits")
    shift = F - bits - _SEED_BITS
    half = 1 << (shift - 1)
    z = [((x + half) >> shift, (y + half) >> shift) for x, y in z]
    # the seed nearest the conjugate of each seed: itself for a real root,
    # the partner of a conjugate pair
    mirror = [min(range(len(z)), key=lambda j: (z[j][0] - x) ** 2 + (z[j][1] + y) ** 2)
              for x, y in z]
    if all(mirror[j] == i for i, j in enumerate(mirror)):
        for i, (j, (x, y)) in enumerate(zip(mirror, z)):
            if i == j:
                z[i] = (x, 0)
            elif y > 0:
                z[j] = (x, -y)
    den = 1 << (bits + _SEED_BITS)
    return [(Fraction(x, den), Fraction(y, den)) for x, y in z]


def _certify(p: Sequence, seeds, bits: int):
    """Return list of (center_re, center_im, radius) disks or None on failure."""
    n = degree(p)
    dp = derivative(p)
    disks = []
    for cre, cim in seeds:
        pt = ComplexInterval.point(cre, cim)
        val = eval_at(p, pt)
        dval = eval_at(dp, pt)
        denom_lo = dval.abs_sq().lo
        if denom_lo <= 0:
            return None
        # radius = n * |p(z)| / |p'(z)|, rounded up
        num_hi = sqrt_upper(val.abs_sq().hi, bits + 8)
        den_lo_rt = sqrt_lower(denom_lo, bits + 8)
        if den_lo_rt == 0:
            return None
        radius = round_up(Fraction(n) * num_hi / den_lo_rt, bits + 8)
        disks.append((cre, cim, radius))
    # pairwise disjoint?
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            dx = disks[i][0] - disks[j][0]
            dy = disks[i][1] - disks[j][1]
            rsum = disks[i][2] + disks[j][2]
            if dx * dx + dy * dy <= rsum * rsum:
                return None
    return disks


def _pair_disks(disks):
    """Conjugate partner of each disk; None if ambiguous at this precision."""
    partners = []
    for i, (cre, cim, r) in enumerate(disks):
        hits = []
        for j, (dre, dim, s) in enumerate(disks):
            # does conj(disk i) intersect disk j?
            dx = cre - dre
            dy = -cim - dim
            if dx * dx + dy * dy <= (r + s) * (r + s):
                hits.append(j)
        if len(hits) != 1:
            return None
        partners.append(hits[0])
    if any(partners[partners[i]] != i for i in range(len(partners))):
        return None
    return partners


def isolate_complex_roots(p: Sequence, precision_bits: int) -> List[RootBox]:
    """Disjoint boxes around all roots of squarefree p, width <= 2^-precision_bits.

    Complex-conjugate roots are identified and paired; a root is flagged
    real exactly when it equals its own conjugate.
    """
    check_squarefree(p)
    n = degree(p)
    if n == 0:
        return []
    target = Fraction(1, 1 << precision_bits)
    bits = max(64, precision_bits + 16)
    while True:
        seeds = _seed_roots(p, bits)
        disks = _certify(p, seeds, bits)
        if disks is not None and all(2 * r <= target for _, _, r in disks):
            partners = _pair_disks(disks)
            if partners is not None:
                break
        if bits >= _MAX_BITS:
            raise PrecisionExhausted(f"root isolation stuck at {bits} bits")
        bits *= 2

    entries = []
    for i, (cre, cim, r) in enumerate(disks):
        if partners[i] == i:
            # the root is fixed by conjugation, hence real
            box = ComplexInterval(RealInterval(cre - r, cre + r),
                                  RealInterval(Fraction(0), Fraction(0)))
            entries.append((box, i, True))
        else:
            box = ComplexInterval(RealInterval(cre - r, cre + r),
                                  RealInterval(cim - r, cim + r))
            entries.append((box, partners[i], False))

    # canonical order: by (re midpoint, im midpoint); remap partners
    order = sorted(range(len(entries)),
                   key=lambda i: (entries[i][0].re.midpoint(), entries[i][0].im.midpoint()))
    rank = {old: new for new, old in enumerate(order)}
    out = []
    for old in order:
        box, partner, is_real = entries[old]
        out.append(RootBox(box=box, conj_index=rank[partner], is_real=is_real))
    return out


def refine_roots(p: Sequence, boxes: List[RootBox], precision_bits: int) -> List[RootBox]:
    """Re-isolate at higher precision, preserving the identity of each root."""
    fresh = isolate_complex_roots(p, precision_bits)
    matched: List[RootBox] = []
    for old in boxes:
        hits = [nb for nb in fresh if nb.box.intersects(old.box)]
        if len(hits) != 1:
            raise PrecisionExhausted("could not match refined roots to old boxes")
        matched.append(hits[0])
    return matched
