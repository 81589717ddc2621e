"""Certified isolation of the complex roots of squarefree integer polynomials.

Strategy: take Aberth-Ehrlich approximations as seeds (fixed-point
Gaussian integers from deterministic starting points), then certify
with the classical inclusion bound
    min_i |z0 - r_i|  <=  deg(p) * |p(z0) / p'(z0)|,
evaluated exactly on integers: p(z0) and p'(z0) by Horner at the seed,
the square roots by math.isqrt, rounded outward.  With one disk per seed
and all disks pairwise disjoint, each disk contains exactly one root.
Conjugate pairing and realness are decided from disk geometry, never from
signs of floating-point noise; the seeds only steer the certificate.  The
boxes are intervals.Box, on integer ends over 2^-(bits + 32).
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Sequence, Tuple

from .errors import PrecisionExhausted
from .intervals import Box
from .polynomials import check_squarefree, degree, derivative, eval_at

_MAX_BITS = 1 << 16


class RootBox(NamedTuple):
    """One isolated root: a box certified to contain exactly it, the index
    of its complex conjugate in the full list, and whether it is real."""

    box: Box
    conj_index: int
    is_real: bool


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


def _seed_roots(p: Sequence, bits: int) -> List[Tuple[int, int]]:
    """(re, im) 2^(bits + 32) approximations of all roots of p by Aberth-Ehrlich
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
    return z


def _isqrt(a: int, shift: int, up: bool) -> int:
    """sqrt(a 2^shift) rounded up or down to an integer, for a >= 0."""
    if shift >= 0:
        a <<= shift
    else:
        a = -(-a >> -shift) if up else a >> -shift
    r = math.isqrt(a)
    return r + 1 if up and r * r < a else r


def _certify(p: Sequence, seeds, bits: int):
    """(x, y, r) disks over 2^(bits + 32) around the seeds, the radius
    n |p(z)| / |p'(z)| rounded up at 2^-(bits + 8), or None when a disk
    cannot be certified or two disks meet."""
    n = degree(p)
    dp = derivative(p)
    E, B = bits + _SEED_BITS, bits + 8
    disks = []
    for x, y in seeds:
        pt = Box(E, x, x, y, y)
        val, dval = eval_at(p, pt), eval_at(dp, pt)   # exact: p is integral
        den = _isqrt(dval.re_lo ** 2 + dval.im_lo ** 2, 2 * (B - dval.e), False)
        if not den:
            return None
        num = _isqrt(val.re_lo ** 2 + val.im_lo ** 2, 2 * (B - val.e), True)
        disks.append((x, y, -((-n * num << B) // den) << (E - B)))
    for i, (x, y, r) in enumerate(disks):
        for u, v, s in disks[i + 1:]:
            if (x - u) ** 2 + (y - v) ** 2 <= (r + s) ** 2:
                return None
    return disks


def _pair_disks(disks):
    """Conjugate partner of each disk; None if ambiguous at this precision."""
    partners = []
    for x, y, r in disks:
        # the disks that meet the conjugate of this one
        hits = [j for j, (u, v, s) in enumerate(disks)
                if (x - u) ** 2 + (y + v) ** 2 <= (r + s) ** 2]
        if len(hits) != 1:
            return None
        partners.append(hits[0])
    if any(partners[partners[i]] != i for i in range(len(partners))):
        return None
    return partners


def isolate_complex_roots(p: Sequence, precision_bits: int) -> List[RootBox]:
    """Disjoint boxes around all roots of squarefree p, width <= 2^-precision_bits.

    Complex-conjugate roots are identified and paired; a root is flagged
    real exactly when it equals its own conjugate.  p is tested for
    squarefreeness first (NonSquarefree).
    """
    check_squarefree(p)
    return _isolate(p, precision_bits)


def _isolate(p: Sequence, precision_bits: int) -> List[RootBox]:
    """isolate_complex_roots for a p already known to be squarefree."""
    n = degree(p)
    if n == 0:
        return []
    bits = max(64, precision_bits + 16)
    while True:
        disks = _certify(p, _seed_roots(p, bits), bits)
        E = bits + _SEED_BITS
        if disks is not None and all(r << (precision_bits + 1) <= 1 << E for _, _, r in disks):
            partners = _pair_disks(disks)
            if partners is not None:
                break
        if bits >= _MAX_BITS:
            raise PrecisionExhausted(f"root isolation stuck at {bits} bits")
        bits *= 2

    # a root fixed by conjugation is real; canonical order: by (re, im)
    # midpoint, partners remapped
    boxes = [Box(E, x - r, x + r, 0, 0) if partners[i] == i else Box(E, x - r, x + r, y - r, y + r)
             for i, (x, y, r) in enumerate(disks)]
    order = sorted(range(n), key=lambda i: (boxes[i].re_lo + boxes[i].re_hi,
                                            boxes[i].im_lo + boxes[i].im_hi))
    rank = {old: new for new, old in enumerate(order)}
    return [RootBox(boxes[i], rank[partners[i]], partners[i] == i) for i in order]


def refine_roots(p: Sequence, boxes: List[RootBox], precision_bits: int) -> List[RootBox]:
    """Re-isolate at higher precision, preserving the identity of each root."""
    fresh = _isolate(p, precision_bits)
    matched: List[RootBox] = []
    for old in boxes:
        hits = [nb for nb in fresh if nb.box.intersects(old.box)]
        if len(hits) != 1:
            raise PrecisionExhausted("could not match refined roots to old boxes")
        matched.append(hits[0])
    return matched
