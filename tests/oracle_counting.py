"""The exact pair search as it stood before it shared the cell hash of the
float counter, kept verbatim as a differential-test oracle (only the imports
are made absolute).

It embeds every point at 40 bits itself and prunes with dense n x n numpy
blocks of 4096 x 4096, so it returns pairs in (i, j) order for n <= 4096.
"""

from __future__ import annotations

from typing import List, Tuple

from udfield.numberfield import CMStructure, abs_sq


def unit_pair_indices(points, cm: CMStructure) -> List[Tuple[int, int]]:
    """Index pairs (i < j) with |x_i - x_j| = 1, decided symbolically.

    A low-precision coordinate key prunes pairs: the squared float distance
    carries a rigorous error bound, so pruning cannot drop a true pair, and
    every surviving pair is decided by abs_sq(x - y) == 1 exactly.
    """
    import numpy as np

    pts = list(getattr(points, "exact_points", points))
    field = cm.field
    one = field.one()
    rep = cm.pair_reps[0]
    boxes = [z.embed(rep, 40) for z in pts]
    n = len(pts)
    if n < 2:
        return []
    xs = np.array([float(b.re.midpoint()) for b in boxes])
    ys = np.array([float(b.im.midpoint()) for b in boxes])
    # |fl(d^2) - d^2| <= ~8u M^2 per IEEE754 plus the 2^-40 box widths;
    # inflate generously, the margin only affects pruning efficiency
    m = float(max(np.max(np.abs(xs)), np.max(np.abs(ys)), 1.0))
    margin = 1e-6 + 64.0 * m * m * 2.0 ** -40
    out = []
    block = 4096
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        for j0 in range(i0, n, block):
            j1 = min(j0 + block, n)
            dx = xs[i0:i1, None] - xs[None, j0:j1]
            dy = ys[i0:i1, None] - ys[None, j0:j1]
            close = np.abs(dx * dx + dy * dy - 1.0) <= margin
            if i0 == j0:
                close = np.triu(close, k=1)
            for ii, jj in zip(*np.nonzero(close)):
                i, j = i0 + int(ii), j0 + int(jj)
                d = boxes[i] - boxes[j]
                m2 = d.abs_sq()
                if m2.hi < 1 or m2.lo > 1:
                    continue
                if abs_sq(pts[i] - pts[j], cm) == one:
                    out.append((i, j))
    return out
