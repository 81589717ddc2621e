"""The choice of m in `counting.erdos_grid` as it stood before the single
bincount: a call of `_r2_in_grid` for every m <= 2 (s - 1)^2, kept
verbatim as a differential-test oracle."""

from __future__ import annotations

import math


def choose_m(s: int):
    """(m, r2_in_grid) for the s x s grid."""
    cap = 2 * (s - 1) * (s - 1)
    best_m, best_r2 = None, -1
    for m in range(1, cap + 1):
        r2 = _r2_in_grid(m, s - 1)
        if r2 > best_r2:
            best_m, best_r2 = m, r2
    return best_m, best_r2


def _r2_in_grid(m: int, amax: int) -> int:
    """Signed representations m = a^2 + b^2 with |a|, |b| <= amax."""
    count = 0
    for a in range(-amax, amax + 1):
        rest = m - a * a
        if rest < 0:
            continue
        b = math.isqrt(rest)
        if b * b == rest and b <= amax:
            count += 2 if b > 0 else 1
    return count
