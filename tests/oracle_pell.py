"""The brute-force Pell search as it stood before the continued-fraction
expansion replaced it, kept verbatim as a differential-test oracle.

It tries y = 1, 2, ... below 10^7, so it does not finish for d whose
fundamental unit needs a larger y (151, 166 and 199 among d < 200).
"""

from __future__ import annotations

import math
from typing import Tuple


def _pell_fundamental(d: int) -> Tuple[int, int, bool]:
    """Smallest unit > 1 of Q(sqrt(d)) as (x, y, half_integer_flag)."""
    if d % 4 == 1:
        # x^2 - d y^2 = +-4 with x = y mod 2; smaller x first at each y
        y = 1
        while y < 10_000_000:
            for target in (-4, 4):
                x2 = d * y * y + target
                if x2 > 0:
                    x = math.isqrt(x2)
                    if x * x == x2 and (x - y) % 2 == 0:
                        return x, y, True
            y += 1
    else:
        y = 1
        while y < 10_000_000:
            for target in (-1, 1):
                x2 = d * y * y + target
                if x2 > 0:
                    x = math.isqrt(x2)
                    if x * x == x2:
                        return x, y, False
            y += 1
    raise ValueError(f"no fundamental unit found for d={d} within bounds")
