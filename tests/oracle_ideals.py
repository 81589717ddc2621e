"""FracIdeal.__mul__ as it stood before ideal products went through the
integer structure constants, kept verbatim as a differential-test oracle.

It multiplies every pair of HNF basis elements as Fraction field elements
and clears the common denominator of all the products.
"""

from __future__ import annotations

import math

from udfield.ideals import FracIdeal


def mul(self: FracIdeal, other: FracIdeal) -> FracIdeal:
    if self.field is not other.field:
        raise ValueError("ideals from different fields")
    a = self.basis_elements()
    b = other.basis_elements()
    rows = []
    den = 1
    prods = []
    for x in a:
        for y in b:
            prods.append((x * y).coords)
    for coords in prods:
        for c in coords:
            den = den * c.denominator // math.gcd(den, c.denominator)
    for coords in prods:
        rows.append([int(c * den) for c in coords])
    return self._normalize(self.field, rows, den)
