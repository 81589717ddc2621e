"""FracIdeal.__mul__ as it stood before ideal products went through the
integer structure constants, and FracIdeal.inverse with the
linalg.lattice_intersect it used before the inverse became one integer
HNF, kept verbatim as differential-test oracles.

`mul` multiplies every pair of HNF basis elements as field elements and
clears the common denominator of all the products (the basis elements
are built inline: FracIdeal.basis_elements has no other user and went).  `inverse` intersects
the lattices M(h)^-1 of the HNF rows h, by duality in Fraction matrices;
its multiplication matrix is the Fraction one of oracle_fieldelement.
`rational_hnf` and `transpose` are copied from `udfield.linalg`, where they
no longer exist, and the Fraction matrix helpers come from `oracle_linalg`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from oracle_fieldelement import OracleField
from oracle_linalg import Matrix, mat, mat_inv
from udfield.errors import ZeroIdeal
from udfield.ideals import FracIdeal
from udfield.linalg import hnf_rows
from udfield.numberfield import FieldElement


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def rational_hnf(rows: Sequence[Sequence[Fraction]]):
    """HNF of a rational-row lattice: returns (integer_hnf, denominator)."""
    den = math.lcm(1, *(Fraction(c).denominator for r in rows for c in r))
    h = hnf_rows([[int(Fraction(c) * den) for c in r] for r in rows])
    # normalize gcd between entries and denominator
    g = math.gcd(den, *(c for r in h for c in r))
    if g > 1:
        h = tuple(tuple(c // g for c in r) for r in h)
        den //= g
    return h, den


def mul(self: FracIdeal, other: FracIdeal) -> FracIdeal:
    if self.field is not other.field:
        raise ValueError("ideals from different fields")
    a = [FieldElement(self.field, row, self.den) for row in self.hnf]
    b = [FieldElement(other.field, row, other.den) for row in other.hnf]
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


def inverse(self: FracIdeal) -> FracIdeal:
    field = self.field
    inter = None
    for row in self.hnf:   # the basis of the integral ideal J = den * self
        rows = mat_inv(OracleField(field)._mult_matrix(row))
        inter = rows if inter is None else lattice_intersect(inter, rows)
    h, d = rational_hnf(inter)
    # self = J / den, so self^{-1} = J^{-1} * den
    inv = self._normalize(field, [[c * self.den for c in row] for row in h], d)
    check = inv * self
    if check != FracIdeal.unit_ideal(field):
        raise ZeroIdeal("ideal is not invertible over this order")
    return inv


def lattice_intersect(rows_a: Sequence[Sequence[Fraction]],
                      rows_b: Sequence[Sequence[Fraction]]):
    """Intersection of two full-rank rational lattices (rows = bases).

    Uses duality: (A cap B) = (A* + B*)* with duals w.r.t. the standard
    inner product.
    """
    A = mat(rows_a)
    B = mat(rows_b)
    Ad = transpose(mat_inv(A))
    Bd = transpose(mat_inv(B))
    h, den = rational_hnf(list(Ad) + list(Bd))
    S = mat([[Fraction(c, den) for c in row] for row in h])
    inter = transpose(mat_inv(S))
    return inter
