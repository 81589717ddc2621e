"""Field elements as they stood before they became one integer row over one
denominator, kept verbatim as a differential-test oracle: a tuple of
Fraction coordinates, with products through `_mul_coords`, the Fraction
multiplication matrix and a Gaussian-elimination determinant.

`OracleField` carries the old coordinate arithmetic over a udfield
NumberField (its structure constants, basis traces and integral basis);
`conj` and `abs_sq` are the old CMStructure.conj and abs_sq.  The only
edits are that `_norm_coords` calls this module's `mat_det`, that the
field's one() is the first row of the inverse basis matrix (the
coordinates of 1), that `embed` reads the field's integer box through
`oracle_intervals.box_interval`, and that the field's integral basis,
its inverse and the conjugation matrix, now integer matrices over one
denominator, are read as the Fractions they stand for.  The Fraction
matrix helpers come from `oracle_linalg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from oracle_intervals import ComplexInterval, box_interval
from oracle_linalg import Matrix, mat_inv
from udfield.errors import DivisionByZero, NotAField


def vec_mat(v: Sequence[Fraction], a: Matrix) -> Tuple[Fraction, ...]:
    return tuple(sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0])))


def mat_det(a: Matrix) -> Fraction:
    n = len(a)
    m = [list(row) for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            f = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


class OracleField:
    """The old coordinate arithmetic of a udfield NumberField K."""

    def __init__(self, K):
        self.K = K
        self.n = K.n
        self.label = K.label
        self.mult_table = K.mult_table
        self.basis_traces = K.basis_traces
        self.basis_mat = tuple(tuple(Fraction(c, K.basis_den) for c in row)
                               for row in K.basis_mat)

    def one(self) -> "FieldElement":
        return FieldElement(self, tuple(Fraction(c, self.K.inv_basis_den)
                                        for c in self.K.inv_basis_mat[0]))

    def element(self, coords) -> "FieldElement":
        return FieldElement(self, tuple(Fraction(c) for c in coords))

    def embed(self, z, root_index: int, bits: int = 64) -> ComplexInterval:
        return box_interval(self.K.embed(z, root_index, bits))

    def _mul_coords(self, a: Sequence[Fraction], b: Sequence[Fraction]):
        n = self.n
        out = [Fraction(0)] * n
        table = self.mult_table
        for i in range(n):
            ai = a[i]
            if ai == 0:
                continue
            ti = table[i]
            for j in range(n):
                bj = b[j]
                if bj == 0:
                    continue
                c = ai * bj
                for k, t in enumerate(ti[j]):
                    if t:
                        out[k] += c * t
        return tuple(out)

    def _mult_matrix(self, coords: Sequence[Fraction]) -> Matrix:
        """Matrix of multiplication by z acting on row coordinate vectors."""
        rows = []
        n = self.n
        for i in range(n):
            unit = tuple(Fraction(1 if k == i else 0) for k in range(n))
            rows.append(self._mul_coords(unit, coords))
        return tuple(rows)

    def _trace_coords(self, coords: Sequence[Fraction]) -> Fraction:
        """Tr(z) = sum_k c_k Tr(b_k): the trace is linear."""
        return sum(c * t for c, t in zip(coords, self.basis_traces))

    def _norm_coords(self, coords: Sequence[Fraction]) -> Fraction:
        return mat_det(self._mult_matrix(coords))


@dataclass(frozen=True)
class FieldElement:
    """Exact element: coordinates over the owning field's integral basis."""

    field: OracleField
    coords: Tuple[Fraction, ...]

    def _check_same(self, other: "FieldElement"):
        if self.field is not other.field:
            raise ValueError("elements belong to different fields")

    def __add__(self, other):
        self._check_same(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check_same(other)
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FieldElement(self.field, tuple(a * q for a in self.coords))
        self._check_same(other)
        return FieldElement(self.field, self.field._mul_coords(self.coords, other.coords))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        m = self.field._mult_matrix(self.coords)
        try:
            inv = mat_inv(m)
        except ZeroDivisionError:
            raise NotAField(
                "zero divisor encountered: min_poly is reducible") from None
        one = self.field.one().coords
        return FieldElement(self.field, vec_mat(one, inv))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise DivisionByZero("division by zero")
            return self * (Fraction(1) / q)
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and self.field is other.field
                and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.field), self.coords))

    def power_coords(self) -> Tuple[Fraction, ...]:
        return vec_mat(self.coords, self.field.basis_mat)

    def trace(self) -> Fraction:
        return self.field._trace_coords(self.coords)

    def norm(self) -> Fraction:
        return self.field._norm_coords(self.coords)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def embed(self, root_index: int, bits: int = 64) -> ComplexInterval:
        return self.field.embed(self, root_index, bits)

    def sign_at(self, root_index: int) -> int:
        """Exact sign (-1, 0 or 1) of sigma_i(z), for z real at that root.

        Doubles the precision until the box leaves zero; a nonzero element
        embeds to a nonzero value, so this ends (or embed raises
        PrecisionExhausted at its cap)."""
        if self.is_zero():
            return 0
        bits = 64
        while True:
            box = self.embed(root_index, bits)
            if box.re.lo > 0:
                return 1
            if box.re.hi < 0:
                return -1
            bits *= 2

    def __repr__(self):
        return f"<{self.field.label}: [{', '.join(str(c) for c in self.coords)}]>"


def conj(z: FieldElement, cm) -> FieldElement:
    """CMStructure.conj: the conjugation matrix acting on the coordinates."""
    return FieldElement(z.field, tuple(c / cm.conj_den for c in vec_mat(z.coords, cm.conj_mat)))


def abs_sq(z: FieldElement, cm) -> FieldElement:
    """z * conj(z); lands in the totally real subfield."""
    return z * conj(z, cm)
