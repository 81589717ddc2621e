"""Conversions between field elements and the integer coordinate rows
(rows, denom) that udfield's point sets use: a tuple of int tuples over
one denominator."""

from udfield.linalg import stack_rows
from udfield.numberfield import FieldElement


def rows_of(K, points):
    """(rows, denom) of a sequence of elements of K."""
    return stack_rows([(z.num, z.den) for z in points], K.n)


def elements_of(K, rows, denom):
    """The elements rows / denom of K, one per row."""
    return [FieldElement(K, row, denom) for row in rows]
