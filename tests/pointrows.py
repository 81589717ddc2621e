"""Conversions between field elements and the integer coordinate rows
(rows, denom) that udfield's point sets use."""

from fractions import Fraction

from udfield.enumeration import point_rows


def rows_of(K, points):
    """(rows, denom) of a sequence of elements of K."""
    return point_rows(list(points), K.n)


def elements_of(K, rows, denom):
    """The elements rows / denom of K, one per row."""
    return [K.element([Fraction(c, denom) for c in row]) for row in rows.tolist()]
