"""Polynomial arithmetic over Q as it stood in Fractions, kept verbatim as
differential-test oracles for the fraction-free resultant.

`poly_divmod` (division with remainder over Q), `poly_gcd_q` (the monic
Euclidean gcd over Q) and `resultant` (the Euclidean pseudo-remainder
recursion) are copied from `udfield.polynomials`, where the resultant is
now the Bareiss determinant of the integer Sylvester matrix and the
squarefree test is res(p, p') != 0.  The only edit is the absolute import.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from udfield.polynomials import degree, make_poly


def poly_divmod(p: Sequence, q: Sequence):
    """Division with remainder over Q (exact Fractions)."""
    q = make_poly(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    dq = degree(q)
    lead = Fraction(q[-1])
    quot = [Fraction(0)] * max(len(p) - dq, 1)
    while len(rem) - 1 >= dq and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        shift = len(rem) - 1 - dq
        factor = rem[-1] / lead
        quot[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * Fraction(c)
        rem.pop()
    return make_poly(quot), make_poly(rem)


def poly_gcd_q(p: Sequence, q: Sequence):
    """Monic gcd over Q via the Euclidean algorithm."""
    a = tuple(Fraction(c) for c in p)
    b = tuple(Fraction(c) for c in q)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not a:
        return ()
    lead = a[-1]
    return tuple(c / lead for c in a)


def resultant(p: Sequence, q: Sequence) -> Fraction:
    """Resultant over Q by the Euclidean pseudo-remainder recursion."""
    a = make_poly([Fraction(c) for c in p])
    b = make_poly([Fraction(c) for c in q])
    if not a or not b:
        return Fraction(0)
    res = Fraction(1)
    while degree(b) > 0:
        _, r = poly_divmod(a, b)
        if not r:
            return Fraction(0)
        res *= Fraction(b[-1]) ** (degree(a) - degree(r))
        if (degree(a) * degree(b)) % 2 == 1:
            res = -res
        a, b = b, r
    res *= Fraction(b[0]) ** degree(a)
    return res
