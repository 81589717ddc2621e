"""Exact linear algebra as it stood in Fraction matrices, kept verbatim as
differential-test oracles.

`lll_transform` is the exact LLL as it stood before the Gram matrix of the
current basis was computed once per Gram-Schmidt pass.  It rebuilds each
entry of U G U^T from scratch (O(n^2) per entry, n^2 entries per pass) and
redoes the Gram-Schmidt pass after every size reduction.

`Matrix`, `mat`, `identity`, `mat_mul`, `mat_det` and `mat_inv` are the
Fraction matrix helpers of `udfield.linalg`, copied from it when the
field's own data became integer rows: the oracles that build Fraction
matrices take them from here.  `lll_transform_rational` is the clearing of
denominators that `udfield.linalg.lll_transform` did itself before it took
integer Gram matrices.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Tuple

from udfield import linalg

Matrix = Tuple[Tuple[Fraction, ...], ...]


def mat(rows) -> Matrix:
    return tuple(tuple(Fraction(c) for c in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_det(a) -> Fraction:
    """Determinant by fraction-free Bareiss elimination (Cohen, GTM 138,
    Alg. 2.2.6) on the rows cleared of their denominators: every division
    is exact, so integer entries never become fractions."""
    n = len(a)
    scale = 1
    m = []
    for row in a:
        d = lcm(1, *(c.denominator for c in row))
        scale *= d
        m.append([c.numerator * (d // c.denominator) for c in row])
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        p, row_k = m[k][k], m[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * row_k[j]) // prev
        prev = p
    return Fraction(sign * m[-1][-1] if n else 1, scale)


def mat_inv(a: Matrix) -> Matrix:
    """The inverse X / d of gauss_jordan on [S a | S], S the diagonal
    matrix that clears each row of a of its denominators."""
    n = len(a)
    scales = [lcm(1, *(Fraction(c).denominator for c in row)) for row in a]
    d, X = linalg.gauss_jordan([[int(c * s) for c in row] + [s * (i == j) for j in range(n)]
                                for i, (row, s) in enumerate(zip(a, scales))])
    if not d:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(Fraction(x, d) for x in row) for row in X)


def lll_transform_rational(gram: Matrix) -> Tuple[Tuple[int, ...], ...]:
    """udfield.linalg.lll_transform on a rational Gram matrix, cleared of
    its denominators."""
    L = lcm(1, *(c.denominator for row in gram for c in row))
    return linalg.lll_transform([[int(c * L) for c in row] for row in gram])


def lll_transform(gram: Matrix, delta: Fraction = Fraction(3, 4)) -> Tuple[Tuple[int, ...], ...]:
    """LLL over an exact PSD Gram matrix; returns the unimodular row transform.

    The reduced basis is U @ (old basis).  Exact rational arithmetic
    throughout; dimensions here are tiny so the GSO is recomputed per sweep.
    """
    n = len(gram)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def cur(i, j):
        return sum(U[i][k] * gram[k][l] * U[j][l] for k in range(n) for l in range(n))

    def gso():
        mu = [[Fraction(0)] * n for _ in range(n)]
        bstar = [Fraction(0)] * n
        for i in range(n):
            bstar[i] = cur(i, i)
            for j in range(i):
                if bstar[j] == 0:
                    continue
                mu[i][j] = (cur(i, j) - sum(mu[i][t] * mu[j][t] * bstar[t]
                                            for t in range(j))) / bstar[j]
                bstar[i] -= mu[i][j] ** 2 * bstar[j]
        return mu, bstar

    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10000:
            break
        mu, bstar = gso()
        for j in range(k - 1, -1, -1):
            q = mu[k][j]
            r = (q.numerator * 2 + q.denominator) // (2 * q.denominator)  # round
            if r:
                U[k] = [a - r * b for a, b in zip(U[k], U[j])]
                mu, bstar = gso()
        if bstar[k] >= (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            U[k], U[k - 1] = U[k - 1], U[k]
            k = max(k - 1, 1)
    return tuple(tuple(r) for r in U)
