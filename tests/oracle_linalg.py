"""The exact LLL as it stood before the Gram matrix of the current basis
was computed once per Gram-Schmidt pass, kept verbatim as a
differential-test oracle.

It rebuilds each entry of U G U^T from scratch (O(n^2) per entry, n^2
entries per pass) and redoes the Gram-Schmidt pass after every size
reduction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from udfield.linalg import Matrix


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
