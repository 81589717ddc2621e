"""Exact linear algebra on Python integers: fraction-free determinants and
inverses, integer Hermite normal form, integral LLL, and the integer
coordinate rows over one denominator that point sets use.

Matrices are sequences of integer rows.  Everything here is desk scale
(dimension <= 32), so classical fraction-free algorithms are used:
fraction-free Gauss-Jordan gives an inverse as an integer matrix over one
denominator, LLL keeps integer Gram-Schmidt data, and the HNF clears each
column by extended-gcd steps.
"""

from __future__ import annotations

from math import gcd, inf, lcm
from operator import mul
from typing import List, Sequence, Tuple


def vec_mat(v: Sequence[int], a) -> Tuple[int, ...]:
    return tuple(sum(map(mul, v, col)) for col in zip(*a))


def mat_det(a: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss
    elimination (Cohen, GTM 138, Alg. 2.2.6): every division is exact."""
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        p, row_k = m[k][k], m[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * row_k[j]) // prev
        prev = p
    return sign * m[-1][-1] if n else 1


def gauss_jordan(rows: Sequence[Sequence[int]]):
    """(d, X) for the integer rows [A | B], A square: fraction-free
    Gauss-Jordan elimination (Bareiss) takes A to d I with d = +-det A and
    B to X = d A^-1 B; every division is exact, so X is an integer
    matrix.  d is 0 (and X None) when A is singular."""
    m = [list(r) for r in rows]
    n, prev = len(m), 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0, None
        m[k], m[pivot] = m[pivot], m[k]
        p, row_k = m[k][k], m[k]
        for i, row in enumerate(m):
            if i != k:
                f = row[k]
                m[i] = [(a * p - f * b) // prev for a, b in zip(row, row_k)]
        prev = p
    return prev, [row[n:] for row in m]


# ---------------------------------------------------------------------------
# Integer lattices (row convention: rows of the matrix generate the lattice)
# ---------------------------------------------------------------------------

def hnf_rows(rows: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Canonical row Hermite normal form of the lattice spanned by `rows`.

    Output rows are sorted by pivot column; pivots positive; entries above
    each pivot reduced to [0, pivot).  Zero rows are dropped, so equal
    lattices give equal tuples.  Column by column, the row with the
    smallest nonzero entry leads, and every other row meets it once: one
    subtraction when the lead entry divides the row's, else the
    unimodular 2 x 2 step of their extended gcd, which clears the row's
    entry."""
    remaining = [list(map(int, r)) for r in rows if any(r)]
    result: List[List[int]] = []
    for col in range(len(remaining[0]) if remaining else 0):
        remaining.sort(key=lambda r: abs(r[col]) or inf)
        piv, rest = None, []
        for r in remaining:
            b = r[col]
            if b and piv is None:
                piv = r
                continue
            if b and b % piv[col] == 0:
                r = [x - b // piv[col] * y for x, y in zip(r, piv)]
            elif b:
                # g = u a + v b, as v b = 1 modulo a / g (which does not divide b / g)
                g = gcd(piv[col], b)
                a, b = piv[col] // g, b // g
                v = pow(b, -1, a)
                u = (1 - v * b) // a
                piv, r = ([u * x + v * y for x, y in zip(piv, r)],
                          [b * x - a * y for x, y in zip(piv, r)])
            if any(r):
                rest.append(r)
        remaining = rest
        if piv is not None:
            result.append(piv if piv[col] > 0 else [-c for c in piv])
    # reduce entries above each pivot into [0, pivot); ascending pivot order
    # so a later subtraction cannot disturb an already-reduced column
    pivot_cols = [_pivot_col(r) for r in result]
    for j in range(len(result)):
        for i in range(j + 1, len(result)):
            q = result[j][pivot_cols[i]] // result[i][pivot_cols[i]]
            if q:
                result[j] = [a - q * b for a, b in zip(result[j], result[i])]
    return tuple(tuple(r) for r in result)


def _pivot_col(row) -> int:
    return next(i for i, c in enumerate(row) if c)


def hnf_det(hnf: Sequence[Sequence[int]]) -> int:
    """Product of pivots of a full-rank HNF (the lattice index in Z^n)."""
    det = 1
    for row in hnf:
        det *= row[_pivot_col(row)]
    return det


def congruent(B: Sequence[Sequence[int]], G: Sequence[Sequence[int]]) -> List[List[int]]:
    """The integer matrix B G B^T."""
    BG = [[sum(map(mul, row, col)) for col in zip(*G)] for row in B]
    return [[sum(map(mul, r, b)) for b in B] for r in BG]


def integral_gso(gram: Sequence[Sequence[int]]):
    """(lam, d, zero): the integral Gram-Schmidt data of a PSD integer Gram
    matrix (Cohen, GTM 138, Alg. 2.6.7).  With B_j = |b*_j|^2, zero[j]
    says whether B_j = 0, d[i] is the product of the nonzero B_j (j < i),
    lam[i][j] = d[j+1] mu_ij for j < i (0 when B_j = 0) and lam[i][i] =
    d[i+1] (0 when B_i = 0); every division is exact."""
    n = len(gram)
    lam, d, zero = [[0] * n for _ in range(n)], [1] * (n + 1), [False] * n
    for i in range(n):
        for j in range(i + 1):
            if j == i or not zero[j]:
                u = gram[i][j]
                for t in range(j):
                    if not zero[t]:
                        u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
                lam[i][j] = u
        zero[i], d[i + 1] = lam[i][i] == 0, lam[i][i] or d[i]
    return lam, d, zero


def lll_transform(gram: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Integral LLL (Cohen, GTM 138, Alg. 2.6.7; de Weger 1987) with
    delta = 3/4 on a PSD integer Gram matrix; returns the unimodular row
    transform U, the reduced basis being U @ (old basis).

    It keeps integral_gso's data (lam, d, zero) of U G U^T.  Row k is
    size-reduced (mu rounded half up) before the Lovasz test B_k >= (3/4 -
    mu^2) B_(k-1), an integer inequality; a swap updates lam and d by
    SWAPI, or when B_k = 0 recomputes them.  Each decision is the one
    exact rational mu and B would take, so U is too."""
    n = len(gram)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    lam, d, zero = integral_gso(gram)
    k, steps = 1, 0
    while k < n and steps < 10000:
        steps += 1
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            r = 0 if zero[j] else (2 * lam[k][j] + dj) // (2 * dj)  # round
            if r:
                U[k] = [x - r * y for x, y in zip(U[k], U[j])]
                lam[k][j] -= r * dj
                for t in range(j):
                    lam[k][t] -= r * lam[j][t]
        m = lam[k][k - 1]
        # B_k d_k d_(k-1) is d_(k+1) d_(k-1), or 0 when B_k = 0
        if zero[k - 1] or 4 * (0 if zero[k] else d[k + 1]) * d[k - 1] >= 3 * d[k] ** 2 - 4 * m * m:
            k += 1
            continue
        U[k], U[k - 1] = U[k - 1], U[k]
        if zero[k]:
            lam, d, zero = integral_gso(congruent(U, gram))
        else:
            B = (d[k - 1] * d[k + 1] + m * m) // d[k]
            lam[k - 1][:k - 1], lam[k][:k - 1] = lam[k][:k - 1], lam[k - 1][:k - 1]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (B * t + m * lam[i][k]) // d[k + 1]
            d[k] = B
        k = max(k - 1, 1)
    return tuple(tuple(r) for r in U)


# ---------------------------------------------------------------------------
# Integer coordinate rows: points over one denominator
# ---------------------------------------------------------------------------

def stack_rows(rows, n: int):
    """(rows, denom): the rationals c / d, for every pair (num, d) of an
    integer sequence and a positive integer and every c in num, laid out in
    order as a tuple of n-tuples of Python ints over their least common
    denominator."""
    denom = lcm(1, *{d for _, d in rows})
    flat = [c * (denom // d) for num, d in rows for c in num]
    return tuple(zip(*[iter(flat)] * n)), denom
