"""Exact linear algebra: Fraction matrices and integer Hermite normal form.

Matrices are tuples of row tuples.  Everything here is desk scale
(dimension <= 32), so classical fraction-free or Gaussian algorithms are
used; no effort is made to be clever about coefficient growth.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import List, Sequence, Tuple

Matrix = Tuple[Tuple[Fraction, ...], ...]


def mat(rows) -> Matrix:
    return tuple(tuple(Fraction(c) for c in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def vec_mat(v: Sequence[Fraction], a: Matrix) -> Tuple[Fraction, ...]:
    return tuple(sum(map(mul, v, col)) for col in zip(*a))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


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
    n = len(a)
    m = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        m[col], m[pivot] = m[pivot], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [c * inv for c in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def kernel(a: Matrix) -> List[Tuple[Fraction, ...]]:
    """Basis of the right kernel {x : a x = 0} over Q."""
    if not a:
        return []
    rows = [list(r) for r in a]
    ncols = len(rows[0])
    pivots = {}
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
        if r == len(rows):
            break
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, pr in pivots.items():
            vec[pc] = -rows[pr][fc]
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# Integer lattices (row convention: rows of the matrix generate the lattice)
# ---------------------------------------------------------------------------

def hnf_rows(rows: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Canonical row Hermite normal form of the lattice spanned by `rows`.

    Output rows are sorted by pivot column; pivots positive; entries above
    each pivot reduced to [0, pivot).  Zero rows are dropped, so equal
    lattices give equal tuples.
    """
    remaining = [list(map(int, r)) for r in rows if any(r)]
    if not remaining:
        return ()
    ncols = len(remaining[0])
    result: List[List[int]] = []
    pivot_cols: List[int] = []
    for col in range(ncols):
        having = [r for r in remaining if r[col] != 0]
        remaining = [r for r in remaining if r[col] == 0]
        if not having:
            continue
        # Euclid on the col entries until a single row survives
        while len(having) > 1:
            having.sort(key=lambda r: abs(r[col]))
            head = having[0]
            new_having = [head]
            for r in having[1:]:
                q = r[col] // head[col]
                rr = [a - q * b for a, b in zip(r, head)]
                if rr[col] != 0:
                    new_having.append(rr)
                elif any(rr):
                    remaining.append(rr)
            having = new_having
        piv = having[0]
        if piv[col] < 0:
            piv = [-c for c in piv]
        result.append(piv)
        pivot_cols.append(col)
    # reduce entries above each pivot into [0, pivot); ascending pivot order
    # so a later subtraction cannot disturb an already-reduced column
    for j in range(len(result)):
        for i in range(j + 1, len(result)):
            pc = pivot_cols[i]
            q = result[j][pc] // result[i][pc]
            if q:
                result[j] = [a - q * b for a, b in zip(result[j], result[i])]
    return tuple(tuple(r) for r in result)


def _pivot_col(row) -> int:
    for i, c in enumerate(row):
        if c != 0:
            return i
    return len(row)


def hnf_det(hnf: Sequence[Sequence[int]]) -> int:
    """Product of pivots of a full-rank HNF (the lattice index in Z^n)."""
    det = 1
    for row in hnf:
        det *= row[_pivot_col(row)]
    return det


def rational_hnf(rows: Sequence[Sequence[Fraction]]):
    """HNF of a rational-row lattice: returns (integer_hnf, denominator)."""
    den = lcm(1, *(Fraction(c).denominator for r in rows for c in r))
    h = hnf_rows([[int(Fraction(c) * den) for c in r] for r in rows])
    # normalize gcd between entries and denominator
    g = gcd(den, *(c for r in h for c in r))
    if g > 1:
        h = tuple(tuple(c // g for c in r) for r in h)
        den //= g
    return h, den


def lll_transform(gram: Matrix, delta: Fraction = Fraction(3, 4)) -> Tuple[Tuple[int, ...], ...]:
    """LLL over an exact PSD Gram matrix; returns the unimodular row transform.

    The reduced basis is U @ (old basis).  Exact rational arithmetic
    throughout.  The Gram-Schmidt data (mu, B_j = |b*_j|^2) is computed
    once.  Size reduction of b_k by b_j leaves every b* alone and changes
    row k of mu by -r * (row j of mu, with mu_jj = 1), so that row is
    updated in place.  Row k is fully size-reduced before the Lovasz test.
    A swap of b_{k-1} and b_k updates mu and B by the SWAP step of Cohen,
    GTM 138, Alg. 2.6.3; when B_{k-1}, B_k or the new B_{k-1} is 0 (a
    singular Gram matrix) those formulas would divide by zero, so the
    data is recomputed from U G U^T instead, with mu_ij = 0 for B_j = 0.
    """
    n = len(gram)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def gso():
        UG = [[sum(u * g[l] for u, g in zip(row, gram) if u) for l in range(n)]
              for row in U]
        cur = [[sum(a * b for a, b in zip(UG[i], U[j])) for j in range(n)]
               for i in range(n)]
        mu = [[Fraction(0)] * n for _ in range(n)]
        bstar = [Fraction(0)] * n
        for i in range(n):
            bstar[i] = cur[i][i]
            for j in range(i):
                if bstar[j] == 0:
                    continue
                mu[i][j] = (cur[i][j] - sum(mu[i][t] * mu[j][t] * bstar[t]
                                            for t in range(j))) / bstar[j]
                bstar[i] -= mu[i][j] ** 2 * bstar[j]
        return mu, bstar

    mu, bstar = gso()
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10000:
            break
        for j in range(k - 1, -1, -1):
            q = mu[k][j]
            r = (q.numerator * 2 + q.denominator) // (2 * q.denominator)  # round
            if r:
                U[k] = [a - r * b for a, b in zip(U[k], U[j])]
                mu[k][j] -= r
                for t in range(j):
                    mu[k][t] -= r * mu[j][t]
        if bstar[k] >= (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            U[k], U[k - 1] = U[k - 1], U[k]
            m = mu[k][k - 1]
            B = bstar[k] + m * m * bstar[k - 1]
            if bstar[k - 1] == 0 or bstar[k] == 0 or B == 0:
                mu, bstar = gso()
            else:
                mu[k][k - 1] = m * bstar[k - 1] / B
                bstar[k] = bstar[k - 1] * bstar[k] / B
                bstar[k - 1] = B
                mu[k - 1][:k - 1], mu[k][:k - 1] = mu[k][:k - 1], mu[k - 1][:k - 1]
                for i in range(k + 1, n):
                    t = mu[i][k]
                    mu[i][k] = mu[i][k - 1] - m * t
                    mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
    return tuple(tuple(r) for r in U)
