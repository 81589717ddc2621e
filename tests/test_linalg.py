import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_linalg
from udfield import linalg
from udfield.construct import pigeonhole_units
from udfield.ideals import split_prime
from udfield.linalg import (hnf_det, hnf_rows, identity, lattice_intersect,
                            lll_transform, mat, mat_det, mat_inv, mat_mul,
                            rational_hnf)
from udfield.numberfield import compositum_multiquadratic, detect_cm


def test_hnf_canonical_under_unimodular_changes():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.choice([2, 3, 4])
        m = rng.randrange(n, n + 4)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        h1 = hnf_rows(rows)
        if len(h1) != n:
            continue
        rows2 = [list(r) for r in rows]
        for _ in range(8):
            i, j = rng.randrange(m), rng.randrange(m)
            if i != j:
                c = rng.randrange(-3, 4)
                rows2[i] = [a + c * b for a, b in zip(rows2[i], rows2[j])]
        h2 = hnf_rows(rows2)
        if len(h2) == n:
            assert h1 == h2
        assert hnf_rows(h1) == h1  # idempotent
        # entries above each pivot are reduced into [0, pivot)
        for i, row in enumerate(h1):
            pc = next(k for k, c in enumerate(row) if c)
            for j in range(i):
                assert 0 <= h1[j][pc] < row[pc]


def test_hnf_det_vs_exact_det():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.choice([2, 3])
        rows = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        d = mat_det(mat(rows))
        if d == 0:
            continue
        assert hnf_det(hnf_rows(rows)) == abs(d)


def test_mat_inverse():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        rows = [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                 for _ in range(n)] for _ in range(n)]
        M = mat(rows)
        if mat_det(M) == 0:
            continue
        assert mat_mul(M, mat_inv(M)) == identity(n)


def test_lattice_intersect_simple():
    # 2Z^2 cap 3Z^2 = 6Z^2
    A = mat([[2, 0], [0, 2]])
    B = mat([[3, 0], [0, 3]])
    inter = lattice_intersect(A, B)
    h, den = rational_hnf(inter)
    assert den == 1 and h == ((6, 0), (0, 6))


def test_lattice_intersect_skew():
    # Z(1,1) + Z(0,3)  cap  Z(1,-1) + Z(0,5): check via membership sampling
    A = mat([[1, 1], [0, 3]])
    B = mat([[1, -1], [0, 5]])
    inter = lattice_intersect(A, B)
    h, den = rational_hnf(inter)
    assert den == 1
    Ainv = mat_inv(A)
    Binv = mat_inv(B)
    for row in h:
        for M in (Ainv, Binv):
            coords = [sum(Fraction(row[i]) * M[i][j] for i in range(2))
                      for j in range(2)]
            assert all(c.denominator == 1 for c in coords)


def test_lll_preserves_lattice_and_shortens():
    g = mat([[4, 0, 10, 0], [0, 4, 0, 10], [10, 0, 30, 0], [0, 10, 0, 30]])
    U = lll_transform(g)
    # unimodular
    assert abs(mat_det(mat(U))) == 1
    # reduced basis no longer has the huge off-diagonal skew
    new_gram = [[sum(U[i][k] * g[k][l] * U[j][l] for k in range(4)
                     for l in range(4)) for j in range(4)] for i in range(4)]
    assert max(new_gram[i][i] for i in range(4)) <= 10


def _gram(rows):
    return mat([[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows])


@st.composite
def integer_rows(draw, sizes=st.integers(1, 5), entries=st.integers(-9, 9)):
    """n integer vectors of width m; m < n makes the Gram matrix singular."""
    n = draw(sizes)
    m = draw(st.integers(1, n + 1))
    return draw(st.lists(st.lists(entries, min_size=m, max_size=m),
                         min_size=n, max_size=n))


@settings(max_examples=80, deadline=None)
@given(integer_rows())
def test_lll_matches_oracle(rows):
    g = _gram(rows)
    assert lll_transform(g) == oracle_linalg.lll_transform(g)


# n = 6..8, few examples: the oracle redoes Gram-Schmidt after every size
# reduction, which costs it about 1 s an example at n = 8
@settings(max_examples=5, deadline=None)
@given(integer_rows(sizes=st.integers(6, 8), entries=st.integers(-4, 4)))
def test_lll_matches_oracle_up_to_8(rows):
    g = _gram(rows)
    assert lll_transform(g) == oracle_linalg.lll_transform(g)


def test_lll_matches_oracle_degenerate():
    # b2 = b0 + b1 and b3 = 0: the Gram-Schmidt pass meets b*_j = 0
    rows = [(3, 1, 4), (1, -5, 9), (4, -4, 13), (0, 0, 0), (2, 7, 1)]
    g = _gram(rows)
    U = lll_transform(g)
    assert U == oracle_linalg.lll_transform(g)
    assert abs(mat_det(mat(U))) == 1


@pytest.mark.parametrize("p", [29, 89])
def test_lll_matches_oracle_pigeonhole_grams(monkeypatch, p):
    # the T2 Gram matrices that _lll_reduce_basis meets in the principality
    # searches of the degree-4 closure demo
    K = compositum_multiquadratic([5, -1])
    cm = detect_cm(K)
    pairs, seen = [], set()
    for pr in sorted(split_prime(K, p), key=lambda q: q.lattice.hnf):
        if pr.lattice not in seen:
            seen.add(pr.lattice.conjugate(cm))
            pairs.append((pr, 1))
    grams = []

    def recording(gram, *args):
        grams.append(gram)
        return lll_transform(gram, *args)

    monkeypatch.setattr(linalg, "lll_transform", recording)
    pigeonhole_units(K, pairs)
    assert len(grams) >= 7
    for g in grams:
        assert lll_transform(g) == oracle_linalg.lll_transform(g)
