import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_fieldelement
import oracle_linalg
from udfield import linalg
from udfield.construct import pigeonhole_units, prime_pairs
from oracle_linalg import mat
from udfield.linalg import gauss_jordan, hnf_det, hnf_rows, lll_transform, mat_det
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
        d = mat_det(rows)
        if d == 0:
            continue
        assert hnf_det(hnf_rows(rows)) == abs(d)


def test_mat_inverse():
    # gauss_jordan on [A | I] gives X = d A^-1 with d = +-det A, so A X = d I
    rng = random.Random(9)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        A = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        d, X = gauss_jordan([row + [int(i == j) for j in range(n)] for i, row in enumerate(A)])
        assert abs(d) == abs(mat_det(A))
        if d:
            assert [[sum(a * x for a, x in zip(row, col)) for col in zip(*X)] for row in A] == [
                [d * (i == j) for j in range(n)] for i in range(n)]


entries = st.one_of(st.integers(-60, 60),
                  st.fractions(min_value=-20, max_value=20, max_denominator=15))


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 6).flatmap(lambda n: st.lists(
           st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)),
       repeat=st.booleans())
def test_mat_det_matches_oracle(rows, repeat):
    # fraction-free Bareiss against the old Gaussian elimination, on
    # integer, rational (each row cleared of its denominators, the scales
    # dividing the determinant) and (with a repeated row) singular matrices
    if repeat and len(rows) > 1:
        rows[-1] = list(rows[0])
    scales = [math.lcm(1, *(Fraction(c).denominator for c in row)) for row in rows]
    cleared = [[int(c * s) for c in row] for row, s in zip(rows, scales)]
    assert Fraction(mat_det(cleared), math.prod(scales)) == oracle_fieldelement.mat_det(mat(rows))


def test_lll_preserves_lattice_and_shortens():
    g = [[4, 0, 10, 0], [0, 4, 0, 10], [10, 0, 30, 0], [0, 10, 0, 30]]
    U = lll_transform(g)
    # unimodular
    assert abs(mat_det(U)) == 1
    # reduced basis no longer has the huge off-diagonal skew
    new_gram = [[sum(U[i][k] * g[k][l] * U[j][l] for k in range(4)
                     for l in range(4)) for j in range(4)] for i in range(4)]
    assert max(new_gram[i][i] for i in range(4)) <= 10


def _gram(rows):
    return [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]


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
    assert lll_transform(g) == oracle_linalg.lll_transform(mat(g))


# n = 6..8, few examples: the oracle redoes Gram-Schmidt after every size
# reduction, which costs it about 1 s an example at n = 8
@settings(max_examples=5, deadline=None)
@given(integer_rows(sizes=st.integers(6, 8), entries=st.integers(-4, 4)))
def test_lll_matches_oracle_up_to_8(rows):
    g = _gram(rows)
    assert lll_transform(g) == oracle_linalg.lll_transform(mat(g))


def test_lll_matches_oracle_degenerate():
    # b2 = b0 + b1 and b3 = 0: the Gram-Schmidt pass meets b*_j = 0
    rows = [(3, 1, 4), (1, -5, 9), (4, -4, 13), (0, 0, 0), (2, 7, 1)]
    g = _gram(rows)
    U = lll_transform(g)
    assert U == oracle_linalg.lll_transform(mat(g))
    assert abs(mat_det(U)) == 1


@pytest.mark.parametrize("p", [29, 89])
def test_lll_matches_oracle_pigeonhole_grams(monkeypatch, p):
    # the T2 Gram matrices that _lll_reduce_basis meets in the principality
    # searches of the degree-4 closure demo
    cm = detect_cm(compositum_multiquadratic([5, -1]))
    pairs = prime_pairs(cm, p, 1)
    grams = []

    def recording(gram):
        grams.append(gram)
        return lll_transform(gram)

    monkeypatch.setattr(linalg, "lll_transform", recording)
    pigeonhole_units(cm, pairs)
    assert len(grams) >= 4      # one per principality search, none repeated
    for g in grams:
        assert lll_transform(g) == oracle_linalg.lll_transform(mat(g))
