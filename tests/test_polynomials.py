import itertools
import random
from fractions import Fraction

import pytest

from udfield.errors import NotPrime
from udfield.polynomials import (discriminant, eval_at, factor_mod_p,
                                 is_squarefree, make_poly, poly_divmod,
                                 poly_mul, resultant)


def test_divmod_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        p = make_poly([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 7))])
        q = make_poly([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5))])
        if not q:
            continue
        quot, rem = poly_divmod(p, q)
        recon = tuple(Fraction(c) for c in poly_mul(quot, q))
        full = [Fraction(c) for c in p]
        for i, c in enumerate(rem):
            full[i] -= c
        got = make_poly(full)
        assert make_poly(recon) == got


def test_squarefree_checks():
    assert is_squarefree(make_poly([1, 0, 1]))
    assert not is_squarefree(make_poly([1, 2, 1]))          # (x+1)^2
    assert not is_squarefree(poly_mul((1, 1), poly_mul((1, 1), (2, 1))))


def test_discriminant_quadratics():
    assert discriminant(make_poly([1, 0, 1])) == -4
    assert discriminant(make_poly([-1, -1, 1])) == 5
    assert discriminant(make_poly([5, 0, 1])) == -20


def sylvester_det(p, q):
    """Oracle: resultant as the determinant of the Sylvester matrix."""
    import sympy

    m, n = len(p) - 1, len(q) - 1
    size = m + n
    rows = []
    hp = list(reversed(p))
    hq = list(reversed(q))
    for i in range(n):
        rows.append([0] * i + hp + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + hq + [0] * (size - n - 1 - i))
    return Fraction(int(sympy.Matrix(rows).det()))


def test_resultant_vs_sylvester_oracle():
    rng = random.Random(5)
    for _ in range(40):
        p = [rng.randrange(-5, 6) for _ in range(rng.randrange(2, 6))]
        q = [rng.randrange(-5, 6) for _ in range(rng.randrange(2, 6))]
        pp, qq = make_poly(p), make_poly(q)
        if len(pp) < 2 or len(qq) < 2:
            continue
        assert resultant(pp, qq) == sylvester_det(pp, qq), (pp, qq)


def test_eval_modes():
    from oracle_intervals import box_interval
    from udfield.intervals import Box

    p = make_poly([1, -3, 0, 2])  # 2x^3 - 3x + 1
    # a real point is the box x + [0, 0] i
    rv = box_interval(eval_at(p, Box(1, 1, 1, 0, 0)))
    assert rv.re.lo == rv.re.hi == Fraction(-1, 4) and rv.im.lo == rv.im.hi == 0
    cv = box_interval(eval_at(p, Box(0, 0, 0, 1, 1)))   # 2i^3 - 3i + 1 = 1 - 5i
    assert cv.re.lo <= 1 <= cv.re.hi and cv.im.lo <= -5 <= cv.im.hi


@pytest.mark.parametrize("poly,p,expected", [
    ([1, 0, 1], 5, [((2, 1), 1), ((3, 1), 1)]),   # split
    ([1, 0, 1], 3, [((1, 0, 1), 1)]),             # inert
    ([1, 0, 1], 2, [((1, 1), 2)]),                # ramified
    ([5, 0, 1], 3, [((1, 1), 1), ((2, 1), 1)]),
])
def test_factor_mod_p_known(poly, p, expected):
    assert factor_mod_p(make_poly(poly), p) == expected


def test_factor_mod_p_vs_sympy():
    import sympy

    x = sympy.symbols("x")
    rng = random.Random(23)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7, 13, 101])
        deg = rng.randrange(1, 7)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
        ours = factor_mod_p(make_poly(coeffs), p)
        # product of our factors with multiplicity reproduces the input mod p
        prod = (1,)
        for g, e in ours:
            for _ in range(e):
                prod = poly_mul(prod, g)
        assert make_poly([c % p for c in prod]) == make_poly([c % p for c in coeffs])
        # degrees of irreducible factors match sympy's factorization
        theirs = sympy.Poly(list(reversed(coeffs)), x, modulus=p).factor_list()[1]
        deg_ours = sorted((len(g) - 1) for g, e in ours for _ in range(e))
        deg_theirs = sorted(sympy.degree(f, x) for f, e in theirs for _ in range(e))
        assert deg_ours == deg_theirs


def _irreducibles_mod_2(max_degree):
    """Monic irreducibles over F_2 by degree: the monic polynomials that
    are no product of two of lower degree."""
    def mul2(a, b):
        return make_poly([c % 2 for c in poly_mul(a, b)])

    monic = {d: [make_poly(list(low) + [1]) for low in itertools.product((0, 1), repeat=d)]
             for d in range(1, max_degree + 1)}
    out = {}
    for d in range(1, max_degree + 1):
        products = {mul2(a, b) for k in range(1, d) for a in monic[k] for b in monic[d - k]}
        out[d] = [f for f in monic[d] if f not in products]
    return out


def test_factor_mod_2_splits_equal_degree_factors():
    # x^6 + ... + 1 = (x^3 + x + 1)(x^3 + x^2 + 1): two cubics of one
    # degree, which only the characteristic-2 trace map separates
    assert factor_mod_p((1, 1, 1, 1, 1, 1, 1), 2) == [((1, 0, 1, 1), 1), ((1, 1, 0, 1), 1)]
    irreducibles = _irreducibles_mod_2(4)
    rng = random.Random(2)
    for _ in range(40):
        d = rng.choice([3, 4])
        chosen = rng.sample(irreducibles[d], rng.randrange(2, len(irreducibles[d]) + 1))
        chosen += rng.sample(irreducibles[1] + irreducibles[2], rng.randrange(0, 4))
        f = (1,)
        for g in chosen:
            f = make_poly([c % 2 for c in poly_mul(f, g)])
        got = factor_mod_p(f, 2)
        back = (1,)
        for g, e in got:
            for _ in range(e):
                back = make_poly([c % 2 for c in poly_mul(back, g)])
        assert back == f
        assert sorted(got) == sorted((g, 1) for g in chosen)


def test_factor_mod_p_requires_prime():
    with pytest.raises(NotPrime):
        factor_mod_p(make_poly([1, 0, 1]), 6)


def test_factor_mod_p_deterministic():
    a = factor_mod_p(make_poly([3, 1, 4, 1, 5, 1]), 13)
    b = factor_mod_p(make_poly([3, 1, 4, 1, 5, 1]), 13)
    assert a == b
