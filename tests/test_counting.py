import math
import random
from fractions import Fraction

import numpy as np
import pytest
from pointrows import elements_of, rows_of

from udfield.construct import enumerate_window
from udfield.counting import (PlanarFloatSet, count_exact, count_float,
                              erdos_grid, r2_count, r2_count_rational)
from udfield.errors import BoxTooSmall, TooLargeEps
from udfield.numberfield import abs_sq, compositum_multiquadratic


def brute_exact(points, cm):
    """Independent oracle: plain double loop, no pruning."""
    one = cm.field.one()
    pts = list(points)
    count = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs_sq(pts[i] - pts[j], cm) == one:
                count += 1
    return count


def test_count_exact_gaussian_discs(gaussian, gaussian_cm):
    w13 = enumerate_window(gaussian, Fraction(1), Fraction(2))
    c = count_exact(*w13, gaussian_cm)
    assert c.unit_pairs == 16
    assert c.unit_pairs == brute_exact(elements_of(gaussian, *w13), gaussian_cm)
    w5 = enumerate_window(gaussian, Fraction(1), Fraction(1))
    assert count_exact(*w5, gaussian_cm).unit_pairs == 4
    assert count_exact(*rows_of(gaussian, [gaussian.one()]),
                       gaussian_cm).unit_pairs == 0


def test_count_exact_matches_brute_on_random_sets(gaussian, gaussian_cm):
    rng = random.Random(8)
    K, cm = gaussian, gaussian_cm
    for trial in range(6):
        n = rng.choice([40, 120, 300, 500])
        pts = set()
        while len(pts) < n:
            pts.add((rng.randrange(-8, 9), rng.randrange(-8, 9),
                     rng.choice([1, 1, 1, 2])))
        elems = [K.element([Fraction(a, d), Fraction(b, d)]) for a, b, d in pts]
        assert count_exact(*rows_of(K, elems), cm).unit_pairs == brute_exact(elems, cm)


def test_count_exact_degree4(deg4, deg4_cm):
    rows, denom = enumerate_window(deg4, Fraction(1), Fraction(2))
    c = count_exact(rows, denom, deg4_cm)
    assert c.unit_pairs == brute_exact(elements_of(deg4, rows, denom), deg4_cm)
    assert c.unit_pairs > 0


def test_scaling_covariance(gaussian, gaussian_cm):
    # multiplying by a unit-modulus element is an isometry in every embedding
    K, cm = gaussian, gaussian_cm
    rng = random.Random(5)
    pts = elements_of(K, *enumerate_window(K, Fraction(1), Fraction(2)))
    base = count_exact(*rows_of(K, pts), cm).unit_pairs
    # 20 unit-modulus multipliers (Pythagorean ratios and torsion)
    mults = []
    for a, b, c in ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25),
                    (20, 21, 29), (9, 40, 41), (12, 35, 37), (28, 45, 53)):
        mults.append(K.element([Fraction(a, c), Fraction(b, c)]))
        mults.append(K.element([Fraction(-a, c), Fraction(b, c)]))
    mults += [K.theta(), -K.theta(), K.one(), -K.one()]
    assert len(mults) == 20
    for u in mults:
        assert abs_sq(u, cm) == K.one()
        scaled = [p * u for p in pts]
        assert count_exact(*rows_of(K, scaled), cm).unit_pairs == base


def test_count_float_square_and_triangle():
    square = PlanarFloatSet(points=[(0, 0), (1, 0), (1, 1), (0, 1)], eps=1e-9)
    assert count_float(square, "hashed").unit_pairs == 4
    assert count_float(square, "brute").unit_pairs == 4
    tri = PlanarFloatSet(points=[(0.0, 0.0), (1.0, 0.0),
                                 (0.5, math.sqrt(3) / 2)], eps=1e-9)
    assert count_float(tri, "hashed").unit_pairs == 3


def test_count_float_eps_guard():
    with pytest.raises(TooLargeEps):
        count_float(PlanarFloatSet(points=[(0, 0), (1, 0)], eps=0.5))


def test_count_float_duplicates_warn():
    ps = PlanarFloatSet(points=[(0, 0), (0, 0), (1, 0)], eps=1e-9)
    c = count_float(ps, "hashed")
    assert c.duplicate_pairs == 1
    assert c.unit_pairs == 2          # both copies of the origin pair with (1,0)
    assert c.warnings


def test_hashed_equals_brute_random():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n = int(rng.integers(50, 5000))
        span = float(rng.uniform(3, 40))
        pts = rng.uniform(0, span, size=(n, 2))
        # salt with exact-unit pairs so the count is nonzero
        k = min(n // 3, 50)
        angles = rng.uniform(0, 2 * np.pi, size=k)
        extra = pts[:k] + np.stack([np.cos(angles), np.sin(angles)], axis=1)
        allpts = np.concatenate([pts, extra])
        eps = 1e-6 if trial % 2 == 0 else 1e-9
        ps = PlanarFloatSet(points=allpts, eps=eps)
        h = count_float(ps, "hashed").unit_pairs
        b = count_float(ps, "brute").unit_pairs
        assert h == b, (trial, n, h, b)
        assert h >= 0


def test_erdos_grid_small():
    g25 = erdos_grid(25)
    assert g25.side == 5 and g25.m == 5 and g25.r2_in_grid == 8
    g4 = erdos_grid(4)
    assert g4.m == 1 and g4.predicted_pairs == 4
    with pytest.raises(ValueError):
        erdos_grid(10)


def test_erdos_grid_predicted_matches_measured():
    for n in (25, 100, 400):
        g = erdos_grid(n)
        c = count_float(PlanarFloatSet(points=g.points, eps=1e-9), "hashed")
        assert c.unit_pairs == g.predicted_pairs, n


def test_erdos_grid_growth():
    measured = []
    for n in (25, 100, 400, 2500):
        g = erdos_grid(n)
        c = count_float(PlanarFloatSet(points=g.points, eps=1e-9), "hashed")
        measured.append(c.unit_pairs)
    assert all(a <= b for a, b in zip(measured, measured[1:]))
    assert measured[2] > 400 and measured[3] > 2500


def divisor_formula(m):
    """Classical oracle: r2(m) = 4 (d_1(m) - d_3(m)) for m >= 1."""
    d1 = sum(1 for d in range(1, m + 1) if m % d == 0 and d % 4 == 1)
    d3 = sum(1 for d in range(1, m + 1) if m % d == 0 and d % 4 == 3)
    return 4 * (d1 - d3)


def test_r2_divisor_formula_oracle():
    for m in range(1, 201):
        assert r2_count_rational(m) == divisor_formula(m), m
    assert r2_count_rational(25) == 12
    assert r2_count_rational(3) == 0
    assert r2_count_rational(5) == 8


def test_r2_real_quadratic():
    F = compositum_multiquadratic([5])
    alpha = F.from_rational(4)
    count = r2_count(F, alpha, Fraction(3))
    # contains at least the 8 rational solutions of x^2 + y^2 = 4... in Z:
    # (+-2, 0), (0, +-2); golden-unit solutions may add more
    assert count >= 4
    # brute-force oracle over a small coordinate box in O_F
    brute = 0
    for a in range(-4, 5):
        for b in range(-4, 5):
            for c in range(-4, 5):
                for d in range(-4, 5):
                    x = F.element([Fraction(a), Fraction(b)])
                    y = F.element([Fraction(c), Fraction(d)])
                    if x * x + y * y == alpha:
                        brute += 1
    assert count == brute


def test_r2_box_too_small():
    F = compositum_multiquadratic([5])
    with pytest.raises(BoxTooSmall):
        r2_count(F, F.from_rational(4), Fraction(1))


def test_r2_nonnegative_alpha():
    F = compositum_multiquadratic([5])
    from udfield.ideals import _mq_subset_sqrt

    s5 = _mq_subset_sqrt(F, 1)
    # alpha = sqrt(5) is negative in one embedding: no solutions
    assert r2_count(F, s5, Fraction(4)) == 0
