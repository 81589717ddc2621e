"""Metamorphic relations of the polydisc walk and the exact count: checks
that need no oracle.

Each test runs `lattice_points_in_polydisc` or `count_exact` on two
related inputs and checks, exactly, how the two results must agree.  A
defect that the code shares with its earlier forms in `tests/oracle_*.py`
passes every differential test, but not these:

- scale: (c + L) / D at radius^2 r has the integer rows of c + L at D^2 r;
- restriction: the rows at r are the rows at r' > r whose every
  |sigma_i|^2 is at most r, in the same order;
- translation: moving the centre c by a vector of L gives the same rows,
  in the same order (the coset c + L does not change);
- symmetry: a window of O_K centred at 0 is closed under complex
  conjugation and under multiplication by each root of unity of K;
- isometries keep the count: permuting a window's rows, translating them
  by a lattice vector, conjugating them and multiplying them by a root of
  unity or by an emitted unit u (u conj(u) = 1) leave count_exact alone;
- two routes to the units: every unit the pigeonhole emits that is usable
  at scale 1/D lies, up to sign, in unit_differences over (1/D) O_K.

The walk's lattices are O_K and a prime ideal above a split prime, over
Q(i), Q(sqrt-5), Q(sqrt5, i) and one small case over Q(sqrt5, sqrt13, i);
the count's windows and units are over the first three.
"""

import random
from fractions import Fraction
from operator import add

import pytest

from pointrows import rows_of
from udfield.construct import enumerate_window, pigeonhole_units, usable_units
from udfield.counting import count_exact, unit_differences
from udfield.enumeration import lattice_points_in_polydisc
from udfield.ideals import split_prime
from udfield.numberfield import FieldElement, abs_sq

# field fixture, split prime, radius^2 for O_K and for the prime's lattice
CASES = [("gaussian_cm", 5, 40, 60), ("qsqrt_m5_cm", 3, 30, 60),
         ("deg4_cm", 29, 12, 40), ("deg8_cm", 29, 6, 20)]


@pytest.fixture(params=CASES, ids=[c[0] for c in CASES])
def case(request):
    name, p, r_ok, r_prime = request.param
    cm = request.getfixturevalue(name)
    n = cm.field.n
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    prime = [list(row) for row in split_prime(cm.field, p)[0].lattice.hnf]
    return cm, [(eye, Fraction(r_ok)), (prime, Fraction(r_prime))]


def _rows(cm, basis, denom, radius_sq, center=None):
    return lattice_points_in_polydisc(basis, denom, cm, [radius_sq] * cm.f, center=center)


def _centre(rng, n, denom):
    return [rng.randrange(-denom, denom + 1) for _ in range(n)]


def test_scale_is_radius(case):
    cm, lattices = case
    rng = random.Random(1)
    n = cm.field.n
    for basis, r in lattices:
        for D, center in ((2, None), (3, _centre(rng, n, 3)), (5, _centre(rng, n, 5))):
            small = _rows(cm, basis, D, r / (D * D), center)
            assert small, (D, center)
            big = _rows(cm, basis, 1, r, center)
            assert len(set(small)) == len(small) == len(big)
            assert set(small) == set(big)


def test_rows_restrict_in_radius(case):
    cm, lattices = case
    K = cm.field
    one = K.one()
    rng = random.Random(2)
    for basis, r in lattices:
        for denom, center in ((1, None), (2, _centre(rng, K.n, 2))):
            outer = _rows(cm, basis, denom, r / denom ** 2, center)
            sq = [abs_sq(FieldElement(K, row, denom), cm) for row in outer]
            for inner_r in (r / 3, r / 2, r * 3 / 4):
                inner_r /= denom ** 2
                want = tuple(row for row, z2 in zip(outer, sq)
                             if all((z2 - inner_r * one).sign_at(i) <= 0 for i in cm.pair_reps))
                assert _rows(cm, basis, denom, inner_r, center) == want
                assert len(want) < len(outer)


def test_lattice_shift_of_centre_keeps_rows(case):
    cm, lattices = case
    n = cm.field.n
    rng = random.Random(3)
    for basis, r in lattices:
        for denom in (1, 2, 3):
            center = _centre(rng, n, denom)
            rows = _rows(cm, basis, denom, r / denom ** 2, center)
            assert rows
            for _ in range(3):
                a = [rng.randrange(-3, 4) for _ in range(n)]
                moved = [c + sum(x * b[k] for x, b in zip(a, basis))
                         for k, c in enumerate(center)]
                assert _rows(cm, basis, denom, r / denom ** 2, moved) == rows


def test_window_closed_under_roots_of_unity_and_conjugation(case):
    cm, [(eye, r), _] = case
    K = cm.field
    roots = [FieldElement(K, row) for row in _rows(cm, eye, 1, Fraction(1)) if any(row)]
    assert len(roots) >= 2
    rows = _rows(cm, eye, 1, r)
    window = set(rows)
    assert len(window) == len(rows)
    points = [FieldElement(K, row) for row in rows]
    for image in [[cm.conj(z) for z in points]] + [[z * u for z in points] for u in roots]:
        assert all(w.den == 1 for w in image)
        assert {tuple(w.num) for w in image} == window


# field fixture, split prime and exponent of the pigeonhole, the scale and
# R of a window, and a scale at which only some emitted units are usable
UNIT_CASES = [("gaussian_cm", 5, 2, Fraction(1), 5, Fraction(1, 25)),
              ("qsqrt_m5_cm", 3, 2, Fraction(1, 3), 2, Fraction(1, 9)),
              ("deg4_cm", 5, 2, Fraction(1, 5), 1, Fraction(1, 5))]


@pytest.fixture(scope="module", params=UNIT_CASES, ids=[c[0] for c in UNIT_CASES])
def unit_case(request):
    name, p, k, scale, R, usable_scale = request.param
    cm = request.getfixturevalue(name)
    units = pigeonhole_units(cm, [(split_prime(cm.field, p)[0], k)])
    return cm, units.units, scale, Fraction(R), usable_scale


def test_isometries_keep_the_count(unit_case):
    cm, units, scale, R, _ = unit_case
    K = cm.field
    rows, denom = enumerate_window(cm, scale, R)
    want = count_exact(rows, denom, cm).unit_pairs
    assert want > 0
    rng = random.Random(4)
    images = [(rng.sample(rows, len(rows)), denom)]
    step = scale.numerator * denom // scale.denominator
    shifts = [[step * rng.randrange(-size, size + 1) for _ in range(K.n)]
              for size in (3, 10 ** 6)]
    # and one that leaves every coordinate below step, most of them negative
    shifts.append([-(max(col) // step) * step for col in zip(*rows)])
    images += [([tuple(map(add, row, shift)) for row in rows], denom) for shift in shifts]
    points = [FieldElement(K, row, denom) for row in rows]
    roots = [u for u in units if u.den == 1 and u != K.one()]
    # one unit of each denominator past 1
    moved = list({u.den: u for u in units if u.den > 1}.values())
    assert roots and moved
    images += [rows_of(K, [cm.conj(z) for z in points])]
    images += [rows_of(K, [z * u for z in points]) for u in roots + moved]
    for image, image_denom in images:
        assert count_exact(image, image_denom, cm).unit_pairs == want


def test_units_lie_in_the_unit_differences(unit_case):
    cm, units, _, _, scale = unit_case
    n = cm.field.n
    D = scale.denominator
    usable = usable_units(units, scale)
    assert 0 < len(usable) < len(units)
    assert any(u.den == D for u in usable)
    found = set(unit_differences(cm, [1] * n, D))
    for u in usable:
        row = tuple(c * (D // u.den) for c in u.num)
        assert row in found or tuple(-c for c in row) in found
