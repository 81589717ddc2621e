"""Differential tests: the exact pipeline on Python ints against the numpy
form it replaced, kept in `oracle_pairsearch` and `oracle_polydisc`.

- `planar_image` gives the same floats, bit for bit, and the same err;
- the pairs of a window from the join over `unit_differences`, from the
  cell hash in Python and from the numpy cell hash are the same, over
  Q(i), Q(sqrt -5) and Q(sqrt 5, i), with nonzero translates and with
  translates whose denominators put the rows past 2^63;
- `unit_differences` is every unit of the radius-1 window, one of each sign;
- `lattice_points_in_polydisc` gives the same rows in the same order as the
  numpy last-coordinate chunk.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle_pairsearch
import oracle_polydisc
from pointrows import rows_of
from udfield.construct import enumerate_window
from udfield.counting import planar_image, unit_differences, unit_pair_indices
from udfield.enumeration import lattice_points_in_polydisc
from udfield.errors import PrecisionExhausted, WindowTooLarge
from udfield.numberfield import FieldElement, abs_sq

# a denominator past 2^64, so that rows over it pass 2^63
BIG_DEN = (1 << 64) + 13
nudge = st.sampled_from([0, 1, -1]).map(lambda s: Fraction(s, 1 << 60))


def _fields(gaussian_cm, qsqrt_m5_cm, deg4_cm):
    return {"gaussian": gaussian_cm, "qsqrt-5": qsqrt_m5_cm, "deg4": deg4_cm}


def _array(rows, n):
    """The rows as the numpy code took them: an (m, n) int64 array, or an
    object array when an entry does not fit in int64."""
    big = any(abs(c) >= 1 << 63 for row in rows for c in row)
    return np.array(rows, dtype=object if big else np.int64).reshape(len(rows), n)


def _bits(xy):
    return [float.hex(v) for pos in xy for v in pos]


def _image_or_error(image, *args):
    try:
        xy, err = image(*args)
    except PrecisionExhausted:
        return "PrecisionExhausted"
    return _bits(getattr(xy, "tolist", lambda: xy)()), float.hex(err)


coordinate = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda a, d, e: Fraction(a, d) + e, st.integers(-50, 50),
              st.sampled_from([1, 3, 7, 841]), nudge),
    st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80),
              st.sampled_from([1, 3, (1 << 61) - 1, BIG_DEN])),
    st.builds(Fraction, st.integers(-3, 3).map(lambda s: s * 10 ** 400),
              st.sampled_from([1, 7])))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), which=st.sampled_from(["gaussian", "qsqrt-5", "deg4"]))
def test_planar_image_matches_oracle_bit_for_bit(data, which, gaussian_cm,
                                                 qsqrt_m5_cm, deg4_cm):
    cm = _fields(gaussian_cm, qsqrt_m5_cm, deg4_cm)[which]
    K = cm.field
    pts = [K.element(c) for c in data.draw(st.lists(
        st.lists(coordinate, min_size=K.n, max_size=K.n), max_size=10))]
    rows, denom = rows_of(K, pts)
    index = data.draw(st.integers(0, cm.f - 1))
    got = _image_or_error(planar_image, rows, denom, cm, index)
    want = _image_or_error(oracle_pairsearch.planar_image, _array(rows, K.n), denom,
                           cm, index)
    assert got == want


def _oracle_pairs(rows, denom, cm, index):
    array = _array(rows, cm.field.n)
    xy, err = oracle_pairsearch.planar_image(array, denom, cm, index)
    return oracle_pairsearch.unit_pair_indices(array, denom, xy, err, cm)


WINDOWS = {"gaussian": ([1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)],
                        [1, Fraction(3, 2), 2, Fraction(5, 2)]),
           "qsqrt-5": ([1, Fraction(1, 2), Fraction(1, 3)], [1, Fraction(3, 2), 2]),
           "deg4": ([1, Fraction(1, 2)], [1, Fraction(3, 2)])}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), which=st.sampled_from(sorted(WINDOWS)),
       translate=st.sampled_from([None, 5, 12, BIG_DEN]))
def test_window_pairs_join_cell_hash_and_oracle_agree(data, which, translate,
                                                      gaussian_cm, qsqrt_m5_cm,
                                                      deg4_cm):
    cm = _fields(gaussian_cm, qsqrt_m5_cm, deg4_cm)[which]
    K = cm.field
    scales, radii = WINDOWS[which]
    scale = Fraction(data.draw(st.sampled_from(scales)))
    R = Fraction(data.draw(st.sampled_from(radii)))
    a = None
    if translate is not None:
        a = K.element([Fraction(data.draw(st.integers(1, translate)), translate)]
                      + [Fraction(data.draw(st.integers(-translate, translate)), translate)
                         for _ in range(K.n - 1)])
    rows, denom = enumerate_window(K, scale, R, a)
    if translate == BIG_DEN and rows:
        assert max(abs(c) for row in rows for c in row) >= 1 << 63
    index = data.draw(st.integers(0, cm.f - 1))
    xy, err = planar_image(rows, denom, cm, index)
    joined = unit_pair_indices(rows, denom, xy, err, cm, unit_differences(cm, scale))
    hashed = unit_pair_indices(rows, denom, xy, err, cm)
    assert joined == hashed == _oracle_pairs(rows, denom, cm, index)


@st.composite
def salted_rows(draw, cm):
    """Points that lie in no one lattice coset: small rationals, each
    possibly followed by a translate by a unit u = a / conj(a) and a 2^-60
    nudge, and all shifted by one element with a large denominator."""
    K = cm.field
    n = K.n
    coord = st.builds(lambda a, d, e: Fraction(a, d) + e, st.integers(-6, 6),
                      st.sampled_from([1, 2, 3, 5]), nudge)
    pts = []
    for c in draw(st.lists(st.lists(coord, min_size=n, max_size=n), max_size=16)):
        pts.append(K.element(c))
        seed = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        a = K.element(seed)
        if not a.is_zero():
            pts.append(pts[-1] + a / cm.conj(a) + K.element([draw(nudge)] + [0] * (n - 1)))
    shift = K.element([Fraction(draw(st.integers(-9, 9)), BIG_DEN)] * n)
    return rows_of(K, [z + shift for z in pts])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), which=st.sampled_from(["gaussian", "qsqrt-5", "deg4"]))
def test_salted_pairs_cell_hash_matches_oracle(data, which, gaussian_cm, qsqrt_m5_cm,
                                               deg4_cm):
    cm = _fields(gaussian_cm, qsqrt_m5_cm, deg4_cm)[which]
    rows, denom = data.draw(salted_rows(cm))
    index = data.draw(st.integers(0, cm.f - 1))
    xy, err = planar_image(rows, denom, cm, index)
    assert unit_pair_indices(rows, denom, xy, err, cm) == _oracle_pairs(rows, denom,
                                                                        cm, index)


@pytest.mark.parametrize("which,scale,count", [
    ("gaussian", Fraction(1), 2), ("gaussian", Fraction(1, 5), 6),
    ("gaussian", Fraction(1, 25), 10), ("qsqrt-5", Fraction(1), 1),
    ("qsqrt-5", Fraction(1, 9), 5), ("deg4", Fraction(1), 2),
    ("deg4", Fraction(1, 3), 6)])
def test_unit_differences_are_the_units_of_the_radius_one_window(
        which, scale, count, gaussian_cm, qsqrt_m5_cm, deg4_cm):
    cm = _fields(gaussian_cm, qsqrt_m5_cm, deg4_cm)[which]
    K = cm.field
    n = K.n
    basis = [[scale.numerator if k == j else 0 for k in range(n)] for j in range(n)]
    window = oracle_polydisc.lattice_points_in_polydisc(
        basis, scale.denominator, cm, [Fraction(1)] * cm.f).tolist()
    units = {tuple(r) for r in window
             if abs_sq(FieldElement(K, r, scale.denominator), cm) == K.one()}
    diffs, denom = unit_differences(cm, scale)
    assert denom == scale.denominator
    assert len(diffs) == count
    assert units == set(diffs) | {tuple(-c for c in d) for d in diffs}
    assert len(units) == 2 * len(diffs)
    with pytest.raises(WindowTooLarge):
        unit_differences(cm, scale, limit=len(window) - 1)


def _polydisc(enumerate_, basis, denom, cm, radii, center):
    try:
        rows = enumerate_(basis, denom, cm, radii, center=center, limit=20000)
    except WindowTooLarge:
        return "WindowTooLarge"
    except OverflowError:
        # the numpy form sized its int64 product by the coefficients alone,
        # so a basis past 2^63 with only the zero coefficient vector inside
        # overflowed converting the basis
        return "OverflowError"
    return tuple(map(tuple, getattr(rows, "tolist", lambda: rows)()))


@st.composite
def lattice(draw, n):
    """L T with L unit lower triangular and T upper triangular with
    diagonal entries in {+-1, 2, 3}: a full-rank sublattice of O_K, in a
    random basis."""
    T = [[draw(st.sampled_from([1, -1, 2, 3])) if i == j else
          draw(st.integers(-2, 2)) if j > i else 0 for j in range(n)]
         for i in range(n)]
    L = [[1 if i == j else draw(st.integers(-1, 1)) if j < i else 0
          for j in range(n)] for i in range(n)]
    return [[sum(L[i][k] * T[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), which=st.sampled_from(["gaussian", "qsqrt-5", "deg4"]),
       denom=st.sampled_from([1, 2, 7, BIG_DEN]))
def test_polydisc_rows_match_numpy_oracle(data, which, denom, gaussian_cm,
                                          qsqrt_m5_cm, deg4_cm):
    cm = _fields(gaussian_cm, qsqrt_m5_cm, deg4_cm)[which]
    K = cm.field
    n = K.n
    basis = [[c * denom for c in row] for row in data.draw(lattice(n))]
    center = data.draw(st.one_of(st.none(), st.lists(
        st.integers(-3 * denom, 3 * denom), min_size=n, max_size=n)))
    if data.draw(st.booleans()):
        # a lattice point on the boundary of every disc, or 2^-60 off it:
        # the band, decided exactly
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        z = FieldElement(K, [sum(c * b[k] for c, b in zip(coeffs, basis))
                             + (center[k] if center else 0) for k in range(n)], denom)
        box = z.embed(cm.pair_reps[0], 64).abs_sq()
        radius = box.hi if which == "deg4" else abs_sq(z, cm).power_coords()[0]
        radius = abs(radius + data.draw(nudge))
    else:
        radius = data.draw(st.fractions(0, 12 if n == 2 else 3, max_denominator=7))
    radii = [radius * (1 + i) for i in range(cm.f)]
    got = _polydisc(lattice_points_in_polydisc, basis, denom, cm, radii, center)
    want = _polydisc(oracle_polydisc.lattice_points_in_polydisc, basis, denom, cm,
                     radii, center)
    assume(want != "OverflowError")
    assert got == want
