"""Differential tests: the exact pair search `unit_pair_indices`, which
prunes with the cell hash of the float counter over the positions of
`planar_image` and decides survivors by the integer Hermitian form, against
the dense-block search it replaced, kept in `oracle_counting`; the integer
decision against abs_sq; and the certified error bound of `planar_image`
against 256-bit embeddings.

Both sides must return the same pairs in the same order.  Point sets are
salted with exact unit-distance partners z + u (u = a / conj(a) has modulus
1) and with partners 2^-60 off, which no float or 40-bit box can tell
apart, so the exact decision runs on both.  Base coordinates sit on, or
2^-60 either side of, integers and go negative, so pairs straddle cell
boundaries.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_counting as oracle
from pointrows import rows_of
from udfield.construct import enumerate_window
from udfield.counting import (PlanarFloatSet, _unit_distance, count_exact,
                              count_float, hermitian_form, planar_image,
                              unit_pair_indices)
from udfield.errors import PrecisionExhausted
from udfield.numberfield import abs_sq

# 0 keeps a coordinate exact; +-2^-60 moves it just off
nudge = st.sampled_from([0, 1, -1]).map(lambda s: Fraction(s, 1 << 60))
coord = st.builds(lambda a, d, e: Fraction(a, d) + e,
                  st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 5]), nudge)


@st.composite
def salted_points(draw, K, cm):
    n = K.n
    pts = [K.element(c) for c in
           draw(st.lists(st.lists(coord, min_size=n, max_size=n), max_size=24))]
    salts = draw(st.lists(st.tuples(st.integers(0, 10 ** 6),
                                    st.lists(st.integers(-3, 3), min_size=n,
                                             max_size=n),
                                    nudge), max_size=12))
    for idx, seed, off in salts:
        a = K.element(seed)
        if not pts or a.is_zero():
            continue
        u = a / cm.conj(a)
        pts.append(pts[idx % len(pts)] + u + K.element([off] + [0] * (n - 1)))
    return pts


def _fields(gaussian, gaussian_cm, qsqrt_m5, qsqrt_m5_cm, deg4, deg4_cm):
    return {"gaussian": (gaussian, gaussian_cm),
            "qsqrt-5": (qsqrt_m5, qsqrt_m5_cm),
            "deg4": (deg4, deg4_cm)}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), which=st.sampled_from(["gaussian", "qsqrt-5", "deg4"]))
def test_unit_pairs_match_oracle(data, which, gaussian, gaussian_cm,
                                 qsqrt_m5, qsqrt_m5_cm, deg4, deg4_cm):
    K, cm = _fields(gaussian, gaussian_cm, qsqrt_m5, qsqrt_m5_cm,
                    deg4, deg4_cm)[which]
    pts = data.draw(salted_points(K, cm))
    rows, denom = rows_of(K, pts)
    xy, err = planar_image(rows, denom, cm, data.draw(st.integers(0, cm.f - 1)))
    want = oracle.unit_pair_indices(pts, cm)
    assert unit_pair_indices(rows, denom, xy, err, cm) == want
    assert count_exact(rows, denom, cm).unit_pairs == len(want)


def _int64_decides(rows, cm) -> bool:
    """Whether _unit_distance may use int64 on these rows (its own bound)."""
    T, e = hermitian_form(cm)
    n = len(e)
    span = max(sum(abs(T[p][q][k]) for p in range(n) for q in range(n))
               for k in range(n))
    dmax = 2 * max((abs(c) for row in rows.tolist() for c in row), default=0)
    return dmax * dmax * span < 1 << 63


# shifts by an integral element: 0 keeps int64, 2^31 (about the square root
# of the int64 bound) and 2^61 leave int64 rows but force Python-int products,
# and 2^70 makes the rows themselves Python ints
shift_exp = st.sampled_from([None, 31, 61, 70])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), which=st.sampled_from(["gaussian", "qsqrt-5", "deg4"]),
       shift=shift_exp)
def test_integer_decision_matches_abs_sq(data, which, shift, gaussian, gaussian_cm,
                                         qsqrt_m5, qsqrt_m5_cm, deg4, deg4_cm):
    # every pair, not only float survivors, so near misses (2^-60 off) and
    # far pairs alike reach the integer identity
    K, cm = _fields(gaussian, gaussian_cm, qsqrt_m5, qsqrt_m5_cm,
                    deg4, deg4_cm)[which]
    pts = data.draw(salted_points(K, cm))
    if shift is not None:
        t = K.element([1 << shift] + [(1 << shift) - 1] * (K.n - 1))
        pts = [z + t for z in pts]
    one = K.one()
    pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
    want = [abs_sq(pts[i] - pts[j], cm) == one for i, j in pairs]
    rows, denom = rows_of(K, pts)
    if shift is not None and len(pts) > 1:
        assert not _int64_decides(rows, cm)
    i = np.array([p[0] for p in pairs], dtype=np.int64)
    j = np.array([p[1] for p in pairs], dtype=np.int64)
    assert _unit_distance(rows, denom, i, j, cm).tolist() == want


def test_integer_decision_at_the_int64_bound(gaussian, gaussian_cm, deg4, deg4_cm):
    # the same unit pairs and near misses, shifted so that the bound on the
    # products sits just below or just above 2^63: both paths must agree
    for K, cm in ((gaussian, gaussian_cm), (deg4, deg4_cm)):
        n = K.n
        u = K.element([Fraction(3, 5), Fraction(4, 5)] + [0] * (n - 2))
        assert abs_sq(u, cm) == K.one()
        base = [K.zero(), u, K.one(), u + K.element([Fraction(1, 5)] + [0] * (n - 1))]
        paths = set()
        for shift in range(20, 37):
            t = K.element([1 << shift] + [0] * (n - 1))
            pts = [z + t for z in base] + [z - t for z in base]
            rows, denom = rows_of(K, pts)
            assert rows.dtype == np.int64
            paths.add(_int64_decides(rows, cm))
            pairs = [(a, b) for a in range(len(pts)) for b in range(a + 1, len(pts))]
            i = np.array([p[0] for p in pairs], dtype=np.int64)
            j = np.array([p[1] for p in pairs], dtype=np.int64)
            want = [abs_sq(pts[a] - pts[b], cm) == K.one() for a, b in pairs]
            assert _unit_distance(rows, denom, i, j, cm).tolist() == want
            assert sum(want) == 4
        assert paths == {True, False}


def test_hermitian_form_is_the_multiplication_table(gaussian_cm, qsqrt_m5_cm, deg4_cm):
    for cm in (gaussian_cm, qsqrt_m5_cm, deg4_cm):
        K = cm.field
        T, e = hermitian_form(cm)
        assert hermitian_form(cm) is hermitian_form(cm)
        assert [Fraction(c) for c in e] == list(K.one().coords)
        for j in range(K.n):
            for m in range(K.n):
                b = K.element([1 if k == j else 0 for k in range(K.n)])
                c = K.element([1 if k == m else 0 for k in range(K.n)])
                assert list((b * cm.conj(c)).coords) == T[j][m]


# non-dyadic, 2^-60-nudged and large (~2^40) coordinates, and exact zeros
image_coord = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda a, d, e: Fraction(a, d) + e, st.integers(-50, 50),
              st.sampled_from([1, 3, 7, 841]), nudge),
    st.builds(Fraction, st.integers(-2 ** 40, 2 ** 40), st.sampled_from([1, 3, 5])))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), which=st.sampled_from(["gaussian", "qsqrt-5", "deg4"]))
def test_planar_image_within_err(data, which, gaussian, gaussian_cm,
                                 qsqrt_m5, qsqrt_m5_cm, deg4, deg4_cm):
    K, cm = _fields(gaussian, gaussian_cm, qsqrt_m5, qsqrt_m5_cm,
                    deg4, deg4_cm)[which]
    n = K.n
    basis = [K.element([1 if k == j else 0 for k in range(n)]) for j in range(n)]
    pts = basis + [K.element(c) for c in data.draw(st.lists(
        st.lists(image_coord, min_size=n, max_size=n), max_size=8))]
    coordinate = data.draw(st.integers(0, cm.f - 1))
    xy, err = planar_image(*rows_of(K, pts), cm, coordinate)
    assert xy.shape == (len(pts), 2)
    err = Fraction(err)
    zero = ([(b + cm.conj(b)).is_zero() for b in basis],
            [b == cm.conj(b) for b in basis])
    for z, pos in zip(pts, xy.tolist()):
        box = z.embed(cm.pair_reps[coordinate], 256)
        for axis, iv in enumerate((box.re, box.im)):
            v = pos[axis]
            assert iv.lo - err <= Fraction(v) <= iv.hi + err, (z, axis, v, err)
            if all(zero[axis][k] for k, c in enumerate(z.coords) if c):
                assert v == 0.0 and math.copysign(1, v) == 1, (z, axis, v)


def test_unit_pairs_tiny_sets(gaussian, gaussian_cm):
    K, cm = gaussian, gaussian_cm
    for pts in ([], [K.one()], [K.zero(), K.one()], [K.zero(), K.zero()]):
        rows, denom = rows_of(K, pts)
        xy, err = planar_image(rows, denom, cm)
        want = oracle.unit_pair_indices(pts, cm)
        assert unit_pair_indices(rows, denom, xy, err, cm) == want
        assert count_exact(rows, denom, cm).unit_pairs == len(want)
    assert oracle.unit_pair_indices([K.zero(), K.one()], cm) == [(0, 1)]
    for pts in (np.empty((0, 2)), [(0.0, 0.0)], [(0.0, 0.0), (1.0, 0.0)]):
        for method in ("hashed", "brute"):
            census = count_float(PlanarFloatSet(points=pts, eps=1e-9), method)
            assert census.unit_pairs == (1 if len(pts) == 2 else 0)


def test_count_exact_memory_stays_linear(gaussian, gaussian_cm):
    # one dense 2000 x 2000 float64 block alone would be 32 MB
    rows, denom = enumerate_window(gaussian, Fraction(1), Fraction(252, 10))
    assert 1900 <= len(rows) <= 2100
    tracemalloc.start()
    try:
        census = count_exact(rows, denom, gaussian_cm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census.unit_pairs > len(rows)
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_unit_pairs_reject_boxes_too_wide(gaussian, gaussian_cm):
    # an error this large could hide a unit pair outside the 21 hashed cells
    rows, denom = rows_of(gaussian, [gaussian.zero(), gaussian.one()])
    xy = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(PrecisionExhausted):
        unit_pair_indices(rows, denom, xy, 1 / 8, gaussian_cm)
    # positions near 10^17 are only good to about 100, and 10^400 has none
    for big in (10 ** 17, 10 ** 400):
        far = [gaussian.element([big + k, 0]) for k in range(2)]
        with pytest.raises(PrecisionExhausted):
            count_exact(*rows_of(gaussian, far), gaussian_cm)
