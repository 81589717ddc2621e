"""Differential tests: the exact pair search `unit_pair_indices`, which
prunes with the cell hash of the float counter over the positions of
`planar_image`, against the dense-block search it replaced, kept in
`oracle_counting`; and the certified error bound of `planar_image`
against 256-bit embeddings.

Both sides must return the same pairs in the same order.  Point sets are
salted with exact unit-distance partners z + u (u = a / conj(a) has modulus
1) and with partners 2^-60 off, which no float or 40-bit box can tell
apart, so the symbolic decision runs on both.  Base coordinates sit on, or
2^-60 either side of, integers and go negative, so pairs straddle cell
boundaries.
"""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_counting as oracle
from udfield.construct import enumerate_window
from udfield.counting import (PlanarFloatSet, count_exact, count_float,
                              planar_image, unit_pair_indices)
from udfield.errors import PrecisionExhausted
from udfield.intervals import ComplexInterval, RealInterval
from udfield.numberfield import NumberField

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
    xy, err = planar_image(pts, cm, data.draw(st.integers(0, cm.f - 1)))
    want = oracle.unit_pair_indices(pts, cm)
    assert unit_pair_indices(pts, xy, err, cm) == want
    assert count_exact(pts, cm).unit_pairs == len(want)


# non-dyadic, 2^-60-nudged and large (~2^40) coordinates, and exact zeros
image_coord = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda a, d, e: Fraction(a, d) + e, st.integers(-50, 50),
              st.sampled_from([1, 3, 7, 841]), nudge),
    st.builds(Fraction, st.integers(-2 ** 40, 2 ** 40), st.sampled_from([1, 3, 5])))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), which=st.sampled_from(["gaussian", "qsqrt-5", "deg4"]),
       coarse=st.booleans())
def test_planar_image_within_err(data, which, coarse, gaussian, gaussian_cm,
                                 qsqrt_m5, qsqrt_m5_cm, deg4, deg4_cm):
    # the bound must hold for any enclosure of the basis images: coarse ones,
    # widened lopsidedly by about 2^-20, make their error dominate the
    # rounding, and move the midpoints of the exactly-zero columns off 0
    K, cm = _fields(gaussian, gaussian_cm, qsqrt_m5, qsqrt_m5_cm,
                    deg4, deg4_cm)[which]
    n = K.n
    basis = [K.element([1 if k == j else 0 for k in range(n)]) for j in range(n)]
    pts = basis + [K.element(c) for c in data.draw(st.lists(
        st.lists(image_coord, min_size=n, max_size=n), max_size=8))]
    coordinate = data.draw(st.integers(0, cm.f - 1))
    embed = NumberField.embed
    w = Fraction(1, 1 << 20)

    def coarse_embed(F, z, i, bits=64):
        box = embed(F, z, i, bits)
        return ComplexInterval(RealInterval(box.re.lo - w, box.re.hi + w / 2),
                               RealInterval(box.im.lo - w / 2, box.im.hi + w))

    with mock.patch.object(NumberField, "embed", coarse_embed if coarse else embed):
        xy, err = planar_image(pts, cm, coordinate)
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
        xy, err = planar_image(pts, cm)
        want = oracle.unit_pair_indices(pts, cm)
        assert unit_pair_indices(pts, xy, err, cm) == want
        assert count_exact(pts, cm).unit_pairs == len(want)
    assert oracle.unit_pair_indices([K.zero(), K.one()], cm) == [(0, 1)]
    for pts in (np.empty((0, 2)), [(0.0, 0.0)], [(0.0, 0.0), (1.0, 0.0)]):
        for method in ("hashed", "brute"):
            census = count_float(PlanarFloatSet(points=pts, eps=1e-9), method)
            assert census.unit_pairs == (1 if len(pts) == 2 else 0)


def test_count_exact_memory_stays_linear(gaussian, gaussian_cm):
    # one dense 2000 x 2000 float64 block alone would be 32 MB
    pts = enumerate_window(gaussian, Fraction(1), Fraction(252, 10))
    assert 1900 <= len(pts) <= 2100
    tracemalloc.start()
    try:
        census = count_exact(pts, gaussian_cm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census.unit_pairs > len(pts)
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_unit_pairs_reject_boxes_too_wide(gaussian, gaussian_cm):
    # an error this large could hide a unit pair outside the 21 hashed cells
    pts = [gaussian.zero(), gaussian.one()]
    xy = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(PrecisionExhausted):
        unit_pair_indices(pts, xy, 1 / 8, gaussian_cm)
    # positions near 10^17 are only good to about 100, and 10^400 has none
    for big in (10 ** 17, 10 ** 400):
        far = [gaussian.element([big + k, 0]) for k in range(2)]
        with pytest.raises(PrecisionExhausted):
            count_exact(far, gaussian_cm)
