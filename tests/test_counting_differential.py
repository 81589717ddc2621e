"""Differential tests: the exact pair search `unit_pair_indices`, which
prunes with the cell hash of the float counter, against the dense-block
search it replaced, kept in `oracle_counting`.

Both sides must return the same pairs in the same order.  Point sets are
salted with exact unit-distance partners z + u (u = a / conj(a) has modulus
1) and with partners 2^-60 off, which no float or 40-bit box can tell
apart, so the symbolic decision runs on both.  Base coordinates sit on, or
2^-60 either side of, integers and go negative, so pairs straddle cell
boundaries.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_counting as oracle
from udfield.construct import enumerate_window
from udfield.counting import (PlanarFloatSet, count_exact, count_float,
                              unit_pair_indices)
from udfield.intervals import ComplexInterval, RealInterval

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
@given(data=st.data(), which=st.sampled_from(["gaussian", "qsqrt-5", "deg4"]),
       bits=st.sampled_from([32, 40, 256]))
def test_unit_pairs_match_oracle(data, which, bits, gaussian, gaussian_cm,
                                 qsqrt_m5, qsqrt_m5_cm, deg4, deg4_cm):
    K, cm = _fields(gaussian, gaussian_cm, qsqrt_m5, qsqrt_m5_cm,
                    deg4, deg4_cm)[which]
    pts = data.draw(salted_points(K, cm))
    rep = cm.pair_reps[data.draw(st.integers(0, cm.f - 1))]
    boxes = [z.embed(rep, bits) for z in pts]
    want = oracle.unit_pair_indices(pts, cm)
    assert unit_pair_indices(pts, boxes, cm) == want
    assert count_exact(pts, cm).unit_pairs == len(want)


def test_unit_pairs_tiny_sets(gaussian, gaussian_cm):
    K, cm = gaussian, gaussian_cm
    for pts in ([], [K.one()], [K.zero(), K.one()], [K.zero(), K.zero()]):
        boxes = [z.embed(0, 40) for z in pts]
        want = oracle.unit_pair_indices(pts, cm)
        assert unit_pair_indices(pts, boxes, cm) == want
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
    # boxes this wide could hide a unit pair outside the 21 hashed cells
    pts = [gaussian.zero(), gaussian.one()]
    side = RealInterval(Fraction(-1, 8), Fraction(1, 8))
    with pytest.raises(ValueError):
        unit_pair_indices(pts, [ComplexInterval(side, side)] * 2, gaussian_cm)
