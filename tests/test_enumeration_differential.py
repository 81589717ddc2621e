"""Differential tests: the one enumerator `lattice_points_in_polydisc`
against the enumerators it replaced, kept in `oracle_enumeration`.

Both sides must return the same points in the same order.  Radii are drawn
at random, and also set exactly to the squared modulus of a lattice point,
or 2^-60 off it, so that the coarse interval pass cannot decide that point
and the exact boundary decision runs.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_enumeration as oracle
from oracle_enumeration import real_structure
from udfield.enumeration import lattice_points_in_polydisc
from udfield.numberfield import abs_sq, compositum_multiquadratic

small = st.integers(-3, 3)
# 0 puts a lattice point on the boundary; +-2^-60 just inside or outside
nudge = st.sampled_from([0, 1, -1]).map(lambda s: Fraction(s, 1 << 60))


@st.composite
def sublattice(draw):
    """A nonsingular 2x2 integer matrix: a full-rank sublattice of O_K."""
    rows = draw(st.lists(st.lists(small, min_size=2, max_size=2),
                         min_size=2, max_size=2).filter(
        lambda r: r[0][0] * r[1][1] != r[0][1] * r[1][0]))
    return rows


def _coords(points):
    return [z.coords for z in points]


def _lattice_point(K, basis, center, a, b):
    z = basis[0] * a + basis[1] * b
    return z if center is None else center + z


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from(["gaussian", "qsqrt-5"]), rows=sublattice(),
       shift=st.one_of(st.none(), st.tuples(st.integers(-16, 16), st.integers(-16, 16))),
       radius=st.one_of(st.fractions(0, 30, max_denominator=7),
                        st.tuples(small, small, nudge)))
def test_polydisc_matches_oracle_imag_quadratic(which, rows, shift, radius,
                                                gaussian, gaussian_cm,
                                                qsqrt_m5, qsqrt_m5_cm):
    K, cm = (gaussian, gaussian_cm) if which == "gaussian" else (qsqrt_m5, qsqrt_m5_cm)
    basis = [K.element(r) for r in rows]
    center = None
    if shift is not None:
        center = K.element([Fraction(shift[0], 4), Fraction(shift[1], 4)])
    if isinstance(radius, tuple):
        # |sigma(z)|^2 of a lattice point is rational here
        a, b, off = radius
        z = _lattice_point(K, basis, center, a, b)
        radius = abs_sq(z, cm).power_coords()[0] + off
    got = lattice_points_in_polydisc(basis, cm, [radius], center=center)
    want = oracle.lattice_points_in_polydisc(basis, cm, [radius], center=center)
    assert _coords(got) == _coords(want)


@settings(max_examples=40, deadline=None)
@given(rows=sublattice(),
       bound=st.one_of(st.fractions(0, 8, max_denominator=5),
                       st.tuples(st.integers(0, 2), nudge)))
def test_real_box_matches_oracle_qsqrt5(rows, bound, sqrt5_field):
    F = sqrt5_field
    basis = [F.element(r) for r in rows]
    if isinstance(bound, tuple):
        # k * det * 1 lies in the sublattice, on (or 2^-60 off) the boundary;
        # the old search took a bound, the enumerator takes its square, so
        # only bounds >= 0 compare
        k, off = bound
        det = abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])
        bound = abs(k * det + off)
    got = lattice_points_in_polydisc(basis, real_structure(F), [bound * bound] * 2)
    want = oracle.real_lattice_points_in_box(basis, bound)
    assert _coords(got) == _coords(want)


def test_polydisc_matches_oracle_degree4(deg4, deg4_cm):
    K, cm = deg4, deg4_cm
    # an index-2 sublattice of O_K that contains 2 = b0 - b1
    basis = [K.element([2, 1, 0, 0]), K.element([0, 1, 0, 0]),
             K.element([0, 0, 1, 0]), K.element([0, 1, 1, 1])]
    center = K.element([Fraction(1, 2), 0, Fraction(-1, 3), 0])
    # radii 4 put +-2 exactly on both boundaries
    for radii, c in (([Fraction(4)] * 2, None), ([Fraction(5), Fraction(3)], center)):
        got = lattice_points_in_polydisc(basis, cm, radii, center=c)
        want = oracle.lattice_points_in_polydisc(basis, cm, radii, center=c)
        assert _coords(got) == _coords(want)
        assert len(got) > 1


def test_real_box_matches_oracle_biquadratic():
    F = compositum_multiquadratic([2, 5])
    basis = [F.element([1 if k == j else 0 for k in range(4)]) for j in range(4)]
    for bound in (Fraction(2), Fraction(5, 2)):
        got = lattice_points_in_polydisc(basis, real_structure(F), [bound * bound] * 4)
        want = oracle.real_lattice_points_in_box(basis, bound)
        assert _coords(got) == _coords(want)
        assert len(got) > 1
