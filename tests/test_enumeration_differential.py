"""Differential tests: the one enumerator `lattice_points_in_polydisc`
against the enumerators it replaced, kept in `oracle_enumeration`.

Both sides must return the same points in the same order.  Radii are drawn
at random, and also set exactly to the squared modulus of a lattice point,
or 2^-60 off it, so that the float bounds cannot decide that point and the
exact boundary decision runs.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_enumeration as oracle
from oracle_enumeration import real_structure
from udfield.enumeration import elements, lattice_points_in_polydisc
from udfield.errors import WindowTooLarge
from udfield.ideals import _unit_stretches
from udfield.numberfield import FieldElement, abs_sq, compositum_multiquadratic


def _points(basis, cm, radii, center=None, limit=None):
    """The enumerator's coefficient rows, as field elements."""
    rows = lattice_points_in_polydisc(basis, cm, radii, center=center, limit=limit)
    assert rows.shape == (len(rows), len(basis)) and rows.dtype.kind in "iO"
    return elements(basis, rows, center)


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
    got = _points(basis, cm, [radius], center=center)
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
    got = _points(basis, real_structure(F), [bound * bound] * 2)
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
        got = _points(basis, cm, radii, center=c)
        want = oracle.lattice_points_in_polydisc(basis, cm, radii, center=c)
        assert _coords(got) == _coords(want)
        assert len(got) > 1


def test_real_box_matches_oracle_biquadratic():
    F = compositum_multiquadratic([2, 5])
    basis = [F.element([1 if k == j else 0 for k in range(4)]) for j in range(4)]
    for bound in (Fraction(2), Fraction(5, 2)):
        got = _points(basis, real_structure(F), [bound * bound] * 4)
        want = oracle.real_lattice_points_in_box(basis, bound)
        assert _coords(got) == _coords(want)
        assert len(got) > 1


@st.composite
def sublattice4(draw):
    """L T with L unit lower triangular and T upper triangular with
    diagonal entries in {+-1, 2, 3}: a full-rank sublattice of O_K of index
    at most 81, in a random basis."""
    n = 4
    T = [[draw(st.sampled_from([1, -1, 2, 3])) if i == j else
          draw(st.integers(-2, 2)) if j > i else 0 for j in range(n)]
         for i in range(n)]
    L = [[1 if i == j else draw(st.integers(-1, 1)) if j < i else 0
          for j in range(n)] for i in range(n)]
    return [[sum(L[i][k] * T[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _enumerate_or_too_large(fn, *args, **kwargs):
    try:
        return _coords(fn(*args, **kwargs))
    except WindowTooLarge:
        return "too large"


non_dyadic = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([3, 5, 7, 9]))


@settings(max_examples=50, deadline=None)
@given(rows=sublattice4(), data=st.data(),
       center=st.one_of(st.none(), st.lists(non_dyadic, min_size=4, max_size=4)),
       on=st.one_of(st.tuples(non_dyadic, non_dyadic, st.integers(0, 3),
                              st.integers(-1, 1), nudge), st.none()),
       base=st.fractions(0, 3, max_denominator=7))
def test_polydisc_matches_oracle_degree4_random(rows, data, center, on, base,
                                                deg4, deg4_cm):
    K, cm = deg4, deg4_cm
    basis = [K.element(r) for r in rows]
    stretch = data.draw(st.sampled_from(_unit_stretches(K, cm, 3)))
    if center is not None:
        center = K.element(center)
    if on is not None:
        # t = q0 + q1 i lies in Q(i), so |sigma(t)|^2 is rational; the centre
        # is moved so that t is a point of the translate
        q0, q1, k, a, off = on
        t = K.element([q0, q1, 0, 0])
        center = t - basis[k] * a
        base = abs(abs_sq(t, cm).coords[0] + off)
    # one radius is the base, the other stretched as is_principal does, by
    # the row's larger factor (>= 1), so that t stays inside it
    pin = stretch.index(min(stretch))
    radii = [base if i == pin else base * stretch[i] for i in range(cm.f)]
    limit = 10000
    got = _enumerate_or_too_large(_points, basis, cm, radii,
                                  center=center, limit=limit)
    want = _enumerate_or_too_large(oracle.lattice_points_in_polydisc, basis, cm,
                                   radii, center=center, limit=limit)
    assert got == want


def test_boundary_band_uses_exact_sign(monkeypatch, deg4, deg4_cm):
    K, cm = deg4, deg4_cm
    basis = [K.element([1 if k == j else 0 for k in range(4)]) for j in range(4)]
    radii = [Fraction(4)] * 2    # +-2 and +-2i lie on both boundaries
    calls = []
    sign_at = FieldElement.sign_at

    def counted(self, root_index):
        calls.append(root_index)
        return sign_at(self, root_index)

    monkeypatch.setattr(FieldElement, "sign_at", counted)
    got = _points(basis, cm, radii)
    assert calls
    want = oracle.lattice_points_in_polydisc(basis, cm, radii)
    assert _coords(got) == _coords(want)
