import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_polydisc
import oracle_setup
from oracle_intervals import ComplexInterval, box_interval
from oracle_enumeration import _modulus_cmp_exact, _real_sign_at, real_structure
from pointrows import elements_of, rows_of
from udfield.counting import unit_differences
from udfield.enumeration import _levels, _lll_reduce_basis, lattice_points_in_polydisc
from udfield.errors import WindowTooLarge
from udfield.ideals import PRINCIPAL_SLACK, split_prime
from udfield.numberfield import FieldElement, abs_sq, compositum_multiquadratic, detect_cm
from udfield.numthy import iroot_ceil


def _points(basis, cm, radii, center=None, limit=None):
    """The enumerator's points for a basis and centre of field elements,
    passed as integer rows over one denominator, as field elements."""
    K = cm.field
    rows, denom = rows_of(K, list(basis) + [center or K.zero()])
    *B, c = rows
    got = lattice_points_in_polydisc(B, denom, cm, radii,
                                     center=None if center is None else c, limit=limit)
    assert type(got) is tuple
    assert all(type(row) is tuple and len(row) == K.n and all(type(c) is int for c in row)
               for row in got)
    return elements_of(K, got, denom)


def test_polydisc_completeness_random_sublattices(gaussian, gaussian_cm):
    # oracle: brute-force over a wide integer box with exact filtering
    K, cm = gaussian, gaussian_cm
    rng = random.Random(71)
    for _ in range(40):
        # random full-rank sublattice of Z[i]
        while True:
            rows = [[rng.randrange(-3, 4) for _ in range(2)] for _ in range(2)]
            det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            if det != 0:
                break
        basis = [K.element([Fraction(c) for c in r]) for r in rows]
        r2 = Fraction(rng.randrange(1, 30))
        got = {z.coords for z in _points(basis, cm, [r2])}
        brute = set()
        for a in range(-20, 21):
            for b in range(-20, 21):
                z = basis[0] * a + basis[1] * b
                x, y = z.coords
                if x * x + y * y <= r2:
                    brute.add(z.coords)
        assert got == brute, (rows, r2)


def test_polydisc_completeness_with_translate(gaussian, gaussian_cm):
    K, cm = gaussian, gaussian_cm
    rng = random.Random(72)
    basis = [K.element([1, 0]), K.element([0, 1])]
    for _ in range(25):
        a = K.element([Fraction(rng.randrange(-4, 5), 4),
                       Fraction(rng.randrange(-4, 5), 4)])
        r2 = Fraction(rng.randrange(1, 20))
        got = {z.coords for z in
               _points(basis, cm, [r2], center=a)}
        brute = set()
        for p in range(-15, 16):
            for q in range(-15, 16):
                z = a + K.element([p, q])
                x, y = z.coords
                if x * x + y * y <= r2:
                    brute.add(z.coords)
        assert got == brute


def test_polydisc_completeness_degree4(deg4, deg4_cm):
    K, cm = deg4, deg4_cm
    basis = [K.element([Fraction(1 if i == j else 0) for i in range(4)])
             for j in range(4)]
    got = {z.coords for z in
           _points(basis, cm, [Fraction(4)] * 2)}
    # brute force over integral coordinates with the exact modulus test; the
    # boxes sum_k c_k sigma(b_k) of 40-bit basis boxes (exact integer scales)
    # only rule candidates out
    emb = [[box_interval(b.embed(rep, 40)) for rep in cm.pair_reps] for b in basis]

    def add(acc, k, c):
        return [a + e.scale(c) for a, e in zip(acc, emb[k])]

    brute = set()
    cs = range(-6, 7)
    for c0 in cs:
        acc0 = add([ComplexInterval.point(0)] * 2, 0, c0)
        for c1 in cs:
            acc1 = add(acc0, 1, c1)
            for c2 in cs:
                acc2 = add(acc1, 2, c2)
                for c3 in cs:
                    if any(b.abs_sq().lo > 4 for b in add(acc2, 3, c3)):
                        continue
                    z = K.element([c0, c1, c2, c3])
                    if all(_modulus_cmp_exact(z, cm, i, Fraction(4)) <= 0
                           for i in range(2)):
                        brute.add(z.coords)
    assert got == brute
    assert len(got) > 1


def test_real_box_completeness():
    F = compositum_multiquadratic([5])
    basis = [F.element([1, 0]), F.element([0, 1])]
    got = {z.coords for z in
           _points(basis, real_structure(F), [Fraction(9)] * 2)}
    # x = a + b(5+sqrt5)/2: embeddings a + b(5 +- sqrt5)/2
    brute = set()
    for a in range(-15, 16):
        for b in range(-15, 16):
            z = F.element([a, b])
            ok = True
            for i in range(2):
                up = Fraction(3) * F.one() - z
                dn = z + Fraction(3) * F.one()
                if _real_sign_at(up, i) < 0 or _real_sign_at(dn, i) < 0:
                    ok = False
                    break
            if ok:
                brute.add(z.coords)
    assert got == brute
    assert len(got) >= 9


def test_roots_of_unity_fields(gaussian_cm, qsqrt_m5_cm, deg4_cm):
    # the torsion pigeonhole_units takes: the unit differences of O_K, one
    # of each pair +-d, and their negatives
    def roots_of_unity(cm):
        return 2 * len(unit_differences(cm, [1] * cm.field.n, 1))

    assert roots_of_unity(gaussian_cm) == 4
    assert roots_of_unity(qsqrt_m5_cm) == 2
    assert roots_of_unity(deg4_cm) == 4
    # Q(i, sqrt-3) contains the 12th roots of unity
    assert roots_of_unity(detect_cm(compositum_multiquadratic([-1, -3]))) == 12


def test_split_shapes_vs_sympy_oracle(gaussian, qsqrt_m5, deg4):
    # (e, f) multiset of the primes above p, cross-checked with sympy
    import sympy
    from sympy.polys.numberfields.primes import prime_decomp

    from udfield.errors import IndexDivisor
    from udfield.ideals import split_prime

    x = sympy.symbols("x")
    checked = 0
    for K in (gaussian, qsqrt_m5, deg4):
        poly = sympy.Poly([int(c) for c in reversed(K.min_poly)], x)
        for p in (3, 5, 7, 11, 13, 29, 41):
            try:
                ours = sorted((pr.e, pr.f_res) for pr in split_prime(K, p))
            except IndexDivisor:
                continue
            try:
                theirs = sorted((pr.e, pr.f) for pr in prime_decomp(p, poly))
            except Exception:
                # sympy's round-two can fail on some quartics; skip those
                continue
            assert ours == theirs, (K.label, p)
            checked += 1
    assert checked >= 14


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from(["deg4", "qsqrt_m5"]), bits=st.sampled_from([64, 128]),
       data=st.data())
def test_image_box_matches_embed(which, bits, data, deg4, qsqrt_m5):
    # sigma(v) from the cached integral-basis images against interval Horner
    # on v's power coordinates at a refined root box, with coordinates large
    # enough to need extra guard bits
    K = {"deg4": deg4, "qsqrt_m5": qsqrt_m5}[which]
    coords = data.draw(st.lists(
        st.builds(Fraction, st.integers(-(1 << 200), 1 << 200), st.integers(1, 1 << 20)),
        min_size=K.n, max_size=K.n))
    v = K.element(coords)
    for idx in range(K.n):
        box = box_interval(K.embed(v, idx, bits))
        assert box.width() <= Fraction(1, 1 << bits)
        horner = oracle_setup.eval_at(v.power_coords(), box_interval(K.roots(bits + 256)[idx].box),
                                      bits + 288)
        assert horner.width() <= Fraction(1, 1 << bits)
        assert box.intersects(horner)
        # the float image from the same ends is within err of the value
        re, im, err = K.float_image(v, idx, bits)
        for m, iv in ((re, horner.re), (im, horner.im)):
            assert iv.lo - Fraction(err) <= Fraction(m) <= iv.hi + Fraction(err)


def test_limit_counts_work_not_box_cells(gaussian_cm, deg4_cm):
    # the work is the prefixes the walk tries plus the points it finds: a
    # polydisc whose coefficient box (the set-up's bounds |c_j| <= M_j)
    # has more cells than the limit but whose work does not returns its
    # points (Z[i]: 441 cells, 338 work; Q(sqrt5, i): 1225 cells, 332
    # work), and a limit below the point count raises
    for cm, radius_sq in ((gaussian_cm, Fraction(100)), (deg4_cm, Fraction(9))):
        K = cm.field
        eye = [[int(i == j) for j in range(K.n)] for i in range(K.n)]
        radii = [radius_sq] * cm.f
        bounds = _levels(_lll_reduce_basis(eye, cm), 1, cm, radii, None)[0]
        cells = math.prod(2 * m + 1 for m in bounds)
        rows = lattice_points_in_polydisc(eye, 1, cm, radii)
        assert lattice_points_in_polydisc(eye, 1, cm, radii, limit=cells - 1) == rows
        with pytest.raises(WindowTooLarge):
            lattice_points_in_polydisc(eye, 1, cm, radii, limit=len(rows) - 1)


def test_degree8_principality_search_within_work(deg8_cm):
    # the first principality search above 29 over Q(sqrt5, sqrt13, i), at
    # is_principal's radii: the exact per-level ranges meet its 4729 points
    # in about 41 000 units of work, where a walk that pruned its prefixes
    # by a static box and float margins spent 500 574
    cm = deg8_cm
    K = cm.field
    N = 29
    radii = [PRINCIPAL_SLACK * iroot_ceil(N * N * abs(K.disc), 2 * cm.f)] * cm.f
    P = split_prime(K, N)[0]
    assert P.lattice.norm() == N
    rows = lattice_points_in_polydisc(P.lattice.hnf, 1, cm, radii, limit=60_000)
    assert len(rows) == 4729 and len(set(rows)) == 4729


def test_polydisc_matches_oracle_degree8(deg8_cm):
    # O_K at r^2 = 4, and (2 O_K + 1 + b_1) / 3 at r^2 = 1: equal rows, in
    # the same order, to the enumerator that pruned by float prefix tests
    cm = deg8_cm
    n = cm.field.n
    for k, denom, center, radius_sq, count in ((1, 1, None, 4, 45),
                                               (2, 3, [1, 1] + [0] * (n - 2), 1, 12)):
        basis = [[k * int(i == j) for j in range(n)] for i in range(n)]
        radii = [Fraction(radius_sq)] * cm.f
        got = lattice_points_in_polydisc(basis, denom, cm, radii, center=center)
        want = oracle_polydisc.lattice_points_in_polydisc(basis, denom, cm, radii,
                                                          center=center)
        assert len(got) == count
        assert got == tuple(map(tuple, want.tolist()))


def test_fibre_scans_down_from_a_band_point_outside(deg4_cm):
    # z = 3 v, v the last reduced basis row, tops the fibre of prefix 0
    # and -z bottoms it.  r_0^2 lies 2^-60 below a lower end of |sigma_0(z)|^2,
    # so the floats cannot exclude z and the chord keeps c = 3 and c = -3;
    # r_1^2 leaves sigma_1 slack, so the T2 range is wider than the
    # polydisc.  The exact band test rejects both ends, and the scans from
    # them must step inward before the run of points inside.
    cm = deg4_cm
    K = cm.field
    one = K.one()
    eye = [[int(i == j) for j in range(K.n)] for i in range(K.n)]
    v = _lll_reduce_basis(eye, cm)[-1]
    z = FieldElement(K, [3 * c for c in v])
    z2 = abs_sq(z, cm)
    box = z2.embed(cm.pair_reps[0], 200)
    r0 = Fraction(box.re_lo, 1 << box.e) - Fraction(1, 1 << 60)
    box = z2.embed(cm.pair_reps[1], 200)
    r1 = 4 * Fraction(box.re_hi, 1 << box.e) + 4
    rows = lattice_points_in_polydisc(eye, 1, cm, [r0, r1])
    assert tuple(z.num) not in rows and tuple((-z).num) not in rows
    outer = lattice_points_in_polydisc(eye, 1, cm, [r0 + 1, r1])
    assert tuple(z.num) in outer and tuple((-z).num) in outer
    want = tuple(row for row in outer
                 if (abs_sq(FieldElement(K, row), cm) - r0 * one).sign_at(cm.pair_reps[0]) <= 0)
    assert rows == want
