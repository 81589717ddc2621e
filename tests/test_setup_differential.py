"""The certified set-up on Python integers against its Fraction form, kept
verbatim in `oracle_setup` and `oracle_roots`: the field construction
(structure constants, discriminant, integral basis, complex conjugation
and the maps to and from power coordinates), interval Horner, the root
boxes, the basis images, element embeddings, the conjugation that
detect_cm finds by interpolation and the coefficients it rounds at a
proven denominator (against the oracle's simplest rationals), the HNF
of ideal products and principal ideals, conjugation and inversion, the
reduction modulo the minimal polynomial and the conjugate-pair
representatives.
Every comparison is equality, so each rewrite must give the very boxes
and rows the Fraction code gave.  The float images that the enumerator and the
planar image take in place of the Fraction boxes are checked against the
oracle's boxes and against 256-bit embeddings.  LLL has its own
differential tests in test_linalg.py.  The last tests check that the cell
hash skips the same-cell block exactly when no pair in it can be at unit
distance."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_pairsearch
import oracle_roots
import oracle_setup
from oracle_intervals import ComplexInterval, RealInterval, box_interval
from udfield import enumeration, numberfield, roots
from udfield.cli import _field_from_dict, build_field
from udfield.construct import enumerate_window
from udfield.counting import (PlanarFloatSet, _cell_offsets, _cells_per_unit,
                              _pair_distances_ok, count_float, planar_image,
                              unit_pair_indices)
from udfield.errors import DivisionByZero, NotAField, ZeroIdeal
from udfield.ideals import FracIdeal, split_prime
from udfield.intervals import Box
from udfield.linalg import hnf_rows, mat_det
from udfield.numberfield import FieldElement, compositum_multiquadratic, nf_new
from udfield.polynomials import eval_at, make_poly

# the defining polynomials of the fields the tests build, by name or by hand
POLYS = [(0, 1), (1, 0, 1), (5, 0, 1), (-5, 0, 1), (3, 0, 1), (6, -1, 1),
         (-1, -1, 1), (-2, 0, 0, 1), (2, 0, 0, 1), (1, -3, 0, 2), (-2, 0, 0, 0, 1),
         (9, 0, -2, 0, 1), (64, 0, -36, 0, 1), (4, 0, 5, 0, 1), (36, 0, -8, 0, 1),
         (3, 1, 4, 1, 5, 1)]
NAMES = ["adjoin-i:5", "adjoin-i:2", "adjoin-i:3", "adjoin-i:7", "adjoin-i:11",
         "adjoin-i:19", "adjoin-i:5,13"]


def _boxes(rootboxes, interval=lambda box: box):
    return [(interval(r.box).re, interval(r.box).im, r.conj_index, r.is_real)
            for r in rootboxes]


@pytest.mark.parametrize("bits", [64, 128])
def test_root_boxes_match_oracle(bits):
    # the integer certificates against the Fraction ones, from the same seeds
    polys = list(POLYS) + [build_field(name).min_poly for name in NAMES]
    polys += [compositum_multiquadratic(ds).min_poly
              for ds in ([5, 13], [2, 3, -1], [-1, -5], [-1, -3], [2, 5])]
    got = [_boxes(roots.isolate_complex_roots(p, bits), box_interval) for p in polys]
    assert got == [_boxes(oracle_roots.isolate_complex_roots(p, bits, oracle_roots.integer_seeds))
                   for p in polys]


dyadic = st.builds(lambda m, e: Fraction(m, 1 << e), st.integers(-2 ** 70, 2 ** 70),
                   st.integers(0, 90))
coefficient = st.one_of(st.integers(-10 ** 6, 10 ** 6), dyadic,
                        st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9),
                                  st.integers(1, 10 ** 6)))


@settings(max_examples=300, deadline=None)
@given(p=st.lists(coefficient, max_size=9), ends=st.lists(dyadic, min_size=4, max_size=4),
       real=st.booleans(), bits=st.sampled_from([None, 40, 96, 200]))
def test_eval_at_matches_oracle(p, ends, real, bits):
    # a real box is one with imaginary part [0, 0]
    (a, b), (c, d) = sorted(ends[:2]), sorted(ends[2:])
    if real:
        c = d = Fraction(0)
    e = max(q.denominator.bit_length() for q in (a, b, c, d)) - 1
    x = Box(e, *(q.numerator << (e - q.denominator.bit_length() + 1) for q in (a, b, c, d)))
    got = box_interval(eval_at(p, x, bits))
    want = oracle_setup.eval_at(p, ComplexInterval(RealInterval(a, b), RealInterval(c, d)), bits)
    assert (got.re, got.im) == (want.re, want.im)


# x^4 - 8x^2 + 36, the polynomial of sqrt(5) + i, over its power basis Z[theta]
# ("quartic") or over the integral basis of Q(sqrt(5), i) ("quartic-basis")
QUARTIC = (36, 0, -8, 0, 1)
# x^2 - x + 6, whose x coefficient the reduction must not skip
SETUP_FIELDS = ["gaussian", "qsqrt-5", "adjoin-i:5", "adjoin-i:5,13", "quartic", (6, -1, 1)]


def _quartic_basis():
    return compositum_multiquadratic((5, -1)).to_dict()["integral_basis"]


def _setup_field(name):
    if isinstance(name, tuple):
        return nf_new(make_poly(name))
    if name.startswith("quartic"):
        return nf_new(make_poly(QUARTIC), _quartic_basis() if name == "quartic-basis" else None)
    return build_field(name)


def _oracle_field(name):
    # the same field by the Fraction construction
    K = _setup_field(name)
    if isinstance(name, str) and name.startswith("adjoin-i:"):
        return oracle_setup.compositum_multiquadratic(
            [int(d) for d in name[9:].split(",")] + [-1], label=K.label)
    basis = _quartic_basis() if name == "quartic-basis" else None
    return oracle_setup.nf_new(K.min_poly, basis, label=K.label)


def _conj_fractions(cm):
    return [[Fraction(c, cm.conj_den) for c in row] for row in cm.conj_mat]


@pytest.mark.parametrize("name", ["gaussian", "qsqrt-5", "adjoin-i:3", "adjoin-i:5",
                                  "adjoin-i:7", "adjoin-i:5,13", "adjoin-i:-3,5", "quartic",
                                  "quartic-basis", (6, -1, 1), (3, 1, 4, 1, 5, 1)], ids=str)
def test_field_construction_matches_oracle(name):
    # the integer rows of the integral basis, its inverse and conjugation
    # against the Fraction matrices, from the same description; -3 brings
    # the basis element (d + sqrt d)/2 with d < 0 into the conjugation, and
    # the two polynomials bring odd-degree coefficients and a field with no CM
    K, O = _setup_field(name), _oracle_field(name)
    assert (K.mult_table, K.disc, K.basis_traces, K.to_dict(), K.warnings) == (
        O.mult_table, O.disc, O.basis_traces, O.to_dict(), O.warnings)
    # the conjugation the builder attaches, or the one detect_cm finds
    cm = numberfield.detect_cm(K)
    want = O._cm if O._cm_checked else oracle_setup.detect_cm(O)
    assert (cm is None) == (want is None)
    if cm is not None:
        assert (_conj_fractions(cm), cm.pair_reps) == ([list(r) for r in want.conj_mat],
                                                        want.pair_reps)
    assert K.theta().coords == O.theta().coords
    rng = random.Random(31)
    for _ in range(40):
        power = [Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.choice([1, 2, 3, 97, 1 << 40]))
                 for _ in range(rng.randrange(0, 2 * K.n))]
        assert K.from_power_coords(power).coords == O.from_power_coords(power).coords
        row = [rng.choice([0, rng.randrange(-10 ** 6, 10 ** 6)]) for _ in range(K.n)]
        den = rng.choice([1, 2, 7, 841])
        assert (FieldElement(K, row, den).power_coords()
                == oracle_setup.power_coords(FieldElement(O, row, den)))


@pytest.mark.parametrize("name", SETUP_FIELDS, ids=str)
def test_reduction_mod_min_poly_matches_oracle(name):
    # the division-free integer reduction by the monic min_poly against the
    # table of theta powers, on every degree up to 2n - 2, the longest
    # product of two power-basis rows
    K = _setup_field(name)
    rng = random.Random(11)
    for _ in range(60):
        coeffs = [Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.choice([1, 2, 3, 97, 1 << 40]))
                  if rng.random() < 0.8 else Fraction(0)
                  for _ in range(rng.randrange(0, 2 * K.n))]
        D = math.lcm(1, *(c.denominator for c in coeffs))
        got = K._reduce_power_poly([c.numerator * (D // c.denominator) for c in coeffs])
        assert tuple(Fraction(c, D) for c in got) == oracle_setup._reduce_power_poly(K, coeffs)


@pytest.mark.parametrize("name", SETUP_FIELDS + ["adjoin-i:3"], ids=str)
def test_pair_reps_match_oracle(name):
    # the upper-half-plane roots read off the 64-bit boxes against the
    # precision ladder with its sort
    K = _setup_field(name)
    reps = numberfield.detect_cm(K).pair_reps
    assert len(reps) == K.n // 2
    assert reps == oracle_setup._conjugate_pair_reps(K)


def _rationals(ends):
    s, rows = ends
    return [[Fraction(c, 1 << s) for c in row] for row in rows]


@pytest.mark.parametrize("name", ["gaussian", "qsqrt-5", "adjoin-i:5", "adjoin-i:3"])
def test_basis_images_match_oracle(name):
    # the one cache of basis-image ends, aligned from integer Horner boxes,
    # against the Fraction Horner aligned by to_fixed
    K, O = build_field(name), _oracle_field(name)
    for i in range(K.n):
        for bits in (64, 128, 192):
            assert (_rationals(K.basis_image_ends(i, bits))
                    == _rationals(oracle_setup.basis_image_ends(O, i, bits)))


def _dict_built(name, new=nf_new):
    # a field as a JSON sidecar gives it: no construction-time conjugation
    if isinstance(name, tuple):
        return new(make_poly(name))
    K = build_field(name)
    return new(K.min_poly, K.to_dict()["integral_basis"])


@pytest.mark.parametrize("name", [p for p in POLYS if len(p) in (3, 5)] + [
    "gaussian", "qsqrt-5", "adjoin-i:2", "adjoin-i:3", "adjoin-i:5", "adjoin-i:7",
    "adjoin-i:11", "adjoin-i:19", "adjoin-i:5,13"], ids=str)
def test_detect_cm_matches_interval_interpolation(name):
    # the fixed-point candidate, checked on integer rows, against the
    # interval Lagrange interpolation, checked on Fraction matrices, each on
    # a fresh field
    got = numberfield.detect_cm(_dict_built(name))
    want = oracle_setup.detect_cm(_dict_built(name, oracle_setup.nf_new))
    assert (got is None) == (want is None)
    if got is not None:
        assert (_conj_fractions(got), got.pair_reps) == ([list(r) for r in want.conj_mat],
                                                         want.pair_reps)


CONJUGATION_FORMS = (["gaussian", "qsqrt-3", "qsqrt-5", "qsqrt-7"]
                     + [(name, form) for name in ("adjoin-i:5", "adjoin-i:7", "adjoin-i:13",
                                                  "adjoin-i:2,3", "adjoin-i:5,13")
                        for form in ("built", "sidecar", "power basis")]
                     + [(1, 0, 0, 0, 1), (2, -1, 1)])


def _conjugation_form(form):
    # a field as it is built, as its JSON sidecar gives it back (with no
    # construction-time conjugation) or on the power basis of its polynomial
    if isinstance(form, str):
        return build_field(form)
    if isinstance(form[0], int):
        return nf_new(make_poly(form))
    name, how = form
    K = build_field(name)
    if how == "sidecar":
        return _field_from_dict(K.to_dict())
    return K if how == "built" else nf_new(K.min_poly)


@pytest.mark.parametrize("form", CONJUGATION_FORMS, ids=str)
def test_conjugation_rounding_matches_oracle(form):
    # the coefficients rounded to multiples of 1 / (basis_den |disc|)
    # against the Stern-Brocot reading of the interval interpolation, both
    # at 128 bits, and the certified structure against the oracle's
    K = _conjugation_form(form)
    oracle_K = oracle_setup.nf_new(K.min_poly, K.to_dict()["integral_basis"])
    g = numberfield._interpolate_conjugation(K, 128)
    assert all(K.basis_den * K.disc % c.denominator == 0 for c in g)
    assert make_poly(g) == oracle_setup._interpolate_conjugation(oracle_K, 128)
    got, want = numberfield.detect_cm(K), oracle_setup.detect_cm(oracle_K)
    assert (_conj_fractions(got), got.pair_reps) == ([list(r) for r in want.conj_mat],
                                                     want.pair_reps)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), which=st.sampled_from(["gaussian", "qsqrt-5", "adjoin-i:5"]),
       denom=st.sampled_from([1, 3, 7, 25, 841, 2 ** 5 * 3, (1 << 64) + 13]),
       bits=st.sampled_from([48, 64, 128, 256]))
def test_image_box_matches_oracle(data, which, denom, bits, gaussian_cm, qsqrt_m5_cm,
                                  deg4_cm):
    cm = {"gaussian": gaussian_cm, "qsqrt-5": qsqrt_m5_cm, "adjoin-i:5": deg4_cm}[which]
    K = cm.field
    row = data.draw(st.lists(st.one_of(st.just(0), st.integers(-9, 9),
                                       st.integers(-10 ** 30, 10 ** 30)),
                             min_size=K.n, max_size=K.n))
    idx = data.draw(st.integers(0, K.n - 1))
    # FieldElement divides row and denom by their gcd, which leaves the box alone
    got = box_interval(K.embed(FieldElement(K, row, denom), idx, bits))
    want = oracle_setup._image_box(K, row, denom, idx, bits)
    assert (got.re, got.im) == (want.re, want.im)


def _lattices(cm, rng, count):
    n = cm.field.n
    for _ in range(count):
        basis = [[rng.randrange(-40, 41) for _ in range(n)] for _ in range(n)]
        if mat_det(basis) != 0:
            yield enumeration._lll_reduce_basis(basis, cm), rng.choice([1, 3, 25, 841])


@pytest.mark.parametrize("which", ["gaussian", "qsqrt-5", "deg4"])
def test_lattice_float_images_match_oracle_boxes(which, gaussian_cm, qsqrt_m5_cm, deg4_cm):
    # the float columns the enumerator takes of random reduced lattices
    # (float_image at 64 bits) against the Fraction oracle's box of the same
    # row, which holds the exact value: each float is within err plus the
    # box's half width of its midpoint, and err is no larger than the
    # float's rounding and the 64-bit width allow
    cm = {"gaussian": gaussian_cm, "qsqrt-5": qsqrt_m5_cm, "deg4": deg4_cm}[which]
    K = cm.field
    rng = random.Random(17)
    for basis, denom in _lattices(cm, rng, 25):
        for v in basis:
            z = FieldElement(K, v, denom)
            for idx in cm.pair_reps:
                re, im, err = K.float_image(z, idx)
                box = oracle_setup._image_box(K, v, denom, idx, 64)
                for m, iv in ((re, box.re), (im, box.im)):
                    assert abs(Fraction(m) - iv.midpoint()) <= err + iv.width() / 2
                assert err <= max(abs(re), abs(im)) * 2.0 ** -52 + 2.0 ** -64


@pytest.fixture(scope="module")
def image_fields():
    return {name: build_field(name)
            for name in ("gaussian", "qsqrt-5", "adjoin-i:5", "adjoin-i:5,13")}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), which=st.sampled_from(["gaussian", "qsqrt-5", "adjoin-i:5",
                                              "adjoin-i:5,13"]),
       denom=st.sampled_from([1, 3, 7, 25, 841, 2 ** 5 * 3, (1 << 64) + 13]))
def test_float_image_within_err_of_embed(data, which, denom, image_fields):
    # the exact value lies in the 256-bit box, so the float image, within
    # err of it, must be within err of that box
    K = image_fields[which]
    row = data.draw(st.lists(st.one_of(st.just(0), st.integers(-9, 9),
                                       st.integers(-10 ** 30, 10 ** 30)),
                             min_size=K.n, max_size=K.n))
    idx = data.draw(st.integers(0, K.n - 1))
    z = FieldElement(K, row, denom)
    re, im, err = K.float_image(z, idx)
    box = box_interval(K.embed(z, idx, 256))
    for m, iv in ((re, box.re), (im, box.im)):
        assert iv.lo - Fraction(err) <= Fraction(m) <= iv.hi + Fraction(err)


@st.composite
def integer_rows(draw):
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10 ** 12, 10 ** 12))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=2 * n + 2))


@settings(max_examples=400, deadline=None)
@given(rows=integer_rows())
def test_hnf_matches_oracle(rows):
    # random rows, rank-deficient ones among them
    assert hnf_rows(rows) == oracle_setup.hnf_rows(rows)


def test_hnf_of_the_ideal_inverse_system_matches_oracle(deg4):
    # the n + n^2 rows FracIdeal.inverse reduces: [M(h)_k | e_k] and N e_j
    n = deg4.n
    for p in (29, 41):
        for P in split_prime(deg4, p):
            I = P.lattice ** 3
            N = int(I.norm())
            mats = [deg4._mult_matrix(h) for h in I.hnf]
            rows = [[c for m in mats for c in m[k]] + [int(j == k) for j in range(n)]
                    for k in range(n)]
            rows += [[N if i == j else 0 for i in range(n * n + n)] for j in range(n * n)]
            assert hnf_rows(rows) == oracle_setup.hnf_rows(rows)


def _oracle_ideal(K, rows, den):
    # FracIdeal._normalize with the oracle's HNF
    h = oracle_setup.hnf_rows(rows)
    g = math.gcd(den, *(c for r in h for c in r))
    return FracIdeal(K, tuple(tuple(c // g for c in r) for r in h), den // g)


def test_ideal_products_and_principal_ideals_match_oracle(gaussian, qsqrt_m5, deg4):
    rng = random.Random(5)
    for K, p in ((gaussian, 5), (qsqrt_m5, 3), (deg4, 29), (deg4, 41)):
        primes = [pr.lattice for pr in split_prime(K, p)]
        # products of primes, and the rational ideals (p / 3) O and (6) O
        ideals = primes + [a * b for a in primes for b in primes]
        ideals += [FracIdeal.principal(K.from_rational(q)) for q in (Fraction(p, 3), 6)]
        for a in ideals:
            for b in rng.sample(ideals, 4):
                rows = [[sum(x * y for x, y in zip(u, col)) for col in zip(*K._mult_matrix(v))]
                        for v in a.hnf for u in b.hnf]
                assert a * b == _oracle_ideal(K, rows, a.den * b.den)
        for _ in range(40):
            z = FieldElement(K, [rng.randrange(-50, 51) for _ in range(K.n)],
                             rng.choice([1, 2, 29, 75]))
            if z.is_zero():
                continue
            assert FracIdeal.principal(z) == _oracle_ideal(K, K._mult_matrix(z.num), z.den)
    # the zero ideal, and a lattice of rank 2 in Z^4
    with pytest.raises(ZeroIdeal):
        FracIdeal.from_elements(deg4, [deg4.zero()])
    rows = [[1, 2, 0, 0], [2, 4, 0, 0], [0, 0, 3, 1]]
    assert hnf_rows(rows) == oracle_setup.hnf_rows(rows) == ((1, 2, 0, 0), (0, 0, 3, 1))
    with pytest.raises(ZeroIdeal):
        FracIdeal._normalize(deg4, rows, 1)


@pytest.mark.parametrize("which", ["gaussian", "qsqrt-5", "deg4"])
def test_conj_and_inverse_match_oracle(which, gaussian_cm, qsqrt_m5_cm, deg4_cm):
    cm = {"gaussian": gaussian_cm, "qsqrt-5": qsqrt_m5_cm, "deg4": deg4_cm}[which]
    K = cm.field
    fraction_cm = oracle_setup.CMStructure(K, _conj_fractions(cm), cm.f, cm.pair_reps)
    rng = random.Random(23)
    for _ in range(200):
        z = FieldElement(K, [rng.choice([0, rng.randrange(-10 ** 6, 10 ** 6)])
                             for _ in range(K.n)], rng.choice([1, 2, 3, 7, 841]))
        assert cm.conj(z) == oracle_setup.conj(fraction_cm, z)
        if z.is_zero():
            for invert in (FieldElement.inverse, oracle_setup.inverse):
                with pytest.raises(DivisionByZero):
                    invert(z)
        else:
            assert z.inverse() == oracle_setup.inverse(z)


def test_inverse_of_a_zero_divisor_raises_not_a_field_as_before():
    # x^2 - 1 is squarefree but reducible: x - 1 is a zero divisor
    K = nf_new(make_poly([-1, 0, 1]), integral_basis=[[1, 0], [0, 1]])
    z = K.theta() - K.one()
    for invert in (FieldElement.inverse, oracle_setup.inverse):
        with pytest.raises(NotAField):
            invert(z)


# ---------------------------------------------------------------------------
# The same-cell block of the cell hash
# ---------------------------------------------------------------------------

def _oracle_count_hashed(pts, eps):
    order, blocks = oracle_pairsearch._cell_blocks(pts, 1 - eps, 1 + eps)
    x, y = pts[order, 0], pts[order, 1]
    return sum(int(_pair_distances_ok(x[l], y[l], x[r], y[r], eps).sum())
               for l, r in blocks)


@pytest.mark.parametrize("scale, R, cells", [(Fraction(1, 25), Fraction(3, 2), 16),
                                             (Fraction(1), Fraction(9), 1)])
def test_cell_hash_skips_the_same_cell_only_when_no_pair_fits(scale, R, cells,
                                                              gaussian, gaussian_cm):
    import numpy as np

    rows, denom = enumerate_window(gaussian_cm, scale, R)
    xy, err = planar_image(rows, denom, gaussian_cm)
    xs, ys = zip(*xy)
    k = _cells_per_unit(len(xy), max(xs) - min(xs), max(ys) - min(ys))
    assert k == cells
    # the diagonal of a cell, sqrt(2) / k, reaches 1 only for k = 1
    assert ((0, 0) in _cell_offsets(k, 1 - 1e-9, 1 + 1e-9)) == (k == 1)
    array = np.array(rows, dtype=np.int64)
    oxy, oerr = oracle_pairsearch.planar_image(array, denom, gaussian_cm)
    assert (unit_pair_indices(rows, denom, xy, err, gaussian_cm)
            == oracle_pairsearch.unit_pair_indices(array, denom, oxy, oerr, gaussian_cm))
    pts = np.array(xy, dtype=float)
    for eps in (1e-9, 0.05):
        got = count_float(PlanarFloatSet(points=pts, eps=eps), "hashed").unit_pairs
        assert got == _oracle_count_hashed(pts, eps)
        assert got == count_float(PlanarFloatSet(points=pts, eps=eps), "brute").unit_pairs
