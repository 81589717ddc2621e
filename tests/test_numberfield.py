import random
from fractions import Fraction

import pytest

from udfield.errors import AlreadyImaginary, DependentGenerators, DivisionByZero
from udfield.intervals import RealInterval, sqrt_lower, sqrt_upper
from udfield.numberfield import (abs_sq, adjoin_i, compositum_multiquadratic,
                                 detect_cm, is_unit_modulus, nf_new)
from udfield.polynomials import make_poly, resultant


def quadratic_disc_oracle(d):
    """Classical discriminant of Q(sqrt(d)) for squarefree d."""
    return d if d % 4 == 1 else 4 * d


def test_quadratic_fields_disc():
    assert nf_new(make_poly([1, 0, 1])).disc == -4
    assert nf_new(make_poly([5, 0, 1])).disc == quadratic_disc_oracle(-5) == -20
    assert nf_new(make_poly([-1, -1, 1])).disc == quadratic_disc_oracle(5) == 5
    for d in (-1, -5, -23, 5, 13, 17, -163, 6, -6):
        K = nf_new(make_poly([-d, 0, 1]))
        assert K.disc == quadratic_disc_oracle(d), d


def test_element_arithmetic(gaussian):
    K = gaussian
    i = K.theta()
    two_plus_i = K.one() * 2 + i
    two_minus_i = K.one() * 2 - i
    assert (two_plus_i * two_minus_i) == K.from_rational(5)
    inv = (K.one() + i).inverse()
    assert inv == K.element([Fraction(1, 2), Fraction(-1, 2)])
    assert (K.one() + i) * inv == K.one()
    with pytest.raises(DivisionByZero):
        K.zero().inverse()


def test_norm_form_qsqrt_m5(qsqrt_m5):
    K = qsqrt_m5
    s = K.theta()
    assert (K.one() * 2 + s) * (K.one() * 2 - s) == K.from_rational(9)


def test_detect_cm_cases(gaussian, sqrt5_field):
    cm = detect_cm(gaussian)
    assert cm is not None and cm.f == 1
    i = gaussian.theta()
    assert cm.conj(i) == -i
    assert detect_cm(sqrt5_field) is None          # totally real
    quartic = nf_new(make_poly([-2, 0, 0, 0, 1]))  # x^4 - 2: two real roots
    assert detect_cm(quartic) is None


def test_detect_cm_reconstruction_without_hint():
    # a CM field built with nf_new has no construction-time conjugation:
    # x^4 - 8x^2 + 36 is the compositum min poly of Q(sqrt5, i)
    K = nf_new(make_poly([36, 0, -8, 0, 1]))
    cm = detect_cm(K)
    assert cm is not None and cm.f == 2


def test_abs_sq_examples(gaussian, gaussian_cm, qsqrt_m5, qsqrt_m5_cm):
    K = gaussian
    z = K.element([Fraction(3, 5), Fraction(4, 5)])
    assert abs_sq(z, gaussian_cm) == K.one()
    assert is_unit_modulus(z, gaussian_cm)
    assert is_unit_modulus(K.theta(), gaussian_cm)
    one_plus_i = K.one() + K.theta()
    assert abs_sq(one_plus_i, gaussian_cm) == K.from_rational(2)
    assert not is_unit_modulus(one_plus_i, gaussian_cm)
    w = qsqrt_m5.element([Fraction(2, 3), Fraction(1, 3)])
    assert abs_sq(w, qsqrt_m5_cm) == qsqrt_m5.one()


def test_compositum_examples():
    single = compositum_multiquadratic([5])
    assert single.n == 2 and single.disc == 5
    L = compositum_multiquadratic([5, 13])
    assert L.n == 4 and L.is_totally_real()
    # resultant oracle: min poly of sqrt5 + sqrt13 is x^4 - 36x^2 + 64
    assert L.min_poly == make_poly([64, 0, -36, 0, 1])
    K = compositum_multiquadratic([-1, 5])
    assert K.n == 4 and detect_cm(K) is not None
    from udfield.errors import NotSquarefree

    with pytest.raises(NotSquarefree):
        compositum_multiquadratic([5, 20])
    with pytest.raises(DependentGenerators):
        compositum_multiquadratic([2, 3, 6])
    with pytest.raises(DependentGenerators):
        compositum_multiquadratic([5, 13, 65])


def test_compositum_min_poly_sympy_oracle():
    import sympy

    L = compositum_multiquadratic([5, 13])
    x = sympy.symbols("x")
    oracle = sympy.minimal_polynomial(sympy.sqrt(5) + sympy.sqrt(13), x)
    ours = sum(int(c) * x ** i for i, c in enumerate(L.min_poly))
    assert sympy.expand(oracle - ours) == 0


def test_adjoin_i(gaussian, sqrt5_field):
    K2 = adjoin_i(nf_new(make_poly([0, 1]), label="Q"))
    assert K2.n == 2 and K2.disc == -4
    K4 = adjoin_i(sqrt5_field)
    assert K4.n == 4
    cm = detect_cm(K4)
    assert cm is not None and cm.f == 2
    K8 = adjoin_i(compositum_multiquadratic([5, 13]))
    assert K8.n == 8 and detect_cm(K8).f == 4
    with pytest.raises(AlreadyImaginary):
        adjoin_i(gaussian)


def test_minkowski_embed_examples(deg4, deg4_cm):
    K = deg4
    ones = [K.one().embed(i, 40) for i in deg4_cm.pair_reps]
    assert len(ones) == deg4_cm.f == 2
    for box in ones:
        assert box.re.contains(1) and box.im.contains(0)
    # sqrt5 embeds with modulus 2.2360679... in both coordinates (the two
    # pair representatives see sqrt5 with opposite signs)
    from udfield.ideals import _mq_subset_sqrt

    sqrt5 = _mq_subset_sqrt(K, 1)
    lo = sqrt_lower(Fraction(5), 50)
    hi = sqrt_upper(Fraction(5), 50)
    for box in [sqrt5.embed(i, 60) for i in deg4_cm.pair_reps]:
        m2 = box.abs_sq()
        assert m2.lo <= 5 <= m2.hi or (lo * lo <= m2.hi and m2.lo <= hi * hi)
        assert box.im.contains(0)


def test_norm_against_resultant_oracle(deg4):
    # prod of embeddings = norm = res(min_poly, coord poly) for monic min_poly
    rng = random.Random(17)
    K = deg4
    for _ in range(25):
        z = K.element([Fraction(rng.randrange(-4, 5), rng.choice([1, 2]))
                       for _ in range(K.n)])
        coord_poly = z.power_coords()
        res = resultant(K.min_poly, coord_poly)
        assert z.norm() == res
        # interval product of all embeddings contains the norm
        prod = None
        for idx in range(K.n):
            box = z.embed(idx, 60)
            prod = box if prod is None else prod * box
        assert prod.re.lo <= z.norm() <= prod.re.hi
        assert prod.im.contains_zero()


def test_cm_modulus_consistency(deg4, deg4_cm):
    # |sigma_i(z)|^2 equals the matching real embedding of abs_sq(z)
    rng = random.Random(3)
    K, cm = deg4, deg4_cm
    for _ in range(1000):
        z = K.element([Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 3]))
                       for _ in range(K.n)])
        t = abs_sq(z, cm)
        for i, rep in enumerate(cm.pair_reps):
            m2 = z.embed(rep, 50).abs_sq()
            tv = t.embed(rep, 50)
            assert tv.re.intersects(m2)
            assert tv.im.contains_zero()


def test_unit_modulus_interval_property(gaussian, gaussian_cm):
    K, cm = gaussian, gaussian_cm
    z = K.element([Fraction(3, 5), Fraction(4, 5)])
    for box in [z.embed(i, 256) for i in cm.pair_reps]:
        m2 = box.abs_sq()
        assert m2.lo <= 1 <= m2.hi
        assert abs(m2.hi - 1) < Fraction(1, 1 << 200)
        assert abs(1 - m2.lo) < Fraction(1, 1 << 200)


def test_covolume_formula(gaussian, gaussian_cm, deg4, deg4_cm):
    for K, cm in ((gaussian, gaussian_cm), (deg4, deg4_cm)):
        _check_covolume(K, cm)


def _check_covolume(K, cm, bits=80):
    """covol of the Minkowski image of O_K equals 2^-f sqrt|disc|."""
    from udfield.linalg import mat, mat_det

    n = K.n
    rows = []
    for j in range(n):
        b = K.element([Fraction(1 if t == j else 0) for t in range(n)])
        row = []
        for rep in cm.pair_reps:
            box = b.embed(rep, bits)
            row.extend([box.re, box.im])
        rows.append(row)
    # interval determinant via Fraction endpoints: evaluate with exact
    # midpoint +- width bound through a permanent-free expansion is costly;
    # use Gaussian elimination on midpoints and bound with the Gram check
    det = _interval_det(rows)
    if det.hi < 0:
        det = -det
    assert not det.contains_zero()
    target_lo = sqrt_lower(Fraction(abs(K.disc)), bits) / (1 << cm.f)
    target_hi = sqrt_upper(Fraction(abs(K.disc)), bits) / (1 << cm.f)
    assert det.lo <= target_hi and target_lo <= det.hi


def _interval_det(rows):
    n = len(rows)
    import itertools

    if n <= 4:
        total = RealInterval.point(0)
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = list(perm)
            # parity via inversion count
            inv = sum(1 for i in range(n) for j in range(i + 1, n)
                      if seen[i] > seen[j])
            term = RealInterval.point(1 if inv % 2 == 0 else -1)
            for i in range(n):
                term = term * rows[i][perm[i]]
            total = total + term
        return total if total.lo <= total.hi else total
    raise NotImplementedError


def test_field_json_roundtrip(deg4, tmp_path):
    import json

    from udfield.cli import load_field_json

    path = tmp_path / "field.json"
    path.write_text(json.dumps(deg4.to_dict()))
    K2 = load_field_json(str(path))
    assert K2.min_poly == deg4.min_poly
    assert K2.disc == deg4.disc
    assert K2.basis_mat == deg4.basis_mat


def test_power_basis_fallback_warning():
    K = nf_new(make_poly([2, 0, 0, 1]))  # x^3 + 2, no basis supplied
    assert K.index_conditional
    assert any("index-conditional" in w for w in K.warnings)


def test_sign_at_real_embeddings(sqrt5_field):
    F = sqrt5_field
    theta = F.theta()                      # +-sqrt(5) at the two real roots
    z = theta - F.from_rational(2)         # sqrt5 - 2 and -sqrt5 - 2
    assert sorted(z.sign_at(i) for i in range(2)) == [-1, 1]
    assert [(theta * theta - F.from_rational(5)).sign_at(i) for i in range(2)] == [0, 0]
    # (sqrt5 - 2)^40 ~ 1e-25 at one root: below a 64-bit box, so precision doubles
    tiny = (z * z) ** 20
    assert [tiny.sign_at(i) for i in range(2)] == [1, 1]
    assert [(-tiny).sign_at(i) for i in range(2)] == [-1, -1]


_EMBED_CODE = """\
import sys
from udfield.cli import build_field
from udfield.numberfield import detect_cm
K = build_field("adjoin-i:5")
cm = detect_cm(K)
if sys.argv[1] == "warm":
    K.element([0, 1, 0, 0]).embed(cm.pair_reps[0], 512)
for j in range(K.n):
    b = K.element([1 if k == j else 0 for k in range(K.n)])
    for rep in cm.pair_reps:
        box = b.embed(rep, 128)
        print(box.re.lo, box.re.hi, box.im.lo, box.im.hi)
"""


def test_embed_box_independent_of_history(tmp_path):
    # a box is a function of (z, root, bits): a fresh process and one that
    # has already refined the roots to 512 bits must agree exactly
    import os
    import subprocess
    import sys

    import udfield

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(udfield.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = [subprocess.run([sys.executable, "-c", _EMBED_CODE, mode], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True).stdout
           for mode in ("fresh", "warm")]
    assert out[0] == out[1] and len(out[0].splitlines()) == 8
