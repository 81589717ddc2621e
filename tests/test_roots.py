from fractions import Fraction

import pytest

from oracle_intervals import ComplexInterval, box_interval
from udfield.errors import NonSquarefree
from udfield.polynomials import make_poly, poly_mul
from udfield.roots import isolate_complex_roots, refine_roots


def bisect_sqrt(n: int, bits: int) -> Fraction:
    """Independent bisection oracle for sqrt(n)."""
    lo, hi = Fraction(0), Fraction(n + 1)
    for _ in range(bits + 4):
        mid = (lo + hi) / 2
        if mid * mid <= n:
            lo = mid
        else:
            hi = mid
    return lo


def test_roots_of_x2_plus_1():
    boxes = isolate_complex_roots(make_poly([1, 0, 1]), 30)
    assert len(boxes) == 2
    assert {b.conj_index for b in boxes} == {0, 1}
    assert boxes[0].conj_index == 1 and boxes[1].conj_index == 0
    assert not boxes[0].is_real
    ims = sorted(float(box_interval(b.box).im.midpoint()) for b in boxes)
    assert abs(ims[0] + 1) < 1e-9 and abs(ims[1] - 1) < 1e-9
    for b in boxes:
        re = box_interval(b.box).re
        assert re.lo <= 0 <= re.hi


def test_roots_of_x2_minus_5_vs_bisection():
    boxes = isolate_complex_roots(make_poly([-5, 0, 1]), 30)
    assert all(b.is_real for b in boxes)
    ref = bisect_sqrt(5, 40)          # ref in [sqrt5 - 6/2^44, sqrt5]
    err = Fraction(6, 1 << 44)
    pos = [box_interval(b.box) for b in boxes if b.box.re_lo + b.box.re_hi > 0][0]
    assert pos.re.lo <= ref + err and ref <= pos.re.hi
    assert pos.im.lo == pos.im.hi == 0


def test_quartic_vs_companion_eigenvalues():
    import numpy as np

    p = make_poly([9, 0, -2, 0, 1])  # x^4 - 2x^2 + 9
    boxes = isolate_complex_roots(p, 50)
    assert len(boxes) == 4
    assert all(not b.is_real for b in boxes)
    # two conjugate pairs
    assert sorted(b.conj_index for b in boxes) == [0, 1, 2, 3]
    comp = np.array([[0, 0, 0, -9], [1, 0, 0, 0], [0, 1, 0, 2], [0, 0, 1, 0]],
                    dtype=float)
    eigs = sorted(np.linalg.eigvals(comp), key=lambda z: (round(z.real, 6), z.imag))
    got = sorted((complex(box_interval(b.box)) for b in boxes),
                 key=lambda z: (round(z.real, 6), z.imag))
    for e, g in zip(eigs, got):
        assert abs(e - g) < 1e-6
    # pairwise disjoint boxes
    for i in range(4):
        for j in range(i + 1, 4):
            assert not boxes[i].box.intersects(boxes[j].box)


def test_width_honors_precision():
    boxes = isolate_complex_roots(make_poly([-2, 0, 0, 1]), 80)  # x^3 - 2
    for b in boxes:
        assert box_interval(b.box).width() <= Fraction(1, 1 << 80)
    reals = [b for b in boxes if b.is_real]
    assert len(reals) == 1


def test_nonsquarefree_rejected():
    with pytest.raises(NonSquarefree):
        isolate_complex_roots(make_poly([1, 2, 1]), 30)


def test_refinement_completeness():
    # refining by 10 more bits keeps one root per old box, and the monic
    # polynomial rebuilt from midpoints matches p within interval error
    p = make_poly([9, 0, -2, 0, 1])
    boxes = isolate_complex_roots(p, 40)
    finer = refine_roots(p, boxes, 50)
    for old, new in zip(boxes, finer):
        assert new.box.intersects(old.box)
        assert box_interval(new.box).width() <= box_interval(old.box).width()
    poly = [ComplexInterval.point(1)]
    for b in finer:
        box = box_interval(b.box)
        mid_re, mid_im = box.re.midpoint(), box.im.midpoint()
        # multiply poly by (x - midpoint)
        mid = ComplexInterval.point(mid_re, mid_im)
        new = [ComplexInterval.point(0) for _ in range(len(poly) + 1)]
        for t, c in enumerate(poly):
            new[t] = new[t] + c * (-mid)
            new[t + 1] = new[t + 1] + c
        poly = new
    for coeff, expect in zip(poly, p):
        mid = complex(coeff)
        assert abs(mid - expect) < 1e-10


def test_degree_16_isolation():
    # product of 8 quadratics x^2 + k has 16 distinct imaginary roots
    p = (1,)
    for k in range(1, 9):
        p = poly_mul(p, make_poly([k, 0, 1]))
    boxes = isolate_complex_roots(make_poly(p), 40)
    assert len(boxes) == 16
    assert all(not b.is_real for b in boxes)


def test_meeting_disks_double_the_precision(monkeypatch):
    # x^3 - 2 (2^24 x - 1)^2 (Mignotte) has two real roots near 2^-24 about
    # 2^-58 apart: their inclusion disks at the first 64 bits meet, so
    # _isolate certifies again at 128 bits
    import udfield.roots as roots

    certify, tries = roots._certify, []

    def recorded(p, seeds, bits):
        disks = certify(p, seeds, bits)
        tries.append((bits, disks is None))
        return disks

    monkeypatch.setattr(roots, "_certify", recorded)
    a = 1 << 24
    p = make_poly([-2, 4 * a, -2 * a * a, 1])
    boxes = isolate_complex_roots(p, 16)
    assert tries == [(64, True), (128, False)]
    # each real box brackets a sign change of p, and the boxes are disjoint
    assert len(boxes) == 3 and all(b.is_real for b in boxes)

    def value(x):
        return sum(c * x ** k for k, c in enumerate(p))

    ends = [(Fraction(b.box.re_lo, 1 << b.box.e), Fraction(b.box.re_hi, 1 << b.box.e))
            for b in boxes]
    assert all(value(lo) * value(hi) < 0 for lo, hi in ends)
    assert all(hi < lo for (_, hi), (lo, _) in zip(ends, ends[1:]))
    assert ends[1][0] - ends[0][1] < Fraction(1, 1 << 57)
