"""Differential test: root isolation from integer Aberth seeds against
oracle_roots, the isolation from mpmath.polyroots seeds.

Both certify each box with the same inclusion disk, so at 64, 128 and 256
bits they must agree on the number of roots, the realness and conjugate
partner of each root and the canonical order, and the i-th boxes of the
two must intersect (each holds the same root).  Fixed hard cases: Mignotte
polynomials with close roots, cyclotomic polynomials up to degree 16, the
degree-8 Wilkinson polynomial and the minimal polynomials of the CLI's
fields.  Random squarefree integer polynomials of degree 1..8 with
coefficients up to 2^40, a quarter of them up to 2^200: these may have
distinct real parts closer than the seeds resolve (roots within 2^-190 of
the imaginary axis beside roots near 2^49), so there the order need only
agree where the boxes' real parts are disjoint.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle_roots
from oracle_intervals import box_interval
from oracle_polynomials import poly_divmod
from udfield.errors import PrecisionExhausted
from udfield.polynomials import is_squarefree, make_poly, poly_mul
from udfield.roots import isolate_complex_roots

BITS = (64, 128, 256)


def _agree(p, bits, theirs, same_order=True):
    """Our isolation of p matches the oracle's boxes `theirs`: the i-th
    root of ours lies in the box of root perm[i] of theirs, with the same
    realness and conjugate partner.  The canonical order sorts by box
    midpoints, so where two real parts lie within the boxes' widths of each
    other it may differ; with same_order it must agree everywhere."""
    ours = isolate_complex_roots(p, bits)
    boxes = [box_interval(a.box) for a in ours]
    assert len(ours) == len(theirs) == len(p) - 1
    perm = []
    for box in boxes:
        assert box.width() <= Fraction(1, 1 << bits)
        hits = [j for j, b in enumerate(theirs) if box.intersects(b.box)]
        assert len(hits) == 1
        perm.append(hits[0])
    assert sorted(perm) == list(range(len(ours)))
    for i, a in enumerate(ours):
        b = theirs[perm[i]]
        assert a.is_real == b.is_real
        assert perm[a.conj_index] == b.conj_index
        for j in range(i + 1, len(ours)):
            if same_order or boxes[i].re.hi < boxes[j].re.lo:
                assert perm[i] < perm[j]


def _mignotte(n, a):
    """x^n - 2 (a x - 1)^2: two real roots within about 2 a^-(n+2)/2 of 1/a."""
    return make_poly([-2, 4 * a, -2 * a * a] + [0] * (n - 3) + [1])


def _cyclotomic(n):
    p = make_poly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            p, r = poly_divmod(p, _cyclotomic(d))
            assert not any(r)
    return make_poly([int(c) for c in p])


def _wilkinson(n):
    p = (1,)
    for k in range(1, n + 1):
        p = poly_mul(p, (-k, 1))
    return make_poly(p)


def _field_poly(name):
    from udfield.cli import build_field

    return build_field(name).min_poly


FIXED = ([("mignotte(5, 100)", lambda: _mignotte(5, 100)),
          ("mignotte(7, 1000)", lambda: _mignotte(7, 1000)),
          ("x^12 + 1", lambda: make_poly([1] + [0] * 11 + [1])),
          ("wilkinson(8)", lambda: _wilkinson(8)),
          ("(x^2 + 1)(x^2 + 4)", lambda: make_poly([4, 0, 5, 0, 1])),
          ("((x-1)^2 + 1)((x-1)^2 + 4)", lambda: poly_mul((2, -2, 1), (5, -2, 1)))]
         + [(f"cyclotomic({n})", lambda n=n: _cyclotomic(n))
            for n in (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24, 32)]
         + [(name, lambda name=name: _field_poly(name))
            for name in ("gaussian", "qsqrt-5", "qsqrt-23", "adjoin-i:5")])


@pytest.mark.parametrize("name, make", FIXED, ids=[name for name, _ in FIXED])
def test_fixed_polynomials_match_oracle(name, make):
    p = make()
    for bits in BITS:
        _agree(p, bits, oracle_roots.isolate_complex_roots(p, bits))


LARGE = st.integers(-(1 << 40), 1 << 40)
COEFF = st.one_of(LARGE, LARGE, st.integers(-8, 8), st.integers(-(1 << 200), 1 << 200))


@settings(max_examples=30, deadline=None)
@given(st.lists(COEFF, min_size=2, max_size=9))
def test_random_polynomials_match_oracle(coeffs):
    p = make_poly(coeffs)
    assume(len(p) >= 2 and is_squarefree(p))
    for bits in BITS:
        try:
            theirs = oracle_roots.isolate_complex_roots(p, bits)
        except PrecisionExhausted:   # mpmath did not converge: nothing to compare
            return
        _agree(p, bits, theirs, same_order=False)
