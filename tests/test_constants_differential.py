"""Differential test: certified pi and ln from fixed-point series on Python
integers against oracle_constants, the mpmath interval arithmetic they
replaced.

pi_interval and ln_interval must return the same endpoints as the oracle
at every precision from 16 to 4096 bits: for q below one, q = 1, numerators
and denominators with more than bits + 8 bits (which the oracle rounds
outward before the logarithm) and dyadic q.  Every enclosure, and every
fixed-point enclosure behind one, must contain the value mpmath computes
at three times the precision.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle_constants
from udfield.intervals import (_floor_ceil, _ln_fixed, _pi_fixed, ln_interval,
                               pi_interval)

BITS = st.integers(16, 4096)


def _frac(x) -> Fraction:
    return Fraction(*mpmath.libmp.to_rational(x._mpf_))


def _mp_ln(q: Fraction, prec: int) -> Fraction:
    """ln q from mpmath at prec bits, with the numerator and denominator exact."""
    exact = max(q.numerator.bit_length(), q.denominator.bit_length())
    with mpmath.workprec(prec + exact):
        return _frac(mpmath.log(q.numerator) - mpmath.log(q.denominator))


@st.composite
def _quotient(draw, kind):
    bits = draw(BITS)
    if kind == "below_one":
        a = draw(st.integers(1, 10 ** 40))
        q = Fraction(a, a + draw(st.integers(1, 10 ** 40)))
    elif kind == "one":
        q = Fraction(1)
    elif kind == "huge":
        past = lambda: st.integers(1 << (bits + 8), 1 << (bits + 8 + draw(st.integers(1, 300))))
        q = Fraction(draw(past()), draw(st.one_of(past(), st.integers(1, 10 ** 6))))
        assume(q.numerator.bit_length() > bits + 8)   # not cancelled down
        q = 1 / q if draw(st.booleans()) else q
    else:   # dyadic
        q = Fraction(draw(st.integers(1, 1 << draw(st.integers(1, 4200)))),
                     1 << draw(st.integers(0, 4200)))
    return bits, q


@settings(max_examples=60, deadline=None)
@given(BITS)
def test_pi_matches_oracle(bits):
    ours, theirs = pi_interval(bits), oracle_constants.pi_interval(bits)
    assert (ours.lo, ours.hi) == (theirs.lo, theirs.hi)


@pytest.mark.parametrize("kind", ["below_one", "one", "huge", "dyadic"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ln_matches_oracle(kind, data):
    bits, q = data.draw(_quotient(kind))
    ours, theirs = ln_interval(q, bits), oracle_constants.ln_interval(q, bits)
    assert (ours.lo, ours.hi) == (theirs.lo, theirs.hi)


@pytest.mark.parametrize("bits", [16, 17, 53, 64, 96, 256, 1000, 4096])
def test_fixed_precisions_match_oracle(bits):
    for q in (2, 36, 101, Fraction(1, 3), Fraction(10 ** 30 + 7, 3 ** 40),
              Fraction(1, 1 << 4000), (1 << 5000) + 1):
        ours, theirs = ln_interval(q, bits), oracle_constants.ln_interval(q, bits)
        assert (ours.lo, ours.hi) == (theirs.lo, theirs.hi), q
    ours, theirs = pi_interval(bits), oracle_constants.pi_interval(bits)
    assert (ours.lo, ours.hi) == (theirs.lo, theirs.hi)


@settings(max_examples=40, deadline=None)
@given(st.integers(16, 2048), st.sampled_from(["below_one", "huge", "dyadic"]), st.data())
def test_enclosures_contain_mpmath_value(bits, kind, data):
    with mpmath.workprec(3 * bits):
        pi = _frac(+mpmath.pi)
    iv = pi_interval(bits)
    assert iv.lo <= pi <= iv.hi
    _, q = data.draw(_quotient(kind))
    iv = ln_interval(q, bits)
    assert iv.lo <= _mp_ln(q, 3 * bits) <= iv.hi


@settings(max_examples=80, deadline=None)
@given(st.integers(24, 1500), st.one_of(st.integers(2, 10 ** 12), st.integers(2, 1 << 3000)))
def test_fixed_point_enclosures_contain_mpmath_value(w, n):
    # the series' error terms are what make these brackets; without them
    # hi falls below the value
    lo, hi, W = _ln_fixed(n, w)
    assert W >= w and hi - lo < 1 << (W - w)
    assert lo <= _mp_ln(Fraction(n), 3 * W) * 2 ** W <= hi
    lo, hi, W = _pi_fixed(w)
    assert W >= w and hi - lo < 1 << (W - w)
    with mpmath.workprec(3 * W):
        assert lo <= _frac(+mpmath.pi) * 2 ** W <= hi


def test_straddling_enclosure_is_refined():
    # an enclosure wide enough at the first guard bits to straddle a
    # rounding boundary gets more guard bits, not a wrong endpoint
    calls = []

    def wide(w):
        calls.append(w)
        lo, hi, W = _pi_fixed(w)
        return (lo - (1 << (W - w + 30)) if len(calls) == 1 else lo), hi, W

    assert _floor_ceil(wide, 72) == _floor_ceil(_pi_fixed, 72)
    assert len(calls) == 2 and calls[1] > calls[0]
