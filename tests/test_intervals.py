from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_intervals
from oracle_intervals import ComplexInterval, sqrt_lower
from udfield.errors import PrecisionExhausted
from udfield.intervals import (RealInterval, exact_ceil, is_dyadic, ln_interval,
                               pi_interval, round_down, round_up, sqrt_upper)

# 50 decimals of pi, a fixed independent reference
PI_50 = Fraction(
    31415926535897932384626433832795028841971693993751, 10 ** 49)


def test_pi_contains_reference():
    # PI_50 truncates pi, so pi lies in [PI_50, PI_50 + 10^-49]
    ulp = Fraction(1, 10 ** 49)
    for bits in (64, 128, 256):
        iv = pi_interval(bits)
        assert PI_50 <= iv.hi and iv.lo <= PI_50 + ulp
        assert iv.width() <= Fraction(1, 1 << bits)
    # 355/113 is a hair above pi and must be excluded at high precision
    iv = pi_interval(64)
    assert not iv.lo <= Fraction(355, 113) <= iv.hi


def test_ln_against_decimal_oracle():
    # stdlib decimal is an independent implementation of ln
    import decimal

    decimal.getcontext().prec = 60
    for q in (2, 36, 101, Fraction(3, 7)):
        ref = Fraction(str(decimal.Decimal(Fraction(q).numerator).ln()
                           - decimal.Decimal(Fraction(q).denominator).ln()))
        iv = ln_interval(q, 128)
        assert iv.lo <= ref <= iv.hi
        assert iv.width() <= Fraction(1, 1 << 128)


def test_ln_rejects_nonpositive():
    with pytest.raises(ValueError):
        ln_interval(0, 64)
    with pytest.raises(ValueError):
        ln_interval(-3, 64)


def test_rounding_brackets_value():
    q = Fraction(22, 7)
    assert round_down(q, 20) <= q <= round_up(q, 20)
    assert is_dyadic(round_down(q, 20)) and is_dyadic(round_up(q, 20))
    assert round_up(q, 20) - round_down(q, 20) <= Fraction(1, 1 << 20)


def test_sqrt_bounds():
    for q in (Fraction(2), Fraction(5), Fraction(1, 3), Fraction(0)):
        lo = sqrt_lower(q, 40)
        hi = sqrt_upper(q, 40)
        assert lo * lo <= q <= hi * hi
        assert hi - lo <= Fraction(1, 1 << 39)


def test_exact_ceil_of_pi_quotient():
    # ceil(18 * 510510^3 / pi); the value was cross-checked against a
    # 400-bit MPFR evaluation
    r = 510510
    target = 18 * r ** 3

    def fn(bits):
        return RealInterval.point(target) * pi_interval(bits).recip(bits)

    assert exact_ceil(fn, start_bits=96) == 762316628416213962


def test_exact_ceil_plain_values():
    assert exact_ceil(lambda b: RealInterval.point(Fraction(7, 2))) == 4
    assert exact_ceil(lambda b: RealInterval.point(3)) == 3
    with pytest.raises(PrecisionExhausted):
        # an interval that always straddles an integer can never decide
        exact_ceil(lambda b: RealInterval(Fraction(1), Fraction(2)), max_bits=256)


def test_interval_comparisons():
    # the oracle's interval class, whose intersects and square the
    # ComplexInterval of the oracles uses
    Interval = oracle_intervals.RealInterval
    a = Interval(Fraction(1), Fraction(2))
    b = Interval(Fraction(3), Fraction(4))
    assert not a.intersects(b)
    assert a.square() == Interval(Fraction(1), Fraction(4))
    c = Interval(Fraction(-2), Fraction(1))
    assert c.square() == Interval(Fraction(0), Fraction(4))
    assert max(abs(c.lo), abs(c.hi)) == 2


def test_complex_mul_against_exact():
    z = ComplexInterval.point(Fraction(3, 4), Fraction(1, 2))
    w = ComplexInterval.point(Fraction(-1, 3), Fraction(2))
    prod = z * w
    # (3/4 + i/2)(-1/3 + 2i) = -5/4 + (4/3) i
    assert prod.re.lo <= Fraction(-5, 4) <= prod.re.hi
    assert prod.im.lo <= Fraction(4, 3) <= prod.im.hi
    assert prod.width() < Fraction(1, 1 << 40)


rationals = st.fractions(min_value=-100, max_value=100)


@st.composite
def point_in_interval(draw):
    lo = draw(rationals)
    width = draw(st.fractions(min_value=0, max_value=10))
    hi = lo + width
    t = draw(st.fractions(min_value=0, max_value=1))
    inside = lo + t * (hi - lo)
    return lo, hi, inside


@settings(max_examples=300, deadline=None)
@given(point_in_interval(), point_in_interval(),
       st.sampled_from(["add", "sub", "mul"]))
def test_interval_soundness(a, b, op):
    # exact op on any selected points lies inside the interval op image
    alo, ahi, ax = a
    blo, bhi, bx = b
    A = RealInterval(round_down(alo, 64), round_up(ahi, 64))
    B = RealInterval(round_down(blo, 64), round_up(bhi, 64))
    if op == "add":
        out, exact = A + B, ax + bx
    elif op == "sub":
        out, exact = A - B, ax - bx
    else:
        out, exact = A * B, ax * bx
    assert out.lo <= exact <= out.hi


@settings(max_examples=200, deadline=None)
@given(point_in_interval(), point_in_interval(),
       point_in_interval(), point_in_interval())
def test_complex_interval_soundness(ra, ia, rb, ib):
    Interval = oracle_intervals.RealInterval
    A = ComplexInterval(Interval(round_down(ra[0], 64), round_up(ra[1], 64)),
                        Interval(round_down(ia[0], 64), round_up(ia[1], 64)))
    B = ComplexInterval(Interval(round_down(rb[0], 64), round_up(rb[1], 64)),
                        Interval(round_down(ib[0], 64), round_up(ib[1], 64)))
    out = A * B
    # exact complex product of the selected rational points
    re = ra[2] * rb[2] - ia[2] * ib[2]
    im = ra[2] * ib[2] + ia[2] * rb[2]
    assert out.re.lo <= re <= out.re.hi
    assert out.im.lo <= im <= out.im.hi
    s = A - B
    assert s.re.lo <= ra[2] - rb[2] <= s.re.hi
    m = A.abs_sq()
    assert m.lo <= ra[2] ** 2 + ia[2] ** 2 <= m.hi
