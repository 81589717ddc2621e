"""Differential test: field elements as one integer row over one
denominator against the Fraction-coordinate elements of
oracle_fieldelement, on random elements with large, non-dyadic
denominators over Q(i), Q(sqrt(-5)) and Q(sqrt(5), i).

Every result must equal the oracle's, and must be stored in lowest terms:
den > 0 and gcd(den, *num) = 1, the form equality and hashing rely on.
"""

import math
from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_fieldelement as oracle
from udfield.numberfield import abs_sq, detect_cm

# odd prime powers and their products: denominators no power of two divides
ODD = st.lists(st.sampled_from([3, 5, 7, 9, 11, 13, 25, 27, 49, 101, 10007]),
               min_size=1, max_size=4).map(math.prod)


@lru_cache(maxsize=None)
def _oracle_field(K):
    return oracle.OracleField(K)


@st.composite
def coords(draw, n):
    """n rationals over a shared odd denominator times a small extra one,
    with numerators up to 2^80 and some of them zero or sharing a factor
    with the denominator, so sums and products cancel."""
    common = draw(ODD)
    out = []
    for _ in range(n):
        num = draw(st.one_of(st.just(0), st.integers(-(1 << 80), 1 << 80),
                             st.integers(-50, 50).map(lambda c: c * common)))
        out.append(Fraction(num, common * draw(st.sampled_from([1, 2, 3, 6, 35]))))
    return out


def _pair(K, cs):
    return K.element(cs), _oracle_field(K).element(cs)


def _same(z, w):
    """z (integer row over one denominator) equals the oracle element w, and
    z is in lowest terms."""
    assert z.den > 0 and math.gcd(z.den, *z.num) == 1
    den = math.lcm(1, *(q.denominator for q in w.coords))
    assert (z.num, z.den) == (tuple(q.numerator * (den // q.denominator) for q in w.coords), den)
    assert z.coords == w.coords
    assert z.is_integral() == w.is_integral()
    assert z.is_zero() == w.is_zero()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), which=st.sampled_from(["gaussian", "qsqrt_m5", "deg4"]),
       e=st.integers(-3, 3))
def test_field_element_matches_oracle(data, which, e, gaussian, qsqrt_m5, deg4):
    K = {"gaussian": gaussian, "qsqrt_m5": qsqrt_m5, "deg4": deg4}[which]
    cm = detect_cm(K)
    a, oa = _pair(K, data.draw(coords(K.n)))
    b, ob = _pair(K, data.draw(coords(K.n)))
    q = data.draw(st.fractions(min_value=-100, max_value=100, max_denominator=99))
    _same(a, oa)
    _same(a + b, oa + ob)
    _same(a - b, oa - ob)
    _same(a - a, oa - oa)
    _same(-a, -oa)
    _same(a * b, oa * ob)
    _same(a * q, oa * q)
    _same(cm.conj(a), oracle.conj(oa, cm))
    _same(abs_sq(a, cm), oracle.abs_sq(oa, cm))
    assert Fraction(K._trace_coords(a.num), a.den) == oa.trace()
    assert a.norm() == oa.norm()
    if not a.is_zero():
        _same(a.inverse(), oa.inverse())
        _same(b / a, ob / oa)
        _same(a ** e, oa ** e)
    elif e >= 0:
        _same(a ** e, oa ** e)
    # == and hash agree with the oracle's coordinate equality
    c, oc = _pair(K, data.draw(st.sampled_from([list(a.coords), list(b.coords)])))
    assert (a == c) == (oa == oc) and (b == c) == (ob == oc)
    assert (a == c) <= (hash(a) == hash(c))
    assert (a + b - b == a) and hash(a + b - b) == hash(a)
