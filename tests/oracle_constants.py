"""Certified pi and ln as they stood on mpmath interval arithmetic:
`_mpf_tuple_to_fraction`, `_iv_to_interval`, `pi_interval` and
`ln_interval`, verbatim, kept as the oracle for udfield.intervals (whose
constants come from fixed-point series on Python integers).  mpmath is
needed only here."""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from udfield.intervals import RealInterval

Rat = Union[int, Fraction]


def _mpf_tuple_to_fraction(t) -> Fraction:
    sign, man, exp, _ = t
    v = Fraction(int(man), 1)
    v = v * (1 << exp) if exp >= 0 else Fraction(v, 1 << -exp)
    return -v if sign else v


def _iv_to_interval(x) -> RealInterval:
    a, b = x._mpi_
    return RealInterval(_mpf_tuple_to_fraction(a), _mpf_tuple_to_fraction(b))


def pi_interval(bits: int) -> RealInterval:
    """Certified enclosure of pi with width <= 2^-bits."""
    if bits < 16:
        raise ValueError("precision_bits must be >= 16")
    from mpmath import iv

    old = iv.prec
    try:
        iv.prec = bits + 8
        return _iv_to_interval(iv.pi)
    finally:
        iv.prec = old


def ln_interval(q: Rat, bits: int) -> RealInterval:
    """Certified enclosure of ln(q) for a positive rational q."""
    if bits < 16:
        raise ValueError("precision_bits must be >= 16")
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log of non-positive rational")
    from mpmath import iv, mpf

    old = iv.prec
    try:
        iv.prec = bits + 8
        num = iv.log(iv.mpf(q.numerator))
        den = iv.log(iv.mpf(q.denominator))
        return _iv_to_interval(num - den)
    finally:
        iv.prec = old
