"""Certified interval arithmetic with exact dyadic-rational endpoints.

Endpoints are Fractions whose denominators are powers of two, so ring
operations (add/sub/mul) are exact; only division, square roots and
transcendental constants round, and they round outward.  Soundness
contract: for any operation, the exact result on any points chosen inside
the input intervals lies inside the output interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .errors import DivisionByZero, PrecisionExhausted

Rat = Union[int, Fraction]

DEFAULT_PRECISION_CAP = 4096


def is_dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


def round_down(q: Rat, bits: int) -> Fraction:
    """Largest multiple of 2^-bits that is <= q."""
    q = Fraction(q)
    scaled = q.numerator * (1 << bits)
    return Fraction(scaled // q.denominator, 1 << bits)


def round_up(q: Rat, bits: int) -> Fraction:
    q = Fraction(q)
    scaled = q.numerator * (1 << bits)
    return Fraction(-((-scaled) // q.denominator), 1 << bits)


def sqrt_lower(q: Rat, bits: int) -> Fraction:
    """Dyadic lower bound for sqrt(q), q >= 0, within 2^-bits."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt of negative rational")
    # floor(sqrt(q * 4^bits)) / 2^bits
    scaled = (q.numerator << (2 * bits)) // q.denominator
    return Fraction(math.isqrt(scaled), 1 << bits)


def sqrt_upper(q: Rat, bits: int) -> Fraction:
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt of negative rational")
    scaled = -((-(q.numerator << (2 * bits))) // q.denominator)
    r = math.isqrt(scaled)
    if r * r < scaled:
        r += 1
    return Fraction(r, 1 << bits)


@dataclass(frozen=True)
class RealInterval:
    """Closed interval [lo, hi] with dyadic endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, q: Rat, bits: int = None) -> "RealInterval":
        q = Fraction(q)
        if is_dyadic(q):
            return cls(q, q)
        # non-dyadic rationals get an outward enclosure
        if bits is None:
            bits = q.denominator.bit_length() + 64
        return cls(round_down(q, bits), round_up(q, bits))

    def __add__(self, other: "RealInterval") -> "RealInterval":
        return RealInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RealInterval") -> "RealInterval":
        return RealInterval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "RealInterval":
        return RealInterval(-self.hi, -self.lo)

    def __mul__(self, other: "RealInterval") -> "RealInterval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RealInterval(min(products), max(products))

    def scale(self, q: Rat) -> "RealInterval":
        q = Fraction(q)
        if not is_dyadic(q):
            return self * RealInterval.point(q)
        if q >= 0:
            return RealInterval(self.lo * q, self.hi * q)
        return RealInterval(self.hi * q, self.lo * q)

    def square(self) -> "RealInterval":
        if self.lo >= 0:
            return RealInterval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return RealInterval(self.hi * self.hi, self.lo * self.lo)
        return RealInterval(Fraction(0), max(self.lo * self.lo, self.hi * self.hi))

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def contains(self, q: Rat) -> bool:
        return self.lo <= q <= self.hi

    def recip(self, bits: int) -> "RealInterval":
        if self.contains_zero():
            raise DivisionByZero("interval reciprocal across zero")
        return RealInterval(round_down(Fraction(1) / self.hi, bits),
                            round_up(Fraction(1) / self.lo, bits))

    def div(self, other: "RealInterval", bits: int) -> "RealInterval":
        return self * other.recip(bits)

    def sqrt(self, bits: int) -> "RealInterval":
        if self.hi < 0:
            raise ValueError("sqrt of negative interval")
        lo = max(self.lo, Fraction(0))
        return RealInterval(sqrt_lower(lo, bits), sqrt_upper(self.hi, bits))

    def round_outward(self, bits: int) -> "RealInterval":
        return RealInterval(round_down(self.lo, bits), round_up(self.hi, bits))

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def magnitude(self) -> Fraction:
        return max(abs(self.lo), abs(self.hi))

    def intersects(self, other: "RealInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __float__(self) -> float:
        return float(self.midpoint())

    def __repr__(self):
        return f"RealInterval({float(self.lo)!r}, {float(self.hi)!r})"


@dataclass(frozen=True)
class ComplexInterval:
    """Axis-aligned rectangle in the complex plane."""

    re: RealInterval
    im: RealInterval

    @classmethod
    def point(cls, re: Rat, im: Rat = 0, bits: int = None) -> "ComplexInterval":
        return cls(RealInterval.point(re, bits), RealInterval.point(im, bits))

    def __add__(self, other: "ComplexInterval") -> "ComplexInterval":
        return ComplexInterval(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexInterval") -> "ComplexInterval":
        return ComplexInterval(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ComplexInterval":
        return ComplexInterval(-self.re, -self.im)

    def __mul__(self, other: "ComplexInterval") -> "ComplexInterval":
        return ComplexInterval(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)

    def scale(self, q: Rat) -> "ComplexInterval":
        return ComplexInterval(self.re.scale(q), self.im.scale(q))

    def conjugate(self) -> "ComplexInterval":
        return ComplexInterval(self.re, -self.im)

    def abs_sq(self) -> RealInterval:
        return self.re.square() + self.im.square()

    def recip(self, bits: int) -> "ComplexInterval":
        m = self.abs_sq()
        if m.contains_zero():
            raise DivisionByZero("complex interval reciprocal across zero")
        inv = m.recip(bits)
        return ComplexInterval(self.re * inv, (-self.im) * inv)

    def div(self, other: "ComplexInterval", bits: int) -> "ComplexInterval":
        return self * other.recip(bits)

    def intersects(self, other: "ComplexInterval") -> bool:
        return self.re.intersects(other.re) and self.im.intersects(other.im)

    def width(self) -> Fraction:
        return max(self.re.width(), self.im.width())

    def round_outward(self, bits: int) -> "ComplexInterval":
        return ComplexInterval(self.re.round_outward(bits), self.im.round_outward(bits))

    def __complex__(self) -> complex:
        return complex(float(self.re.midpoint()), float(self.im.midpoint()))

    def __repr__(self):
        return f"ComplexInterval({complex(self)!r} ± {float(self.width())/2:.3g})"


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


def exact_ceil(fn: Callable[[int], RealInterval], start_bits: int = 64,
               max_bits: int = DEFAULT_PRECISION_CAP) -> int:
    """Ceiling of the exact value enclosed by fn(bits), refined until unambiguous.

    fn must return nested-or-tighter enclosures of one fixed real number as
    bits grows.  Raises PrecisionExhausted past max_bits.
    """
    bits = start_bits
    while True:
        box = fn(bits)
        lo, hi = box.lo, box.hi
        clo = -((-lo.numerator) // lo.denominator)
        chi = -((-hi.numerator) // hi.denominator)
        if clo == chi:
            return clo
        if bits >= max_bits:
            raise PrecisionExhausted(
                f"ceiling still ambiguous at {bits} bits: [{lo}, {hi}]")
        bits = min(2 * bits, max_bits)
