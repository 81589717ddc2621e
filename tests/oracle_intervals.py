"""The Fraction interval classes as they stood in `udfield.intervals`, kept
verbatim as the oracles' arithmetic: `RealInterval` with every method it
had, `ComplexInterval`, and the helpers `to_fixed` and `sqrt_lower`.  The
certified complex box of the package is now `udfield.intervals.Box`, on
integer ends; `box_interval` turns one into the ComplexInterval of the
same ends, exactly, so that tests and oracles compare rationals.

The only edit is the imports: the helpers that remain in
`udfield.intervals` are imported from there."""

from __future__ import annotations

import math
from fractions import Fraction

from udfield.errors import DivisionByZero
from udfield.intervals import Rat, fixed_point, is_dyadic, round_down, round_up


def box_interval(box) -> "ComplexInterval":
    """The Box 2^-e ([re_lo, re_hi] + i [im_lo, im_hi]) as a ComplexInterval."""
    d = 1 << box.e
    return ComplexInterval(RealInterval(Fraction(box.re_lo, d), Fraction(box.re_hi, d)),
                           RealInterval(Fraction(box.im_lo, d), Fraction(box.im_hi, d)))


def to_fixed(q: Fraction, s: int) -> int:
    """q 2^s, for a dyadic q whose denominator divides 2^s."""
    return q.numerator << (s - q.denominator.bit_length() + 1)


def sqrt_lower(q: Rat, bits: int) -> Fraction:
    """Dyadic lower bound for sqrt(q), q >= 0, within 2^-bits."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt of negative rational")
    # floor(sqrt(q * 4^bits)) / 2^bits
    scaled = (q.numerator << (2 * bits)) // q.denominator
    return Fraction(math.isqrt(scaled), 1 << bits)


class RealInterval:
    """Closed interval [lo, hi] with dyadic endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        self.lo, self.hi = lo, hi

    def __eq__(self, other):
        return other.__class__ is RealInterval and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    @classmethod
    def point(cls, q: Rat, bits: int = None) -> "RealInterval":
        # non-dyadic rationals get an outward enclosure
        lo, hi, e = fixed_point(q, bits)
        return cls(Fraction(lo, 1 << e), Fraction(hi, 1 << e))

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


class ComplexInterval:
    """Axis-aligned rectangle in the complex plane."""

    __slots__ = ("re", "im")

    def __init__(self, re: RealInterval, im: RealInterval):
        self.re, self.im = re, im

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

    def __complex__(self) -> complex:
        return complex(float(self.re.midpoint()), float(self.im.midpoint()))

    def __repr__(self):
        return f"ComplexInterval({complex(self)!r} ± {float(self.width())/2:.3g})"
