"""Certified interval arithmetic with exact dyadic-rational endpoints.

Endpoints are Fractions whose denominators are powers of two, so ring
operations (add/sub/mul) are exact; only division, square roots and
transcendental constants round, and they round outward.  Soundness
contract: for any operation, the exact result on any points chosen inside
the input intervals lies inside the output interval.

pi and ln come from fixed-point series on Python integers with explicit
error bounds: Machin formulas, and square-root argument reduction (Brent
1976) before a short atanh series.  Each is rounded down and up at bits + 8
significant bits, with more guard bits while an enclosure straddles a
boundary; ln(a/b) rounds a, b and ln a - ln b outward, as mpmath.iv does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Tuple, Union

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


def float_up(q: Rat) -> float:
    """The least float >= q."""
    x = float(q)
    return x if Fraction(x) >= q else math.nextafter(x, math.inf)


def float_columns(ivs):
    """Float midpoints of the intervals, with exact bounds on their error."""
    exact = [iv.midpoint() for iv in ivs]
    mids = [float(q) for q in exact]
    errs = [iv.width() / 2 + abs(Fraction(x) - q) for x, q, iv in zip(mids, exact, ivs)]
    return mids, errs


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

    def round_outward(self, bits: int) -> "ComplexInterval":
        return ComplexInterval(self.re.round_outward(bits), self.im.round_outward(bits))

    def __complex__(self) -> complex:
        return complex(float(self.re.midpoint()), float(self.im.midpoint()))

    def __repr__(self):
        return f"ComplexInterval({complex(self)!r} ± {float(self.width())/2:.3g})"


def _round_sig(q: Fraction, prec: int, up: bool) -> Fraction:
    """The dyadic q rounded up or down to prec significant bits."""
    drop = max(0, abs(q.numerator).bit_length() - prec)
    m = -(-q.numerator >> drop) if up else q.numerator >> drop
    return Fraction(m << drop, q.denominator)


def _floor_ceil(enclose: Callable, prec: int) -> Tuple[Fraction, Fraction]:
    """Floor and ceiling at prec significant bits of a positive irrational x
    from enclose(w) = (lo, hi, W): lo <= x 2^W <= hi, W >= w and
    hi - lo < 2^(W - w).  Guard bits double while it straddles a boundary."""
    guard = 16
    while True:
        lo, hi, W = enclose(prec + guard)
        s = lo.bit_length() - prec
        if lo >> s == hi >> s:
            m = lo >> s
            return Fraction(m << s, 1 << W), Fraction((m + 1) << s, 1 << W)
        guard *= 2


def _machin(terms, w: int) -> Tuple[int, int]:
    """(s, e) with |2^w x - s| < e, x = sum of c atan(1/m) (sign -1) or
    c atanh(1/m) (sign 1) over (c, m, sign), m >= 2: each term is low by
    under 1 unit, and the tail after the first zero power is under 2."""
    s = e = 0
    for c, m, sign in terms:
        j, power, m2, c_j = 0, (1 << w) // m, m * m, c
        while power:
            s += c_j * (power // (2 * j + 1))
            power //= m2
            j, c_j = j + 1, c_j * sign
        e += abs(c) * (j + 2)
    return s, e


def _pi_fixed(w: int) -> Tuple[int, int, int]:
    """_floor_ceil's enclosure of pi = 16 atan(1/5) - 4 atan(1/239)."""
    W = w + w.bit_length() + 6
    s, e = _machin(((16, 5, -1), (-4, 239, -1)), W)
    return s - e, s + e, W


def _atanh_low(p: int, q: int, w: int) -> Tuple[int, int]:
    """(s, J) with s <= 2^w atanh(t) < s + 3J + 3 for t = p/q in [0, 1/4]:
    the floored powers of t are low by under 2 units, each of the J terms by
    under 3, and the tail after the first zero power is under 3."""
    x = (p << w) // q
    x2 = x * x >> w
    s, j, power = 0, 0, x
    while power:
        s += power // (2 * j + 1)
        power = power * x2 >> w
        j += 1
    return s, j


def _ln_fixed(n: int, w: int) -> Tuple[int, int, int]:
    """_floor_ceil's enclosure of ln n = b ln 2 + ln x, x = n / 2^b in [1, 2),
    ln 2 = 18 atanh(1/26) - 2 atanh(1/4801) + 8 atanh(1/8749): k floored
    square roots at 2^-W take y = x^(1/2^k) within 2^-r of 1, low by under 2
    units (which add under 2 to 2^W ln y, ln being 1-Lipschitz on y >= 1),
    and ln x = 2^(k+1) atanh((y - 1)/(y + 1))."""
    b = n.bit_length() - 1
    r = max(4, math.isqrt(w) // 2)
    W = w + r + b.bit_length() + w.bit_length() + 8
    one, y, k = 1 << W, (n << W) >> b, 0
    while y - one > one >> r:
        y = math.isqrt(y << W)
        k += 1
    s, J = _atanh_low(y - one, y + one, W)
    ln2, e = _machin(((18, 26, 1), (-2, 4801, 1), (8, 8749, 1)), W)
    return (s << (k + 1)) + b * (ln2 - e), ((s + 3 * J + 4) << (k + 1)) + b * (ln2 + e), W


def pi_interval(bits: int) -> RealInterval:
    """Certified enclosure of pi with width <= 2^-bits."""
    if bits < 16:
        raise ValueError("precision_bits must be >= 16")
    return RealInterval(*_floor_ceil(_pi_fixed, bits + 8))


def _ln_outward(n: int, prec: int) -> Tuple[Fraction, Fraction]:
    """ln over n rounded outward to prec significant bits, rounded outward."""
    lo, hi = (int(_round_sig(Fraction(n), prec, up)) for up in (False, True))
    if hi == 1:
        return Fraction(0), Fraction(0)
    low, high = _floor_ceil(lambda w: _ln_fixed(lo, w), prec)
    return low, high if hi == lo else _floor_ceil(lambda w: _ln_fixed(hi, w), prec)[1]


def ln_interval(q: Rat, bits: int) -> RealInterval:
    """Certified enclosure of ln(q) for a positive rational q."""
    if bits < 16:
        raise ValueError("precision_bits must be >= 16")
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log of non-positive rational")
    prec = bits + 8
    (a_lo, a_hi), (b_lo, b_hi) = (_ln_outward(n, prec) for n in (q.numerator, q.denominator))
    return RealInterval(_round_sig(a_lo - b_hi, prec, False),
                        _round_sig(a_hi - b_lo, prec, True))


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
