"""Certified arithmetic with exact dyadic-rational endpoints.

Two forms serve two jobs.  `Box` is the one certified complex box: four
integer ends over one power of two, 2^-e ([re_lo, re_hi] + i [im_lo,
im_hi]).  Root isolation, interval Horner and the embeddings of field
elements all work on it, so their ring operations are exact integer
products and sums.  `RealInterval` has Fraction endpoints whose
denominators are powers of two; it serves the exponent ledger and the
intervals that report.json prints.  Only division, square roots and
transcendental constants round, and they round outward.  Soundness
contract: for any operation, the exact result on any points chosen inside
the inputs lies inside the output.

pi and ln come from fixed-point series on Python integers with explicit
error bounds: Machin formulas, and square-root argument reduction (Brent
1976) before a short atanh series.  Each is rounded down and up at bits + 8
significant bits, with more guard bits while an enclosure straddles a
boundary; ln(a/b) rounds a, b and ln a - ln b outward, as mpmath.iv does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Tuple, Union

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


def fixed_point(q: Rat, bits: int = None) -> Tuple[int, int, int]:
    """(lo, hi, e) with [lo, hi] 2^-e = RealInterval.point(q, bits): exact
    for a dyadic q, else rounded outward at 2^-bits, by default 64 bits
    past the bit length of q's denominator."""
    num, den = q.numerator, q.denominator
    if den & (den - 1) == 0:
        return num, num, den.bit_length() - 1
    bits = den.bit_length() + 64 if bits is None else bits
    return (num << bits) // den, -((-num << bits) // den), bits


def imul(a: int, b: int, c: int, d: int) -> Tuple[int, int]:
    """The product of the intervals [a, b] and [c, d]."""
    p = (a * c, a * d, b * c, b * d)
    return min(p), max(p)


def sqrt_upper(q: Rat, bits: int) -> Fraction:
    q = Fraction(q)
    scaled = -((-(q.numerator << (2 * bits))) // q.denominator)
    r = math.isqrt(scaled)
    if r * r < scaled:
        r += 1
    return Fraction(r, 1 << bits)


class Box(NamedTuple):
    """The certified complex box 2^-e ([re_lo, re_hi] + i [im_lo, im_hi])."""

    e: int
    re_lo: int
    re_hi: int
    im_lo: int
    im_hi: int

    def intersects(self, other: "Box") -> bool:
        e = max(self.e, other.e)
        a = [c << (e - self.e) for c in self[1:]]
        b = [c << (e - other.e) for c in other[1:]]
        return a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]


class RealInterval:
    """Closed interval [lo, hi] with dyadic endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        self.lo, self.hi = lo, hi

    @classmethod
    def point(cls, q: Rat, bits: int = None) -> "RealInterval":
        # non-dyadic rationals get an outward enclosure
        lo, hi, e = fixed_point(q, bits)
        return cls(Fraction(lo, 1 << e), Fraction(hi, 1 << e))

    def __add__(self, other: "RealInterval") -> "RealInterval":
        return RealInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RealInterval") -> "RealInterval":
        return RealInterval(self.lo - other.hi, self.hi - other.lo)

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

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def recip(self, bits: int) -> "RealInterval":
        if self.contains_zero():
            raise DivisionByZero("interval reciprocal across zero")
        return RealInterval(round_down(Fraction(1) / self.hi, bits),
                            round_up(Fraction(1) / self.lo, bits))

    def div(self, other: "RealInterval", bits: int) -> "RealInterval":
        return self * other.recip(bits)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def __repr__(self):
        return f"RealInterval({float(self.lo)!r}, {float(self.hi)!r})"


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
                f"ceiling still ambiguous at {bits} bits")
        bits = min(2 * bits, max_bits)
