"""Class-tower bookkeeping: multiquadratic generators, Frattini rank,
relation bounds, the Golod-Shafarevich infinitude criterion, and the
explicit exponent ledger.

Everything here is finite arithmetic on the defining prime sets (the
ledger adds certified enclosures of pi and ln); no group or field object
is ever built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple, Union

from .errors import (ConditionFailed, InvalidArgument, NotOddPrime, NotPrime,
                     PrecisionExhausted, RamifiedPrime, SearchExhausted,
                     SplitConditionFailed, WindowTooLarge)
from .intervals import RealInterval, exact_ceil, ln_interval, pi_interval
from .numthy import is_prime, legendre_symbol, primes_from

MAX_T = 20  # subset enumeration is 2^|T|
SPLIT_SEARCH_LIMIT = 1_000_000   # the largest cap of find_split_primes


def _check_odd_primes(T: Sequence[int]) -> Tuple[int, ...]:
    T = tuple(sorted(set(int(q) for q in T)))
    for q in T:
        if q == 2 or not is_prime(q):
            raise NotOddPrime(f"{q} in T is not an odd prime")
    if len(T) > MAX_T:
        raise InvalidArgument(f"|T| > {MAX_T} not supported")
    return T


def multiquadratic_generators(T: Sequence[int]) -> List[int]:
    """F_2 basis of the positive squarefree d = 1 mod 4 supported on T,
    greedily chosen in increasing numeric order."""
    T = _check_odd_primes(T)
    m = len(T)
    candidates = []
    for mask in range(1, 1 << m):
        d = 1
        for i in range(m):
            if mask >> i & 1:
                d *= T[i]
        if d % 4 == 1:
            candidates.append((d, mask))
    candidates.sort()
    pivots: dict = {}  # lowest set bit -> reduced mask
    out: List[int] = []
    for d, mask in candidates:
        cur = mask
        while cur:
            low = cur & -cur
            if low in pivots:
                cur ^= pivots[low]
            else:
                pivots[low] = cur
                out.append(d)
                break
    return out


def frattini_rank(T: Sequence[int]) -> int:
    """|T| - 1 unless no prime of T is 3 mod 4, in which case |T|."""
    T = _check_odd_primes(T)
    rank = len(T) if all(q % 4 == 1 for q in T) else len(T) - 1
    gens = multiquadratic_generators(T)
    if len(gens) != rank:
        raise AssertionError(
            f"generator count {len(gens)} disagrees with rank formula {rank}")
    return rank


def splits_completely(q: int, gens: Sequence[int], require_i: bool) -> bool:
    """True iff (d|q) = +1 for every generator d (and q = 1 mod 4 when the
    field has i adjoined)."""
    if q == 2 or not is_prime(q):
        raise NotOddPrime(f"{q} is not an odd prime")
    for d in gens:
        if d % q == 0:
            raise RamifiedPrime(f"{q} divides generator {d}")
    if require_i and q % 4 != 1:
        return False
    return all(legendre_symbol(d, q) == 1 for d in gens)


def find_split_primes(T: Sequence[int], count: int,
                      require_1_mod_4: bool = True,
                      cap: int = 1_000_000) -> List[int]:
    """First `count` odd primes not in T that split completely in the
    multiquadratic field of T (with i adjoined when required)."""
    if count < 1:
        raise InvalidArgument(f"count must be >= 1, not {count}")
    if cap > SPLIT_SEARCH_LIMIT:
        raise WindowTooLarge(f"cap {cap} past the limit {SPLIT_SEARCH_LIMIT}")
    T = _check_odd_primes(T)
    gens = multiquadratic_generators(T)
    out: List[int] = []
    for q in primes_from(3):
        if q > cap:
            raise SearchExhausted(
                f"only {len(out)} of {count} split primes below {cap}")
        if q in T:
            continue
        if splits_completely(q, gens, require_1_mod_4):
            out.append(q)
            if len(out) == count:
                return out


class TowerSpec:
    """T (odd ramified primes) and the finite part of S (split places);
    infinity is always in S."""

    __slots__ = ("T", "S_finite")

    def __init__(self, T: Sequence[int], S_finite: Sequence[int]):
        self.T = _check_odd_primes(T)
        self.S_finite = tuple(sorted(set(int(q) for q in S_finite)))
        for q in self.S_finite:
            if not is_prime(q):
                raise NotOddPrime(f"{q} in S is not prime")
        if set(self.S_finite) & set(self.T):
            raise InvalidArgument("T and S must be disjoint")

    @property
    def s_size(self) -> int:
        return len(self.S_finite) + 1  # + the infinite place


class GSReport(NamedTuple):
    d: int
    r_bound: int
    gs_satisfied: bool
    generators: Tuple[int, ...]
    root_disc_bound: int

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "r_bound": self.r_bound,
            "gs_satisfied": self.gs_satisfied,
            "generators": list(self.generators),
            "root_disc_bound": self.root_disc_bound,
        }


def gs_check(tower: TowerSpec) -> GSReport:
    """d, the relation bound d + |S| - 1, and the 4r <= d^2 test.

    Every finite prime of S must split completely in the multiquadratic
    field with i adjoined; that is the hypothesis under which the relation
    bound applies.
    """
    gens = multiquadratic_generators(tower.T)
    for q in tower.S_finite:
        if not splits_completely(q, gens, require_i=True):
            raise SplitConditionFailed(
                f"{q} does not split completely in the tower base field")
    d = frattini_rank(tower.T)
    r_bound = d + tower.s_size - 1
    gs_satisfied = 4 * r_bound <= d * d
    root_disc_bound = 2
    for q in tower.T:
        root_disc_bound *= q
    return GSReport(d=d, r_bound=r_bound, gs_satisfied=gs_satisfied,
                    generators=tuple(gens), root_disc_bound=root_disc_bound)


# ---------------------------------------------------------------------------
# Exponent ledger
# ---------------------------------------------------------------------------

class SymbolicPower(NamedTuple):
    """base^exp kept symbolic (the exponent can be astronomically large)."""

    base: int
    exp: int

    def log_interval(self, bits: int) -> RealInterval:
        return ln_interval(self.base, bits).scale(self.exp)

    def to_dict(self) -> dict:
        return {"base": self.base, "exp": self.exp}


Delta = Union[Fraction, SymbolicPower]


def _log_36_over_delta_sq(delta: Delta, bits: int) -> RealInterval:
    ln36 = ln_interval(36, bits)
    if isinstance(delta, SymbolicPower):
        return ln36 - delta.log_interval(bits).scale(2)
    return ln36 - ln_interval(Fraction(delta) ** 2, bits)


def exponent(u: Fraction, v: Fraction, delta: Delta,
             precision_bits: int = 256) -> RealInterval:
    """Certified enclosure of 1 + log(u pi / 36 v) / log(36 / delta^2).

    Requires u, v > 0, delta <= 1 and u pi > 36 v (the condition that makes
    the exponent exceed 1); the last is certified by interval refinement,
    and ConditionFailed raised when it fails.
    """
    u = Fraction(u)
    v = Fraction(v)
    bits = precision_bits
    ratio = u / (36 * v)
    while True:
        pi = pi_interval(bits)
        arg = pi.scale(ratio)
        if arg.hi <= 1:
            raise ConditionFailed(
                f"u*pi <= 36*v certified (u={u}, v={v}); no exponent > 1")
        if arg.lo > 1:
            break
        bits *= 2
        if bits > 1 << 14:
            raise PrecisionExhausted("cannot separate u*pi from 36*v")
    num = ln_interval(arg.lo, bits).lo, ln_interval(arg.hi, bits).hi
    num_iv = RealInterval(num[0], num[1])
    den_iv = _log_36_over_delta_sq(delta, bits)
    quot = num_iv.div(den_iv, bits)
    return RealInterval.point(1) + quot


def exponent_ledger(T: Sequence[int], p: int, precision_bits: int = 256) -> dict:
    """The explicit parameter ledger: r, k, u, v, delta, D and the exponent.

    r = prod of T and 2; k = ceil(18 r^3 / pi) - 1; u = (k+1)/r^2; v = r/2;
    delta = p^(-2k) and D = p^(2k) kept symbolic.
    """
    T = tuple(sorted(set(int(q) for q in T)))
    for q in T:
        if q == 2 or not is_prime(q):
            raise NotOddPrime(f"{q} in T is not an odd prime")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p in T:
        raise InvalidArgument(f"p = {p} must not lie in T")
    r = 2 * math.prod(T)
    target = 18 * r ** 3

    def enclose(bits: int) -> RealInterval:
        return RealInterval.point(target) * pi_interval(bits).recip(bits)

    k = exact_ceil(enclose, start_bits=96) - 1
    u = Fraction(k + 1, r * r)
    v = Fraction(r, 2)
    delta = SymbolicPower(p, -2 * k)
    # exponent never raises ConditionFailed here: pi is irrational, so
    # k + 1 = ceil(18 r^3 / pi) > 18 r^3 / pi and u pi = (k + 1) pi / r^2 > 18 r = 36 v
    return {"T": list(T), "p": p, "r": r, "k": k, "u": u, "v": v,
            "delta": delta, "D": SymbolicPower(p, 2 * k),
            "exponent": exponent(u, v, delta, precision_bits)}
