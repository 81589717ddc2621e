"""Class-tower bookkeeping: multiquadratic generators, Frattini rank,
relation bounds, and the Golod-Shafarevich infinitude criterion.

Everything here is finite arithmetic on the defining prime sets; no group
or field object is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import (DegreeTooSmall, InvalidArgument, NotOddPrime, RamifiedPrime,
                     SearchExhausted, SplitConditionFailed)
from .numthy import is_prime, legendre_symbol, primes_from

MAX_T = 20  # subset enumeration is 2^|T|


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


def class_number_bound(disc: int, degree: int) -> int:
    """The crude bound h <= |disc| (valid for degree >= 4)."""
    if degree < 4:
        raise DegreeTooSmall(
            f"the class-number bound is only asserted for degree >= 4, got {degree}")
    return abs(disc)


@dataclass(frozen=True)
class TowerSpec:
    """T (odd ramified primes) and the finite part of S (split places);
    infinity is always in S."""

    T: Tuple[int, ...]
    S_finite: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "T", _check_odd_primes(self.T))
        sf = tuple(sorted(set(int(q) for q in self.S_finite)))
        for q in sf:
            if not is_prime(q):
                raise NotOddPrime(f"{q} in S is not prime")
        if set(sf) & set(self.T):
            raise InvalidArgument("T and S must be disjoint")
        object.__setattr__(self, "S_finite", sf)

    @property
    def s_size(self) -> int:
        return len(self.S_finite) + 1  # + the infinite place

    @property
    def p_split(self) -> int:
        if not self.S_finite:
            raise ValueError("no finite split prime in S")
        return self.S_finite[0]


@dataclass(frozen=True)
class GSReport:
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
