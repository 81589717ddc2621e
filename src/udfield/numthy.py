"""Primality, Legendre symbols, factorization of desk-scale integers."""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

from .errors import NotOddPrime, NotSquarefree, SearchExhausted

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# deterministic Miller-Rabin witness set, valid for n < 3.3 * 10^24
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

RHO_LIMIT = 1 << 16   # Pollard rho steps of one factorization


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_from(start: int = 2) -> Iterator[int]:
    n = max(start, 2)
    if n == 2:
        yield 2
        n = 3
    if n % 2 == 0:
        n += 1
    while True:
        if is_prime(n):
            yield n
        n += 2


def legendre_symbol(a: int, q: int) -> int:
    """(a|q) in {-1, 0, +1} by Euler's criterion; q must be an odd prime."""
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise NotOddPrime(f"{q} is not an odd prime")
    a %= q
    if a == 0:
        return 0
    r = pow(a, (q - 1) // 2, q)
    return 1 if r == 1 else -1


def factorize(n: int) -> List[Tuple[int, int]]:
    """Prime factorization by trial division with a Pollard rho fallback
    (SearchExhausted past RHO_LIMIT rho steps in all)."""
    n = abs(n)
    if n <= 1:
        return []
    out = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 41
    while d * d <= n and d < 1_000_000:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        for p in _rho_split(n, [RHO_LIMIT]):
            out[p] = out.get(p, 0) + 1
    return sorted(out.items())


def _rho_split(n: int, budget: List[int]) -> List[int]:
    """The prime factors of n, with multiplicity; budget[0] is the number
    of rho steps left, shared by every split of one factorization."""
    if n == 1:
        return []
    if is_prime(n):
        return [n]
    r = math.isqrt(n)
    if r * r == n:
        return _rho_split(r, budget) * 2
    c = 1
    while True:
        d = _pollard_rho(n, c, budget)
        if d not in (1, n):
            return sorted(_rho_split(d, budget) + _rho_split(n // d, budget))
        c += 1


def _pollard_rho(n: int, c: int, budget: List[int]) -> int:
    x = y = 2
    d = 1
    f = lambda v: (v * v + c) % n
    while d == 1:
        if budget[0] == 0:
            raise SearchExhausted(f"no factor of a {n.bit_length()}-bit integer within "
                                  f"{RHO_LIMIT} Pollard rho steps")
        budget[0] -= 1
        x = f(x)
        y = f(f(y))
        d = math.gcd(abs(x - y), n)
    return d


def iroot_ceil(n: int, k: int) -> int:
    """Smallest integer r >= 0 with r^k >= n, by integer Newton iteration
    (exact for any size of n; no float seed)."""
    if n <= 0:
        return 0
    # Newton from above converges down to floor(n^(1/k))
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r ** k == n else r + 1


def is_squarefree_int(n: int) -> bool:
    if n == 0:
        return False
    return all(e == 1 for _, e in factorize(n))


def check_squarefree_int(n: int):
    if not is_squarefree_int(n):
        raise NotSquarefree(f"{n} is not squarefree")


def squarefree_kernel(n: int) -> int:
    """The squarefree integer with the same square class as n (sign kept)."""
    if n == 0:
        return 0
    k = 1
    for p, e in factorize(n):
        if e % 2 == 1:
            k *= p
    return k if n > 0 else -k
