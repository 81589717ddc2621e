"""Dense univariate polynomials over Z and Q, plus mod-p factorization.

Coefficients are stored low degree first; the canonical form has no
trailing (high-degree) zeros.  Degrees here stay small (<= 32), so the
classical algorithms are used throughout.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence, Union

from .errors import NonMonic, NonSquarefree, NotPrime
from .intervals import ComplexInterval, RealInterval

IntPoly = tuple  # tuple of ints, low degree first, no trailing zeros

Coeffs = Sequence[Union[int, Fraction]]


def make_poly(coeffs: Coeffs) -> IntPoly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Sequence) -> int:
    return len(p) - 1


def is_monic(p: Sequence) -> bool:
    return len(p) > 0 and p[-1] == 1


def poly_add(p: Sequence, q: Sequence):
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return make_poly(out)


def poly_neg(p: Sequence):
    return tuple(-c for c in p)


def poly_mul(p: Sequence, q: Sequence):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return make_poly(out)


def poly_divmod(p: Sequence, q: Sequence):
    """Division with remainder over Q (exact Fractions)."""
    q = make_poly(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    dq = degree(q)
    lead = Fraction(q[-1])
    quot = [Fraction(0)] * max(len(p) - dq, 1)
    while len(rem) - 1 >= dq and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        shift = len(rem) - 1 - dq
        factor = rem[-1] / lead
        quot[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * Fraction(c)
        rem.pop()
    return make_poly(quot), make_poly(rem)


def derivative(p: Sequence):
    return make_poly([i * c for i, c in enumerate(p)][1:])


def poly_gcd_q(p: Sequence, q: Sequence):
    """Monic gcd over Q via the Euclidean algorithm."""
    a = tuple(Fraction(c) for c in p)
    b = tuple(Fraction(c) for c in q)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not a:
        return ()
    lead = a[-1]
    return tuple(c / lead for c in a)


def is_squarefree(p: Sequence) -> bool:
    if degree(p) <= 0:
        return True
    return degree(poly_gcd_q(p, derivative(p))) == 0


def check_squarefree(p: Sequence):
    if not is_squarefree(p):
        raise NonSquarefree(f"gcd(p, p') is nonconstant for {p}")


def check_monic(p: Sequence):
    if not is_monic(p):
        raise NonMonic(f"leading coefficient {p[-1] if p else 0} != 1")


def eval_at(p: Sequence, x, bits: int = None):
    """Horner evaluation; x may be Fraction, RealInterval or ComplexInterval.

    `bits` controls the outward rounding of non-dyadic coefficients.
    """
    if isinstance(x, (RealInterval, ComplexInterval)):
        real = isinstance(x, RealInterval)
        acc = RealInterval.point(0) if real else ComplexInterval.point(0)
        for c in reversed(p):
            term = (RealInterval.point(c, bits) if real
                    else ComplexInterval.point(c, 0, bits))
            acc = acc * x + term
        return acc
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + Fraction(c)
    return acc


def resultant(p: Sequence, q: Sequence) -> Fraction:
    """Resultant over Q by the Euclidean pseudo-remainder recursion."""
    a = make_poly([Fraction(c) for c in p])
    b = make_poly([Fraction(c) for c in q])
    if not a or not b:
        return Fraction(0)
    res = Fraction(1)
    while degree(b) > 0:
        _, r = poly_divmod(a, b)
        if not r:
            return Fraction(0)
        res *= Fraction(b[-1]) ** (degree(a) - degree(r))
        if (degree(a) * degree(b)) % 2 == 1:
            res = -res
        a, b = b, r
    res *= Fraction(b[0]) ** degree(a)
    return res


def discriminant(p: Sequence) -> Fraction:
    """disc(p) = (-1)^(n(n-1)/2) res(p, p') / lc(p)."""
    n = degree(p)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(p, derivative(p)) / Fraction(p[-1])


# ---------------------------------------------------------------------------
# Arithmetic and factorization over F_p
# ---------------------------------------------------------------------------

def _pmod(p: Sequence, q: int):
    return make_poly([c % q for c in p])


def _pmul(a, b, q):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return make_poly([c % q for c in out])


def _pdivmod(a, b, q):
    if not b:
        raise ZeroDivisionError
    rem = [c % q for c in a]
    dq = len(b) - 1
    inv_lead = pow(b[-1], -1, q)
    quot = [0] * max(len(rem) - dq, 1)
    while len(rem) - 1 >= dq:
        while rem and rem[-1] % q == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        shift = len(rem) - 1 - dq
        f = rem[-1] * inv_lead % q
        quot[shift] = f
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - f * c) % q
        rem.pop()
    return make_poly([c % q for c in quot]), make_poly([c % q for c in rem])


def _pgcd(a, b, q):
    a, b = _pmod(a, q), _pmod(b, q)
    while b:
        a, b = b, _pdivmod(a, b, q)[1]
    if not a:
        return ()
    inv = pow(a[-1], -1, q)
    return make_poly([c * inv % q for c in a])


def _ppow(base, e: int, mod, q):
    result = (1,)
    base = _pdivmod(base, mod, q)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, q), mod, q)[1]
        base = _pdivmod(_pmul(base, base, q), mod, q)[1]
        e >>= 1
    return result


def factor_mod_p(poly: Sequence, q: int) -> list:
    """Factor a monic squarefree-or-not polynomial mod q.

    Returns [(factor, multiplicity)] with monic irreducible factors,
    sorted by (degree, coefficient tuple) for determinism.
    Cantor-Zassenhaus with seeded splitting; q must be an odd prime
    (q = 2 is handled by exhaustive irreducibility since degrees are tiny).
    """
    from .numthy import is_prime

    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    f = _pmod(poly, q)
    if degree(f) < 1:
        return []
    inv = pow(f[-1], -1, q)
    f = make_poly([c * inv % q for c in f])
    factors: dict = {}
    while degree(f) >= 1:
        d = _pmod(derivative(f), q)
        if not d:
            # f = h(x^q) = h(x)^q over the prime field
            h = make_poly([f[i] for i in range(0, len(f), q)])
            for g, m in factor_mod_p(h, q):
                factors[g] = factors.get(g, 0) + m * q
            break
        s = _pgcd(f, d, q)
        w = _pdivmod(f, s, q)[0]  # product of the distinct factors of f (mult not div by q)
        for g in _factor_squarefree_mod_p(w, q):
            e = 0
            while True:
                quot, rem = _pdivmod(f, g, q)
                if rem:
                    break
                f, e = quot, e + 1
            factors[g] = factors.get(g, 0) + e
    return sorted(factors.items(), key=lambda it: (degree(it[0]), it[0]))


def _factor_squarefree_mod_p(f, q: int) -> list:
    """Distinct-degree then equal-degree splitting of squarefree monic f."""
    out = []
    rng = random.Random(0x5EED ^ (q * 1000003) ^ len(f))
    x = (0, 1)
    h = x
    v = f
    d = 0
    while degree(v) >= 1:
        d += 1
        if 2 * d > degree(v):
            out.append(v)
            break
        h = _ppow(h, q, v, q)
        g = _pgcd(poly_add(h, poly_neg(x)), v, q)
        if degree(g) >= 1:
            out.extend(_split_equal_degree(g, d, q, rng))
            v = _pdivmod(v, g, q)[0]
            h = _pdivmod(h, v, q)[1]
    return out


def _split_equal_degree(f, d: int, q: int, rng) -> list:
    if degree(f) == d:
        return [f]
    n = degree(f)
    while True:
        a = make_poly([rng.randrange(q) for _ in range(n)])
        if degree(a) < 1:
            continue
        if q == 2:
            # trace map splitting for characteristic 2
            t = a
            acc = a
            for _ in range(d - 1):
                t = _pdivmod(_pmul(t, t, q), f, q)[1]
                acc = poly_add(acc, t)
                acc = _pmod(acc, q)
            g = _pgcd(acc, f, q)
        else:
            e = (q ** d - 1) // 2
            b = _ppow(a, e, f, q)
            g = _pgcd(poly_add(b, poly_neg((1,))), f, q)
        if 0 < degree(g) < degree(f):
            left = _split_equal_degree(g, d, q, rng)
            right = _split_equal_degree(_pdivmod(f, g, q)[0], d, q, rng)
            return left + right
