"""Dense univariate polynomials over Z and Q, plus mod-p factorization.

Coefficients are stored low degree first; the canonical form has no
trailing (high-degree) zeros.  Degrees here stay small (<= 32), so the
classical algorithms are used throughout.  The resultant, and with it the
squarefree test and the discriminant, is the fraction-free determinant of
the integer Sylvester matrix: no Euclid step over Q.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Sequence, Union

from .errors import NonMonic, NonSquarefree, NotPrime
from .intervals import Box, fixed_point, imul
from .linalg import mat_det

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


def derivative(p: Sequence):
    return make_poly([i * c for i, c in enumerate(p)][1:])


def is_squarefree(p: Sequence) -> bool:
    """In characteristic 0, p is squarefree exactly when res(p, p') != 0."""
    return degree(p) <= 0 or resultant(p, derivative(p)) != 0


def check_squarefree(p: Sequence):
    if not is_squarefree(p):
        raise NonSquarefree(f"gcd(p, p') is nonconstant for {p}")


def check_monic(p: Sequence):
    if not is_monic(p):
        raise NonMonic(f"leading coefficient {p[-1] if p else 0} != 1")


def eval_at(p: Sequence, x: Box, bits: int = None) -> Box:
    """Horner evaluation of p over the box x, as a box.

    `bits` controls the outward rounding of non-dyadic coefficients, as
    RealInterval.point does.  The ring operations on the integer ends are
    exact, so the result is the box that interval arithmetic on the dyadic
    endpoints gives.
    """
    s, xrl, xrh, xil, xih = x
    rl = rh = il = ih = e = 0      # the value so far, over 2^e
    for c in reversed(p):
        (a, b), (c2, d2) = imul(rl, rh, xrl, xrh), imul(il, ih, xil, xih)
        (f, g), (h, k) = imul(rl, rh, xil, xih), imul(il, ih, xrl, xrh)
        lo, hi, t = fixed_point(c, bits)
        sh, e = max(0, t - e - s), max(e + s, t)
        rl, rh = ((a - d2) << sh) + (lo << (e - t)), ((b - c2) << sh) + (hi << (e - t))
        il, ih = (f + h) << sh, (g + k) << sh
    return Box(e, rl, rh, il, ih)


def resultant(p: Sequence, q: Sequence) -> Fraction:
    """res(p, q) as the determinant of the Sylvester matrix, taken
    fraction-free (linalg.mat_det).  Rational coefficients are cleared
    first: res(P/a, Q/b) = res(P, Q) / (a^deg Q b^deg P)."""
    p, q = make_poly(p), make_poly(q)
    if not p or not q:
        return Fraction(0)
    m, n = degree(p), degree(q)
    a = lcm(1, *(c.denominator for c in p))
    b = lcm(1, *(c.denominator for c in q))
    hp = [c.numerator * (a // c.denominator) for c in reversed(p)]
    hq = [c.numerator * (b // c.denominator) for c in reversed(q)]
    # n shifted rows of p's coefficients and m of q's, high degree first
    rows = ([[0] * i + hp + [0] * (n - 1 - i) for i in range(n)]
            + [[0] * i + hq + [0] * (m - 1 - i) for i in range(m)])
    return Fraction(mat_det(rows), a ** n * b ** m)


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
            result = _pdivmod(poly_mul(result, base), mod, q)[1]
        base = _pdivmod(poly_mul(base, base), mod, q)[1]
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
                t = _pdivmod(poly_mul(t, t), f, q)[1]
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
