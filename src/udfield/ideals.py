"""Fractional ideals as exact HNF lattices: splitting, arithmetic,
principality certification, and imaginary-quadratic class numbers.

An ideal is stored as a row-HNF integer lattice over the field's integral
basis together with a global denominator, so equality is tuple equality
and the norm is a determinant.  Products, inverses and principality tests
work on the integer multiplication matrices of HNF rows (field elements
use the same integer rows over one denominator), so every step is an
integer HNF or determinant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .enumeration import lattice_points_in_polydisc
from .errors import (IndexDivisor, NotPrime, PreconditionError, WindowTooLarge,
                     ZeroIdeal)
from .linalg import hnf_det, hnf_rows, mat_det, stack_rows, vec_mat
from .numberfield import CMStructure, FieldElement, NumberField
from .numthy import check_squarefree_int, iroot_ceil, is_prime
from .polynomials import IntPoly, discriminant, factor_mod_p, make_poly


class FracIdeal:
    """Nonzero fractional ideal: integer row-HNF basis over a denominator."""

    __slots__ = ("field", "hnf", "den")

    def __init__(self, field: NumberField, hnf: Tuple[Tuple[int, ...], ...], den: int):
        self.field, self.hnf, self.den = field, hnf, den

    def __eq__(self, other):
        return (other.__class__ is FracIdeal and self.field == other.field
                and self.hnf == other.hnf and self.den == other.den)

    def __hash__(self):
        return hash((self.field, self.hnf, self.den))

    @staticmethod
    def _normalize(field: NumberField, rows, den: int) -> "FracIdeal":
        h = hnf_rows(rows)
        if len(h) != field.n:
            raise ZeroIdeal("lattice does not have full rank")
        g = math.gcd(den, *(c for r in h for c in r))
        if g > 1:
            h = tuple(tuple(c // g for c in r) for r in h)
            den //= g
        return FracIdeal(field, h, den)

    @classmethod
    def unit_ideal(cls, field: NumberField) -> "FracIdeal":
        eye = [[1 if i == j else 0 for j in range(field.n)] for i in range(field.n)]
        return cls(field, tuple(tuple(r) for r in eye), 1)

    @classmethod
    def from_elements(cls, field: NumberField, gens: Sequence[FieldElement]) -> "FracIdeal":
        """The O_K-module generated by gens: the rows b_i g of their
        multiplication matrices, over one denominator."""
        rows, den = stack_rows([(r, g.den) for g in gens
                                for r in field._mult_matrix(g.num)], field.n)
        return cls._normalize(field, rows, den)

    @classmethod
    def principal(cls, z: FieldElement) -> "FracIdeal":
        """(z); ZeroIdeal for z = 0, whose lattice has no full rank."""
        return cls.from_elements(z.field, [z])

    # -- basic data -----------------------------------------------------------

    def norm(self) -> Fraction:
        return Fraction(hnf_det(self.hnf), self.den ** self.field.n)

    def is_integral(self) -> bool:
        return self.den == 1

    # -- arithmetic -----------------------------------------------------------

    def __mul__(self, other: "FracIdeal") -> "FracIdeal":
        """Products of the two HNF bases through the integer structure
        constants, over the denominator den_a * den_b.  A factor with HNF
        c I is the rational ideal (c / den) O, and c H is the HNF of c L
        when H is that of L, so a product with it takes no HNF."""
        for x, y in ((self, other), (other, self)):
            c, n = x.hnf[0][0], len(x.hnf)
            if x.hnf == tuple(tuple(c * (i == j) for j in range(n)) for i in range(n)):
                g = math.gcd(x.den * y.den, *(c * v for r in y.hnf for v in r))
                return FracIdeal(self.field, tuple(tuple(c * v // g for v in r) for r in y.hnf),
                                 x.den * y.den // g)
        rows = []
        for a in self.hnf:
            ma = self.field._mult_matrix(a)
            rows += [vec_mat(b, ma) for b in other.hnf]
        return self._normalize(self.field, rows, self.den * other.den)

    def inverse(self) -> "FracIdeal":
        """self^-1 = den J^-1 for the integral ideal J = den * self, with
        N J^-1 = {y in Z^n : y M(h) = 0 mod N for every HNF row h of J},
        N = [O_K : J], M(h) the multiplication matrix of h: the rows with
        zero first n^2 columns in the HNF of [M(h_1)_k | ... | M(h_n)_k | e_k]
        (k < n) and [N e_j | 0] (j < n^2)."""
        field = self.field
        n = field.n
        N = hnf_det(self.hnf)
        mats = [field._mult_matrix(h) for h in self.hnf]
        rows = [[c for m in mats for c in m[k]] + [int(j == k) for j in range(n)]
                for k in range(n)]
        rows += [[N if i == j else 0 for i in range(n * n + n)] for j in range(n * n)]
        kernel = [r[n * n:] for r in hnf_rows(rows) if not any(r[:n * n])]
        inv = self._normalize(field, [[c * self.den for c in r] for r in kernel], N)
        check = inv * self
        if check != FracIdeal.unit_ideal(field):
            raise ZeroIdeal("ideal is not invertible over this order")
        return inv

    def __pow__(self, e: int) -> "FracIdeal":
        """Square-and-multiply, with no square past the top bit of e."""
        if e < 0:
            return self.inverse() ** (-e)
        result = FracIdeal.unit_ideal(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def conjugate(self, cm: CMStructure) -> "FracIdeal":
        """The ideal conj(self), which exists only when conjugation maps the
        order to itself, that is when its matrix on the basis is integral."""
        if cm.conj_den != 1:
            raise PreconditionError(
                "complex conjugation does not map the order of this basis to "
                "itself, so the conjugate of an ideal is not an ideal of it; "
                "pass the field's integral_basis")
        return self._normalize(self.field, [vec_mat(row, cm.conj_mat) for row in self.hnf],
                               self.den)

    def __repr__(self):
        return f"FracIdeal({self.field.label}, norm={self.norm()})"


class PrimeIdeal(NamedTuple):
    """Prime above p from a factor of min_poly mod p (p prime to the index)."""

    p: int
    gen_poly: IntPoly
    e: int
    f_res: int
    lattice: FracIdeal

    def norm(self) -> int:
        return self.p ** self.f_res

    def __repr__(self):
        return (f"PrimeIdeal(p={self.p}, f={self.f_res}, e={self.e}, "
                f"g={list(self.gen_poly)})")


def field_index_squared(K: NumberField) -> Fraction:
    """[O_K : Z[theta]]^2 = disc(min_poly) / disc(K)."""
    return discriminant(K.min_poly) / K.disc


_NOT_DEDEKIND = "min_poly is reducible or p divides [O_K : Z[theta]]"


def split_prime(K: NumberField, p: int) -> List[PrimeIdeal]:
    """Factor (p) into primes via min_poly mod p.

    Requires p prime, Z[theta] inside the order of the integral basis and
    p coprime to the index [O_K : Z[theta]].  Verifies that the product of
    the primes with multiplicity is exactly (p), so sum(e_i f_i) = n, as
    Dedekind's criterion promises, else IndexDivisor.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    idx2 = field_index_squared(K)
    if idx2.denominator != 1:
        raise IndexDivisor("disc(min_poly) is not a multiple of disc(K): the "
                           "order of the integral basis does not hold Z[theta], "
                           "and mod-p splitting needs it")
    idx2 = int(idx2)
    if idx2 % (p * p) == 0:
        raise IndexDivisor(
            f"{p} divides the index [O_K : Z[theta]]; "
            "mod-p splitting is not valid")
    factors = factor_mod_p(K.min_poly, p)
    out = []
    p_elt = K.from_rational(p)
    for g, e in factors:
        g_theta = K.from_power_coords(g)
        lat = FracIdeal.from_elements(K, [p_elt, g_theta])
        prime = PrimeIdeal(p=p, gen_poly=make_poly(g), e=e,
                           f_res=len(g) - 1, lattice=lat)
        if lat.norm() != prime.norm():
            raise IndexDivisor(f"norm of ({p}, g) is {lat.norm()}, expected "
                               f"{prime.norm()}: {_NOT_DEDEKIND}")
        out.append(prime)
    prod = FracIdeal.unit_ideal(K)
    for pr in out:
        prod = prod * pr.lattice ** pr.e
    if prod != FracIdeal.principal(p_elt):
        raise IndexDivisor(f"product of primes above {p} is not (p): {_NOT_DEDEKIND}")
    return out


# ---------------------------------------------------------------------------
# Principality
# ---------------------------------------------------------------------------

FOUND = "found"
NOT_FOUND = "not_found"
INCONCLUSIVE = "inconclusive"

# headroom on radius^2, as no unit need balance a generator's |sigma_i|^2 exactly
PRINCIPAL_SLACK = Fraction(13, 10)


class PrincipalityResult(NamedTuple):
    status: str
    generator: Optional[FieldElement] = None


def is_principal(I: FracIdeal, cm: CMStructure) -> PrincipalityResult:
    """Certified generator search: one polydisc enumeration of I, an ideal
    of the CM field cm.field.

    A returned generator g satisfies (g) = I exactly: the search runs over
    I's integral lattice J = den I, so a point x lies in J and (x) is inside
    J, and [O : (x)] = |N(x)| = |det M(x)| equal to [O : J] = N(J) makes
    them one ideal.  The first such point in sorted order is returned.
    Imaginary quadratic fields search radius^2 N(I) with no limit: every
    generator has |sigma(x)|^2 = N(I), so a miss is a certified NOT_FOUND.
    Other CM fields search radius^2 PRINCIPAL_SLACK * ceil((N^2 |disc|)^(1/2f))
    on every embedding pair, capped at 2 000 000 units of the enumerator's
    work (prefixes tried plus points found); a capped or empty search is
    INCONCLUSIVE.

    The generators of I are the unit multiples of one of them.  Over
    Q(sqrt(d), i) the fundamental unit eps > 1 of Q(sqrt(d)) lies in the
    order and scales the two |sigma_i|^2 (product N) by eps^2 and eps^-2,
    so some generator has both at most eps sqrt(N): inside the polydisc
    when eps <= 13/10 |disc|^(1/4), as for d = 2, 3, 5, 6, 10, 13, 15, 17,
    21, but not d = 7, 11, 14, 19 (eps = 15.9, 19.9, 30.0, 340), where a
    principal ideal with no generator inside it is INCONCLUSIVE.
    """
    K = I.field
    N = hnf_det(I.hnf)
    exhaustive = K.n == 2 and K.disc < 0
    if exhaustive:
        radii = [Fraction(N)]
    else:
        radii = [PRINCIPAL_SLACK * iroot_ceil(N * N * abs(K.disc), 2 * cm.f)] * cm.f
    try:
        rows = lattice_points_in_polydisc(
            I.hnf, 1, cm, radii, limit=None if exhaustive else 2_000_000)
    except WindowTooLarge:
        return PrincipalityResult(INCONCLUSIVE)
    for x in sorted(rows):
        if any(x) and abs(mat_det(K._mult_matrix(x))) == N:
            return PrincipalityResult(FOUND, FieldElement(K, x, I.den))
    return PrincipalityResult(NOT_FOUND if exhaustive else INCONCLUSIVE)


# ---------------------------------------------------------------------------
# Imaginary quadratic class numbers (reduced binary quadratic forms)
# ---------------------------------------------------------------------------

def class_number_imag_quadratic(d: int) -> int:
    """h(Q(sqrt(d))) for squarefree d < 0, by counting reduced forms.  The
    discriminant D is fundamental, so every form of it is primitive."""
    check_squarefree_int(d)
    D = d if d % 4 == 1 else 4 * d
    # reduced primitive forms: -a < b <= a <= c, b >= 0 when a == c
    count = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            t = b * b - D
            if t % (4 * a) != 0:
                continue
            c = t // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            count += 1
        a += 1
    return count
