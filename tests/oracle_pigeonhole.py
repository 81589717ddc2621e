"""`construct.pigeonhole_units` as it stood before the one-pass class
search, kept verbatim as a differential-test oracle.

It joins the exponent-vector ideals into classes by union-find over every
pair (i, j) whose ratio is certified principal, then asks `is_principal`
again for each member of the largest class against its smallest member to
recover the generators.  Its `_check_prime_pairs` is copied with it (the
current one takes the conjugate lattices as an argument), and so are
`_certify_unit`, which tests Q^-2 on every emitted unit (the current one
tests it once per witness ideal), and `enumeration.roots_of_unity`, its
torsion search (the current one takes the radius-1 unit differences);
everything else is imported from the current modules.  Its `slack` and
`unit_search_depth` parameters, which it only passed on to
`is_principal`, went when `is_principal` lost them, and it takes the CM
structure in place of the field, as the current one does.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from udfield.construct import PIGEONHOLE_LIMIT, UnitSet, denominator_bound
from udfield.enumeration import lattice_points_in_polydisc
from udfield.errors import ConjugateCollision, WindowTooLarge
from udfield.ideals import (FOUND, INCONCLUSIVE, FracIdeal, PrimeIdeal,
                            class_number_imag_quadratic, is_principal)
from udfield.numberfield import CMStructure, FieldElement, NumberField, is_unit_modulus
from udfield.numthy import squarefree_kernel


def roots_of_unity(field: NumberField, cm: CMStructure) -> List[FieldElement]:
    """Torsion units: integral elements of modulus exactly 1 in all embeddings."""
    n = field.n
    eye = [[1 if k == j else 0 for k in range(n)] for j in range(n)]
    candidates = [FieldElement(field, row) for row in lattice_points_in_polydisc(
        eye, 1, cm, [Fraction(1)] * cm.f)]
    return [z for z in candidates if not z.is_zero() and is_unit_modulus(z, cm)]


def _certify_unit(u: FieldElement, cm: CMStructure, Q2: FracIdeal, D: int):
    if not is_unit_modulus(u, cm):
        raise AssertionError(f"emitted unit fails |u| = 1: {u}")
    if not (u * D).is_integral():
        raise AssertionError(f"emitted unit fails D-integrality: {u}")
    if not (FracIdeal.principal(u) * Q2).is_integral():
        raise AssertionError(f"emitted unit is not in Q^-2: {u}")


def _check_prime_pairs(cm: CMStructure, primes: Sequence[Tuple[PrimeIdeal, int]]):
    lattices = [pr.lattice for pr, _ in primes]
    for i, (pr, k) in enumerate(primes):
        if k < 1:
            raise ValueError("all exponents k_j must be >= 1")
        conj_i = pr.lattice.conjugate(cm)
        for j, (qr, _) in enumerate(primes):
            if i != j and pr.lattice == qr.lattice:
                raise ConjugateCollision("prime ideals must be pairwise distinct")
            if conj_i == qr.lattice:
                raise ConjugateCollision(
                    f"P_{i} is the conjugate of P_{j}; the pigeonhole needs "
                    "P_i != conj(P_j) for all i, j")
        if conj_i == pr.lattice:
            raise ConjugateCollision(f"P_{i} is self-conjugate (ramified or inert)")


def pigeonhole_units(cm: CMStructure, primes: Sequence[Tuple[PrimeIdeal, int]],
                     include_torsion: bool = True) -> UnitSet:
    """Units from ideals prod P_j^(a_j) conj(P_j)^(k_j - a_j) in one class.

    Ratios inside the largest principality class give alpha with
    (alpha) = I / I_0; each u = alpha / conj(alpha) is verified to be
    unit-modulus, to lie in Q^{-2}, and to have D u integral.  The emitted
    list is closed under conjugation and (optionally) torsion multiples;
    ideal_witnesses counts the pairwise-distinct ideals (u).  Raises
    WindowTooLarge past PIGEONHOLE_LIMIT exponent vectors prod (k_j + 1).
    """
    K = cm.field
    primes = list(primes)
    _check_prime_pairs(cm, primes)
    count = math.prod(k + 1 for _, k in primes)
    if count > PIGEONHOLE_LIMIT:
        raise WindowTooLarge(f"{count} exponent vectors (limit {PIGEONHOLE_LIMIT})")

    Q = FracIdeal.unit_ideal(K)
    for pr, k in primes:
        Q = Q * (pr.lattice * pr.lattice.conjugate(cm)) ** k
    D = denominator_bound(primes)

    exponent_vectors = list(itertools.product(*[range(k + 1) for _, k in primes]))
    ideals = []
    for vec in exponent_vectors:
        I = FracIdeal.unit_ideal(K)
        for (pr, k), a in zip(primes, vec):
            I = I * pr.lattice ** a * pr.lattice.conjugate(cm) ** (k - a)
        ideals.append(I)

    # union-find by certified principality of ratios
    parent = list(range(len(ideals)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    generators: Dict[Tuple[int, int], FieldElement] = {}
    inconclusive = False
    for i in range(len(ideals)):
        for j in range(i + 1, len(ideals)):
            if find(i) == find(j):
                continue
            res = is_principal(ideals[j] * ideals[i].inverse(), cm)
            if res.status == FOUND:
                generators[(i, j)] = res.generator
                parent[find(j)] = find(i)
            elif res.status == INCONCLUSIVE:
                inconclusive = True

    classes: Dict[int, List[int]] = {}
    for i in range(len(ideals)):
        classes.setdefault(find(i), []).append(i)
    # largest class; ties toward the lexicographically smallest member
    best = max(classes.values(),
               key=lambda mem: (len(mem), [-e for e in exponent_vectors[mem[0]]]))
    base = min(best, key=lambda i: exponent_vectors[i])

    witnesses: List[FieldElement] = []
    witness_ideals: List[FracIdeal] = []
    one = K.one()
    Q2 = Q ** 2
    for i in best:
        if i == base:
            alpha = one
        else:
            res = is_principal(ideals[i] * ideals[base].inverse(), cm)
            if res.status != FOUND:
                inconclusive = True
                continue
            alpha = res.generator
        u = alpha / cm.conj(alpha)
        _certify_unit(u, cm, Q2, D)
        iu = FracIdeal.principal(u)
        if iu in witness_ideals:
            raise AssertionError("pigeonhole produced a repeated ideal (u)")
        witness_ideals.append(iu)
        witnesses.append(u)

    units: Dict[Tuple[Fraction, ...], FieldElement] = {}
    torsion = roots_of_unity(K, cm) if include_torsion else [one, -one]
    for w in witnesses:
        for var in (w, cm.conj(w)):
            for zeta in torsion:
                u = var * zeta
                if u.coords not in units:
                    _certify_unit(u, cm, Q2, D)
                    units[u.coords] = u

    h = None
    guaranteed = None
    if K.n == 2 and K.disc < 0:
        h = class_number_imag_quadratic(squarefree_kernel(K.disc))
        guaranteed = Fraction(math.prod(k + 1 for _, k in primes), h)

    ordered = tuple(sorted(units.values(), key=lambda z: tuple(z.coords)))
    return UnitSet(cm=cm, units=ordered, ideal_witnesses=tuple(witnesses),
                   Q=Q, D=D, guaranteed_min=guaranteed, h=h,
                   inconclusive=inconclusive)
