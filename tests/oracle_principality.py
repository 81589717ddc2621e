"""`ideals.is_principal` as it stood while it searched unit-stretched
copies of its polydisc after the base one, kept verbatim as a
differential-test oracle together with its four helpers (`_unit_stretches`,
`fundamental_units`, `_mq_subset_sqrt`, `_pell_fundamental`).

Four places differ: the field no longer keeps the stretch cache, the
multiquadratic builder's subset-to-power matrix or its generators, so the
stretches are cached here per field, `_subset_to_power` rebuilds that
matrix by the builder's own primitive-element search, checked against the
field's minimal polynomial, and `_mq_ds` reads the generators off the
field's label; and the searches run `oracle_polydisc`'s enumerator,
whose cap counts the cells of its coefficient box as the enumerator's cap
did then (the enumerator's cap now counts its work, which would walk the
far-stretched polydiscs for 2 000 000 steps each before giving up).
The stretches read each embedding, now an integer box, through
`oracle_intervals.box_interval`, and the Fraction matrix helpers come
from `oracle_linalg`.  Like the current one, it takes the field's CM
structure rather than detecting it again.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Dict, List, Tuple

from oracle_intervals import box_interval
from oracle_linalg import mat, mat_det, mat_inv
from oracle_polydisc import lattice_points_in_polydisc
from udfield.errors import WindowTooLarge
from udfield.ideals import (FOUND, INCONCLUSIVE, NOT_FOUND, FracIdeal,
                            PrincipalityResult)
from udfield.linalg import vec_mat
from udfield.numberfield import CMStructure, FieldElement, NumberField
from udfield.numthy import iroot_ceil, squarefree_kernel

_STRETCHES: Dict[NumberField, Dict[int, tuple]] = {}


def _subset_to_power(ds: Tuple[int, ...]):
    """Row S: the power coordinates of prod_{i in S} sqrt(d_i) in
    `compositum_multiquadratic(ds)`, whose primitive element theta is the
    first sum c_i sqrt(d_i) (c_i >= 1, by total, in product order) whose
    powers 1, theta, ... span the subset algebra."""
    m = len(ds)
    N = 1 << m

    def alg_mul(u, v):
        out = [Fraction(0)] * N
        for sa in range(N):
            for sb in range(N):
                common = sa & sb
                scalar = math.prod(ds[i] for i in range(m) if common >> i & 1)
                out[sa ^ sb] += u[sa] * v[sb] * scalar
        return out

    for total in itertools.count(m):
        for cs in itertools.product(range(1, total - m + 2), repeat=m):
            if sum(cs) != total:
                continue
            theta = [Fraction(0)] * N
            for i, c in enumerate(cs):
                theta[1 << i] = Fraction(c)
            rows, cur = [], [Fraction(int(s == 0)) for s in range(N)]
            for _ in range(N):
                rows.append(cur)
                cur = alg_mul(cur, theta)
            if mat_det(mat(rows)) != 0:
                return mat_inv(mat(rows)), cur


def _mq_ds(K: NumberField):
    """The generators d_1, ..., d_m of a field that compositum_multiquadratic
    built (m >= 2), read off its label ("Q(sqrt(5),i)" from build_field,
    "Q(sqrt(5),sqrt(-1))" by default) and checked against its minimal
    polynomial; None for any other field.  The builder used to keep them
    on the field."""
    ds = tuple(int(d) for d in re.findall(r"sqrt\((-?\d+)\)", K.label))
    ds += (-1,) * K.label.endswith(",i)")
    if len(ds) < 2 or 1 << len(ds) != K.n:
        return None
    Pinv, theta_N = _subset_to_power(ds)
    if [-c for c in vec_mat(theta_N, Pinv)] + [1] != list(K.min_poly):
        return None
    return ds


def is_principal(I: FracIdeal, cm: CMStructure, slack: Fraction = Fraction(13, 10),
                 unit_search_depth: int = 3) -> PrincipalityResult:
    """Certified generator search.

    A returned generator g satisfies (g) = I exactly (HNF equality).
    NOT_FOUND is certified only for imaginary quadratic fields, where the
    enumeration of elements of the right norm is exhaustive; otherwise a
    failed search is INCONCLUSIVE.
    """
    K = I.field
    scaled = FracIdeal(K, I.hnf, 1)
    norm = scaled.norm()
    assert norm.denominator == 1
    N = int(norm)
    # imaginary quadratic: |sigma(x)|^2 = N(x), so the polydisc of
    # radius^2 = N is exhaustive and searched with no limit
    exhaustive = K.n == 2 and K.disc < 0
    if exhaustive:
        searches = [[Fraction(N)]]
    else:
        rad2 = slack * iroot_ceil(N * N * abs(K.disc), 2 * cm.f)
        searches = [[rad2 * s for s in stretch]
                    for stretch in _unit_stretches(K, cm, unit_search_depth)]
    seen = set()
    for radii in searches:
        try:
            rows = map(tuple, lattice_points_in_polydisc(
                I.hnf, 1, cm, radii, limit=None if exhaustive else 2_000_000).tolist())
        except WindowTooLarge:
            continue
        for x in sorted(rows):
            if not any(x) or x in seen:
                continue
            seen.add(x)
            m = K._mult_matrix(x)
            if abs(mat_det(m)) == N and FracIdeal._normalize(K, m, 1) == scaled:
                return PrincipalityResult(FOUND, FieldElement(K, x, I.den))
    return PrincipalityResult(NOT_FOUND if exhaustive else INCONCLUSIVE)


def _unit_stretches(K: NumberField, cm: CMStructure, depth: int):
    """Per-coordinate radius stretches from fundamental units of real
    quadratic subfields, up to the given power depth.

    Built once per depth and kept on the field."""
    cache = _STRETCHES.setdefault(K, {})
    if depth not in cache:
        stretches = [(Fraction(1),) * cm.f]
        for u in fundamental_units(K, cm):
            for j in range(1, depth + 1):
                for sgn in (1, -1):
                    w = u ** (sgn * j)
                    row = []
                    for idx in cm.pair_reps:
                        m2 = box_interval(w.embed(idx, 32)).abs_sq()
                        row.append(Fraction(int(m2.hi * 4096) + 1, 4096))
                    stretches.append(tuple(row))
        cache[depth] = tuple(stretches)
    return cache[depth]


def fundamental_units(K: NumberField, cm: CMStructure) -> List[FieldElement]:
    """Fundamental units of the real quadratic subfields (multiquadratic
    fields only; other fields yield no stretches)."""
    ds = _mq_ds(K)
    if ds is None:
        return []
    m = len(ds)
    out = []
    for mask in range(1, 1 << m):
        prod = 1
        for i in range(m):
            if mask >> i & 1:
                prod *= ds[i]
        d = squarefree_kernel(prod)
        if d <= 1:
            continue
        x, y, half = _pell_fundamental(d)
        # unit (x + y sqrt(d)) / (2 if half else 1); sqrt(d) = prod(sqrt(d_i)) / s
        s2 = prod // d
        s = math.isqrt(s2)
        sqrt_prod = _mq_subset_sqrt(K, mask)
        unit = (K.from_rational(x) + sqrt_prod * Fraction(y, s)) / (2 if half else 1)
        assert abs(unit.norm()) == 1
        out.append(unit)
    return out


def _mq_subset_sqrt(K: NumberField, mask: int) -> FieldElement:
    """The element prod_{i in mask} sqrt(d_i) of a multiquadratic field."""
    ds = _mq_ds(K)
    N = 1 << len(ds)
    subset = [Fraction(0)] * N
    subset[mask] = Fraction(1)
    Pinv, theta_N = _subset_to_power(ds)
    assert [-c for c in vec_mat(theta_N, Pinv)] + [1] == list(K.min_poly)
    power = vec_mat(subset, Pinv)
    return K.from_power_coords(power)


def _pell_fundamental(d: int) -> Tuple[int, int, bool]:
    """Smallest unit > 1 of Q(sqrt(d)) as (x, y, half_integer_flag).

    Expands omega = (P0 + sqrt(d)) / Q0, where O_K = Z[omega]: (1 + sqrt(d)) / 2
    for d = 1 mod 4, else sqrt(d).  Its convergents p/q satisfy
    (Q0 p - P0 q)^2 - d q^2 = +-Q0 Q_k, so the first complete quotient
    (P_k + sqrt(d)) / Q_k with Q_k = Q0 gives the fundamental unit.
    """
    half = d % 4 == 1
    P0, Q0 = (1, 2) if half else (0, 1)
    P, Q = P0, Q0
    s = math.isqrt(d)
    p, p_prev, q, q_prev = 1, 0, 0, 1
    while True:
        a = (P + s) // Q
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        P = a * Q - P
        Q = (d - P * P) // Q
        if Q == Q0:
            return Q0 * p - P0 * q, q, half
