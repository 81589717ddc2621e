"""Exact enumeration of lattice points in polydiscs of the Minkowski space.

There is one coordinate per conjugate pair of roots.  A CM field gives a
complex polydisc; a totally real field, with the identity as conjugation,
gives the real box |sigma_i(z)| <= r_i.

A candidate box from the inverse basis matrix bounds the integer
coordinates; each candidate is then accepted or rejected exactly: a coarse
dyadic-interval pass decides almost all points, and boundary cases fall
back to symbolic comparison of abs_sq against the rational radius (the
embedding of a nonzero element is nonzero, so refinement terminates).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import List, Optional, Sequence

from .errors import PrecisionExhausted, WindowTooLarge
from .intervals import ComplexInterval, RealInterval, sqrt_upper
from .numberfield import CMStructure, FieldElement, NumberField, abs_sq

_PREFILTER_BITS = 48


def _basis_embeddings(basis: Sequence[FieldElement], reps: Sequence[int], bits: int):
    """sigma_i(v_j) as coarse boxes, one row per basis vector."""
    keep = max(_PREFILTER_BITS, bits - 16)
    rows = []
    for v in basis:
        rows.append([v.embed(idx, bits).round_outward(keep) for idx in reps])
    return rows


def _coord_bounds(basis_emb, real: Sequence[bool], radii_sq: Sequence[Fraction],
                  center_emb) -> Optional[List[int]]:
    """Certified per-coordinate bounds M_j with |c_j| <= M_j for every solution.

    Writes the real n x n basis matrix as an interval matrix B, takes the
    exact inverse V of its midpoint, and certifies eta = ||I - B V||_1 < 1;
    then c = y (I - E)^{-1} with y = (x - a) V gives
        |c_j| <= |y_j| + ||y||_inf * eta / (1 - eta).
    A complex root gives two columns of B (re, im) and a real root one (re):
    its im is exactly 0 and would make the midpoint singular.
    """
    from . import linalg

    f = len(radii_sq)
    n = len(basis_emb)
    mid_rows = []
    iv_rows = []
    for j in range(n):
        ivs = []
        for i in range(f):
            b = basis_emb[j][i]
            ivs.extend([b.re] if real[i] else [b.re, b.im])
        mid_rows.append([iv.midpoint() for iv in ivs])
        iv_rows.append(ivs)
    try:
        V = linalg.mat_inv(linalg.mat(mid_rows))
    except ZeroDivisionError:
        return None
    # E = I - B V in interval arithmetic (V exact rational)
    col_sums = [Fraction(0)] * n
    for r in range(n):
        for c in range(n):
            acc = RealInterval.point(-1 if r == c else 0)
            for t in range(n):
                acc = acc + iv_rows[r][t] * RealInterval.point(V[t][c])
            col_sums[c] += acc.magnitude()
    eta = max(col_sums)
    if eta >= 1:
        return None
    # per-real-coordinate bound on |x_t - a_t|
    bnd = []
    for i in range(f):
        r = sqrt_upper(radii_sq[i], 16)
        extra = Fraction(0)
        if center_emb is not None:
            extra = max(center_emb[i].re.magnitude(), center_emb[i].im.magnitude())
        bnd.extend([r + extra] * (1 if real[i] else 2))
    y = [sum(bnd[t] * abs(V[t][j]) for t in range(n)) for j in range(n)]
    y_max = max(y)
    slop = y_max * eta / (1 - eta)
    return [int(yj + slop) + 1 for yj in y]


def lattice_points_in_polydisc(basis: Sequence[FieldElement], cm: CMStructure,
                               radii_sq: Sequence[Fraction],
                               center: Optional[FieldElement] = None,
                               limit: Optional[int] = None) -> List[FieldElement]:
    """All z = center + sum c_j v_j with |sigma_i(z)|^2 <= radii_sq[i] for all i.

    sigma_i is the embedding at root cm.pair_reps[i] and |.|^2 is decided
    through abs_sq(z, cm).  The polydisc is closed; boundary points are
    included.  Deterministic order (lexicographic in the integer
    coordinates).
    """
    field = basis[0].field
    f = cm.f
    reps = cm.pair_reps
    real = [field.roots()[idx].is_real for idx in reps]
    radii_sq = [Fraction(r) for r in radii_sq]
    if any(r < 0 for r in radii_sq):
        return []
    basis = _lll_reduce_basis(basis, cm.conj)
    emb = _basis_embeddings(basis, reps, 64)
    center_emb = None
    if center is not None and not center.is_zero():
        center_emb = [center.embed(idx, 64).round_outward(_PREFILTER_BITS)
                      for idx in reps]
    bounds = None
    bits = 64
    while bounds is None:
        bounds = _coord_bounds(emb, real, radii_sq, center_emb)
        if bounds is None:
            bits *= 2
            if bits > 4096:
                raise PrecisionExhausted(
                    "basis embeddings too coarse to bound the search box")
            emb = _basis_embeddings(basis, reps, bits)
    total = 1
    for m in bounds:
        total *= 2 * m + 1
    if limit is not None and total > limit:
        raise WindowTooLarge(
            f"candidate box has {total} points (limit {limit})")

    one = field.one()
    out: List[FieldElement] = []
    for cvec in itertools.product(*[range(-m, m + 1) for m in bounds]):
        ok = True
        needs_exact = False
        for i in range(f):
            acc = center_emb[i] if center_emb is not None else ComplexInterval.point(0)
            for j, c in enumerate(cvec):
                if c:
                    acc = acc + emb[j][i].scale(c)
            m2 = acc.abs_sq()
            if m2.lo > radii_sq[i]:
                ok = False
                break
            if m2.hi > radii_sq[i]:
                needs_exact = True
        if not ok:
            continue
        z = field.zero() if center is None else center
        for j, c in enumerate(cvec):
            if c:
                z = z + basis[j] * c
        if needs_exact:
            z2 = abs_sq(z, cm)
            if any((z2 - radii_sq[i] * one).sign_at(reps[i]) > 0 for i in range(f)):
                continue
        out.append(z)
    return out


def _lll_reduce_basis(basis: Sequence[FieldElement], conj):
    """Reduce with exact LLL on the T2 Gram matrix Tr(x * conj(y))."""
    from . import linalg

    n = len(basis)
    if n <= 1:
        return list(basis)
    field = basis[0].field
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(field._trace_coords((basis[i] * conj(basis[j])).coords))
        gram.append(tuple(row))
    U = linalg.lll_transform(linalg.mat(gram))
    out = []
    for row in U:
        z = field.zero()
        for c, v in zip(row, basis):
            if c:
                z = z + v * int(c)
        out.append(z)
    return out


def roots_of_unity(field: NumberField, cm: CMStructure) -> List[FieldElement]:
    """Torsion units: integral elements of modulus exactly 1 in all embeddings."""
    from .numberfield import is_unit_modulus

    n = field.n
    basis = [FieldElement(field, tuple(Fraction(1 if k == j else 0) for k in range(n)))
             for j in range(n)]
    candidates = lattice_points_in_polydisc(basis, cm, [Fraction(1)] * cm.f)
    return [z for z in candidates if not z.is_zero() and is_unit_modulus(z, cm)]
