"""The lattice enumerators as they stood before the real-box search was
folded into `udfield.enumeration.lattice_points_in_polydisc`, kept verbatim
as a differential-test oracle (only the imports are made absolute).

`lattice_points_in_polydisc` is the old polydisc enumerator;
`real_lattice_points_in_box` is the old real-box search for totally real
fields; `_modulus_cmp_exact` and `_real_sign_at` are the old exact sign
loops.  `real_structure`, at the end, is not old code: it is the adapter
that lets a test ask the new enumerator for a real box.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import List, Optional, Sequence

from udfield import linalg
from udfield.errors import WindowTooLarge
from udfield.intervals import ComplexInterval, RealInterval, sqrt_upper
from udfield.linalg import identity
from udfield.numberfield import CMStructure, FieldElement, NumberField, abs_sq

_PREFILTER_BITS = 48


def _basis_embeddings(basis: Sequence[FieldElement], cm: CMStructure, bits: int):
    """sigma_i(v_j) as coarse boxes, one row per basis vector."""
    keep = max(_PREFILTER_BITS, bits - 16)
    rows = []
    for v in basis:
        rows.append([v.embed(idx, bits).round_outward(keep)
                     for idx in cm.pair_reps])
    return rows


def _coord_bounds(basis_emb, radii_sq: Sequence[Fraction], center_emb) -> Optional[List[int]]:
    """Certified per-coordinate bounds M_j with |c_j| <= M_j for every solution.

    Writes the real 2f x 2f basis matrix as an interval matrix B, takes the
    exact inverse V of its midpoint, and certifies eta = ||I - B V||_1 < 1;
    then c = y (I - E)^{-1} with y = (x - a) V gives
        |c_j| <= |y_j| + ||y||_inf * eta / (1 - eta).
    """
    f = len(radii_sq)
    n = len(basis_emb)
    mid_rows = []
    iv_rows = []
    for j in range(n):
        mid, ivs = [], []
        for i in range(f):
            b = basis_emb[j][i]
            mid.extend([b.re.midpoint(), b.im.midpoint()])
            ivs.extend([b.re, b.im])
        mid_rows.append(mid)
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
        bnd.extend([r + extra, r + extra])
    y = [sum(bnd[t] * abs(V[t][j]) for t in range(n)) for j in range(n)]
    y_max = max(y)
    slop = y_max * eta / (1 - eta)
    return [int(yj + slop) + 1 for yj in y]


def _modulus_cmp_exact(z: FieldElement, cm: CMStructure, coord: int,
                       bound: Fraction) -> int:
    """Sign of |sigma_coord(z)|^2 - bound, decided exactly."""
    t = abs_sq(z, cm) - bound * z.field.one()
    if t.is_zero():
        return 0
    bits = 64
    while True:
        box = t.embed(cm.pair_reps[coord], bits)
        if box.re.lo > 0:
            return 1
        if box.re.hi < 0:
            return -1
        bits *= 2


def lattice_points_in_polydisc(basis: Sequence[FieldElement], cm: CMStructure,
                               radii_sq: Sequence[Fraction],
                               center: Optional[FieldElement] = None,
                               limit: Optional[int] = None) -> List[FieldElement]:
    """All z = center + sum c_j v_j with |sigma_i(z)|^2 <= radii_sq[i] for all i.

    The polydisc is closed; boundary points are included.  Deterministic
    order (lexicographic in the integer coordinates).
    """
    field = basis[0].field
    f = cm.f
    n = len(basis)
    radii_sq = [Fraction(r) for r in radii_sq]
    if any(r < 0 for r in radii_sq):
        return []
    basis = _lll_reduce_basis(basis, cm)
    emb = _basis_embeddings(basis, cm, 64)
    center_emb = None
    if center is not None and not center.is_zero():
        center_emb = [center.embed(idx, 64).round_outward(_PREFILTER_BITS)
                      for idx in cm.pair_reps]
    bounds = None
    bits = 64
    while bounds is None:
        bounds = _coord_bounds(emb, radii_sq, center_emb)
        if bounds is None:
            bits *= 2
            if bits > 4096:
                raise ValueError("basis embeddings too coarse to bound the search box")
            emb = _basis_embeddings(basis, cm, bits)
    total = 1
    for m in bounds:
        total *= 2 * m + 1
    if limit is not None and total > limit:
        raise WindowTooLarge(
            f"candidate box has {total} points (limit {limit})")

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
            if any(_modulus_cmp_exact(z, cm, i, radii_sq[i]) > 0 for i in range(f)):
                continue
        out.append(z)
    return out


def _lll_reduce_basis(basis: Sequence[FieldElement], cm: CMStructure):
    """Reduce with exact LLL on the T2 Gram matrix Tr(x * conj(y))."""
    n = len(basis)
    if n <= 1:
        return list(basis)
    field = basis[0].field
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(field._trace_coords((basis[i] * cm.conj(basis[j])).coords))
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


def real_lattice_points_in_box(basis: Sequence[FieldElement], bound: Fraction,
                               limit: Optional[int] = None) -> List[FieldElement]:
    """All integer combinations z of `basis` (in a totally real field) with
    |sigma_i(z)| <= bound for every real embedding.  Same certification
    scheme as the polydisc enumerator, with real intervals."""
    field = basis[0].field
    n = field.n
    bound = Fraction(bound)
    if bound < 0:
        return []
    # exact LLL on the trace form Tr(x y)
    gram = [[field._trace_coords((basis[i] * basis[j]).coords)
             for j in range(len(basis))] for i in range(len(basis))]
    U = linalg.lll_transform(linalg.mat(gram))
    red = []
    for row in U:
        z = field.zero()
        for c, v in zip(row, basis):
            if c:
                z = z + v * int(c)
        red.append(z)
    basis = red

    bits = 64
    while True:
        emb = [[v.embed(i, bits).re.round_outward(bits - 16) for i in range(n)]
               for v in basis]
        mid = [[e.midpoint() for e in row] for row in emb]
        try:
            V = linalg.mat_inv(linalg.mat(mid))
        except ZeroDivisionError:
            V = None
        if V is not None:
            col_sums = [Fraction(0)] * len(basis)
            for r in range(len(basis)):
                for c in range(len(basis)):
                    acc = RealInterval.point(-1 if r == c else 0)
                    for t in range(n):
                        acc = acc + emb[r][t] * RealInterval.point(V[t][c])
                    col_sums[c] += acc.magnitude()
            eta = max(col_sums)
            if eta < 1:
                break
        bits *= 2
        if bits > 4096:
            raise ValueError("real basis embeddings too coarse")
    y = [sum(bound * abs(V[t][j]) for t in range(n)) for j in range(len(basis))]
    slop = max(y) * eta / (1 - eta)
    bounds = [int(yj + slop) + 1 for yj in y]
    total = 1
    for m in bounds:
        total *= 2 * m + 1
    if limit is not None and total > limit:
        raise WindowTooLarge(f"candidate box has {total} points (limit {limit})")

    out: List[FieldElement] = []
    b_iv = RealInterval.point(bound)
    for cvec in itertools.product(*[range(-m, m + 1) for m in bounds]):
        ok = True
        needs_exact = False
        for i in range(n):
            acc = RealInterval.point(0)
            for j, c in enumerate(cvec):
                if c:
                    acc = acc + emb[j][i].scale(c)
            if acc.lo > bound or acc.hi < -bound:
                ok = False
                break
            if acc.hi > bound or acc.lo < -bound:
                needs_exact = True
        if not ok:
            continue
        z = field.zero()
        for j, c in enumerate(cvec):
            if c:
                z = z + basis[j] * c
        if needs_exact and not _real_box_member(z, bound):
            continue
        out.append(z)
    return out


def _real_box_member(z: FieldElement, bound: Fraction) -> bool:
    field = z.field
    upper = bound * field.one() - z
    lower = z + bound * field.one()
    for i in range(field.n):
        if _real_sign_at(upper, i) < 0 or _real_sign_at(lower, i) < 0:
            return False
    return True


def _real_sign_at(z: FieldElement, root_index: int) -> int:
    if z.is_zero():
        return 0
    bits = 64
    while True:
        box = z.embed(root_index, bits)
        if box.re.lo > 0:
            return 1
        if box.re.hi < 0:
            return -1
        bits *= 2


def real_structure(F: NumberField) -> CMStructure:
    """A totally real field with the identity as its conjugation: the
    polydisc sigma_i(z)^2 <= r^2 is then the real box |sigma_i(z)| <= r."""
    basis = tuple(F.element([1 if k == j else 0 for k in range(F.n)])
                  for j in range(F.n))
    return CMStructure(field=F, conj_mat=identity(F.n), fixed_basis=basis,
                       f=F.n, pair_reps=tuple(range(F.n)))
