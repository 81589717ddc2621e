"""The certified set-up as it stood in Fraction arithmetic, kept verbatim as
differential-test oracles for its integer rewrites: `eval_at` (interval
Horner), `_image_box`, `_basis_embeddings` and `_coord_bounds` (the
enumerator's basis images and coefficient box), `lll_transform` (exact LLL
on Fraction Gram-Schmidt data), `hnf_rows` (Euclid on whole columns, with
no modulus), and `conj` and `inverse` (CMStructure.conj through the
Fraction conjugation matrix, FieldElement.inverse through mat_inv), the
last two as functions of the structure or element they were methods of.
With them are the Fraction helpers that the enumerator and the planar
image used to reach floats: `float_up`, `float_columns`, `_columns`,
`_PREFILTER_BITS` and `_margins`, copied from `udfield.intervals` and
`udfield.enumeration`, where they no longer exist, and the interval
method `round_outward`, as a function.  The reduction modulo the minimal
polynomial through the table of theta powers (`_power_table` and
`_reduce_power_poly`) and the precision ladder of `_conjugate_pair_reps`
are copied from `udfield.numberfield`, where `poly_divmod` and the 64-bit
root boxes now do those jobs.  `basis_image_ends` (the Fraction Horner at
the root boxes, aligned by `to_fixed`), `_interpolate_conjugation` (the
Lagrange interpolation in interval arithmetic) and the loop of
`detect_cm` that drives it are copied from `udfield.numberfield` too, now
that the field's root boxes, basis images and conjugation candidates are
computed on integers.

The only edits are the absolute imports: `_coord_bounds` imports linalg
from udfield, the two methods take `self` as their first argument,
`round_outward` is called as a function, and `basis_images` rebuilds the
Fraction boxes of the field's basis images from the integer ends that the
field now caches in their place; `_power_table` and `_reduce_power_poly`
take the field as their first argument and build the table per call.  The
interval classes are those of `oracle_intervals`, and a root box, now an
integer `Box`, is read through `box_interval` wherever the old code read
the Fraction box; `basis_image_ends`, `_interpolate_conjugation` and
`detect_cm` take the field as their first argument, and `detect_cm` keeps
no cache on it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from oracle_intervals import ComplexInterval, RealInterval, box_interval, to_fixed
from udfield.errors import DivisionByZero, NotAField, PrecisionExhausted
from udfield.intervals import round_down, round_up, sqrt_upper
from udfield.linalg import Matrix, mat_inv, vec_mat
from udfield.numberfield import (EMBED_BITS_CAP, FieldElement, NumberField, _build_cm,
                                 _compose, _power_action_matrix, _simplest_rational)
from udfield.polynomials import make_poly, poly_divmod


_PREFILTER_BITS = 48


def float_up(q) -> float:
    """The least float >= q."""
    x = float(q)
    return x if Fraction(x) >= q else math.nextafter(x, math.inf)


def float_columns(ivs):
    """Float midpoints of the intervals, with exact bounds on their error."""
    exact = [iv.midpoint() for iv in ivs]
    mids = [float(q) for q in exact]
    errs = [iv.width() / 2 + abs(Fraction(x) - q) for x, q, iv in zip(mids, exact, ivs)]
    return mids, errs


def _columns(boxes, real: Sequence[bool]) -> List[RealInterval]:
    """Real columns of one box per embedding: re and im for a complex root,
    re alone for a real root (its im is exactly 0 and would make the basis
    matrix singular)."""
    return [iv for box, r in zip(boxes, real)
            for iv in ((box.re,) if r else (box.re, box.im))]


def _margins(bounds, mids, errs, base, base_err) -> List[List[float]]:
    """margins[k][t] >= |x_t - P_t| over every completion of c_0..c_k.

    x_t is the exact column t of center + sum c_j v_j and P_t the float
    partial sum base_t + c_0 m_0t + ... + c_k m_kt.  The bound is
    tail + E: tail = sum_{j>k} M_j |m_jt| covers the coordinates not yet
    fixed, and E covers the centre's error, sum_j M_j e_jt and the
    rounding of the n products and n additions, which is below
    2 (n + 2) 2^-53 (|base_t| + sum_j M_j |m_jt|).
    """
    n = len(bounds)
    out = []
    for t in range(len(base)):
        terms = [M * abs(Fraction(m[t])) for M, m in zip(bounds, mids)]
        E = (base_err[t] + sum(M * e[t] for M, e in zip(bounds, errs))
             + Fraction(n + 2, 1 << 52) * (abs(Fraction(base[t])) + sum(terms)))
        out.append([float_up(E + sum(terms[k + 1:])) for k in range(n)])
    return [list(row) for row in zip(*out)]


def round_outward(box, bits: int):
    """A RealInterval or ComplexInterval rounded outward to 2^-bits."""
    if isinstance(box, ComplexInterval):
        return ComplexInterval(round_outward(box.re, bits), round_outward(box.im, bits))
    return RealInterval(round_down(box.lo, bits), round_up(box.hi, bits))


def basis_images(field: NumberField, idx: int, bits: int) -> List[ComplexInterval]:
    """sigma_idx(b_k) for the integral basis, as the Fraction boxes of the
    integer ends in NumberField.basis_image_ends."""
    s, rows = field.basis_image_ends(idx, bits)
    return [ComplexInterval(RealInterval(Fraction(a, 1 << s), Fraction(b, 1 << s)),
                            RealInterval(Fraction(c, 1 << s), Fraction(d, 1 << s)))
            for a, b, c, d in rows]


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


def _image_box(field: NumberField, row: Sequence[int], denom: int, idx: int,
               bits: int) -> ComplexInterval:
    """sigma_idx(z) for z = sum_k (row_k / denom) b_k, of width <= 2^-bits,
    as the exact combination of the field's cached integral-basis images.

    The integer combination sum_k row_k sigma(b_k) is exact and its
    quotient by denom is rounded outward to 2^-g, so the width is at most
    (sum |row_k| / denom + 2) 2^-g for images of width 2^-g; g exceeds bits
    by a multiple of 64 that covers the bit length of that factor."""
    S = -(-sum(map(abs, row)) // denom) + 2    # ceil(sum |row_k| / denom) + 2
    g = bits + 64 * (1 + S.bit_length() // 64)
    parts = []
    for axis in ("re", "im"):
        lo = hi = Fraction(0)
        for c, box in zip(row, basis_images(field, idx, g)):
            iv = getattr(box, axis)
            if c > 0:
                lo, hi = lo + c * iv.lo, hi + c * iv.hi
            elif c < 0:
                lo, hi = lo + c * iv.hi, hi + c * iv.lo
        parts.append(RealInterval(round_down(lo / denom, g), round_up(hi / denom, g)))
    return ComplexInterval(*parts)


def _basis_embeddings(field: NumberField, basis, denom: int, reps: Sequence[int],
                      real: Sequence[bool], bits: int):
    """Columns of sigma_i(v_j) as coarse intervals, one row per basis row."""
    keep = max(_PREFILTER_BITS, bits - 16)
    return [_columns([round_outward(_image_box(field, v, denom, idx, bits), keep)
                      for idx in reps], real) for v in basis]


def _coord_bounds(rows, cols, radii_sq: Sequence[Fraction],
                  center_emb) -> Optional[List[int]]:
    """Certified per-coordinate bounds M_j with |c_j| <= M_j for every solution.

    Writes the real n x n basis matrix as an interval matrix B, takes the
    exact inverse V of its midpoint, and certifies eta = ||I - B V||_1 < 1;
    then c = y (I - E)^{-1} with y = (x - a) V gives
        |c_j| <= |y_j| + ||y||_inf * eta / (1 - eta).
    """
    from udfield import linalg

    n = len(rows)
    try:
        V = linalg.mat_inv(linalg.mat([[iv.midpoint() for iv in row] for row in rows]))
    except ZeroDivisionError:
        return None
    # E = I - B V in interval arithmetic (V exact rational)
    col_sums = [Fraction(0)] * n
    for r in range(n):
        for c in range(n):
            acc = RealInterval.point(-1 if r == c else 0)
            for t in range(n):
                acc = acc + rows[r][t] * RealInterval.point(V[t][c])
            col_sums[c] += acc.magnitude()
    eta = max(col_sums)
    if eta >= 1:
        return None
    # per-real-coordinate bound on |x_t - a_t|
    bnd = [Fraction(0)] * n
    for i, ts in enumerate(cols):
        r = sqrt_upper(radii_sq[i], 16)
        extra = Fraction(0)
        if center_emb is not None:
            extra = max(center_emb[i].re.magnitude(), center_emb[i].im.magnitude())
        for t in ts:
            bnd[t] = r + extra
    y = [sum(bnd[t] * abs(V[t][j]) for t in range(n)) for j in range(n)]
    y_max = max(y)
    slop = y_max * eta / (1 - eta)
    return [int(yj + slop) + 1 for yj in y]


def lll_transform(gram: Matrix, delta: Fraction = Fraction(3, 4)) -> Tuple[Tuple[int, ...], ...]:
    """LLL over an exact PSD Gram matrix; returns the unimodular row transform.

    The reduced basis is U @ (old basis).  Exact rational arithmetic
    throughout.  The Gram-Schmidt data (mu, B_j = |b*_j|^2) is computed
    once.  Size reduction of b_k by b_j leaves every b* alone and changes
    row k of mu by -r * (row j of mu, with mu_jj = 1), so that row is
    updated in place.  Row k is fully size-reduced before the Lovasz test.
    A swap of b_{k-1} and b_k updates mu and B by the SWAP step of Cohen,
    GTM 138, Alg. 2.6.3; when B_{k-1}, B_k or the new B_{k-1} is 0 (a
    singular Gram matrix) those formulas would divide by zero, so the
    data is recomputed from U G U^T instead, with mu_ij = 0 for B_j = 0.
    """
    n = len(gram)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def gso():
        UG = [[sum(u * g[l] for u, g in zip(row, gram) if u) for l in range(n)]
              for row in U]
        cur = [[sum(a * b for a, b in zip(UG[i], U[j])) for j in range(n)]
               for i in range(n)]
        mu = [[Fraction(0)] * n for _ in range(n)]
        bstar = [Fraction(0)] * n
        for i in range(n):
            bstar[i] = cur[i][i]
            for j in range(i):
                if bstar[j] == 0:
                    continue
                mu[i][j] = (cur[i][j] - sum(mu[i][t] * mu[j][t] * bstar[t]
                                            for t in range(j))) / bstar[j]
                bstar[i] -= mu[i][j] ** 2 * bstar[j]
        return mu, bstar

    mu, bstar = gso()
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10000:
            break
        for j in range(k - 1, -1, -1):
            q = mu[k][j]
            r = (q.numerator * 2 + q.denominator) // (2 * q.denominator)  # round
            if r:
                U[k] = [a - r * b for a, b in zip(U[k], U[j])]
                mu[k][j] -= r
                for t in range(j):
                    mu[k][t] -= r * mu[j][t]
        if bstar[k] >= (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            U[k], U[k - 1] = U[k - 1], U[k]
            m = mu[k][k - 1]
            B = bstar[k] + m * m * bstar[k - 1]
            if bstar[k - 1] == 0 or bstar[k] == 0 or B == 0:
                mu, bstar = gso()
            else:
                mu[k][k - 1] = m * bstar[k - 1] / B
                bstar[k] = bstar[k - 1] * bstar[k] / B
                bstar[k - 1] = B
                mu[k - 1][:k - 1], mu[k][:k - 1] = mu[k][:k - 1], mu[k - 1][:k - 1]
                for i in range(k + 1, n):
                    t = mu[i][k]
                    mu[i][k] = mu[i][k - 1] - m * t
                    mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
    return tuple(tuple(r) for r in U)


def hnf_rows(rows: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Canonical row Hermite normal form of the lattice spanned by `rows`.

    Output rows are sorted by pivot column; pivots positive; entries above
    each pivot reduced to [0, pivot).  Zero rows are dropped, so equal
    lattices give equal tuples.
    """
    remaining = [list(map(int, r)) for r in rows if any(r)]
    if not remaining:
        return ()
    ncols = len(remaining[0])
    result: List[List[int]] = []
    pivot_cols: List[int] = []
    for col in range(ncols):
        having = [r for r in remaining if r[col] != 0]
        remaining = [r for r in remaining if r[col] == 0]
        if not having:
            continue
        # Euclid on the col entries until a single row survives
        while len(having) > 1:
            having.sort(key=lambda r: abs(r[col]))
            head = having[0]
            new_having = [head]
            for r in having[1:]:
                q = r[col] // head[col]
                rr = [a - q * b for a, b in zip(r, head)]
                if rr[col] != 0:
                    new_having.append(rr)
                elif any(rr):
                    remaining.append(rr)
            having = new_having
        piv = having[0]
        if piv[col] < 0:
            piv = [-c for c in piv]
        result.append(piv)
        pivot_cols.append(col)
    # reduce entries above each pivot into [0, pivot); ascending pivot order
    # so a later subtraction cannot disturb an already-reduced column
    for j in range(len(result)):
        for i in range(j + 1, len(result)):
            pc = pivot_cols[i]
            q = result[j][pc] // result[i][pc]
            if q:
                result[j] = [a - q * b for a, b in zip(result[j], result[i])]
    return tuple(tuple(r) for r in result)


def conj(self, z: FieldElement) -> FieldElement:
    if z.field is not self.field:
        raise ValueError("element from a different field")
    return self.field.element(c / z.den for c in vec_mat(z.num, self.conj_mat))



def inverse(self) -> "FieldElement":
    if self.is_zero():
        raise DivisionByZero("inverse of zero")
    try:
        inv = mat_inv(self.field._mult_matrix(self.num))
    except ZeroDivisionError:
        raise NotAField(
            "zero divisor encountered: min_poly is reducible") from None
    # (num / den)^-1 = den * num^-1, and x M(num) = 1 for x = num^-1
    return self.field.element(c * self.den for c in vec_mat(self.field.one().num, inv))



def _power_table(self):
    """theta^k reduced mod min_poly, for k = 0 .. 2n-2 (power coords)."""
    n = self.n
    powers = [tuple(Fraction(1 if i == j else 0) for i in range(n))
              for j in range(n)]
    # theta^n = -(low coefficients) for monic min_poly
    cur = tuple(Fraction(-c) for c in self.min_poly[:-1])
    powers.append(cur)
    for _ in range(n + 1, 2 * n - 1):
        shifted = (Fraction(0),) + cur[:-1]
        overflow = cur[-1]
        cur = tuple(s + overflow * h for s, h in zip(shifted, powers[n]))
        powers.append(cur)
    return powers


def _reduce_power_poly(self, coeffs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    n = self.n
    table = _power_table(self)
    out = [Fraction(0)] * n
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        for i, p in enumerate(table[k]):
            out[i] += c * p
    return tuple(out)


def _conjugate_pair_reps(fld: NumberField) -> Tuple[int, ...]:
    """Indices of the upper-half-plane root of each conjugate pair, sorted."""
    bits = 64
    while True:
        roots = fld.roots(bits)
        reps = []
        undecided = False
        for i, rb in enumerate(roots):
            if rb.is_real:
                raise ValueError("field is not totally imaginary")
            im = box_interval(rb.box).im
            if im.lo > 0:
                reps.append(i)
            elif im.hi < 0:
                continue
            else:
                undecided = True
                break
        if not undecided:
            reps.sort(key=lambda i: (box_interval(roots[i].box).re.midpoint(),
                                     box_interval(roots[i].box).im.midpoint()))
            return tuple(reps)
        bits *= 2
        if bits > 4096:
            raise PrecisionExhausted("could not separate conjugate pairs")


def basis_image_ends(self, root_index: int, bits: int):
    """(s, rows): sigma_i(b_k) for the integral basis b_0..b_{n-1} as
    integers over one 2^s, rows[k] = 2^s (re.lo, re.hi, im.lo, im.hi),
    each box of width <= 2^-bits by interval Horner at a refined root
    box."""
    ends = []
    for power in self.basis_mat:
        work = bits
        while True:
            val = eval_at(power, box_interval(self.roots(work)[root_index].box), bits=work + 32)
            if val.width() <= Fraction(1, 1 << bits):
                break
            if work >= EMBED_BITS_CAP:
                raise PrecisionExhausted(
                    f"embedding of a basis element did not reach 2^-{bits}")
            work *= 2
        ends.append((val.re.lo, val.re.hi, val.im.lo, val.im.hi))
    s = max(q.denominator.bit_length() for b in ends for q in b) - 1
    return s, [[to_fixed(q, s) for q in b] for b in ends]


def detect_cm(K: NumberField):
    """The conjugation search of detect_cm for a totally imaginary K."""
    if not K.is_totally_imaginary():
        return None
    bits = 128
    while bits <= 4096:
        g = _interpolate_conjugation(K, bits)
        if g is not None:
            conj_power = _power_action_matrix(K, g)
            cm = _build_cm(K, conj_power)
            if cm is not None:
                return cm
        bits *= 2
    return None


def _interpolate_conjugation(K: NumberField, bits: int):
    """Candidate g in Q[x] with g(root_k) = conj(root_k) for all k."""
    roots = K.roots(bits)
    n = K.n
    boxes = [box_interval(r.box) for r in roots]
    # Lagrange interpolation of (r_k, conj(r_k)) in interval arithmetic
    coeffs = [ComplexInterval.point(0)] * n
    for k in range(n):
        num = [ComplexInterval.point(1)]
        for j in range(n):
            if j == k:
                continue
            # multiply num by (x - r_j)
            new = [ComplexInterval.point(0)] * (len(num) + 1)
            for t, c in enumerate(num):
                new[t] = new[t] + c * (-boxes[j])
                new[t + 1] = new[t + 1] + c
            num = new
        den = ComplexInterval.point(1)
        for j in range(n):
            if j != k:
                den = den * (boxes[k] - boxes[j])
        if den.abs_sq().contains_zero():
            return None
        scale = boxes[k].conjugate().div(den, bits)
        for t in range(len(num)):
            term = num[t] * scale
            coeffs[t] = coeffs[t] + term
    out = []
    for c in coeffs:
        if not c.im.contains_zero():
            return None
        q = _simplest_rational(c.re.lo, c.re.hi)
        out.append(q)
    g = make_poly(out)
    # exact verification that x -> g(x) permutes the roots: min_poly | f(g)
    comp = _compose(K.min_poly, g)
    _, rem = poly_divmod(comp, K.min_poly)
    if rem:
        return None
    return g
