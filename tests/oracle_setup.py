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
are copied from `udfield.numberfield`, where integer reduction and the
64-bit root boxes now do those jobs.  `basis_image_ends` (the Fraction Horner at
the root boxes, aligned by `to_fixed`), `_interpolate_conjugation` (the
Lagrange interpolation in interval arithmetic) and the loop of
`detect_cm` that drives it are copied from `udfield.numberfield` too, now
that the field's root boxes, basis images and conjugation candidates are
computed on integers.

At the end is the field construction as it stood on Fraction matrices,
before the field's own data became integer rows over one denominator:
`NumberField.__init__`, `_reduce_power_poly` (by `poly_divmod`),
`_structure_constants`, `from_power_coords` and `to_dict`, as the methods
of a subclass of udfield's NumberField, with `FieldElement.power_coords`
as the function `power_coords`; `CMStructure` with its Fraction
`conj_mat`; and `nf_new`, `_quadratic_integral_basis`,
`compositum_multiquadratic`, `_attach_cm`, `_build_cm`, `_compose` and
`_power_action_matrix`.

The only edits are the absolute imports: `_coord_bounds` and the field
construction take the Fraction matrix helpers from `oracle_linalg` (as
`linalg` where the old code named the module), the two methods take
`self` as their first argument, `round_outward` is called as a function,
and `basis_images` rebuilds the Fraction boxes of the field's basis
images from the integer ends that the field now caches in their place;
`_power_table` and `_reduce_power_poly` take the field as their first
argument and build the table per call.  The interval classes are those of
`oracle_intervals` and `poly_divmod` is that of `oracle_polynomials`; a
root box, now an integer `Box`, is read through `box_interval` wherever
the old code read the Fraction box;
`basis_image_ends`, `_interpolate_conjugation` and `detect_cm` take the
field as their first argument, and `detect_cm` keeps no cache on it.
`_build_cm` calls `power_coords` as a function and the integer-box
Horner as `polynomials.eval_at`, this module's `eval_at` being the
interval one.  `basis_image_ends`, `detect_cm` and `_build_cm` run on
fields built here.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import oracle_linalg as linalg
from oracle_intervals import ComplexInterval, RealInterval, box_interval, to_fixed
from oracle_linalg import Matrix, mat, mat_inv, mat_mul
from udfield import numberfield, polynomials
from udfield.errors import (DependentGenerators, DivisionByZero, NonMonic, NotAField,
                            PrecisionExhausted)
from udfield.intervals import round_down, round_up, sqrt_upper
from udfield.linalg import vec_mat
from udfield.numberfield import (EMBED_BITS_CAP, FieldElement, _f2_independent,
                                 _simplest_rational)
from udfield.numthy import check_squarefree_int, squarefree_kernel
from oracle_polynomials import poly_divmod
from udfield.polynomials import (IntPoly, check_monic, check_squarefree, degree, make_poly,
                                 poly_add, poly_mul)
from udfield.roots import RootBox


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
    n = len(rows)
    try:
        V = mat_inv(mat([[iv.midpoint() for iv in row] for row in rows]))
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


# ---------------------------------------------------------------------------
# Field construction on Fraction matrices
# ---------------------------------------------------------------------------

class NumberField(numberfield.NumberField):
    """udfield's NumberField with the Fraction set-up it had: the integral
    basis and its inverse as Fraction matrices, and the structure
    constants, from_power_coords and to_dict computed from them."""

    def __init__(self, min_poly: IntPoly, basis_mat: Matrix, label: str = "",
                 warnings: Sequence[str] = ()):
        check_monic(min_poly)
        check_squarefree(min_poly)
        self.min_poly = make_poly(min_poly)
        self.n = degree(self.min_poly)
        self.basis_mat = mat(basis_mat)
        if len(self.basis_mat) != self.n or len(self.basis_mat[0]) != self.n:
            raise ValueError("integral basis must be n x n")
        self.inv_basis_mat = mat_inv(self.basis_mat)
        self.label = label or f"deg{self.n}field"
        self.warnings = list(warnings)
        self.mult_table = self._structure_constants()
        # Tr(b_k) is the trace of multiplication by b_k, whose row i holds
        # the coordinates of b_i b_k
        self.basis_traces = tuple(sum(self.mult_table[i][k][i] for i in range(self.n))
                                  for k in range(self.n))
        # _mult_cols[i][k][j] = coordinate k of b_i b_j, for _mult_matrix
        self._mult_cols = tuple(tuple(zip(*ti)) for ti in self.mult_table)
        self.disc = int(linalg.mat_det([[self._trace_coords(v) for v in row]
                                        for row in self.mult_table]))
        self._one = self.from_power_coords([1])
        self._roots_cache: Dict[int, List[RootBox]] = {}
        self._cm: Optional["CMStructure"] = None
        self._cm_checked = False
        self._image_ends: Dict[Tuple[int, int], tuple] = {}

    # -- construction helpers ------------------------------------------------

    def _reduce_power_poly(self, coeffs: Sequence) -> Tuple[Fraction, ...]:
        """coeffs (power coordinates of any length) reduced mod min_poly to
        exactly n power coordinates."""
        rem = poly_divmod(coeffs, self.min_poly)[1]
        return rem + (Fraction(0),) * (self.n - len(rem))

    def _structure_constants(self):
        n = self.n
        rows_power = self.basis_mat
        table = []
        for i in range(n):
            row_i = []
            for j in range(n):
                prod = poly_mul(rows_power[i], rows_power[j])
                power = self._reduce_power_poly(prod)
                coords = vec_mat(power, self.inv_basis_mat)
                ints = []
                for c in coords:
                    if c.denominator != 1:
                        raise ValueError(
                            "integral basis is not closed under multiplication "
                            f"(b{i}*b{j} has coordinate {c})")
                    ints.append(int(c))
                row_i.append(tuple(ints))
            table.append(tuple(row_i))
        return tuple(table)

    def from_power_coords(self, power) -> "FieldElement":
        return self.element(vec_mat(self._reduce_power_poly(power), self.inv_basis_mat))

    def to_dict(self) -> dict:
        return {
            "min_poly": [int(c) for c in self.min_poly],
            "integral_basis": [[str(c) for c in row] for row in self.basis_mat],
            "label": self.label,
        }


def power_coords(self) -> Tuple[Fraction, ...]:
    return tuple(c / self.den for c in vec_mat(self.num, self.field.basis_mat))


class CMStructure:
    """Complex conjugation as an exact automorphism (conj_mat, acting on the
    right of integral-basis rows, and the same as integer rows over one
    denominator), the f conjugate pairs and hermitian_form's cache."""

    __slots__ = ("field", "conj_mat", "f", "pair_reps", "hermitian", "_conj")

    def __init__(self, field: NumberField, conj_mat: Matrix, f: int,
                 pair_reps: Tuple[int, ...], hermitian: Optional[tuple] = None):
        self.field, self.conj_mat = field, conj_mat
        self.f, self.pair_reps, self.hermitian = f, pair_reps, hermitian
        L = math.lcm(1, *(Fraction(c).denominator for row in conj_mat for c in row))
        self._conj = [[int(c * L) for c in row] for row in conj_mat], L

    def conj(self, z: FieldElement) -> FieldElement:
        if z.field is not self.field:
            raise ValueError("element from a different field")
        C, L = self._conj
        return FieldElement(self.field, vec_mat(z.num, C), z.den * L)


def nf_new(min_poly, integral_basis=None, label: str = "") -> NumberField:
    """Field from a monic squarefree polynomial.

    Quadratic fields get the standard integral basis; other degrees fall
    back to the power basis Z[theta] unless a basis is supplied, with a
    warning in K.warnings (which generate's report repeats) that
    ideal-theoretic results are index-conditional.
    """
    p = make_poly(min_poly)
    check_monic(p)
    check_squarefree(p)
    n = degree(p)
    warnings: List[str] = []
    if integral_basis is not None:
        basis = mat(integral_basis)
    elif n == 1:
        basis = linalg.identity(1)
    elif n == 2:
        basis = _quadratic_integral_basis(p)
    else:
        basis = linalg.identity(n)
        warnings.append(
            "power basis assumed; ideal-theoretic results are index-conditional")
    return NumberField(p, basis, label=label, warnings=warnings)


def _quadratic_integral_basis(p: IntPoly) -> Matrix:
    """Basis {1, (d+sqrt(d))/2} for d = 1 mod 4, else {1, sqrt(d)}."""
    b, c = int(p[1]), int(p[0])
    disc_poly = b * b - 4 * c
    if disc_poly == 0:
        raise NonMonic("not a quadratic field (square discriminant)")
    d = squarefree_kernel(disc_poly)
    s2 = disc_poly // d
    s = math.isqrt(abs(s2))
    # sqrt(d) = (2*theta + b)/s
    if d % 4 == 1:
        row2 = (Fraction(d * s + b, 2 * s), Fraction(1, s))  # (d + sqrt(d))/2
    else:
        row2 = (Fraction(b, s), Fraction(2, s))              # sqrt(d)
    return mat([(1, 0), row2])


def compositum_multiquadratic(ds: Sequence[int], label: str = "") -> NumberField:
    """Q(sqrt(d_1), ..., sqrt(d_m)) with a primitive-element representation."""
    ds = tuple(int(d) for d in ds)
    for d in ds:
        if d in (0, 1):
            raise DependentGenerators(f"generator {d} is trivial")
        check_squarefree_int(d)
    if not _f2_independent(ds):
        raise DependentGenerators(
            f"generators {ds} are multiplicatively dependent modulo squares")
    m = len(ds)
    N = 1 << m
    if m == 0:
        fld = nf_new(make_poly([0, 1]), label=label or "Q")
        return fld

    subsets = list(range(N))

    def mul_subset(sa: int, sb: int):
        common = sa & sb
        scalar = 1
        for i in range(m):
            if common >> i & 1:
                scalar *= ds[i]
        return scalar, sa ^ sb

    def alg_mul(u, v):
        out = [Fraction(0)] * N
        for sa in subsets:
            if u[sa] == 0:
                continue
            for sb in subsets:
                if v[sb] == 0:
                    continue
                scalar, sc = mul_subset(sa, sb)
                out[sc] += u[sa] * v[sb] * scalar
        return tuple(out)

    # primitive element theta = sum sqrt(d_i): its 2^m conjugates
    # sum +-sqrt(d_i) are distinct, the sqrt(d_i) being linearly independent
    # over Q (_f2_independent), so 1, theta, ..., theta^(N-1) are a basis
    theta = [Fraction(0)] * N
    for i in range(m):
        theta[1 << i] = Fraction(1)
    rows = []
    cur = tuple(Fraction(1 if s == 0 else 0) for s in subsets)
    for _ in range(N):
        rows.append(cur)
        cur = alg_mul(cur, theta)
    P = mat(rows)
    Pinv = mat_inv(P)
    min_poly_tail = vec_mat(cur, Pinv)
    coeffs = [-c for c in min_poly_tail] + [Fraction(1)]
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("primitive element is not an algebraic integer")
    min_poly = make_poly([int(c) for c in coeffs])

    # per-factor integral bases, tensored into the subset algebra
    factor_rows = []
    for i, d in enumerate(ds):
        if d % 4 == 1:
            factor_rows.append(((Fraction(1), Fraction(0)),
                                (Fraction(d, 2), Fraction(1, 2))))  # (d+sqrt d)/2
        else:
            factor_rows.append(((Fraction(1), Fraction(0)),
                                (Fraction(0), Fraction(1))))
    tensor_rows = []
    for choice in itertools.product((0, 1), repeat=m):
        vec = [Fraction(0)] * N
        for sa in subsets:
            prod = Fraction(1)
            ok = True
            for i in range(m):
                a, b = factor_rows[i][choice[i]]
                prod *= b if (sa >> i & 1) else a
                if prod == 0:
                    ok = False
                    break
            if ok:
                vec[sa] = prod
        tensor_rows.append(tuple(vec))
    basis_power = mat_mul(mat(tensor_rows), Pinv)

    lbl = label or ("Q(" + ",".join(f"sqrt({d})" for d in ds) + ")")
    fld = NumberField(min_poly, basis_power, label=lbl)
    if any(d < 0 for d in ds):
        diag = []
        for sa in subsets:
            sign = 1
            for i in range(m):
                if (sa >> i & 1) and ds[i] < 0:
                    sign = -sign
            diag.append(sign)
        D = mat([[Fraction(diag[i] if i == j else 0) for j in range(N)]
                 for i in range(N)])
        conj_power = mat_mul(mat_mul(P, D), Pinv)
        _attach_cm(fld, conj_power)
    return fld


def _attach_cm(fld: NumberField, conj_power: Matrix):
    """Validate a conjugation candidate (power-coords action) and cache it."""
    cm = _build_cm(fld, conj_power)
    if cm is None:
        raise ValueError("constructed conjugation failed validation")
    fld._cm = cm
    fld._cm_checked = True


def _build_cm(fld: NumberField, conj_power: Matrix) -> Optional[CMStructure]:
    n = fld.n
    conj_int = mat_mul(mat_mul(fld.basis_mat, conj_power), fld.inv_basis_mat)
    # involution
    if mat_mul(conj_int, conj_int) != linalg.identity(n):
        return None
    cm = CMStructure(field=fld, conj_mat=conj_int, f=n // 2, pair_reps=())
    # field automorphism: multiplicative on basis pairs
    basis_elems = [FieldElement(fld, [1 if k == i else 0 for k in range(n)])
                   for i in range(n)]
    images = [cm.conj(b) for b in basis_elems]
    for i in range(n):
        for j in range(i, n):
            if cm.conj(basis_elems[i] * basis_elems[j]) != images[i] * images[j]:
                return None
    # acts as complex conjugation in every embedding, so that it fixes a
    # subfield of degree n / 2, all of whose embeddings are real
    if not fld.is_totally_imaginary():
        return None
    theta_conj = power_coords(cm.conj(fld.theta()))
    for roots in (fld.roots(64 << i) for i in range(7)):      # up to 4096 bits
        vals = [polynomials.eval_at(theta_conj, rb.box) for rb in roots]
        if all([j for j, other in enumerate(roots) if v.intersects(other.box)] == [rb.conj_index]
               for rb, v in zip(roots, vals)):
            break
    else:
        return None
    # _pair_disks certifies a non-real root's box off the real axis, and
    # roots() is in (re, im) midpoint order
    cm.pair_reps = tuple(i for i, rb in enumerate(fld.roots()) if rb.box.im_lo > 0)
    return cm


def _compose(f, g):
    acc = ()
    for c in reversed(f):
        acc = poly_add(poly_mul(acc, g), make_poly([Fraction(c)]))
    return acc


def _power_action_matrix(K: NumberField, g) -> Matrix:
    """Rows x^k g(x) mod min_poly in power coordinates, k = 0 .. n-1."""
    rows = [K._reduce_power_poly([1])]
    for _ in range(K.n - 1):
        rows.append(K._reduce_power_poly(poly_mul(rows[-1], g)))
    return mat(rows)


