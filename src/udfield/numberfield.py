"""Number fields: exact element arithmetic over an integral basis, CM
structure, and the Minkowski embedding into C^f.

The field's own data are integers.  The integral basis is one integer
matrix of power coordinates over one denominator, its inverse the integer
matrix over one determinant that fraction-free Gauss-Jordan gives, and
complex conjugation one integer matrix on the basis over one denominator.
An element is one integer row over one denominator: its coordinates on
the field's integral basis, num / den in lowest terms.  Products, norms
and inverses go through the integer matrix of multiplication built from
the structure constants, and power coordinates are reduced modulo the
monic minimal polynomial without division.  Fractions appear only where
rationals come in or go out: element(), coords, power_coords and the
basis rows that interval Horner and to_dict read.  An embedding value is an
intervals.Box on integer ends, the exact combination of the basis images
that interval Horner gives at the root boxes, refined on demand.  Complex
conjugation, when the field was not built with it, is proposed by
fixed-point interpolation at the roots, each coefficient rounded to the
nearest multiple of 1 / (basis_den |disc|), a denominator every
conjugate of theta admits, and certified by exact checks; the conjugate
pairs of a CM field are read off the root boxes, which lie off
the real axis.  Irreducibility of the defining polynomial is not verified
(squarefreeness is); a reducible polynomial surfaces later as NotAField
when a zero divisor is inverted or its sign is taken.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import (DependentGenerators, DivisionByZero, NonSquarefree, NotAField,
                     PrecisionExhausted)
from .intervals import Box
from .linalg import stack_rows, vec_mat
from .numthy import check_squarefree_int, squarefree_kernel
from .polynomials import (IntPoly, check_monic, check_squarefree, degree,
                          eval_at, make_poly, poly_mul)
from .roots import RootBox, _isolate, refine_roots

EMBED_BITS_CAP = 1 << 16


class NumberField:
    """A degree-n field Q[x]/(min_poly) with a fixed integral basis: b_k has
    power coordinates basis_mat[k] / basis_den."""

    def __init__(self, min_poly: IntPoly, basis_mat: Sequence[Sequence[int]],
                 basis_den: int = 1, label: str = "", warnings: Sequence[str] = ()):
        check_monic(min_poly)
        self.min_poly = make_poly(min_poly)
        self.n = n = degree(self.min_poly)
        if n < 1:
            raise ValueError("min_poly must have degree at least 1")
        g = math.gcd(basis_den, *(c for row in basis_mat for c in row))
        if basis_den < 0:
            g = -g
        self.basis_mat = tuple(tuple(c // g for c in row) for row in basis_mat)
        self.basis_den = basis_den // g
        # (basis_mat / basis_den)^-1 = inv_basis_mat / inv_basis_den
        d, X = linalg.gauss_jordan([[*row, *(self.basis_den * (i == j) for j in range(n))]
                                    for i, row in enumerate(self.basis_mat)])
        if not d:
            raise ValueError("singular matrix")
        sign = -1 if d < 0 else 1
        self.inv_basis_mat = tuple(tuple(sign * c for c in row) for row in X)
        self.inv_basis_den = sign * d
        self.label = label or f"deg{n}field"
        self.warnings = list(warnings)
        self.mult_table = self._structure_constants()
        # Tr(b_k) is the trace of multiplication by b_k, whose row i holds
        # the coordinates of b_i b_k
        self.basis_traces = tuple(sum(self.mult_table[i][k][i] for i in range(n))
                                  for k in range(n))
        # _mult_cols[i][k][j] = coordinate k of b_i b_j, for _mult_matrix
        self._mult_cols = tuple(tuple(zip(*ti)) for ti in self.mult_table)
        self.disc = linalg.mat_det([[self._trace_coords(v) for v in row]
                                    for row in self.mult_table])
        if not self.disc:
            # the trace form degenerates exactly when min_poly has a repeated root
            raise NonSquarefree(f"min_poly {self.min_poly} has a repeated root")
        self._one = self.from_power_coords([1])
        self._roots_cache: Dict[int, List[RootBox]] = {}
        self._cm: Optional["CMStructure"] = None
        self._cm_checked = False
        self._image_ends: Dict[Tuple[int, int], tuple] = {}

    # -- construction helpers ------------------------------------------------

    def _reduce_power_poly(self, row: Sequence[int]) -> List[int]:
        """The integer power coordinates (of any length) reduced mod the
        monic min_poly to exactly n: theta^k = -sum_i p_i theta^(k-n+i)."""
        n, p = self.n, self.min_poly
        r = list(row) + [0] * (n - len(row))
        for k in range(len(r) - 1, n - 1, -1):
            c = r.pop()
            if c:
                for i in range(n):
                    r[k - n + i] -= c * p[i]
        return r

    def _structure_constants(self):
        """table[i][j] = the integer coordinates of b_i b_j: its power
        coordinates B_i B_j / D^2 reduced mod min_poly, times the inverse
        basis matrix X / d, are R X / (D^2 d)."""
        n, B, X = self.n, self.basis_mat, self.inv_basis_mat
        scale = self.basis_den ** 2 * self.inv_basis_den
        table = []
        for i in range(n):
            row_i = []
            for j in range(n):
                ints = []
                for c in vec_mat(self._reduce_power_poly(poly_mul(B[i], B[j])), X):
                    if c % scale:
                        raise ValueError(
                            "integral basis is not closed under multiplication "
                            f"(b{i}*b{j} has coordinate {Fraction(c, scale)})")
                    ints.append(c // scale)
                row_i.append(tuple(ints))
            table.append(tuple(row_i))
        return tuple(table)

    # -- coordinate arithmetic ------------------------------------------------

    def _mult_matrix(self, row: Sequence[int]) -> List[List[int]]:
        """Rows of multiplication by z = sum_j row_j b_j on integral-basis
        row vectors: row i holds the coordinates of b_i z."""
        return [[sum(map(operator.mul, row, col)) for col in cols]
                for cols in self._mult_cols]

    def _trace_coords(self, coords: Sequence[int]) -> int:
        """Tr(z) = sum_k c_k Tr(b_k): the trace is linear."""
        return sum(c * t for c, t in zip(coords, self.basis_traces))

    # -- elements -------------------------------------------------------------

    def element(self, coords) -> "FieldElement":
        coords = tuple(Fraction(c) for c in coords)
        den = math.lcm(1, *(q.denominator for q in coords))
        return FieldElement(self, [q.numerator * (den // q.denominator) for q in coords], den)

    def zero(self) -> "FieldElement":
        return FieldElement(self, [0] * self.n)

    def one(self) -> "FieldElement":
        return self._one

    def theta(self) -> "FieldElement":
        return self.from_power_coords([0, 1])

    def from_power_coords(self, power) -> "FieldElement":
        """The element sum_k power_k theta^k, for ints or Fractions power_k:
        P / D over their common denominator, reduced and multiplied by the
        inverse basis matrix."""
        D = math.lcm(1, *(c.denominator for c in power))
        row = self._reduce_power_poly([c.numerator * (D // c.denominator) for c in power])
        return FieldElement(self, vec_mat(row, self.inv_basis_mat), D * self.inv_basis_den)

    def from_rational(self, q) -> "FieldElement":
        return self.from_power_coords([q])

    # -- embeddings -----------------------------------------------------------

    def roots(self, bits: int = 64) -> List[RootBox]:
        """Certified root boxes of min_poly in a fixed canonical order.

        The boxes are isolated at max(bits, 64) bits and cached per
        precision, so they depend on bits alone, not on earlier calls."""
        bits = max(bits, 64)
        cache = self._roots_cache
        if 64 not in cache:
            cache[64] = _isolate(self.min_poly, 64)
        if bits not in cache:
            cache[bits] = refine_roots(self.min_poly, cache[64], bits)
        return cache[bits]

    def n_real_embeddings(self) -> int:
        return sum(1 for r in self.roots() if r.is_real)

    def is_totally_real(self) -> bool:
        return self.n_real_embeddings() == self.n

    def is_totally_imaginary(self) -> bool:
        return self.n_real_embeddings() == 0

    def _ends(self, z: "FieldElement", root_index: int, bits: int):
        """(g, D, ends): sigma_i(z) as integer ends over D = den 2^s,
        ends = D ((re.lo, re.hi), (im.lo, im.hi)), the exact sum of num_k
        sigma(b_k) over basis images of width 2^-g, so of width at most
        (sum |num_k| / den) 2^-g; g exceeds bits by a multiple of 64 that
        covers the bit length of that factor plus 2 (embed's rounding)."""
        row, den = z.num, z.den
        S = -(-sum(map(abs, row)) // den) + 2    # ceil(sum |num_k| / den) + 2
        g = bits + 64 * (1 + S.bit_length() // 64)
        s, images = self.basis_image_ends(root_index, g)
        ends = []
        for axis in (0, 2):
            lo = hi = 0
            for c, box in zip(row, images):
                if c > 0:
                    lo, hi = lo + c * box[axis], hi + c * box[axis + 1]
                elif c < 0:
                    lo, hi = lo + c * box[axis + 1], hi + c * box[axis]
            ends.append((lo, hi))
        return g, den << s, ends

    def embed(self, z: "FieldElement", root_index: int, bits: int = 64) -> Box:
        """sigma_i(z) as a certified box of width <= 2^-bits: each end of
        _ends rounded outward to 2^-g by one floor division."""
        g, D, ends = self._ends(z, root_index, bits)
        return Box(g, *(end for lo, hi in ends for end in ((lo << g) // D, -((-hi << g) // D))))

    def float_image(self, z: "FieldElement", root_index: int, bits: int = 64):
        """(re, im, err): the correctly rounded midpoints of _ends' box
        (width <= 2^-bits) and a float err, rounded up, at least
        |midpoint - re| + half the width and the same for im, so that err
        bounds the error of both.  Raises OverflowError past float range."""
        _, D, ends = self._ends(z, root_index, bits)
        D2, mids, err = 2 * D, [], 0.0
        for lo, hi in ends:
            m = (lo + hi) / D2
            a, b = m.as_integer_ratio()
            N = abs(a * D2 - (lo + hi) * b) + (hi - lo) * b
            if N:
                err = max(err, math.nextafter(N / (D2 * b), math.inf))
            mids.append(m)
        return mids[0], mids[1], err

    def basis_image_ends(self, root_index: int, bits: int):
        """(s, rows): sigma_i(b_k) for the integral basis b_0..b_{n-1} as
        integers over one 2^s, rows[k] = 2^s (re.lo, re.hi, im.lo, im.hi),
        each box of width <= 2^-bits by interval Horner at a refined root
        box, embedded once per (root_index, bits)."""
        key = (root_index, bits)
        if key not in self._image_ends:
            boxes = []
            for row in self.basis_mat:
                power = [Fraction(c, self.basis_den) for c in row]
                work = bits
                while True:
                    val = eval_at(power, self.roots(work)[root_index].box, bits=work + 32)
                    if max(val.re_hi - val.re_lo, val.im_hi - val.im_lo) << bits <= 1 << val.e:
                        break
                    if work >= EMBED_BITS_CAP:
                        raise PrecisionExhausted(
                            f"embedding of a basis element did not reach 2^-{bits}")
                    work *= 2
                boxes.append(val)
            s = max(b.e for b in boxes)
            self._image_ends[key] = s, [[c << (s - b.e) for c in b[1:]] for b in boxes]
        return self._image_ends[key]

    def __repr__(self):
        return f"NumberField({self.label}, deg={self.n}, disc={self.disc})"

    def to_dict(self) -> dict:
        return {
            "min_poly": [int(c) for c in self.min_poly],
            "integral_basis": [[str(Fraction(c, self.basis_den)) for c in row]
                               for row in self.basis_mat],
            "label": self.label,
        }


def float_sum_error(weights, mids, errs, base: float = 0.0, base_err: float = 0.0) -> float:
    """A float bound on |x - P| for the float sum P = base + c_0 m_0 + ...
    in that order, each c_k a float (an integer or a correctly rounded
    quotient) with |c_k| <= weights[k], where x is the exact sum over the
    values that base and m_k stand for, within base_err and errs[k]:

        base_err + sum_k w_k e_k + (n + 2) 2^-52 (|base| + sum_k w_k |m_k|)

    The last term covers the rounding of the c_k, the n products and the
    n additions (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, sec. 3.1), and 2^-1072 (1 + |m_k|) per term what underflow can
    lose.  All terms are nonnegative, so the growth by 1 + 2^-40 covers the
    bound's own at most 8n + 4 roundings (of the weights and errors passed
    in too) for n below 1000.  Raises OverflowError past float range."""
    n = len(mids)
    s, e = abs(base), base_err
    for w, m, r in zip(weights, mids, errs):
        s += w * abs(m)
        e += w * r + (1 + abs(m)) * 2.0 ** -1072
    bound = (e + (n + 2) * 2.0 ** -52 * s) * (1 + 2.0 ** -40)
    if not bound < math.inf:
        raise OverflowError("error bound beyond float range")
    return bound


class FieldElement:
    """Exact element sum_k (num_k / den) b_k over the owning field's integral
    basis, in lowest terms: den > 0 and gcd(den, *num) = 1, so zero is
    (0, ..., 0) over 1 and equal elements have equal (num, den)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: Sequence[int], den: int = 1):
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        self.field = field
        self.num = tuple(c // g for c in num)
        self.den = den // g

    @property
    def coords(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def _plus(self, other: "FieldElement", sign: int) -> "FieldElement":
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        return FieldElement(self.field, [a * sa + b * sb for a, b in zip(self.num, other.num)],
                            den)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FieldElement(self.field, [a * q.numerator for a in self.num],
                                self.den * q.denominator)
        return FieldElement(self.field, vec_mat(self.num, self.field._mult_matrix(other.num)),
                            self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        # (num / den)^-1 = den * num^-1, and x M(num) = 1 for x = num^-1:
        # M(num)^T x = coords of 1, solved fraction-free as X / d
        M = self.field._mult_matrix(self.num)
        d, X = linalg.gauss_jordan([[*col, e] for col, e in zip(zip(*M), self.field.one().num)])
        if not d:
            raise NotAField("zero divisor encountered: min_poly is reducible")
        return FieldElement(self.field, [self.den * row[0] for row in X], d)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and self.field is other.field
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((id(self.field), self.num, self.den))

    def power_coords(self) -> Tuple[Fraction, ...]:
        K = self.field
        D = self.den * K.basis_den
        return tuple(Fraction(c, D) for c in vec_mat(self.num, K.basis_mat))

    def norm(self) -> Fraction:
        K = self.field
        return Fraction(linalg.mat_det(K._mult_matrix(self.num)), self.den ** K.n)

    def is_integral(self) -> bool:
        return self.den == 1

    def embed(self, root_index: int, bits: int = 64) -> Box:
        return self.field.embed(self, root_index, bits)

    def sign_at(self, root_index: int) -> int:
        """Exact sign (-1, 0 or 1) of sigma_i(z), for z real at that root.

        Doubles the precision until the real ends of _ends leave zero,
        which a nonzero element of a field does; a z of norm 0 whose first
        box holds 0 is a zero divisor and raises NotAField."""
        if self.is_zero():
            return 0
        bits = 64
        while True:
            lo, hi = self.field._ends(self, root_index, bits)[2][0]
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if bits == 64 and self.norm() == 0:
                raise NotAField("zero divisor encountered: min_poly is reducible")
            bits *= 2

    def __repr__(self):
        return f"<{self.field.label}: [{', '.join(str(c) for c in self.coords)}]>"


class CMStructure:
    """Complex conjugation as an exact automorphism, conj_mat / conj_den in
    lowest terms (integer rows acting on the right of integral-basis rows),
    the f conjugate pairs and hermitian_form's cache."""

    __slots__ = ("field", "conj_mat", "conj_den", "f", "pair_reps", "hermitian")

    def __init__(self, field: NumberField, conj_mat: Sequence[Sequence[int]], conj_den: int,
                 f: int, pair_reps: Tuple[int, ...]):
        g = math.gcd(conj_den, *(c for row in conj_mat for c in row))
        self.field, self.f, self.pair_reps, self.hermitian = field, f, pair_reps, None
        self.conj_mat = tuple(tuple(c // g for c in row) for row in conj_mat)
        self.conj_den = conj_den // g

    def conj(self, z: FieldElement) -> FieldElement:
        return FieldElement(self.field, vec_mat(z.num, self.conj_mat), z.den * self.conj_den)


def abs_sq(z: FieldElement, cm: CMStructure) -> FieldElement:
    """z * conj(z); lands in the totally real subfield."""
    return z * cm.conj(z)


def hermitian_form(cm: CMStructure):
    """(T, e): T[j][l][k] = L coords(b_j conj(b_l))_k and e = L coords(1)
    over the integral basis b, with L the least common denominator, so that
    z = sum_j (d_j / D) b_j has |z|^2 = 1 exactly when
    sum_{j,l} d_j d_l T[j][l][k] = D^2 e_k for every k.

    Built on first use and kept on the CM structure."""
    if cm.hermitian is None:
        K = cm.field
        n = K.n
        basis = [FieldElement(K, [1 if k == j else 0 for k in range(n)]) for j in range(n)]
        table = [[b * cm.conj(c) for c in basis] for b in basis]
        one = K.one()
        L = math.lcm(one.den, *(z.den for row in table for z in row))
        cm.hermitian = ([[[c * (L // z.den) for c in z.num] for z in row] for row in table],
                        [c * (L // one.den) for c in one.num])
    return cm.hermitian


def trace_form(cm: CMStructure) -> List[List[int]]:
    """G[j][l] = Tr(b_j conj(b_l)), the T2 form on the integral basis b,
    read off hermitian_form: the trace is linear, so L G[j][l] is the trace
    of the coordinates T[j][l], and Tr(1) = n gives L n = Tr(e).  Every
    entry is the trace of an algebraic integer, so the divisions are exact."""
    T, e = hermitian_form(cm)
    K = cm.field
    L = K._trace_coords(e) // K.n
    return [[K._trace_coords(v) // L for v in row] for row in T]


def is_unit_modulus(z: FieldElement, cm: CMStructure) -> bool:
    """Exact test: |sigma(z)| = 1 in every embedding."""
    return abs_sq(z, cm) == z.field.one()


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def nf_new(min_poly, integral_basis=None, label: str = "") -> NumberField:
    """Field from a monic squarefree polynomial.

    Quadratic fields get the standard integral basis; other degrees fall
    back to the power basis Z[theta] unless a basis is supplied (rows of
    rationals, anything Fraction reads), with a warning in K.warnings
    (which generate's report repeats) that ideal-theoretic results are
    index-conditional.
    """
    p = make_poly(min_poly)
    check_monic(p)
    check_squarefree(p)
    n = degree(p)
    warnings: List[str] = []
    if integral_basis is not None:
        rows = [[Fraction(c) for c in row] for row in integral_basis]
        den = math.lcm(1, *(q.denominator for row in rows for q in row))
        basis = [[q.numerator * (den // q.denominator) for q in row] for row in rows]
    elif n == 2:
        basis, den = _quadratic_integral_basis(p)
    else:
        basis, den = [[int(i == j) for j in range(n)] for i in range(n)], 1
        if n > 2:
            warnings.append(
                "power basis assumed; ideal-theoretic results are index-conditional")
    return NumberField(p, basis, den, label=label, warnings=warnings)


def _quadratic_integral_basis(p: IntPoly):
    """(rows, den): the basis {1, (d+sqrt(d))/2} for d = 1 mod 4, else
    {1, sqrt(d)}, in power coordinates over den."""
    b, c = int(p[1]), int(p[0])
    disc_poly = b * b - 4 * c         # nonzero: p is squarefree
    d = squarefree_kernel(disc_poly)
    s2 = disc_poly // d
    s = math.isqrt(abs(s2))
    # sqrt(d) = (2*theta + b)/s
    if d % 4 == 1:
        return [(2 * s, 0), (d * s + b, 2)], 2 * s   # (d + sqrt(d))/2
    return [(s, 0), (b, 2)], s                       # sqrt(d)


def _f2_independent(ds: Sequence[int]) -> bool:
    """No nonempty subproduct of ds is a perfect square: 2^m - 1 products,
    fewer than the 2^m basis elements of the compositum they would span."""
    return not any(p > 0 and math.isqrt(p) ** 2 == p
                   for r in range(1, len(ds) + 1)
                   for p in map(math.prod, itertools.combinations(ds, r)))


def compositum_multiquadratic(ds: Sequence[int], label: str = "") -> NumberField:
    """Q(sqrt(d_1), ..., sqrt(d_m)) with a primitive-element representation,
    on the integer subset algebra (row S holds the coefficient of
    prod_{i in S} sqrt(d_i)).  The integral basis is the tensor product of
    the quadratic ones, and when some d_i < 0 complex conjugation on it is
    the Kronecker product of one 2 x 2 integer matrix per generator."""
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

    def alg_mul(u, v):
        out = [0] * N
        for sa, a in enumerate(u):
            for sb, b in enumerate(v):
                if a and b:
                    common = sa & sb
                    out[sa ^ sb] += a * b * math.prod(ds[i] for i in range(m) if common >> i & 1)
        return out

    # primitive element theta = sum sqrt(d_i): its 2^m conjugates
    # sum +-sqrt(d_i) are distinct, the sqrt(d_i) being linearly independent
    # over Q (_f2_independent), so 1, theta, ..., theta^(N-1) are a basis,
    # with inverse X / det, and theta^N has coordinates theta^N X / det on it
    theta = [0] * N
    for i in range(m):
        theta[1 << i] = 1
    rows, cur = [], [1] + [0] * (N - 1)
    for _ in range(N):
        rows.append(cur)
        cur = alg_mul(cur, theta)
    det, X = linalg.gauss_jordan([row + [int(i == j) for j in range(N)]
                                  for i, row in enumerate(rows)])
    tail = vec_mat(cur, X)
    if any(c % det for c in tail):
        raise ValueError("primitive element is not an algebraic integer")
    min_poly = make_poly([-c // det for c in tail] + [1])

    # per-factor integral bases {1, sqrt d} or {1, (d + sqrt d)/2}, over 2,
    # tensored into the subset algebra (generator 0 leads the row order)
    factors = [((2, 0), (d, 1)) if d % 4 == 1 else ((2, 0), (0, 2)) for d in ds]
    tensor = [[math.prod(factors[i][choice[i]][sa >> i & 1] for i in range(m))
               for sa in range(N)]
              for choice in itertools.product((0, 1), repeat=m)]
    lbl = label or ("Q(" + ",".join(f"sqrt({d})" for d in ds) + ")")
    fld = NumberField(min_poly, [vec_mat(row, X) for row in tensor], det << m, label=lbl)
    if any(d < 0 for d in ds):
        # conj fixes sqrt d for d > 0 and negates it for d < 0, where it
        # takes (d + sqrt d)/2 to d - (d + sqrt d)/2
        C = [[1]]
        for d in ds:
            A = ((1, 0), (0, 1)) if d > 0 else ((1, 0), (d if d % 4 == 1 else 0, -1))
            C = [[x * a for x in row for a in arow] for row in C for arow in A]
        cm = _build_cm(fld, C, 1)
        if cm is None:
            raise ValueError("constructed conjugation failed validation")
        fld._cm, fld._cm_checked = cm, True
    return fld


def _build_cm(fld: NumberField, conj_mat, conj_den: int) -> Optional[CMStructure]:
    """The CM structure whose conjugation is conj_mat / conj_den on the
    integral basis, or None unless that is an involution, a field
    automorphism and complex conjugation at every root."""
    n = fld.n
    cm = CMStructure(fld, conj_mat, conj_den, n // 2, ())
    C, L = cm.conj_mat, cm.conj_den
    # involution
    if [vec_mat(row, C) for row in C] != [tuple(L * L * (i == j) for j in range(n))
                                          for i in range(n)]:
        return None
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
    theta_conj = cm.conj(fld.theta()).power_coords()
    for roots in (fld.roots(64 << i) for i in range(7)):      # up to 4096 bits
        vals = [eval_at(theta_conj, rb.box) for rb in roots]
        if all([j for j, other in enumerate(roots) if v.intersects(other.box)] == [rb.conj_index]
               for rb, v in zip(roots, vals)):
            break
    else:
        return None
    # _pair_disks certifies a non-real root's box off the real axis, and
    # roots() is in (re, im) midpoint order
    cm.pair_reps = tuple(i for i, rb in enumerate(fld.roots()) if rb.box.im_lo > 0)
    return cm


def detect_cm(K: NumberField) -> Optional[CMStructure]:
    """CM structure of K, or None.

    Totally-real and mixed-signature fields are rejected exactly.  For
    totally imaginary fields without a construction-time conjugation,
    _interpolate_conjugation proposes a polynomial g with g(r) = conj(r) at
    every root r, its coefficients rounded at a proven denominator.  It is
    turned once into t = g(theta) on the integral basis, and the
    automorphism theta -> t, sum_j c_j theta^j -> sum_j c_j t^j, into its
    integer matrix there; _build_cm's exact checks then certify it
    (multiplicativity on the basis implies min_poly(t) = 0).  A candidate
    that fails them is retried at twice the precision.
    """
    if K._cm_checked:
        return K._cm
    if not K.is_totally_imaginary():
        K._cm_checked = True
        K._cm = None
        return None
    bits = 128
    while bits <= 4096:
        g = _interpolate_conjugation(K, bits)
        if g is not None:
            t = K.from_power_coords(g)
            powers = [K.one()]
            for _ in range(K.n - 1):
                powers.append(powers[-1] * t)
            T, den = stack_rows([(z.num, z.den) for z in powers], K.n)
            cm = _build_cm(K, [vec_mat(row, T) for row in K.basis_mat], den * K.basis_den)
            if cm is not None:
                K._cm = cm
                K._cm_checked = True
                return cm
        bits *= 2
    K._cm_checked = True
    K._cm = None
    return None


def _interpolate_conjugation(K: NumberField, bits: int):
    """A candidate g in Q[x] with g(r_k) = conj(r_k) at every root r_k, or
    None.  The Lagrange interpolation of (r_k, conj(r_k)) runs at the
    midpoints of the root boxes in fixed-point Gaussian integers over 2^F,
    and each real coefficient is rounded to the nearest multiple of 1/M,
    M = basis_den |disc|.  Nothing here is certified: detect_cm's exact
    checks decide the candidate."""
    boxes = [rb.box for rb in K.roots(bits)]
    F = max(b.e for b in boxes) + 1
    z = [((b.re_lo + b.re_hi) << (F - 1 - b.e), (b.im_lo + b.im_hi) << (F - 1 - b.e))
         for b in boxes]
    coeffs = [0] * K.n
    for k, (x, y) in enumerate(z):
        num, dr, di = [(1 << F, 0)], 1 << F, 0
        for j, (u, v) in enumerate(z):
            if j == k:
                continue
            # num *= (X - z_j), and (dr, di) *= (z_k - z_j)
            new = [(0, 0)] + num
            for t, (a, b) in enumerate(num):
                new[t] = (new[t][0] - ((a * u - b * v) >> F), new[t][1] - ((a * v + b * u) >> F))
            num = new
            dr, di = (dr * (x - u) - di * (y - v)) >> F, (dr * (y - v) + di * (x - u)) >> F
        q = dr * dr + di * di
        if not q:
            return None
        # conj(z_k) / prod_j (z_k - z_j)
        sr, si = ((x * dr - y * di) << F) // q, ((-x * di - y * dr) << F) // q
        for t, (a, b) in enumerate(num):
            coeffs[t] += (a * sr - b * si) >> F
    # The conjugate t = g(theta) of theta is an algebraic integer, so t lies
    # in O_K.  For the order O of the basis, [O_K : O] O_K lies in O, and
    # disc(O) = [O_K : O]^2 disc(O_K), so [O_K : O] divides disc(O) = disc;
    # the elements of O have power coordinates over basis_den.  So every
    # coefficient of g is a multiple of 1/M.
    M = K.basis_den * abs(K.disc)
    return [Fraction((c * M + (1 << (F - 1))) >> F, M) for c in coeffs]
