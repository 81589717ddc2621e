"""Number fields: exact element arithmetic over an integral basis, CM
structure, and the Minkowski embedding into C^f.

An element is one integer row over one denominator: its coordinates on
the field's integral basis, num / den in lowest terms.  Products, norms
and inverses go through the integer matrix of multiplication built from
the structure constants.  Embedding values are certified complex
intervals refined on demand.  Irreducibility of the defining polynomial
is not verified (squarefreeness is); a reducible polynomial surfaces
later as NotAField when a zero divisor is inverted.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import (AlreadyImaginary, DependentGenerators, DivisionByZero,
                     NonMonic, NotAField, PrecisionExhausted)
from .intervals import ComplexInterval
from .linalg import Matrix, mat, mat_inv, mat_mul, rational_hnf, vec_mat
from .numthy import check_squarefree_int, factorize, squarefree_kernel
from .polynomials import (IntPoly, check_monic, check_squarefree, degree,
                          eval_at, make_poly, poly_add, poly_divmod, poly_mul,
                          poly_neg)
from .roots import RootBox, isolate_complex_roots, refine_roots

EMBED_BITS_CAP = 1 << 16


class NumberField:
    """A degree-n field Q[x]/(min_poly) with a fixed integral basis."""

    def __init__(self, min_poly: IntPoly, basis_mat: Matrix, label: str = "",
                 index_conditional: bool = False, warnings: Sequence[str] = ()):
        check_monic(min_poly)
        check_squarefree(min_poly)
        self.min_poly = make_poly(min_poly)
        self.n = degree(self.min_poly)
        self.basis_mat = mat(basis_mat)
        if len(self.basis_mat) != self.n or len(self.basis_mat[0]) != self.n:
            raise ValueError("integral basis must be n x n")
        self.inv_basis_mat = mat_inv(self.basis_mat)
        self.label = label or f"deg{self.n}field"
        self.index_conditional = index_conditional
        self.warnings = list(warnings)
        self._theta_powers = self._power_table()
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
        self._mq_ds: Optional[Tuple[int, ...]] = None  # set by multiquadratic builder
        self._mq_subset_to_power: Optional[Matrix] = None
        self._basis_images: Dict[Tuple[int, int], List[ComplexInterval]] = {}
        self._unit_stretches: Dict[int, tuple] = {}   # see ideals._unit_stretches

    # -- construction helpers ------------------------------------------------

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
        out = [Fraction(0)] * n
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            for i, p in enumerate(self._theta_powers[k]):
                out[i] += c * p
        return tuple(out)

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
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates")
        den = math.lcm(1, *(q.denominator for q in coords))
        return FieldElement(self, [q.numerator * (den // q.denominator) for q in coords], den)

    def zero(self) -> "FieldElement":
        return FieldElement(self, [0] * self.n)

    def one(self) -> "FieldElement":
        return self._one

    def theta(self) -> "FieldElement":
        coords = [0] * self.n
        if self.n == 1:
            # theta is the rational root of the degree-1 min_poly
            return self.from_power_coords([-self.min_poly[0]])
        coords[1] = 1
        return self.from_power_coords(coords)

    def from_power_coords(self, power) -> "FieldElement":
        power = tuple(Fraction(c) for c in power)
        if len(power) < self.n:
            power = power + (Fraction(0),) * (self.n - len(power))
        if len(power) > self.n:
            power = self._reduce_power_poly(power)
        return self.element(vec_mat(power, self.inv_basis_mat))

    def from_rational(self, q) -> "FieldElement":
        return self.from_power_coords([Fraction(q)] + [0] * (self.n - 1))

    # -- embeddings -----------------------------------------------------------

    def roots(self, bits: int = 64) -> List[RootBox]:
        """Certified root boxes of min_poly in a fixed canonical order.

        The boxes are isolated at max(bits, 64) bits and cached per
        precision, so they depend on bits alone, not on earlier calls."""
        bits = max(bits, 64)
        cache = self._roots_cache
        if 64 not in cache:
            cache[64] = isolate_complex_roots(self.min_poly, 64)
        if bits not in cache:
            cache[bits] = refine_roots(self.min_poly, cache[64], bits)
        return cache[bits]

    def n_real_embeddings(self) -> int:
        return sum(1 for r in self.roots() if r.is_real)

    def is_totally_real(self) -> bool:
        return self.n_real_embeddings() == self.n

    def is_totally_imaginary(self) -> bool:
        return self.n_real_embeddings() == 0

    def embed(self, z: "FieldElement", root_index: int, bits: int = 64) -> ComplexInterval:
        """sigma_i(z) as a certified box of width <= 2^-bits."""
        target = Fraction(1, 1 << bits)
        work = bits
        while True:
            box = self.roots(work)[root_index].box
            val = eval_at(z.power_coords(), box, bits=work + 32)
            if val.width() <= target:
                return val
            if work >= EMBED_BITS_CAP:
                raise PrecisionExhausted(
                    f"embedding of element did not reach 2^-{bits}")
            work *= 2

    def basis_images(self, root_index: int, bits: int) -> List[ComplexInterval]:
        """sigma_i(b_k) for the integral basis b_0..b_{n-1}, each box of
        width <= 2^-bits, embedded once per (root_index, bits)."""
        key = (root_index, bits)
        if key not in self._basis_images:
            n = self.n
            self._basis_images[key] = [
                self.embed(self.element([1 if k == j else 0 for k in range(n)]),
                           root_index, bits) for j in range(n)]
        return self._basis_images[key]

    def __repr__(self):
        return f"NumberField({self.label}, deg={self.n}, disc={self.disc})"

    def to_dict(self) -> dict:
        return {
            "min_poly": [int(c) for c in self.min_poly],
            "integral_basis": [[str(c) for c in row] for row in self.basis_mat],
            "label": self.label,
        }


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

    def _check_same(self, other: "FieldElement"):
        if self.field is not other.field:
            raise ValueError("elements belong to different fields")

    def _plus(self, other: "FieldElement", sign: int) -> "FieldElement":
        self._check_same(other)
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
        self._check_same(other)
        return FieldElement(self.field, vec_mat(self.num, self.field._mult_matrix(other.num)),
                            self.den * other.den)

    __rmul__ = __mul__

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

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise DivisionByZero("division by zero")
            return self * (Fraction(1) / q)
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
        return tuple(c / self.den for c in vec_mat(self.num, self.field.basis_mat))

    def trace(self) -> Fraction:
        return Fraction(self.field._trace_coords(self.num), self.den)

    def norm(self) -> Fraction:
        return linalg.mat_det(self.field._mult_matrix(self.num)) / self.den ** self.field.n

    def is_integral(self) -> bool:
        return self.den == 1

    def embed(self, root_index: int, bits: int = 64) -> ComplexInterval:
        return self.field.embed(self, root_index, bits)

    def sign_at(self, root_index: int) -> int:
        """Exact sign (-1, 0 or 1) of sigma_i(z), for z real at that root.

        Doubles the precision until the box leaves zero; a nonzero element
        embeds to a nonzero value, so this ends (or embed raises
        PrecisionExhausted at its cap)."""
        if self.is_zero():
            return 0
        bits = 64
        while True:
            box = self.embed(root_index, bits)
            if box.re.lo > 0:
                return 1
            if box.re.hi < 0:
                return -1
            bits *= 2

    def __repr__(self):
        return f"<{self.field.label}: [{', '.join(str(c) for c in self.coords)}]>"


class CMStructure:
    """Complex conjugation as an exact automorphism (conj_mat, acting on the
    right of integral-basis rows), the real subfield and hermitian_form's cache."""

    __slots__ = ("field", "conj_mat", "fixed_basis", "f", "pair_reps", "hermitian")

    def __init__(self, field: NumberField, conj_mat: Matrix,
                 fixed_basis: Tuple[FieldElement, ...], f: int,
                 pair_reps: Tuple[int, ...], hermitian: Optional[tuple] = None):
        self.field, self.conj_mat, self.fixed_basis = field, conj_mat, fixed_basis
        self.f, self.pair_reps, self.hermitian = f, pair_reps, hermitian

    def conj(self, z: FieldElement) -> FieldElement:
        if z.field is not self.field:
            raise ValueError("element from a different field")
        return self.field.element(c / z.den for c in vec_mat(z.num, self.conj_mat))


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
    back to the power basis (with an index-conditional warning) unless a
    basis is supplied.
    """
    p = make_poly(min_poly)
    check_monic(p)
    check_squarefree(p)
    n = degree(p)
    warnings: List[str] = []
    index_conditional = False
    if integral_basis is not None:
        basis = mat(integral_basis)
    elif n == 1:
        basis = linalg.identity(1)
    elif n == 2:
        basis = _quadratic_integral_basis(p)
    else:
        basis = linalg.identity(n)
        index_conditional = True
        warnings.append(
            "power basis assumed; ideal-theoretic results are index-conditional")
    return NumberField(p, basis, label=label,
                       index_conditional=index_conditional, warnings=warnings)


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


def _f2_independent(ds: Sequence[int]) -> bool:
    """No nonempty subproduct of ds is a perfect square."""
    basis: List[frozenset] = []
    for d in ds:
        vec = set()
        if d < 0:
            vec.add(-1)
        for q, e in factorize(d):
            if e % 2:
                vec.add(q)
        vec = frozenset(vec)
        # reduce against current basis (F_2 elimination over prime support):
        # repeatedly xor with any basis elt whose max lies in cur
        cur = vec
        changed = True
        while changed and cur:
            changed = False
            for b in basis:
                if b and max(b) in cur:
                    cur = cur ^ b
                    changed = True
        if not cur:
            return False
        basis.append(cur)
        basis.sort(key=lambda s: -max(s) if s else 0)
    return True


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

    # primitive element theta = sum c_i sqrt(d_i), small c_i in a fixed order
    for total in itertools.count(m):
        found = None
        for cs in itertools.product(range(1, total - m + 2), repeat=m):
            if sum(cs) != total:
                continue
            theta = [Fraction(0)] * N
            for i, c in enumerate(cs):
                theta[1 << i] = Fraction(c)
            theta = tuple(theta)
            rows = []
            cur = tuple(Fraction(1 if s == 0 else 0) for s in subsets)
            for _ in range(N):
                rows.append(cur)
                cur = alg_mul(cur, theta)
            P = mat(rows)
            if linalg.mat_det(P) != 0:
                found = (theta, P, cur)
                break
        if found:
            break
        if total > m + 8:
            raise DependentGenerators(
                f"no primitive element found for {ds} (degree < 2^{m})")
    theta, P, theta_N = found
    Pinv = mat_inv(P)
    min_poly_tail = vec_mat(theta_N, Pinv)
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
    fld._mq_ds = ds
    fld._mq_subset_to_power = Pinv
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


def adjoin_i(L: NumberField, label: str = "") -> NumberField:
    """The CM field L(i) for a totally real L."""
    if not L.is_totally_real():
        raise AlreadyImaginary(f"{L.label} has a non-real embedding")
    if L._mq_ds is not None:
        return compositum_multiquadratic(L._mq_ds + (-1,),
                                         label=label or f"{L.label}(i)")
    if L.n == 1:
        return compositum_multiquadratic((-1,), label=label or "Q(i)")

    n = L.n
    N = 2 * n

    def alg_mul(u, v):
        # elements of L[y]/(y^2+1) as (a, b) with a, b in power coords of L
        a1, b1 = u[:n], u[n:]
        a2, b2 = v[:n], v[n:]
        pa = L._reduce_power_poly(poly_add(poly_mul(a1, a2), poly_neg(poly_mul(b1, b2))))
        pb = L._reduce_power_poly(poly_add(poly_mul(a1, b2), poly_mul(b1, a2)))
        return tuple(pa) + tuple(pb)

    zero = (Fraction(0),) * n
    theta_L = tuple(Fraction(1 if i == 1 else 0) for i in range(n))
    for c in range(1, 9):
        theta = theta_L + tuple(Fraction(c if i == 0 else 0) for i in range(n))
        rows = []
        cur = (Fraction(1),) + (Fraction(0),) * (N - 1)
        for _ in range(N):
            rows.append(cur)
            cur = alg_mul(cur, theta)
        M = mat(rows)
        if linalg.mat_det(M) != 0:
            break
    else:
        raise DependentGenerators("no primitive element for L(i)")
    Minv = mat_inv(M)
    tail = vec_mat(cur, Minv)
    coeffs = [-x for x in tail] + [Fraction(1)]
    if any(x.denominator != 1 for x in coeffs):
        raise ValueError("theta_L + c*i is not an algebraic integer")
    min_poly = make_poly([int(x) for x in coeffs])

    basis_rows = []
    for row in L.basis_mat:
        basis_rows.append(tuple(row) + zero)
    for row in L.basis_mat:
        basis_rows.append(zero + tuple(row))
    basis_power = mat_mul(mat(basis_rows), Minv)

    warnings = []
    index_conditional = False
    if L.disc % 2 == 0:
        index_conditional = True
        warnings.append("disc(L) even: O_L[i] may be non-maximal; "
                        "ideal results are index-conditional")
    fld = NumberField(min_poly, basis_power, label=label or f"{L.label}(i)",
                      index_conditional=index_conditional, warnings=warnings)
    D = mat([[Fraction((1 if i < n else -1) if i == j else 0) for j in range(N)]
             for i in range(N)])
    conj_power = mat_mul(mat_mul(M, D), Minv)
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
    # field automorphism: multiplicative on basis pairs
    basis_elems = [FieldElement(fld, [1 if k == i else 0 for k in range(n)])
                   for i in range(n)]

    def apply(z):
        return fld.element(c / z.den for c in vec_mat(z.num, conj_int))

    images = [apply(b) for b in basis_elems]
    for i in range(n):
        for j in range(i, n):
            if apply(basis_elems[i] * basis_elems[j]) != images[i] * images[j]:
                return None
    # acts as complex conjugation in every embedding
    if not fld.is_totally_imaginary():
        return None
    bits = 64
    theta_conj = apply(fld.theta())
    while True:
        roots = fld.roots(bits)
        ok = True
        for k, rb in enumerate(roots):
            val = eval_at(theta_conj.power_coords(), rb.box)
            hits = [j for j, other in enumerate(roots)
                    if val.intersects(other.box)]
            if hits != [rb.conj_index]:
                ok = False
                break
        if ok:
            break
        bits *= 2
        if bits > 4096:
            return None

    fixed = linalg.kernel(linalg.transpose(
        mat([[conj_int[i][j] - (1 if i == j else 0) for j in range(n)]
             for i in range(n)])))
    if len(fixed) != n // 2:
        return None
    h, den = rational_hnf(fixed)
    fixed_elems = tuple(FieldElement(fld, row, den) for row in h)

    reps = _conjugate_pair_reps(fld)
    return CMStructure(field=fld, conj_mat=conj_int, fixed_basis=fixed_elems,
                       f=n // 2, pair_reps=reps)


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
            if rb.im.lo > 0:
                reps.append(i)
            elif rb.im.hi < 0:
                continue
            else:
                undecided = True
                break
        if not undecided:
            reps.sort(key=lambda i: (roots[i].re.midpoint(), roots[i].im.midpoint()))
            return tuple(reps)
        bits *= 2
        if bits > 4096:
            raise PrecisionExhausted("could not separate conjugate pairs")


def detect_cm(K: NumberField) -> Optional[CMStructure]:
    """CM structure of K, or None.

    Totally-real and mixed-signature fields are rejected exactly.  For
    totally imaginary fields without a construction-time conjugation, the
    conjugation is reconstructed from certified embeddings (Lagrange
    interpolation through the root boxes) and then verified exactly.
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
            conj_power = _power_action_matrix(K, g)
            cm = _build_cm(K, conj_power)
            if cm is not None:
                K._cm = cm
                K._cm_checked = True
                return cm
        bits *= 2
    K._cm_checked = True
    K._cm = None
    return None


def _interpolate_conjugation(K: NumberField, bits: int):
    """Candidate g in Q[x] with g(root_k) = conj(root_k) for all k."""
    roots = K.roots(bits)
    n = K.n
    boxes = [r.box for r in roots]
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


def _compose(f, g):
    acc = ()
    for c in reversed(f):
        acc = poly_add(poly_mul(acc, g), make_poly([Fraction(c)]))
    return acc


def _power_action_matrix(K: NumberField, g) -> Matrix:
    w = K._reduce_power_poly(tuple(Fraction(c) for c in g) + (Fraction(0),) * max(0, K.n - len(g)))
    rows = []
    cur = tuple(Fraction(1 if i == 0 else 0) for i in range(K.n))
    for _ in range(K.n):
        rows.append(cur)
        prod = poly_mul(cur, w)
        cur = K._reduce_power_poly(prod)
    return mat(rows)


def _simplest_rational(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator in [lo, hi] (Stern-Brocot)."""
    if lo > hi:
        lo, hi = hi, lo
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -_simplest_rational(-hi, -lo)

    def rec(a: Fraction, b: Fraction) -> Fraction:
        # 0 < a <= b; simplest rational in [a, b]
        w = a.numerator // a.denominator
        if a.denominator == 1:
            return a
        if w + 1 <= b:
            return Fraction(w + 1)
        return w + Fraction(1) / rec(Fraction(1) / (b - w), Fraction(1) / (a - w))

    return rec(lo, hi)
