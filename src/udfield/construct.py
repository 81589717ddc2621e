"""Pigeonhole unit generation, window point-set construction, and the
exponent ledger.

The pigeonhole routine groups products of split-prime powers by certified
principality of their ratios (union-find), turns same-class ratios into
unit-modulus elements u = alpha / conj(alpha), and certifies every emitted
unit symbolically.  The window builder enumerates a polydisc slice of a
scaled copy of O_K (or a unit-translate closure of an inner window when a
full window is not desk-feasible) and reports exact translation and
packing bounds next to the measured counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .enumeration import (_int_rows, coordinate_rows, lattice_points_in_polydisc,
                          point_rows, roots_of_unity)
from .errors import (ConditionFailed, ConjugateCollision, InjectivityFailure,
                     InvalidArgument, NotOddPrime, NotPrime, PrecisionExhausted)
from .ideals import (FOUND, INCONCLUSIVE, FracIdeal, PrimeIdeal,
                     class_number_imag_quadratic, is_principal)
from .intervals import RealInterval, exact_ceil, ln_interval, pi_interval
from .numberfield import (CMStructure, FieldElement, NumberField,
                          detect_cm, is_unit_modulus)
from .numthy import iroot_ceil, is_prime, squarefree_kernel


# ---------------------------------------------------------------------------
# Pigeonhole units (class-group pigeonhole on products of split primes)
# ---------------------------------------------------------------------------

@dataclass
class UnitSet:
    """Certified unit-modulus elements of Q^{-2}, with the pigeonhole bookkeeping."""

    field: NumberField
    cm: CMStructure
    units: Tuple[FieldElement, ...]          # all certified, pairwise distinct
    ideal_witnesses: Tuple[FieldElement, ...]  # one per distinct ideal (u)
    Q: FracIdeal
    D: int
    guaranteed_min: Optional[Fraction]       # prod(k_j + 1) / h when h known
    h: Optional[int]
    inconclusive: bool                       # some ratio principality unresolved

    @property
    def distinct_ideal_count(self) -> int:
        return len(self.ideal_witnesses)


def denominator_bound(primes: Sequence[Tuple[PrimeIdeal, int]]) -> int:
    """D = prod over p | N(P_1...P_s) of p^(max_j ceil(2 k_j / e_j))."""
    by_p: Dict[int, int] = {}
    for prime, k in primes:
        exp = -((-2 * k) // prime.e)  # ceil(2k / e)
        by_p[prime.p] = max(by_p.get(prime.p, 0), exp)
    D = 1
    for p, e in sorted(by_p.items()):
        D *= p ** e
    return D


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


def pigeonhole_units(K: NumberField, primes: Sequence[Tuple[PrimeIdeal, int]],
                     include_torsion: bool = True,
                     slack: Fraction = Fraction(13, 10),
                     unit_search_depth: int = 3) -> UnitSet:
    """Units from ideals prod P_j^(a_j) conj(P_j)^(k_j - a_j) in one class.

    Ratios inside the largest principality class give alpha with
    (alpha) = I / I_0; each u = alpha / conj(alpha) is verified to be
    unit-modulus, to lie in Q^{-2}, and to have D u integral.  The emitted
    list is closed under conjugation and (optionally) torsion multiples;
    ideal_witnesses counts the pairwise-distinct ideals (u).
    """
    cm = detect_cm(K)
    if cm is None:
        raise ValueError("pigeonhole_units requires a CM field")
    primes = list(primes)
    _check_prime_pairs(cm, primes)

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
            res = is_principal(ideals[j] * ideals[i].inverse(),
                               slack=slack, unit_search_depth=unit_search_depth)
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
            res = is_principal(ideals[i] * ideals[base].inverse(),
                               slack=slack, unit_search_depth=unit_search_depth)
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
    return UnitSet(field=K, cm=cm, units=ordered, ideal_witnesses=tuple(witnesses),
                   Q=Q, D=D, guaranteed_min=guaranteed, h=h,
                   inconclusive=inconclusive)


def _certify_unit(u: FieldElement, cm: CMStructure, Q2: FracIdeal, D: int):
    if not is_unit_modulus(u, cm):
        raise AssertionError(f"emitted unit fails |u| = 1: {u}")
    if not (u * D).is_integral():
        raise AssertionError(f"emitted unit fails D-integrality: {u}")
    if not (FracIdeal.principal(u) * Q2).is_integral():
        raise AssertionError(f"emitted unit is not in Q^-2: {u}")


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------

def enumerate_window(K: NumberField, scale: Fraction, R: Fraction,
                     a: Optional[FieldElement] = None,
                     limit: Optional[int] = None):
    """(rows, denom): all z in scale*O_K + a with every Minkowski coordinate
    modulus <= R, as integer coordinate rows over one denominator."""
    cm = detect_cm(K)
    if cm is None:
        raise ValueError("window enumeration requires a CM field")
    scale = Fraction(scale)
    R = Fraction(R)
    n = K.n
    basis = [K.element([Fraction(scale if k == j else 0) for k in range(n)])
             for j in range(n)]
    if R < 0:
        return coordinate_rows(basis, _int_rows([], n), a)
    rows = lattice_points_in_polydisc(basis, cm, [R * R] * cm.f,
                                      center=a, limit=limit)
    return coordinate_rows(basis, rows, a)


def halton_translates(K: NumberField, scale: Fraction, count: int) -> List[FieldElement]:
    """Deterministic low-discrepancy fractional offsets in the fundamental
    domain of scale*O_K (van der Corput in coprime bases per coordinate)."""
    n = K.n
    bases = []
    p = 2
    while len(bases) < n:
        if is_prime(p):
            bases.append(p)
        p += 1
    out = []
    for idx in range(1, count + 1):
        coords = []
        for b in bases:
            # radical inverse of idx in base b
            v, denom, i = Fraction(0), Fraction(1, b), idx
            while i:
                v += (i % b) * denom
                i //= b
                denom /= b
            coords.append(v * scale)
        out.append(K.element(coords))
    return out


def select_translate(K: NumberField, scale: Fraction, R: Fraction,
                     candidates: int, limit: Optional[int] = None
                     ) -> Tuple[FieldElement, int]:
    """Maximize |(a + scale O_K) cap B_R| over a = 0 and a deterministic
    low-discrepancy sequence of fractional offsets; ties keep the earliest."""
    best_a = K.zero()
    best_count = len(enumerate_window(K, scale, R, None, limit)[0])
    for a in halton_translates(K, scale, candidates):
        cnt = len(enumerate_window(K, scale, R, a, limit)[0])
        if cnt > best_count:
            best_a, best_count = a, cnt
    return best_a, best_count


# ---------------------------------------------------------------------------
# Point sets and reports
# ---------------------------------------------------------------------------

@dataclass
class WindowConfig:
    R: Fraction
    scale: Fraction
    translate: Optional[FieldElement] = None
    translate_candidates: int = 0
    projection_coordinate: int = 0
    mode: str = "window"              # "window" | "closure"
    max_points: int = 200_000

    def __post_init__(self):
        self.R = Fraction(self.R)
        self.scale = Fraction(self.scale)
        if self.scale <= 0:
            raise InvalidArgument(f"scale must be positive, not {self.scale}")
        if self.mode not in ("window", "closure"):
            raise ValueError(f"unknown window mode {self.mode!r}")


@dataclass
class PointSet:
    field: NumberField
    cm: CMStructure
    rows: "object"                    # (n, deg) integer ndarray: coordinates * denom
    denom: int
    planar: "object"                  # (n, 2) float ndarray, see planar_image
    projection_coordinate: int
    provenance: dict
    unit_pairs: Tuple[Tuple[int, int], ...]   # (i, j), i < j, at exact unit distance


@dataclass
class ConstructionReport:
    f: int
    delta: Fraction                      # = scale
    R: Fraction
    v_upper: Fraction                    # certified bound >= delta^-2 covol^(1/f)
    units_emitted: int
    units_usable: int
    distinct_unit_ideals: int
    guaranteed_min: Optional[Fraction]
    inner_count: int
    translation_bound: int               # units_usable * inner_count
    packing_bound: Fraction              # (9 R^2 / delta^2)^f
    volumetric_lower_2nu: Optional[Tuple[Fraction, Fraction]]  # interval, when R >= 2 and units usable
    measured_points: int
    measured_unit_pairs: int
    mode: str
    translate_is_zero: bool
    inner_count_zero_translate: Optional[int] = None  # when a best translate is used
    exponent_bound: Optional[Tuple[Fraction, Fraction]] = None
    checks: Dict[str, bool] = dc_field(default_factory=dict)
    warnings: List[str] = dc_field(default_factory=list)

    def all_asserted_hold(self) -> bool:
        return all(self.checks.values())


def estimate_window_points(K: NumberField, scale: Fraction, R: Fraction) -> float:
    """Volume heuristic for |scale O_K cap B_R| (planning only, not a bound)."""
    cm = detect_cm(K)
    f = cm.f
    try:
        covol_dim = float(scale) ** 2 * abs(K.disc) ** (1 / (2 * f)) / 2
        per_dim = math.pi * float(R) ** 2 / covol_dim
    except (OverflowError, ZeroDivisionError):
        # R or scale beyond float range: the same estimate through R / scale
        try:
            per_dim = 2 * math.pi * float((R / scale) ** 2) / abs(K.disc) ** (1 / (2 * f))
        except OverflowError:
            return math.inf
    return max(per_dim, 1.0) ** f


def covolume_upper(K: NumberField, scale: Fraction) -> Fraction:
    """Dyadic upper bound for covol(scale O_K)^(1/f) / scale^2
    = (2^-f sqrt|disc|)^(1/f), the lattice-skewness quantity."""
    cm = detect_cm(K)
    f = cm.f
    # (2^-f sqrt(|disc|))^(1/f) = |disc|^(1/2f) / 2, rounded up to 2^-24
    bits = 24
    root = iroot_ceil(abs(K.disc) << (2 * f * bits), 2 * f)
    return Fraction(root, 1 << bits) / 2


def build_pointset(K: NumberField, units: Union[UnitSet, Sequence[FieldElement]],
                   cfg: WindowConfig) -> Tuple[PointSet, ConstructionReport]:
    """Window (or unit-translate closure) point set plus the bound ledger.

    Asserted checks: the translation bound 2 nu >= |U_usable| * |inner
    window| and the packing bound |P| <= (9R^2/delta^2)^f; both are
    theorems for any translate, so a failure is a bug.  The volumetric
    lower bound is reported, and asserted only for R >= 2 in window
    mode with the best translate.
    """
    from .counting import planar_image, unit_pair_indices

    cm = detect_cm(K)
    if cm is None:
        raise ValueError("build_pointset requires a CM field")
    f = cm.f
    if not 0 <= cfg.projection_coordinate < f:
        raise InvalidArgument(f"projection coordinate {cfg.projection_coordinate} "
                              f"outside 0..{f - 1}")
    delta = cfg.scale
    warnings: List[str] = []
    checks: Dict[str, bool] = {}

    if isinstance(units, UnitSet):
        emitted = list(units.units)
        guaranteed = units.guaranteed_min
        distinct_ideals = units.distinct_ideal_count
        if units.inconclusive:
            warnings.append("some principality tests were inconclusive; "
                            "the unit list may be incomplete (all emitted "
                            "units are still individually certified)")
    else:
        emitted = list(units)
        guaranteed = None
        distinct_ideals = len(emitted)
    for u in emitted:
        if not is_unit_modulus(u, cm):
            raise ValueError("units must all be unit-modulus")

    usable = [u for u in emitted if (u / cfg.scale).is_integral()]
    if len(usable) < len(emitted):
        warnings.append(
            f"{len(emitted) - len(usable)} of {len(emitted)} units are not in "
            f"the lattice scale*O_K (scale={cfg.scale}) and were not used "
            "for the translation bound")

    if cfg.R < 2:
        warnings.append("R < 2: volumetric bounds are not asserted")

    if cfg.translate is not None:
        a = cfg.translate
    elif cfg.translate_candidates > 0:
        a, _ = select_translate(K, cfg.scale, cfg.R - 1,
                                cfg.translate_candidates, limit=cfg.max_points)
    else:
        a = K.zero()

    inner, inner_denom = enumerate_window(K, cfg.scale, cfg.R - 1, a,
                                          limit=cfg.max_points)
    if cfg.mode == "window":
        rows, denom = enumerate_window(K, cfg.scale, cfg.R, a, limit=cfg.max_points)
    else:
        rows, denom = _closure_rows(inner, inner_denom, usable, K.n)
        warnings.append(
            "closure mode: point set is the inner window plus its unit "
            "translates (a subset of the full B_R window)")
    if len(rows) > cfg.max_points:
        raise InjectivityFailure("window exceeded max_points")  # defensive

    # projection injectivity: exact points are pairwise distinct, and a
    # nonzero element cannot embed to zero, so projections are distinct
    if len(_unique_rows(rows)) != len(rows):
        raise InjectivityFailure("window enumeration produced duplicates")

    planar, err = planar_image(rows, denom, cm, cfg.projection_coordinate)
    pairs = tuple(unit_pair_indices(rows, denom, planar, err, cm))
    nu = len(pairs)

    translation_bound = len(usable) * len(inner)
    checks["translation_bound"] = 2 * nu >= translation_bound

    packing = (Fraction(9) * cfg.R ** 2 / delta ** 2) ** f
    if delta <= cfg.R:
        checks["packing_bound"] = Fraction(len(rows)) <= packing
    else:
        warnings.append("delta > R: packing bound not asserted")

    v_upper = covolume_upper(K, cfg.scale)
    volumetric_interval = None
    exponent_bound = None
    if cfg.R >= 2 and usable:
        bits = 96
        pi = pi_interval(bits)
        base = pi * RealInterval.point(cfg.R ** 2 / (4 * v_upper * delta ** 2), bits)
        powed = RealInterval.point(1)
        for _ in range(f):
            powed = powed * base
        powed = powed.scale(len(usable))
        volumetric_interval = (powed.lo, powed.hi)
        # the averaging argument only guarantees SOME translate achieves the
        # volumetric bound, so it is asserted only on the default path
        if cfg.mode == "window" and cfg.translate is None:
            checks["volumetric_lower"] = Fraction(2 * nu) >= powed.hi
        # the run's exponent witness log(lower 2nu bound) / log(upper |P| bound)
        if powed.lo > 1 and packing > 1:
            num = RealInterval(ln_interval(powed.lo, bits).lo,
                               ln_interval(powed.hi, bits).hi)
            den = ln_interval(packing, bits)
            q = num.div(den, bits)
            exponent_bound = (q.lo, q.hi)

    inner_zero = None
    if not a.is_zero():
        inner_zero = len(enumerate_window(K, cfg.scale, cfg.R - 1, None,
                                          limit=cfg.max_points)[0])

    provenance = {
        "mode": cfg.mode,
        "scale": str(cfg.scale),
        "R": str(cfg.R),
        "translate_zero": a.is_zero(),
        "projection_coordinate": cfg.projection_coordinate,
    }
    ps = PointSet(field=K, cm=cm, rows=rows, denom=denom, planar=planar,
                  projection_coordinate=cfg.projection_coordinate,
                  provenance=provenance, unit_pairs=pairs)
    report = ConstructionReport(
        f=f, delta=delta, R=cfg.R, v_upper=v_upper,
        units_emitted=len(emitted), units_usable=len(usable),
        distinct_unit_ideals=distinct_ideals, guaranteed_min=guaranteed,
        inner_count=len(inner), translation_bound=translation_bound,
        packing_bound=packing, volumetric_lower_2nu=volumetric_interval,
        measured_points=len(rows), measured_unit_pairs=nu,
        mode=cfg.mode, translate_is_zero=a.is_zero(),
        inner_count_zero_translate=inner_zero, exponent_bound=exponent_bound,
        checks=checks, warnings=warnings)
    if not usable:
        report.warnings.append("no nontrivial units usable in the window "
                               "lattice; translation bound is vacuous")
    return ps, report


def _closure_rows(inner, inner_denom: int, units: Sequence[FieldElement], n: int):
    """(rows, denom): the inner window and its translates by the units,
    without repeats, in lexicographic order of the rows."""
    urows, udenom = point_rows(units, n)
    denom = math.lcm(inner_denom, udenom)
    shifts = [[0] * n] + [[c * (denom // udenom) for c in u] for u in urows.tolist()]
    scale = denom // inner_denom
    return _unique_rows(_int_rows([c * scale + s for w in inner.tolist()
                                   for u in shifts for c, s in zip(w, u)], n)), denom


def _unique_rows(rows):
    """The distinct rows in lexicographic order."""
    import numpy as np

    if rows.dtype != object:
        return np.unique(rows, axis=0)
    return np.array(sorted(set(map(tuple, rows.tolist()))),
                    dtype=object).reshape(-1, rows.shape[1])


# ---------------------------------------------------------------------------
# Exponent ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolicPower:
    """base^exp kept symbolic (the exponent can be astronomically large)."""

    base: int
    exp: int

    def log_interval(self, bits: int) -> RealInterval:
        return ln_interval(self.base, bits).scale(self.exp)

    def to_dict(self) -> dict:
        return {"base": self.base, "exp": self.exp}

    def __str__(self):
        return f"{self.base}^{self.exp}"


Delta = Union[Fraction, SymbolicPower]


def _log_36_over_delta_sq(delta: Delta, bits: int) -> RealInterval:
    ln36 = ln_interval(36, bits)
    if isinstance(delta, SymbolicPower):
        return ln36 - delta.log_interval(bits).scale(2)
    return ln36 - ln_interval(Fraction(delta) ** 2, bits)


def exponent(u: Fraction, v: Fraction, delta: Delta,
             precision_bits: int = 256) -> RealInterval:
    """Certified enclosure of 1 + log(u pi / 36 v) / log(36 / delta^2).

    Requires u pi > 36 v (the condition that makes the exponent exceed 1), certified by
    interval refinement; raises ConditionFailed otherwise.
    """
    u = Fraction(u)
    v = Fraction(v)
    if u <= 0 or v <= 0:
        raise ConditionFailed("u and v must be positive")
    if isinstance(delta, Fraction) and delta > 1:
        raise ConditionFailed("delta must be <= 1")
    bits = precision_bits
    ratio = u / (36 * v)
    while True:
        pi = pi_interval(bits)
        arg = pi.scale(ratio)
        if arg.hi <= 1:
            raise ConditionFailed(
                f"u*pi <= 36*v certified (u={u}, v={v}); no exponent > 1")
        if arg.lo > 1:
            break
        bits *= 2
        if bits > 1 << 14:
            raise PrecisionExhausted("cannot separate u*pi from 36*v")
    num = ln_interval(arg.lo, bits).lo, ln_interval(arg.hi, bits).hi
    num_iv = RealInterval(num[0], num[1])
    den_iv = _log_36_over_delta_sq(delta, bits)
    quot = num_iv.div(den_iv, bits)
    return RealInterval.point(1) + quot


def exponent_ledger(T: Sequence[int], p: int,
                       precision_bits: int = 256) -> dict:
    """The explicit parameter ledger: r, k, u, v, delta, D and the exponent.

    r = prod of T and 2; k = ceil(18 r^3 / pi) - 1; u = (k+1)/r^2; v = r/2;
    delta = p^(-2k) and D = p^(2k) kept symbolic.
    """
    T = tuple(sorted(set(int(q) for q in T)))
    for q in T:
        if q == 2 or not is_prime(q):
            raise NotOddPrime(f"{q} in T is not an odd prime")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p in T:
        raise InvalidArgument(f"p = {p} must not lie in T")
    r = 2 * math.prod(T)
    target = 18 * r ** 3

    def enclose(bits: int) -> RealInterval:
        return RealInterval.point(target) * pi_interval(bits).recip(bits)

    k = exact_ceil(enclose, start_bits=96) - 1
    u = Fraction(k + 1, r * r)
    v = Fraction(r, 2)
    delta = SymbolicPower(p, -2 * k)
    D = SymbolicPower(p, 2 * k)
    ledger = {
        "T": list(T), "p": p, "r": r, "k": k,
        "u": u, "v": v, "delta": delta, "D": D,
    }
    try:
        exp_iv = exponent(u, v, delta, precision_bits)
        ledger["exponent"] = exp_iv
        ledger["feasible"] = True
    except ConditionFailed as exc:
        ledger["exponent"] = None
        ledger["feasible"] = False
        ledger["infeasible_reason"] = str(exc)
    return ledger
