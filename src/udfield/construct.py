"""Pigeonhole unit generation, window point-set construction, and the
exponent ledger.

The pigeonhole routine groups products of split-prime powers, in one pass,
by certified principality of their ratio to each class's first member,
turns same-class ratios into unit-modulus elements u = alpha / conj(alpha),
and certifies every emitted unit symbolically.  The window builder
enumerates a polydisc slice of a scaled copy of O_K (or a unit-translate
closure of an inner window when a full window is not desk-feasible) and
reports exact translation and packing bounds next to the measured counts.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .enumeration import lattice_points_in_polydisc
from .errors import (ConditionFailed, ConjugateCollision, InjectivityFailure,
                     InvalidArgument, NotOddPrime, NotPrime, PrecisionExhausted,
                     WindowTooLarge)
from .ideals import (FOUND, INCONCLUSIVE, FracIdeal, PrimeIdeal,
                     class_number_imag_quadratic, is_principal)
from .intervals import RealInterval, exact_ceil, ln_interval, pi_interval
from .linalg import stack_rows
from .numberfield import (CMStructure, FieldElement, NumberField,
                          detect_cm, is_unit_modulus)
from .numthy import iroot_ceil, is_prime, primes_from, squarefree_kernel


# ---------------------------------------------------------------------------
# Pigeonhole units (class-group pigeonhole on products of split primes)
# ---------------------------------------------------------------------------

PIGEONHOLE_LIMIT = 64        # exponent vectors of one pigeonhole
TRANSLATE_LIMIT = 1000       # translate candidates of one select_translate


class UnitSet(NamedTuple):
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


def _check_prime_pairs(primes: Sequence[Tuple[PrimeIdeal, int]],
                       conjugates: Sequence[FracIdeal]):
    for i, ((pr, k), conj_i) in enumerate(zip(primes, conjugates)):
        if k < 1:
            raise ValueError("all exponents k_j must be >= 1")
        for j, (qr, _) in enumerate(primes):
            if i != j and pr.lattice == qr.lattice:
                raise ConjugateCollision("prime ideals must be pairwise distinct")
            if conj_i == qr.lattice:
                raise ConjugateCollision(
                    f"P_{i} is the conjugate of P_{j}; the pigeonhole needs "
                    "P_i != conj(P_j) for all i, j")
        if conj_i == pr.lattice:
            raise ConjugateCollision(f"P_{i} is self-conjugate (ramified or inert)")


def pigeonhole_units(K: NumberField,
                     primes: Sequence[Tuple[PrimeIdeal, int]]) -> UnitSet:
    """Units from ideals prod P_j^(a_j) conj(P_j)^(k_j - a_j) in one class.

    One pass in lexicographic order of the exponent vectors tests each ideal
    I against the base B (first member) of each class so far, in class
    order, and puts it in the first class with I B^-1 = (alpha) certified;
    otherwise I opens a class (an INCONCLUSIVE test sets `inconclusive`).
    In the largest class (ties toward the smallest base) each member gives
    u = alpha / conj(alpha), alpha = 1 for the base; each u is verified to be
    unit-modulus, to lie in Q^{-2}, and to have D u integral.  The emitted
    list is closed under conjugation and torsion multiples;
    ideal_witnesses counts the pairwise-distinct ideals (u).  Raises
    WindowTooLarge past PIGEONHOLE_LIMIT exponent vectors prod (k_j + 1).
    """
    from .counting import unit_differences

    cm = detect_cm(K)
    if cm is None:
        raise ValueError("pigeonhole_units requires a CM field")
    primes = list(primes)
    conjugates = [pr.lattice.conjugate(cm) for pr, _ in primes]
    _check_prime_pairs(primes, conjugates)
    count = math.prod(k + 1 for _, k in primes)
    if count > PIGEONHOLE_LIMIT:
        raise WindowTooLarge(f"{count} exponent vectors (limit {PIGEONHOLE_LIMIT})")

    # per prime, the k + 1 ideals P^a conj(P)^(k - a), from powers formed once
    Q = FracIdeal.unit_ideal(K)
    factors = []
    for (pr, k), conj in zip(primes, conjugates):
        P, C = _powers(pr.lattice, k), _powers(conj, k)
        factors.append([P[a] * C[k - a] for a in range(k + 1)])
        Q = Q * P[k] * C[k]
    D = denominator_bound(primes)

    ideals: List[FracIdeal] = []
    classes: List[List[int]] = []            # members, base first
    alphas: Dict[int, FieldElement] = {}     # I_j = (alpha) B
    inverses: Dict[int, FracIdeal] = {}      # B^-1, on first use
    inconclusive = False
    for j, vec in enumerate(itertools.product(*[range(k + 1) for _, k in primes])):
        parts = [f[a] for f, a in zip(factors, vec)]
        I = functools.reduce(operator.mul, parts) if parts else FracIdeal.unit_ideal(K)
        for members in classes:
            b = members[0]
            if b not in inverses:
                inverses[b] = ideals[b].inverse()
            res = is_principal(I * inverses[b])
            if res.status == FOUND:
                members.append(j)
                alphas[j] = res.generator
                break
            if res.status == INCONCLUSIVE:
                inconclusive = True
        else:
            classes.append([j])
        ideals.append(I)

    # largest class; max keeps the first, the lexicographically smallest base
    best = max(classes, key=len)
    witnesses: List[FieldElement] = []
    witness_ideals: List[FracIdeal] = []
    one = K.one()
    Q2 = Q * Q
    for j in best:
        alpha = alphas.get(j, one)
        u = alpha / cm.conj(alpha)
        _certify_unit(u, cm, D)
        iu = FracIdeal.principal(u)
        # (u zeta) = (u), (conj u) = conj((u)) and Q = prod P^k conj(P)^k is
        # conjugation-invariant, so this one test covers every unit below
        if not (iu * Q2).is_integral():
            raise AssertionError(f"emitted unit is not in Q^-2: {u}")
        if iu in witness_ideals:
            raise AssertionError("pigeonhole produced a repeated ideal (u)")
        witness_ideals.append(iu)
        witnesses.append(u)

    units: Dict[FieldElement, None] = {}
    torsion = [FieldElement(K, d) for d in unit_differences(cm, [1] * K.n, 1)]
    torsion += [-zeta for zeta in torsion]
    for w in witnesses:
        for var in (w, cm.conj(w)):
            for zeta in torsion:
                u = var * zeta
                if u not in units:
                    _certify_unit(u, cm, D)
                    units[u] = None

    h = None
    guaranteed = None
    if K.n == 2 and K.disc < 0:
        h = class_number_imag_quadratic(squarefree_kernel(K.disc))
        guaranteed = Fraction(math.prod(k + 1 for _, k in primes), h)

    ordered = tuple(sorted(units, key=lambda z: z.coords))
    return UnitSet(field=K, cm=cm, units=ordered, ideal_witnesses=tuple(witnesses),
                   Q=Q, D=D, guaranteed_min=guaranteed, h=h,
                   inconclusive=inconclusive)


def _powers(I: FracIdeal, k: int) -> List[FracIdeal]:
    """[I^0, I^1, ..., I^k] by successive products, k >= 1."""
    out = [FracIdeal.unit_ideal(I.field), I]
    while len(out) <= k:
        out.append(out[-1] * I)
    return out


def _certify_unit(u: FieldElement, cm: CMStructure, D: int):
    if not is_unit_modulus(u, cm):
        raise AssertionError(f"emitted unit fails |u| = 1: {u}")
    if not (u * D).is_integral():
        raise AssertionError(f"emitted unit fails D-integrality: {u}")


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
    denom, center = scale.denominator, None
    if a is not None:
        denom = math.lcm(denom, a.den)
        center = [c * (denom // a.den) for c in a.num]
    s = scale.numerator * (denom // scale.denominator)
    basis = [[s if k == j else 0 for k in range(n)] for j in range(n)]
    # R |R| < 0 for R < 0: a negative radius, which no point meets
    return lattice_points_in_polydisc(basis, denom, cm, [R * abs(R)] * cm.f,
                                      center=center, limit=limit), denom


def halton_translates(K: NumberField, scale: Fraction, count: int) -> List[FieldElement]:
    """Deterministic low-discrepancy fractional offsets in the fundamental
    domain of scale*O_K (van der Corput in coprime bases per coordinate)."""
    bases = list(itertools.islice(primes_from(), K.n))
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
                     candidates: int, limit: Optional[int] = None):
    """(a, (rows, denom), zero_count): the a maximizing |(a + scale O_K) cap
    B_R| over a = 0 and a deterministic low-discrepancy sequence of
    fractional offsets (ties keep the earliest), its window, and the count
    at a = 0 (WindowTooLarge past TRANSLATE_LIMIT candidates)."""
    if candidates > TRANSLATE_LIMIT:
        raise WindowTooLarge(
            f"{candidates} translate candidates (limit {TRANSLATE_LIMIT})")
    best_a = K.zero()
    best = enumerate_window(K, scale, R, None, limit)
    zero_count = len(best[0])
    for a in halton_translates(K, scale, candidates):
        window = enumerate_window(K, scale, R, a, limit)
        if len(window[0]) > len(best[0]):
            best_a, best = a, window
    return best_a, best, zero_count


# ---------------------------------------------------------------------------
# Point sets and reports
# ---------------------------------------------------------------------------

class WindowConfig:
    __slots__ = ("R", "scale", "translate_candidates", "projection_coordinate",
                 "mode", "max_points")

    def __init__(self, R: Fraction, scale: Fraction, translate_candidates: int = 0,
                 projection_coordinate: int = 0, mode: str = "window",
                 max_points: int = 200_000):
        self.R, self.scale = Fraction(R), Fraction(scale)
        self.translate_candidates, self.mode = translate_candidates, mode
        self.projection_coordinate, self.max_points = projection_coordinate, max_points
        if self.scale <= 0:
            raise InvalidArgument(f"scale must be positive, not {self.scale}")
        if self.max_points <= 0:
            raise InvalidArgument(f"max points must be positive, not {self.max_points}")
        if self.translate_candidates < 0:
            raise InvalidArgument("translate candidates must be >= 0, not "
                                  f"{self.translate_candidates}")
        if self.translate_candidates > TRANSLATE_LIMIT:
            raise WindowTooLarge(f"{self.translate_candidates} translate "
                                 f"candidates (limit {TRANSLATE_LIMIT})")
        if self.mode not in ("window", "closure"):
            raise ValueError(f"unknown window mode {self.mode!r}")

    def check_projection(self, f: int):
        """The projection coordinate is one of the f embeddings."""
        if not 0 <= self.projection_coordinate < f:
            raise InvalidArgument(f"projection coordinate {self.projection_coordinate} "
                                  f"outside 0..{f - 1}")


class PointSet(NamedTuple):
    field: NumberField
    cm: CMStructure
    rows: Tuple[Tuple[int, ...], ...]  # integer coordinates * denom, one row per point
    denom: int
    planar: Tuple[Tuple[float, float], ...]   # (re, im) per point, see planar_image
    projection_coordinate: int
    provenance: dict
    unit_pairs: Tuple[Tuple[int, int], ...]   # (i, j), i < j, at exact unit distance


class ConstructionReport(NamedTuple):
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
    inner_count_zero_translate: Optional[int]  # when a best translate is used
    exponent_bound: Optional[Tuple[Fraction, Fraction]]
    checks: Dict[str, bool]
    warnings: List[str]

    def all_asserted_hold(self) -> bool:
        return all(self.checks.values())


def usable_units(emitted: Sequence[FieldElement], scale: Fraction) -> List[FieldElement]:
    """The units u with u / scale integral: those that map scale*O_K to itself."""
    return [u for u in emitted if (u / scale).is_integral()]


def estimate_window_points(K: NumberField, scale: Fraction, R: Fraction, mode: str = "window",
                           units: Sequence[FieldElement] = ()) -> float:
    """Volume heuristic for |scale O_K cap B_R| (planning only, not a bound).

    A closure, B_{R-1} plus one translate per usable unit, lies in B_R, so
    it is sized as the smaller of the two estimates."""
    if mode == "closure":
        inner = estimate_window_points(K, scale, R - 1) * (len(usable_units(units, scale)) + 1)
        return min(inner, estimate_window_points(K, scale, R))
    f = detect_cm(K).f
    try:
        # per disc: pi R^2 over the covolume per dimension, scale^2 |disc|^(1/2f) / 2
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


def build_pointset(K: NumberField, units: UnitSet,
                   cfg: WindowConfig) -> Tuple[PointSet, ConstructionReport]:
    """Window (or unit-translate closure) point set plus the bound ledger,
    for the certified units of a pigeonhole_units UnitSet (each is checked
    again to be unit-modulus).

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
    cfg.check_projection(f)
    delta = cfg.scale
    warnings: List[str] = []
    checks: Dict[str, bool] = {}

    emitted = list(units.units)
    if units.inconclusive:
        warnings.append("some principality tests were inconclusive; "
                        "the unit list may be incomplete (all emitted "
                        "units are still individually certified)")
    for u in emitted:
        if not is_unit_modulus(u, cm):
            raise ValueError("units must all be unit-modulus")

    usable = usable_units(emitted, cfg.scale)
    if len(usable) < len(emitted):
        warnings.append(
            f"{len(emitted) - len(usable)} of {len(emitted)} units are not in "
            f"the lattice scale*O_K (scale={cfg.scale}) and were not used "
            "for the translation bound")

    if cfg.R < 2:
        warnings.append("R < 2: volumetric bounds are not asserted")

    a, (inner, inner_denom), zero_count = select_translate(
        K, cfg.scale, cfg.R - 1, cfg.translate_candidates, limit=cfg.max_points)
    if cfg.mode == "window":
        rows, denom = enumerate_window(K, cfg.scale, cfg.R, a, limit=cfg.max_points)
    else:
        rows, denom = _closure_rows(inner, inner_denom, usable, K.n)
        if len(rows) > cfg.max_points:
            raise WindowTooLarge(f"closure has {len(rows)} points "
                                 f"(limit {cfg.max_points})")
        warnings.append(
            "closure mode: point set is the inner window plus its unit "
            "translates (a subset of the full B_R window)")

    # projection injectivity: exact points are pairwise distinct, and a
    # nonzero element cannot embed to zero, so projections are distinct
    if len(set(rows)) != len(rows):
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
        # volumetric bound; it is asserted in window mode, at a = 0 or at the
        # best candidate translate
        if cfg.mode == "window":
            checks["volumetric_lower"] = Fraction(2 * nu) >= powed.hi
        # the run's exponent witness log(lower 2nu bound) / log(upper |P| bound)
        if powed.lo > 1 and packing > 1:
            num = RealInterval(ln_interval(powed.lo, bits).lo,
                               ln_interval(powed.hi, bits).hi)
            den = ln_interval(packing, bits)
            q = num.div(den, bits)
            exponent_bound = (q.lo, q.hi)

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
        distinct_unit_ideals=units.distinct_ideal_count,
        guaranteed_min=units.guaranteed_min,
        inner_count=len(inner), translation_bound=translation_bound,
        packing_bound=packing, volumetric_lower_2nu=volumetric_interval,
        measured_points=len(rows), measured_unit_pairs=nu,
        mode=cfg.mode, translate_is_zero=a.is_zero(),
        inner_count_zero_translate=None if a.is_zero() else zero_count,
        exponent_bound=exponent_bound,
        checks=checks, warnings=warnings)
    if not usable:
        report.warnings.append("no nontrivial units usable in the window "
                               "lattice; translation bound is vacuous")
    return ps, report


def _closure_rows(inner, inner_denom: int, units: Sequence[FieldElement], n: int):
    """(rows, denom): the inner window and its translates by the units,
    without repeats, in lexicographic order of the rows."""
    # the zero shift, taken over the inner denominator, puts it in the lcm
    shifts, denom = stack_rows([([0] * n, inner_denom)] + [(u.num, u.den) for u in units], n)
    scale = denom // inner_denom
    return tuple(sorted({tuple(c * scale + s for c, s in zip(w, u))
                         for w in inner for u in shifts})), denom


# ---------------------------------------------------------------------------
# Exponent ledger
# ---------------------------------------------------------------------------

class SymbolicPower(NamedTuple):
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
