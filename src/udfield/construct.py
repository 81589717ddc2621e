"""Pigeonhole unit generation and window point-set construction.

prime_pairs takes one prime from each conjugate pair above p.  The
pigeonhole routine groups products of their powers, in one pass, by
certified principality of their ratio to each class's first member,
turns same-class ratios into unit-modulus elements u = alpha / conj(alpha),
and certifies every emitted unit symbolically.  The window builder
enumerates a polydisc slice of a scaled copy of O_K (or a unit-translate
closure of an inner window when a full window is not desk-feasible),
choosing the scale when none is given, and reports exact translation and
packing bounds next to the measured counts.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .enumeration import lattice_points_in_polydisc
from .errors import (ConjugateCollision, InjectivityFailure, InvalidArgument,
                     WindowTooLarge)
from .ideals import (FOUND, INCONCLUSIVE, FracIdeal, PrimeIdeal,
                     class_number_imag_quadratic, is_principal, split_prime)
from .intervals import RealInterval, ln_interval, pi_interval
from .linalg import stack_rows
from .numberfield import CMStructure, FieldElement, NumberField, is_unit_modulus
from .numthy import iroot_ceil, primes_from, squarefree_kernel


# ---------------------------------------------------------------------------
# Pigeonhole units (class-group pigeonhole on products of split primes)
# ---------------------------------------------------------------------------

PIGEONHOLE_LIMIT = 64        # exponent vectors of one pigeonhole
TRANSLATE_LIMIT = 1000       # translate candidates of one WindowConfig


class UnitSet(NamedTuple):
    """Certified unit-modulus elements of Q^{-2}, with the pigeonhole bookkeeping."""

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


def prime_pairs(cm: CMStructure, p: int, k: int) -> List[Tuple[PrimeIdeal, int]]:
    """(P, k) for one prime P from each conjugate pair above p, in HNF
    order, over the CM field cm.field; [] for k = 0, without factoring p.
    A self-conjugate prime above p is a ConjugateCollision."""
    if k == 0:
        return []
    pairs, seen = [], set()
    for pr in sorted(split_prime(cm.field, p), key=lambda q: q.lattice.hnf):
        if pr.lattice in seen:
            continue
        conj = pr.lattice.conjugate(cm)
        if conj == pr.lattice:
            raise ConjugateCollision(f"prime above {p} is self-conjugate; "
                                     "choose a completely split prime")
        seen.add(conj)
        pairs.append((pr, k))
    return pairs


def _check_prime_pairs(primes: Sequence[Tuple[PrimeIdeal, int]],
                       conjugates: Sequence[FracIdeal]):
    for i, conj_i in enumerate(conjugates):
        for j, (qr, _) in enumerate(primes):
            if conj_i == qr.lattice:
                raise ConjugateCollision(
                    f"P_{i} is the conjugate of P_{j}; the pigeonhole needs "
                    "P_i != conj(P_j) for all i, j")


def pigeonhole_units(cm: CMStructure,
                     primes: Sequence[Tuple[PrimeIdeal, int]]) -> UnitSet:
    """Units from ideals prod P_j^(a_j) conj(P_j)^(k_j - a_j) in one class.

    The P_j and their conjugates must be pairwise distinct, with every
    k_j >= 1, as prime_pairs gives them (a P_i that is the conjugate of
    some P_j is a ConjugateCollision).  One pass in lexicographic order of
    the exponent vectors tests each ideal I against the base B (first
    member) of each class so far, in class order, and puts it in
    the first class with I B^-1 = (alpha) certified; otherwise I opens a
    class (an INCONCLUSIVE test sets `inconclusive`).  In the largest class
    (ties toward the smallest base) each member gives u = alpha /
    conj(alpha), alpha = 1 for the base; each u is verified to be
    unit-modulus, to lie in Q^{-2}, and to have D u integral.  The emitted
    list is closed under conjugation and torsion multiples;
    ideal_witnesses counts the pairwise-distinct ideals (u).  Raises
    WindowTooLarge past PIGEONHOLE_LIMIT exponent vectors prod (k_j + 1).
    """
    from .counting import unit_differences

    K = cm.field
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
            res = is_principal(I * inverses[b], cm)
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
    return UnitSet(cm=cm, units=ordered, ideal_witnesses=tuple(witnesses),
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

def enumerate_window(cm: CMStructure, scale: Fraction, R: Fraction,
                     a: Optional[FieldElement] = None,
                     limit: Optional[int] = None):
    """(rows, denom): all z in scale*O_K + a with every Minkowski coordinate
    modulus <= R, as integer coordinate rows over one denominator."""
    scale = Fraction(scale)
    R = Fraction(R)
    n = cm.field.n
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


def select_translate(cm: CMStructure, scale: Fraction, R: Fraction,
                     candidates: int, limit: Optional[int] = None):
    """(a, (rows, denom), zero_count): the a maximizing |(a + scale O_K) cap
    B_R| over a = 0 and a deterministic low-discrepancy sequence of
    fractional offsets (ties keep the earliest), its window, and the count
    at a = 0.  WindowConfig caps candidates at TRANSLATE_LIMIT."""
    best_a = cm.field.zero()
    best = enumerate_window(cm, scale, R, None, limit)
    zero_count = len(best[0])
    for a in halton_translates(cm.field, scale, candidates):
        window = enumerate_window(cm, scale, R, a, limit)
        if len(window[0]) > len(best[0]):
            best_a, best = a, window
    return best_a, best, zero_count


# ---------------------------------------------------------------------------
# Point sets and reports
# ---------------------------------------------------------------------------

class WindowConfig:
    """The window arguments of build_pointset, checked on construction; a
    mode other than "window" builds a closure.  A scale of None leaves the
    lattice scale*O_K to build_pointset."""

    __slots__ = ("R", "scale", "translate_candidates", "projection_coordinate",
                 "mode", "max_points")

    def __init__(self, R: Fraction, scale: Optional[Fraction], translate_candidates: int = 0,
                 projection_coordinate: int = 0, mode: str = "window",
                 max_points: int = 200_000):
        self.R, self.scale = Fraction(R), None if scale is None else Fraction(scale)
        self.translate_candidates, self.mode = translate_candidates, mode
        self.projection_coordinate, self.max_points = projection_coordinate, max_points
        if self.scale is not None and self.scale <= 0:
            raise InvalidArgument(f"scale must be positive, not {self.scale}")
        if self.max_points <= 0:
            raise InvalidArgument(f"max points must be positive, not {self.max_points}")
        if self.translate_candidates < 0:
            raise InvalidArgument("translate candidates must be >= 0, not "
                                  f"{self.translate_candidates}")
        if self.translate_candidates > TRANSLATE_LIMIT:
            raise WindowTooLarge(f"{self.translate_candidates} translate "
                                 f"candidates (limit {TRANSLATE_LIMIT})")

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


def estimate_window_points(cm: CMStructure, scale: Fraction, R: Fraction, mode: str = "window",
                           units: Sequence[FieldElement] = ()) -> float:
    """Volume heuristic for |scale O_K cap B_R| (planning only, not a bound).

    A closure, B_{R-1} plus one translate per usable unit, lies in B_R, so
    it is sized as the smaller of the two estimates."""
    if mode == "closure":
        inner = estimate_window_points(cm, scale, R - 1) * (len(usable_units(units, scale)) + 1)
        return min(inner, estimate_window_points(cm, scale, R))
    f = cm.f
    try:
        # per disc: pi R^2 over the covolume per dimension, scale^2 |disc|^(1/2f) / 2
        per_dim = 2 * math.pi * float((R / scale) ** 2) / abs(cm.field.disc) ** (1 / (2 * f))
    except OverflowError:
        return math.inf
    return max(per_dim, 1.0) ** f


def covolume_upper(cm: CMStructure, scale: Fraction) -> Fraction:
    """Dyadic upper bound for covol(scale O_K)^(1/f) / scale^2
    = (2^-f sqrt|disc|)^(1/f), the lattice-skewness quantity."""
    f = cm.f
    # (2^-f sqrt(|disc|))^(1/f) = |disc|^(1/2f) / 2, rounded up to 2^-24
    bits = 24
    root = iroot_ceil(abs(cm.field.disc) << (2 * f * bits), 2 * f)
    return Fraction(root, 1 << bits) / 2


def build_pointset(units: UnitSet, cfg: WindowConfig) -> Tuple[PointSet, ConstructionReport]:
    """Window (or unit-translate closure) point set plus the bound ledger,
    over the field of the certified units of a pigeonhole_units UnitSet
    (each is checked again to be unit-modulus).

    Asserted checks: the translation bound 2 nu >= |U_usable| * |inner
    window| and the packing bound |P| <= (9R^2/delta^2)^f; both are
    theorems for any translate, so a failure is a bug.  The volumetric
    lower bound is reported, and asserted only for R >= 2 in window
    mode with the best translate.

    A cfg.scale of None takes the first of the natural lattice (1/D)*O_K of
    the units and O_K whose estimate is within cfg.max_points and whose
    build does not pass it (WindowTooLarge when neither is), and warns
    after the build's own warnings when it falls back past the estimate.
    """
    if cfg.scale is not None:
        return _build(units, cfg, cfg.scale)
    warnings = []
    for scale in dict.fromkeys((Fraction(1, units.D), Fraction(1))):
        est = estimate_window_points(units.cm, scale, cfg.R, cfg.mode, units.units)
        if est > cfg.max_points:
            warnings.append(
                f"{cfg.mode} over ({scale})*O_K holds ~{est:.2g} points, "
                "beyond the desk budget; falling back to the unit "
                "lattice O_K (only integral units enter the "
                "translation bound)")
            continue
        try:
            ps, rep = _build(units, cfg, scale)
        except WindowTooLarge:
            continue
        rep.warnings.extend(warnings)
        return ps, rep
    raise WindowTooLarge(
        "no desk-feasible window at these parameters; lower --R, raise "
        "--max-points, or use --mode closure with an explicit small R")


def _build(units: UnitSet, cfg: WindowConfig,
           scale: Fraction) -> Tuple[PointSet, ConstructionReport]:
    """build_pointset over the lattice scale*O_K."""
    from .counting import planar_image, unit_pair_indices

    cm = units.cm
    K, f = cm.field, cm.f
    cfg.check_projection(f)
    delta = scale
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

    usable = usable_units(emitted, scale)
    if len(usable) < len(emitted):
        warnings.append(
            f"{len(emitted) - len(usable)} of {len(emitted)} units are not in "
            f"the lattice scale*O_K (scale={scale}) and were not used "
            "for the translation bound")

    if cfg.R < 2:
        warnings.append("R < 2: volumetric bounds are not asserted")

    a, (inner, inner_denom), zero_count = select_translate(
        cm, scale, cfg.R - 1, cfg.translate_candidates, limit=cfg.max_points)
    if cfg.mode == "window":
        rows, denom = enumerate_window(cm, scale, cfg.R, a, limit=cfg.max_points)
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

    v_upper = covolume_upper(cm, scale)
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
        "scale": str(scale),
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
