import math
import random
from fractions import Fraction

import pytest
from oracle_intervals import box_interval
from pointrows import elements_of

from udfield.construct import (UnitSet, WindowConfig, build_pointset, covolume_upper,
                               denominator_bound, enumerate_window,
                               estimate_window_points, halton_translates,
                               pigeonhole_units, select_translate)
from udfield.errors import ConditionFailed, ConjugateCollision
from udfield.gstower import SymbolicPower, exponent, exponent_ledger
from udfield.ideals import FracIdeal, split_prime
from udfield.numberfield import abs_sq, is_unit_modulus


def prime_pairs(K, cm, p, k):
    primes = split_prime(K, p)
    out, seen = [], set()
    for pr in sorted(primes, key=lambda q: q.lattice.hnf):
        if pr.lattice in seen:
            continue
        seen.add(pr.lattice.conjugate(cm))
        out.append((pr, k))
    return out


def test_denominator_bound_examples(gaussian, gaussian_cm, qsqrt_m5, qsqrt_m5_cm):
    pairs = prime_pairs(gaussian, gaussian_cm, 5, 2)
    assert denominator_bound(pairs) == 625
    pairs3 = prime_pairs(qsqrt_m5, qsqrt_m5_cm, 3, 2)
    assert denominator_bound(pairs3) == 81
    # two primes above 5 and 13 with k = 1 each
    two = prime_pairs(gaussian, gaussian_cm, 5, 1) + \
        prime_pairs(gaussian, gaussian_cm, 13, 1)
    assert denominator_bound(two) == 25 * 169


def test_pigeonhole_gaussian(gaussian, gaussian_cm):
    K, cm = gaussian, gaussian_cm
    us = pigeonhole_units(K, prime_pairs(K, cm, 5, 2))
    assert us.guaranteed_min == 3 and us.h == 1
    assert us.distinct_ideal_count >= 3
    assert us.D == 625
    assert not us.inconclusive
    target = K.element([Fraction(-7, 25), Fraction(24, 25)])
    inverse = K.element([Fraction(-7, 25), Fraction(-24, 25)])
    assert target in us.units and inverse in us.units
    for u in us.units:
        assert is_unit_modulus(u, cm)
        assert (u * us.D).is_integral()
        assert (FracIdeal.principal(u) * us.Q ** 2).is_integral()
    # the witness ideals (u) are pairwise distinct
    ideals = [FracIdeal.principal(u) for u in us.ideal_witnesses]
    assert len(set(ideals)) == len(ideals)


def test_pigeonhole_qsqrt_m5(qsqrt_m5, qsqrt_m5_cm):
    K, cm = qsqrt_m5, qsqrt_m5_cm
    us = pigeonhole_units(K, prime_pairs(K, cm, 3, 2))
    assert us.h == 2
    assert us.guaranteed_min == Fraction(3, 2)
    assert us.distinct_ideal_count >= 2
    assert us.D == 81
    target = K.element([Fraction(-1, 9), Fraction(4, 9)])
    assert target in us.units or -target in us.units
    assert any(u == target for u in us.units)


# Q(sqrt(-23)) has h = 3: k = 2 gives three one-member classes, k = 3 a
# best class of two members, and the primes above 3 and 13 a best class that
# is not the first; a Z/2 class group always gives a single class
PIGEONHOLE_CASES = [("gaussian", (5,), 1), ("gaussian", (5,), 2),
                    ("qsqrt-5", (3,), 2), ("qsqrt-5", (7,), 3),
                    ("qsqrt-23", (3,), 1), ("qsqrt-23", (3,), 2),
                    ("qsqrt-23", (3,), 3), ("qsqrt-23", (3, 13), 1),
                    ("adjoin-i:5", (29,), 1)]


@pytest.mark.parametrize("name, ps, k", PIGEONHOLE_CASES)
def test_pigeonhole_matches_oracle(name, ps, k):
    import oracle_pigeonhole

    from udfield.cli import build_field
    from udfield.numberfield import detect_cm

    K = build_field(name)
    pairs = [pair for p in ps for pair in prime_pairs(K, detect_cm(K), p, k)]
    ours = pigeonhole_units(K, pairs)
    theirs = oracle_pigeonhole.pigeonhole_units(K, pairs)
    for name in UnitSet._fields:
        assert getattr(ours, name) == getattr(theirs, name), name
    if name == "qsqrt-23":        # the size of the best class
        best = {((3,), 1): 1, ((3,), 2): 1, ((3,), 3): 2, ((3, 13), 1): 2}
        assert ours.distinct_ideal_count == best[ps, k]


def test_pigeonhole_asks_each_principality_once(deg4, deg4_cm, monkeypatch):
    import udfield.construct as construct

    calls = {"is_principal": 0, "inverse": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(construct, "is_principal",
                        counted("is_principal", construct.is_principal))
    monkeypatch.setattr(FracIdeal, "inverse", counted("inverse", FracIdeal.inverse))
    us = pigeonhole_units(deg4, prime_pairs(deg4, deg4_cm, 29, 1))
    assert us.distinct_ideal_count == 4
    assert calls == {"is_principal": 3, "inverse": 1}


def test_pigeonhole_forms_each_prime_power_once(deg4, deg4_cm, monkeypatch):
    # the (k + 1)^2 exponent vectors of two primes share 2 (k + 1) powers
    # per prime, built by successive products, never by FracIdeal.__pow__
    calls = []

    def counted(self, e):
        calls.append(e)
        return power(self, e)

    pairs = prime_pairs(deg4, deg4_cm, 29, 2)
    assert len(pairs) == 2
    power = FracIdeal.__pow__
    monkeypatch.setattr(FracIdeal, "__pow__", counted)
    us = pigeonhole_units(deg4, pairs)
    assert calls == []
    assert us.Q == math.prod((pr.lattice * pr.lattice.conjugate(deg4_cm) for pr, _ in pairs),
                             start=FracIdeal.unit_ideal(deg4)) ** 2


def test_pigeonhole_tests_q2_once_per_witness(deg4, deg4_cm, monkeypatch):
    # (u zeta) = (u), (conj u) = conj((u)) and Q is conjugation-invariant, so
    # Q^-2 is tested on each witness's ideal (u) alone, not on the torsion
    # multiples and conjugates of the witness
    pairs = prime_pairs(deg4, deg4_cm, 29, 1)
    principal = FracIdeal.principal
    calls = []

    def counted(z):
        calls.append(z)
        return principal(z)

    monkeypatch.setattr(FracIdeal, "principal", counted)
    us = pigeonhole_units(deg4, pairs)
    assert calls == list(us.ideal_witnesses)
    assert len(us.units) == 28 > len(calls) == 4


def test_pigeonhole_empty(gaussian, gaussian_cm):
    us = pigeonhole_units(gaussian, [])
    assert us.distinct_ideal_count == 1
    assert us.guaranteed_min == 1      # 1/h with h = 1
    assert us.D == 1
    assert gaussian.one() in us.units


def test_pigeonhole_conjugate_collision(gaussian, gaussian_cm):
    primes = split_prime(gaussian, 5)
    with pytest.raises(ConjugateCollision):
        pigeonhole_units(gaussian, [(primes[0], 1), (primes[1], 1)])
    inert = split_prime(gaussian, 3)
    with pytest.raises(ConjugateCollision):
        pigeonhole_units(gaussian, [(inert[0], 1)])


def test_enumerate_window_examples(gaussian):
    w2, denom = enumerate_window(gaussian, Fraction(1), Fraction(2))
    assert len(w2) == 13 and denom == 1
    w1, _ = enumerate_window(gaussian, Fraction(1), Fraction(1))
    assert len(w1) == 5
    # a negative R holds no point (R^2 = 1 would give w1's five)
    assert len(enumerate_window(gaussian, Fraction(1), Fraction(-1))[0]) == 0
    # brute-force oracle over the integer square
    brute = 0
    for a in range(-3, 4):
        for b in range(-3, 4):
            if a * a + b * b <= 4:
                brute += 1
    assert brute == 13
    huge = elements_of(gaussian, *enumerate_window(gaussian, Fraction(10 ** 6),
                                                   Fraction(2)))
    assert len(huge) == 1 and huge[0].is_zero()


def test_window_includes_boundary(gaussian):
    # |2| = 2 lies on the closed boundary of B_2 and must be included
    w = elements_of(gaussian, *enumerate_window(gaussian, Fraction(1), Fraction(2)))
    assert gaussian.from_rational(2) in w


def test_select_translate(gaussian):
    a, (rows, denom), zero_count = select_translate(gaussian, Fraction(1), Fraction(1), 0)
    assert a.is_zero() and len(rows) == 5 and denom == 1 and zero_count == 5
    a16, (rows16, _), zero16 = select_translate(gaussian, Fraction(1), Fraction(1), 16)
    assert len(rows16) >= 5 and zero16 == 5


def test_build_pointset_reuses_translate_windows(gaussian, gaussian_cm, monkeypatch):
    import udfield.construct as construct

    K, R = gaussian, Fraction(73, 10)
    us = pigeonhole_units(K, prime_pairs(K, gaussian_cm, 5, 2))
    calls = []
    direct = construct.enumerate_window
    monkeypatch.setattr(construct, "enumerate_window",
                        lambda *args, **kwargs: calls.append(args) or direct(*args, **kwargs))
    cfg = WindowConfig(R=R, scale=Fraction(1), translate_candidates=8)
    ps, rep = build_pointset(K, us, cfg)
    assert len(calls) == 10     # a = 0, 8 candidates, the outer window
    candidates = halton_translates(K, Fraction(1), 8)
    counts = [len(direct(K, Fraction(1), R - 1, a)[0]) for a in candidates]
    best = candidates[counts.index(max(counts))]
    assert not rep.translate_is_zero
    assert rep.inner_count == max(counts) == 126
    assert rep.inner_count_zero_translate == len(direct(K, Fraction(1), R - 1)[0]) == 121
    rows, denom = direct(K, Fraction(1), R, best)
    assert ps.denom == denom and ps.rows == rows


def test_halton_translates_deterministic(gaussian):
    xs = halton_translates(gaussian, Fraction(1), 4)
    ys = halton_translates(gaussian, Fraction(1), 4)
    assert [x.coords for x in xs] == [y.coords for y in ys]


def test_build_pointset_toy(gaussian, gaussian_cm):
    us = pigeonhole_units(gaussian, prime_pairs(gaussian, gaussian_cm, 5, 2))
    cfg = WindowConfig(R=Fraction(2), scale=Fraction(1))
    ps, rep = build_pointset(gaussian, us, cfg)
    assert rep.measured_points == 13
    assert rep.measured_unit_pairs == 16
    assert rep.units_usable == 4               # torsion +-1, +-i
    assert rep.translation_bound == 20
    assert rep.packing_bound == 36
    assert 2 * rep.measured_unit_pairs >= rep.translation_bound
    assert rep.all_asserted_hold()
    assert len(ps.planar) == 13


def test_build_pointset_keeps_unit_pairs(gaussian, gaussian_cm):
    import oracle_counting

    from udfield.counting import planar_image, unit_pair_indices
    from udfield.serialize import pointset_sidecar

    us = pigeonhole_units(gaussian, prime_pairs(gaussian, gaussian_cm, 5, 2))
    ps, rep = build_pointset(gaussian, us, WindowConfig(R=Fraction(3), scale=Fraction(1)))
    xy, err = planar_image(ps.rows, ps.denom, gaussian_cm)
    assert xy == ps.planar
    assert ps.unit_pairs == tuple(unit_pair_indices(ps.rows, ps.denom, xy, err,
                                                    gaussian_cm))
    pts = elements_of(gaussian, ps.rows, ps.denom)
    assert list(ps.unit_pairs) == oracle_counting.unit_pair_indices(pts, gaussian_cm)
    assert len(ps.unit_pairs) == rep.measured_unit_pairs > 0
    assert pointset_sidecar(ps)["unit_pairs_exact"] == rep.measured_unit_pairs
    for i, j in ps.unit_pairs:
        assert i < j
        assert is_unit_modulus(pts[i] - pts[j], gaussian_cm)


def test_covolume_upper_values(gaussian, qsqrt_m5, deg4):
    # dyadic upper bounds for |disc|^(1/2f) / 2 at 2^-24, as the float-seeded
    # root computed them
    from udfield.numberfield import compositum_multiquadratic

    assert covolume_upper(gaussian, Fraction(1)) == 1
    assert covolume_upper(qsqrt_m5, Fraction(1)) == Fraction(75029991, 33554432)
    assert covolume_upper(deg4, Fraction(1)) == Fraction(75029991, 33554432)
    K8 = compositum_multiquadratic([2, 3, -1])
    assert covolume_upper(K8, Fraction(1)) == Fraction(328764949, 33554432)


def test_build_pointset_small_R_warns(gaussian, gaussian_cm):
    us = pigeonhole_units(gaussian, [])
    cfg = WindowConfig(R=Fraction(1), scale=Fraction(1))
    ps, rep = build_pointset(gaussian, us, cfg)
    assert rep.measured_points == 5
    assert rep.measured_unit_pairs == 4
    assert any("R < 2" in w for w in rep.warnings)
    assert rep.all_asserted_hold()


def test_build_pointset_closure_mode(gaussian, gaussian_cm):
    us = pigeonhole_units(gaussian, prime_pairs(gaussian, gaussian_cm, 5, 2))
    scale = Fraction(1, 625)
    cfg = WindowConfig(R=1 + 2 * scale, scale=scale, mode="closure",
                       max_points=500_000)
    ps, rep = build_pointset(gaussian, us, cfg)
    assert rep.units_usable == len(us.units) == 20
    assert rep.inner_count == 13               # scaled copy of the B_2 window
    assert rep.translation_bound == 20 * 13
    assert 2 * rep.measured_unit_pairs >= rep.translation_bound
    assert rep.all_asserted_hold()
    assert rep.measured_points <= 13 * 21


def test_closure_estimate_is_capped_by_its_window(gaussian, gaussian_cm):
    us = pigeonhole_units(gaussian, prime_pairs(gaussian, gaussian_cm, 5, 2))
    for scale, R, usable in [(Fraction(1, 625), Fraction(627, 625), 20),
                             (Fraction(1), Fraction(20), 4),
                             (Fraction(1, 25), Fraction(8), 4)]:
        window = estimate_window_points(gaussian, scale, R)
        inner = estimate_window_points(gaussian, scale, R - 1)
        assert estimate_window_points(gaussian, scale, R, "window", us.units) == window
        closure = estimate_window_points(gaussian, scale, R, "closure", us.units)
        assert closure == min(window, inner * (usable + 1))
        assert closure <= window


def test_projection_distinctness(gaussian, gaussian_cm):
    us = pigeonhole_units(gaussian, [])
    cfg = WindowConfig(R=Fraction(2), scale=Fraction(1))
    ps, _ = build_pointset(gaussian, us, cfg)
    assert len(set(ps.planar)) == len(ps.planar)


def test_exponent_closed_form():
    # u = 72, v = 1, delta = 1: exponent = 1 + ln(2 pi)/ln(36)
    import mpmath

    iv = exponent(Fraction(72), Fraction(1), Fraction(1), 128)
    mpmath.mp.prec = 200
    ref = 1 + mpmath.log(2 * mpmath.pi) / mpmath.log(36)
    lo, hi = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator, \
        mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
    assert lo <= ref <= hi
    assert float(iv.width()) < 1e-30


def test_exponent_condition_failure():
    with pytest.raises(ConditionFailed):
        exponent(Fraction(1), Fraction(1), Fraction(1), 128)  # pi < 36


def test_exponent_monotonicity():
    # increasing in u, decreasing in v, on a grid of parameter triples
    us = [Fraction(72), Fraction(100), Fraction(150), Fraction(400)]
    vs = [Fraction(1), Fraction(2), Fraction(3)]
    deltas = [Fraction(1), Fraction(1, 2)]
    for d in deltas:
        for v in vs:
            vals = [exponent(u, v, d, 96) for u in us]
            for a, b in zip(vals, vals[1:]):
                assert a.hi < b.lo      # strictly increasing in u
        for u in us:
            if all(float(u) * math.pi > 36 * float(v) for v in vs):
                vals = [exponent(u, v, d, 96) for v in vs]
                for a, b in zip(vals, vals[1:]):
                    assert a.lo > b.hi  # strictly decreasing in v


def test_exponent_ledger_paper():
    led = exponent_ledger([3, 5, 7, 11, 13, 17], 101)
    assert led["r"] == 510510
    assert led["v"] == Fraction(255255)
    # ceil(18 r^3/pi) - 1, cross-checked against a 400-bit MPFR oracle
    assert led["k"] == 762316628416213961
    assert led["u"] == Fraction(led["k"] + 1, 510510 ** 2)
    assert led["delta"] == SymbolicPower(101, -2 * led["k"])
    assert led["D"] == SymbolicPower(101, 2 * led["k"])
    iv = led["exponent"]
    assert iv.lo > 1
    excess_lo, excess_hi = iv.lo - 1, iv.hi - 1
    assert iv.width() < Fraction(1, 10 ** 40)
    # the excess rounds to 6.24e-38 at three significant digits
    assert Fraction(623, 10 ** 40) < excess_lo < excess_hi < Fraction(625, 10 ** 40)


def test_exponent_ledger_small_cases():
    led = exponent_ledger([3], 13)
    assert led["r"] == 6
    assert led["k"] == 1237               # ceil(18*216/pi) - 1
    assert led["u"] == Fraction(1238, 36)
    assert led["v"] == 3
    assert led["exponent"].lo > 1

    # T empty: r = 2, k = ceil(144/pi) - 1 = 45, u = 46/4, v = 1;
    # u*pi = 36.128... > 36, so the ledger is (just barely) feasible
    led2 = exponent_ledger([], 5)
    assert led2["k"] == 45
    assert led2["u"] == Fraction(46, 4)
    assert led2["v"] == 1
    assert led2["exponent"].lo > 1
    assert 1 < float(led2["exponent"].midpoint()) < 1.0001


def test_delta_separation_invariant(gaussian, gaussian_cm, deg4, deg4_cm):
    # any nonzero z of scale*O_K has |N(z)| >= scale^n, hence some
    # coordinate of modulus >= scale
    rng = random.Random(99)
    for K, cm in ((gaussian, gaussian_cm), (deg4, deg4_cm)):
        scale = Fraction(1, 7)
        for _ in range(250):
            coords = [scale * rng.randrange(-6, 7) for _ in range(K.n)]
            z = K.element(coords)
            if z.is_zero():
                continue
            norm = abs(z.norm())
            assert norm >= scale ** K.n
            boxes = [box_interval(z.embed(rep, 40)) for rep in cm.pair_reps]
            assert max(b.abs_sq().hi for b in boxes) >= scale * scale


def test_window_scale_delta_witness(gaussian, gaussian_cm):
    # enumerate a scaled window and verify the norm certificate on members
    scale = Fraction(1, 3)
    pts = elements_of(gaussian, *enumerate_window(gaussian, scale, Fraction(1)))
    assert len(pts) > 1
    for z in pts:
        if not z.is_zero():
            assert abs(z.norm()) >= scale ** 2
