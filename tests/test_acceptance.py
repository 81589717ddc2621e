"""Acceptance suite: one test per criterion, each printing a PASS line.

Runtimes are measured in-process (imports pre-warmed by the suite), since
interpreter start-up is not part of any algorithmic budget.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
from oracle_intervals import box_interval
from pointrows import elements_of, rows_of

from udfield.cli import main
from udfield.construct import WindowConfig, build_pointset, pigeonhole_units
from udfield.counting import (PlanarFloatSet, count_exact, count_float,
                              r2_count_rational)
from udfield.gstower import exponent_ledger, splits_completely
from udfield.ideals import (FOUND, NOT_FOUND, FracIdeal,
                            class_number_imag_quadratic, is_principal,
                            split_prime)
from udfield.intervals import RealInterval, round_down, round_up
from udfield.numberfield import (abs_sq, compositum_multiquadratic,
                                 detect_cm, nf_new)
from udfield.numthy import legendre_symbol
from udfield.polynomials import make_poly


def _pairs(K, cm, p, k):
    primes = split_prime(K, p)
    out, seen = [], set()
    for pr in sorted(primes, key=lambda q: q.lattice.hnf):
        if pr.lattice in seen:
            continue
        seen.add(pr.lattice.conjugate(cm))
        out.append((pr, k))
    return out


def test_criterion_1_exponent_reproduction(capsys):
    t0 = time.perf_counter()
    ledger = exponent_ledger([3, 5, 7, 11, 13, 17], 101, precision_bits=256)
    elapsed = time.perf_counter() - t0
    iv = ledger["exponent"]
    excess_lo, excess_hi = iv.lo - 1, iv.hi - 1
    width = iv.width()
    assert width < Fraction(1, 10 ** 40), "interval width must be < 1e-40"
    # the excess must round to 6.24e-38 at 3 significant digits
    from udfield.serialize import certified_digits

    digits = certified_digits(excess_lo, excess_hi, 3)
    assert digits == "6.24e-38"
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"
    # and the CLI surface agrees
    rc = main(["exponent", "--T", "3,5,7,11,13,17", "--p", "101"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["excess"]["certified_3_digits"] == "6.24e-38"
    print(f"ACCEPTANCE 1 PASS: excess = {digits}, width < 1e-40, "
          f"{elapsed * 1000:.0f} ms")


def test_criterion_2_gs_ledger(capsys):
    t0 = time.perf_counter()
    rc = main(["gs-check", "--T", "3,5,7,11,13,17", "--S", "101"])
    elapsed = time.perf_counter() - t0
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["d"] == 5
    assert data["r_bound"] == 6
    assert data["gs_satisfied"] is True
    assert data["generators"] == [5, 13, 17, 21, 33]
    assert data["root_disc_bound"] == 510510
    assert elapsed < 0.1, f"runtime {elapsed * 1000:.1f} ms exceeds 100 ms"
    print(f"ACCEPTANCE 2 PASS: d=5 r<=6 24<=25, {elapsed * 1000:.1f} ms")


def test_criterion_3_split_prime_verification():
    # re-derived by Legendre symbols internally, not table lookup
    assert splits_completely(101, [5, 13, 17, 21, 33], require_i=True)
    assert all(legendre_symbol(d, 101) == 1 for d in (5, 13, 17, 21, 33))
    assert 101 % 4 == 1
    # exhaustive cross-check of legendre_symbol for all odd primes q <= 50
    checked = 0
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        squares = {x * x % q for x in range(q)}
        for a in range(q):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre_symbol(a, q) == expected
            checked += 1
    print(f"ACCEPTANCE 3 PASS: 101 splits completely; {checked} Legendre "
          "values cross-checked")


def test_criterion_4_pigeonhole_gaussian():
    K = nf_new(make_poly([1, 0, 1]), label="Q(i)")
    cm = detect_cm(K)
    t0 = time.perf_counter()
    us = pigeonhole_units(K, _pairs(K, cm, 5, 2))
    elapsed = time.perf_counter() - t0
    assert us.distinct_ideal_count >= 3
    target = K.element([Fraction(-7, 25), Fraction(24, 25)])
    assert target in us.units
    for u in us.units:
        assert abs_sq(u, cm) == K.one()         # symbolic |u| = 1
        assert (u * 625).is_integral()          # D = 625 integrality
    assert us.D == 625
    ideals = [FracIdeal.principal(u) for u in us.ideal_witnesses]
    assert len(set(ideals)) == len(ideals)      # pairwise distinct (u)
    assert elapsed < 1.0
    print(f"ACCEPTANCE 4 PASS: {len(us.units)} units / "
          f"{us.distinct_ideal_count} ideals, D=625, {elapsed * 1000:.0f} ms")


def test_criterion_5_pigeonhole_nontrivial_class():
    K = nf_new(make_poly([5, 0, 1]), label="Q(sqrt(-5))")
    cm = detect_cm(K)
    us = pigeonhole_units(K, _pairs(K, cm, 3, 2))
    assert us.guaranteed_min == Fraction(3, 2)
    assert us.distinct_ideal_count >= 2          # >= ceil(3/2)
    target = K.element([Fraction(-1, 9), Fraction(4, 9)])
    assert target in us.units
    # h computed independently by reduced-form enumeration
    h = class_number_imag_quadratic(-5)
    assert h == 2 and us.h == 2
    # class grouping partitions random split primes into exactly h classes
    pool = []
    for p in (3, 7, 23, 29, 41):
        pool.extend(pr.lattice for pr in split_prime(K, p))
    parent = list(range(len(pool)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            if find(i) != find(j):
                res = is_principal(pool[j] * pool[i].inverse())
                assert res.status in (FOUND, NOT_FOUND)
                if res.status == FOUND:
                    parent[find(j)] = find(i)
    classes = len({find(i) for i in range(len(pool))})
    assert classes == h
    print(f"ACCEPTANCE 5 PASS: unit (-1+4sqrt(-5))/9 emitted; "
          f"{len(pool)} ideals partition into {classes} = h classes")


def test_criterion_6_window_bounds_gaussian():
    K = nf_new(make_poly([1, 0, 1]), label="Q(i)")
    cm = detect_cm(K)
    us = pigeonhole_units(K, [])                 # torsion units only: +-1, +-i
    assert len(us.units) == 4
    cfg = WindowConfig(R=Fraction(2), scale=Fraction(1))
    ps, rep = build_pointset(K, us, cfg)
    assert rep.measured_points == 13 <= 36
    assert rep.packing_bound == 36
    assert rep.translation_bound == 4 * 5 == 20
    assert 2 * rep.measured_unit_pairs == 32 >= 20
    # exact counter agrees with the O(n^2) brute oracle
    one = K.one()
    pts = elements_of(K, ps.rows, ps.denom)
    brute = sum(1 for i in range(13) for j in range(i + 1, 13)
                if abs_sq(pts[i] - pts[j], cm) == one)
    assert brute == rep.measured_unit_pairs == 16
    assert rep.all_asserted_hold()
    print("ACCEPTANCE 6 PASS: |P|=13<=36, 2nu=32>=20, brute oracle agrees")


def test_criterion_7_degree4_end_to_end():
    from udfield.gstower import find_split_primes

    t0 = time.perf_counter()
    assert find_split_primes([5], 1, require_1_mod_4=True) == [29]
    K = compositum_multiquadratic([5, -1], label="Q(sqrt5,i)")
    cm = detect_cm(K)
    us = pigeonhole_units(K, _pairs(K, cm, 29, 1))
    # inconclusive principality is surfaced on the UnitSet, and every
    # emitted unit is individually certified regardless
    assert isinstance(us.inconclusive, bool)
    for u in us.units:
        assert abs_sq(u, cm) == K.one()
        assert (u * us.D).is_integral()
    assert us.D == 841
    scale = Fraction(1, 841)
    cfg = WindowConfig(R=1 + 2 * scale, scale=scale, mode="closure",
                       max_points=500_000)
    ps, rep = build_pointset(K, us, cfg)
    elapsed = time.perf_counter() - t0
    assert rep.units_usable == len(us.units)     # all emitted units usable
    assert rep.translation_bound == len(us.units) * rep.inner_count
    assert rep.translation_bound > 0
    assert 2 * rep.measured_unit_pairs >= rep.translation_bound
    assert rep.all_asserted_hold()
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    print(f"ACCEPTANCE 7 PASS: {len(us.units)} units, |P|={rep.measured_points}, "
          f"2nu={2 * rep.measured_unit_pairs}>={rep.translation_bound}, "
          f"{elapsed:.1f} s")


def test_criterion_8_counting_performance():
    rng = np.random.default_rng(90)
    pts = rng.uniform(0, 1000, size=(1_000_000, 2))
    ps = PlanarFloatSet(points=pts, eps=1e-9)
    t0 = time.perf_counter()
    census = count_float(ps, method="hashed")
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"hashed count took {elapsed:.1f}s"
    # salt the set with exact unit-distance partners so the subset
    # comparisons exercise genuine hits, then compare with brute force on
    # 100 random 2000-point subsets
    angles = rng.uniform(0, 2 * np.pi, size=100_000)
    salted = pts.copy()
    salted[-100_000:] = pts[:100_000] + np.stack(
        [np.cos(angles), np.sin(angles)], axis=1)
    salted_ps = PlanarFloatSet(points=salted, eps=1e-9)
    t1 = time.perf_counter()
    salted_census = count_float(salted_ps, method="hashed")
    assert time.perf_counter() - t1 < 10.0
    assert salted_census.unit_pairs >= 90_000
    sub_rng = np.random.default_rng(91)
    nonzero_subsets = 0
    for trial in range(100):
        idx = sub_rng.choice(len(salted), size=2000, replace=False)
        # bias half the subsets toward the salted tail to guarantee hits
        if trial % 2 == 0:
            idx[:400] = sub_rng.choice(100_000, size=400, replace=False)
            idx[400:800] = 900_000 + idx[:400]
        sub = PlanarFloatSet(points=salted[idx], eps=1e-9)
        h = count_float(sub, "hashed").unit_pairs
        assert h == count_float(sub, "brute").unit_pairs
        nonzero_subsets += h > 0
    assert nonzero_subsets >= 50
    # exact counter equals brute symbolic counting on n <= 500 sets
    K = nf_new(make_poly([1, 0, 1]))
    cm = detect_cm(K)
    rnd = random.Random(17)
    for n in (100, 300, 500):
        seen = set()
        while len(seen) < n:
            seen.add((rnd.randrange(-9, 10), rnd.randrange(-9, 10),
                      rnd.choice([1, 2])))
        pts_exact = [K.element([Fraction(a, d), Fraction(b, d)])
                     for a, b, d in seen]
        ours = count_exact(*rows_of(K, pts_exact), cm).unit_pairs
        one = K.one()
        brute = sum(1 for i in range(n) for j in range(i + 1, n)
                    if abs_sq(pts_exact[i] - pts_exact[j], cm) == one)
        assert ours == brute
    print(f"ACCEPTANCE 8 PASS: 10^6 points in {elapsed:.2f}s (< 10s), "
          f"count={census.unit_pairs}; 100 subset oracles and exact-brute "
          "agreement hold")


def test_criterion_9_two_squares():
    def divisor_formula(m):
        d1 = sum(1 for d in range(1, m + 1) if m % d == 0 and d % 4 == 1)
        d3 = sum(1 for d in range(1, m + 1) if m % d == 0 and d % 4 == 3)
        return 4 * (d1 - d3)

    for m in range(1, 201):
        assert r2_count_rational(m) == divisor_formula(m)
    assert r2_count_rational(5) == 8
    assert r2_count_rational(25) == 12
    assert r2_count_rational(3) == 0
    print("ACCEPTANCE 9 PASS: r2 matches the divisor-formula oracle on 1..200")


def test_criterion_10_property_suites():
    counts = {}

    # interval soundness, 250 randomized cases
    rnd = random.Random(1001)
    for _ in range(250):
        alo = Fraction(rnd.randrange(-500, 500), rnd.randrange(1, 20))
        ahi = alo + Fraction(rnd.randrange(0, 100), rnd.randrange(1, 20))
        blo = Fraction(rnd.randrange(-500, 500), rnd.randrange(1, 20))
        bhi = blo + Fraction(rnd.randrange(0, 100), rnd.randrange(1, 20))
        A = RealInterval(round_down(alo, 48), round_up(ahi, 48))
        B = RealInterval(round_down(blo, 48), round_up(bhi, 48))
        ax = alo + Fraction(rnd.randrange(0, 101), 100) * (ahi - alo)
        bx = blo + Fraction(rnd.randrange(0, 101), 100) * (bhi - blo)
        assert (A + B).lo <= ax + bx <= (A + B).hi
        assert (A * B).lo <= ax * bx <= (A * B).hi
        assert (A - B).lo <= ax - bx <= (A - B).hi
    counts["interval_soundness"] = 250

    fields = []
    for label, poly in (("Q(i)", [1, 0, 1]), ("Q(sqrt-5)", [5, 0, 1])):
        K = nf_new(make_poly(poly), label=label)
        fields.append((K, detect_cm(K)))
    K4 = compositum_multiquadratic([5, -1])
    fields.append((K4, detect_cm(K4)))

    # ideal norm multiplicativity, 200 pairs per field
    rnd = random.Random(1002)
    for K, cm in fields:
        pool = []
        for p in (3, 5, 7, 13, 29):
            try:
                pool.extend(pr.lattice for pr in split_prime(K, p))
            except Exception:
                continue
        pool.append(FracIdeal.principal(K.one() * 2 + K.theta()))
        for _ in range(200):
            I, J = rnd.choice(pool), rnd.choice(pool)
            assert (I * J).norm() == I.norm() * J.norm()
    counts["norm_multiplicativity"] = 200 * len(fields)

    # conjugation involution and distribution over products, 200 cases
    rnd = random.Random(1003)
    for K, cm in fields[:2]:
        pool = [pr.lattice for p in (3, 7) for pr in split_prime(K, p)]
        for _ in range(100):
            I, J = rnd.choice(pool), rnd.choice(pool)
            assert I.conjugate(cm).conjugate(cm) == I
            assert (I * J).conjugate(cm) == I.conjugate(cm) * J.conjugate(cm)
    counts["conjugation_involution"] = 200

    # CM modulus consistency, 200 random elements per field
    rnd = random.Random(1004)
    for K, cm in fields:
        for _ in range(200):
            z = K.element([Fraction(rnd.randrange(-9, 10), rnd.choice([1, 2, 3]))
                           for _ in range(K.n)])
            t = abs_sq(z, cm)
            for rep in cm.pair_reps:
                assert box_interval(t.embed(rep, 48)).re.intersects(
                    box_interval(z.embed(rep, 48)).abs_sq())
    counts["cm_modulus"] = 200 * len(fields)

    # covolume = 2^-f sqrt|disc| for 200 quadratic fields plus the quartic
    from oracle_intervals import sqrt_lower
    from udfield.intervals import sqrt_upper
    from udfield.numthy import is_squarefree_int

    done = 0
    d = -1
    while done < 200:
        if is_squarefree_int(d):
            K = nf_new(make_poly([-d, 0, 1]))
            cm = detect_cm(K)
            assert cm is not None
            b0 = K.element([1, 0])
            b1 = K.element([0, 1])
            rep = cm.pair_reps[0]
            x0, x1 = box_interval(b0.embed(rep, 64)), box_interval(b1.embed(rep, 64))
            det = x0.re * x1.im - x0.im * x1.re
            if det.hi < 0:
                det = -det
            lo2 = sqrt_lower(Fraction(abs(K.disc)), 60) / 2
            hi2 = sqrt_upper(Fraction(abs(K.disc)), 60) / 2
            assert det.lo <= hi2 and lo2 <= det.hi
            done += 1
        d -= 1
    counts["covolume"] = 200

    # delta-separation: 500 random nonzero elements of scale*O_K
    rnd = random.Random(1005)
    K, cm = fields[2]
    scale = Fraction(1, 841)
    for _ in range(500):
        coords = [scale * rnd.randrange(-9, 10) for _ in range(K.n)]
        z = K.element(coords)
        if z.is_zero():
            continue
        norm = abs(z.norm())
        assert norm >= scale ** K.n              # certified via the norm
        boxes = [box_interval(z.embed(rep, 40)) for rep in cm.pair_reps]
        assert max(b.abs_sq().hi for b in boxes) >= scale * scale
    counts["delta_separation"] = 500

    assert all(v >= 200 for v in counts.values())
    print("ACCEPTANCE 10 PASS: " +
          ", ".join(f"{k}={v}" for k, v in counts.items()))
