import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_enumeration import _modulus_cmp_exact, _real_sign_at, real_structure
from udfield.enumeration import (_PREFILTER_BITS, _image_box, elements,
                                 lattice_points_in_polydisc, roots_of_unity)
from udfield.intervals import ComplexInterval
from udfield.numberfield import compositum_multiquadratic, detect_cm


def _points(basis, cm, radii, center=None, limit=None):
    """The enumerator's coefficient rows, as field elements."""
    rows = lattice_points_in_polydisc(basis, cm, radii, center=center, limit=limit)
    assert rows.shape == (len(rows), len(basis)) and rows.dtype.kind in "iO"
    return elements(basis, rows, center)


def test_polydisc_completeness_random_sublattices(gaussian, gaussian_cm):
    # oracle: brute-force over a wide integer box with exact filtering
    K, cm = gaussian, gaussian_cm
    rng = random.Random(71)
    for _ in range(40):
        # random full-rank sublattice of Z[i]
        while True:
            rows = [[rng.randrange(-3, 4) for _ in range(2)] for _ in range(2)]
            det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            if det != 0:
                break
        basis = [K.element([Fraction(c) for c in r]) for r in rows]
        r2 = Fraction(rng.randrange(1, 30))
        got = {z.coords for z in _points(basis, cm, [r2])}
        brute = set()
        for a in range(-20, 21):
            for b in range(-20, 21):
                z = basis[0] * a + basis[1] * b
                x, y = z.coords
                if x * x + y * y <= r2:
                    brute.add(z.coords)
        assert got == brute, (rows, r2)


def test_polydisc_completeness_with_translate(gaussian, gaussian_cm):
    K, cm = gaussian, gaussian_cm
    rng = random.Random(72)
    basis = [K.element([1, 0]), K.element([0, 1])]
    for _ in range(25):
        a = K.element([Fraction(rng.randrange(-4, 5), 4),
                       Fraction(rng.randrange(-4, 5), 4)])
        r2 = Fraction(rng.randrange(1, 20))
        got = {z.coords for z in
               _points(basis, cm, [r2], center=a)}
        brute = set()
        for p in range(-15, 16):
            for q in range(-15, 16):
                z = a + K.element([p, q])
                x, y = z.coords
                if x * x + y * y <= r2:
                    brute.add(z.coords)
        assert got == brute


def test_polydisc_completeness_degree4(deg4, deg4_cm):
    K, cm = deg4, deg4_cm
    basis = [K.element([Fraction(1 if i == j else 0) for i in range(4)])
             for j in range(4)]
    got = {z.coords for z in
           _points(basis, cm, [Fraction(4)] * 2)}
    # brute force over integral coordinates with the exact modulus test; the
    # boxes sum_k c_k sigma(b_k) of 40-bit basis boxes (exact integer scales)
    # only rule candidates out
    emb = [[b.embed(rep, 40) for rep in cm.pair_reps] for b in basis]

    def add(acc, k, c):
        return [a + e.scale(c) for a, e in zip(acc, emb[k])]

    brute = set()
    cs = range(-6, 7)
    for c0 in cs:
        acc0 = add([ComplexInterval.point(0)] * 2, 0, c0)
        for c1 in cs:
            acc1 = add(acc0, 1, c1)
            for c2 in cs:
                acc2 = add(acc1, 2, c2)
                for c3 in cs:
                    if any(b.abs_sq().lo > 4 for b in add(acc2, 3, c3)):
                        continue
                    z = K.element([c0, c1, c2, c3])
                    if all(_modulus_cmp_exact(z, cm, i, Fraction(4)) <= 0
                           for i in range(2)):
                        brute.add(z.coords)
    assert got == brute
    assert len(got) > 1


def test_real_box_completeness():
    F = compositum_multiquadratic([5])
    basis = [F.element([1, 0]), F.element([0, 1])]
    got = {z.coords for z in
           _points(basis, real_structure(F), [Fraction(9)] * 2)}
    # x = a + b(5+sqrt5)/2: embeddings a + b(5 +- sqrt5)/2
    brute = set()
    for a in range(-15, 16):
        for b in range(-15, 16):
            z = F.element([a, b])
            ok = True
            for i in range(2):
                up = Fraction(3) * F.one() - z
                dn = z + Fraction(3) * F.one()
                if _real_sign_at(up, i) < 0 or _real_sign_at(dn, i) < 0:
                    ok = False
                    break
            if ok:
                brute.add(z.coords)
    assert got == brute
    assert len(got) >= 9


def test_roots_of_unity_fields(gaussian, gaussian_cm, qsqrt_m5, qsqrt_m5_cm,
                               deg4, deg4_cm):
    assert len(roots_of_unity(gaussian, gaussian_cm)) == 4
    assert len(roots_of_unity(qsqrt_m5, qsqrt_m5_cm)) == 2
    assert len(roots_of_unity(deg4, deg4_cm)) == 4
    # Q(i, sqrt-3) contains the 12th roots of unity
    K12 = compositum_multiquadratic([-1, -3])
    assert len(roots_of_unity(K12, detect_cm(K12))) == 12


def test_split_shapes_vs_sympy_oracle(gaussian, qsqrt_m5, deg4):
    # (e, f) multiset of the primes above p, cross-checked with sympy
    import sympy
    from sympy.polys.numberfields.primes import prime_decomp

    from udfield.errors import IndexDivisor
    from udfield.ideals import split_prime

    x = sympy.symbols("x")
    checked = 0
    for K in (gaussian, qsqrt_m5, deg4):
        poly = sympy.Poly([int(c) for c in reversed(K.min_poly)], x)
        for p in (3, 5, 7, 11, 13, 29, 41):
            try:
                ours = sorted((pr.e, pr.f_res) for pr in split_prime(K, p))
            except IndexDivisor:
                continue
            try:
                theirs = sorted((pr.e, pr.f) for pr in prime_decomp(p, poly))
            except Exception:
                # sympy's round-two can fail on some quartics; skip those
                continue
            assert ours == theirs, (K.label, p)
            checked += 1
    assert checked >= 14


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from(["deg4", "qsqrt_m5"]), bits=st.sampled_from([64, 128]),
       data=st.data())
def test_image_box_matches_embed(which, bits, data, deg4, qsqrt_m5):
    # sigma(v) from the cached integral-basis images against the direct
    # Horner embedding, with coordinates large enough to need extra guard bits
    K = {"deg4": deg4, "qsqrt_m5": qsqrt_m5}[which]
    coords = data.draw(st.lists(
        st.builds(Fraction, st.integers(-(1 << 200), 1 << 200), st.integers(1, 1 << 20)),
        min_size=K.n, max_size=K.n))
    v = K.element(coords)
    keep = max(_PREFILTER_BITS, bits - 16)
    for idx in range(K.n):
        box = _image_box(v, idx, bits)
        assert box.width() <= Fraction(1, 1 << bits)
        assert box.intersects(v.embed(idx, bits))
        assert box.round_outward(keep).width() <= Fraction(2, 1 << keep)
