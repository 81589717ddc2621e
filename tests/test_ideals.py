import random
from fractions import Fraction

import pytest

from udfield import ideals
from udfield.errors import IndexDivisor, NotPrime
from udfield.ideals import (FOUND, INCONCLUSIVE, NOT_FOUND, FracIdeal,
                            class_number_imag_quadratic, is_principal,
                            split_prime)
from udfield.numberfield import (NumberField, compositum_multiquadratic, detect_cm,
                                 nf_new)
from udfield.polynomials import make_poly


def test_split_gaussian_5(gaussian):
    primes = split_prime(gaussian, 5)
    assert len(primes) == 2
    assert all(p.e == 1 and p.f_res == 1 for p in primes)
    assert {tuple(p.gen_poly) for p in primes} == {(2, 1), (3, 1)}
    P, Pb = primes[0].lattice, primes[1].lattice
    assert P * Pb == FracIdeal.principal(gaussian.from_rational(5))


def test_split_gaussian_3_inert(gaussian):
    primes = split_prime(gaussian, 3)
    assert len(primes) == 1
    assert primes[0].f_res == 2 and primes[0].e == 1
    assert primes[0].lattice.norm() == 9


def test_split_gaussian_2_ramified(gaussian):
    primes = split_prime(gaussian, 2)
    assert len(primes) == 1 and primes[0].e == 2 and primes[0].f_res == 1


def test_split_qsqrt_m5_3(qsqrt_m5):
    primes = split_prime(qsqrt_m5, 3)
    assert len(primes) == 2
    # hnf bases are <3, sqrt(-5) -+ 1>
    for p in primes:
        assert p.lattice.norm() == 3
        assert p.lattice.hnf[1][1] == 3 or p.lattice.hnf[0][0] == 3
    a, b = primes
    cm = detect_cm(qsqrt_m5)
    assert a.lattice.conjugate(cm) == b.lattice


def test_index_divisor_rejected():
    # Q(sqrt5) with the true integral basis: disc(x^2-5)=20, disc K = 5,
    # index 2, so p = 2 must be rejected
    K = nf_new(make_poly([-5, 0, 1]))
    with pytest.raises(IndexDivisor):
        split_prime(K, 2)
    with pytest.raises(NotPrime):
        split_prime(K, 6)


def test_split_degree4(deg4):
    primes = split_prime(deg4, 29)
    assert len(primes) == 4
    assert all(p.e == 1 and p.f_res == 1 for p in primes)
    partial = split_prime(deg4, 7)     # not completely split
    assert sum(p.e * p.f_res for p in partial) == 4
    assert all(p.f_res == 2 for p in partial)
    # the index of Z[theta] here is 96 = 2^5 * 3, so 3 must be rejected
    with pytest.raises(IndexDivisor):
        split_prime(deg4, 3)


def test_ideal_mul_examples(gaussian, qsqrt_m5):
    primes = split_prime(gaussian, 5)
    P, Pb = primes[0].lattice, primes[1].lattice
    five = FracIdeal.principal(gaussian.from_rational(5))
    assert P * Pb == five
    assert P * FracIdeal.unit_ideal(gaussian) == P
    # P^2 in Q(sqrt-5) equals (2 -+ sqrt-5)
    pr3 = split_prime(qsqrt_m5, 3)
    K = qsqrt_m5
    gens = {FracIdeal.principal(K.element([2, 1])),
            FracIdeal.principal(K.element([2, -1]))}
    assert {p.lattice ** 2 for p in pr3} == gens
    assert all((p.lattice ** 2).norm() == 9 for p in pr3)


def test_ideal_inverse_and_norm(gaussian, deg4):
    five = FracIdeal.principal(gaussian.from_rational(5))
    inv = five.inverse()
    assert inv.norm() == Fraction(1, 25)
    assert inv * five == FracIdeal.unit_ideal(gaussian)
    for p in split_prime(deg4, 29):
        assert p.lattice.norm() == 29
        assert p.lattice.inverse() * p.lattice == FracIdeal.unit_ideal(deg4)


def test_conjugation_involution(qsqrt_m5, qsqrt_m5_cm):
    rng = random.Random(41)
    K, cm = qsqrt_m5, qsqrt_m5_cm
    pool = [p.lattice for p in split_prime(K, 3)]
    pool += [p.lattice for p in split_prime(K, 7)]
    pool.append(FracIdeal.principal(K.element([3, 2])))
    for _ in range(200):
        I = rng.choice(pool)
        J = rng.choice(pool)
        assert I.conjugate(cm).conjugate(cm) == I
        assert (I * J).conjugate(cm) == I.conjugate(cm) * J.conjugate(cm)


def test_norm_multiplicativity(gaussian, qsqrt_m5, deg4):
    rng = random.Random(4)
    for K in (gaussian, qsqrt_m5, deg4):
        pool = []
        for p in (3, 5, 7, 13, 29):
            try:
                pool.extend(pr.lattice for pr in split_prime(K, p))
            except IndexDivisor:
                continue
        pool.append(FracIdeal.principal(K.one() * 2 + K.theta()))
        for _ in range(200):
            I, J = rng.choice(pool), rng.choice(pool)
            assert (I * J).norm() == I.norm() * J.norm()


def test_is_principal_gaussian(gaussian):
    five = FracIdeal.principal(gaussian.from_rational(5))
    res = is_principal(five)
    assert res.status == FOUND
    # the generator is 5 up to a unit
    assert abs(res.generator.norm()) == 25
    assert FracIdeal.principal(res.generator) == five


def test_is_principal_certified_absence(qsqrt_m5):
    P = split_prime(qsqrt_m5, 3)[0].lattice
    res = is_principal(P)
    assert res.status == NOT_FOUND          # exhaustive: a^2+5b^2=3 insoluble
    res2 = is_principal(P ** 2)
    assert res2.status == FOUND
    assert FracIdeal.principal(res2.generator) == P ** 2
    assert abs(res2.generator.norm()) == 9


def test_is_principal_degree4(deg4):
    for pr in split_prime(deg4, 29):
        res = is_principal(pr.lattice)
        assert res.status == FOUND
        assert FracIdeal.principal(res.generator) == pr.lattice
        assert abs(res.generator.norm()) == 29


def test_is_principal_degree4_nontrivial_class():
    # Q(i, sqrt-5) contains the Hilbert class field relations; a prime above
    # 3 splits and may legitimately be non-principal: the search must either
    # certify a generator or admit inconclusiveness, never claim NOT_FOUND
    K = compositum_multiquadratic([-1, -5], label="Q(i,sqrt-5)")
    primes = split_prime(K, 3)
    for pr in primes:
        res = is_principal(pr.lattice)
        assert res.status in (FOUND, INCONCLUSIVE)
        if res.status == FOUND:
            assert FracIdeal.principal(res.generator) == pr.lattice


def test_unit_stretches_cached_per_field(monkeypatch):
    # the second search on a field embeds no unit; another field gets its own
    inside, calls = [False], []
    embed, stretches = NumberField.embed, ideals._unit_stretches

    def counting_embed(self, *args):
        if inside[0]:
            calls.append(self)
        return embed(self, *args)

    def flagged(*args):
        inside[0] = True
        try:
            return stretches(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(NumberField, "embed", counting_embed)
    monkeypatch.setattr(ideals, "_unit_stretches", flagged)
    K, L = (compositum_multiquadratic([5, -1]) for _ in range(2))
    I = FracIdeal.principal(K.element([2, 1, 0, 1]))
    assert is_principal(I).status == FOUND
    first = len(calls)
    assert first > 0 and set(calls) == {K}
    assert is_principal(I).status == FOUND
    assert len(calls) == first
    J = FracIdeal.principal(L.element([2, 1, 0, 1]))
    assert is_principal(J).status == FOUND
    assert len(calls) == 2 * first and set(calls[first:]) == {L}
    cm = detect_cm(K)
    assert ideals._unit_stretches(K, cm, 3) is ideals._unit_stretches(K, cm, 3)
    assert ideals._unit_stretches(K, cm, 3) is not ideals._unit_stretches(L, detect_cm(L), 3)
    assert ideals._unit_stretches(K, cm, 3) == ideals._unit_stretches(L, detect_cm(L), 3)


def test_class_numbers():
    assert class_number_imag_quadratic(-1) == 1
    assert class_number_imag_quadratic(-5) == 2
    assert class_number_imag_quadratic(-23) == 3
    # a few classical values as extra anchors
    assert class_number_imag_quadratic(-163) == 1
    assert class_number_imag_quadratic(-14) == 4
    assert class_number_imag_quadratic(-47) == 5


def test_class_grouping_partitions(gaussian, qsqrt_m5):
    assert _count_classes(gaussian, [5, 13, 17]) == 1
    assert _count_classes(qsqrt_m5, [3, 7, 23, 29]) == 2
    K23 = nf_new(make_poly([6, -1, 1]), label="Q(sqrt-23)")  # x^2 - x + 6
    assert K23.disc == -23
    assert _count_classes(K23, [2, 3, 13, 29, 31, 59]) == 3


def _count_classes(K, split_ps):
    """Union-find over ratio principality; certified for imag quadratics."""
    pool = []
    for p in split_ps:
        pool.extend(pr.lattice for pr in split_prime(K, p))
    parent = list(range(len(pool)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            if find(i) == find(j):
                continue
            res = is_principal(pool[j] * pool[i].inverse())
            assert res.status in (FOUND, NOT_FOUND)
            if res.status == FOUND:
                parent[find(j)] = find(i)
    return len({find(i) for i in range(len(pool))})


def test_principality_certificates(gaussian, qsqrt_m5):
    # every returned generator satisfies hnf((g)) = hnf(I) exactly
    rng = random.Random(12)
    for K in (gaussian, qsqrt_m5):
        pool = [pr.lattice for p in (3, 5, 7) for pr in split_prime(K, p)]
        for _ in range(30):
            I = rng.choice(pool) * rng.choice(pool)
            res = is_principal(I)
            if res.status == FOUND:
                assert FracIdeal.principal(res.generator) == I


def test_pell_matches_brute_force_oracle():
    import oracle_pell

    from udfield.ideals import _pell_fundamental
    from udfield.numthy import squarefree_kernel

    # the oracle's y < 10^7 search does not finish on these three
    beyond_oracle = {151, 166, 199}
    compared = 0
    for d in range(2, 200):
        if squarefree_kernel(d) != d:
            continue
        x, y, half = _pell_fundamental(d)
        assert x * x - d * y * y in ((-4, 4) if half else (-1, 1))
        if d in beyond_oracle:
            assert y >= 10 ** 7
            continue
        assert (x, y, half) == oracle_pell._pell_fundamental(d), d
        compared += 1
    assert compared == 118


def test_pell_beyond_brute_force_bound():
    from udfield.ideals import _pell_fundamental

    assert _pell_fundamental(151) == (1728148040, 140634693, False)
