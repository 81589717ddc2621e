"""Differential tests: the integer-structure-constant ideal product
against the field-element product of oracle_ideals, the integer-HNF
ideal inverse against the old Fraction-matrix lattice intersection, and
the one-search principality test against the unit-stretched searches of
oracle_principality."""

import itertools
from fractions import Fraction
from functools import lru_cache

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_ideals
import oracle_principality
from oracle_intervals import box_interval
import udfield.construct as construct
from udfield.cli import build_field
from udfield.errors import IndexDivisor, ZeroIdeal
from udfield.ideals import FOUND, INCONCLUSIVE, FracIdeal, is_principal, split_prime
from udfield.numberfield import detect_cm, nf_new
from udfield.polynomials import make_poly

# split, inert and ramified primes of each field
PRIMES = {"Q(i)": (2, 3, 5, 13), "Q(sqrt(-5))": (2, 3, 5, 7),
          "Q(sqrt5,i)": (3, 5, 29, 41)}


@lru_cache(maxsize=None)
def _pool(K):
    """Prime lattices, their conjugates and their inverses (den > 1)."""
    cm = detect_cm(K)
    out = []
    for p in PRIMES[K.label]:
        try:
            primes = split_prime(K, p)
        except IndexDivisor:
            continue
        for pr in primes:
            P = pr.lattice
            out += [P, P.conjugate(cm), P.inverse()]
    return tuple(out)


@st.composite
def ideals(draw, K):
    """A product of pool ideals, or a principal ideal of an element with
    rational coordinates; products are formed by the oracle."""
    if draw(st.booleans()):
        pool = _pool(K)
        I = pool[draw(st.integers(0, len(pool) - 1))]
        for _ in range(draw(st.integers(0, 2))):
            I = oracle_ideals.mul(I, pool[draw(st.integers(0, len(pool) - 1))])
        return I
    coords = draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6),
                           min_size=K.n, max_size=K.n).filter(any))
    return FracIdeal.principal(K.element(coords))


@settings(max_examples=120, deadline=None)
@given(data=st.data(), which=st.sampled_from(["gaussian", "qsqrt_m5", "deg4"]))
def test_ideal_mul_matches_oracle(data, which, gaussian, qsqrt_m5, deg4):
    K = {"gaussian": gaussian, "qsqrt_m5": qsqrt_m5, "deg4": deg4}[which]
    a = data.draw(ideals(K))
    b = data.draw(ideals(K))
    assert a * b == oracle_ideals.mul(a, b)


def test_pool_has_fractional_ideals(gaussian, qsqrt_m5, deg4):
    for K in (gaussian, qsqrt_m5, deg4):
        pool = _pool(K)
        assert any(I.den > 1 for I in pool)
        P = pool[0]
        assert P * P.inverse() == FracIdeal.unit_ideal(K)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), which=st.sampled_from(["gaussian", "qsqrt_m5", "deg4"]))
def test_ideal_inverse_matches_oracle(data, which, gaussian, qsqrt_m5, deg4):
    K = {"gaussian": gaussian, "qsqrt_m5": qsqrt_m5, "deg4": deg4}[which]
    I = data.draw(ideals(K))
    if data.draw(st.booleans()):
        I = I.conjugate(detect_cm(K))
    assert I.inverse() == oracle_ideals.inverse(I)


@pytest.mark.parametrize("field,p", [("adjoin-i:5", 29), ("adjoin-i:5", 41),
                                     ("gaussian", 5), ("qsqrt-5", 3), ("qsqrt-23", 3)])
def test_inverse_of_split_prime_products(field, p):
    # products of two primes above p (repeats allowed), their conjugates,
    # and their quotients by a third prime (den > 1)
    K = build_field(field)
    cm = detect_cm(K)
    primes = [pr.lattice for pr in split_prime(K, p)]
    checked = 0
    for P, Q in itertools.combinations_with_replacement(primes, 2):
        I = P * Q
        for J in (I, I.conjugate(cm), I * primes[0].inverse()):
            assert J.inverse() == oracle_ideals.inverse(J)
            checked += 1
    assert checked >= 9


def test_inverse_fails_alike_off_the_maximal_order():
    # (2, 1 + sqrt(-3)) is not invertible in Z[sqrt(-3)]; (3, sqrt(-3)) is
    K = nf_new(make_poly([3, 0, 1]), integral_basis=[[1, 0], [0, 1]])
    bad = FracIdeal.from_elements(K, [K.from_rational(2), K.one() + K.theta()])
    for inverse in (FracIdeal.inverse, oracle_ideals.inverse):
        with pytest.raises(ZeroIdeal):
            inverse(bad)
    good = FracIdeal.from_elements(K, [K.from_rational(3), K.theta()])
    assert good.inverse() == oracle_ideals.inverse(good)


@pytest.mark.parametrize("field, p", [("adjoin-i:2", 17), ("adjoin-i:3", 13),
                                      ("adjoin-i:5", 29), ("adjoin-i:7", 29),
                                      ("adjoin-i:11", 5), ("adjoin-i:19", 17)])
def test_principality_matches_oracle_in_pigeonhole(monkeypatch, field, p):
    # every ideal the pigeonhole asks about at k <= 3 gets the same status
    # and the same generator from one search as from the stretched searches;
    # d = 7, 11, 19 have units too large for the polydisc to hold a
    # generator of every principal ideal (see is_principal)
    cm = detect_cm(build_field(field))
    statuses = []

    def both(I, cm):
        got = is_principal(I, cm)
        want = oracle_principality.is_principal(I, cm)
        assert (got.status, got.generator) == (want.status, want.generator)
        statuses.append(got.status)
        return got

    monkeypatch.setattr(construct, "is_principal", both)
    for k in (1, 2, 3):
        construct.pigeonhole_units(cm, construct.prime_pairs(cm, p, k))
    assert FOUND in statuses


@pytest.mark.parametrize("d, a, b", [(3, 1, 1), (6, 2, 1), (7, 3, 1), (11, 3, 1),
                                     (19, 13, 3)])
def test_principality_half_a_unit_period_out(d, a, b):
    # h = a + b sqrt(d) has h^2 = 2 eps, so the generators of (h y), y in
    # {1, 1 + i, 3}, have |sigma_1|^2 / |sigma_2|^2 = eps^(2 + 4j): none is
    # more balanced, and the largest |sigma_i|^2 is eps sqrt(N).  One search
    # finds them exactly when eps <= 13/10 |disc|^(1/4); the oracle's
    # stretched searches miss them as well.
    K = build_field(f"adjoin-i:{d}")
    cm = detect_cm(K)
    sqrt_d = oracle_principality._mq_subset_sqrt(K, 1)
    assert sqrt_d * sqrt_d == K.from_rational(d)
    (eps,) = oracle_principality.fundamental_units(K, cm)
    h = K.from_rational(a) + sqrt_d * b
    assert h * h == eps * 2
    eps_sq = [box_interval(eps.embed(idx, 64)).abs_sq() for idx in cm.pair_reps]
    bound = Fraction(13, 10) ** 4 * abs(K.disc)
    covered = max(e.hi for e in eps_sq) ** 2 <= bound
    assert covered or max(e.lo for e in eps_sq) ** 2 > bound
    assert covered == (d in (3, 6))
    i = oracle_principality._mq_subset_sqrt(K, 2)
    assert i * i == K.from_rational(-1)
    for y in (K.one(), K.one() + i, K.from_rational(3)):
        I = FracIdeal.principal(h * y)
        got = is_principal(I, cm)
        want = oracle_principality.is_principal(I, cm)
        assert (got.status, got.generator) == (want.status, want.generator)
        assert got.status == (FOUND if covered else INCONCLUSIVE)
