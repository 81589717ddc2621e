"""Differential tests: the integer-structure-constant ideal product
against the field-element product of oracle_ideals, and the integer-HNF
ideal inverse against the old Fraction-matrix lattice intersection."""

import itertools
from functools import lru_cache

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_ideals
from udfield.cli import build_field
from udfield.errors import IndexDivisor, ZeroIdeal
from udfield.ideals import FracIdeal, split_prime
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
