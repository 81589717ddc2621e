"""Differential test: the integer-structure-constant ideal product against
the Fraction field-element product of oracle_ideals."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_ideals
from udfield.errors import IndexDivisor
from udfield.ideals import FracIdeal, split_prime
from udfield.numberfield import detect_cm

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
