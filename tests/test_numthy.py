import pytest

from udfield.errors import NotOddPrime
from udfield.numthy import (factorize, iroot_ceil, is_prime, is_squarefree_int,
                            legendre_symbol, primes_from, squarefree_kernel)


def brute_squares(q):
    return {x * x % q for x in range(q)}


def test_legendre_exhaustive_small_primes():
    # every odd prime q <= 50, every residue: compare with brute-force squares
    for q in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]:
        sq = brute_squares(q)
        for a in range(-q, 2 * q):
            expected = 0 if a % q == 0 else (1 if a % q in sq else -1)
            assert legendre_symbol(a, q) == expected, (a, q)


def test_legendre_spec_values():
    # (5|101): brute-force search for x with x^2 = 5 mod 101
    assert any(x * x % 101 == 5 for x in range(101))
    assert legendre_symbol(5, 101) == 1
    assert legendre_symbol(0, 7) == 0
    assert 3 not in brute_squares(101)
    assert legendre_symbol(3, 101) == -1


def test_legendre_rejects_bad_modulus():
    for q in (2, 9, 15, 1, -7):
        with pytest.raises(NotOddPrime):
            legendre_symbol(3, q)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-5, 50):
        assert is_prime(n) == (n in primes)
    assert is_prime(101) and is_prime(510529) is not None


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)        # Carmichael
    assert not is_prime(341)
    assert is_prime(2 ** 61 - 1)    # Mersenne prime
    assert not is_prime(2 ** 67 - 1)


def test_primes_from():
    gen = primes_from(90)
    assert [next(gen) for _ in range(4)] == [97, 101, 103, 107]


def test_factorize():
    assert factorize(510510) == [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1),
                                 (13, 1), (17, 1)]
    assert factorize(2 ** 10 * 3 ** 3) == [(2, 10), (3, 3)]
    assert factorize(1) == []
    big = 1000003 * 1000033
    assert factorize(big) == [(1000003, 1), (1000033, 1)]


def test_squarefree():
    assert is_squarefree_int(-5) and is_squarefree_int(30)
    assert not is_squarefree_int(12) and not is_squarefree_int(0)
    assert squarefree_kernel(12) == 3
    assert squarefree_kernel(-20) == -5
    assert squarefree_kernel(49) == 1


def test_iroot_ceil_brute_force():
    for k in range(1, 7):
        for n in range(-3, 3000):
            want = next(r for r in range(n + 2) if r ** k >= n) if n > 0 else 0
            assert iroot_ceil(n, k) == want, (n, k)


def test_iroot_ceil_beyond_float_range():
    # a float seed would overflow here (10**400 > 1.8e308)
    n = 10 ** 400
    for k in (1, 2, 3, 4, 7, 400, 1329):
        r = iroot_ceil(n, k)
        assert r ** k >= n and (r - 1) ** k < n
    assert iroot_ceil(n, 2) == 10 ** 200
    assert iroot_ceil(n + 1, 2) == 10 ** 200 + 1
