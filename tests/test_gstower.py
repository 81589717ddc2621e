import itertools
import math

import pytest

from udfield.errors import (NotOddPrime, RamifiedPrime, SearchExhausted,
                            SplitConditionFailed)
from udfield.gstower import (TowerSpec, find_split_primes, frattini_rank, gs_check,
                             multiquadratic_generators, splits_completely)

FIRST_ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_generators_paper_example():
    assert multiquadratic_generators([3, 5, 7, 11, 13, 17]) == [5, 13, 17, 21, 33]


def test_generators_small_cases():
    assert multiquadratic_generators([5]) == [5]
    assert multiquadratic_generators([3]) == []
    assert multiquadratic_generators([3, 7]) == [21]
    assert multiquadratic_generators([5, 13]) == [5, 13]


def test_generator_properties_exhaustive():
    # |generators(T)| = frattini_rank(T) for all subsets of the first 10 odd
    # primes, and every generator is 1 mod 4, positive, squarefree, T-supported
    for r in range(0, 11):
        for T in itertools.combinations(FIRST_ODD_PRIMES, r):
            if not T:
                assert multiquadratic_generators(T) == []
                continue
            gens = multiquadratic_generators(T)
            rank = frattini_rank(T)
            assert len(gens) == rank
            for d in gens:
                assert d % 4 == 1 and d > 0
                rest = d
                for q in T:
                    while rest % q == 0:
                        rest //= q
                assert rest == 1


def test_generators_f2_independent():
    # no nonempty subproduct of any generator list is a perfect square,
    # exhaustively for every T of size <= 8 from the first ten odd primes
    for r in range(1, 9):
        for T in itertools.combinations(FIRST_ODD_PRIMES, r):
            gens = multiquadratic_generators(T)
            for k in range(1, len(gens) + 1):
                for sub in itertools.combinations(gens, k):
                    prod = math.prod(sub)
                    s = math.isqrt(prod)
                    assert s * s != prod, (T, sub)


def test_frattini_rank_values():
    assert frattini_rank([3, 5, 7, 11, 13, 17]) == 5
    assert frattini_rank([5, 13]) == 2
    assert frattini_rank([3, 7]) == 1
    with pytest.raises(NotOddPrime):
        frattini_rank([2, 5])
    with pytest.raises(NotOddPrime):
        frattini_rank([9])


def test_splits_completely_examples():
    assert splits_completely(101, [5, 13, 17, 21, 33], require_i=True)
    assert not splits_completely(7, [5], require_i=False)
    assert splits_completely(41, [], require_i=True)
    assert not splits_completely(43, [], require_i=True)   # 43 = 3 mod 4
    with pytest.raises(RamifiedPrime):
        splits_completely(5, [5], require_i=False)
    with pytest.raises(NotOddPrime):
        splits_completely(2, [5], require_i=False)


def test_splits_multiplicative_consistency():
    # splitting on two generator sets implies splitting on the union's span
    g1 = multiquadratic_generators([5, 13])
    g2 = multiquadratic_generators([17, 29])
    g_union = multiquadratic_generators([5, 13, 17, 29])
    for q in find_split_primes([5, 13, 17, 29], 5, require_1_mod_4=False):
        assert splits_completely(q, g1, False)
        assert splits_completely(q, g2, False)
        assert splits_completely(q, g_union, False)


def test_find_split_primes_examples():
    assert 101 in find_split_primes([3, 5, 7, 11, 13, 17], 1)
    assert find_split_primes([5], 3, True) == [29, 41, 61]
    assert find_split_primes([], 2, True) == [5, 13]
    with pytest.raises(SearchExhausted):
        find_split_primes([3, 5, 7, 11, 13, 17], 50, cap=200)


def test_gs_check_paper_ledger():
    rep = gs_check(TowerSpec((3, 5, 7, 11, 13, 17), (101,)))
    assert rep.d == 5
    assert rep.r_bound == 6
    assert rep.gs_satisfied            # 24 <= 25
    assert rep.generators == (5, 13, 17, 21, 33)
    assert rep.root_disc_bound == 510510


def test_gs_check_other_cases():
    rep = gs_check(TowerSpec((5, 13, 17, 29, 37), ()))
    assert rep.d == 5 and rep.r_bound == 5 and rep.gs_satisfied
    rep2 = gs_check(TowerSpec((3, 5), (41,)))
    assert rep2.d == 1 and rep2.r_bound == 2 and not rep2.gs_satisfied
    with pytest.raises(SplitConditionFailed):
        gs_check(TowerSpec((3, 5, 7, 11, 13, 17), (7919,)))  # 7919 = 3 mod 4


def test_gs_check_deterministic_bytes():
    from udfield.serialize import dump_json

    spec = TowerSpec((3, 5, 7, 11, 13, 17), (101,))
    a = dump_json(gs_check(spec).to_dict())
    b = dump_json(gs_check(spec).to_dict())
    assert a == b


def test_tower_spec_validation():
    with pytest.raises(ValueError):
        TowerSpec((3, 5), (5,))          # overlap
    with pytest.raises(NotOddPrime):
        TowerSpec((4,), ())
    spec = TowerSpec((3, 5), (41, 13))
    assert spec.s_size == 3
