import pytest
from hypothesis import given, strategies as st

import dormantops
from dormantops import fp
from dormantops.fp import PRIME_TEST_BOUND, Generic, check_odd_prime, is_odd_prime
from dormantops.hyperg import new_operator


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_odd_primes_accepted(p):
    assert is_odd_prime(p)
    assert check_odd_prime(p) == p


@pytest.mark.parametrize("p", [-3, 0, 1, 2, 4, 9, 15, 91])
def test_non_odd_primes_rejected(p):
    assert not is_odd_prime(p)
    with pytest.raises(ValueError):
        check_odd_prime(p)


def _odd_prime_by_trial_division(n):
    if n < 3 or n % 2 == 0:
        return False
    return all(n % d for d in range(3, int(n**0.5) + 1, 2))


def test_primality_agrees_with_trial_division_below_10_5():
    assert all(is_odd_prime(n) == _odd_prime_by_trial_division(n) for n in range(-5, 10**5))


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051, 318665857834031151167461])
def test_strong_pseudoprimes_are_composite(n):
    assert not is_odd_prime(n)
    with pytest.raises(ValueError, match="odd prime"):
        check_odd_prime(n)


def test_large_primes_are_decided():
    assert is_odd_prime(2**61 - 1)
    assert check_odd_prime(2**61 - 1) == 2**61 - 1
    assert not is_odd_prime((2**31 - 1) * (2**19 - 1))


@pytest.mark.parametrize("p", [PRIME_TEST_BOUND, PRIME_TEST_BOUND + 2, 2**127 - 1])
def test_no_answer_at_or_above_the_bound(p):
    assert PRIME_TEST_BOUND == 3_317_044_064_679_887_385_961_981
    for check in (is_odd_prime, check_odd_prime):
        with pytest.raises(ValueError, match=f"PRIME_TEST_BOUND = {PRIME_TEST_BOUND}"):
            check(p)


def test_reduce_wraps_mod_p():
    """An operator reduces each int parameter to its residue in {0, ..., p-1}."""
    op = new_operator(7, (12, -1, 21), (6,))
    assert op.alpha == (5, 6, 0) and op.beta == (6,)


def test_lift_sends_zero_to_p():
    """The canonical lift lives in {1, ..., p}, so the zero residue lifts to p."""
    assert new_operator(7, (0, 1, 6), (0,))._lifts[:2] == ([7, 6, 1], [7])
    assert new_operator(5, (5,), (1,))._lifts[:2] == ([5], [1])


@given(st.integers(-1000, 1000), st.sampled_from([3, 5, 7, 11, 13]))
def test_lift_is_congruent_and_in_range(value, p):
    (x,), _, _ = new_operator(p, (value,), (1,))._lifts
    assert 1 <= x <= p
    assert x % p == value % p


def test_lifts_are_in_decreasing_order():
    op = new_operator(7, (2, 0, 5), (1, 3))
    assert op._lifts[:2] == ([7, 5, 2], [3, 1])
    assert op.all_fp()


def test_a_generic_makes_all_fp_false():
    op = new_operator(5, (Generic("a"), 3, Generic("b")), (2,))
    assert op._lifts[:2] == ([3], [2])
    assert not op.all_fp()
    assert not new_operator(5, (3,), (Generic("c"),)).all_fp()


@pytest.mark.parametrize("module", [dormantops, fp])
def test_residues_have_no_wrapper(module):
    for name in ("FpElem", "lift", "sort_params"):
        assert not hasattr(module, name)
        assert name not in getattr(module, "__all__", ())


def test_generic_needs_a_name():
    with pytest.raises(ValueError):
        Generic("")
