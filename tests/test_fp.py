import pytest
from hypothesis import given, strategies as st

from dormantops.fp import PRIME_TEST_BOUND, FpElem, Generic, check_odd_prime, is_odd_prime, lift, sort_params


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
    assert FpElem.reduce(12, 7) == FpElem(5, 7)
    assert FpElem.reduce(-1, 7) == FpElem(6, 7)
    assert FpElem.reduce(21, 7).value == 0


def test_lift_sends_zero_to_p():
    """The canonical lift lives in {1, ..., p}, so the zero residue lifts to p."""
    assert FpElem(0, 7).lift() == 7
    assert FpElem(1, 7).lift() == 1
    assert FpElem(6, 7).lift() == 6
    assert lift(FpElem(0, 5)) == 5


@given(st.integers(-1000, 1000), st.sampled_from([3, 5, 7, 11, 13]))
def test_lift_is_congruent_and_in_range(value, p):
    x = FpElem.reduce(value, p)
    assert 1 <= x.lift() <= p
    assert x.lift() % p == value % p


def test_value_out_of_range_rejected():
    with pytest.raises(ValueError):
        FpElem(7, 7)
    with pytest.raises(ValueError):
        FpElem(-1, 7)


def test_sort_params_orders_lifts_descending():
    lifts, generics = sort_params([FpElem(2, 7), FpElem(0, 7), FpElem(5, 7)], 7)
    assert lifts == [7, 5, 2]
    assert generics == 0


def test_sort_params_counts_generics():
    lifts, generics = sort_params([Generic("a"), FpElem(3, 5), Generic("b")], 5)
    assert lifts == [3]
    assert generics == 2


def test_sort_params_rejects_mixed_moduli():
    with pytest.raises(ValueError):
        sort_params([FpElem(1, 5), FpElem(1, 7)], 5)


def test_generic_needs_a_name():
    with pytest.raises(ValueError):
        Generic("")
