import time
from fractions import Fraction
from itertools import combinations

import pytest

from dormantops import verlinde
from dormantops.fp import is_odd_prime
from dormantops.fusion import FusionEngine
from dormantops.radii import xi_size
from dormantops.verlinde import (
    MAX_SUM_CLASSES,
    MAX_SUM_P,
    poly_n3_g2,
    verlinde_count,
    verlinde_sum,
)


def _mul(u, v, p):
    """Schoolbook product in Z[x]/(x^p - 1)."""
    out = [0] * p
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[(i + j) % p] += a * b
    return out


def _root(p, k):
    vec = [0] * p
    vec[k % p] = 1
    return vec


def _as_rational(v):
    """The rational number a vector of Z[x]/(x^p - 1) stands for in Q(zeta_p)."""
    assert len(set(v[1:])) == 1, "not rational"
    return v[0] - v[1]


def _direct_sum(p, n, g):
    """The closed form term by term: every n-subset, every ordered pair i != j.

    Works in Z[x]/(x^p - 1) with x for zeta, writing each factor
    (z_i - z_j)^{-1} = zeta^{-i} (1 - zeta^{j-i})^{-1} and
    p (1 - zeta^k)^{-1} = -sum_m m zeta^{mk}.
    """
    e = (n - 1) * (g - 1)
    total = [0] * p
    for S in combinations(range(p), n):
        term = _root(p, e * sum(S))
        for i in S:
            for j in S:
                if i != j:
                    inv = [0] * p
                    for m in range(p):
                        inv[m * (j - i) % p] -= m
                    factor = _mul(_root(p, -i), inv, p)
                    for _ in range(g - 1):
                        term = _mul(term, factor, p)
        total = [a + b for a, b in zip(total, term)]
    scale = Fraction(p) ** (n * (n - 1) * (g - 1))
    return _as_rational(total) / scale * Fraction(p) ** (e - 1)


# _direct_sum, in the group ring Z[x]/(x^p - 1) over every n-subset, is the
# reference for the sum in F_q over T.  The last five include subsets fixed
# by some S -> d S, d != 1: {0} with the squares mod 11 at (11, 6) and
# {0, 1, 3, 9} at (13, 4)
@pytest.mark.parametrize("p,n,g", [
    (3, 2, 2), (5, 2, 2), (5, 3, 2), (7, 2, 3), (7, 3, 2), (7, 4, 3),
    (5, 4, 2), (7, 5, 2), (7, 6, 2), (11, 6, 2), (13, 4, 2),
])
def test_fq_sum_matches_the_group_ring_reference(p, n, g):
    assert verlinde_sum(p, n, g) == _direct_sum(p, n, g)


@pytest.mark.parametrize("p,stable", [(11, (0, 1, 3, 4, 5, 9)), (13, (0, 1, 3, 9))])
def test_the_stabilizer_cases_lie_in_t(p, stable):
    assert sum(stable) % p == 0
    fixing = [d for d in range(1, p) if sorted(d * s % p for s in stable) == list(stable)]
    assert len(fixing) > 1


PRIMES_TO_13 = [3, 5, 7, 11, 13]


@pytest.mark.parametrize("p", PRIMES_TO_13 + [29])
def test_rank_one_sum_is_the_empty_pair_product(p):
    for g in (1, 2, 3, 4, 7, 50):
        assert verlinde_sum(p, 1, g) == 1


@pytest.mark.parametrize("p", PRIMES_TO_13)
def test_sum_is_symmetric_under_n_to_p_minus_n(p):
    for n in range(1, p):
        for g in range(1, 5):
            assert verlinde_sum(p, n, g) == verlinde_sum(p, p - n, g)


@pytest.mark.parametrize("g", [2, 3])
def test_sum_is_symmetric_at_17(g):
    assert verlinde_sum(17, 8, g) == verlinde_sum(17, 9, g)


@pytest.mark.parametrize("p,n,g,value", [
    (3, 2, 2, 1),
    (5, 4, 2, 1),
    (7, 4, 2, 56),
    (7, 5, 2, 14),
    (7, 6, 2, 1),
])
def test_sum_outside_the_validity_window(p, n, g, value):
    assert verlinde_sum(p, n, g) == value


@pytest.mark.parametrize("p,n,g,value", [
    (5, 2, 2, 5),
    (7, 2, 2, 14),
    (7, 3, 2, 56),
    (11, 2, 2, 55),
    (13, 2, 2, 91),
    (11, 3, 2, 1573),
    (13, 3, 2, 5577),
    (7, 2, 3, 98),
    (7, 2, 4, 833),
    (11, 2, 3, 1331),
    (7, 3, 3, 1372),
])
def test_counts_inside_the_validity_window(p, n, g, value):
    assert verlinde_count(p, n, g) == value


SMALL = [(p, n, g) for p in (3, 5, 7) for n in range(2, p) for g in (2, 3, 4)]


@pytest.mark.parametrize(
    "p,n,g",
    [(7, 2, 3), (7, 3, 3), (11, 2, 2), (11, 2, 3)]
    + [c for c in SMALL if c not in {(7, 2, 3), (7, 3, 3)}],
)
def test_count_matches_fusion_recursion(p, n, g):
    """Inside the validity window against verlinde_count, everywhere against the bare sum."""
    got = FusionEngine(p, n).count(g, [])
    assert verlinde_sum(p, n, g) == got
    if p > n * max(g - 1, 2):
        assert verlinde_count(p, n, g) == got


def test_validity_window_is_enforced():
    with pytest.raises(ValueError):
        verlinde_count(7, 3, 1)
    with pytest.raises(ValueError):
        verlinde_count(3, 2, 2)
    with pytest.raises(ValueError):
        verlinde_count(7, 4, 2)
    with pytest.raises(ValueError):
        verlinde_count(7, 3, 4)


@pytest.mark.parametrize("p,n,g,match", [
    (4, 3, 2, "modulus must be an odd prime, got 4"),
    (9, 1, 1, "modulus must be an odd prime, got 9"),
    (7, 7, 2, "need 1 <= n < p, got n=7, p=7"),
    (7, 0, 1, "need 1 <= n < p, got n=0, p=7"),
])
def test_count_checks_p_and_n_before_the_genus_and_the_window(p, n, g, match):
    with pytest.raises(ValueError, match=match):
        verlinde_count(p, n, g)


def test_a_rank_that_is_not_an_int_is_refused_by_its_type_before_the_genus():
    for n in (3.0, True):
        with pytest.raises(TypeError) as err:
            verlinde_count(7, n, 0.5)
        assert str(err.value) == f"n must be an int, got {n!r}"


def test_sum_validation():
    with pytest.raises(ValueError):
        verlinde_sum(9, 2, 2)
    with pytest.raises(ValueError):
        verlinde_sum(7, 0, 2)
    with pytest.raises(ValueError):
        verlinde_sum(7, 7, 2)
    with pytest.raises(ValueError):
        verlinde_sum(7, 3, 0)


@pytest.mark.parametrize("g", [2.5, 2.0, True])
def test_a_genus_that_is_not_an_int_is_refused_before_any_work(monkeypatch, g):
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(verlinde, "_bound", no_work)
    for call in (verlinde_sum, verlinde_count):
        with pytest.raises(TypeError) as err:
            call(7, 3, g)
        assert str(err.value) == f"genus must be an int, got {g!r}"


def _prime_above(n):
    return next(q for q in range(n + 1, 2 * n + 2) if is_odd_prime(q))


def test_input_bounds_admit_every_benchmark_and_test_input():
    assert MAX_SUM_P >= 29
    assert xi_size(17, 8) <= MAX_SUM_CLASSES
    assert xi_size(113, 3) <= MAX_SUM_CLASSES < xi_size(127, 3)
    assert type(verlinde_sum(MAX_SUM_P, 2, 2)) is int


@pytest.mark.parametrize("p,n,match", [
    (_prime_above(MAX_SUM_P), 1, "over the limit of"),
    (1009, 2, "over the limit of"),
    (101, 50, "subsets, over the limit of"),
    (19, 9, "walks 4862 subsets"),
])
def test_sum_refuses_oversized_input_before_any_work(monkeypatch, p, n, match):
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(verlinde, "_bound", no_work)
    with pytest.raises(ValueError, match=match):
        verlinde_sum(p, n, 2)
    if p > n * 2:
        with pytest.raises(ValueError, match=match):
            verlinde_count(p, n, 2)


@pytest.mark.parametrize("g", [300, 2000])
def test_sum_refuses_a_large_genus_before_any_work(monkeypatch, g):
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(verlinde, "_bound", no_work)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="over the limit of"):
        verlinde_sum(257, 2, g)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p,n,g", [(257, 2, 300), (113, 3, 583), (41, 4, 1605), (13, 6, 5061), (17, 8, 3871)])
def test_bits_rule_refuses_a_large_bound_before_any_work(monkeypatch, p, n, g):
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(verlinde, "_bound", no_work)
    monkeypatch.setattr(verlinde, "_zero_sum_subsets", no_work)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="over the limit of 6912 for the closed-form sum"):
        verlinde_sum(p, n, g)
    assert time.perf_counter() - start < 1


class _Admitted(Exception):
    pass


def test_bits_rule_admits_the_validity_window_and_every_input_used(monkeypatch):
    def admitted(*args):
        raise _Admitted

    monkeypatch.setattr(verlinde, "_bound", admitted)
    window = [(p, n, g) for p in range(3, MAX_SUM_P + 1) if is_odd_prime(p)
              for n in range(1, p) if xi_size(p, n) <= MAX_SUM_CLASSES
              for g in range(2, p // n + 2) if p > n * max(g - 1, 2)]
    assert len(window) == 10012 and (257, 2, 129) in window
    # outside the window: the edge, and the closed genera of the tests, CI and benchmark
    edge = [(257, 1, 257), (257, 2, 257), (5, 2, 400), (7, 3, 14), (7, 4, 12), (11, 2, 8), (13, 2, 7), (17, 8, 3)]
    for p, n, g in window + edge:
        with pytest.raises(_Admitted):
            verlinde_sum(p, n, g)


def test_genus_bound_admits_its_edge():
    # (n^2 - 1)(g - 1) bits(p) is 0 at (257, 1, 257) and the limit at (257, 2, 257)
    assert verlinde_sum(257, 1, 257) == 1
    assert verlinde_sum(257, 2, 257) > 0
    assert verlinde_sum(5, 2, 400) == FusionEngine(5, 2).count(400, [])


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (5, 3), (7, 2), (7, 3), (7, 4), (11, 3)])
def test_genus_one_sum_counts_the_classes(p, n):
    assert verlinde_sum(p, n, 1) == xi_size(p, n)


def test_rank_three_genus_two_polynomial():
    with pytest.raises(ValueError) as err:
        poly_n3_g2(3)
    assert str(err.value) == "need 1 <= n < p, got n=3, p=3"
    for p in (5, 7, 11, 13):
        assert type(poly_n3_g2(p)) is int
    assert poly_n3_g2(5) == 5
    assert poly_n3_g2(7) == 56
    assert poly_n3_g2(11) == 1573
    assert poly_n3_g2(13) == 5577
    assert verlinde_count(11, 3, 2) == poly_n3_g2(11)


# 113 is the last prime with |Xi_{p,3}| <= MAX_SUM_CLASSES
@pytest.mark.parametrize("p", [q for q in range(5, 114) if is_odd_prime(q)])
def test_rank_three_genus_two_sum_is_the_polynomial(p):
    assert verlinde_sum(p, 3, 2) == poly_n3_g2(p)


@pytest.mark.parametrize("g,value", [(2, 2383152634054), (3, 4704073327664868003654870)])
def test_sum_at_17_8(g, value):
    assert verlinde_sum(17, 8, g) == value


@pytest.mark.parametrize("p,n,g", [(7, 3, 2), (17, 8, 3), (257, 1, 257), (5, 2, 400), (11, 3, 1)])
def test_sum_returns_an_int(p, n, g):
    assert type(verlinde_sum(p, n, g)) is int


def test_count_returns_an_int():
    assert type(verlinde_count(11, 3, 2)) is int


def test_the_residue_prime_walk_leaves_the_prime_cache_bounded():
    verlinde_sum(257, 2, 257)
    info = is_odd_prime.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


@pytest.mark.parametrize("bound,primes", [
    # one residue prime covers B = 1, and 56 lifts to itself, above B
    (1, None),
    # 29 = 1 mod 14 alone covers B = 14, and 56 = -2 mod 29 lifts to -2
    (14, [29]),
])
def test_a_lift_outside_the_proved_range_is_refused(monkeypatch, bound, primes):
    assert verlinde_sum(7, 3, 2) == 56
    monkeypatch.setattr(verlinde, "_bound", lambda p, n, g: bound)
    if primes is not None:
        monkeypatch.setattr(verlinde, "_primes", lambda p: iter(primes))
    with pytest.raises(ArithmeticError, match="outside its proved range") as info:
        verlinde_sum(7, 3, 2)
    assert type(info.value) is ArithmeticError
