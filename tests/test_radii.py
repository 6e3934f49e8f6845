import contextlib
import io
import itertools
import math
import time

import pytest
from hypothesis import given, strategies as st

from dormantops import cli, radii
from dormantops.fusion import BaseTable, FusionEngine, check_axioms
from dormantops.hyperg import new_operator, oracle_rank
from dormantops.radii import (
    RadiusClass,
    _lexmin_translate,
    canonical,
    comp_dual,
    exponents,
    hyp_set,
    interleavings,
    is_hyp_type,
    neg_dual,
    radii_triple,
    xi,
    xi_size,
)
from dormantops.verlinde import verlinde_sum

W = [canonical(7, e) for e in [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 4)]]
V = [canonical(7, e) for e in [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5), (0, 1, 3, 4), (0, 1, 3, 5)]]
U = [canonical(7, e) for e in [(0, 1, 2, 3, 4), (0, 1, 2, 3, 5), (0, 1, 2, 4, 5)]]


def test_canonical_picks_lexmin_translate():
    assert canonical(7, (2, 4, 6)).elems == (0, 2, 4)
    assert canonical(5, (0, 3)).elems == (0, 2)
    assert canonical(5, (4, 0)).elems == (0, 1)
    assert canonical(7, (3, 3, 5)).elems == (0, 0, 2)


@given(st.data())
def test_canonical_is_translation_invariant(data):
    p = data.draw(st.sampled_from([5, 7, 11]))
    n = data.draw(st.integers(1, p - 1))
    elems = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    shift = data.draw(st.integers(0, p - 1))
    c = canonical(p, elems)
    assert c == canonical(p, [(e + shift) % p for e in elems])
    assert c.elems[0] == 0
    assert c.elems == tuple(sorted(c.elems))


def test_non_canonical_construction_rejected():
    with pytest.raises(ValueError):
        RadiusClass(5, (1, 2))
    with pytest.raises(ValueError):
        RadiusClass(5, (0, 5))
    with pytest.raises(ValueError):
        RadiusClass(5, (0, 1, 2, 3, 4))
    with pytest.raises(ValueError):
        canonical(4, (0, 1))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_zero_translates_match_the_p_shift_formulas(p):
    """The least translate and the hyp test need only the shifts that send an entry to 0.

    Both sides are unchanged by translating the input, and every multiset has a
    translate containing 0, so the multisets with 0 stand for all of them.
    """
    seen = set()
    for n in range(1, p):
        prefix = list(range(n - 1))
        for rest in itertools.combinations_with_replacement(range(p), n - 1):
            elems = (0,) + rest
            translates = [sorted([(e + c) % p for e in elems]) for c in range(p)]
            least = tuple(min(translates))
            assert _lexmin_translate(p, elems) == least
            if least not in seen:
                seen.add(least)
                want = any(t[: n - 1] == prefix for t in translates)
                assert is_hyp_type(RadiusClass(p, least)) == want


def test_equal_classes_hash_equal_whichever_constructor_built_them():
    for c in xi(7, 3):
        built = [RadiusClass(7, c.elems), canonical(7, [(e + 3) % 7 for e in c.elems]), c]
        assert len(set(built)) == 1
        assert {hash(b) for b in built} == {hash((c.p, c.elems))}


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_xi_size_formula(p):
    for n in range(1, p):
        classes = xi(p, n)
        assert len(classes) == xi_size(p, n) == math.comb(p, n) // p
        assert len(set(classes)) == len(classes)
        assert all(c.in_xi for c in classes)
        subsets = list(itertools.combinations(range(p), n))
        assert list(classes) == sorted({canonical(p, s) for s in subsets})
        # T <-> Xi: each class has exactly one translate with sum 0 mod p
        for c in classes:
            assert sum((sum(c.elems) + n * t) % p == 0 for t in range(p)) == 1
        zero_sum = [s for s in subsets if sum(s) % p == 0]
        assert list(radii._zero_sum_subsets(p, n)) == zero_sum


def test_xi_size_at_a_huge_prime_is_immediate():
    start = time.perf_counter()
    assert xi_size(1000003, 2) == 500001
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p,n", [(7, 3), (11, 4)])
def test_xi_and_hyp_orbits_are_cached(p, n):
    assert xi(p, n) is xi(p, n)
    assert radii._hyp_orbits(p, n) is radii._hyp_orbits(p, n)


@pytest.mark.parametrize("p,n", [(9, 3), (7, 7), (7, 0), (7, 8)])
def test_xi_size_refuses_what_xi_refuses(p, n):
    with pytest.raises(ValueError) as want:
        xi(p, n)
    with pytest.raises(ValueError) as got:
        xi_size(p, n)
    assert str(got.value) == str(want.value)


def test_xi_7_3_listing():
    assert xi(7, 3) == tuple(W)
    assert xi(5, 2) == (canonical(5, (0, 1)), canonical(5, (0, 2)))


@pytest.mark.parametrize("p", [5, 7, 11])
def test_duals_are_involutions(p):
    for n in range(1, p):
        for c in xi(p, n):
            assert neg_dual(neg_dual(c)) == c
            d = comp_dual(c)
            assert d.n == p - n
            assert comp_dual(d) == c


def test_neg_dual_on_rank_three_classes():
    assert neg_dual(W[0]) == W[0]
    assert neg_dual(W[1]) == W[3]
    assert neg_dual(W[3]) == W[1]
    assert neg_dual(W[2]) == W[2]
    assert neg_dual(W[4]) == W[4]


def test_comp_dual_pairs_ranks_three_and_four():
    assert [comp_dual(w) for w in W] == [V[0], V[1], V[3], V[2], V[4]]
    assert comp_dual(U[0]) == canonical(7, (0, 1))


def test_comp_dual_needs_distinct_entries():
    with pytest.raises(ValueError):
        comp_dual(canonical(5, (0, 0, 1)))


def test_exponent_triple_of_a_chain():
    e1, e2, e3 = exponents(7, [6, 4, 2], [5, 3])
    assert e1 == (0, 3, 5)
    assert e2 == (0, 1, 3)
    assert e3 == (6, 4, 2)
    assert radii_triple(7, [6, 4, 2], [5, 3]) == (W[4], W[1], W[4])


def test_radii_triple_tolerates_repeats():
    triple = radii_triple(5, [1, 1, 2], [1, 2])
    assert [c.elems for c in triple] == [(0, 0, 4), (0, 1, 2), (0, 0, 1)]
    assert [c.in_xi for c in triple] == [False, True, False]


def test_exponents_need_matching_lengths():
    with pytest.raises(ValueError):
        exponents(7, [1], [])
    with pytest.raises(ValueError):
        exponents(7, [1, 2, 3], [4])


def test_hyp_type_membership():
    assert [is_hyp_type(w) for w in W] == [True, True, True, True, False]
    assert [is_hyp_type(v) for v in V] == [True, True, True, False, False]


def test_interleaving_chains_satisfy_the_inequalities():
    chains = list(interleavings(7, 3))
    assert len(chains) == len(set(chains))
    for alpha_l, beta_l in chains:
        a1, a2, a3 = alpha_l
        b1, b2 = beta_l
        assert 7 >= a1 >= b1 > a2 >= b2 > a3 >= 1


@pytest.mark.parametrize("p,n", [(p, n) for p in (3, 5, 7, 11) for n in range(2, p)])
def test_interleavings_match_a_brute_force_filter(p, n):
    """Same chains in the same order as every free choice of betas between the alphas.

    alpha runs over the strictly descending n-tuples and each b_k over
    a_k >= b_k > a_{k+1}; the chains a1, b1, a2, ... then come in descending
    lexicographic order.
    """
    want = []
    for alpha in itertools.combinations(range(p, 0, -1), n):
        gaps = [range(a, b, -1) for a, b in zip(alpha, alpha[1:])]
        for beta in itertools.product(*gaps):
            want.append(tuple(x for ab in zip(alpha, beta) for x in ab) + alpha[-1:])
    want.sort(reverse=True)
    assert list(interleavings(p, n)) == [(c[0::2], c[1::2]) for c in want]


@pytest.mark.parametrize(
    "p,n,size",
    [(3, 2, 1), (5, 2, 5), (5, 3, 5), (5, 4, 1), (7, 2, 14), (7, 3, 52), (7, 4, 45), (7, 5, 13), (7, 6, 1),
     (11, 2, 55), (11, 3, 869), (11, 4, 2218), (11, 7, 868), (11, 8, 231), (11, 9, 31),
     (13, 2, 91), (13, 3, 2251), (13, 10, 366), (13, 11, 40), (17, 8, 485502)],
)
def test_hyp_set_sizes(p, n, size):
    assert len(hyp_set(p, n)) == size


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_hyp_set_matches_the_chain_by_chain_reference(p):
    """The lookup in Xi gives the set that canonicalizing every chain's triple gives."""
    for n in range(2, p):
        want = set()
        for alpha_l, beta_l in interleavings(p, n):
            want.update(itertools.permutations(radii_triple(p, alpha_l, beta_l)))
        assert hyp_set(p, n) == want


@pytest.mark.parametrize("p,n", [(5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (7, 4), (11, 2), (11, 3)])
def test_hyp_set_is_the_oracle_full_rank_set(p, n):
    """The rigidity input from below: the operators whose elimination gives rank n.

    Every alpha multiset of size n and beta multiset of size n - 1 is tried,
    and only oracle_rank decides.  (7, 5), 97,020 operators, holds as well
    but takes about 4 s, so it stays out of this suite.
    """
    want = set()
    for alpha in itertools.combinations_with_replacement(range(p), n):
        for beta in itertools.combinations_with_replacement(range(p), n - 1):
            if oracle_rank(new_operator(p, alpha, beta)) == n:
                want.update(itertools.permutations(radii_triple(p, alpha, beta)))
    assert hyp_set(p, n) == want


def test_hyp_set_refuses_a_chain_with_a_repeated_entry(monkeypatch):
    # every component the walk resolves becomes alpha = (1, 1, 2), looked up in the walk's own index
    resolve = radii._xi_index
    monkeypatch.setattr(radii, "_xi_index", lambda p, index, es: resolve(p, index, (1, 1, 2)))
    with pytest.raises(AssertionError, match="non-distinct exponent class"):
        radii._hyp_orbits.__wrapped__(5, 3)


@pytest.mark.parametrize("p,n", [(5, 3), (7, 4), (11, 4)])
def test_hyp_orbits_walk_neither_chains_nor_exponents(monkeypatch, p, n):
    """The walk runs over alpha-subsets and beta ranges, apart from the chain-by-chain reference."""
    want = radii._hyp_orbits(p, n)

    def refuse(*args):
        raise AssertionError("called by the walk")

    monkeypatch.setattr(radii, "interleavings", refuse)
    monkeypatch.setattr(radii, "exponents", refuse)
    assert radii._hyp_orbits.__wrapped__(p, n) == want


@pytest.mark.parametrize("p,n", [(5, 1), (5, 5), (9, 2), (2, 1)])
def test_hyp_set_refuses_p_and_n_outside_the_chain_range(p, n):
    with pytest.raises(ValueError):
        radii._hyp_orbits.__wrapped__(p, n)
    with pytest.raises(ValueError):
        hyp_set(p, n)


@pytest.mark.parametrize("p,n", [(11, 4), (13, 6)])
def test_hyp_set_resolves_each_component_once_per_subset(monkeypatch, p, n):
    calls = []
    resolve = radii._xi_index

    def counting(*args):
        calls.append(args)
        return resolve(*args)

    monkeypatch.setattr(radii, "_xi_index", counting)
    radii._hyp_orbits.__wrapped__(p, n)
    assert 0 < len(calls) <= math.comb(p, n) + math.comb(p - 1, n - 1) + p


@pytest.mark.parametrize("p,n", [(7, 3), (11, 4), (13, 6)])
def test_hyp_orbits_are_sorted_s3_orbits_of_hyp_set(p, n):
    orbits = radii._hyp_orbits(p, n)
    assert list(orbits) == sorted(set(orbits))
    assert all(i <= j <= l for i, j, l in orbits)
    classes = xi(p, n)
    perms = {tuple(classes[i] for i in perm) for t in orbits for perm in itertools.permutations(t)}
    assert perms == hyp_set(p, n)


def test_hyp_set_is_symmetric():
    triples = hyp_set(7, 3)
    for t in triples:
        assert (t[1], t[0], t[2]) in triples
        assert (t[2], t[1], t[0]) in triples


def test_hyp_set_contains_every_chain_triple():
    triples = hyp_set(7, 3)
    for alpha_l, beta_l in interleavings(7, 3):
        assert radii_triple(7, alpha_l, beta_l) in triples


@given(st.data())
def test_canonical_equals_the_checked_constructor(data):
    p = data.draw(st.sampled_from([3, 5, 7, 11, 13]))
    n = data.draw(st.integers(1, p - 1))
    es = data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=n, max_size=n))
    got = canonical(p, es)
    want = RadiusClass(p, _lexmin_translate(p, es))
    assert got == want
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("p,n", [(5, 2), (7, 3), (11, 7), (13, 4)])
def test_xi_classes_pass_the_checked_constructor(p, n):
    for c in xi(p, n):
        assert RadiusClass(p, c.elems) == c


def test_lexmin_shortcut_keeps_the_other_checks():
    with pytest.raises(ValueError):
        RadiusClass._from_lexmin(5, (0, 5))
    with pytest.raises(ValueError):
        RadiusClass._from_lexmin(5, (0, 1, 2, 3, 4))
    with pytest.raises(ValueError):
        RadiusClass._from_lexmin(9, (0, 1))


# every entry point indexed by (p, n), with the least n it takes
_ENTRY_POINTS = [
    ("xi", xi, 1),
    ("xi_size", xi_size, 1),
    ("interleavings", lambda p, n: list(interleavings(p, n)), 2),
    ("hyp_set", hyp_set, 2),
    ("BaseTable", BaseTable, 2),
    ("check_axioms", check_axioms, 2),
    ("FusionEngine", FusionEngine, 2),
    ("verlinde_sum", lambda p, n: verlinde_sum(p, n, 2), 1),
    # the CLI subcommands, which all take 1 < n < p
    ("cli xi", lambda p, n: _cli("xi", p, n), 2),
    ("cli hyp", lambda p, n: _cli("hyp", p, n), 2),
    ("cli count", lambda p, n: _cli("count", p, n, "--g", "2"), 2),
    ("cli axioms", lambda p, n: _cli("axioms", p, n), 2),
]


def _cli(command, p, n, *rest):
    """Run a subcommand; raise its one error line as a ValueError after exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--p", str(p), "--n", str(n), *rest])
    assert (code, out.getvalue()) == (1, "")
    line = err.getvalue()
    assert line.startswith("error: ") and line.endswith("\n") and line.count("\n") == 1
    raise ValueError(line[len("error: "):-1])


def _refusals():
    for name, call, least in _ENTRY_POINTS:
        lower = "need 1 <= n < p" if least == 1 else "need 1 < n < p"
        library = not name.startswith("cli")
        # argparse hands the CLI ints only
        bad_p = [9] + [7.0] * library
        bad_n = [0, 7, 8] + [1] * (least == 2) + [3.0, True] * library
        for p in bad_p:
            yield pytest.param(call, p, 3, f"modulus must be an odd prime, got {p}", library, id=f"{name}-{p}-3")
        for n in bad_n:
            yield pytest.param(call, 7, n, f"{lower}, got n={n}, p=7", library, id=f"{name}-7-{n}")


@pytest.mark.parametrize("call, p, n, message, warm", _refusals())
def test_every_entry_point_refuses_a_bad_prime_or_rank_alike(call, p, n, message, warm):
    if warm:
        # a cached answer for (7, 3) must not stand in for 7.0, 3.0 or True
        call(7, 3)
    with pytest.raises(ValueError) as err:
        call(p, n)
    assert str(err.value) == message
