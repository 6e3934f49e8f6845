import random
from itertools import combinations_with_replacement, count, product

import pytest
from hypothesis import given, settings, strategies as st

from dormantops import hyperg
from dormantops.fp import Generic, is_odd_prime
from dormantops.hyperg import (
    MAX_ORACLE_P,
    GenericParameterError,
    apply,
    gauss,
    has_full_solutions,
    kernel_rank,
    matrix,
    new_operator,
    oracle_rank,
    root_basis,
    t_set,
)


def test_three_term_chain_has_full_rank():
    op = new_operator(7, (6, 4, 2), (5, 3))
    assert sorted(t_set(op)) == [0, 1, 2]
    assert kernel_rank(op) == 3
    assert oracle_rank(op) == 3
    assert has_full_solutions(op)


def test_repeated_alpha_collapses_to_rank_one():
    """With alpha = (1, 1) both lifts land in the same gap, so only one gap is hit."""
    op = new_operator(5, (1, 1), (1,))
    assert matrix(op) == [{0: 4, 1: 1}, {1: 1, 2: 4}, {2: 1, 3: 4}, {3: 4, 4: 1}, {}]
    assert sorted(t_set(op)) == [0]
    assert kernel_rank(op) == 1
    assert oracle_rank(op) == 1
    assert root_basis(op) == [(1, 1, 1, 1, 1)]
    assert not has_full_solutions(op)


def test_rank_can_exceed_beta_count():
    """The top gap [beta_1, p+1) and bottom gap [1, beta_m') are both real gaps,
    so the rank bound is min(n', m'+1), not min(n', m')."""
    op = new_operator(5, (3, 1), (3,))
    assert sorted(t_set(op)) == [0, 1]
    assert kernel_rank(op) == 2 > min(op.n, op.m)
    assert oracle_rank(op) == 2


def test_generic_parameters_occupy_no_gap():
    op = new_operator(5, (Generic("a"), 1), (2,))
    assert sorted(t_set(op)) == [1]
    assert kernel_rank(op) == 1
    assert not op.all_fp()
    assert not has_full_solutions(op)


@pytest.mark.parametrize("fn", [matrix, oracle_rank, root_basis])
def test_oracle_paths_reject_generics(fn):
    op = new_operator(5, (Generic("a"),), (2,))
    with pytest.raises(GenericParameterError):
        fn(op)


def test_matrix_entries_follow_the_recurrence():
    op = new_operator(7, (2, 5), (3,))
    rows = matrix(op)
    assert len(rows) == 7
    for l, row in enumerate(rows):
        assert set(row) <= {l, l + 1} and 0 not in row.values()
        assert row.get(l, 0) == -((l + 2) * (l + 5)) % 7
        if l < 6:
            assert row.get(l + 1, 0) == (l + 1) * (l + 3) % 7
    # P(2) = P(5) = Q(4) = 0 are left out, and row 6 has no column 7
    assert rows == [{0: 4, 1: 3}, {1: 3, 2: 1}, {3: 1}, {3: 2, 4: 3}, {4: 2}, {6: 6}, {6: 3}]


def test_apply_matches_matrix_action():
    op = new_operator(7, (2, 5), (3, 3))
    rows = matrix(op)
    rng = random.Random(11)
    for _ in range(20):
        vec = [rng.randrange(7) for _ in range(7)]
        assert apply(op, vec) == tuple(sum(v * vec[j] for j, v in row.items()) % 7 for row in rows)


def test_root_basis_size_and_annihilation():
    op = new_operator(7, (6, 4, 2), (5, 3))
    basis = root_basis(op)
    assert len(basis) == kernel_rank(op) == 3
    for vec in basis:
        assert not any(apply(op, vec))
        assert all(0 <= c < 7 for c in vec)


def test_operator_validation():
    with pytest.raises(ValueError):
        new_operator(4, (1,), (1,))
    with pytest.raises(ValueError):
        new_operator(5, (), (1,))
    with pytest.raises(ValueError):
        new_operator(5, (1,), ())
    with pytest.raises(ValueError):
        apply(new_operator(5, (1,), (1,)), [0, 0, 0])


def _gauss_reference(p, a, b, c):
    """Full solutions iff the lift of c separates the lifts of a and b."""
    at = a % p if a % p else p
    bt = b % p if b % p else p
    ct = c % p if c % p else p
    return at < ct <= bt or bt < ct <= at


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gauss_criterion_small(p):
    for a in range(p):
        for b in range(p):
            for c in range(p):
                assert has_full_solutions(gauss(p, a, b, c)) == _gauss_reference(p, a, b, c)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_full_solutions_match_the_oracle_rank(p):
    # the rule reads the closed-form rank; this ties it to the elimination
    multisets = [m for size in range(1, 4) for m in combinations_with_replacement(range(p), size)]
    for alpha in multisets:
        for beta in multisets:
            op = new_operator(p, alpha, beta)
            want = op.m == op.n - 1 and oracle_rank(op) == op.n
            assert has_full_solutions(op) == want, (p, alpha, beta)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_closed_form_matches_oracle(data):
    p = data.draw(st.sampled_from([3, 5, 7, 11, 13]))
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 4))
    alpha = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    beta = data.draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))
    op = new_operator(p, alpha, beta)
    rank = kernel_rank(op)
    assert rank == oracle_rank(op)
    assert rank <= min(op.n, op.m + 1)


def test_rank_depends_only_on_parameter_multisets():
    op1 = new_operator(7, (2, 5, 1), (3, 6))
    op2 = new_operator(7, (5, 1, 2), (6, 3))
    assert t_set(op1) == t_set(op2)
    assert oracle_rank(op1) == oracle_rank(op2)


def _span(basis, p):
    """Every F_p linear combination of the basis vectors, which lie in F_p^p."""
    return {
        tuple(sum(c * v[s] for c, v in zip(coeffs, basis)) % p for s in range(p))
        for coeffs in product(range(p), repeat=len(basis))
    }


def _brute_force_witness(op):
    """The null vectors found by trying every vector: no elimination involved."""
    p = op.p
    null = {v for v in product(range(p), repeat=p) if not any(apply(op, v))}
    assert len(null) == p ** oracle_rank(op), (p, op.alpha, op.beta)
    assert _span(root_basis(op), p) == null, (p, op.alpha, op.beta)


def test_oracle_and_basis_against_brute_force_p3():
    multisets = [m for size in range(1, 4) for m in combinations_with_replacement(range(3), size)]
    for alpha in multisets:
        for beta in multisets:
            _brute_force_witness(new_operator(3, alpha, beta))


def test_oracle_and_basis_against_brute_force_p5():
    rng = random.Random(5)
    for _ in range(40):
        alpha = [rng.randrange(5) for _ in range(rng.randint(1, 4))]
        beta = [rng.randrange(5) for _ in range(rng.randint(1, 4))]
        _brute_force_witness(new_operator(5, alpha, beta))


def _primes(lo, hi):
    return [q for q in range(lo, hi + 1) if all(q % d for d in range(2, int(q**0.5) + 1))]


def _large_prime_operators():
    """One seeded operator per prime in 31..211, plus one full-solution chain
    a_1 >= b_1 > a_2 >= ... > a_n per prime, so ranks above 1 occur."""
    rng = random.Random(31211)
    ops = []
    for p in _primes(31, 211):
        alpha = [rng.randrange(p) for _ in range(rng.randint(1, 4))]
        beta = [rng.randrange(p) for _ in range(rng.randint(1, 4))]
        ops.append((p, tuple(alpha), tuple(beta)))
        lifts = sorted(rng.sample(range(1, p + 1), 7), reverse=True)
        ops.append((p, tuple(lifts[0::2]), tuple(lifts[1::2])))
    return ops


def test_large_primes_rank_and_basis():
    ranks = set()
    for p, alpha, beta in _large_prime_operators():
        op = new_operator(p, alpha, beta)
        rank = kernel_rank(op)
        ranks.add(rank)
        assert oracle_rank(op) == rank, (p, alpha, beta)
        basis = root_basis(op)
        assert len(basis) == rank, (p, alpha, beta)
        for vec in basis:
            assert not any(apply(op, vec)), (p, alpha, beta, vec)
    assert {1, 4} <= ranks


def test_large_primes_results_do_not_depend_on_call_order():
    for p, alpha, beta in _large_prime_operators()[::4]:
        rank_first = new_operator(p, alpha, beta)
        basis_first = new_operator(p, alpha, beta)
        rank = oracle_rank(rank_first)
        basis = root_basis(basis_first)
        assert root_basis(rank_first) == basis, (p, alpha, beta)
        assert oracle_rank(basis_first) == rank, (p, alpha, beta)


def test_one_elimination_per_operator(monkeypatch):
    calls = []
    echelon = hyperg._echelon

    def counting(rows, p):
        calls.append(p)
        return echelon(rows, p)

    monkeypatch.setattr(hyperg, "_echelon", counting)
    op = new_operator(101, (40, 7), (20,))
    assert oracle_rank(op) == 2
    assert len(root_basis(op)) == 2
    assert oracle_rank(op) == 2
    assert calls == [101]
    assert oracle_rank(new_operator(101, (40, 7), (20,))) == 2
    assert calls == [101, 101]


def test_cached_elimination_keeps_equality_and_hash():
    cached = new_operator(97, (50, 3), (10,))
    fresh = new_operator(97, (50, 3), (10,))
    root_basis(cached)
    assert kernel_rank(cached) == 2 and has_full_solutions(cached) and cached.all_fp()
    assert cached == fresh and fresh == cached
    assert hash(cached) == hash(fresh)
    assert len({cached, fresh}) == 1
    assert cached != new_operator(97, (50, 4), (10,))
    assert cached._lifts[:2] == ([50, 3], [10])
    assert sorted(t_set(cached)) == [0, 1] and kernel_rank(cached) == 2
    assert cached == fresh and hash(cached) == hash(fresh)


def _lifts_property():
    return vars(hyperg.HGOperator)["_lifts"]


def test_one_sort_per_side_per_operator(monkeypatch):
    calls = []
    lifts = _lifts_property().func

    def counting(op):
        calls.append(op.p)
        return lifts(op)

    monkeypatch.setattr(_lifts_property(), "func", counting)
    op = new_operator(7, (6, 4, 2), (5, 3))
    for _ in range(2):
        assert t_set(op) == {0, 1, 2} and kernel_rank(op) == 3
        assert has_full_solutions(op) and op.all_fp()
        assert op._lifts[:2] == ([6, 4, 2], [5, 3])
    assert calls == [7]


def test_oracle_reads_nothing_from_the_lifts(monkeypatch):
    def refuse(op):
        raise AssertionError("the oracle sorted the parameters")

    monkeypatch.setattr(_lifts_property(), "func", refuse)
    op = new_operator(7, (6, 4, 2), (5, 3))
    assert oracle_rank(op) == 3
    assert len(root_basis(op)) == 3
    with pytest.raises(AssertionError, match="sorted"):
        op.all_fp()


def test_parameters_are_plain_residues():
    op = new_operator(7, (8, -1, 0), (15, Generic("b")))
    assert op.alpha == (1, 6, 0)
    assert all(type(x) is int for x in op.alpha + op.beta if not isinstance(x, Generic))
    assert op._lifts[:2] == ([7, 6, 1], [1])
    for p in (1, 4, 9, 2):
        with pytest.raises(ValueError, match="odd prime"):
            new_operator(p, (1,), (1,))
    with pytest.raises(TypeError, match="not a parameter"):
        new_operator(7, (1.0,), (1,))


def _prime_above(n):
    return next(q for q in count(n + 1) if is_odd_prime(q))


def test_oracle_refuses_p_above_its_bound():
    p = _prime_above(MAX_ORACLE_P)
    op = new_operator(p, (1, 2), (3,))
    assert kernel_rank(op) == 1
    for fn in (oracle_rank, root_basis):
        with pytest.raises(ValueError, match="MAX_ORACLE_P"):
            fn(op)


def _seeded_chain(p):
    """A rank-4 full-solution chain at p, drawn from a generator seeded by p."""
    lifts = sorted(random.Random(p).sample(range(1, p + 1), 7), reverse=True)
    chain = new_operator(p, lifts[0::2], lifts[1::2])
    assert kernel_rank(chain) == 4 and has_full_solutions(chain)
    return chain


def test_oracle_and_basis_at_a_large_prime():
    # the largest prime the oracle accepts, so its edge stays covered
    edge = 9973
    assert edge <= MAX_ORACLE_P < _prime_above(edge)
    ops = [_seeded_chain(2003), new_operator(2003, (40, 7, 1500), (20, 1999)), _seeded_chain(edge)]
    for op in ops:
        assert oracle_rank(op) == kernel_rank(op), (op.alpha, op.beta)
        basis = root_basis(op)
        assert len(basis) == kernel_rank(op)
        for vec in basis:
            assert len(vec) == op.p and not any(apply(op, vec)), (op.alpha, op.beta)


def _assert_free_column_shape(basis):
    """The shape the reduced-echelon null vectors had.

    A vector's free column is its last nonzero entry: it is 1 there, the other
    vectors are 0 there, and free columns increase along the basis.
    """
    free = [max(s for s, c in enumerate(vec) if c) for vec in basis]
    assert free == sorted(set(free))
    for i, vec in enumerate(basis):
        assert vec[free[i]] == 1
        for j, col in enumerate(free):
            if j != i:
                assert vec[col] == 0


def test_root_basis_free_column_shape():
    assert root_basis(new_operator(7, (6, 4, 2), (5, 3))) == [
        (6, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 0),
    ]
    assert root_basis(new_operator(7, (3, 1), (3,))) == [
        (1, 1, 1, 1, 1, 0, 0),
        (0, 0, 0, 0, 0, 1, 1),
    ]
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice([3, 5, 7, 11, 13])
        alpha = [rng.randrange(p) for _ in range(rng.randint(1, 4))]
        beta = [rng.randrange(p) for _ in range(rng.randint(1, 4))]
        _assert_free_column_shape(root_basis(new_operator(p, alpha, beta)))
    for p, alpha, beta in _large_prime_operators():
        _assert_free_column_shape(root_basis(new_operator(p, alpha, beta)))


def test_echelon_on_dense_matrices():
    """The elimination is general: on dense rectangular matrices, fed as sparse
    rows, its rank matches a brute-force null-vector count, and it keeps one
    row per pivot column, whose least column that is, with a unit pivot."""
    rng = random.Random(3)
    mats = [
        (5, [[0, 0, 0], [2, 0, 1], [0, 0, 0]]),
        (7, [[1, 2, 3, 4], [0, 5, 6, 0], [1, 2, 3, 4], [3, 6, 2, 5]]),
        # the third row is reduced twice, the fourth to nothing
        (5, [[1, 1, 0], [0, 1, 1], [1, 0, 0], [2, 2, 0]]),
    ]
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        mats.append((p, [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(ncols)] for _ in range(nrows)]))
    for p, mat in mats:
        nrows, ncols = len(mat), len(mat[0])
        null = sum(
            1
            for v in product(range(p), repeat=ncols)
            if not any(sum(a * b for a, b in zip(row, v)) % p for row in mat)
        )
        sparse = [{j: x for j, x in enumerate(row) if x} for row in mat]
        kept = hyperg._echelon(sparse, p)
        assert len(kept) <= nrows
        assert null == p ** (ncols - len(kept)), (p, mat)
        for c, row in kept.items():
            assert all(0 < x < p for x in row.values()), (p, mat, kept)
            assert min(row) == c and row[c] == 1, (p, mat, kept)


class _LoggedRow(dict):
    """A pivot row that logs its pivot column each time its entries are read."""

    def __init__(self, c, row, log):
        super().__init__(row)
        self.c, self.log = c, log

    def items(self):
        self.log.append(self.c)
        return super().items()


@pytest.mark.parametrize("p,alpha,beta", [(7, (6, 4, 2), (5, 3)), (13, (3, 9, 11), (2, 5)), (101, (40, 7), (20,))])
def test_root_basis_reads_only_the_pivot_rows_left_of_each_free_column(p, alpha, beta):
    op = new_operator(p, alpha, beta)
    log = []
    kept = {c: _LoggedRow(c, row, log) for c, row in op._row_echelon.items()}
    op.__dict__["_row_echelon"] = kept
    assert root_basis(op) == root_basis(new_operator(p, alpha, beta))
    free = [c for c in range(p) if c not in kept]
    assert len(free) >= 2
    assert log == [c for f in free for c in sorted(kept, reverse=True) if c < f]
