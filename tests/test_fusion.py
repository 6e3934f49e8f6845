import copy
import functools
import itertools
import json
import random
import time

import pytest

from dormantops.fusion import (
    BaseTable,
    Cobordism,
    FusionEngine,
    check_axioms,
    count,
    evaluate,
)
from dormantops.radii import canonical, comp_dual, hyp_set, is_hyp_type, neg_dual, xi, xi_size
from dormantops import fusion
from dormantops.tables import published_counts, published_pairs, published_xi
from dormantops.verlinde import verlinde_sum

PAIRS = [(3, 2), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (7, 4), (7, 5), (7, 6)]
W5 = canonical(7, (0, 2, 4))
V5 = canonical(7, (0, 1, 3, 5))
U3 = canonical(7, (0, 1, 2, 4, 5))


def test_published_data_covers_the_small_primes():
    assert published_pairs() == PAIRS
    for p, n in PAIRS:
        assert published_xi(p, n) == xi(p, n)


@pytest.mark.parametrize("p, n, message", [
    (11, 3, "the published tables cover (p, n) in {(3, 2), (5, 2), (5, 3), (5, 4), (7, 2), "
            "(7, 3), (7, 4), (7, 5), (7, 6)}, got (11, 3)"),
    (9, 3, "modulus must be an odd prime, got 9"),
    (7, 7, "need 1 <= n < p, got n=7, p=7"),
], ids=["11-3", "9-3", "7-7"])
def test_published_tables_refuse_an_uncovered_pair(p, n, message):
    for load in (published_xi, published_counts):
        with pytest.raises(ValueError) as err:
            load(p, n)
        assert str(err.value) == message


@pytest.mark.parametrize("p,n,entries", [
    (3, 2, 1), (5, 2, 5), (5, 3, 5), (5, 4, 1), (7, 2, 14),
    (7, 3, 53), (7, 4, 53), (7, 5, 14), (7, 6, 1),
])
def test_published_nonzero_entry_counts(p, n, entries):
    counts = published_counts(p, n)
    assert len(counts) == entries
    assert all(v in (1, 2) for v in counts.values())


@pytest.mark.parametrize("p,n", PAIRS)
def test_base_table_reproduces_published_counts(p, n):
    nonzero = {t: v for t, (v, _) in BaseTable(p, n).entries().items() if v}
    assert nonzero == published_counts(p, n)


def test_genus_zero_overrides_and_their_sources():
    t73 = BaseTable(7, 3)
    assert t73.value((W5, W5, W5)) == 2
    assert t73.source((W5, W5, W5)) == "jacobi-trudi"
    w1 = canonical(7, (0, 1, 2))
    assert t73.value((w1, w1, w1)) == 1
    assert t73.source((w1, w1, w1)) == "hyp"

    t74 = BaseTable(7, 4)
    assert t74.value((V5, V5, V5)) == 2
    assert t74.source((V5, V5, V5)) == "jacobi-trudi"

    t75 = BaseTable(7, 5)
    assert t75.value((U3, U3, U3)) == 1
    assert t75.source((U3, U3, U3)) == "dual:hyp"

    t76 = BaseTable(7, 6)
    full = xi(7, 6)[0]
    assert t76.value((full, full, full)) == 1
    assert t76.source((full, full, full)) == "hyp"


_hyp_sets = functools.cache(hyp_set)


def _resolve_one(p, n, triple):
    """The hyp and dual:hyp witnesses of the module docstring on one ordered
    triple; None when neither applies."""

    def primary(m, t):
        if m == p - 1:
            return (1 if all(c == xi(p, m)[0] for c in t) else 0, "hyp")
        if any(is_hyp_type(c) for c in t):
            return (1 if t in _hyp_sets(p, m) else 0, "hyp")
        return None

    got = primary(n, triple)
    if got is not None:
        return got
    dual = tuple(comp_dual(c) for c in triple)
    got = primary(p - n, dual)
    return None if got is None else (got[0], "dual:" + got[1])


@pytest.mark.parametrize("p,n", [(7, 3), (7, 4), (11, 3), (11, 8)])
def test_orbit_resolution_matches_per_triple_resolution(p, n):
    entries = BaseTable(p, n).entries()
    assert list(entries) == list(itertools.product(xi(p, n), repeat=3))
    for t, cell in entries.items():
        want = _resolve_one(p, n, t)
        if want is None:
            assert cell[1] == "jacobi-trudi", t
        else:
            assert cell == want, t


def test_former_unknown_entry_resolves_to_two():
    c = canonical(11, (0, 2, 5))
    engine = FusionEngine(11, 3)
    assert engine.table.value((c, c, c)) == 2
    assert engine.count(0, [c, c, c]) == 2
    i = engine.table.index[c]
    assert engine.used == {(i, i, i)}
    assert (engine.table.at((i, i, i)), engine.table.source_at((i, i, i))) == (2, "jacobi-trudi")


@pytest.mark.parametrize("p,n", [(11, 3), (11, 4), (13, 3), (13, 4)])
def test_completed_tables_glue_to_the_closed_form(p, n):
    engine = FusionEngine(p, n)
    for g in (2, 3):
        assert engine.count(g, []) == verlinde_sum(p, n, g)


@pytest.mark.parametrize("p,n", [(11, 3), (13, 3)])
def test_completed_tables_are_nonnegative_symmetric_and_rank_dual(p, n):
    table, dual = BaseTable(p, n), BaseTable(p, p - n)
    for t, (v, _) in table.entries().items():
        assert type(v) is int and v >= 0, t
        assert table.value((t[1], t[0], t[2])) == table.value((t[0], t[2], t[1])) == v, t
        assert dual.value(tuple(comp_dual(c) for c in t)) == v, t
    for v, _ in dual.entries().values():
        assert type(v) is int and v >= 0


@pytest.mark.parametrize("p,n", [(11, 3), (13, 3)])
def test_completed_tables_pass_the_axioms(p, n):
    assert check_axioms(p, n).passed


def test_dual_witness_refuses_a_disagreement(monkeypatch):
    real = fusion._hyp_orbits
    u = comp_dual(U3)
    assert (u, u, u) in hyp_set(7, 2)
    i = xi(7, 2).index(u)
    assert (i, i, i) in real(7, 2)
    # one orbit away from the rank-2 side, which witnesses the dual:hyp cells of (7, 5)
    monkeypatch.setattr(
        fusion, "_hyp_orbits", lambda p, n: tuple(t for t in real(p, n) if t != (i, i, i)) if n == 2 else real(p, n)
    )
    with pytest.raises(AssertionError) as err:
        BaseTable(7, 5)
    assert "[0, 1, 2, 4, 5]" in str(err.value)
    assert "Jacobi-Trudi gives 1, dual:hyp gives 0" in str(err.value)


def test_a_cell_reads_only_the_witness_of_its_kind(monkeypatch):
    table = BaseTable(7, 5)
    h, u = 0, table.basis.index(U3)
    assert is_hyp_type(table.basis[h]) and table.source((U3, U3, U3)) == "dual:hyp"
    assert (table.at((h, h, u)), table.source_at((h, h, u))) == (0, "hyp")
    # make the dual witness hold at the hyp cell (h, h, u); only hyp is read there
    extra = tuple(sorted(xi(7, 2).index(comp_dual(table.basis[i])) for i in (h, h, u)))
    real = fusion._hyp_orbits
    assert extra not in real(7, 2)
    monkeypatch.setattr(fusion, "_hyp_orbits", lambda p, n: tuple(sorted(real(p, n) + (extra,))) if n == 2 else real(p, n))
    table = BaseTable(7, 5)
    assert (table.at((h, h, u)), table.source_at((h, h, u))) == (0, "hyp")


def test_hyp_witness_refuses_a_disagreement(monkeypatch):
    real = fusion._closure

    def dropped(basis, pieri, w):
        # the unit comes first and its rows are the identity, row x = 2^(w x);
        # drop slot 0 of row 0, on a copy, since _closure shares the identity rows
        for a, rows in enumerate(real(basis, pieri, w)):
            if a == 0:
                rows = list(rows)
                rows[0] -= 1
            yield rows

    monkeypatch.setattr(fusion, "_closure", dropped)
    with pytest.raises(AssertionError) as err:
        BaseTable(7, 3)
    assert "Jacobi-Trudi gives 0, hyp gives 1" in str(err.value)


def test_a_negative_slot_is_refused_at_its_first_triple(monkeypatch):
    table = BaseTable(11, 3)
    basis, dual, k = table.basis, table.dual_perm, len(table.basis)
    cube = itertools.product(range(k), repeat=3)
    order = sorted((a, c, b) for a, b, c in cube if table.source((basis[a], basis[b], basis[c])) == "jacobi-trudi")
    # two slots of one row and one of the last row go to -1; the build reads
    # rows (a, c) in order and each row in b order, so the first is named
    targets = [order[len(order) // 2], order[len(order) // 2 + 1], order[-1]]
    real = fusion._closure

    def negated(basis, pieri, w):
        for a, rows in enumerate(real(basis, pieri, w)):
            rows = list(rows)
            for t, c, b in targets:
                if t == a:
                    rows[dual[c]] -= (table.at((a, b, c)) + 1) << (w * b)
            yield rows

    monkeypatch.setattr(fusion, "_closure", negated)
    with pytest.raises(AssertionError) as err:
        BaseTable(11, 3)
    a, c, b = targets[0]
    triple = ", ".join(str(list(basis[x].elems)) for x in (a, b, c))
    assert str(err.value) == f"p=11, n=3, triple ({triple}): Jacobi-Trudi gives -1, a negative count"


def _pieri(p, n):
    """The basis of Xi_{p,n}, its negation dual and the table's Pieri rows."""
    basis = xi(p, n)
    index = {c: i for i, c in enumerate(basis)}
    dual = tuple(index[neg_dual(c)] for c in basis)
    h = [index[c] for c in fusion._hyp_classes(p, n)]
    return basis, dual, fusion._pieri_rows(h, dual, fusion._hyp_orbits(p, n))


def _dict_closure(basis, pieri, seen):
    """M_lambda for each class as sparse rows {c: {b: value}}, one dict update
    per entry, as the closure was built before its rows were packed.  Every
    minor it builds is appended to seen."""
    n = basis[0].n
    ident = {x: {x: 1} for x in range(len(basis))}
    memo = {}

    def minor(row, cols, tail):
        if not tail:
            return ident
        if row not in memo or memo[row][0] != tail:
            memo[row] = (tail, {})
        got = memo[row][1].get(cols)
        if got is not None:
            return got
        out = {}
        for t, j in enumerate(cols):
            r = tail[0] - row + j
            if not 0 <= r < len(pieri):
                continue
            sub = minor(row + 1, cols[:t] + cols[t + 1:], tail[1:])
            sign = -1 if t % 2 else 1
            for c, xs in pieri[r].items():
                acc = out.setdefault(c, {})
                for x in xs:
                    for b, v in sub.get(x, {}).items():
                        acc[b] = acc.get(b, 0) + sign * v
        out = memo[row][1][cols] = {c: nz for c, acc in out.items() if (nz := {b: v for b, v in acc.items() if v})}
        seen.append(out)
        return out

    for c in basis:
        s = c.elems
        lam = tuple(part for i in range(n) if (part := s[n - 1 - i] - (n - 1 - i)))
        yield minor(0, tuple(range(len(lam))), lam)


@pytest.mark.parametrize("p,n", [(p, n) for p in (3, 5, 7, 11) for n in range(2, p)] + [
    (13, 2), (13, 3), (13, 4), (13, 9), (13, 10), (13, 11), (61, 59), (67, 65),
])
def test_packed_closure_matches_the_dict_closure(p, n):
    basis, dual, pieri = _pieri(p, n)
    table, k, seen = BaseTable(p, n), len(basis), []
    kinds = [0 if is_hyp_type(c) else 1 if is_hyp_type(comp_dual(c)) else 2 for c in basis]
    tags = ("hyp", "dual:hyp", "jacobi-trudi")
    for a, rows in enumerate(_dict_closure(basis, pieri, seen)):
        for c, d in enumerate(dual):
            want = [(rows.get(d, {}).get(b, 0), tags[min(kinds[a], kinds[b], kinds[c])]) for b in range(k)]
            assert [(table.at((a, b, c)), table.source_at((a, b, c))) for b in range(k)] == want, (a, c)
    bound = fusion._minor_bound(basis, pieri)
    assert max((abs(v) for m in seen for row in m.values() for v in row.values()), default=0) <= bound
    # (61, 59) still fits 64-bit slots; (67, 65) is the first to need wider ones
    assert (bound >> 63 > 0) == (p == 67)


def test_size_limits_refuse_before_any_work():
    assert xi_size(13, 6) <= fusion.MAX_TABLE_CLASSES < xi_size(17, 5)
    with pytest.raises(ValueError, match="1430 classes"):
        BaseTable(17, 8)
    with pytest.raises(ValueError, match="55 classes"):
        check_axioms(13, 4)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="500001 classes"):
        BaseTable(1000003, 2)
    assert time.perf_counter() - start < 1


def test_a_basis_past_its_limit_is_refused_without_its_size():
    for call in (BaseTable, check_axioms):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"Xi_\{1000003,500001\} has more than"):
            call(1000003, 500001)
        assert time.perf_counter() - start < 1
    # the refusal rests on |Xi_{p,n}| >= min(n, p - n)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        assert all(xi_size(p, n) >= min(n, p - n) for n in range(1, p))


def test_base_values_are_s3_symmetric():
    table = BaseTable(7, 3)
    for (a, b, c), (v, _) in table.entries().items():
        assert table.value((b, a, c)) == v
        assert table.value((c, b, a)) == v


def test_count_validates_inputs():
    engine = FusionEngine(5, 2)
    a = canonical(5, (0, 1))
    with pytest.raises(ValueError):
        engine.count(-1, [])
    for g in (True, 1.5, 2.0):
        with pytest.raises(ValueError) as err:
            count(7, 3, g)
        assert str(err.value) == f"genus must be a nonnegative integer, got {g!r}"
    with pytest.raises(ValueError):
        engine.count(0, [a])
    with pytest.raises(ValueError):
        engine.count(0, [a, a])
    with pytest.raises(ValueError):
        engine.count(0, [canonical(5, (0, 0, 1))])
    with pytest.raises(ValueError):
        engine.count(0, [canonical(7, (0, 1))])


def test_closed_surface_direct_values():
    engine = FusionEngine(7, 3)
    assert engine.count(0, []) == 1
    assert engine.count(1, []) == xi_size(7, 3) == 5


@pytest.mark.parametrize("p,n,g2", [
    (3, 2, 1), (5, 2, 5), (5, 3, 5), (5, 4, 1), (7, 2, 14),
    (7, 3, 56), (7, 4, 56), (7, 5, 14), (7, 6, 1),
])
def test_closed_genus_two_counts(p, n, g2):
    assert FusionEngine(p, n).count(2, []) == g2


def test_genus_two_matches_double_pants_gluing():
    """Two three-point counts glued along three circles."""
    for p, n in [(5, 2), (7, 3)]:
        table = BaseTable(p, n)
        total = 0
        for a in table.basis:
            for b in table.basis:
                for c in table.basis:
                    x = table.value((a, b, c))
                    y = table.value((neg_dual(a), neg_dual(b), neg_dual(c)))
                    total += x * y
        assert total == FusionEngine(p, n, table).count(2, [])


def test_four_point_boundary_split():
    table = BaseTable(7, 3)
    engine = FusionEngine(7, 3, table)
    w = xi(7, 3)
    radii = [w[0], w[1], w[4], w[4]]
    direct = 0
    for c in table.basis:
        direct += table.value((radii[0], radii[1], c)) * table.value(
            (neg_dual(c), radii[2], radii[3])
        )
    assert engine.count(0, radii) == direct


def test_one_point_torus_reduction():
    table = BaseTable(7, 3)
    engine = FusionEngine(7, 3, table)
    rho = canonical(7, (0, 1, 3))
    direct = sum(engine.count(0, [rho, c, neg_dual(c)]) for c in table.basis)
    assert engine.count(1, [rho]) == direct


def test_trace_records_base_entries_used():
    engine = FusionEngine(7, 3)
    assert engine.count(0, [W5, W5, W5]) == 2
    i = engine.table.index[W5]
    assert engine.used == {(i, i, i)}
    assert (engine.table.at((i, i, i)), engine.table.source_at((i, i, i))) == (2, engine.table.source((W5, W5, W5)))


def test_memoized_counts_are_stable():
    engine = FusionEngine(7, 3)
    first = engine.count(2, [])
    assert engine.count(2, []) == first == 56
    assert FusionEngine(7, 3).count(2, []) == first


def _tree(table, g, key, memo):
    """The memoized gluing tree on table.at: the oracle for the chain of FusionEngine.

    key is a sorted tuple of basis indices.  A handle is a sum over a class and
    its negation dual, a boundary splits off a three-point sphere, and the
    genus-0 base cases are the sphere, the disk, the cylinder and the table.
    """
    got = memo.get((g, key))
    if got is not None:
        return got
    dual = table.dual_perm
    if g > 0:
        v = sum(_tree(table, g - 1, tuple(sorted(key + (c, d))), memo) for c, d in enumerate(dual))
    elif len(key) == 0:
        v = 1
    elif len(key) == 1:
        v = int(key[0] == table.unit)
    elif len(key) == 2:
        v = int(key[1] == dual[key[0]])
    elif len(key) == 3:
        v = table.at(key)
    else:
        a, b, rest = key[0], key[1], key[2:]
        v = sum(w * _tree(table, 0, tuple(sorted((d,) + rest)), memo)
                for c, d in enumerate(dual) if (w := table.at((a, b, c))))
    memo[(g, key)] = v
    return v


def _replayer(table):
    """(reads, entry, times, product): the chain's steps on table, each cell read
    one at a time through entry, which records it in reads.

    The reference for the row reads of FusionEngine.used.  A product v e_a
    reads N(s, a, dual t) for every t and every s in the support of v.
    """
    reads = set()
    dual = table.dual_perm

    def entry(idx):
        reads.add(idx)
        return table.at(idx)

    def times(v, a):
        out = {}
        for s, x in v.items():
            for t, d in enumerate(dual):
                if w := entry((s, a, d)):
                    out[t] = out.get(t, 0) + x * w
        return out

    def product(idx, handles):
        v = {idx[0]: 1} if idx else {table.unit: 1}
        for a in idx[1:]:
            v = times(v, a)
        for _ in range(handles):
            h = {}
            for c, d in enumerate(dual):
                for t, y in times(times(v, c), d).items():
                    h[t] = h.get(t, 0) + y
            v = h
        return v

    return reads, entry, times, product


def _replay_reads(table, g, key):
    """(count, cells read) of the chain of FusionEngine.count for the sorted key,
    replayed one cell at a time; a closing contraction reads N(s, a, b) for
    every s in the support of v."""
    reads, entry, _, product = _replayer(table)

    def pair(v, a, b):
        return sum(x * entry((s, a, b)) for s, x in v.items())

    if g:
        v = product(key, g - 1)
        value = sum(pair(v, c, d) for c, d in enumerate(table.dual_perm))
    else:
        value = pair(product(key[:-2], 0), *key[-2:]) if key else 1
    return value, reads


def _replay_evaluate_reads(table, cob, keys):
    """The cells FusionEngine.evaluate reads for input keys of basis indices,
    replayed one cell at a time: u = e_key h^g, then u e_{dual c_1} ... for
    every output but the last, whose coefficients are read off without the table."""
    reads, _, times, product = _replayer(table)
    for key in keys:
        layer = [product(sorted(key), cob.genus)]
        for _ in range(cob.n_out - 1):
            layer = [w for v in layer for d in table.dual_perm if (w := times(v, d))]
    return reads


def _assert_used_is_read_from_the_table(engine, g, key):
    assert engine.used
    value, reads = _replay_reads(engine.table, g, key)
    assert engine.memo[(g, key)] == value, (g, key)
    assert engine.used == reads, (g, key)


@pytest.mark.parametrize("p,n", [(p, n) for p in (3, 5, 7) for n in range(2, p)] + [(11, 2), (13, 2)])
def test_chain_equals_the_gluing_tree(p, n):
    table = BaseTable(p, n)
    memo = {}
    for g in range(4):
        for r in range(5):
            if 2 * g - 2 + r <= 0 and not (r == 0 and g in (0, 1)):
                continue
            for key in itertools.combinations_with_replacement(range(len(table.basis)), r):
                engine = FusionEngine(p, n, table)
                got = engine.count(g, [table.basis[i] for i in key])
                assert got == _tree(table, g, key, memo), (g, key)
                assert engine.memo == {(g, key): got}
                if g or r >= 3:
                    _assert_used_is_read_from_the_table(engine, g, key)


@pytest.mark.parametrize("p,n", [(11, 3), (13, 3)])
def test_chain_equals_the_gluing_tree_on_complete_tables(p, n):
    table = BaseTable(p, n)
    k = len(table.basis)
    rng = random.Random(f"{p},{n}")
    memo = {}
    for _ in range(150):
        g, r = rng.randrange(3), rng.randrange(5)
        if 2 * g - 2 + r <= 0:
            continue
        key = tuple(sorted(rng.randrange(k) for _ in range(r)))
        engine = FusionEngine(p, n, table)
        assert engine.count(g, [table.basis[i] for i in key]) == _tree(table, g, key, memo), (g, key)
        _assert_used_is_read_from_the_table(engine, g, key)


@pytest.mark.parametrize("p,n", [(5, 3), (7, 3)])
@pytest.mark.parametrize("cob", [
    Cobordism(0, 1, 0), Cobordism(0, 0, 1),  # the disk: counit and unit
    Cobordism(0, 1, 1), Cobordism(0, 2, 0), Cobordism(0, 0, 2),  # the cylinder
    Cobordism(0, 2, 1), Cobordism(0, 1, 2),  # the pair of pants
    Cobordism(1, 1, 1),
], ids=repr)
def test_used_after_evaluate_is_read_from_the_table(p, n, cob):
    table = BaseTable(p, n)
    keys = list(itertools.product(range(len(table.basis)), repeat=cob.n_in))
    engine = FusionEngine(p, n, table)
    engine.evaluate(cob, {tuple(table.basis[i] for i in key): 1 for key in keys})
    assert engine.used == _replay_evaluate_reads(table, cob, keys)
    assert bool(engine.used) == (cob.genus > 0 or cob.n_in > 1 or cob.n_out > 1)


def test_duality_swaps_rank_and_corank():
    e3 = FusionEngine(7, 3)
    e4 = FusionEngine(7, 4)
    for a in xi(7, 3):
        for b in xi(7, 3):
            for c in xi(7, 3):
                lhs = e3.count(0, [a, b, c])
                rhs = e4.count(0, [comp_dual(a), comp_dual(b), comp_dual(c)])
                assert lhs == rhs


def test_module_level_conveniences():
    assert count(7, 3, 2, []) == 56
    got = evaluate(7, 3, Cobordism(2, 0, 0), {(): 1})
    assert got == {(): 56}


def test_evaluate_special_cobordisms():
    engine = FusionEngine(5, 2)
    a, b = xi(5, 2)
    assert engine.evaluate(Cobordism(0, 1, 1), {(a,): 3}) == {(a,): 3}
    assert engine.evaluate(Cobordism(0, 0, 1), {(): 2}) == {(a,): 2}
    assert engine.evaluate(Cobordism(0, 1, 0), {(a,): 2}) == {(): 2}
    assert engine.evaluate(Cobordism(0, 1, 0), {(b,): 2}) == {}
    copair = engine.evaluate(Cobordism(0, 0, 2), {(): 1})
    assert copair == {(c, neg_dual(c)): 1 for c in xi(5, 2)}
    assert engine.evaluate(Cobordism(0, 2, 0), {(a, neg_dual(a)): 1}) == {(): 1}


def test_evaluate_multiplication_cobordism_matches_algebra():
    engine = FusionEngine(7, 3)
    table, w = engine.table, xi(7, 3)
    i, j = 1, 4
    out = engine.evaluate(Cobordism(0, 2, 1), {(w[i], w[j]): 1})
    vec = [out.get((c,), 0) for c in w]
    assert vec == [table.at((i, j, table.dual_perm[t])) for t in range(len(w))]
    assert vec == [0, 1, 1, 0, 1]


def test_axiom_report_shape_and_passing():
    report = check_axioms(5, 2)
    assert report.passed
    data = report.to_json()
    assert data["p"] == 5 and data["n"] == 2 and data["passed"] is True
    names = [r["name"] for r in data["results"]]
    assert names == [
        "base-s3-symmetric",
        "commutative",
        "associative",
        "unit",
        "frobenius",
        "pairing-nondegenerate",
    ]
    json.dumps(data)


def test_corrupted_table_fails_associativity():
    w1 = canonical(7, (0, 1, 2))
    bad = BaseTable(7, 3).with_value((w1, w1, w1), 2)
    report = check_axioms(7, 3, bad)
    failed = {r.name for r in report.results if not r.passed}
    assert "associative" in failed


@pytest.mark.parametrize("idx,failed", [
    ((1, 2, 3), {
        "base-s3-symmetric": "[[0, 1, 3], [0, 1, 4], [0, 1, 5]] vs permutation",
        "commutative": "[0, 1, 3] * [0, 1, 4]",
        "associative": "([0, 1, 3] * [0, 1, 3]) * [0, 1, 3]",
        "frobenius": "<[0, 1, 3] * [0, 1, 4], [0, 1, 5]>",
    }),
    ((4, 4, 2), {
        "base-s3-symmetric": "[[0, 1, 4], [0, 2, 4], [0, 2, 4]] vs permutation",
        "associative": "([0, 1, 3] * [0, 1, 4]) * [0, 2, 4]",
        "frobenius": "<[0, 1, 4] * [0, 2, 4], [0, 2, 4]>",
    }),
    ((0, 2, 4), {
        "base-s3-symmetric": "[[0, 1, 2], [0, 1, 4], [0, 2, 4]] vs permutation",
        "commutative": "[0, 1, 2] * [0, 1, 4]",
        "associative": "([0, 1, 2] * [0, 1, 2]) * [0, 1, 4]",
        "unit": "unit * [0, 1, 4]",
        "frobenius": "<[0, 1, 2] * [0, 1, 4], [0, 2, 4]>",
    }),
])
def test_one_ordered_cell_changed_fails_these_rows(idx, failed):
    """One cell raised by 1 without the rest of its orbit; basis[0] is the unit."""
    table = BaseTable(7, 3)
    table._cells[table._slot(idx)] += 1
    report = check_axioms(7, 3, table)
    assert {r.name: r.witness for r in report.results if not r.passed} == failed
    assert all(r.witness is None for r in report.results if r.passed)


@pytest.mark.parametrize("dual_perm,witness", [
    ((0, 3, 2, 1, 1), "pairing matrix is not a permutation"),
    ((0, 2, 3, 1, 4), "negation dual not involutive at [0, 1, 3]"),
], ids=["not-a-permutation", "not-involutive"])
def test_a_bad_negation_dual_fails_the_pairing_row(dual_perm, witness):
    table = copy.copy(BaseTable(7, 3))
    assert sorted(table.dual_perm) == list(range(5)) and table.dual_perm != dual_perm
    table.dual_perm = dual_perm
    result = check_axioms(7, 3, table).results[-1]
    assert (result.name, result.passed, result.witness) == ("pairing-nondegenerate", False, witness)


def test_check_axioms_keeps_no_record_of_the_cells_it_reads(monkeypatch):
    def no_engine(*args):
        raise AssertionError("check_axioms built a FusionEngine")

    monkeypatch.setattr(fusion, "FusionEngine", no_engine)
    assert check_axioms(7, 3).passed


@pytest.mark.parametrize("p,n", [(5, 2), (7, 3)])
def test_tqft_identities_through_the_gluing_recursion(p, n):
    engine = FusionEngine(p, n)
    basis = xi(p, n)
    unit = canonical(p, range(n))
    disk = engine.evaluate(Cobordism(0, 0, 1), {(): 1})
    assert disk == {(unit,): 1}
    assert engine.evaluate(Cobordism(0, 1, 0), disk) == {(): 1}
    for c in basis:
        assert engine.evaluate(Cobordism(0, 1, 1), {(c,): 1}) == {(c,): 1}
        assert engine.evaluate(Cobordism(0, 2, 1), {(unit, c): 1}) == {(c,): 1}
    copairing = engine.evaluate(Cobordism(0, 0, 2), {(): 1})
    k = engine.count(1, [])
    assert k == len(basis)
    assert engine.evaluate(Cobordism(0, 2, 0), copairing) == {(): k}


@pytest.mark.parametrize("p,n", [(5, 2), (7, 3)])
def test_evaluate_coefficients_are_counts_with_dual_outputs(p, n):
    engine = FusionEngine(p, n)
    basis = xi(p, n)
    shapes = [(g, r, s) for g in (0, 1, 2) for r in range(3) for s in range(3)
              if 2 * g - 2 + r + s > 0 and (g < 2 or r + s <= 2)]
    for g, r, s in shapes:
        for key in itertools.product(basis, repeat=r):
            out = engine.evaluate(Cobordism(g, r, s), {key: 1})
            for lam in itertools.product(basis, repeat=s):
                want = engine.count(g, list(key) + [neg_dual(c) for c in lam])
                assert out.get(lam, 0) == want, (g, r, s, key, lam)


def test_with_value_replaces_the_whole_orbit_in_a_copy():
    table = BaseTable(7, 3)
    before = table.entries()
    w = xi(7, 3)
    triple = (w[0], w[2], w[4])
    bad = table.with_value(triple, 7)
    for perm in itertools.permutations(triple):
        assert bad.value(perm) == 7
        assert bad.source(perm) == "manual"
    assert table.entries() == before
    after = bad.entries()
    changed = {t for t, got in after.items() if got != before[t]}
    assert changed == set(itertools.permutations(triple))
    # the manual cells keep their place in product order and their own tag
    assert list(after) == list(before)
    assert all(after[t] == (7, "manual") for t in changed)


P5_A = canonical(5, (0, 1))


@pytest.mark.parametrize("bad", [
    (0, 1), 1, "0,1", canonical(7, (0, 1)), canonical(5, (0, 1, 2)), canonical(5, (0, 0)),
], ids=["tuple", "int", "str", "wrong-p", "wrong-n", "repeated"])
@pytest.mark.parametrize("call", [
    lambda t, e, c: t.value((c, P5_A, P5_A)),
    lambda t, e, c: t.source((P5_A, c, P5_A)),
    lambda t, e, c: e.count(0, [P5_A, P5_A, c]),
    lambda t, e, c: e.evaluate(Cobordism(0, 1, 1), {(P5_A,): 1, (c,): 1}),
], ids=["value", "source", "count", "evaluate"])
def test_classes_outside_xi_are_rejected(bad, call):
    table = BaseTable(5, 2)
    with pytest.raises(ValueError, match=r"is not in Xi_\{5,2\}"):
        call(table, FusionEngine(5, 2, table), bad)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_top_rank_table_is_the_single_hyp_entry(p):
    table = BaseTable(p, p - 1)
    full = canonical(p, range(p - 1))
    assert table.entries() == {(full, full, full): (1, "hyp")}


def test_a_table_for_other_p_n_is_refused():
    table = BaseTable(7, 3)
    with pytest.raises(ValueError, match="p=7, n=3"):
        FusionEngine(11, 2, table)
    with pytest.raises(ValueError, match="p=7, n=3"):
        check_axioms(7, 4, table)
    assert FusionEngine(7, 3, table).count(2, []) == 56
