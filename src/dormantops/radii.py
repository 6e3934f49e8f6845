"""Residue multisets modulo simultaneous translation, and their dualities.

A radius class is an n-element multiset of F_p taken up to adding a common
constant.  The canonical representative is the lexicographically least sorted
translate; it always contains 0.  Classes with distinct entries form the set
Xi_{p,n}, of size C(p,n)/p, which carries two involutions: entrywise negation
and the negated complement (the latter lands in Xi_{p,p-n}).

_check_pn is the one rule for a prime and a rank: every entry point indexed by
(p, n), here and in fusion, verlinde and the CLI, calls it and nothing else,
with least = 2 where a parameter chain is needed.

Translating an n-subset by t adds n t to its sum, and gcd(n, p) = 1, so each
class of Xi_{p,n} has exactly one translate in T, the n-subsets of Z/p with
sum 0 mod p.  xi lists the lexmin translates of the members of T, walked by
_zero_sum_subsets, and verlinde_sum walks the same T.

A tuple (alpha, beta) in F_p^n x F_p^{n-1} determines three exponent multisets

    e1 = {0, 1-beta_1, ..., 1-beta_{n-1}}
    e2 = {0, 1, ..., n-2, sum(beta) - sum(alpha)}
    e3 = {alpha_1, ..., alpha_n}

whose classes form the radii triple of the attached local system.  Tuples
whose canonical lifts satisfy the interleaving chain a_1 >= b_1 > a_2 >= ...
> b_{n-1} > a_n are exactly those with a full solution space; hyp_set collects
every permutation of every radii triple arising that way.

Each component depends on part of the tuple only: e3 on the alpha-subset, e1
on the beta-subset, and e2 on (sum(beta) - sum(alpha)) mod p.  _hyp_orbits
walks the alpha-subsets and the beta ranges under each, resolves each component
once per distinct input (at most C(p,n) + C(p-1,n-1) + p lookups), and caches
the triples as sorted index triples into xi(p, n), one per S3 orbit.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache, total_ordering
from math import comb
from operator import sub

from .fp import _check_int, _Frozen, check_odd_prime

__all__ = [
    "RadiusClass",
    "canonical",
    "xi",
    "xi_size",
    "neg_dual",
    "comp_dual",
    "exponents",
    "radii_triple",
    "is_hyp_type",
    "interleavings",
    "hyp_set",
]


@total_ordering
class RadiusClass(_Frozen):
    """Canonical form of a residue multiset modulo simultaneous translation.

    elems is weakly increasing, starts at 0, and is the lexicographically least
    among the sorted translates.  Entries may repeat; in_xi marks the
    distinct-entry classes.
    """

    __match_args__ = ("p", "elems")

    def __init__(self, p: int, elems: tuple[int, ...]) -> None:
        self._set_fields(p, elems)
        if elems != _lexmin_translate(p, elems):
            raise ValueError(f"{elems} is not the canonical translate")

    def _set_fields(self, p: int, elems: tuple[int, ...]) -> None:
        """Check the shape of (p, elems), then set the fields and the hash."""
        check_odd_prime(p)
        n = len(elems)
        if not 1 <= n < p:
            raise ValueError(f"class size must satisfy 1 <= n < p, got n={n}, p={p}")
        for e in elems:
            if not isinstance(e, int):
                raise TypeError(f"not a residue: {e!r}")
            if not 0 <= e < p:
                raise ValueError(f"entries out of range for p={p}: {elems}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "elems", elems)
        # the hash of the field tuple, computed here once, not on every call
        object.__setattr__(self, "_hash", hash((p, elems)))

    def __hash__(self) -> int:
        return self._hash

    # both compare (p, elems) directly, not the generic field tuples of _Record
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.p, self.elems) == (other.p, other.elems)
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.p, self.elems) < (other.p, other.elems)
        return NotImplemented

    @classmethod
    def _from_lexmin(cls, p: int, elems: tuple[int, ...]) -> "RadiusClass":
        """The class of a translate its caller has just computed by _lexmin_translate.

        Runs every check of the constructor but the lexmin one.
        """
        c = object.__new__(cls)
        c._set_fields(p, elems)
        return c

    @property
    def n(self) -> int:
        return len(self.elems)

    @property
    def in_xi(self) -> bool:
        return len(set(self.elems)) == len(self.elems)


Triple = tuple[RadiusClass, RadiusClass, RadiusClass]


def _zero_translates(p: int, elems: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The sorted translates that contain 0, one per distinct entry."""
    return (tuple(sorted((e - s) % p for e in elems)) for s in set(elems))


def _lexmin_translate(p: int, elems: Sequence[int]) -> tuple[int, ...]:
    # the least translate starts at 0, so it is one of the translates with 0
    return min(_zero_translates(p, elems))


def canonical(p: int, elems: Iterable[int]) -> RadiusClass:
    """Canonical class of a multiset of residues (any int representative accepted)."""
    check_odd_prime(p)
    es = []
    for e in elems:
        if not isinstance(e, int):
            raise TypeError(f"not a residue: {e!r}")
        es.append(e % p)
    if not 1 <= len(es) < p:
        raise ValueError(f"class size must satisfy 1 <= n < p, got n={len(es)}, p={p}")
    return RadiusClass._from_lexmin(p, _lexmin_translate(p, es))


def _check_pn(p: int, n: int, least: int = 1) -> None:
    """TypeError unless p and n are ints, not bools, then ValueError unless p is an odd prime and least <= n < p."""
    check_odd_prime(p)
    if not least <= _check_int(n, "n") < p:
        lower = "1 <= n" if least == 1 else f"{least - 1} < n"
        raise ValueError(f"need {lower} < p, got n={n}, p={p}")


def _zero_sum_subsets(p: int, n: int) -> Iterator[tuple[int, ...]]:
    """T as increasing tuples: each (n-1)-subset R of Z/p plus -sum R mod p, when above max R.
    As -sum R mod p <= p - 1, no such R holds p - 1, so R is drawn from 0, ..., p - 2."""
    for rest in itertools.combinations(range(p - 1), n - 1):
        last = -sum(rest) % p
        if not rest or last > rest[-1]:
            yield rest + (last,)


@lru_cache(maxsize=None, typed=True)
def xi(p: int, n: int) -> tuple[RadiusClass, ...]:
    """All distinct-entry classes of size n, sorted: the lexmin translates of T."""
    _check_pn(p, n)
    classes = sorted(_lexmin_translate(p, s) for s in _zero_sum_subsets(p, n))
    return tuple(RadiusClass._from_lexmin(p, e) for e in classes)


def xi_size(p: int, n: int) -> int:
    """C(p,n)/p, the closed-form cardinality of xi(p, n), with the same checks."""
    _check_pn(p, n)
    return comb(p, n) // p


def neg_dual(c: RadiusClass) -> RadiusClass:
    """Entrywise negation, an involution on classes of every size."""
    return canonical(c.p, [-e % c.p for e in c.elems])


def comp_dual(c: RadiusClass) -> RadiusClass:
    """Negated complement, an involution Xi_{p,n} <-> Xi_{p,p-n}."""
    if not c.in_xi:
        raise ValueError(f"complement dual needs distinct entries, got {c.elems}")
    rest = set(range(c.p)) - set(c.elems)
    return canonical(c.p, [-e % c.p for e in rest])


def exponents(
    p: int, alpha: Sequence[int], beta: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Raw exponent multisets (mod p) of a parameter tuple of ints with m = n-1."""
    check_odd_prime(p)
    n = len(alpha)
    if n < 2 or len(beta) != n - 1:
        raise ValueError(f"need len(alpha) >= 2 and len(beta) == len(alpha) - 1")
    for x in (*alpha, *beta):
        if not isinstance(x, int):
            raise TypeError(f"not a parameter: {x!r}")
    a = [x % p for x in alpha]
    b = [x % p for x in beta]
    e1 = (0,) + tuple((1 - x) % p for x in b)
    e2 = tuple(range(n - 1)) + ((sum(b) - sum(a)) % p,)
    e3 = tuple(a)
    return e1, e2, e3


def radii_triple(p: int, alpha: Sequence[int], beta: Sequence[int]) -> Triple:
    """Componentwise canonical classes of the three exponent multisets."""
    e1, e2, e3 = exponents(p, alpha, beta)
    return canonical(p, e1), canonical(p, e2), canonical(p, e3)


def is_hyp_type(c: RadiusClass) -> bool:
    """Whether some translate sorts to (0, 1, ..., n-2, d)."""
    # for n >= 2 the prefix holds 0, so only the translates with 0 can match
    n = c.n
    prefix = tuple(range(n - 1))
    return any(t[: n - 1] == prefix for t in _zero_translates(c.p, c.elems))


def interleavings(p: int, n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The chains p >= a1 >= b1 > a2 >= ... > b_{n-1} > a_n >= 1 as (alpha_lifts, beta_lifts).

    Adding to each entry the number of weak steps at or after it makes the
    chain strictly decreasing in [1, p + n - 1], so the chains are the
    (2n-1)-subsets of that range, taken in descending lexicographic order.
    Returns an iterator; (p, n) is checked when called, before the first chain.
    """
    _check_pn(p, n, least=2)
    weak = [n - 1 - (j + 1) // 2 for j in range(2 * n - 1)]
    chains = (tuple(map(sub, c, weak)) for c in itertools.combinations(range(p + n - 1, 0, -1), 2 * n - 1))
    return ((chain[0::2], chain[1::2]) for chain in chains)


def _xi_index(p: int, index: dict[tuple[int, ...], int], es: Sequence[int]) -> int:
    """Index in xi(p, n) of the class of es, with index as built by _hyp_orbits.

    AssertionError when es repeats an entry: no key of index does.
    """
    i = index.get(tuple(sorted((e - es[0]) % p for e in es)))
    if i is None:
        raise AssertionError(f"non-distinct exponent class {canonical(p, es)} from chain")
    return i


@lru_cache(maxsize=None, typed=True)
def _hyp_orbits(p: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """The radii triples of the full-solution chains as sorted index triples
    i <= j <= l into xi(p, n), one per S3 orbit, in increasing order.

    Every sorted translate with 0 of every class of xi(p, n) is mapped to the
    index of its class, and a component, translated by its first entry and
    sorted, is one of those keys exactly when its entries are distinct.  alpha
    runs over the descending n-subsets of [1, p] and beta over the ranges
    a_i >= b_i > a_{i+1}.  e3 is resolved once per alpha, e1 up front for
    every (n-1)-subset of [2, p] (each is in a chain: a_1 = p, a_{i+1} =
    b_{i+1}, a_n = 1), and e2 at the first chain with its (sum(beta) -
    sum(alpha)) mod p.  A miss (a repeated entry) raises AssertionError.
    """
    _check_pn(p, n, least=2)
    index = {t: i for i, c in enumerate(xi(p, n)) for t in _zero_translates(p, c.elems)}
    subsets = itertools.combinations(range(p, 1, -1), n - 1)
    e1 = {beta: (_xi_index(p, index, (0, *((1 - b) % p for b in beta))), sum(beta)) for beta in subsets}
    e2: dict[int, int] = {}
    orbits = set()
    for alpha in itertools.combinations(range(p, 0, -1), n):
        i, s = _xi_index(p, index, alpha), sum(alpha)
        gaps = [range(a, b, -1) for a, b in zip(alpha, alpha[1:])]
        for j, t in map(e1.__getitem__, itertools.product(*gaps)):
            d = (t - s) % p
            h = e2.get(d)
            if h is None:
                h = e2[d] = _xi_index(p, index, (*range(n - 1), d))
            orbits.add(tuple(sorted((j, h, i))))
    return tuple(sorted(orbits))


def hyp_set(p: int, n: int) -> frozenset[Triple]:
    """Every permutation of every radii triple of a full-solution parameter tuple.

    Built from the cached index orbits of the alpha/beta walk (_hyp_orbits),
    each permuted once; the class triples themselves are not cached.  A chain
    with a repeated entry in some component raises AssertionError.
    """
    # the orbits first, so that their check, not xi's, refuses n
    orbits = _hyp_orbits(p, n)
    classes = xi(p, n)
    return frozenset(itertools.chain.from_iterable(itertools.permutations([classes[i] for i in t]) for t in orbits))
