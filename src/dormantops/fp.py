"""Exact arithmetic helpers for odd prime moduli.

Residues live in {0, ..., p-1}; the canonical lift of a residue is the unique
representative in {1, ..., p}, so 0 lifts to p.  Parameters outside the prime
field are opaque Generic tokens: tokens with different names never coincide
and never cancel against field elements.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

__all__ = [
    "FpElem",
    "Generic",
    "Parameter",
    "PRIME_TEST_BOUND",
    "is_odd_prime",
    "check_odd_prime",
    "lift",
    "sort_params",
]


# Miller-Rabin on the 13 primes up to 41 decides primality for every
# n < PRIME_TEST_BOUND (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", 2015); the bound itself is the least strong pseudoprime to all
# 13 bases, so from it on no answer is given.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


# bounded: verlinde's residue-prime walk tries many composites near 2^80
@lru_cache(maxsize=1024)
def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for p >= PRIME_TEST_BOUND."""
    if p < 3 or p % 2 == 0:
        return False
    if p >= PRIME_TEST_BOUND:
        raise ValueError(
            f"cannot decide whether {p} is prime: the primality test covers p < PRIME_TEST_BOUND = {PRIME_TEST_BOUND}"
        )
    if p in _WITNESSES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_odd_prime(p: int) -> int:
    if not isinstance(p, int) or not is_odd_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p!r}")
    return p


class _Record:
    """Equality and repr over the fields named in __match_args__.

    A record equals only an instance of its own class with equal fields, and
    reads as Name(field=value, ...).  Records are unhashable.
    """

    __match_args__: tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


class _Frozen(_Record):
    """A record that hashes its field tuple and refuses assignment and deletion.

    Constructors set the fields past __setattr__: with object.__setattr__, or
    straight into the instance dict.
    """

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class FpElem(_Frozen):
    """A residue value in {0, ..., p-1} for an odd prime p."""

    __match_args__ = ("value", "p")

    def __init__(self, value: int, p: int) -> None:
        check_odd_prime(p)
        if not isinstance(value, int) or not 0 <= value < p:
            raise ValueError(f"residue {value!r} out of range for p={p}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "p", p)

    @classmethod
    def reduce(cls, n: int, p: int) -> "FpElem":
        check_odd_prime(p)
        return cls(n % p, p)

    def lift(self) -> int:
        """Canonical lift: the congruent integer in {1, ..., p}."""
        return self.value if self.value != 0 else self.p


class Generic(_Frozen):
    """Opaque scalar outside the prime field, identified by its token name."""

    __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise ValueError("Generic token needs a nonempty name")
        object.__setattr__(self, "name", name)


Parameter = FpElem | Generic


def lift(x: FpElem) -> int:
    """Canonical lift of a residue, in {1, ..., p}."""
    return x.lift()


def sort_params(params: Iterable[Parameter], p: int) -> tuple[list[int], int]:
    """Split parameters into weakly decreasing canonical lifts plus a generic count.

    Every field element must carry modulus p.  Generic tokens are counted, not
    lifted.
    """
    check_odd_prime(p)
    lifts: list[int] = []
    generics = 0
    for q in params:
        if isinstance(q, Generic):
            generics += 1
        elif isinstance(q, FpElem):
            if q.p != p:
                raise ValueError(f"parameter modulus {q.p} does not match p={p}")
            lifts.append(q.lift())
        else:
            raise TypeError(f"not a parameter: {q!r}")
    lifts.sort(reverse=True)
    return lifts, generics
