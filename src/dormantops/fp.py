"""Exact arithmetic helpers for odd prime moduli.

A residue is a plain int in {0, ..., p-1}; the canonical lift of a residue is
the unique representative in {1, ..., p}, so 0 lifts to p.  Parameters outside
the prime field are opaque Generic tokens, the only wrapped parameter: tokens
with different names never coincide and never cancel against residues.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "Generic",
    "Parameter",
    "PRIME_TEST_BOUND",
    "is_odd_prime",
    "check_odd_prime",
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


def _check_int(x: int, name: str) -> int:
    """x when it is an int and not a bool; otherwise TypeError naming the argument."""
    if type(x) is not int:
        raise TypeError(f"{name} must be an int, got {x!r}")
    return x


def check_odd_prime(p: int) -> int:
    if not is_odd_prime(_check_int(p, "p")):
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


class Generic(_Frozen):
    """Opaque scalar outside the prime field, identified by its token name."""

    __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise ValueError("Generic token needs a nonempty name")
        object.__setattr__(self, "name", name)


Parameter = int | Generic
