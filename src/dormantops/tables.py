"""Loaders for the embedded reference tables.

published_tables.json holds, per (p, n), the reference list of radii classes
("xi") and every ordered triple with a nonzero three-point count ("counts",
entries {"triple", "N"}).  base_overrides.json holds the default base-table
override entries (rule 4).
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from importlib import resources

from .radii import RadiusClass, canonical

__all__ = [
    "published_pairs",
    "published_xi",
    "published_counts",
    "load_overrides",
    "default_overrides",
]

Triple = tuple[RadiusClass, RadiusClass, RadiusClass]


@lru_cache(maxsize=None)
def _records() -> dict[tuple[int, int], dict]:
    """The parsed records by (p, n), read once; callers must not mutate them."""
    text = resources.files("dormantops.data").joinpath("published_tables.json").read_text()
    return {(r["p"], r["n"]): r for r in json.loads(text)["tables"]}


def published_pairs() -> list[tuple[int, int]]:
    return sorted(_records())


def published_xi(p: int, n: int) -> tuple[RadiusClass, ...]:
    rec = _records()[(p, n)]
    return tuple(canonical(p, e) for e in rec["xi"])


def published_counts(p: int, n: int) -> dict[Triple, int]:
    """Reference map triple -> N, with zero entries omitted."""
    return {
        tuple(canonical(p, e) for e in entry["triple"]): entry["N"]
        for entry in _records()[(p, n)]["counts"]
    }


def load_overrides(entries) -> dict[tuple[int, int, Triple], tuple[int, str]]:
    """Normalize override records, closing each entry under S_3.

    Accepts parsed JSON entries {"p", "n", "triple", "N", "source"}.  A
    malformed record or a value conflict inside one orbit is a ValueError.
    """
    if not isinstance(entries, list):
        raise ValueError(f"override data must be a list of records, got {type(entries).__name__}")
    out: dict[tuple[int, int, Triple], tuple[int, str]] = {}
    for e in entries:
        try:
            p, n, val = e["p"], e["n"], e["N"]
            if type(val) is not int or val < 0:  # bool is an int subclass
                raise ValueError(f"override value must be a nonnegative integer, got {val!r}")
            t = tuple(canonical(p, x) for x in e["triple"])
            if len(t) != 3 or any(c.n != n for c in t):
                raise ValueError(f"override triple does not fit (p,n)=({p},{n})")
        except KeyError as ex:
            raise ValueError(f"override record {e!r} has no key {ex}") from None
        except (TypeError, ValueError) as ex:
            raise ValueError(f"bad override record {e!r}: {ex}") from None
        source = e.get("source", "override")
        for perm in itertools.permutations(t):
            key = (p, n, perm)
            if key in out and out[key][0] != val:
                raise ValueError(f"conflicting override values for {perm}")
            out[key] = (val, source)
    return out


def default_overrides() -> dict[tuple[int, int, Triple], tuple[int, str]]:
    text = resources.files("dormantops.data").joinpath("base_overrides.json").read_text()
    return load_overrides(json.loads(text))
