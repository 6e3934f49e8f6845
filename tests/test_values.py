"""The value classes: construction, equality, hashing, repr, immutability,
ordering and copying, pinned for all six."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import dormantops
from dormantops import hyperg
from dormantops.fp import Generic
from dormantops.fusion import AxiomReport, AxiomResult, Cobordism, FusionEngine
from dormantops.hyperg import HGOperator, new_operator
from dormantops.radii import RadiusClass

# one instance per class, its field names, its field values and its repr
CASES = [
    (Generic("t"), ("name",), ("t",), "Generic(name='t')"),
    (
        new_operator(7, (1, Generic("t")), (3,)),
        ("p", "alpha", "beta"),
        (7, (1, Generic("t")), (3,)),
        "HGOperator(p=7, alpha=(1, Generic(name='t')), beta=(3,))",
    ),
    (RadiusClass(7, (0, 1, 3)), ("p", "elems"), (7, (0, 1, 3)), "RadiusClass(p=7, elems=(0, 1, 3))"),
    (Cobordism(1, 2, 0), ("genus", "n_in", "n_out"), (1, 2, 0), "Cobordism(genus=1, n_in=2, n_out=0)"),
    (
        AxiomResult("unit", False, "e * 1 != e"),
        ("name", "passed", "witness"),
        ("unit", False, "e * 1 != e"),
        "AxiomResult(name='unit', passed=False, witness='e * 1 != e')",
    ),
    (
        AxiomReport(5, 2, [AxiomResult("unit", True)]),
        ("p", "n", "results"),
        (5, 2, [AxiomResult("unit", True)]),
        "AxiomReport(p=5, n=2, results=[AxiomResult(name='unit', passed=True, witness=None)])",
    ),
]
# one more instance per class, unequal to the one in CASES in its last field
OTHERS = {
    Generic: Generic("u"),
    HGOperator: new_operator(7, (1, Generic("t")), (4,)),
    RadiusClass: RadiusClass(7, (0, 1, 4)),
    Cobordism: Cobordism(1, 2, 1),
    AxiomResult: AxiomResult("unit", False, None),
    AxiomReport: AxiomReport(5, 2),
}
IDS = [type(case[0]).__name__ for case in CASES]
FROZEN = CASES[:4]
FROZEN_IDS = IDS[:4]


@pytest.mark.parametrize("obj, names, values, text", CASES, ids=IDS)
def test_fields_construction_and_repr(obj, names, values, text):
    cls = type(obj)
    assert cls.__match_args__ == names
    assert tuple(getattr(obj, f) for f in names) == values
    assert cls(*values) == obj
    assert cls(**dict(zip(names, values))) == obj
    assert repr(obj) == text


@pytest.mark.parametrize("obj, names, values, text", CASES, ids=IDS)
def test_equality_holds_only_within_the_class(obj, names, values, text):
    cls = type(obj)
    twin = cls(*values)
    assert twin == obj and not twin != obj
    assert OTHERS[cls] != obj and obj != OTHERS[cls]
    subclass = type("Sub", (cls,), {})
    for foreign in (subclass(*values), values, values[0], object(), None):
        assert obj.__eq__(foreign) is NotImplemented
        assert obj != foreign


@pytest.mark.parametrize("obj, names, values, text", FROZEN, ids=FROZEN_IDS)
def test_frozen_classes_hash_their_field_tuple(obj, names, values, text):
    assert hash(obj) == hash(values)
    assert hash(type(obj)(*values)) == hash(obj)


@pytest.mark.parametrize("obj", [CASES[4][0], CASES[5][0]], ids=IDS[4:])
def test_axiom_classes_are_unhashable(obj):
    assert type(obj).__hash__ is None
    with pytest.raises(TypeError, match="unhashable"):
        hash(obj)


@pytest.mark.parametrize("obj, names, values, text", FROZEN, ids=FROZEN_IDS)
def test_frozen_classes_refuse_assignment_and_deletion(obj, names, values, text):
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    assert tuple(getattr(obj, f) for f in names) == values


def test_axiom_classes_are_mutable():
    result = AxiomResult("unit", True)
    result.passed = False
    assert result == AxiomResult("unit", False, None)
    report = AxiomReport(p=5, n=2)
    report.results.append(result)
    assert report.results == [result]
    assert not report.passed


def test_axiom_report_lists_are_not_shared():
    a, b = AxiomReport(p=5, n=2), AxiomReport(5, 2)
    a.results.append(AxiomResult("unit", True))
    assert b.results == [] and a.results is not b.results
    assert AxiomReport(p=5, n=2).results == []
    assert AxiomResult(name="unit", passed=True).witness is None


def test_radius_classes_order_by_p_then_elems():
    small, large, wider = RadiusClass(7, (0, 1, 3)), RadiusClass(7, (0, 1, 4)), RadiusClass(11, (0, 1))
    assert small < large < wider and small <= small and large <= wider
    assert wider > large > small and small >= small and wider >= small
    assert not (large < small or small > large or large <= small or small >= large)
    assert sorted([wider, large, small]) == [small, large, wider]
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(small, op)((7, (0, 1, 3))) is NotImplemented
    with pytest.raises(TypeError):
        small < (7, (0, 1, 3))


def test_match_statement_reads_the_fields():
    match RadiusClass(7, (0, 1, 3)):
        case RadiusClass(p, elems):
            assert (p, elems) == (7, (0, 1, 3))
        case _:
            pytest.fail("no match")


def _round_trips(obj):
    return [copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))]


@pytest.mark.parametrize("obj, names, values, text", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(obj, names, values, text):
    for clone in _round_trips(obj):
        assert type(clone) is type(obj) and clone == obj and repr(clone) == text
        if type(obj).__hash__ is not None:
            assert hash(clone) == hash(obj)


def test_operator_copies_keep_their_caches():
    op = new_operator(7, (6, 4, 2), (5, 3))
    echelon = op._row_echelon
    for clone in _round_trips(op):
        assert clone == op and clone.__dict__.keys() == op.__dict__.keys()
        assert clone._row_echelon == echelon
    assert copy.copy(op)._row_echelon is echelon


def test_pickled_radius_class_keeps_its_hash():
    c = RadiusClass._from_lexmin(7, (0, 1, 3))
    clone = pickle.loads(pickle.dumps(c))
    assert clone._hash == c._hash == hash((7, (0, 1, 3)))
    assert {clone: 1}[RadiusClass(7, (0, 1, 3))] == 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: new_operator(9, (1,), (1,)), "modulus must be an odd prime, got 9"),
        (lambda: Generic(""), "Generic token needs a nonempty name"),
        (lambda: Generic(3), "Generic token needs a nonempty name"),
        (lambda: RadiusClass(7, (1, 2)), "(1, 2) is not the canonical translate"),
        (lambda: RadiusClass(7, ()), "class size must satisfy 1 <= n < p, got n=0, p=7"),
        (lambda: RadiusClass(7, (0, 7)), "entries out of range for p=7: (0, 7)"),
        (lambda: RadiusClass(4, (0, 1)), "modulus must be an odd prime, got 4"),
        (lambda: Cobordism(0, -1, 2), "genus and boundary counts must be nonnegative"),
        # a count that is not an int is refused by its type, naming the argument
        pytest.param(lambda: Cobordism(1.5, 0, 0), TypeError("genus must be an int, got 1.5"), id="float-genus"),
        pytest.param(lambda: Cobordism(True, 0, 0), TypeError("genus must be an int, got True"), id="bool-genus"),
        pytest.param(lambda: Cobordism(0, 1.0, -1), TypeError("n_in must be an int, got 1.0"), id="float-n_in"),
    ],
)
def test_validation_messages(build, message):
    # a bare message is a ValueError's
    want = message if isinstance(message, TypeError) else ValueError(message)
    with pytest.raises(type(want)) as err:
        build()
    assert type(err.value) is type(want) and str(err.value) == str(want)


@pytest.mark.parametrize(
    "owner, name",
    [(dormantops, "pcurvature_sum_test"), (hyperg, "pcurvature_sum_test"), (RadiusClass, "to_json"), (RadiusClass, "from_json"),
     (HGOperator, "fp_lifts"), (HGOperator, "_lifts")]
    # the engine's copies of its table's p, n and dual_perm, looked for on an instance
    + [pytest.param(FusionEngine(7, 3), name, id=f"FusionEngine-{name}") for name in ("p", "n", "dual_perm")],
)
def test_removed_public_names_stay_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__all__", ())


def test_the_import_loads_only_what_every_command_needs():
    """A CLI call pays for every module the library imports at start.

    The embedded tables and --json output import importlib.resources and json
    when first used.  Under -S, site preloads nothing, so a module the library
    itself imports cannot hide.
    """
    src = Path(dormantops.__file__).resolve().parents[1]
    code = (
        "import sys; before = set(sys.modules); import dormantops, dormantops.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    for flags in ([], ["-S"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "dormantops.cli" in loaded
        forbidden = {"dataclasses", "inspect", "importlib.resources", "fractions", "decimal", "json", "typing"}
        assert not forbidden & loaded, flags


_VERIFY_P7 = """\
n=2 xi-list: ok
n=2 count-table: ok
n=2 axioms: ok
n=2 genus-1: ok
n=2 genus-2: ok
n=3 xi-list: ok
n=3 count-table: ok
n=3 axioms: ok
n=3 genus-1: ok
n=3 genus-2: ok
n=3 genus-2 polynomial: ok
n=4 xi-list: ok
n=4 count-table: ok
n=4 axioms: ok
n=4 genus-1: ok
n=4 genus-2 (outside validity window): ok
n=5 xi-list: ok
n=5 count-table: ok
n=5 axioms: ok
n=5 genus-1: ok
n=5 genus-2 (outside validity window): ok
n=6 xi-list: ok
n=6 count-table: ok
n=6 axioms: ok
n=6 genus-1: ok
n=6 genus-2 (outside validity window): ok
PASS
"""


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["verlinde", "--p", "17", "--n", "8", "--g", "2"], "count = 2383152634054\n"),
        (["verify", "--p", "7"], _VERIFY_P7),
    ],
    ids=["verlinde", "verify"],
)
def test_the_closed_form_count_loads_no_fractions(argv, stdout):
    """verlinde_sum and poly_n3_g2 return ints, so neither command imports fractions."""
    src = Path(dormantops.__file__).resolve().parents[1]
    code = (
        "import sys; from dormantops.cli import main; before = set(sys.modules); "
        f"main({argv!r}); "
        "print(*sorted(set(sys.modules) - before), file=sys.stderr)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout
    loaded = proc.stderr.split()
    assert "fractions" not in loaded and "decimal" not in loaded
