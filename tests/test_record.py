"""The package's value classes: immutable slotted records on one base.

Each record compares, hashes and prints by its fields, within its own
class only; assignment and deletion raise ``AttributeError``; pickling and
copying rebuild an equal record. The ``repr`` strings are those the
classes printed as frozen dataclasses.
"""

import copy
import pickle

import pytest

from dfca.cli import CliResult
from dfca.context import AttributeImplication
from dfca.formula import (
    And,
    Atom,
    Bot,
    Conditional,
    Iff,
    Implies,
    Not,
    Or,
    PropConditional,
    Top,
)
from dfca.propositional import BaseRankResult
from dfca.ranking import PreferenceComparison
from dfca.record import Record

a, b = Atom("a"), Atom("b")
ab = PropConditional(a, b)
not_a = PropConditional.assertion(a)

# one record of each class, and its repr
SAMPLES = [
    (Top(), "Top()"),
    (Bot(), "Bot()"),
    (a, "Atom(name='a')"),
    (Not(a), "Not(operand=Atom(name='a'))"),
    (And(a, b), "And(left=Atom(name='a'), right=Atom(name='b'))"),
    (Or(a, Top()), "Or(left=Atom(name='a'), right=Top())"),
    (
        Implies(Not(a), b),
        "Implies(left=Not(operand=Atom(name='a')), right=Atom(name='b'))",
    ),
    (Iff(a, Bot()), "Iff(left=Atom(name='a'), right=Bot())"),
    (
        Conditional(Or(a, b), a, "classical"),
        "Conditional(antecedent=Or(left=Atom(name='a'), right=Atom(name='b')), "
        "consequent=Atom(name='a'), kind='classical')",
    ),
    (
        ab,
        "PropConditional(antecedent=Atom(name='a'), consequent=Atom(name='b'), "
        "kind='defeasible')",
    ),
    (AttributeImplication(1, 6), "AttributeImplication(premise=1, conclusion=6)"),
    (PreferenceComparison(True, False), "PreferenceComparison(le=True, ge=False)"),
    (
        BaseRankResult(((ab,),), (not_a,)),
        "BaseRankResult(strata=((PropConditional(antecedent=Atom(name='a'), "
        "consequent=Atom(name='b'), kind='defeasible'),),), "
        "infinite=(PropConditional(antecedent=Not(operand=Atom(name='a')), "
        "consequent=Bot(), kind='classical'),))",
    ),
    (CliResult(2, "error: x"), "CliResult(exit_code=2, text='error: x', data=None)"),
]
RECORDS = [record for record, _ in SAMPLES]


def ids(record):
    return type(record).__name__


def rebuilt(record):
    """An equal record built anew from the field values."""
    return type(record)(*(getattr(record, name) for name in record._fields))


def test_every_record_class_has_a_sample():
    classes = {type(record) for record in RECORDS}
    assert len(classes) == len(RECORDS)
    assert all(issubclass(cls, Record) for cls in classes)


@pytest.mark.parametrize("record, text", SAMPLES, ids=[ids(r) for r in RECORDS])
def test_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", RECORDS, ids=ids)
class TestRecords:
    def test_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")

    def test_assignment_and_deletion_raise(self, record):
        for name in record._fields + ("other",):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
        for name in record._fields:
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
            assert hasattr(record, name)

    def test_pickle_and_copies_round_trip(self, record):
        hash(record)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(record, protocol))
            assert type(again) is type(record) and again == record
        for again in (copy.copy(record), copy.deepcopy(record)):
            assert type(again) is type(record) and again == record
            assert hash(again) == hash(record)

    def test_equal_records_hash_alike(self, record):
        again = rebuilt(record)
        assert again == record and not again != record
        assert hash(again) == hash(record)
        assert len({record, again}) == 1

    def test_records_of_other_classes_differ(self, record):
        for other in RECORDS:
            if type(other) is not type(record):
                assert record != other and other != record
        assert record != tuple(getattr(record, name) for name in record._fields)


@pytest.mark.parametrize(
    "classes, fields",
    [
        ((And, Or, Implies, Iff), (a, b)),
        ((Conditional, PropConditional), (a, b, "defeasible")),
        ((Top, Bot), ()),
    ],
)
def test_same_fields_in_another_class_compare_unequal(classes, fields):
    records = [cls(*fields) for cls in classes]
    assert len(set(records)) == len(records)
    for one in records:
        for other in records:
            assert (one == other) == (one is other)


def test_a_field_of_another_value_compares_unequal():
    assert And(a, b) != And(a, a) and And(a, b) != And(b, b)
    assert Conditional(a, b) != Conditional(a, b, "classical")
    assert CliResult(0, "x") != CliResult(0, "x", {})
    assert PreferenceComparison(True, True) != PreferenceComparison(True, False)


def test_keywords_and_defaults_name_the_fields():
    assert PreferenceComparison(ge=False, le=True) == PreferenceComparison(True, False)
    assert CliResult(exit_code=0, text="") == CliResult(0, "", None)
    assert Conditional(consequent=b, antecedent=a) == Conditional(a, b, "defeasible")
    assert And._fields == ("left", "right") == And.__match_args__


def test_a_node_keeps_its_hash():
    node = And(Not(a), Or(a, b))
    # each node is hashed when built, from its class tag and its
    # children's kept hashes
    assert node._hash == hash(("And", node.left._hash, node.right._hash))
    assert node.left._hash == hash((a._hash,))
    assert a._hash == hash("a")
    assert Top()._hash == hash(("Top",))
    assert hash(node) == node._hash
    assert hash(node.right) == node.right._hash
    # the kept hash is no field: copies are rebuilt by __init__ and agree
    assert node._fields == ("left", "right")
    assert hash(copy.deepcopy(node)) == node._hash


def test_connectives_and_constants_hash_apart():
    """Nodes of different classes over the same operands are unequal, so a
    set or dict holding several should not have to tell them apart by
    ``__eq__`` in one bucket."""
    nodes = [cls(a, b) for cls in (And, Or, Implies, Iff)] + [Top(), Bot()]
    assert len(set(map(hash, nodes))) == len(nodes)


def test_a_record_class_declares_its_slots():
    with pytest.raises(TypeError, match="record class Loose declares no __slots__"):

        class Loose(Record):
            pass
