"""The record contract: every record of the package that neither caches nor
validates is a value tuple (`snippet._value_tuple`), equal only to its own
type and hashing as its field tuple; only `Snippet`, `RunConfig` and
`CooccurrenceModel` are dataclasses."""

import dataclasses
import importlib
import inspect
import pkgutil
from collections import namedtuple

import pytest

import fqninfer
from fqninfer.constraint import (
    ConstraintResult,
    Construction,
    DeclaredAssignment,
    FieldAccess,
    MemberCall,
    Supertype,
)
from fqninfer.orchestrator import CombinedElement, CombinedResult, RoundRecord
from fqninfer.scoring import Aggregate, CorpusItem, GroundTruth, SnippetScore
from fqninfer.snippet import (
    ApiElement,
    AugmentedSnippet,
    Header,
    SnippetStructure,
    tokenize,
)
from fqninfer.stat import CandidateList

_SN = tokenize("class A extends Label {\n  Label l = new Label();\n}\n")
_EL = ApiElement("Label", 2, 1, 9)
_TRUTH = GroundTruth("1", "lib", {"Label[2,1]": "a.Label"})
_CANDS = CandidateList(("a.Label", "b.Label"))
_TYPED = ConstraintResult({_EL: "a.Label"}, frozenset())
_COMBINED = CombinedElement(_EL, "a.Label", "constraint", "a.Label", ("a.Label",))

# each converted record with the fields of one instance; a record holding a
# dict or a mapping proxy is unhashable, as its field tuple is
RECORDS = [
    (Header, ("class", "A", 5, 20)),
    (SnippetStructure, tuple(_SN.structure)),
    (AugmentedSnippet, (_SN, _SN.lexemes)),
    (Construction, (_EL,)),
    (MemberCall, (_EL, (("run", 1),), True)),
    (FieldAccess, (_EL, "MODE", True)),
    (Supertype, (_EL, "class")),
    (DeclaredAssignment, (_EL, Construction(_EL))),
    (ConstraintResult, ({_EL: "a.Label"}, frozenset())),
    (RoundRecord, (1, _TYPED, {_EL: _CANDS}, 4)),
    (CombinedElement, (_EL, "a.Label", "constraint", "a.Label", ("a.Label",))),
    (CombinedResult, ({_EL: _COMBINED},)),
    (CandidateList, (("a.Label", "b.Label"),)),
    (GroundTruth, ("1", "lib", {"Label[2,1]": "a.Label"})),
    (CorpusItem, ("1", "lib", "lib/1.java", _SN, _TRUTH)),
    (SnippetScore, ("1", "lib", 1.0, 0.5, 2, 1, 2)),
    (Aggregate, (1.0, None, 3)),
]


@pytest.mark.parametrize("make, fields", RECORDS, ids=[m.__name__ for m, _ in RECORDS])
def test_record_is_a_value_equal_only_to_its_own_type(make, fields):
    record = make(*fields)
    assert record == make(*fields)
    assert not record != make(*fields)
    # a plain tuple of the same fields is unequal from either side
    assert record != tuple(fields)
    assert tuple(fields) != record
    assert not record == tuple(fields)
    # and so is another named tuple type of the same name and fields
    assert record != namedtuple(make.__name__, make._fields)(*fields)
    try:
        want = hash(tuple(fields))
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == want
    with pytest.raises(AttributeError):
        setattr(record, make._fields[0], fields[0])
    assert repr(record).startswith(f"{make.__name__}({make._fields[0]}=")


def _package_classes():
    for info in pkgutil.iter_modules(fqninfer.__path__):
        module = importlib.import_module(f"fqninfer.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield obj


def test_only_caching_and_validating_records_are_dataclasses():
    classes = list(_package_classes())
    dataclass_names = {cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)}
    assert dataclass_names == {"Snippet", "RunConfig", "CooccurrenceModel"}
    tuples = {cls for cls in classes if issubclass(cls, tuple)}
    kb_records = {"ApiElement", "MethodSig", "FieldSig", "TypeEntry"}
    assert {cls.__name__ for cls in tuples} == {m.__name__ for m, _ in RECORDS} | kb_records
    for cls in tuples:
        assert cls.__hash__ is tuple.__hash__, cls
        assert cls.__eq__ is not tuple.__eq__, cls
