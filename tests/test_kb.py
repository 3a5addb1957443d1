"""Knowledge base parsing, validation, closures, and reduction."""

import pytest

from fqninfer import KbError, KnowledgeBase, dump_kb, load_kb
from fqninfer.kb import (
    TypeEntry,
    UnknownTypeError,
    collect_candidate_types,
    field_in_knowledge,
    method_in_knowledge,
    reduce_kb,
    supertype_closure,
)
from fqninfer.stat import CandidateList

MINI = """\
# mini knowledge base used across these tests
type com.acme.ui.Widget class lib=acme
method com.acme.ui.Widget setTitle/1 returns=?
method com.acme.ui.Widget getTitle/0 returns=com.acme.ui.Title

type com.acme.ui.Panel class lib=acme extends=com.acme.ui.Widget
method com.acme.ui.Panel open/0 static returns=com.acme.ui.Panel
field com.acme.ui.Panel MARGIN static type=?

type com.acme.ui.Title class lib=acme

type org.rival.Panel interface lib=rival
method org.rival.Panel open/0 returns=?

type com.acme.ext.Widget class lib=acmex external-super=com.vendor.Base
"""


def _load_text(tmp_path, text):
    path = tmp_path / "test.kb"
    path.write_text(text, encoding="utf-8")
    return load_kb(path)


def test_load_basic_entries(tmp_path):
    kb = _load_text(tmp_path, MINI)
    assert len(kb) == 5
    widget = kb.entries.get("com.acme.ui.Widget")
    assert widget is not None
    assert widget.kind == "class"
    assert widget.library == "acme"
    assert widget.simple_name == "Widget"


def test_find_method_discriminates_on_arity(tmp_path):
    kb = _load_text(tmp_path, MINI)
    widget = kb.entries["com.acme.ui.Widget"]
    assert widget.find_method("setTitle", 1) is not None
    assert widget.find_method("setTitle", 0) is None
    assert widget.find_method("setTitle", 1).return_fqn is None  # returns=?
    assert widget.find_method("getTitle", 0).return_fqn == "com.acme.ui.Title"


def test_static_flags_parsed(tmp_path):
    kb = _load_text(tmp_path, MINI)
    panel = kb.entries["com.acme.ui.Panel"]
    assert panel.find_method("open", 0).is_static
    assert panel.find_field("MARGIN").is_static
    assert panel.find_field("MARGIN").type_fqn is None
    assert panel.find_field("absent") is None


def test_extends_becomes_supertype_edge(tmp_path):
    kb = _load_text(tmp_path, MINI)
    panel = kb.entries["com.acme.ui.Panel"]
    assert panel.supertypes == frozenset({"com.acme.ui.Widget"})


def test_external_supertypes_kept_but_not_validated(tmp_path):
    kb = _load_text(tmp_path, MINI)
    ext = kb.entries["com.acme.ext.Widget"]
    assert ext.external_supertypes == frozenset({"com.vendor.Base"})
    # external names never enter the closure
    assert supertype_closure(kb, "com.acme.ext.Widget") == ("com.acme.ext.Widget",)


def test_candidates_for_is_sorted(tmp_path):
    kb = _load_text(tmp_path, MINI)
    assert kb.candidates_for("Panel") == ("com.acme.ui.Panel", "org.rival.Panel")
    assert kb.candidates_for("Widget") == (
        "com.acme.ext.Widget",
        "com.acme.ui.Widget",
    )
    assert kb.candidates_for("Nothing") == ()


def test_libraries_sorted_unique(tmp_path):
    kb = _load_text(tmp_path, MINI)
    assert kb.libraries == ("acme", "acmex", "rival")


def test_contains_and_get(tmp_path):
    kb = _load_text(tmp_path, MINI)
    assert "org.rival.Panel" in kb
    assert "org.rival.Missing" not in kb
    assert kb.entries.get("org.rival.Missing") is None


def test_duplicate_type_rejected(tmp_path):
    text = MINI + "type com.acme.ui.Widget class lib=acme\n"
    with pytest.raises(KbError, match="duplicate type"):
        _load_text(tmp_path, text)


def test_unknown_record_kind_rejected(tmp_path):
    with pytest.raises(KbError, match="unknown record kind"):
        _load_text(tmp_path, "banana com.acme.X class lib=a\n")


def test_bad_kind_rejected(tmp_path):
    with pytest.raises(KbError, match="bad kind"):
        _load_text(tmp_path, "type com.acme.X enum lib=a\n")


def test_member_without_type_record_rejected(tmp_path):
    with pytest.raises(KbError, match="has no type record"):
        _load_text(tmp_path, "method com.acme.Ghost frob/0\n")


def test_error_carries_line_number(tmp_path):
    text = "type com.a.X class lib=a\nbogus line here\n"
    with pytest.raises(KbError, match="test.kb:2: unknown record kind 'bogus'"):
        _load_text(tmp_path, text)


def test_conflicting_method_signatures_rejected(tmp_path):
    text = (
        "type com.a.X class lib=a\n"
        "method com.a.X run/0 returns=com.a.X\n"
        "method com.a.X run/0 static returns=?\n"
    )
    with pytest.raises(KbError, match="conflicting signatures"):
        _load_text(tmp_path, text)


def test_identical_method_records_merge(tmp_path):
    text = (
        "type com.a.X class lib=a\n"
        "method com.a.X run/0 returns=?\n"
        "method com.a.X run/0 returns=?\n"
    )
    kb = _load_text(tmp_path, text)
    assert len(kb.entries["com.a.X"].methods) == 1


def test_missing_lib_rejected(tmp_path):
    with pytest.raises(KbError, match="lib"):
        _load_text(tmp_path, "type com.a.X class extends=com.a.Y\n")


def test_unknown_attribute_rejected(tmp_path):
    with pytest.raises(KbError, match="unknown attributes"):
        _load_text(tmp_path, "type com.a.X class lib=a color=red\n")


def test_bad_arity_rejected(tmp_path):
    text = "type com.a.X class lib=a\nmethod com.a.X run/many\n"
    with pytest.raises(KbError, match="bad arity"):
        _load_text(tmp_path, text)


def test_internal_supertype_must_exist(tmp_path):
    text = "type com.a.X class lib=a extends=com.a.Missing\n"
    with pytest.raises(KbError, match="not in KB"):
        _load_text(tmp_path, text)


def test_comments_and_blanks_ignored(tmp_path):
    text = "\n# nothing\n\ntype com.a.X class lib=a\n\n# more\n"
    kb = _load_text(tmp_path, text)
    assert len(kb) == 1


def test_dump_round_trips(tmp_path):
    kb = _load_text(tmp_path, MINI)
    dumped = dump_kb(kb)
    path = tmp_path / "canon.kb"
    path.write_text(dumped, encoding="utf-8")
    again = load_kb(path)
    assert again == kb
    assert dump_kb(again) == dumped


def test_dump_always_spells_out_unknown_returns(tmp_path):
    kb = _load_text(tmp_path, MINI)
    dumped = dump_kb(kb)
    assert "method com.acme.ui.Widget setTitle/1 returns=?" in dumped
    assert "field com.acme.ui.Panel MARGIN static type=?" in dumped


def test_empty_kb_dump_is_empty_string():
    assert dump_kb(KnowledgeBase([])) == ""


def test_supertype_closure_self_first(tmp_path):
    kb = _load_text(tmp_path, MINI)
    assert supertype_closure(kb, "com.acme.ui.Panel") == (
        "com.acme.ui.Panel",
        "com.acme.ui.Widget",
    )
    assert supertype_closure(kb, "com.acme.ui.Widget") == ("com.acme.ui.Widget",)


def test_supertype_closure_tolerates_cycles(tmp_path):
    text = (
        "type com.a.A class lib=a extends=com.a.B\n"
        "type com.a.B class lib=a extends=com.a.A\n"
    )
    kb = _load_text(tmp_path, text)
    assert supertype_closure(kb, "com.a.A") == ("com.a.A", "com.a.B")


def test_supertype_closure_unknown_type(tmp_path):
    kb = _load_text(tmp_path, MINI)
    with pytest.raises(UnknownTypeError):
        supertype_closure(kb, "com.acme.ui.Nope")


def test_method_in_knowledge_walks_supertypes(tmp_path):
    kb = _load_text(tmp_path, MINI)
    m = method_in_knowledge(kb, "com.acme.ui.Panel", "setTitle", 1)
    assert m is not None and m.arity == 1
    assert method_in_knowledge(kb, "com.acme.ui.Panel", "setTitle", 2) is None


def test_method_in_knowledge_static_gate(tmp_path):
    kb = _load_text(tmp_path, MINI)
    assert method_in_knowledge(kb, "com.acme.ui.Panel", "open", 0, True) is not None
    assert method_in_knowledge(kb, "org.rival.Panel", "open", 0, True) is None
    assert method_in_knowledge(kb, "org.rival.Panel", "open", 0) is not None


def test_field_in_knowledge(tmp_path):
    kb = _load_text(tmp_path, MINI)
    assert field_in_knowledge(kb, "com.acme.ui.Panel", "MARGIN") is not None
    assert field_in_knowledge(kb, "com.acme.ui.Panel", "MARGIN", True) is not None
    assert field_in_knowledge(kb, "com.acme.ui.Widget", "MARGIN") is None


def test_collect_candidate_types_union():
    e1, e2, e3 = "el1", "el2", "el3"
    stat = {
        e1: CandidateList(("a.X", "b.X")),
        e2: CandidateList(("c.Y",)),
        e3: CandidateList(()),
    }
    typed = {e1: "e.X", e3: "a.X"}
    got = collect_candidate_types(stat, typed)
    assert got == frozenset({"a.X", "b.X", "c.Y", "e.X"})


def test_collect_candidate_types_empty():
    assert collect_candidate_types({}, {}) == frozenset()


def test_reduce_kb_keeps_closure_and_identity(tmp_path):
    kb = _load_text(tmp_path, MINI)
    mask = reduce_kb(kb, ["com.acme.ui.Panel"])
    assert mask == {"com.acme.ui.Panel", "com.acme.ui.Widget"}
    red = KnowledgeBase(kb.entries[f] for f in mask)
    assert red.candidates_for("Panel") == ("com.acme.ui.Panel",)
    assert supertype_closure(red, "com.acme.ui.Panel") == supertype_closure(
        kb, "com.acme.ui.Panel"
    )


def test_reduce_kb_union_of_candidates(tmp_path):
    kb = _load_text(tmp_path, MINI)
    mask = reduce_kb(kb, ["org.rival.Panel", "com.acme.ui.Title"])
    assert mask == {"org.rival.Panel", "com.acme.ui.Title"}


def test_reduce_kb_unknown_candidate_raises(tmp_path):
    kb = _load_text(tmp_path, MINI)
    with pytest.raises(UnknownTypeError):
        reduce_kb(kb, ["com.acme.ui.Panel", "no.such.Type"])


def test_knowledge_base_equality(tmp_path):
    kb1 = _load_text(tmp_path, MINI)
    kb2 = _load_text(tmp_path, MINI)
    assert kb1 == kb2
    mask = reduce_kb(kb1, ["com.acme.ui.Title"])
    assert kb1 != KnowledgeBase(kb1.entries[f] for f in mask)


def test_member_lookups_are_memoised_per_kb(tmp_path, monkeypatch):
    kb = _load_text(tmp_path, MINI)
    queries = [
        (method_in_knowledge, ("com.acme.ui.Panel", "setTitle", 1)),
        (method_in_knowledge, ("org.rival.Panel", "open", 0, True)),
        (field_in_knowledge, ("com.acme.ui.Panel", "MARGIN", True)),
        (field_in_knowledge, ("com.acme.ui.Widget", "MARGIN")),
    ]
    first = [lookup(kb, *args) for lookup, args in queries]
    assert first[1] is None and first[3] is None
    # a second lookup, found or not, reads no entry again
    scans = []
    for attr in ("find_method", "find_field"):
        inner = getattr(TypeEntry, attr)
        monkeypatch.setattr(
            TypeEntry, attr, lambda self, *a, _f=inner: scans.append(a) or _f(self, *a)
        )
    assert [lookup(kb, *args) for lookup, args in queries] == first
    assert scans == []
    # another KB with the same entries answers afresh
    assert method_in_knowledge(_load_text(tmp_path, MINI), *queries[0][1]) == first[0]
    assert scans
    # an unknown type is an error every time, never a remembered None
    for _ in range(2):
        with pytest.raises(UnknownTypeError):
            method_in_knowledge(kb, "no.such.Type", "open", 0)


def test_duplicate_entries_rejected_at_construction():
    entry = TypeEntry(fqn="com.a.X", kind="class", library="a")
    with pytest.raises(KbError, match="duplicate"):
        KnowledgeBase([entry, entry])
