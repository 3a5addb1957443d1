"""Knowledge base parsing, validation, closures, and reduction."""

import pytest

from fqninfer import KbError, KnowledgeBase, dump_kb, load_kb
from fqninfer.kb import (
    FieldSig,
    MethodSig,
    TypeEntry,
    UnknownTypeError,
    field_in_knowledge,
    method_in_knowledge,
    reduce_kb,
    supertype_closure,
)

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
    assert kb.candidates_for("Widget") == ("com.acme.ext.Widget", "com.acme.ui.Widget")


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


def test_records_end_at_newline_only(tmp_path):
    # a form feed is a blank inside a record, as split() reads it, not the
    # end of one
    kb = _load_text(tmp_path, "type a.B class\x0clib=x\n")
    assert kb.entries["a.B"].library == "x"
    # so a line holding only a form feed is one blank line, and the lines
    # after it keep the numbers that the not-UTF-8 error counts
    text = "type a.B class lib=x\n\x0c\nbogus line\n"
    with pytest.raises(KbError, match="test.kb:3: unknown record kind 'bogus'"):
        _load_text(tmp_path, text)


@pytest.mark.parametrize(
    "make, fields",
    [
        (MethodSig, ("run", 1, True, "com.a.X")),
        (FieldSig, ("MODE", "com.a.X", True)),
        (
            TypeEntry,
            ("com.a.X", "class", "a", frozenset({MethodSig("run", 0)}),
             frozenset({FieldSig("MODE")}), frozenset({"com.a.Y"}), frozenset({"x.Z"})),
        ),
    ],
    ids=["method", "field", "entry"],
)
def test_signature_is_a_value_equal_only_to_its_own_type(make, fields):
    sig = make(*fields)
    assert sig == make(*fields)
    assert sig != make("other", *fields[1:])
    # a tuple, or the other signature type, with the same fields is not equal
    assert sig != tuple(fields)
    assert tuple(fields) != sig
    assert not sig == tuple(fields)
    other = FieldSig if make is MethodSig else MethodSig
    assert sig != tuple.__new__(other, fields)
    assert hash(sig) == hash(tuple(fields))
    with pytest.raises(AttributeError):
        setattr(sig, make._fields[0], "x")
    assert repr(sig).startswith(f"{make.__name__}({make._fields[0]}=")


def test_conflicting_method_signatures_rejected(tmp_path):
    text = (
        "type com.a.X class lib=a\n"
        "method com.a.X run/0 returns=com.a.X\n"
        "method com.a.X run/0 static returns=?\n"
    )
    with pytest.raises(KbError, match="conflicting signatures"):
        _load_text(tmp_path, text)


def test_conflicting_fields_rejected(tmp_path):
    # which of the two a lookup met first followed string hashing
    text = (
        "type p.A class lib=p\n"
        "field p.A F type=p.A\n"
        "field p.A F static type=?\n"
    )
    with pytest.raises(KbError, match=r"test\.kb: p\.A: conflicting fields for F$"):
        _load_text(tmp_path, text)


def test_identical_field_records_merge(tmp_path):
    text = (
        "type p.A class lib=p\n"
        "field p.A F type=p.A\n"
        "field p.A F type=p.A\n"
    )
    kb = _load_text(tmp_path, text)
    assert field_in_knowledge(kb, "p.A", "F") == FieldSig("F", "p.A")


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


@pytest.mark.parametrize(
    "signature, message",
    [
        ("/0", "empty method name"),
        ("m/-1", "bad arity '-1'"),
        ("m/+2", "bad arity '+2'"),
        ("m/1_0", "bad arity '1_0'"),
        ("m/\u0661", "bad arity '\u0661'"),
        ("m/\uff11", "bad arity '\uff11'"),
    ],
    ids=["empty-name", "minus", "plus", "underscore", "arabic-indic-digit",
         "fullwidth-digit"],
)
def test_bad_method_name_or_arity_rejected_at_its_line(tmp_path, signature, message):
    # int() reads each of these arities as a number, which dump_kb would
    # write back as different text (or, for -1, a method no call matches);
    # an empty name would load and then fail kb-build's dump
    path = tmp_path / "k.kb"
    path.write_text(
        f"type a.X class lib=l1\nmethod a.X {signature} returns=?\n", encoding="utf-8"
    )
    with pytest.raises(KbError) as info:
        load_kb(path)
    assert str(info.value) == f"{path}:2: {message}"


def test_loaded_entries_are_what_the_constructor_builds(tmp_path):
    # load_kb builds each entry with tuple.__new__, past TypeEntry's
    # constructor, so it must hold every field, in declaration order, as
    # the constructor's entry does
    kb = _load_text(tmp_path, MINI)
    assert TypeEntry._fields == (
        "fqn", "kind", "library", "methods", "fields", "supertypes",
        "external_supertypes",
    )
    for e in kb.entries.values():
        built = TypeEntry(*e)
        assert type(e) is TypeEntry
        assert e == built and hash(e) == hash(built)
        assert all(type(v) is frozenset for v in e[3:])


def test_arity_beyond_the_table_of_small_ints_loads_as_its_int(tmp_path):
    # an arity of any size is read by the digit check and int()
    text = "type a.X class lib=l1\nmethod a.X m/300 returns=?\nmethod a.X n/007 returns=?\n"
    kb = _load_text(tmp_path, text)
    arities = sorted((m.name, m.arity) for m in kb.entries["a.X"].methods)
    assert arities == [("m", 300), ("n", 7)]
    assert _load_text(tmp_path, dump_kb(kb)) == kb


@pytest.mark.parametrize(
    "record",
    [
        "type a.X class lib=",
        "type a.X class lib= extends=a.Y",
        "type a.X class implements=a.Y lib=",
    ],
    ids=["dump-tail", "dump-tail-with-supertype", "other-tail"],
)
def test_empty_library_rejected_at_its_line(tmp_path, record):
    # dump_kb refuses an empty library, so a KB that loaded with one would
    # fail kb-build's dump
    path = tmp_path / "k.kb"
    path.write_text(f"type a.Y class lib=l1\n{record}\n", encoding="utf-8")
    with pytest.raises(KbError) as info:
        load_kb(path)
    assert str(info.value) == f"{path}:2: empty lib="


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


@pytest.mark.parametrize(
    "record, attribute",
    [("method com.a.X m/0 returns=", "returns"), ("field com.a.X f type=", "type")],
)
def test_empty_member_type_rejected_at_its_line(tmp_path, record, attribute):
    # dump_kb writes an unknown type as '?', so an empty value could not
    # round-trip: it would load back as None
    path = tmp_path / "k.kb"
    path.write_text(f"type com.a.X class lib=l1\n{record}\n", encoding="utf-8")
    with pytest.raises(KbError) as info:
        load_kb(path)
    assert str(info.value) == (
        f"{path}:2: empty {attribute}=; an unknown type is {attribute}=?"
    )


def _entry(library="l1", **fields):
    return TypeEntry("a.X", "class", library, **fields)


@pytest.mark.parametrize(
    "entry, match",
    [
        # the text would not load
        (_entry(library="l 1"), r"bad library 'l 1' of 'a\.X'$"),
        (_entry(library=""), r"bad library '' of 'a\.X'$"),
        (TypeEntry("a.\u2028X", "class", "l1"), r"bad FQN 'a\.\\u2028X'$"),
        (_entry(methods=frozenset({MethodSig("m/x", 1)})), r"bad method name 'm/x' of"),
        (_entry(fields=frozenset({FieldSig("f g")})), r"bad field name 'f g' of"),
        (_entry(methods=frozenset({MethodSig("m", True)})), r"bad arity True of"),
        (_entry(methods=frozenset({MethodSig("m", 1.0)})), r"bad arity 1\.0 of"),
        (_entry(methods=frozenset({MethodSig("m", -1)})), r"bad arity -1 of"),
        (_entry(methods=frozenset({MethodSig("m", 1, False, "b.Y\tZ")})),
         r"bad return type 'b\.Y\\tZ' of"),
        # the text would load as a different KB
        (_entry(external_supertypes=frozenset({"b.Y,c.Z"})), r"bad supertype 'b\.Y,c\.Z'"),
        (_entry(external_supertypes=frozenset({""})), r"bad supertype '' of"),
        (_entry(methods=frozenset({MethodSig("m", "1")})), r"bad arity '1' of"),
        (_entry(methods=frozenset({MethodSig("m", 1, False, "")})), r"bad return type ''"),
        (_entry(methods=frozenset({MethodSig("m", 1, False, "?")})), r"bad return type '\?'"),
        (_entry(fields=frozenset({FieldSig("f", "")})), r"bad field type '' of"),
        (_entry(fields=frozenset({FieldSig("f", "?")})), r"bad field type '\?' of"),
    ],
    ids=[
        "blank-library", "empty-library", "separator-fqn", "slash-method",
        "blank-field", "bool-arity", "float-arity", "negative-arity", "tab-return-type",
        "comma-supertype", "empty-supertype", "str-arity", "empty-return-type",
        "unknown-return-type", "empty-field-type", "unknown-field-type",
    ],
)
def test_dump_refuses_a_kb_that_would_not_load_back(entry, match):
    with pytest.raises(ValueError, match="^cannot dump KB: " + match):
        dump_kb(KnowledgeBase([entry]))


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


def test_bad_kind_rejected_at_construction():
    # the loader rejects the kind first, so only a hand-built KB gets here
    with pytest.raises(KbError, match="^a.X: bad kind 'enum'$"):
        KnowledgeBase([TypeEntry("a.X", "enum", "l")])


@pytest.mark.parametrize(
    "faulty, message",
    [
        (
            TypeEntry(
                "a.B", "enum", "l", frozenset({MethodSig("m", 0), MethodSig("m", 0, True)})
            ),
            "a.B: bad kind 'enum'",
        ),
        (
            TypeEntry(
                "a.B", "class", "l",
                frozenset({MethodSig("m", 0), MethodSig("m", 0, True)}),
                frozenset({FieldSig("F"), FieldSig("F", None, True)}),
            ),
            "a.B: conflicting signatures for m/0",
        ),
        (
            TypeEntry(
                "a.B", "class", "l",
                fields=frozenset({FieldSig("F"), FieldSig("F", None, True)}),
                supertypes=frozenset({"no.Such"}),
            ),
            "a.B: conflicting fields for F",
        ),
    ],
    ids=["kind-then-signature", "signature-then-field", "field-then-supertype"],
)
def test_construction_reports_the_first_fault_of_the_first_faulty_entry(faulty, message):
    # the faulty entry comes between sound ones; a second faulty entry after
    # it, with a fault of every kind, is never reached
    later = TypeEntry(
        "a.C", "enum", "l",
        frozenset({MethodSig("n", 1), MethodSig("n", 1, True)}),
        frozenset({FieldSig("G"), FieldSig("G", "a.A")}),
        frozenset({"no.Other"}),
    )
    sound = [TypeEntry("a.A", "class", "l"), TypeEntry("a.D", "interface", "l")]
    with pytest.raises(KbError) as info:
        KnowledgeBase([sound[0], faulty, later, sound[1]])
    assert str(info.value) == message
