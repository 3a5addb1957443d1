"""Lexing, API element identification, and context augmentation."""

import gc
import random

import pytest

from fqninfer import ApiElement, identify_api_elements, plain, tokenize, train
from fqninfer.snippet import (
    AugmentError,
    TokenKind,
    augment,
)


def _joined(sn):
    return "".join(sn.lexemes)


def _kinds(text):
    sn = tokenize(text)
    return list(zip(sn.lexemes, sn.kinds, strict=True))


def _element_keys(text, **kwargs):
    sn = tokenize(text)
    return {e.key for e in identify_api_elements(sn, **kwargs)}


def test_tokenize_basic_kinds():
    got = _kinds('new Label("hi")')
    assert got == [
        ("new", TokenKind.KEYWORD),
        (" ", TokenKind.WHITESPACE),
        ("Label", TokenKind.IDENTIFIER),
        ("(", TokenKind.PUNCT),
        ('"hi"', TokenKind.LITERAL),
        (")", TokenKind.PUNCT),
    ]


def test_tokenize_numbers_and_chars():
    got = dict(_kinds("x = 0x1F + 2.5e3f + 'a';"))
    assert got["0x1F"] == TokenKind.LITERAL
    assert got["2.5e3f"] == TokenKind.LITERAL
    assert got["'a'"] == TokenKind.LITERAL


def test_tokenize_comments():
    got = _kinds("a // rest of line\n/* block\nspan */ b")
    comments = [lex for lex, kind in got if kind == TokenKind.COMMENT]
    assert comments == ["// rest of line", "/* block\nspan */"]


def test_tokenize_unterminated_string_stops_at_eol():
    sn = tokenize('call("broken\nnext')
    assert _joined(sn) == 'call("broken\nnext'
    lits = [lex for lex, kind in zip(sn.lexemes, sn.kinds) if kind == TokenKind.LITERAL]
    assert lits and lits[0] == '"broken'


def test_tokenize_unterminated_block_comment_swallows_rest():
    sn = tokenize("a /* never closed\nb")
    assert sn.lexemes[-1] == "/* never closed\nb"
    assert _joined(sn) == "a /* never closed\nb"


def test_tokenize_line_and_column():
    sn = tokenize("ab\n  cd /* x\ny */ ef")
    by_lex = dict(zip(sn.lexemes, sn.lines, strict=True))
    assert (by_lex["ab"], by_lex["cd"], by_lex["ef"]) == (1, 2, 3)


def test_columns_hold_one_entry_per_lexeme():
    sn = tokenize("a /* x\ny */ Label\n  b;")
    assert sn.lexemes == ("a", " ", "/* x\ny */", " ", "Label", "\n  ", "b", ";")
    assert sn.kinds == (
        TokenKind.IDENTIFIER, TokenKind.WHITESPACE, TokenKind.COMMENT,
        TokenKind.WHITESPACE, TokenKind.IDENTIFIER, TokenKind.WHITESPACE,
        TokenKind.IDENTIFIER, TokenKind.PUNCT,
    )
    assert sn.lines == (1, 1, 1, 2, 2, 2, 3, 3)
    assert all(type(col) is tuple for col in (sn.lexemes, sn.kinds, sn.lines))
    empty = tokenize("")
    assert (empty.lexemes, empty.kinds, empty.lines) == ((), (), ())


def test_structure_columns_end_in_three_pads():
    sn = tokenize("a /* x\ny */ Label\n  b;")
    structure = sn.structure
    assert structure.lexemes == ("a", "Label", "b", ";", "", "", "")
    assert structure.kinds == (
        TokenKind.IDENTIFIER, TokenKind.IDENTIFIER, TokenKind.IDENTIFIER,
        TokenKind.PUNCT, TokenKind.WHITESPACE, TokenKind.WHITESPACE,
        TokenKind.WHITESPACE,
    )
    assert structure.lines == (1, 2, 3, 3, 0, 0, 0)
    assert structure.positions == (0, 4, 6, 7, None, None, None)
    # a snippet of layout alone is nothing but pads
    blank = tokenize(" // c\n").structure
    assert (blank.lexemes, blank.lines, blank.positions) == (
        ("",) * 3, (0,) * 3, (None,) * 3
    )
    assert blank.kinds == (TokenKind.WHITESPACE,) * 3


def test_lexeme_and_line_columns_are_untracked(eval_items):
    # tuples of str or int are untracked by the first collection that
    # examines them, so a loaded corpus adds no tokens to the collector's
    # walks
    sn = tokenize(eval_items[0].snippet.raw)
    assert len(sn.lexemes) > 50
    gc.collect()
    assert not gc.is_tracked(sn.lexemes)
    assert not gc.is_tracked(sn.lines)


def test_api_element_is_a_value_equal_only_to_elements():
    e = ApiElement("Label", 1, 1, 3)
    assert e == ApiElement("Label", 1, 1, 3)
    assert e != ApiElement("Label", 1, 2, 3)
    assert e != ApiElement("Label", 1, 1, 4)
    # a tuple with the same fields is not an element, from either side
    assert e != ("Label", 1, 1, 3)
    assert ("Label", 1, 1, 3) != e
    assert not e == ("Label", 1, 1, 3)
    assert not ("Label", 1, 1, 3) == e
    # the hash is the field tuple's, so dicts and sets keyed by elements
    # keep the order a field-tuple hash gives them
    assert hash(e) == hash(("Label", 1, 1, 3))
    assert {e: 1}[ApiElement("Label", 1, 1, 3)] == 1
    with pytest.raises(AttributeError):
        e.line = 2
    assert e.key == "Label[1,1]"
    assert repr(e) == (
        "ApiElement(simple_name='Label', line=1, occurrence=1, token_index=3)"
    )


def test_lossless_round_trip_seeded_garbage():
    rng = random.Random(20260819)
    alphabet = "ab;{}()\"'\\\n\t /*@.<>[]0129_$Ztrue"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        assert _joined(tokenize(text)) == text


def test_identify_object_creation_and_declared_type():
    got = _element_keys("Label greeting = new Label(name);")
    assert got == {
        "Label[1,1]",
        "Label[1,2]",
    }


def test_identify_static_receiver():
    got = _element_keys('RootPanel.get("slot").add(widget);')
    assert got == {"RootPanel[1,1]"}


def test_identify_dot_class_is_not_an_element():
    # Name.class is a literal mention, not an API usage we should resolve.
    got = _element_keys("intent.putExtra(Detail.class);")
    assert got == set()


def test_identify_extends_and_implements():
    text = "public class Mine extends Base implements Face, Other {\n}\n"
    got = _element_keys(text)
    assert got == {
        "Base[1,1]",
        "Face[1,1]",
        "Other[1,1]",
    }


def test_identify_annotation():
    got = _element_keys('@Entity\n@Table(name = "t")\npublic class Row {}\n')
    assert got == {
        "Entity[1,1]",
        "Table[2,1]",
    }


def test_identify_cast():
    got = _element_keys("Object o = (Widget) value;")
    assert "Widget[1,1]" in got


def test_identify_array_declaration():
    got = _element_keys("Widget[] slots = make();")
    assert got == {"Widget[1,1]"}


@pytest.mark.parametrize(
    "text, expected",
    [
        ("Map<String, Integer> m = make();", {"Map[1,1]"}),
        ("Map<String, List<Widget[]>> m;", {"Map[1,1]"}),
        ("Map<? extends a.Key, ? super V> m;", {"Map[1,1]"}),
        # a comparison is not a type argument list
        ("if (Limit < b && c > d) go();", set()),
        ("Limit < (b) > d;", set()),
        ("List<int> xs;", set()),
        ("Map<String, Integer> = 3;", set()),
    ],
)
def test_identify_generic_declared_type(text, expected):
    assert _element_keys(text) == expected


def test_own_declarations_excluded():
    text = "public class Mine extends Base {\n    Mine twin = new Mine();\n}\n"
    got = _element_keys(text)
    assert "Base[1,1]" in got
    assert not any(k.startswith("Mine") for k in got)


def test_structure_is_read_once_and_names_each_clause():
    sn = tokenize("class A extends B implements C {\n}\ninterface D;\n")
    structure = sn.structure
    assert sn.structure is structure
    a, d = structure.headers
    assert (a.kind, a.name, d.kind, d.name, d.open) == (
        "class", "A", "interface", "D", None
    )
    assert structure.lexemes[a.open : a.close + 1] == ("{", "}")
    clauses = {
        structure.lexemes[k]: (kw, h.name)
        for k, (kw, h) in structure.clauses.items()
    }
    assert clauses == {"B": ("extends", "A"), "C": ("implements", "A")}


@pytest.mark.parametrize(
    "text, expected",
    [
        # a header keyword with no declared name still opens a clause
        (
            "Object o = Foo.class implements Bar {",
            {"Object[1,1]", "Bar[1,1]"},
        ),
        (
            "class A implements Bar, class C extends Dee {",
            {"Bar[1,1]", "Dee[1,1]"},
        ),
        (
            "Foo.class implements Bar, class C extends Dee {",
            {"Bar[1,1]", "Dee[1,1]"},
        ),
        # a header ends at ';' and the next line reads as ordinary code
        (
            "interface Q extends Face;\nList l = new List();",
            {
                "Face[1,1]",
                "List[2,1]",
                "List[2,2]",
            },
        ),
        ("enum E implements Face { X; }", {"Face[1,1]"}),
        (
            "class Mine extends Base {\n    Other() { }\n",
            {"Base[1,1]"},
        ),
        ("class { }", set()),
    ],
    ids=[
        "nameless-header", "nested-header", "nameless-then-named",
        "semicolon-ends-header", "enum", "unterminated-body", "nameless-class",
    ],
)
def test_identify_declaration_header_edges(text, expected):
    assert _element_keys(text) == expected


def test_boxed_and_string_excluded_by_default():
    text = "String s = fetch();\nInteger n = count();\nLabel l = make();\n"
    got = _element_keys(text)
    assert got == {"Label[3,1]"}
    with_string = _element_keys(text, exclude_string=False)
    assert "String[1,1]" in with_string


def test_member_access_segment_not_identified():
    # the Document after the dot names a nested member, not a new element
    got = _element_keys("Outer.Document.get();")
    assert got == {"Outer[1,1]"}


def test_kb_fallback_identifies_known_bare_name(kb):
    text = "process(XStream, config);"
    assert _element_keys(text) == set()
    got = _element_keys(text, kb=kb)
    assert got == {"XStream[1,1]"}


def test_occurrences_count_within_line():
    text = "HTML a = new HTML(x); HTML b = new HTML(y);"
    got = _element_keys(text)
    assert sorted(got) == ["HTML[1,1]", "HTML[1,2]", "HTML[1,3]", "HTML[1,4]"]


def test_elements_in_token_order():
    sn = tokenize("Label a = new Button();\nWidget w;")
    els = identify_api_elements(sn)
    assert [e.simple_name for e in els] == ["Label", "Button", "Widget"]
    assert [e.token_index for e in els] == sorted(e.token_index for e in els)


def test_augment_substitutes_fqn_lexeme():
    sn = tokenize("Label greeting = new Label(name);")
    els = identify_api_elements(sn)
    aug = augment(sn, {els[0]: "com.x.Label"})
    assert aug.text() == "com.x.Label greeting = new Label(name);"
    assert aug.lexemes[els[0].token_index] == "com.x.Label"
    assert aug.source is sn
    assert len(aug.lexemes) == len(sn.lexemes)


def test_augment_preserves_line_numbers():
    sn = tokenize("Label a;\nLabel b;")
    els = identify_api_elements(sn)
    aug = augment(sn, {els[1]: "com.x.y.z.VeryLongName"})
    idx = els[1].token_index
    assert aug.lexemes[idx] == "com.x.y.z.VeryLongName"
    assert "".join(aug.lexemes[:idx]).count("\n") + 1 == sn.lines[idx] == 2


def test_augment_accepts_mismatched_simple_name():
    # wrong inferences substitute as-is; augmentation must not second-guess
    sn = tokenize("Label a;")
    els = identify_api_elements(sn)
    aug = augment(sn, {els[0]: "com.other.Banner"})
    assert aug.text() == "com.other.Banner a;"


def test_augment_rejects_bad_token_index():
    sn = tokenize("Label a;")
    fake = ApiElement("Label", 1, 1, 999)
    with pytest.raises(AugmentError, match="out of range"):
        augment(sn, {fake: "com.x.Label"})


def test_augment_rejects_index_pointing_at_other_token():
    sn = tokenize("Label a;")
    fake = ApiElement("Label", 1, 1, 1)  # whitespace
    with pytest.raises(AugmentError, match="not an"):
        augment(sn, {fake: "com.x.Label"})


def test_augment_rejects_empty_fqn():
    sn = tokenize("Label a;")
    els = identify_api_elements(sn)
    with pytest.raises(AugmentError, match="empty"):
        augment(sn, {els[0]: ""})


@pytest.mark.parametrize(
    "fqn, shown",
    [
        (5, "5"),
        (None, "None"),
        (b"com.x.Label", "b'com.x.Label'"),
        ("com.x\nLabel", "'com.x\\nLabel'"),
        ("a.B\n", "'a.B\\n'"),
        ("\n" + "x" * 200, "'\\n" + "x" * 77),
    ],
    ids=["int", "none", "bytes", "inner-line-feed", "final-line-feed", "long"],
)
def test_augment_rejects_bad_fqn(fqn, shown):
    # a non-str would only fail when the text is joined, and a line feed
    # would move every line after it
    sn = tokenize("Label a;")
    els = identify_api_elements(sn)
    with pytest.raises(AugmentError) as info:
        augment(sn, {els[0]: fqn})
    assert str(info.value) == f"Label[1,1]: bad FQN {shown}"


def test_train_refuses_a_truth_map_with_a_bad_fqn():
    sn = tokenize("Label a;\nButton b;")
    label, button = identify_api_elements(sn)
    for fqn in (7, "com.x\nButton"):
        with pytest.raises(AugmentError, match=r"^Button\[2,1\]: bad FQN "):
            train([(sn, {label: "com.x.Label", button: fqn})])


def test_plain_is_identity_augmentation():
    sn = tokenize("Label a = new Label();")
    aug = plain(sn)
    assert aug.text() == sn.raw
    assert aug.lexemes == sn.lexemes


def test_fixture_corpus_round_trips(eval_items, train_items):
    for item in eval_items + train_items:
        assert _joined(item.snippet) == item.snippet.raw
