"""Lexing, API element identification, and context augmentation."""

import random

import pytest

from fqninfer import ApiElement, identify_api_elements, plain, tokenize
from fqninfer.snippet import (
    AugmentError,
    Token,
    TokenKind,
    augment,
)


def _joined(sn):
    return "".join(t.lexeme for t in sn.tokens)


def _kinds(text):
    return [(t.lexeme, t.kind) for t in tokenize(text).tokens]


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
    lits = [t for t in sn.tokens if t.kind == TokenKind.LITERAL]
    assert lits and lits[0].lexeme == '"broken'


def test_tokenize_unterminated_block_comment_swallows_rest():
    sn = tokenize("a /* never closed\nb")
    assert sn.tokens[-1].lexeme == "/* never closed\nb"
    assert _joined(sn) == "a /* never closed\nb"


def test_tokenize_line_and_column():
    sn = tokenize("ab\n  cd /* x\ny */ ef")
    by_lex = {t.lexeme: t.line for t in sn.tokens}
    assert (by_lex["ab"], by_lex["cd"], by_lex["ef"]) == (1, 2, 3)


def test_token_is_a_value_equal_only_to_tokens():
    tok = Token("a", TokenKind.IDENTIFIER, 1)
    assert tok == Token("a", TokenKind.IDENTIFIER, 1)
    assert tok != Token("a", TokenKind.IDENTIFIER, 2)
    assert tok != Token("a", TokenKind.KEYWORD, 1)
    # a tuple with the same fields is not a token, from either side
    assert tok != ("a", TokenKind.IDENTIFIER, 1)
    assert ("a", TokenKind.IDENTIFIER, 1) != tok
    assert not tok == ("a", TokenKind.IDENTIFIER, 1)
    assert not ("a", TokenKind.IDENTIFIER, 1) == tok
    assert hash(tok) == hash(("a", TokenKind.IDENTIFIER, 1))
    with pytest.raises(AttributeError):
        tok.line = 2
    assert repr(tok) == (
        "Token(lexeme='a', kind=<TokenKind.IDENTIFIER: 'identifier'>, line=1)"
    )
    lexed = tokenize("a").tokens[0]
    assert type(lexed) is Token and lexed == tok and hash(lexed) == hash(tok)


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
    lexemes = [t.lexeme for t in structure.significant]
    assert lexemes[a.open : a.close + 1] == ["{", "}"]
    clauses = {
        structure.significant[k].lexeme: (kw, h.name)
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
    assert aug.tokens[els[0].token_index].lexeme == "com.x.Label"
    assert aug.tokens[els[0].token_index].kind == TokenKind.IDENTIFIER
    assert len(aug.tokens) == len(sn.tokens)


def test_augment_preserves_line_numbers():
    sn = tokenize("Label a;\nLabel b;")
    els = identify_api_elements(sn)
    aug = augment(sn, {els[1]: "com.x.y.z.VeryLongName"})
    assert aug.tokens[els[1].token_index].line == 2


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


def test_plain_is_identity_augmentation():
    sn = tokenize("Label a = new Label();")
    aug = plain(sn)
    assert aug.text() == sn.raw
    assert aug.tokens == sn.tokens


def test_fixture_corpus_round_trips(eval_items, train_items):
    for item in eval_items + train_items:
        assert _joined(item.snippet) == item.snippet.raw
