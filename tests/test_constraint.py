"""Constraint extraction and the global candidate-assignment solver."""

import random
import sys
import time

import pytest

import test_properties

from fqninfer import (
    ApiElement,
    KnowledgeBase,
    identify_api_elements,
    infer_with_engine,
    run,
    tokenize,
)
from fqninfer import constraint
from fqninfer.constraint import (
    ConstraintProblem,
    Construction,
    DeclaredAssignment,
    FieldAccess,
    MemberCall,
    Supertype,
    extract_constraints,
    solve,
)
from fqninfer.kb import (
    FieldSig,
    MethodSig,
    TypeEntry,
    UnknownTypeError,
    reduce_kb,
    supertype_closure,
)

CASCADE = {"cascaded_calls": True}
LENIENT = {"cascaded_calls": True, "strict_body_check": False}
NO_CASCADE = {"cascaded_calls": False}


def _extract(text, options=CASCADE, kb=None):
    sn = tokenize(text)
    els = identify_api_elements(sn, kb)
    cons, excluded = extract_constraints(sn, els, **options)
    return {e.key: e for e in els}, cons, excluded


def _entry(fqn, kind="class", lib="l", methods=(), fields=(), supers=()):
    return TypeEntry(
        fqn=fqn,
        kind=kind,
        library=lib,
        methods=frozenset(methods),
        fields=frozenset(fields),
        supertypes=frozenset(supers),
    )


def _el(name, idx, line=1, occ=1):
    return ApiElement(name, line, occ, idx)


# ---------------------------------------------------------------------------
# extraction


def test_extract_construction_arity():
    # a construction carries no arity (the KB has no constructors); a
    # call's hop does
    els, cons, _ = _extract('greet(new Label("hi", style));')
    assert cons == [Construction(els["Label[1,1]"])]
    els, cons, _ = _extract('greet(Label.of("hi", style));')
    assert cons == [MemberCall(els["Label[1,1]"], (("of", 2),), static_call=True)]


def test_extract_construction_nested_args_count_top_level():
    els, cons, _ = _extract("use(Pair.of(a, make(b, c)));")
    assert cons == [MemberCall(els["Pair[1,1]"], (("of", 2),), static_call=True)]
    els, cons, _ = _extract("use(new Pair(a, make(b, c)));")
    assert cons == [Construction(els["Pair[1,1]"])]


@pytest.mark.parametrize(
    "text",
    [
        "Label.of(new int[]{1, 2});",
        "Label.of(new Runnable() { int a, b; });",
        "Label.of(x -> { int a, b; });",
    ],
)
def test_extract_braced_commas_are_not_arguments(text):
    # an array initializer, an anonymous class body and a lambda block are
    # one argument, whatever commas they hold
    els, cons, _ = _extract(text)
    calls = [c for c in cons if isinstance(c, MemberCall)]
    assert calls == [MemberCall(els["Label[1,1]"], (("of", 1),), static_call=True)]


@pytest.mark.parametrize(
    "text, arity",
    [
        ("Foo.bar(new HashMap<String, Integer>());", 1),
        ("Foo.bar(new Comparator<Pair<A, B>>());", 1),
        ("Foo.bar(new java.util.HashMap<String, Integer>(), x);", 2),
        ("Foo.bar(new Comparator<Pair<A, B>>() { int a, b; }, x);", 2),
        ("Foo.bar(a < b, c > d);", 2),
        ("Foo.bar(new A, b < c, d > e);", 3),
    ],
)
def test_extract_type_argument_commas_are_not_arguments(text, arity):
    # the type arguments of a constructed generic type are one bracket
    # level; a comparison is not a type argument list
    els, cons, _ = _extract(text)
    calls = [c for c in cons if isinstance(c, MemberCall)]
    assert calls == [MemberCall(els["Foo[1,1]"], (("bar", arity),), static_call=True)]


@pytest.mark.parametrize(
    "text", ["x = new HashMap<String, Integer>();", "x = new HashMap<>();"]
)
def test_extract_generic_construction(text):
    els, cons, _ = _extract(text)
    assert cons == [Construction(els["HashMap[1,1]"])]


def test_extract_generic_construction_needs_its_argument_list():
    assert _extract("x = new HashMap<String, Integer>;")[1] == []
    assert _extract("x = new HashMap<String, Integer;")[1] == []


def test_extract_assignment_of_a_generic_construction():
    els, cons, _ = _extract("HashMap m = new HashMap<String, Integer>();")
    built = Construction(els["HashMap[1,2]"])
    assert cons == [DeclaredAssignment(els["HashMap[1,1]"], built), built]


def test_extract_generic_declared_type_types_its_variable():
    text = "Map<String, Integer> m = new HashMap<String, Integer>();\nm.put(a, b);\n"
    els, cons, _ = _extract(text)
    built = Construction(els["HashMap[1,1]"])
    assert cons == [
        DeclaredAssignment(els["Map[1,1]"], built),
        built,
        MemberCall(els["Map[1,1]"], (("put", 2),), static_call=False),
    ]


def test_extract_construction_zero_args():
    els, cons, _ = _extract("x = new Banner();")
    assert cons == [Construction(els["Banner[1,1]"])]


def test_extract_static_member_call():
    els, cons, _ = _extract('Registry.lookup("name");')
    assert cons == [
        MemberCall(els["Registry[1,1]"], (("lookup", 1),), static_call=True)
    ]


def test_extract_instance_call_through_declared_variable():
    text = "Label greeting = new Label(txt);\ngreeting.setText(other);\n"
    els, cons, _ = _extract(text)
    assert (
        MemberCall(els["Label[1,1]"], (("setText", 1),), static_call=False) in cons
    )


def test_extract_static_field_access():
    els, cons, _ = _extract("int kind = Toast.LENGTH_SHORT;")
    assert cons == [FieldAccess(els["Toast[1,1]"], "LENGTH_SHORT", static_access=True)]


def test_extract_instance_field_access_via_variable():
    text = "Point origin = new Point();\nuse(origin.x);\n"
    els, cons, _ = _extract(text)
    assert FieldAccess(els["Point[1,1]"], "x", static_access=False) in cons


def test_extract_cascaded_chain_on():
    els, cons, _ = _extract('Document.get().getBody().appendChild(node);')
    assert cons == [
        MemberCall(
            els["Document[1,1]"],
            (("get", 0), ("getBody", 0), ("appendChild", 1)),
            static_call=True,
        )
    ]


def test_extract_cascaded_chain_off_keeps_first_hop():
    els, cons, _ = _extract(
        "Document.get().getBody().appendChild(node);", NO_CASCADE
    )
    assert cons == [MemberCall(els["Document[1,1]"], (("get", 0),), static_call=True)]


def test_extract_declared_assignment_from_construction():
    els, cons, _ = _extract("Label greeting = new Label(txt);")
    assert cons == [
        DeclaredAssignment(
            els["Label[1,1]"], Construction(els["Label[1,2]"])
        ),
        Construction(els["Label[1,2]"]),
    ]


def test_extract_declared_assignment_from_static_call():
    els, cons, _ = _extract('DateTimeFormatter f = DateTimeFormat.forPattern("p");')
    expected_source = MemberCall(
        els["DateTimeFormat[1,1]"], (("forPattern", 1),), static_call=True
    )
    assert DeclaredAssignment(els["DateTimeFormatter[1,1]"], expected_source) in cons
    assert expected_source in cons


def test_extract_declared_assignment_from_variable_call():
    text = (
        'DateTimeFormatter f = DateTimeFormat.forPattern("p");\n'
        "DateTime dt = f.parseDateTime(raw);\n"
    )
    els, cons, _ = _extract(text)
    src = MemberCall(
        els["DateTimeFormatter[1,1]"], (("parseDateTime", 1),), static_call=False
    )
    assert DeclaredAssignment(els["DateTime[2,1]"], src) in cons


def test_extract_multi_hop_assignment_needs_cascade():
    text = "Element item = Document.get().getBody();"
    els, cons_on, _ = _extract(text)
    assert (
        DeclaredAssignment(
            els["Element[1,1]"],
            MemberCall(
                els["Document[1,1]"], (("get", 0), ("getBody", 0)), static_call=True
            ),
        )
        in cons_on
    )
    _, cons_off, _ = _extract(text, NO_CASCADE)
    assert not any(isinstance(c, DeclaredAssignment) for c in cons_off)
    # the first hop still appears as a plain static call
    assert any(isinstance(c, MemberCall) and c.chain == (("get", 0),) for c in cons_off)


def test_extract_multi_hop_from_a_variable_keeps_first_hop_without_cascade():
    # as a statement the first hop stays; as an initializer, no assignment
    els, cons, _ = _extract("Foo x; x.m().n();", NO_CASCADE)
    assert cons == [MemberCall(els["Foo[1,1]"], (("m", 0),), static_call=False)]
    els, cons, _ = _extract("Foo x; Foo y = x.m().n();", NO_CASCADE)
    assert cons == [MemberCall(els["Foo[1,1]"], (("m", 0),), static_call=False)]


def test_extract_extends_clause_uses_declared_name():
    els, cons, _ = _extract("public class MyView extends Composite {\n}\n")
    assert cons == [Supertype(els["Composite[1,1]"], "class")]


def test_extract_interface_extends_records_interface_kind():
    els, cons, _ = _extract("interface Mine extends Face {\n}\n")
    assert cons == [Supertype(els["Face[1,1]"], "interface")]


def test_extract_implements_clause():
    els, cons, _ = _extract("public class Impl implements EntryPoint {\n}\n")
    assert cons == [Supertype(els["EntryPoint[1,1]"], "interface")]


def test_extract_mixed_clauses():
    els, cons, _ = _extract(
        "class Both extends Parent implements FaceA, FaceB {\n}\n"
    )
    assert Supertype(els["Parent[1,1]"], "class") in cons
    assert Supertype(els["FaceA[1,1]"], "interface") in cons
    assert Supertype(els["FaceB[1,1]"], "interface") in cons


@pytest.mark.parametrize(
    "text, expected, excluded",
    [
        # a clause under a header with no declared name has no subject
        ("Object o = Foo.class implements Bar {", lambda els: [], set()),
        # the later of two nested headers is the subject after its name
        (
            "class A implements Bar, class C extends Dee {",
            lambda els: [
                Supertype(els["Bar[1,1]"], "interface"),
                Supertype(els["Dee[1,1]"], "class"),
            ],
            set(),
        ),
        (
            "Foo.class implements Bar, class C extends Dee {",
            lambda els: [Supertype(els["Dee[1,1]"], "class")],
            set(),
        ),
        (
            "class A implements X, Foo.class implements Baz {",
            lambda els: [
                Supertype(els["X[1,1]"], "interface"),
                Supertype(els["Foo[1,1]"], "interface"),
                Supertype(els["Baz[1,1]"], "interface"),
            ],
            set(),
        ),
        (
            "interface Q extends Face;\nList l = new List();",
            lambda els: [
                Supertype(els["Face[1,1]"], "interface"),
                DeclaredAssignment(
                    els["List[2,1]"], Construction(els["List[2,2]"])
                ),
                Construction(els["List[2,2]"]),
            ],
            set(),
        ),
        (
            "enum E implements Face { X; }",
            lambda els: [Supertype(els["Face[1,1]"], "interface")],
            set(),
        ),
        # an unterminated body runs to the end of the snippet
        (
            "class Mine extends Base {\n    Other() { }\n",
            lambda els: [Supertype(els["Base[1,1]"], "class")],
            {2},
        ),
        # a nameless class has no body to give up on
        ("class { }", lambda els: [], set()),
        ("class {\n    Other() { }\n}\n", lambda els: [], set()),
    ],
    ids=[
        "nameless-header", "nested-header", "nameless-then-named",
        "named-then-nameless", "semicolon-ends-header", "enum",
        "unterminated-body", "nameless-class", "nameless-class-body",
    ],
)
def test_extract_declaration_header_edges(text, expected, excluded):
    els, cons, got_excluded = _extract(text)
    assert cons == expected(els)
    assert got_excluded == excluded


def test_constructor_name_mismatch_excludes_body_lines():
    text = (
        "public class MyView extends Composite {\n"        # 1
        '    private static final String H = "450px";\n'   # 2
        "    private Panel vSplit = new Panel();\n"         # 3
        "    public CountryFilterView() {\n"                # 4
        "        initWidget(vSplit);\n"                     # 5
        "    }\n"                                           # 6
        "}\n"                                               # 7
    )
    els, cons, excluded = _extract(text)
    # only the class signature line stays trustworthy
    assert excluded == set(range(2, 8))
    assert 3 in excluded
    # constraints from excluded lines are dropped along with their elements
    assert cons == [Supertype(els["Composite[1,1]"], "class")]


def test_matching_constructor_keeps_coverage():
    text = (
        "public class Clean {\n"
        "    public Clean() {\n"
        "        setup();\n"
        "    }\n"
        "    static class Inner {\n"
        "        public Inner() {}\n"  # a member of Inner, not of Clean
        "    }\n"
        "}\n"
    )
    _, _, excluded = _extract(text)
    assert excluded == set()


def test_lenient_body_check_keeps_everything():
    text = (
        "public class MyView extends Composite {\n"
        "    public CountryFilterView() {\n"
        "        initWidget(vSplit);\n"
        "    }\n"
        "}\n"
    )
    _, _, excluded = _extract(text, LENIENT)
    assert excluded == set()


def _render(c):
    """A constraint with each element shown by its key."""
    shown = []
    for v in c:
        if isinstance(v, ApiElement):
            shown.append(v.key)
        else:
            shown.append(_render(v) if hasattr(v, "_fields") else repr(v))
    return f"{type(c).__name__}({', '.join(shown)})"


# Snippets that end (or start) where a pass reads a neighbour: (text,
# elements as key@token_index, cascaded constraints, excluded lines).
_EDGE_CASES = [
    ("new", [], [], set()),
    ("new Foo(", ["Foo[1,1]@2"], [], set()),
    ("Foo.", [], [], set()),
    ("Foo.m(", ["Foo[1,1]@0"], [], set()),
    ("Foo[", [], [], set()),
    ("Foo[] a", ["Foo[1,1]@0"], [], set()),
    ("(Foo)", [], [], set()),
    ("@Foo", ["Foo[1,1]@1"], [], set()),
    ("Foo x =", ["Foo[1,1]@0"], [], set()),
    ("x.m(", [], [], set()),
    ("class A extends", [], [], set()),
    ("class A { B() {", [], [], set()),
    (". Foo", [], [], set()),
    ("Foo.f", ["Foo[1,1]@0"], ["FieldAccess(Foo[1,1], 'f', True)"], set()),
    ("new Foo()", ["Foo[1,1]@2"], ["Construction(Foo[1,1])"], set()),
    ("Foo x = new", ["Foo[1,1]@0"], [], set()),
    ("Foo x = Foo", ["Foo[1,1]@0"], [], set()),
    (
        "Foo x = new Foo()",
        ["Foo[1,1]@0", "Foo[1,2]@8"],
        [
            "DeclaredAssignment(Foo[1,1], Construction(Foo[1,2]))",
            "Construction(Foo[1,2])",
        ],
        set(),
    ),
    (
        "Foo x = Foo.m()",
        ["Foo[1,1]@0", "Foo[1,2]@6"],
        [
            "DeclaredAssignment(Foo[1,1], MemberCall(Foo[1,2], (('m', 0),), True))",
            "MemberCall(Foo[1,2], (('m', 0),), True)",
        ],
        set(),
    ),
    ("Foo x; x.m()", ["Foo[1,1]@0"], ["MemberCall(Foo[1,1], (('m', 0),), False)"], set()),
    ("Foo x; x.", ["Foo[1,1]@0"], [], set()),
    ("Foo x; x.f", ["Foo[1,1]@0"], ["FieldAccess(Foo[1,1], 'f', False)"], set()),
    # a field access as an initializer is no assignment source
    (
        "Foo x = Foo.f",
        ["Foo[1,1]@0", "Foo[1,2]@6"],
        ["FieldAccess(Foo[1,2], 'f', True)"],
        set(),
    ),
    (
        "Foo x; Foo y = x.f",
        ["Foo[1,1]@0", "Foo[1,2]@5"],
        ["FieldAccess(Foo[1,1], 'f', False)"],
        set(),
    ),
    # `new` before a declared variable: an instance call, no construction
    (
        "Foo x; new x.m()",
        ["Foo[1,1]@0"],
        ["MemberCall(Foo[1,1], (('m', 0),), False)"],
        set(),
    ),
    (
        "Foo x; Foo y = new x.m()",
        ["Foo[1,1]@0", "Foo[1,2]@5"],
        ["MemberCall(Foo[1,1], (('m', 0),), False)"],
        set(),
    ),
    (
        "Foo x; Foo y = x.m().n()",
        ["Foo[1,1]@0", "Foo[1,2]@5"],
        [
            "DeclaredAssignment(Foo[1,2], MemberCall(Foo[1,1], (('m', 0), ('n', 0)), False))",
            "MemberCall(Foo[1,1], (('m', 0), ('n', 0)), False)",
        ],
        set(),
    ),
    (
        "Foo.m().n()",
        ["Foo[1,1]@0"],
        ["MemberCall(Foo[1,1], (('m', 0), ('n', 0)), True)"],
        set(),
    ),
    # an argument list that never closes ends the chain with no hop
    ("Foo.bar(", ["Foo[1,1]@0"], [], set()),
    ("class A extends Foo", ["Foo[1,1]@6"], ["Supertype(Foo[1,1], 'class')"], set()),
    ("class A {\n B()", [], [], set()),
    ("class A {\n B() {", [], [], {2}),
    ("class A {\n B() {}", [], [], {2}),
    # Label is a fixture KB name: where no position decides, the KB does
    ("Label.", [], [], set()),
    ("Label[", [], [], set()),
    ("(Label)", [], [], set()),
    (". Label", [], [], set()),
    ("Label x = Label", ["Label[1,1]@0"], [], set()),
]
_EDGE_KB_ELEMENTS = {
    "Label[": ["Label[1,1]@0"],
    "(Label)": ["Label[1,1]@1"],
    "Label x = Label": ["Label[1,1]@0", "Label[1,2]@6"],
}


@pytest.mark.parametrize("with_kb", [False, True], ids=["no-kb", "fixture-kb"])
@pytest.mark.parametrize(
    "text, elements, constraints, excluded", _EDGE_CASES,
    ids=[case[0] for case in _EDGE_CASES],
)
def test_snippet_edges_identify_and_extract(
    kb, with_kb, text, elements, constraints, excluded
):
    sn = tokenize(text)
    els = identify_api_elements(sn, kb if with_kb else None)
    if with_kb:
        elements = _EDGE_KB_ELEMENTS.get(text, elements)
    assert [f"{e.key}@{e.token_index}" for e in els] == elements
    cons, got_excluded = extract_constraints(sn, els, **CASCADE)
    assert [_render(c) for c in cons] == constraints
    assert got_excluded == excluded


def test_new_receiver_chain_is_not_a_static_call():
    # after `new Foo().bar()` the receiver is the instance, not the class
    els, cons, _ = _extract("use(new Foo().bar());")
    assert Construction(els["Foo[1,1]"]) in cons
    assert not any(isinstance(c, MemberCall) for c in cons)


@pytest.mark.parametrize(
    "line",
    ["class A { public B(", "Label a = Label.of(", "class A {", "x = new Label("],
)
def test_unbalanced_brackets_extract_within_budget(line):
    # finding each opener's partner by a scan to the end of the snippet took
    # 1-4 s on 2000 such lines (Python 3.11 on a 2-core VM)
    for options in (CASCADE, LENIENT):
        sn = tokenize((line + "\n") * 2000)
        t0 = time.perf_counter()
        extract_constraints(sn, identify_api_elements(sn), **options)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5, f"{options}: {elapsed:.2f}s (budget 0.5s)"


def test_nested_constructions_extract_within_budget():
    # counting each construction's arguments made nested constructions
    # quadratic: about 1 s at 2000 levels (Python 3.11 on a 2-core VM)
    n = 4000
    sn = tokenize("x = " + "new Label(\n" * n + ")" * n + ";")
    t0 = time.perf_counter()
    els = identify_api_elements(sn)
    cons, _ = extract_constraints(sn, els, **CASCADE)
    elapsed = time.perf_counter() - t0
    assert len(cons) == n
    assert elapsed < 0.5, f"{elapsed:.2f}s (budget 0.5s)"


def test_nested_calls_extract_within_budget():
    # counting each call's arguments over its whole argument list made
    # nested calls quadratic: about 1.3 s at 2000 levels (Python 3.11 on a
    # 2-core VM)
    n = 4000
    sn = tokenize("x = " + "Label.of(\n" * n + ")" * n + ";")
    t0 = time.perf_counter()
    els = identify_api_elements(sn)
    cons, _ = extract_constraints(sn, els, **CASCADE)
    elapsed = time.perf_counter() - t0
    assert [c.chain for c in cons] == [(("of", 1),)] * (n - 1) + [(("of", 0),)]
    assert elapsed < 0.5, f"{elapsed:.2f}s (budget 0.5s)"


# ---------------------------------------------------------------------------
# solving


def _kb_two_labels():
    return KnowledgeBase(
        [
            _entry(
                "com.a.Label",
                lib="liba",
                methods=[MethodSig("setText", 1)],
            ),
            _entry(
                "org.b.Label",
                lib="libb",
                methods=[MethodSig("setHeight", 1)],
            ),
        ]
    )


def test_solve_single_candidate_types_immediately():
    kb = KnowledgeBase([_entry("com.a.Label")])
    e = _el("Label", 0)
    res = solve(kb, [e], [])
    assert res.typed == {e: "com.a.Label"}
    assert res.untyped == frozenset()


def test_solve_no_candidates_untyped():
    kb = KnowledgeBase([_entry("com.a.Label")])
    e = _el("Banner", 0)
    res = solve(kb, [e], [])
    assert res.typed == {}
    assert res.untyped == {e}


def test_solve_ambiguous_tie_abstains_when_strict():
    kb = _kb_two_labels()
    e = _el("Label", 0)
    res = solve(kb, [e], [])
    assert res.typed == {}
    assert res.untyped == {e}


def test_solve_tie_resolved_lexicographically_when_not_strict():
    kb = _kb_two_labels()
    e = _el("Label", 0)
    res = solve(kb, [e], [], strict_uniqueness=False)
    assert res.typed == {e: "com.a.Label"}


def test_solve_member_call_disambiguates():
    kb = _kb_two_labels()
    e = _el("Label", 0)
    con = MemberCall(e, (("setHeight", 1),), static_call=False)
    res = solve(kb, [e], [con])
    assert res.typed == {e: "org.b.Label"}


def test_solve_arity_matters():
    kb = _kb_two_labels()
    e = _el("Label", 0)
    con = MemberCall(e, (("setText", 2),), static_call=False)
    res = solve(kb, [e], [con])
    # neither candidate has setText/2: the optimum violates a constraint
    # no matter the choice, so the element stays untyped
    assert res.typed == {}
    assert res.untyped == {e}


def test_solve_static_gate():
    kb = KnowledgeBase(
        [
            _entry("com.a.Doc", lib="a", methods=[MethodSig("get", 0, True)]),
            _entry("org.b.Doc", lib="b", methods=[MethodSig("get", 0, False)]),
        ]
    )
    e = _el("Doc", 0)
    res = solve(kb, [e], [MemberCall(e, (("get", 0),), static_call=True)])
    assert res.typed == {e: "com.a.Doc"}


def test_solve_field_access_static_gate():
    kb = KnowledgeBase(
        [
            _entry("com.a.T", lib="a", fields=[FieldSig("MODE", None, True)]),
            _entry("org.b.T", lib="b", fields=[FieldSig("MODE", None, False)]),
        ]
    )
    e = _el("T", 0)
    res = solve(kb, [e], [FieldAccess(e, "MODE", static_access=True)])
    assert res.typed == {e: "com.a.T"}


def test_solve_construction_requires_class():
    kb = KnowledgeBase(
        [
            _entry("com.a.Widget", kind="interface", lib="a"),
            _entry("org.b.Widget", kind="class", lib="b"),
        ]
    )
    e = _el("Widget", 0)
    res = solve(kb, [e], [Construction(e)])
    assert res.typed == {e: "org.b.Widget"}


def test_solve_implements_requires_interface():
    kb = KnowledgeBase(
        [
            _entry("com.a.Face", kind="class", lib="a"),
            _entry("org.b.Face", kind="interface", lib="b"),
        ]
    )
    e = _el("Face", 0)
    res = solve(kb, [e], [Supertype(e, "interface")])
    assert res.typed == {e: "org.b.Face"}


def test_solve_extends_kind_must_match_declaration():
    kb = KnowledgeBase(
        [
            _entry("com.a.Base", kind="interface", lib="a"),
            _entry("org.b.Base", kind="class", lib="b"),
        ]
    )
    e = _el("Base", 0)
    res = solve(kb, [e], [Supertype(e, "class")])
    assert res.typed == {e: "org.b.Base"}
    res = solve(kb, [e], [Supertype(e, "interface")])
    assert res.typed == {e: "com.a.Base"}


def test_solve_cascaded_chain_needs_known_intermediate_returns():
    make = lambda ret: [
        MethodSig("open", 0, True, ret),
        MethodSig("close", 0, False, None),
    ]
    kb = KnowledgeBase(
        [
            _entry("com.a.Door", lib="a", methods=make("com.a.Door")),
            _entry("org.b.Door", lib="b", methods=make(None)),
        ]
    )
    e = _el("Door", 0)
    con = MemberCall(e, (("open", 0), ("close", 0)), static_call=True)
    res = solve(kb, [e], [con])
    # org.b.Door's open() has no recorded return: the chain cannot continueapa
    assert res.typed == {e: "com.a.Door"}


def test_solve_cascaded_final_hop_return_may_be_unknown():
    kb = KnowledgeBase(
        [
            _entry(
                "com.a.Door",
                lib="a",
                methods=[MethodSig("open", 0, True, "com.a.Door"), MethodSig("close", 0)],
            )
        ]
    )
    e = _el("Door", 0)
    con = MemberCall(e, (("open", 0), ("close", 0)), static_call=True)
    res = solve(kb, [e], [con])
    assert res.typed == {e: "com.a.Door"}


def test_solve_cascaded_intermediate_return_outside_kb_fails():
    kb = KnowledgeBase(
        [
            _entry(
                "com.a.Door",
                lib="a",
                methods=[MethodSig("open", 0, True, "com.ext.Handle")],
            ),
            _entry(
                "org.b.Door",
                lib="b",
                methods=[
                    MethodSig("open", 0, True, "org.b.Door"),
                    MethodSig("shut", 0),
                ],
            ),
        ]
    )
    e = _el("Door", 0)
    con = MemberCall(e, (("open", 0), ("shut", 0)), static_call=True)
    res = solve(kb, [e], [con])
    assert res.typed == {e: "org.b.Door"}


def test_solve_declared_assignment_links_elements():
    kb = KnowledgeBase(
        [
            _entry(
                "com.a.Format",
                lib="a",
                methods=[MethodSig("parse", 1, False, "com.a.Time")],
            ),
            _entry("com.a.Time", lib="a"),
            _entry("org.b.Time", lib="b"),
        ]
    )
    fmt = _el("Format", 0)
    t = _el("Time", 1)
    con = DeclaredAssignment(t, MemberCall(fmt, (("parse", 1),), static_call=False))
    res = solve(kb, [fmt, t], [con])
    assert res.typed == {fmt: "com.a.Format", t: "com.a.Time"}


def test_solve_declared_assignment_accepts_declared_supertype():
    kb = KnowledgeBase(
        [
            _entry(
                "com.a.Maker", lib="a",
                methods=[MethodSig("make", 0, True, "com.a.Child")],
            ),
            _entry("com.a.Child", lib="a", supers=["com.a.Parent"]),
            _entry("com.a.Parent", lib="a"),
            _entry("org.b.Parent", lib="b"),
        ]
    )
    maker = _el("Maker", 0)
    parent = _el("Parent", 1)
    con = DeclaredAssignment(
        parent, MemberCall(maker, (("make", 0),), static_call=True)
    )
    res = solve(kb, [maker, parent], [con])
    assert res.typed[parent] == "com.a.Parent"


def test_solve_declared_assignment_unknown_return_imposes_nothing():
    kb = KnowledgeBase(
        [
            _entry("com.a.Maker", lib="a", methods=[MethodSig("make", 0, True, None)]),
            _entry("com.a.Thing", lib="a"),
        ]
    )
    maker = _el("Maker", 0)
    thing = _el("Thing", 1)
    con = DeclaredAssignment(thing, MemberCall(maker, (("make", 0),), static_call=True))
    res = solve(kb, [maker, thing], [con])
    assert res.typed == {maker: "com.a.Maker", thing: "com.a.Thing"}


def test_solve_prefers_fewer_libraries():
    kb = KnowledgeBase(
        [
            _entry("com.a.Left", lib="one"),
            _entry("com.z.Right", lib="one"),
            _entry("com.a.Right", lib="two"),
        ]
    )
    left = _el("Left", 0)
    right = _el("Right", 1)
    res = solve(kb, [left, right], [])
    # com.a.Right would be the lexicographic choice, but com.z.Right keeps
    # the assignment inside one library
    assert res.typed == {left: "com.a.Left", right: "com.z.Right"}


def test_solve_violated_optimum_untypes_touched_elements():
    kb = KnowledgeBase(
        [
            _entry("com.a.Lone", lib="a"),
            _entry("com.a.Needy", lib="a"),
        ]
    )
    lone = _el("Lone", 0)
    needy = _el("Needy", 1)
    con = MemberCall(needy, (("absent", 0),), static_call=False)
    res = solve(kb, [lone, needy], [con])
    assert res.typed == {lone: "com.a.Lone"}
    assert res.untyped == {needy}


def test_solve_out_of_coverage_untyped():
    kb = KnowledgeBase([_entry("com.a.Label")])
    e = _el("Label", 0, line=4)
    res = solve(kb, [e], [], excluded=frozenset({3, 4}))
    assert res.untyped == {e}


def test_solve_partial_ambiguity_only_unsettles_the_tied_element():
    kb = KnowledgeBase(
        [
            _entry("com.a.Fixed", lib="a", methods=[MethodSig("go", 0)]),
            _entry("com.a.Loose", lib="a"),
            _entry("com.b.Loose", lib="a"),
        ]
    )
    fixed = _el("Fixed", 0)
    loose = _el("Loose", 1)
    call = MemberCall(fixed, (("go", 0),), static_call=False)
    res = solve(kb, [fixed, loose], [call])
    assert res.typed == {fixed: "com.a.Fixed"}
    assert res.untyped == {loose}


def test_solve_unconstrained_unique_names_within_budget():
    """24 unique names with three candidates each from 48 libraries and no
    constraint: only the library count ranks the 3**24 assignments."""
    rng = random.Random(24)
    libs = [f"lib{j}" for j in range(48)]
    entries, elems = [], []
    for i in range(24):
        for lib in rng.sample(libs, 3):
            entries.append(_entry(f"{lib}.N{i}", lib=lib))
        elems.append(_el(f"N{i}", i, line=i + 1))
    kb = KnowledgeBase(entries)
    t0 = time.perf_counter()
    res = solve(kb, elems, [])
    elapsed = time.perf_counter() - t0
    assert elapsed < 5, f"solve took {elapsed:.2f}s (budget 5s)"
    assert set(res.typed) | set(res.untyped) == set(elems)
    assert all(fqn in kb.candidates_for(e.simple_name) for e, fqn in res.typed.items())


def _search_nodes(call):
    """The nodes the search visits while call() runs: the calls of its
    `dfs`, counted by a profile hook."""
    nodes = 0

    def hook(frame, event, arg):
        nonlocal nodes
        code = frame.f_code
        if (event == "call" and code.co_name == "dfs"
                and code.co_filename == constraint.__file__):
            nodes += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return nodes


@pytest.mark.parametrize(
    "text, nodes",
    [
        ("Composite c = new Composite();\n" * 40, 61157),
        ("Document d = null;\n" * 14, 32865),
        ("Label a; Document d; Button b;\n" * 12, 8191),
    ],
    ids=["composite-40", "document-14", "label-document-button-12"],
)
def test_cliff_shapes_visit_their_pinned_node_counts(kb, text, nodes):
    # a change to the search may lower a pinned count, never raise it
    sn = tokenize(text)
    assert _search_nodes(lambda: infer_with_engine(sn, kb, None, "constraint")) == nodes


def test_round_robin_cliff_visits_its_pinned_node_count():
    # three names over six libraries, cycled 42 times with no violation
    # anywhere: only the library count ranks the 3**42 assignments; a
    # change to the search may lower this count, never raise it
    libs = [list(test_properties._ROUND_ROBIN_LIBS[k % 3]) for k in range(42)]
    got = _search_nodes(lambda: constraint._search(libs, [[0, 0, 0]] * 42, {}))
    assert got == 245866


@pytest.mark.parametrize("n, nodes", [(8, 17), (16, 33)])
def test_violation_bound_counts_the_remaining_elements(n, nodes):
    # every candidate costs one violation, so each branch's violation bound
    # ties the first leaf's and the library bound cuts every branch that
    # mixes the two libraries: 2n + 1 nodes. Without the remaining
    # elements' fewest violations in the violation bound, it ties only at
    # the last element, and every mixed prefix is visited: 2^n + 1 nodes
    got = _search_nodes(lambda: constraint._search([["a", "b"]] * n, [[1, 1]] * n, {}))
    assert got == nodes


def test_solve_ignores_element_and_constraint_order():
    rng = random.Random(9012)
    for case in range(300):
        if case % 2:
            kb = test_properties._dense_kb(rng)
            elems = test_properties._dense_elements(rng)
            cons = test_properties._dense_constraints(rng, elems)
        else:
            kb = test_properties._random_kb(rng)
            elems = test_properties._random_elements(rng, max_elements=7)
            cons = test_properties._random_constraints(rng, elems)
        strict = rng.random() < 0.5
        want = solve(kb, elems, cons, strict_uniqueness=strict)
        for _ in range(3):
            rng.shuffle(elems)
            rng.shuffle(cons)
            got = solve(kb, elems, cons, strict_uniqueness=strict)
            assert dict(got.typed) == dict(want.typed), case
            assert got.untyped == want.untyped, case


def test_supertype_closure_is_cached_per_kb():
    full = KnowledgeBase(
        [
            _entry("a.Base"),
            _entry("a.Mid", supers=["a.Base"]),
            _entry("a.Leaf", supers=["a.Mid"]),
            _entry("b.Other"),
        ]
    )
    assert supertype_closure(full, "a.Leaf") == ("a.Leaf", "a.Mid", "a.Base")
    reduced = KnowledgeBase(full.entries[f] for f in reduce_kb(full, ["b.Other"]))
    with pytest.raises(UnknownTypeError):
        supertype_closure(reduced, "a.Leaf")
    # the same names with other edges are another KB, with its own closures
    flat = KnowledgeBase([_entry("a.Base"), _entry("a.Mid"), _entry("a.Leaf")])
    assert supertype_closure(flat, "a.Leaf") == ("a.Leaf",)
    mid, leaf = _el("Mid", 0), _el("Leaf", 1)
    link = DeclaredAssignment(mid, Construction(leaf))
    assert solve(full, [mid, leaf], [link]).typed == {mid: "a.Mid", leaf: "a.Leaf"}
    assert solve(flat, [mid, leaf], [link]).untyped == {mid, leaf}


# ---------------------------------------------------------------------------
# solving under a mask: each case is one the naive row filter gets wrong


def _under_mask(kb, elements, constraints, cantypes, extra=(), strict=True):
    """The masked solve, checked against `solve` on the KB rebuilt from the
    mask with and without a full-KB solve first (which arms the shortcut).

    Returns (masked result, naive result): the naive one keeps the full
    KB's check answers and only drops rows, as the rebuilt KB plus the types
    `extra` does when those types add no candidate."""
    mask = reduce_kb(kb, cantypes)
    rebuilt = KnowledgeBase(kb.entries[f] for f in sorted(mask))
    want = solve(rebuilt, elements, constraints, strict_uniqueness=strict)
    for full_first in (False, True):
        problem = ConstraintProblem(kb, elements, constraints, strict_uniqueness=strict)
        if full_first:
            problem.solve()
        assert problem.solve(mask) == want, full_first
    naive_kb = KnowledgeBase(kb.entries[f] for f in sorted(mask | set(extra)))
    return want, solve(naive_kb, elements, constraints, strict_uniqueness=strict)


def _chain_kb():
    # only com.a.Door's chain resolves, and only through com.m.Handle
    return KnowledgeBase(
        [
            _entry("com.a.Door", lib="a", methods=[MethodSig("open", 0, False, "com.m.Handle")]),
            _entry("org.b.Door", lib="b"),
            _entry("com.m.Handle", lib="m", methods=[MethodSig("turn", 0)]),
        ]
    )


def test_mask_fails_a_chain_whose_intermediate_type_it_drops():
    kb = _chain_kb()
    door = _el("Door", 0)
    chain = MemberCall(door, (("open", 0), ("turn", 0)), static_call=False)
    assert solve(kb, [door], [chain]).typed == {door: "com.a.Door"}
    for strict in (True, False):
        got, naive = _under_mask(
            kb, [door], [chain], ["com.a.Door", "org.b.Door"],
            extra=["com.m.Handle"], strict=strict,
        )
        # without com.m.Handle neither candidate resolves the chain
        assert got.typed == {} and got.untyped == {door}
        assert naive.typed == {door: "com.a.Door"}


def test_mask_drops_an_assignment_whose_value_type_it_drops():
    kb = KnowledgeBase(
        [
            _entry("com.a.Maker", lib="a", methods=[MethodSig("make", 0, False, "com.v.Value")]),
            _entry("com.a.Box", lib="a"),
            _entry("org.b.Box", lib="b"),
            _entry("com.v.Value", lib="v"),
        ]
    )
    maker, box = _el("Maker", 0), _el("Box", 1)
    # Box b = maker.make();
    link = DeclaredAssignment(box, MemberCall(maker, (("make", 0),), static_call=False))
    # on the loaded KB no Box holds a com.v.Value, so both elements abstain
    assert solve(kb, [maker, box], [link]).untyped == {maker, box}
    got, naive = _under_mask(
        kb, [maker, box], [link], ["com.a.Maker", "com.a.Box", "org.b.Box"],
        extra=["com.v.Value"],
    )
    # under the mask the value type is unknown, so the link imposes nothing
    assert got.typed == {maker: "com.a.Maker", box: "com.a.Box"}
    assert naive.untyped == {maker, box}


def test_mask_drops_a_self_assignment_whose_value_type_it_drops():
    kb = KnowledgeBase(
        [
            _entry("com.a.Box", lib="a", methods=[MethodSig("copy", 0, False, "com.v.Value")]),
            _entry("com.v.Value", lib="v"),
        ]
    )
    box = _el("Box", 0)
    # Box b = b.copy(); the declared element is the call's own subject
    link = DeclaredAssignment(box, MemberCall(box, (("copy", 0),), static_call=False))
    assert solve(kb, [box], [link]).untyped == {box}
    got, naive = _under_mask(kb, [box], [link], ["com.a.Box"], extra=["com.v.Value"])
    assert got.typed == {box: "com.a.Box"}
    assert naive.untyped == {box}


def test_mask_searches_again_after_a_full_kb_tie():
    kb = _kb_two_labels()
    label = _el("Label", 0)
    # strict: the loaded KB's two Labels tie, so the element abstains
    assert solve(kb, [label], []).untyped == {label}
    got, _ = _under_mask(kb, [label], [], ["com.a.Label"])
    assert got.typed == {label: "com.a.Label"}


def test_mask_searches_again_when_it_drops_the_full_kb_optimum():
    kb = KnowledgeBase(
        [
            _entry("com.a.Door", lib="a", methods=[MethodSig("open", 0)]),
            _entry("org.b.Door", lib="b"),
        ]
    )
    door = _el("Door", 0)
    call = MemberCall(door, (("open", 0),), static_call=False)
    assert solve(kb, [door], [call]).typed == {door: "com.a.Door"}
    got, _ = _under_mask(kb, [door], [call], ["org.b.Door"])
    assert got.typed == {} and got.untyped == {door}


def test_mask_searches_again_when_a_check_depends_on_a_dropped_type():
    kb = _chain_kb()
    door, other = _el("Door", 0), _el("Door", 1)
    chain = MemberCall(door, (("open", 0), ("turn", 0)), static_call=False)
    call = MemberCall(other, (("open", 0),), static_call=False)
    # the full-KB optimum is unique and both its values are in the mask, but
    # the chain's intermediate type com.m.Handle is not
    assert solve(kb, [door, other], [chain, call]).typed == {
        door: "com.a.Door", other: "com.a.Door"
    }
    got, naive = _under_mask(
        kb, [door, other], [chain, call], ["com.a.Door", "org.b.Door"],
        extra=["com.m.Handle"],
    )
    assert got.typed == {other: "com.a.Door"} and got.untyped == {door}
    assert naive.typed == {door: "com.a.Door", other: "com.a.Door"}



def _count_solve_work(monkeypatch):
    """Count the calls to the tabulation and to the search."""
    calls = {"_tabulate": 0, "_search": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(constraint, name)):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(constraint, name, counted)
    return calls


def test_mask_that_keeps_the_unique_optimum_and_its_consulted_types_reuses_it(
    monkeypatch,
):
    kb = _chain_kb()
    door, other = _el("Door", 0), _el("Door", 1)
    chain = MemberCall(door, (("open", 0), ("turn", 0)), static_call=False)
    call = MemberCall(other, (("open", 0),), static_call=False)
    problem = ConstraintProblem(kb, [door, other], [chain, call])
    full = problem.solve()
    assert full.typed == {door: "com.a.Door", other: "com.a.Door"}
    calls = _count_solve_work(monkeypatch)
    # com.m.Handle is the type com.a.Door's chain consulted
    kept = reduce_kb(kb, ["com.a.Door", "org.b.Door", "com.m.Handle"])
    assert problem.solve(kept) is full
    assert calls == {"_tabulate": 0, "_search": 0}
    # without it the chain no longer resolves, so the mask is searched
    dropped = reduce_kb(kb, ["com.a.Door", "org.b.Door"])
    got = problem.solve(dropped)
    assert got.typed == {other: "com.a.Door"} and got.untyped == {door}
    assert calls == {"_tabulate": 1, "_search": 1}


def _kb_three_labels():
    # a Label must be a class: com.a.Label and org.b.Label tie, each alone
    # in its library, and the interface net.c.Label is never optimal
    return KnowledgeBase(
        [
            _entry("com.a.Label", lib="liba"),
            _entry("org.b.Label", lib="libb"),
            _entry("net.c.Label", kind="interface", lib="libc"),
        ]
    )


def test_mask_that_keeps_every_optimum_of_a_tie_reuses_it(monkeypatch):
    kb = _kb_three_labels()
    label = _el("Label", 0)
    make = Construction(label)
    kept = reduce_kb(kb, ["com.a.Label", "org.b.Label"])
    calls = _count_solve_work(monkeypatch)
    for strict in (True, False):
        problem = ConstraintProblem(kb, [label], [make], strict_uniqueness=strict)
        full = problem.solve()
        assert full.typed == ({} if strict else {label: "com.a.Label"})
        searched = dict(calls)
        assert problem.solve(kept) is full
        assert calls == searched, strict
    assert calls == {"_tabulate": 2, "_search": 2}


def test_mask_that_drops_an_optimal_value_of_a_tie_searches_again(monkeypatch):
    kb = _kb_three_labels()
    label = _el("Label", 0)
    make = Construction(label)
    mask = reduce_kb(kb, ["com.a.Label", "net.c.Label"])
    rebuilt = KnowledgeBase(kb.entries[f] for f in sorted(mask))
    want = solve(rebuilt, [label], [make])
    problem = ConstraintProblem(kb, [label], [make])
    assert problem.solve().untyped == {label}
    calls = _count_solve_work(monkeypatch)
    # without org.b.Label the tie is gone, so the element is typed
    assert problem.solve(mask) == want
    assert want.typed == {label: "com.a.Label"}
    assert calls == {"_tabulate": 1, "_search": 1}


def test_run_on_a_tied_fixture_snippet_solves_once(kb, model, by_id, monkeypatch):
    # the loaded KB's optima of 3954392 disagree on Document[7,1], and its
    # second round's mask keeps every one of them
    item = by_id["3954392"]
    calls = _count_solve_work(monkeypatch)
    _, trace = run(item.snippet, kb, model)
    assert len(trace) > 1
    assert any(e.key == "Document[7,1]" for e in trace[0].constraint_result.untyped)
    assert calls == {"_tabulate": 1, "_search": 1}


def test_the_elements_of_one_name_reach_the_search_with_one_library_list(
    kb, monkeypatch
):
    # the search's tie-order memo and the masked filter both key on that
    # list's identity; per-element lists give the same answers, slower
    sn = tokenize(
        "Document a = null; Composite b; Document c = null;\n"
        "Composite d = new Composite(); Document e = null;\n"
    )
    elements = identify_api_elements(sn, kb)
    constraints, excluded = extract_constraints(sn, elements)
    names = [e.simple_name for e in sorted(elements, key=lambda e: e.token_index)]
    assert not excluded and len(set(names)) < len(names)
    searched = []

    def capture(libs, unary, pairs, _inner=constraint._search):
        searched.append(libs)
        return _inner(libs, unary, pairs)

    monkeypatch.setattr(constraint, "_search", capture)
    # a mask that keeps every candidate, so every element is searched
    mask = reduce_kb(kb, [c for name in names for c in kb.candidates_for(name)])
    for m in (None, mask):
        ConstraintProblem(kb, elements, constraints, excluded).solve(m)
    assert len(searched) == 2
    for libs in searched:
        assert len(libs) == len(names)
        for i in range(len(names)):
            for j in range(i):
                assert (libs[i] is libs[j]) == (names[i] == names[j]), (i, j)


def test_every_search_of_the_fixture_corpus_tabulates_once(
    kb, model, eval_items, monkeypatch
):
    calls = _count_solve_work(monkeypatch)
    for item in eval_items:
        run(item.snippet, kb, model)
    # every full-KB solve searches; a masked one searches only when its
    # mask drops an optimal value or a consulted type
    assert calls == {"_tabulate": 19, "_search": 19}
