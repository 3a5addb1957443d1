"""Randomized invariant suites.

Every suite drives a seeded random.Random generator for at least one
thousand cases, so failures reproduce deterministically. The solver suite
checks the search against an independent brute-force enumerator written
from the documented scoring rule, not against the implementation.
"""

import itertools
import json
import math
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from test_loader_fuzz import _mutate
from test_stat import _row_items, _rows

from fqninfer.constraint import (
    ConstraintProblem,
    Construction,
    ConstraintResult,
    DeclaredAssignment,
    FieldAccess,
    MemberCall,
    Supertype,
    _parse_args,
    _search,
    _tabulate,
    extract_constraints,
    solve,
)
from fqninfer.kb import (
    FieldSig,
    KbError,
    KnowledgeBase,
    MethodSig,
    TypeEntry,
    _parse_kb,
    dump_kb,
    field_in_knowledge,
    load_kb,
    method_in_knowledge,
    reduce_kb,
    supertype_closure,
)
from fqninfer.orchestrator import (
    ORDER_STAT_FIRST,
    CombinedResult,
    RoundRecord,
    RunConfig,
    combine,
    infer_with_engine,
    run,
)
from fqninfer.scoring import (
    GroundTruth,
    SnippetScore,
    aggregate,
    score_snippet,
    training_pairs,
)
from fqninfer.snippet import (
    ApiElement,
    BOXED_NAMES,
    JAVA_KEYWORDS,
    Header,
    TokenKind,
    augment,
    identify_api_elements,
    plain,
    read_utf8,
    tokenize,
)
from fqninfer.stat import (
    _HEADER,
    CandidateList,
    CooccurrenceModel,
    ModelFormatError,
    _check_settings,
    _score,
    _shown,
    context_window,
    dump_model,
    filter_against_kb,
    load_model,
    predict_all,
    predict_topk,
    save_model,
    train,
)

_NAMES = ("Alpha", "Beta", "Gamma", "Delta")
_PACKAGES = ("aa.bb", "cc.dd", "ee.ff")
_LIBRARIES = ("libx", "liby", "libz")
_METHOD_POOL = (("m", 0), ("m", 1), ("n", 0), ("go", 2))


def _random_kb(rng):
    """A small KB over four simple names, with random members and edges.

    Supertype edges may form cycles on purpose; closure code must tolerate
    them. Return types sometimes point outside the KB.
    """
    fqns = []
    for name in _NAMES:
        for pkg in rng.sample(_PACKAGES, rng.randint(1, 3)):
            fqns.append(f"{pkg}.{name}")
    entries = []
    for fqn in fqns:
        supers = frozenset(
            s for s in rng.sample(fqns, min(2, len(fqns))) if s != fqn
        ) if rng.random() < 0.5 else frozenset()
        methods = []
        for mname, arity in rng.sample(_METHOD_POOL, rng.randint(0, 3)):
            returns = rng.choice((None, "zz.Out", rng.choice(fqns)))
            methods.append(MethodSig(mname, arity, rng.random() < 0.3, returns))
        fields = [
            FieldSig(fname, None, rng.random() < 0.5)
            for fname in rng.sample(("f", "g"), rng.randint(0, 2))
        ]
        entries.append(
            TypeEntry(
                fqn,
                "interface" if rng.random() < 0.25 else "class",
                rng.choice(_LIBRARIES),
                frozenset(methods),
                frozenset(fields),
                supers,
                frozenset(("java.lang.Object",)) if rng.random() < 0.3 else frozenset(),
            )
        )
    return KnowledgeBase(entries)


# ---------------------------------------------------------------------------
# KB masks: closure, closure preservation, monotonicity, index, round-trip


def test_kb_reduction_properties(tmp_path):
    rng = random.Random(9001)
    path = tmp_path / "random.kb"
    for case in range(1000):
        kb = _random_kb(rng)
        fqns = sorted(kb.entries)
        wide = rng.sample(fqns, rng.randint(0, len(fqns)))
        narrow = rng.sample(wide, rng.randint(0, len(wide)))

        mask = reduce_kb(kb, wide)
        # every candidate type with its supertype closure, and nothing else
        assert mask == {f for t in wide for f in supertype_closure(kb, t)}, case
        assert all(set(supertype_closure(kb, f)) <= mask for f in mask), case
        # the KB under the mask keeps every retained type's closure
        reduced = KnowledgeBase(kb.entries[f] for f in sorted(mask))
        for fqn in mask:
            assert supertype_closure(reduced, fqn) == supertype_closure(kb, fqn), case
        # monotonicity of the mask
        assert reduce_kb(kb, narrow) <= mask, case
        # the reduced simple-name index is the loaded one filtered by the mask
        for name in _NAMES:
            assert reduced.candidates_for(name) == tuple(
                f for f in kb.candidates_for(name) if f in mask
            ), case
        # serialization round-trips byte-identically
        if case % 10 == 0:
            text = dump_kb(kb)
            path.write_text(text, encoding="utf-8")
            assert dump_kb(load_kb(path)) == text, case


# ---------------------------------------------------------------------------
# lossless lexing


_LEX_PIECES = (
    "Alpha", "beta", "x9", "_f", "new", "class", "extends", "implements",
    " ", "  ", "\t", "\n", "\r\n", "(", ")", "{", "}", "[", "]", ".", ",",
    ";", "=", "+", "-", "*", "/", "<", ">", "@", "\"", "'", "\\", "0", "42",
    "3.14", "0x1F", "\"text\"", "'c'", "// note", "/* block */", "/*", "*/",
    "\"unterminated", "'x", "λ", "é", "::",
)


def _triples(sn):
    """(lexeme, kind, line) of every token, zipped from the columns, which
    must be of one length."""
    return list(zip(sn.lexemes, sn.kinds, sn.lines, strict=True))


def test_lossless_lexing_roundtrip():
    rng = random.Random(9002)
    for case in range(1500):
        raw = "".join(
            rng.choice(_LEX_PIECES) for _ in range(rng.randint(0, 40))
        )
        sn = tokenize(raw)
        assert "".join(sn.lexemes) == raw, case
        assert _triples(tokenize(raw)) == _triples(sn), case


# The lexer as a match loop: one regex match per position, the kind read
# from the group in a chain of tests, and a single-character punctuation
# token wherever no alternative matches.
_MATCH_LOOP_RE = re.compile(
    r"""
    (?P<comment>//[^\n]*|/\*.*?\*/|/\*.*)           # line, block, unterminated block
    |(?P<whitespace>\s+)
    |(?P<string>"(?:\\.|[^"\\\n])*(?:"|(?=\n)|$))    # string, unterminated stops at EOL
    |(?P<char>'(?:\\.|[^'\\\n])*(?:'|(?=\n)|$))
    |(?P<number>
        0[xX][0-9a-fA-F_]+[lL]?
        |0[bB][01_]+[lL]?
        |\d[\d_]*\.\d[\d_]*(?:[eE][+-]?\d+)?[fFdD]?
        |\.\d[\d_]*(?:[eE][+-]?\d+)?[fFdD]?
        |\d[\d_]*(?:[eE][+-]?\d+)?[fFdDlL]?
     )
    |(?P<identifier>[A-Za-z_$][A-Za-z0-9_$]*)
    """,
    re.VERBOSE | re.DOTALL,
)


def _match_loop_tokens(text):
    """Reference lexer: (lexeme, kind, line) of every token."""
    tokens = []
    pos = 0
    line = 1
    while pos < len(text):
        m = _MATCH_LOOP_RE.match(text, pos)
        if m and m.end() > pos:
            lexeme = m.group(0)
            group = m.lastgroup
            if group == "comment":
                kind = TokenKind.COMMENT
            elif group == "whitespace":
                kind = TokenKind.WHITESPACE
            elif group in ("string", "char", "number"):
                kind = TokenKind.LITERAL
            elif lexeme in JAVA_KEYWORDS:
                kind = TokenKind.KEYWORD
            else:
                kind = TokenKind.IDENTIFIER
        else:
            lexeme = text[pos]
            kind = TokenKind.PUNCT
        tokens.append((lexeme, kind, line))
        line += lexeme.count("\n")
        pos += len(lexeme)
    return tokens


# Pieces whose lexemes hold a newline in every token kind that can: an
# escaped newline in a string or char literal (closed or not), block
# comments closed and not, whitespace runs with "\r\n".
_LEX_DIFF_PIECES = _LEX_PIECES + (
    "'\\\n", "\"\\\n", "'\\\n'", "\"a\\\nb\"", "'\\\r\n", "\"\\\r\n",
    "/* a\nb */", "/* open\n", "\r\n\r\n", " \n\t", "#", "$", "$x", "\\",
    "ü", "ß", "日本", "é1", "\u00a0", "\u2028", "\"ü", "'\\u00e9'",
    "1_000L", "0b1_0", ".5e3f", "//\n", "\r",
)


def test_tokenize_matches_match_loop_lexer():
    rng = random.Random(9012)
    spanning = {"\"": 0, "'": 0, "/*": 0}
    for case in range(3000):
        raw = "".join(
            rng.choice(_LEX_DIFF_PIECES) for _ in range(rng.randint(0, 40))
        )
        got = _triples(tokenize(raw))
        assert got == _match_loop_tokens(raw), (case, raw)
        for lexeme, kind, _ in got:
            if "\n" in lexeme and kind in (TokenKind.LITERAL, TokenKind.COMMENT):
                spanning[lexeme[:2] if kind is TokenKind.COMMENT else lexeme[0]] += 1
    # the soups must hold literals and comments that span lines, or the
    # line count of those kinds goes unchecked
    assert min(spanning.values()) >= 50, spanning


# Characters at the edges of the lexer's classes: quotes and the backslash
# that can make a literal fail, the starts of comments and numbers, letters
# inside and outside hex and exponent syntax, ASCII and Unicode whitespace
# (the information separator \x1c is `\s` too), a non-ASCII letter and a
# Unicode decimal digit, which `\d` reads as a number.
_LEX_BOUNDARY_CHARS = "\"'\\/*.0exaA_(\n\r \x1c\xa0\u2028\xe9\u0660"


def test_tokenize_matches_match_loop_lexer_on_every_short_string():
    texts = [
        "".join(chars)
        for n in range(4)
        for chars in itertools.product(_LEX_BOUNDARY_CHARS, repeat=n)
    ]
    assert len(texts) == 9724
    for raw in texts:
        got = _triples(tokenize(raw))
        assert got == _match_loop_tokens(raw), raw


# ---------------------------------------------------------------------------
# bracket partners


def _real(structure):
    """The number of significant tokens: the positions before the pads."""
    return structure.positions.index(None)


def _matching_paren(lexemes, i_open):
    """Reference: the ')' where the depth count from lexemes[i_open]
    returns to zero, or None when it never does. The pads' empty lexemes
    count nothing."""
    depth = 0
    for k in range(i_open, len(lexemes)):
        lex = lexemes[k]
        if lex == "(":
            depth += 1
        elif lex == ")":
            depth -= 1
            if depth == 0:
                return k
    return None


def _body(lexemes, n, end):
    """Reference: open and close of the body that starts where a header
    ends, in padded columns of n significant tokens; an unterminated body
    runs to the last significant position."""
    if end >= n or lexemes[end] != "{":
        return None, None
    depth = 0
    for k in range(end, n):
        lex = lexemes[k]
        if lex == "{":
            depth += 1
        elif lex == "}":
            depth -= 1
            if depth == 0:
                return end, k
    return end, n - 1


_BRACKET_PIECES = (
    "(", ")", "{", "}", ";", "class", "new", "A", "b", "Label", "of", ".",
    "( { ) }", "{ ( } )", "class A {", "f(g(", "))", "}}",
)


def test_bracket_partners_match_reference_scans():
    rng = random.Random(9007)
    for case in range(2000):
        raw = " ".join(
            rng.choice(_BRACKET_PIECES) for _ in range(rng.randint(0, 30))
        )
        sn = tokenize(raw)
        structure = sn.structure
        lexemes, n = structure.lexemes, _real(structure)
        # each column is the snippet's column at the positions of the
        # tokens that are no whitespace or comment, then pads
        real = structure.positions[:n]
        layout = (TokenKind.WHITESPACE, TokenKind.COMMENT)
        assert real == tuple(i for i, k in enumerate(sn.kinds) if k not in layout), case
        for col, source, pad in (
            (lexemes, sn.lexemes, ""),
            (structure.kinds, sn.kinds, TokenKind.WHITESPACE),
            (structure.lines, sn.lines, 0),
        ):
            assert col == tuple(source[i] for i in real) + (pad,) * 3, (case, raw)
        assert structure.positions[n:] == (None,) * 3, (case, raw)
        expected = {}
        for i in range(n):
            if lexemes[i] == "(" and _matching_paren(lexemes, i) is not None:
                expected[i] = _matching_paren(lexemes, i)
            elif lexemes[i] == "{":
                expected[i] = _body(lexemes, n, i)[1]
        assert dict(structure.partner) == expected, (case, raw)
        # every declaration keyword heads one header, whose body starts at
        # the first '{' or ';' from the keyword on
        bodies = []
        for j in range(n):
            if lexemes[j] in ("class", "interface", "enum"):
                end = j
                while end < n and lexemes[end] not in ("{", ";"):
                    end += 1
                bodies.append(_body(lexemes, n, end))
        assert [(h.open, h.close) for h in structure.headers] == bodies, (case, raw)


_PRIMITIVE_WORDS = ("boolean", "byte", "char", "short", "int", "long", "float", "double")


def _type_arguments_close(structure, k, close):
    """Reference: the position of the '>' closing the type arguments of the
    name the `new` at position k constructs, or None. The name is the last
    identifier of the run `a.b.Name` after `new`; its type arguments start
    at the '<' right after it, and every token up to the '>' that brings
    the count of '<' and '>' back to zero must be an identifier, '.', ',',
    '?', `extends`, `super`, '<', '>', a '[' before ']', a ']' after '[',
    or a primitive keyword before '[' ']'."""
    lexemes, kinds = structure.lexemes, structure.kinds
    run, m = [], k + 1
    while kinds[m] is TokenKind.IDENTIFIER:
        run.append(m)
        if lexemes[m + 1] != ".":
            break
        m += 2
    if not run or lexemes[run[-1] + 1] != "<":
        return None
    level = 0
    for t in range(run[-1] + 1, close):
        lex = lexemes[t]
        allowed = (
            kinds[t] is TokenKind.IDENTIFIER
            or lex in (".", ",", "?", "extends", "super", "<", ">")
            or (lex == "[" and lexemes[t + 1] == "]")
            or (lex == "]" and lexemes[t - 1] == "[")
            or (lex in _PRIMITIVE_WORDS and lexemes[t + 1 : t + 3] == ("[", "]"))
        )
        if not allowed:
            return None
        level += {"<": 1, ">": -1}.get(lex, 0)
        if level == 0:
            return t
    return None


def _arity_scan(structure, i_open, close, type_arguments=True):
    """Reference: one more than the commas inside (i_open, close) where a
    depth count, '(', '[' or '{' up and ')', ']' or '}' down, is back at
    zero. With type_arguments, a `new` whose constructed name has type
    arguments that close (`_type_arguments_close`) is up too, and the '>'
    that closes them down."""
    lexemes = structure.lexemes
    if close == i_open + 1:
        return 0
    arity, depth, angle_close = 1, 0, None
    for k in range(i_open + 1, close):
        lex = lexemes[k]
        if lex == "new" and type_arguments:
            angle_close = _type_arguments_close(structure, k, close)
            depth += angle_close is not None
        elif k == angle_close:
            depth -= 1
        elif lex in ("(", "[", "{"):
            depth += 1
        elif lex in (")", "]", "}"):
            depth -= 1
        elif lex == "," and depth == 0:
            arity += 1
    return arity


_ARG_PIECES = (
    "(", ")", "[", "]", "{", "}", ",", ",", "a", "f(", "x, y", "])",
    "<", ">", "new A<", "new a.B<C<", "new A<x, y>(", "new A",
    "new A<int[], b>(", "new a.B<C, D>(", "new A<b, 1>(", "new A<int, b>(", "int",
    "new a.",
)


def test_argument_arity_matches_reference_scan():
    rng = random.Random(9013)
    checked = angled = 0
    for case in range(3000):
        raw = " ".join(rng.choice(_ARG_PIECES) for _ in range(rng.randint(0, 40)))
        structure = tokenize(raw).structure
        lexemes = structure.lexemes
        for i in range(_real(structure)):
            if lexemes[i] != "(":
                continue
            close = structure.partner.get(i)
            want = None if close is None else (_arity_scan(structure, i, close), close)
            assert _parse_args(structure, i) == want, (case, raw, i)
            checked += close is not None and close > i + 1
            angled += want is not None and want[0] != _arity_scan(
                structure, i, close, type_arguments=False
            )
    # the soups must hold argument lists whose type arguments hide commas
    assert checked >= 3000 and angled >= 100, (checked, angled)


_IDENTIFIER = TokenKind.IDENTIFIER
_TYPE_ARGUMENT_WORDS = frozenset((".", ",", "?", "extends", "super"))
_PRIMITIVES = frozenset(_PRIMITIVE_WORDS)


def _type_end(lex, kind, j):
    """Reference: the scan that read type arguments from the name at j on,
    once per call, before the structure walk paired them; kept verbatim.

    Position just past the type name at position j and its closed type
    arguments `<...>`, or j + 1. Type arguments hold only identifiers, '.',
    ',', '?', `extends`, `super`, '[]', a primitive keyword before '[]' and
    nested `<...>`, so `A < b && c > d` and `List<int>` have none."""
    k = j + 1
    if lex[k] != "<":
        return k
    level = 0
    while True:  # a pad ends the scan
        lx = lex[k]
        if lx == "<":
            level += 1
        elif lx == ">":
            level -= 1
            if not level:
                return k + 1
        elif lx == "[" and lex[k + 1] == "]":
            k += 1
        elif (kind[k] is not _IDENTIFIER and lx not in _TYPE_ARGUMENT_WORDS
              and not (lx in _PRIMITIVES and lex[k + 1] == "[")):
            return j + 1
        k += 1


_TYPE_ARGUMENT_PIECES = (
    "A", "b", "a.B", "x.y", "<", "<", ">", ">", ">>", ",", "?", "extends", "super",
    "[]", "[", "]", "int", "long[]", "&&", "new", "(", ")", "=", ";", "1", "void",
    "Map<K, V>", "List<? extends T[]>", "Set<? super a.B>", "A<B<C>>", "A<int[][]>",
    "new A<b>(", "x < y", "c > d", "a < b && c > d",
)


def test_type_argument_lookup_matches_reference_scan():
    """The structure's type-argument ends against the per-name scan, at
    every position (and at -1, where `new` constructs no name) of the
    `_ARG_PIECES` soups, of soups of type-argument pieces, and of every
    fixture `.java` file, corpus and training snippets alike."""
    rng = random.Random(9041)
    fixtures = sorted((Path(__file__).parent / "fixtures").rglob("*.java"))
    sources = {
        "fixtures": [read_utf8(p) for p in fixtures],
        "argument soups": [" ".join(rng.choice(_ARG_PIECES) for _ in range(rng.randint(0, 40)))
                           for _ in range(1500)],
        "type-argument soups": [
            " ".join(rng.choice(_TYPE_ARGUMENT_PIECES) for _ in range(rng.randint(0, 40)))
            for _ in range(1500)],
    }
    scans = {}  # source -> [closed scans, failed scans]
    for source, texts in sources.items():
        closed = failed = 0
        for raw in texts:
            structure = tokenize(raw).structure
            lex, kind = structure.lexemes, structure.kinds
            for j in range(-1, _real(structure)):
                want = _type_end(lex, kind, j)
                assert structure.type_arguments.get(j + 1, j + 1) == want, (raw, j)
                closed += want > j + 1
                failed += want == j + 1 and lex[j + 1] == "<"
        scans[source] = [closed, failed]
    # each soup must hold both closed and failed scans
    assert len(fixtures) >= 30, len(fixtures)
    assert all(min(scans[soup]) >= 2000 for soup in list(sources)[1:]), scans


# ---------------------------------------------------------------------------
# the one structure walk


def _full_stream_words(sn):
    """Reference: (lines, token indices) of every identifier and literal,
    by a filter of the whole token stream."""
    words = (TokenKind.IDENTIFIER, TokenKind.LITERAL)
    indices = tuple([i for i, k in enumerate(sn.kinds) if k in words])
    return tuple([sn.lines[i] for i in indices]), indices


def _second_scan_headers(structure):
    """Reference: the headers and clauses read by a second scan of the
    significant tokens for declaration keywords."""
    lex, kind, n = structure.lexemes, structure.kinds, _real(structure)
    declarations = ("class", "interface", "enum")
    headers, clauses = [], {}
    j = 0
    while j < n:
        if kind[j] is not TokenKind.KEYWORD or lex[j] not in declarations:
            j += 1
            continue
        end = j
        while end < n and lex[end] not in ("{", ";"):
            end += 1
        open_ = close = None
        if lex[end] == "{":
            open_, close = end, structure.partner[end]
        clause = first = latest_named = owner = None
        for k in range(j, end):
            if kind[k] is TokenKind.KEYWORD and lex[k] in declarations:
                name = lex[k + 1] if kind[k + 1] is TokenKind.IDENTIFIER else None
                header = Header(lex[k], name, open_, close)
                headers.append(header)
                first = first or header
                latest_named = header if name is not None else latest_named
            elif kind[k] is TokenKind.KEYWORD and lex[k] in ("extends", "implements"):
                clause, owner = lex[k], latest_named or first
            elif clause is not None and kind[k] is TokenKind.IDENTIFIER:
                clauses[k] = (clause, owner)
        j = end
    return tuple(headers), clauses


def _full_stream_window(aug, element, eta):
    """Reference: the context window by a filter of the whole token
    stream."""
    sn = aug.source
    return [
        aug.lexemes[i]
        for i, k in enumerate(sn.kinds)
        if k in (TokenKind.IDENTIFIER, TokenKind.LITERAL)
        and abs(sn.lines[i] - element.line) <= eta
        and i != element.token_index
    ]


def test_structure_walk_matches_full_stream_and_second_scan():
    """Every fixture snippet and the seeded soups of the lexer, bracket and
    augmentation suites: the word columns are the full stream's words,
    headers and clauses those of a second scan, and every context window,
    eta 0 to 3, the full stream's."""
    rng = random.Random(9031)
    fixtures = sorted((Path(__file__).parent / "fixtures").rglob("*.java"))
    texts = [read_utf8(p) for p in fixtures]
    for _ in range(600):
        texts.append("".join(rng.choice(_LEX_DIFF_PIECES) for _ in range(rng.randint(0, 40))))
        texts.append(" ".join(rng.choice(_BRACKET_PIECES) for _ in range(rng.randint(0, 30))))
        texts.append(_random_snippet_text(rng))
    headers = clauses = windows = 0
    for case, raw in enumerate(texts):
        sn = tokenize(raw)
        structure = sn.structure
        words = (structure.word_lines, structure.word_indices)
        assert words == _full_stream_words(sn), (case, raw)
        want = _second_scan_headers(structure)
        assert (structure.headers, dict(structure.clauses)) == want, (case, raw)
        headers += len(want[0])
        clauses += len(want[1])
        elements = identify_api_elements(sn)
        aug = augment(sn, {e: f"x.y.{e.simple_name}" for e in elements[::2]})
        # a target may sit on any token, a word or not
        targets = elements + [
            ApiElement("T", sn.lines[i], 1, i)
            for i in rng.sample(range(len(sn.lexemes)), min(3, len(sn.lexemes)))
        ]
        for target in targets:
            for eta in range(4):
                got = context_window(aug, target, eta)
                assert got == _full_stream_window(aug, target, eta), (case, raw, target, eta)
                windows += bool(got)
    assert len(fixtures) >= 30 and headers >= 1000 and clauses >= 300, (headers, clauses)
    assert windows >= 10000, windows


# ---------------------------------------------------------------------------
# augmentation alignment and window correctness


def _random_snippet_text(rng):
    names = ("Alpha", "Beta", "Gamma", "Zeta")
    low = ("a", "b", "c")
    meths = ("run", "go")
    lines = []
    for _ in range(rng.randint(1, 6)):
        t = rng.choice(names)
        t2 = rng.choice(names)
        v = rng.choice(low)
        v2 = rng.choice(low)
        m = rng.choice(meths)
        lines.append(
            rng.choice(
                (
                    f"{t} {v} = new {t2}();",
                    f"{t} {v};",
                    f"{t}.{m}(\"lit\");",
                    f"{v} = ({t}) {v2};",
                    f"public class Body extends {t} implements {t2} {{",
                    f"@{t}",
                    f"// {t} mention",
                    f"int {v} = 42;",
                    f"{v}.{m}({v2});",
                    f"String {v} = \"s\";",
                    f"Integer {v} = 7;",
                )
            )
        )
    text = "\n".join(lines)
    return text + "\n" if rng.random() < 0.5 else text


def test_augmentation_alignment():
    rng = random.Random(9003)
    for case in range(1000):
        sn = tokenize(_random_snippet_text(rng))
        elems = identify_api_elements(sn)
        assert identify_api_elements(sn) == elems, case

        # occurrence numbering is 1..n within (name, line), in token order
        by_slot = {}
        for e in elems:
            by_slot.setdefault((e.simple_name, e.line), []).append(e.occurrence)
        for occs in by_slot.values():
            assert occs == list(range(1, len(occs) + 1)), case
        # the exclusion list is honored
        assert all(e.simple_name not in BOXED_NAMES for e in elems), case
        assert all(e.simple_name != "String" for e in elems), case

        chosen = rng.sample(elems, rng.randint(0, len(elems)))
        mapping = {}
        for e in chosen:
            name = e.simple_name if rng.random() < 0.8 else rng.choice(_NAMES)
            mapping[e] = f"{rng.choice(_PACKAGES)}.{name}"
        aug = augment(sn, mapping)

        assert len(aug.lexemes) == len(sn.lexemes), case
        changed = {
            i
            for i, (old, new) in enumerate(zip(sn.lexemes, aug.lexemes))
            if old != new
        }
        assert changed == {e.token_index for e in mapping}, case
        # the augmented text keeps every token on its source line
        assert aug.text().count("\n") == sn.raw.count("\n"), case
        for e, fqn in mapping.items():
            idx = e.token_index
            assert aug.lexemes[idx] == fqn, case
            assert sn.kinds[idx] is TokenKind.IDENTIFIER, case
            assert "".join(aug.lexemes[:idx]).count("\n") + 1 == sn.lines[idx], case
        assert augment(sn, {}).lexemes == sn.lexemes, case

        if elems:
            target = rng.choice(elems)
            eta = rng.randint(0, 2)
            expected = [
                lexeme
                for i, (lexeme, kind, line) in enumerate(
                    zip(aug.lexemes, sn.kinds, sn.lines, strict=True)
                )
                if kind in (TokenKind.IDENTIFIER, TokenKind.LITERAL)
                and target.line - eta <= line <= target.line + eta
                and i != target.token_index
            ]
            assert context_window(aug, target, eta) == expected, case


# ---------------------------------------------------------------------------
# solver versus a brute-force enumerator


def _walk_chain(kb, start, chain, static_call):
    cur = start
    ret = None
    for idx, (mname, arity) in enumerate(chain):
        sig = method_in_knowledge(
            kb, cur, mname, arity, require_static=static_call and idx == 0
        )
        if sig is None:
            return False, None
        ret = sig.return_fqn
        if idx < len(chain) - 1:
            if ret is None or ret not in kb:
                return False, None
            cur = ret
    return True, ret


def _produced_value(kb, c_subject, source):
    if isinstance(source, Construction):
        return c_subject
    if len(source.chain) == 1:
        (mname, arity), = source.chain
        sig = method_in_knowledge(
            kb, c_subject, mname, arity, require_static=source.static_call,
        )
        return sig.return_fqn if sig else None
    resolved, ret = _walk_chain(kb, c_subject, source.chain, source.static_call)
    return ret if resolved else None


def _call_fails(kb, c, call):
    if len(call.chain) == 1:
        (mname, arity), = call.chain
        return method_in_knowledge(
            kb, c, mname, arity, require_static=call.static_call,
        ) is None
    return not _walk_chain(kb, c, call.chain, call.static_call)[0]


def _wired_checks(kb, constraints, in_search):
    """(touched, failed) per check the solver wires for this element set:
    failed(*values) says whether the touched elements' values fail it."""
    out = []
    for con in constraints:
        if isinstance(con, Construction):
            if con.subject in in_search:
                out.append(((con.subject,), lambda c: kb.entries[c].kind != "class"))
        elif isinstance(con, MemberCall):
            if con.subject in in_search:
                out.append(((con.subject,), lambda c, con=con: _call_fails(kb, c, con)))
        elif isinstance(con, FieldAccess):
            if con.subject in in_search:
                out.append(((con.subject,), lambda c, con=con: field_in_knowledge(
                    kb, c, con.field_name, require_static=con.static_access,
                ) is None))
        elif isinstance(con, Supertype):
            if con.subject in in_search:
                out.append(
                    ((con.subject,), lambda c, con=con: kb.entries[c].kind != con.kind)
                )
        elif isinstance(con, DeclaredAssignment):
            subj = con.source.subject
            if con.declared not in in_search or subj not in in_search:
                continue

            def failed(c_decl, c_subj, source=con.source):
                value = _produced_value(kb, c_subj, source)
                if value is None or value not in kb:
                    return False
                return not (c_decl == value or c_decl in supertype_closure(kb, value))

            out.append(((con.declared, subj), failed))
    return out


def _brute_optima(kb, elements, constraints, excluded):
    """Every assignment enumerated: (the elements untyped before any
    search, the searched elements in token order, their wired checks, the
    optimum cost, the smallest optimal vector of FQNs, and each searched
    element's set of optimal values)."""
    ordered = sorted(elements, key=lambda e: e.token_index)
    untyped = set()
    cands = {}
    for e in ordered:
        if e.line in excluded:
            untyped.add(e)
        elif not kb.candidates_for(e.simple_name):
            untyped.add(e)
        else:
            cands[e] = kb.candidates_for(e.simple_name)
    search = [e for e in ordered if e in cands]
    if not search:
        return untyped, search, [], (0, 0), (), []
    wired = _wired_checks(kb, constraints, set(search))
    # a check reads only the values of the elements it touches, so it is
    # evaluated once per combination of those values
    position = {e: j for j, e in enumerate(search)}
    singles, doubles = [], []
    for touched, failed in wired:
        table = {
            values if len(values) > 1 else values[0]: failed(*values)
            for values in itertools.product(*(cands[e] for e in touched))
        }
        at = tuple(position[e] for e in touched)
        (singles if len(at) == 1 else doubles).append((*at, table))

    best_cost = None
    best_vec = None
    optima = None
    for combo in itertools.product(*(cands[e] for e in search)):
        cost = (
            sum(t[combo[j]] for j, t in singles)
            + sum(t[combo[j], combo[k]] for j, k, t in doubles),
            len({kb.entries[c].library for c in combo}),
        )
        if best_cost is None or cost < best_cost:
            best_cost, best_vec = cost, combo
            optima = [{c} for c in combo]
        elif cost == best_cost:
            for j, c in enumerate(combo):
                optima[j].add(c)
            if combo < best_vec:
                best_vec = combo
    return untyped, search, wired, best_cost, best_vec, optima


def _brute_solve(kb, elements, constraints, excluded, strict_uniqueness):
    untyped, search, wired, best_cost, best_vec, optima = _brute_optima(
        kb, elements, constraints, excluded
    )
    if not search:
        return {}, frozenset(untyped)
    position = {e: j for j, e in enumerate(search)}
    violated = set()
    if best_cost[0] > 0:
        for touched, failed in wired:
            if failed(*(best_vec[position[e]] for e in touched)):
                violated.update(touched)
    typed = {}
    for j, e in enumerate(search):
        if e in violated or (strict_uniqueness and len(optima[j]) > 1):
            untyped.add(e)
        else:
            typed[e] = best_vec[j]
    return typed, frozenset(untyped)


def _random_elements(rng, max_elements=5):
    elems = []
    used = set()
    for idx in range(rng.randint(1, max_elements)):
        name = rng.choice(_NAMES + ("Zeta",))
        line = rng.randint(1, 6)
        occ = sum(1 for n, ln in used if (n, ln) == (name, line)) + 1
        used.add((name, line))
        elems.append(ApiElement(name, line, occ, idx))
    return elems


def _clause_subject(rng, elems):
    """The draws of an inheritance clause's since-dropped element subject,
    kept so every later case of a seeded suite stays what it was."""
    if rng.random() < 0.7:
        rng.choice(elems)


def _random_constraints(rng, elems):
    cons = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.randrange(7)
        e = rng.choice(elems)
        if kind == 0:
            rng.randint(0, 2)  # the since-dropped construction arity
            cons.append(Construction(e))
        elif kind == 1:
            hop = rng.choice(_METHOD_POOL)
            cons.append(MemberCall(e, (hop,), rng.random() < 0.4))
        elif kind == 2:
            cons.append(FieldAccess(e, rng.choice(("f", "g", "h")), rng.random() < 0.4))
        elif kind == 3:
            chain = tuple(
                rng.choice(_METHOD_POOL) for _ in range(rng.randint(2, 3))
            )
            cons.append(MemberCall(e, chain, rng.random() < 0.3))
        elif kind == 4:
            _clause_subject(rng, elems)
            cons.append(Supertype(e, rng.choice(("class", "interface"))))
        elif kind == 5:
            _clause_subject(rng, elems)
            cons.append(Supertype(e, "interface"))
        else:
            declared = rng.choice(elems)
            pick = rng.randrange(3)
            if pick == 0:
                rng.randint(0, 2)  # the since-dropped construction arity
                source = Construction(e)
            elif pick == 1:
                hop = rng.choice(_METHOD_POOL)
                source = MemberCall(e, (hop,), rng.random() < 0.4)
            else:
                chain = tuple(rng.choice(_METHOD_POOL) for _ in range(2))
                source = MemberCall(e, chain, rng.random() < 0.3)
            cons.append(DeclaredAssignment(declared, source))
    return cons


def _outside(rng):
    """The lines 1-6, where random elements sit, outside a random [lo, hi]."""
    lo = rng.randint(1, 4)
    hi = rng.randint(lo, 6)
    return frozenset(range(1, 7)) - frozenset(range(lo, hi + 1))


def test_solver_matches_bruteforce_oracle():
    rng = random.Random(9004)
    for case in range(1000):
        kb = _random_kb(rng)
        elems = _random_elements(rng)
        cons = _random_constraints(rng, elems)
        excluded = frozenset()
        if rng.random() < 0.2:
            excluded = _outside(rng)
        strict = rng.random() < 0.5

        got = solve(kb, elems, cons, excluded, strict_uniqueness=strict)
        want_typed, want_untyped = _brute_solve(kb, elems, cons, excluded, strict)

        assert dict(got.typed) == want_typed, case
        assert got.untyped == want_untyped, case
        # partition and KB membership hold regardless of the oracle
        assert set(got.typed) | set(got.untyped) == set(elems), case
        assert not set(got.typed) & set(got.untyped), case
        assert all(fqn in kb for fqn in got.typed.values()), case
        # determinism
        again = solve(kb, elems, cons, excluded, strict_uniqueness=strict)
        assert dict(again.typed) == dict(got.typed), case
        assert again.untyped == got.untyped, case


# ---------------------------------------------------------------------------
# solver versus the brute-force enumerator on dense-shaped snippets

_DENSE_NAMES = ("Alpha", "Beta", "Gamma")
_DENSE_LIBS = ("libw", "libx", "liby", "libz")


def _dense_kb(rng):
    """Two or three candidates per simple name, each in its own library.

    As in generated dense workloads, a type may have a static getInstance
    factory returning itself, `to<Name>` conversions returning another type
    of its library, and a supertype in its library (cycles included).
    """
    fqns = [
        f"{lib}.{name}"
        for name in _DENSE_NAMES
        for lib in rng.sample(_DENSE_LIBS, rng.randint(2, 3))
    ]
    entries = []
    for fqn in fqns:
        lib = fqn.partition(".")[0]
        kin = [f for f in fqns if f.startswith(lib + ".") and f != fqn]
        methods = {MethodSig("run", rng.randint(0, 1))}
        if rng.random() < 0.6:
            methods.add(MethodSig("getInstance", 0, True, fqn))
        for other in kin:
            if rng.random() < 0.6:
                methods.add(MethodSig("to" + other.rpartition(".")[2], 0, False, other))
        supers = frozenset(rng.sample(kin, 1) if kin and rng.random() < 0.4 else ())
        kind = "class" if rng.random() < 0.8 else "interface"
        entries.append(
            TypeEntry(fqn, kind, lib, frozenset(methods), frozenset(), supers)
        )
    return KnowledgeBase(entries)


def _dense_elements(rng):
    """Two to nine occurrences of one to three names, each name used two to
    four times, interleaved in token order."""
    n = rng.randint(2, 9)
    names = rng.sample(_DENSE_NAMES, rng.randint((n + 3) // 4, min(3, n // 2)))
    uses = names * 2
    while len(uses) < n:
        name = rng.choice(names)
        if uses.count(name) < 4:
            uses.append(name)
    rng.shuffle(uses)
    elems = []
    seen = {}
    for idx, name in enumerate(uses):
        line = rng.randint(1, 4)
        seen[(name, line)] = occ = seen.get((name, line), 0) + 1
        elems.append(ApiElement(name, line, occ, idx))
    return elems


def _dense_constraints(rng, elems):
    """The constraints that dense statements extract: `T v = new T()`,
    `U v = U.getInstance()`, `U v = w.toU()` (w declared as T), chains
    `w.toU().run()`, and plain calls `w.run()`."""
    cons = []
    for declared in elems:
        roll = rng.random()
        subject = rng.choice(elems)
        if roll < 0.25:
            rng.randint(0, 1)  # the since-dropped construction arity
            source = Construction(subject)
        elif roll < 0.45:
            source = MemberCall(subject, (("getInstance", 0),), True)
        elif roll < 0.75:
            source = MemberCall(subject, (("to" + declared.simple_name, 0),), False)
        elif roll < 0.85:
            hops = ("to" + rng.choice(_DENSE_NAMES), "to" + declared.simple_name)
            source = MemberCall(subject, tuple((m, 0) for m in hops), False)
        else:
            cons.append(MemberCall(subject, (("run", rng.randint(0, 1)),), False))
            continue
        cons.append(source)  # the right-hand side is a constraint of its own
        cons.append(DeclaredAssignment(declared, source))
    return cons


def test_solver_matches_oracle_on_dense_links():
    rng = random.Random(9011)
    for case in range(1000):
        kb = _dense_kb(rng)
        elems = _dense_elements(rng)
        cons = _dense_constraints(rng, elems)
        strict = case % 2 == 0

        got = solve(kb, elems, cons, strict_uniqueness=strict)
        want_typed, want_untyped = _brute_solve(kb, elems, cons, frozenset(), strict)
        assert dict(got.typed) == want_typed, case
        assert got.untyped == want_untyped, case


def test_search_alternatives_are_the_oracle_optima():
    """The search's smallest optimum and alternatives, read as FQNs, are the
    brute-force enumerator's smallest optimum and the optimal values of
    each element that has more than one, on seeded general and
    dense-shaped problems tabulated on the loaded KB."""
    rng = random.Random(9019)
    for case in range(1000):
        if case % 2:
            kb = _dense_kb(rng)
            elems = _dense_elements(rng)
            cons = _dense_constraints(rng, elems)
        else:
            kb = _random_kb(rng)
            elems = _random_elements(rng)
            cons = _random_constraints(rng, elems)
        _, search, _, (want_v, _), want_vec, optima = _brute_optima(
            kb, elems, cons, frozenset()
        )
        cands = [kb.candidates_for(e.simple_name) for e in search]
        index_of = {e: i for i, e in enumerate(search)}
        unary, pairs, _ = _tabulate(kb, kb.entries, cons, index_of, cands)
        libs = [[kb.entries[c].library for c in cl] for cl in cands]
        violations, vector, alternatives = _search(libs, unary, pairs)
        assert violations == want_v, case
        assert tuple(cl[ci] for cl, ci in zip(cands, vector)) == want_vec, case
        got = {i: {cands[i][ci] for ci in values} for i, values in alternatives.items()}
        assert got == {i: s for i, s in enumerate(optima) if len(s) > 1}, case


# ---------------------------------------------------------------------------
# solving under a mask versus solving on the KB rebuilt from it


def test_masked_solve_matches_rebuilt_kb():
    """One tabulation solved under several masks gives what `solve` gives on
    each mask's KB, built as a KnowledgeBase of its own. Half the cases are
    dense-shaped (assignment values and chain intermediates that a mask may
    drop), half the general random ones. Each case draws three masks and
    ends with the whole KB as a mask, a restriction that drops nothing; in
    each strict mode one problem solves them in turn and another solves the
    full KB first, which arms the loaded-KB shortcut."""
    rng = random.Random(9013)
    for case in range(1000):
        excluded = frozenset()
        if case % 2:
            kb = _dense_kb(rng)
            elems = _dense_elements(rng)
            cons = _dense_constraints(rng, elems)
        else:
            kb = _random_kb(rng)
            elems = _random_elements(rng)
            cons = _random_constraints(rng, elems)
            if rng.random() < 0.2:
                excluded = _outside(rng)
        fqns = sorted(kb.entries)
        masks = [reduce_kb(kb, rng.sample(fqns, rng.randint(0, len(fqns))))
                 for _ in range(3)]
        masks.append(frozenset(kb.entries))
        for strict in (False, True):
            wants = [
                solve(KnowledgeBase(kb.entries[f] for f in sorted(mask)),
                      elems, cons, excluded, strict_uniqueness=strict)
                for mask in masks
            ]
            for full_first in (False, True):
                problem = ConstraintProblem(
                    kb, elems, cons, excluded, strict_uniqueness=strict
                )
                if full_first:
                    got = problem.solve()
                    assert got == solve(
                        kb, elems, cons, excluded, strict_uniqueness=strict
                    ), case
                for mask, want in zip(masks, wants):
                    assert problem.solve(mask) == want, (case, strict, full_first)


# ---------------------------------------------------------------------------
# the search versus the search it replaced, on tabulated problems


def _reference_search(libs, unary, pairs):
    """The search before its one-pass set-up, kept verbatim but for this
    docstring: a Counter of library reach, a tie order per free element,
    and a full set-up and descent even when no element has a choice."""
    n = len(libs)
    # libraries as bits: a candidate's bit, and each element's union of them
    lib_bit: dict[str, int] = {}
    cand_bits = [[1 << lib_bit.setdefault(lib, len(lib_bit)) for lib in ls] for ls in libs]
    elem_libs = [set(bits) for bits in cand_bits]
    elem_bits = [sum(libs) for libs in elem_libs]

    # An element with one candidate is settled before the search: its
    # violations and library count for every assignment, and its pair
    # checks fold into the other element's unary costs.
    settled = [len(ls) == 1 for ls in libs]
    free = [i for i in range(n) if not settled[i]]
    cost = {i: list(unary[i]) for i in free}
    base_v = sum(unary[i][0] for i in range(n) if settled[i])
    base_used = sum({elem_bits[i] for i in range(n) if settled[i]})
    # pair tables of two free elements, by the later one
    earlier = [[] for _ in libs]
    for (lo, hi), table in pairs.items():
        if settled[lo] and settled[hi]:
            base_v += table[0][0]
        elif settled[lo]:
            for c, x in enumerate(table[0]):
                cost[hi][c] += x
        elif settled[hi]:
            for c, row in enumerate(table):
                cost[lo][c] += row[0]
        else:
            earlier[hi].append((lo, table))

    depth = len(free)
    # fewest violations of the free elements from depth d on (the
    # violation bound)
    rest_min = [0] * (depth + 1)
    for d in range(depth - 1, -1, -1):
        rest_min[d] = rest_min[d + 1] + min(cost[free[d]])
    # ties in violations and library novelty go to the library that the
    # most elements could share, then to candidate order
    reach = Counter(bit for libs in elem_libs for bit in libs)
    tie_order = {
        i: sorted(range(len(cand_bits[i])), key=lambda ci: -reach[cand_bits[i][ci]])
        for i in free
    }

    def lib_bound(d, used):
        """Libraries every completion from depth d beyond `used` needs."""
        count = used.bit_count()
        for i in free[d:]:
            if not elem_bits[i] & used:
                count += 1
                used |= elem_bits[i]
        return count

    best_v = best_l = math.inf
    best_vec = ()
    optima_values = []
    choice = [0] * n

    def dfs(d, v, used):
        nonlocal best_v, best_l, best_vec, optima_values
        if d == depth:
            leaf = (v, used.bit_count())
            vec = tuple(choice)
            if leaf < (best_v, best_l):
                best_v, best_l = leaf
                best_vec = vec
                optima_values = [{c} for c in vec]
            elif leaf == (best_v, best_l):
                for j, c in enumerate(vec):
                    optima_values[j].add(c)
                best_vec = min(best_vec, vec)
            return
        i = free[d]
        added = list(cost[i])
        for lo, table in earlier[i]:
            row = table[choice[lo]]
            for ci, x in enumerate(row):
                added[ci] += x
        bits = cand_bits[i]
        for ci in sorted(tie_order[i], key=lambda ci: (added[ci], not bits[ci] & used)):
            v_next = v + added[ci]
            v_bound = v_next + rest_min[d + 1]
            if v_bound > best_v:
                break  # the rest add at least as many violations
            used_next = used | bits[ci]
            if v_bound == best_v and lib_bound(d + 1, used_next) > best_l:
                continue
            choice[i] = ci
            dfs(d + 1, v_next, used_next)

    try:
        dfs(0, base_v, base_used)
    except RecursionError:
        raise ValueError(
            f"snippet too large to solve: {depth} elements with a choice exceed"
            " the recursion limit"
        ) from None
    finally:
        # dfs holds itself in its closure cell, and through its cells every
        # table above: unbinding it breaks that cycle, so refcounting frees
        # this search's tables now instead of the cyclic collector later
        del dfs
    return int(best_v), best_vec, optima_values


_TABLE_LIBS = tuple(f"lib{k}" for k in range(6))


def _random_tables(rng):
    """A tabulated problem: up to 14 elements with a choice and up to 6
    settled ones, in random token order, with libraries drawn from at most
    6 (two candidates may share one), random unary counts, and pair tables
    between any two elements. An element with a choice has 2-4 candidates,
    or 2-3 when more than 8 have a choice, which keeps the search's many-
    optima cases sub-second; a third of the cases have no element with a
    choice."""
    n_free = rng.choice((0, rng.randint(1, 6), rng.randint(1, 14)))
    free = [True] * n_free + [False] * rng.randint(0, 6)
    rng.shuffle(free)
    pool = rng.sample(_TABLE_LIBS, rng.randint(1, 6))
    most = 4 if n_free <= 8 else 3
    libs = [[rng.choice(pool) for _ in range(rng.randint(2, most) if f else 1)] for f in free]
    unary = [[rng.choice((0, 0, 0, 1, 2)) for _ in ls] for ls in libs]
    density = rng.random() * 0.5
    pairs = {}
    for lo, hi in itertools.combinations(range(len(libs)), 2):
        if rng.random() < density:
            pairs[(lo, hi)] = [[rng.choice((0, 0, 0, 1)) for _ in libs[hi]] for _ in libs[lo]]
    return libs, unary, pairs


def _tabulated(kb, text):
    """The tables a full-KB solve of snippet text searches."""
    sn = tokenize(text)
    elements = sorted(identify_api_elements(sn, kb), key=lambda e: e.token_index)
    constraints, excluded = extract_constraints(sn, elements)
    cands = [kb.candidates_for(e.simple_name) for e in elements]
    assert not excluded and all(cands)
    index_of = {e: i for i, e in enumerate(elements)}
    unary, pairs, _ = _tabulate(kb, kb.entries, constraints, index_of, cands)
    return [[kb.entries[c].library for c in cl] for cl in cands], unary, pairs


# three names, three candidates each, over six libraries: any two libraries
# that cover all three names leave one name free between them
_ROUND_ROBIN_LIBS = (("l0", "l1", "l2"), ("l0", "l3", "l4"), ("l1", "l3", "l5"))


def _reference_result(libs, unary, pairs):
    """The reference search's result as the search states it: the
    alternatives are the optima of each element that has more than one."""
    violations, vector, optima = _reference_search(libs, unary, pairs)
    return violations, vector, {i: s for i, s in enumerate(optima) if len(s) > 1}


def test_search_matches_the_search_it_replaced():
    """The search returns exactly what the search before its one-pass
    set-up returned, with the optima of only the elements they disagree on
    in place of each element's optima, on 1000 seeded random tabulated
    problems and on the solver's cliff shapes at sub-second sizes."""
    rng = random.Random(9017)
    for case in range(1000):
        libs, unary, pairs = _random_tables(rng)
        assert _search(libs, unary, pairs) == _reference_result(libs, unary, pairs), case
    kb = load_kb(Path(__file__).parent / "fixtures" / "kb" / "global.kb")
    shapes = {
        "document": _tabulated(kb, "Document d = null;\n" * 12),
        "label-document-button": _tabulated(
            kb, "Label a; Document d; Button b;\n" * 10
        ),
        "composite": _tabulated(kb, "Composite c = new Composite();\n" * 30),
        "round-robin": (
            [list(_ROUND_ROBIN_LIBS[k % 3]) for k in range(30)],
            [[0, 0, 0] for _ in range(30)],
            {},
        ),
    }
    for shape, (libs, unary, pairs) in shapes.items():
        assert sum(len(ls) > 1 for ls in libs) >= 10, shape
        assert _search(libs, unary, pairs) == _reference_result(libs, unary, pairs), shape


# ---------------------------------------------------------------------------
# mutated snippets through every engine

_CORPUS = Path(__file__).parent / "fixtures" / "corpus"


def _answers_or_error(call):
    """The answers of call(), or the message of the ValueError it raised,
    checked to be one line."""
    try:
        answers = call()
    except ValueError as exc:
        message = str(exc)
        assert message and "\n" not in message, message
        return message
    return answers


def test_mutated_snippets_end_in_answers_or_one_error_line(kb, model):
    """Every engine and run configuration, on 1000 line and character
    mutations of the fixture snippets, either answers with KB entries of
    each element's simple name or raises ValueError with one line, and
    does the same on a second call."""
    texts = [read_utf8(p) for p in sorted(_CORPUS.glob("*/*.java"))]
    assert len(texts) == 14
    configs = (
        RunConfig(),
        RunConfig(order=ORDER_STAT_FIRST, cascaded_calls=True, strict_uniqueness=False),
    )
    rng = random.Random(9019)
    for case in range(1000):
        sn = tokenize(_mutate(rng, rng.choice(texts)))
        calls = [
            lambda config=config: run(sn, kb, model, config)[0].answers()
            for config in configs
        ] + [
            lambda engine=engine: infer_with_engine(sn, kb, model, engine)
            for engine in ("constraint", "stat", "combined")
        ]
        for call in calls:
            got = _answers_or_error(call)
            if isinstance(got, dict):
                for key, fqn in got.items():
                    assert fqn in kb.candidates_for(key.partition("[")[0]), (case, key)
            assert _answers_or_error(call) == got, case


# ---------------------------------------------------------------------------
# combination criteria


def _random_trace(rng, elems):
    fqn_pool = [f"{pkg}.{name}" for pkg in _PACKAGES for name in _NAMES]
    trace = []
    for rnd in range(1, rng.randint(1, 5) + 1):
        typed = {
            e: rng.choice(fqn_pool)
            for e in elems
            if rng.random() < 0.4
        }
        stat = {}
        for e in elems:
            roll = rng.random()
            if roll < 0.25:
                continue  # engine said nothing about this element
            ranked = tuple(
                rng.sample(fqn_pool, rng.randint(0, 3))
            )
            stat[e] = CandidateList(ranked)
        trace.append(
            RoundRecord(
                round_number=rnd,
                constraint_result=ConstraintResult(typed, frozenset()),
                stat_result=stat,
                kb_size=rng.randint(1, 60),
            )
        )
    return trace


def test_combination_invariants():
    rng = random.Random(9005)
    for case in range(1200):
        elems = _random_elements(rng, max_elements=6)
        trace = _random_trace(rng, elems)
        result = combine(trace, elems)
        assert set(result.per_element) == set(elems), case

        ever_c = set()
        ever_s = set()
        for e in elems:
            last_c = None
            last_s = ()
            for rec in trace:
                if e in rec.constraint_result.typed:
                    last_c = rec.constraint_result.typed[e]
                    ever_c.add(e)
                cl = rec.stat_result.get(e)
                if cl is not None and cl.ranked:
                    last_s = cl.ranked
                    ever_s.add(e)
            ce = result.per_element[e]
            assert ce.comb_type_c == last_c, case
            assert ce.comb_types_s == last_s, case
            if last_c is not None:
                assert (ce.final_fqn, ce.source) == (last_c, "constraint"), case
            elif last_s:
                assert (ce.final_fqn, ce.source) == (last_s[0], "statistical"), case
            else:
                assert (ce.final_fqn, ce.source) == (None, "none"), case

        answered = {e for e, ce in result.per_element.items() if ce.final_fqn}
        assert answered == ever_c | ever_s, case
        assert len(answered) >= max(len(ever_c), len(ever_s)), case
        assert result.answers() == {
            e.key: ce.final_fqn
            for e, ce in result.per_element.items()
            if ce.final_fqn is not None
        }, case


# ---------------------------------------------------------------------------
# aggregation


def _consistent_score(rng, sid, lib):
    requested = rng.randint(0, 5)
    inferred = rng.randint(0, requested) if requested else 0
    correct = rng.randint(0, inferred) if inferred else 0
    return SnippetScore(
        sid,
        lib,
        correct / inferred if inferred else None,
        correct / requested if requested else None,
        inferred,
        correct,
        requested,
    )


def _flip_one_wrong(score):
    """The same snippet with one incorrect answer graded correct instead."""
    correct = score.correct + 1
    return SnippetScore(
        score.snippet_id,
        score.library,
        correct / score.inferred,
        correct / score.requested,
        score.inferred,
        correct,
        score.requested,
    )


def _approx_eq(a, b):
    if a is None or b is None:
        return a is b
    return a == pytest.approx(b)


def test_aggregate_permutation_invariance():
    rng = random.Random(9006)
    for case in range(1200):
        scores = [
            _consistent_score(rng, str(i), rng.choice(_LIBRARIES))
            for i in range(rng.randint(1, 8))
        ]
        shuffled = scores[:]
        rng.shuffle(shuffled)
        per_a, overall_a = aggregate(scores)
        per_b, overall_b = aggregate(shuffled)
        assert list(per_a) == list(per_b), case
        for lib in per_a:
            assert _approx_eq(per_a[lib].precision, per_b[lib].precision), case
            assert _approx_eq(per_a[lib].recall, per_b[lib].recall), case
            assert per_a[lib].snippets == per_b[lib].snippets, case
        assert _approx_eq(overall_a.precision, overall_b.precision), case
        assert _approx_eq(overall_a.recall, overall_b.recall), case
        assert overall_a.snippets == overall_b.snippets == len(scores), case

        # all defined averages stay inside [0, 1]
        for agg in (*per_a.values(), overall_a):
            for value in (agg.precision, agg.recall):
                assert value is None or 0.0 <= value <= 1.0, case

        # flipping one wrong answer to correct never lowers an average
        fixable = [i for i, s in enumerate(scores) if s.correct < s.inferred]
        if fixable:
            i = rng.choice(fixable)
            bumped = scores[:]
            bumped[i] = _flip_one_wrong(scores[i])
            per_c, overall_c = aggregate(bumped)
            eps = 1e-12
            if overall_a.precision is not None:
                assert overall_c.precision >= overall_a.precision - eps, case
            if overall_a.recall is not None:
                assert overall_c.recall >= overall_a.recall - eps, case
            lib = scores[i].library
            if per_a[lib].precision is not None:
                assert per_c[lib].precision >= per_a[lib].precision - eps, case
            if per_a[lib].recall is not None:
                assert per_c[lib].recall >= per_a[lib].recall - eps, case


# ---------------------------------------------------------------------------
# precision equals recall whenever every requested element is answered


def test_full_answer_precision_equals_recall():
    rng = random.Random(9007)
    for case in range(1500):
        n = rng.randint(1, 8)
        truth_map = {}
        for i in range(n):
            name = rng.choice(_NAMES)
            truth_map[f"{name}[{i + 1},1]"] = f"{rng.choice(_PACKAGES)}.{name}"
        truth = GroundTruth(str(case), rng.choice(_LIBRARIES), truth_map)
        answers = {
            key: fqn if rng.random() < 0.6 else "qq.Wrong"
            for key, fqn in truth_map.items()
        }
        got = score_snippet(answers, truth)
        assert got.inferred == got.requested == len(truth_map), case
        assert got.precision == got.recall, case
        assert got.precision == got.correct / len(truth_map), case
        assert 0.0 <= got.precision <= 1.0, case


# ---------------------------------------------------------------------------
# statistical ranking: dominance and determinism


def test_stat_score_dominance():
    """Pointwise count dominance with no larger total keeps the dominant
    candidate scored at least as high, for any window over those tokens."""
    rng = random.Random(9008)
    for case in range(1200):
        vocab = [f"t{i}" for i in range(rng.randint(5, 12))]
        cut = rng.randint(1, len(vocab) - 1)
        window_tokens, outside = vocab[:cut], vocab[cut:]
        f, g = "pp.qq.Name", "rr.ss.Name"

        counts = {}
        deficit = 0
        for tok in window_tokens:
            base = rng.randint(0, 3)
            bump = rng.randint(0, 2)
            if base:
                counts[(tok, g)] = base
            if base + bump:
                counts[(tok, f)] = base + bump
            deficit += bump
        # park enough extra mass on g outside the window so that
        # total(f) <= total(g) while f dominates pointwise inside it
        pad = deficit + rng.randint(0, 3)
        if pad:
            counts[(outside[0], g)] = pad
        rows = _rows(counts)
        model = CooccurrenceModel(
            rows={f: rows.get(f, {}), g: rows.get(g, {})},
            vocabulary=set(vocab),
            smoothing_alpha=rng.choice((0.5, 1.0, 2.0)),
        )
        assert model.fqn_totals[f] <= model.fqn_totals[g], case

        window = [rng.choice(window_tokens) for _ in range(rng.randint(1, 6))]
        sf = _score(model, window, f)
        sg = _score(model, window, g)
        assert sf >= sg - 1e-12, case
        assert _score(model, window, f) == sf, case
        assert _score(model, window, g) == sg, case


def _formula_score(model, window, fqn):
    """Reference: the smoothed log score, one summand per window token."""
    alpha = model.smoothing_alpha
    denom = sum(model.rows[fqn].values()) + alpha * len(model.vocabulary)
    counts = model.counts
    total = 0.0
    for tok in window:
        c = counts.get((tok, fqn), 0)
        total += math.log((c + alpha) / denom)
    return total


def _evidence_first_topk(model, window, simple_name, k):
    """Reference ranking: drop each candidate without a positive count in
    the window, then score the rest."""
    if k <= 0:
        return []
    counts = model.counts
    scored = []
    for fqn in model.known_fqns_named(simple_name):
        if not any(counts.get((tok, fqn), 0) > 0 for tok in window):
            continue
        scored.append((fqn, _formula_score(model, window, fqn)))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def _outcome(fn, *args):
    """A call's result with every float as its exact bits, or the exception
    it raised."""
    try:
        result = fn(*args)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    if isinstance(result, float):
        return ("returned", result.hex())
    return ("returned", [(fqn, score.hex()) for fqn, score in result])


_SCORE_TOKENS = ("w0", "w1", "w2", "w3", "w4", '"s"', "7")


def _random_score_model(rng, fqns):
    """A model as the constructor accepts it, over fqns: positive counts,
    some empty rows, a vocabulary holding the rows' tokens and more, and
    non-integer alphas."""
    rows = {}
    for fqn in fqns:
        toks = rng.sample(_SCORE_TOKENS, rng.choice((0, 0, 1, 2, 3, 5)))
        rows[fqn] = {tok: rng.choice((1, 1, 2, 3, 7, 40)) for tok in toks}
    vocabulary = set().union(*rows.values())
    vocabulary.update(rng.sample(_SCORE_TOKENS + ("x", "y"), rng.randint(0, 3)))
    alpha = rng.choice((0.5, 1.0, 1.7, 2.25, 3, 1e-300))
    return CooccurrenceModel(rows, vocabulary, alpha, rng.randint(0, 1))


def _random_target_fqns(rng):
    fqns = [f"{pkg}.Target" for pkg in rng.sample(_PACKAGES, rng.randint(1, 3))]
    return fqns + rng.sample(("p.Other", "Target", "q.Target.Inner"), rng.randint(0, 2))


def test_ranking_scores_are_the_formula_bit_for_bit():
    """Random models the constructor accepts: positive counts, empty rows,
    vocabularies holding the rows' tokens and more, non-integer alphas
    (one of them tiny), repeated window tokens and window tokens the model
    has never seen. The ranking is the evidence-first formula's, float bit
    for float bit, and no score raises."""
    rng = random.Random(9014)
    empty = dropped = 0
    for case in range(2000):
        fqns = _random_target_fqns(rng)
        model = _random_score_model(rng, fqns)
        # the target on line 1, window tokens on lines 1 and 2, with repeats
        words = [rng.choice(_SCORE_TOKENS + ("unseen",)) for _ in range(rng.randint(0, 10))]
        cut = rng.randint(0, len(words))
        sn = tokenize(" ".join(["Target"] + words[:cut]) + "\n" + " ".join(words[cut:]))
        target = ApiElement("Target", 1, 1, 0)
        aug = plain(sn)
        window = context_window(aug, target, model.window_eta)
        k = rng.randint(0, 4)
        want = _outcome(_evidence_first_topk, model, window, "Target", k)
        assert want[0] == "returned", (case, model, window)
        assert _outcome(predict_topk, model, aug, target, k) == want, (case, model, window)
        for fqn in fqns:
            row = model.rows[fqn]
            empty += not row
            if row.keys().isdisjoint(window):
                dropped += 1
                continue
            assert _outcome(lambda: _score(model, window, fqn)) == _outcome(
                _formula_score, model, window, fqn
            ), (case, fqn)
    assert empty >= 1000 and dropped >= 2000, (empty, dropped)


def test_memoized_terms_score_as_the_formula_on_every_call():
    """One model instance scores each FQN again and again over shuffled
    windows, so every score after the first reads the terms that an
    earlier one memoized. Models are random as in the bit-for-bit test.
    Every outcome, of `_score` and of `predict_topk`, is the formula's on
    a fresh model, to the float bit. Only FQNs with evidence are scored, so
    an empty row never enters the memo."""
    rng = random.Random(9019)
    memo_hits = 0
    for case in range(400):
        fqns = _random_target_fqns(rng)
        model = _random_score_model(rng, fqns)

        def build():
            return CooccurrenceModel(
                {fqn: dict(row) for fqn, row in model.rows.items()},
                set(model.vocabulary), model.smoothing_alpha, model.window_eta,
            )

        base = [rng.choice(_SCORE_TOKENS + ("unseen",)) for _ in range(rng.randint(1, 10))]
        for call in range(6):
            # a shuffled part of the same tokens
            window = rng.sample(base, rng.randint(0, len(base)))
            sn = tokenize(" ".join(["Target"] + window))
            aug = plain(sn)
            target = ApiElement("Target", 1, 1, 0)
            assert context_window(aug, target, model.window_eta) == window
            fresh = build()
            k = rng.randint(1, 4)
            want = _outcome(_evidence_first_topk, fresh, window, "Target", k)
            got = _outcome(predict_topk, model, aug, target, k)
            assert got == want, (case, call, window)
            for fqn in rng.sample(fqns, len(fqns)):
                if not model.rows[fqn]:
                    continue
                memo_hits += fqn in model._terms
                want = _outcome(_formula_score, fresh, window, fqn)
                got = _outcome(lambda: _score(model, window, fqn))
                assert got == want, (case, call, fqn, window)
        # one entry per model FQN scored, and no other
        assert set(model._terms) == {f for f in fqns if model.rows[f]}, case
    assert memo_hits >= 2000, memo_hits


_TARGET_FQNS = tuple(f"{pkg}.Target" for pkg in _PACKAGES + ("gg.hh", "ii", "jj.kk")) + (
    "Target", "p.Other", "q.Target.Inner",
)


def _kept(fn):
    """The FQNs a call's CandidateList keeps, or the exception it raised."""
    try:
        return ("returned", fn().ranked)
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def _kb_of(fqns):
    return KnowledgeBase(TypeEntry(fqn=f, kind="class", library="lib") for f in fqns)


def test_kb_restricted_ranking_is_the_filtered_ranking():
    """Seeded models whose FQNs of one simple name lie in and out of a
    random KB, with empty rows, tied scores and repeated window
    tokens: ranking only the KB's FQNs gives the full ranking less the
    FQNs outside the KB, score for score, and `predict_all` gives the
    KB-filtered full ranking wherever the fetch of k + len(kb) reaches
    every KB FQN."""
    rng = random.Random(9018)
    compared = dropped = 0
    for case in range(1500):
        kb = _kb_of(rng.sample(_TARGET_FQNS, rng.randint(0, 5)))
        fqns = rng.sample(_TARGET_FQNS, rng.randint(1, len(_TARGET_FQNS)))
        # FQNs without a count keep an empty row, and equal rows tie
        rows = {f: {} for f in fqns}
        for _ in range(rng.randint(0, 16)):
            rows[rng.choice(fqns)][rng.choice(_SCORE_TOKENS)] = rng.choice((1, 2, 2, 3))
        model = CooccurrenceModel(
            rows=rows,
            vocabulary=set(_SCORE_TOKENS),
            smoothing_alpha=rng.choice((0.5, 1.0, 1.7, 3)),
            window_eta=rng.randint(0, 1),
        )
        words = [rng.choice(_SCORE_TOKENS + ("unseen",)) for _ in range(rng.randint(0, 10))]
        cut = rng.randint(0, len(words))
        sn = tokenize(" ".join(["Target"] + words[:cut]) + "\n" + " ".join(words[cut:]))
        target = ApiElement("Target", 1, 1, 0)
        aug = plain(sn)
        full = _outcome(predict_topk, model, aug, target, len(_TARGET_FQNS))
        dropped += any(f not in kb for f, _ in full[1])
        assert _outcome(predict_topk, model, aug, target, 0, kb) == ("returned", []), case
        for n in range(1, 5):
            want = ("returned", [pair for pair in full[1] if pair[0] in kb][:n])
            got = _outcome(predict_topk, model, aug, target, n, kb)
            assert got == want, (case, n, model, kb.entries.keys())
        outside = [f for f in model.known_fqns_named("Target") if f not in kb]
        if len(outside) >= len(kb):
            continue
        compared += 1
        for k in range(1, 4):
            want = _kept(lambda: filter_against_kb(
                predict_topk(model, aug, target, k + len(kb)), kb, k
            ))
            got = _kept(lambda: predict_all(model, aug, [target], kb, k)[target])
            assert got == want, (case, k, model, kb.entries.keys())
    assert compared >= 300 and dropped >= 300, (compared, dropped)


def test_kb_restricted_ranking_does_not_score_fqns_outside_the_kb():
    # the memo holds an entry per FQN scored: given the KB, only its FQN
    model = CooccurrenceModel(
        rows={"zzz.Target": {"w0": 2, "w1": 4}, "aa.bb.Target": {"w0": 1}},
        vocabulary={"w0", "w1"},
    )
    kb = _kb_of(["aa.bb.Target"])
    aug = plain(tokenize("Target w0 w1"))
    target = ApiElement("Target", 1, 1, 0)
    assert predict_all(model, aug, [target], kb, 1)[target].ranked == ("aa.bb.Target",)
    assert set(model._terms) == {"aa.bb.Target"}
    assert [f for f, _ in predict_topk(model, aug, target, 5)] == [
        "zzz.Target", "aa.bb.Target"
    ]
    assert set(model._terms) == {"aa.bb.Target", "zzz.Target"}


# ---------------------------------------------------------------------------
# statistical model: the simple-name index

_INDEX_NAMES = ("Label", "NotLabel", "Lab", "Map", "Entry")
_INDEX_PACKAGES = ("", "a", "a.b", "com.x.y.z", "a.Label", "java.util.Map")


def _suffix_scan(fqns, simple_name):
    suffix = "." + simple_name
    return sorted(f for f in fqns if f == simple_name or f.endswith(suffix))


def test_known_fqns_named_matches_suffix_scan(tmp_path):
    """Each way of building a model indexes its FQNs exactly as a scan for
    `name` or `*.name` would find them: undotted names, shared suffixes
    (Label/NotLabel) and nested types included."""
    rng = random.Random(9010)
    path = tmp_path / "m.tsv"
    for case in range(1000):
        fqns = sorted({
            f"{pkg}.{name}" if pkg else name
            for pkg, name in (
                (rng.choice(_INDEX_PACKAGES), rng.choice(_INDEX_NAMES))
                for _ in range(rng.randint(0, 10))
            )
        })
        # one training token per FQN; its element points at the token
        sn = tokenize(" ".join(f"T{i}" for i in range(len(fqns))))
        idents = [i for i, kind in enumerate(sn.kinds) if kind is TokenKind.IDENTIFIER]
        truth = {
            ApiElement(f"T{n}", 1, 1, i): fqn
            for n, (i, fqn) in enumerate(zip(idents, fqns))
        }
        built = CooccurrenceModel(rows={fqn: {} for fqn in fqns})
        trained = train([(sn, truth)], eta=rng.randint(0, 2))
        path.write_text(dump_model(trained), encoding="utf-8")
        loaded = load_model(path)
        assert sorted(trained.fqn_totals) == sorted(loaded.fqn_totals) == fqns, case
        for name in _INDEX_NAMES + ("Absent",):
            want = tuple(_suffix_scan(fqns, name))
            assert built.known_fqns_named(name) == want, (case, name)
            assert trained.known_fqns_named(name) == want, (case, name)
            assert loaded.known_fqns_named(name) == want, (case, name)


def test_simple_name_index_is_built_on_first_use(tmp_path, train_items):
    """train and load_model leave the index unbuilt. The first
    known_fqns_named call builds it, its answers are the suffix scan, and
    building it changes no equality, repr or dump."""
    path = tmp_path / "m.tsv"
    trained = train(training_pairs(train_items), eta=2)
    path.write_text(dump_model(trained), encoding="utf-8")
    loaded = load_model(path)
    before = [(repr(m), dump_model(m)) for m in (trained, loaded)]
    assert trained._by_simple_name is None and loaded._by_simple_name is None
    fqns = list(trained.fqn_totals)
    names = {f.rpartition(".")[2] for f in fqns} | {"Absent"}
    for name in sorted(names):
        want = tuple(_suffix_scan(fqns, name))
        assert trained.known_fqns_named(name) == want, name
    assert trained._by_simple_name is not None and loaded._by_simple_name is None
    assert trained == loaded
    assert [(repr(m), dump_model(m)) for m in (trained, loaded)] == before


# ---------------------------------------------------------------------------
# statistical model: the dump against one sorted tuple per record


def _ref_dump_model(model):
    """Reference: one sorted (token, fqn, n) tuple per count, each token
    JSON-encoded, then an fqn record for each FQN with no count."""
    lines = [
        f"{_HEADER}\talpha={model.smoothing_alpha!r}\teta={model.window_eta}"
    ]
    records = sorted(
        (tok, fqn, n)
        for fqn, row in model.rows.items()
        for tok, n in row.items()
    )
    lines += [f"count\t{json.dumps(tok)}\t{fqn}\t{n}" for tok, fqn, n in records]
    counted = {fqn for _, fqn, _ in records}
    lines += [f"fqn\t{fqn}" for fqn in sorted(model.fqn_totals) if fqn not in counted]
    return "\n".join(lines) + "\n"


# tokens JSON escapes or sorts awkwardly: quotes, backslashes, controls,
# DEL, separators, lone surrogates, non-BMP characters, case and prefixes
_DUMP_TOKENS = (
    "a", "A", "aa", "a ", " ", "", '"', "\\", "\n\t", "a\tb", "x\x85y", "p\u2028q",
    "\x00", "\x7f", "\ud800", "\ud83d", "\U0001f600", "\U0010ffff", "\u00e9", "7",
    "[1]",
)
_DUMP_FQNS = ("a.X", "a.X.Inner", "a.XY", "a.x", "b.X", "X", "a-b.X", "\u00e9.X")


def _random_dump_rows(rng):
    """Rows over awkward tokens and FQNs, some of them empty."""
    rows = {}
    for fqn in rng.sample(_DUMP_FQNS, rng.randint(0, 5)):
        toks = rng.sample(_DUMP_TOKENS, rng.choice((0, 0, 1, 2, 4, 6)))
        rows[fqn] = {tok: rng.choice((1, 2, 17, 10**20)) for tok in toks}
    return rows


def test_dump_matches_one_sorted_tuple_per_record():
    """dump_model writes the reference's bytes for random models: empty
    rows, counts beyond 64 bits and tokens shared by several FQNs."""
    rng = random.Random(9017)
    shapes = {"fqn-only": 0, "shared-token": 0}
    for case in range(1000):
        rows = _random_dump_rows(rng)
        model = CooccurrenceModel(
            rows=rows,
            vocabulary={tok for row in rows.values() for tok in row},
            smoothing_alpha=rng.choice((0.5, 1.0, 2.25, 3)),
            window_eta=rng.randint(0, 3),
        )
        want = _ref_dump_model(model)
        assert dump_model(model) == want, case
        shapes["fqn-only"] += "\nfqn\t" in want
        shapes["shared-token"] += len(model.counts) > len(model.vocabulary)
    assert min(shapes.values()) >= 300, shapes


_MAX_INT_ALPHA = int(1.7976931348623157e308)  # the largest float
# one value of each kind the constructor refuses, as its error names it:
# what no model file gives back as itself
_CONSTRUCTOR_DEFECTS = {
    "token": (5, None, ("t",), "\ud800\udfff", "x\udbff\udc00"),
    "FQN": (5, None, "a.X\tY", "a\nX", "a.X\r", "\r", "\udc80.X", "a.\ud800"),
    "bad alpha": (10**400, _MAX_INT_ALPHA),
}
# and of each kind dump_model refuses in a model the constructor accepts
_DUMP_DEFECTS = {
    "count": (True,),
    "vocabulary token": ("unseen", "\ud800x", "\x00\x01"),
}
# the tokens a snippet's window can hold
_WINDOW_WORDS = ("a", "A", "aa", "7", "unseen")


def _random_model_case(rng):
    """Constructor arguments for a random model shaped like the dump
    reference's, with its row tokens as its vocabulary and one defect
    planted in about half the cases: (arguments, the defect's kind or None).

    The largest alpha is the int of the largest float, which the
    constructor stores as that float, so alpha * |V| overflows once two
    tokens are counted: a model at that alpha keeps one token unless its
    defect is that alpha, and none of the constructor's checks that come
    after the alpha check's is planted at it."""
    rows = _random_dump_rows(rng)
    defect = rng.choice((None, None, None, None, *_CONSTRUCTOR_DEFECTS, *_DUMP_DEFECTS))
    alphas = (0.5, 1.0, 2.25, 3, 1e-300, _MAX_INT_ALPHA)
    alpha = rng.choice(alphas if defect in (None, "token", "FQN") else alphas[:-1])
    if alpha == _MAX_INT_ALPHA:
        kept = rng.choice(_DUMP_TOKENS)
        rows = {fqn: {kept: sum(row.values())} if row else {} for fqn, row in rows.items()}
    vocabulary = {tok for row in rows.values() for tok in row}
    if defect is not None:
        bad = rng.choice({**_CONSTRUCTOR_DEFECTS, **_DUMP_DEFECTS}[defect])
        row = rows.setdefault(rng.choice(_DUMP_FQNS), {})
        if defect == "count":
            tok = rng.choice(_DUMP_TOKENS)
            row[tok] = bad
            vocabulary.add(tok)
        elif defect == "vocabulary token":
            vocabulary.add(bad)
        elif defect == "token":
            row[bad] = rng.randint(1, 3)
            vocabulary.add(bad)
        elif defect == "FQN":
            rows[bad] = {"t": 2} if rng.random() < 0.5 else {}
            vocabulary |= rows[bad].keys()
        else:
            alpha = bad
            row.update({"a": 1, "b": 1})
            vocabulary |= {"a", "b"}
    return (rows, vocabulary, alpha, rng.randint(0, 3)), defect


def _ranked_hex(model, aug, target):
    return [(fqn, score.hex()) for fqn, score in predict_topk(model, aug, target, 10)]


def test_every_model_dump_model_accepts_round_trips(tmp_path):
    """The constructor refuses each planted defect of what a model file
    holds, and dump_model each planted defect of what no file carries, with
    one ValueError line. Every other model, int alphas and counts beyond
    64 bits among them, loads back from its saved dump as an equal model
    that dumps to the same text and ranks random windows with the same
    scores, float for float."""
    rng = random.Random(2107)
    path = tmp_path / "model.tsv"
    target = ApiElement("X", 1, 1, 0)
    seen = dict.fromkeys((None, *_CONSTRUCTOR_DEFECTS, *_DUMP_DEFECTS), 0)
    ranked = int_alphas = 0
    for case in range(1000):
        args, defect = _random_model_case(rng)
        seen[defect] += 1
        if defect in _CONSTRUCTOR_DEFECTS:
            with pytest.raises(ValueError, match=f"^{defect} "):
                CooccurrenceModel(*args)
            continue
        model = CooccurrenceModel(*args)
        if defect is not None:
            with pytest.raises(ValueError, match=f"^cannot dump model: {defect} "):
                dump_model(model)
            continue
        int_alphas += type(args[2]) is int
        text = dump_model(model)
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model, case
        assert dump_model(loaded) == text, case
        for _ in range(3):
            lines = [
                " ".join(rng.choices(_WINDOW_WORDS, k=rng.randint(0, 4)))
                for _ in range(rng.randint(1, 4))
            ]
            aug = plain(tokenize("X " + "\n".join(lines)))
            want = _ranked_hex(model, aug, target)
            assert _ranked_hex(loaded, aug, target) == want, case
            ranked += bool(want)
    assert min(seen.values()) >= 80 and ranked >= 250 and int_alphas >= 80, (
        seen, ranked, int_alphas)


# ---------------------------------------------------------------------------
# loaders: one lean pass per record against the record-at-a-time loops
#
# The reference loops below are the loaders as they stood before members
# were attached as they are read, with the records split at "\n" alone.

def _ref_attrs(parts, lineno):
    attrs = {}
    for p in parts:
        if "=" not in p:
            raise KbError(f"expected key=value, got {p!r}", lineno)
        k, v = p.split("=", 1)
        if k in attrs:
            raise KbError(f"duplicate attribute {k!r}", lineno)
        attrs[k] = v
    return attrs


def _ref_fqns(value):
    return [v for v in value.split(",") if v]


def _ref_parse_kb(text):
    types = {}
    members = []
    for lineno, rawline in enumerate(text.split("\n"), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        record = parts[0]
        if record == "type":
            if len(parts) < 4:
                raise KbError("type record needs fqn, kind, lib=<id>", lineno)
            fqn, kind = parts[1], parts[2]
            if kind not in ("class", "interface"):
                raise KbError(f"bad kind {kind!r}", lineno)
            attrs = _ref_attrs(parts[3:], lineno)
            if "lib" not in attrs:
                raise KbError("type record missing lib=<id>", lineno)
            unknown = set(attrs) - {"lib", "extends", "implements", "external-super"}
            if unknown:
                raise KbError(f"unknown attributes {sorted(unknown)}", lineno)
            if fqn in types:
                raise KbError(f"duplicate type {fqn}", lineno)
            if attrs["lib"] == "":
                raise KbError("empty lib=", lineno)
            types[fqn] = {
                "kind": kind,
                "library": attrs["lib"],
                "supers": _ref_fqns(attrs.get("extends", ""))
                + _ref_fqns(attrs.get("implements", "")),
                "external": _ref_fqns(attrs.get("external-super", "")),
                "methods": [],
                "fields": [],
            }
        elif record == "method":
            if len(parts) < 3 or "/" not in parts[2]:
                raise KbError("method record needs owner and name/arity", lineno)
            owner = parts[1]
            name, _, arity_s = parts[2].partition("/")
            if name == "":
                raise KbError("empty method name", lineno)
            if re.fullmatch("[0-9]+", arity_s) is None:
                raise KbError(f"bad arity {arity_s!r}", lineno)
            arity = int(arity_s)
            rest = parts[3:]
            is_static = "static" in rest
            rest = [p for p in rest if p != "static"]
            attrs = _ref_attrs(rest, lineno)
            unknown = set(attrs) - {"returns"}
            if unknown:
                raise KbError(f"unknown attributes {sorted(unknown)}", lineno)
            ret = attrs.get("returns")
            if ret == "":
                raise KbError("empty returns=; an unknown type is returns=?", lineno)
            if ret == "?":
                ret = None
            members.append(
                (lineno, "method", owner, MethodSig(name, arity, is_static, ret))
            )
        elif record == "field":
            if len(parts) < 3:
                raise KbError("field record needs owner and name", lineno)
            owner, name = parts[1], parts[2]
            rest = parts[3:]
            is_static = "static" in rest
            rest = [p for p in rest if p != "static"]
            attrs = _ref_attrs(rest, lineno)
            unknown = set(attrs) - {"type"}
            if unknown:
                raise KbError(f"unknown attributes {sorted(unknown)}", lineno)
            ftype = attrs.get("type")
            if ftype == "":
                raise KbError("empty type=; an unknown type is type=?", lineno)
            if ftype == "?":
                ftype = None
            members.append((lineno, "field", owner, FieldSig(name, ftype, is_static)))
        else:
            raise KbError(f"unknown record kind {record!r}", lineno)

    for lineno, mkind, owner, sig in members:
        if owner not in types:
            raise KbError(f"{mkind} owner {owner} has no type record", lineno)
        types[owner]["methods" if mkind == "method" else "fields"].append(sig)

    return KnowledgeBase(
        TypeEntry(
            fqn=fqn,
            kind=spec["kind"],
            library=spec["library"],
            methods=frozenset(spec["methods"]),
            fields=frozenset(spec["fields"]),
            supertypes=frozenset(spec["supers"]),
            external_supertypes=frozenset(spec["external"]),
        )
        for fqn, spec in types.items()
    )


def _ref_load_model(path):
    text = read_utf8(path, ModelFormatError)

    def bad(lineno, message):
        return ModelFormatError(f"{path}:{lineno}: {message}")

    lines = text.split("\n")
    header = lines[0].split("\t")
    if header[0] != _HEADER:
        raise bad(1, "missing model header line")
    settings = {"alpha": 1.0, "eta": 2}
    texts = {"eta": "2"}
    given = set()
    for part in header[1:]:
        key, _, value = part.partition("=")
        if key not in settings:
            raise bad(1, f"unknown header field {key!r}")
        if key in given:
            raise bad(1, f"duplicate header field {key!r}")
        given.add(key)
        try:
            settings[key] = float(value) if key == "alpha" else int(value)
        except ValueError:
            raise bad(1, f"bad {key} value {value!r}") from None
        texts[key] = value
    alpha, eta = settings["alpha"], settings["eta"]
    try:
        _check_settings(alpha, eta)
    except ValueError as exc:
        raise bad(1, str(exc)) from None
    if re.fullmatch("[0-9]+", texts["eta"]) is None:
        raise bad(1, f"bad eta value {texts['eta']!r}")
    rows = {}
    known = []
    vocabulary = set()
    decoded = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if parts[0] == "count" and len(parts) == 4:
            fqn = parts[2]
            try:
                tok = decoded.get(parts[1])
                if tok is None:
                    tok = json.loads(parts[1])
                    if not isinstance(tok, str):
                        raise ValueError(tok)
                    decoded[parts[1]] = tok
                n = int(parts[3])
            except (ValueError, RecursionError):
                raise bad(lineno, f"bad count record {_shown(line)}") from None
            if n <= 0:
                raise bad(lineno, "nonpositive count")
            if re.fullmatch("[0-9]+", parts[3]) is None:
                raise bad(lineno, f"bad count record {_shown(line)}")
            row = rows.setdefault(fqn, {})
            row[tok] = row.get(tok, 0) + n
            vocabulary.add(tok)
        elif parts[0] == "fqn" and len(parts) == 2:
            known.append(parts[1])
        else:
            raise bad(lineno, f"bad record {_shown(line)}")
    for fqn in known:
        rows.setdefault(fqn, {})
    try:
        return CooccurrenceModel(rows, vocabulary, alpha, eta)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


def _kb_outcome(parse, text):
    try:
        kb = parse(text)
    except KbError as exc:
        return "error", str(exc), exc.line
    # members in iteration order, which follows the order each frozenset
    # was filled in: stricter than set equality
    return "kb", [
        (fqn, e.kind, e.library, list(e.methods), list(e.fields),
         e.supertypes, e.external_supertypes)
        for fqn, e in kb.entries.items()
    ]


def _model_outcome(load, path):
    try:
        m = load(path)
    except ModelFormatError as exc:
        return "error", str(exc)
    return "model", (
        _row_items(m), list(m.fqn_totals.items()), m.vocabulary,
        m.smoothing_alpha, m.window_eta,
    )


# separators that split() reads as blanks and splitlines() as line ends
_ODD_BLANKS = ("\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028")
_KB_OWNERS = ("p.A", "p.B", "q.A", "q.C")
# records that are malformed, or break the KB, alone or beside others
_KB_FAULTS = (
    "type p.A enum lib=x", "type p.Z class extends=p.A", "type p.Z class lib=x x=1",
    "type p.Z class lib=x lib=y", "type p.Z class static lib=x", "type p.Z",
    "type p.Z class lib=x extends=q.Nowhere", "type p.A class lib=x",
    "method p.A m/x", "method p.A m", "method p.A", "method p.A m/1 returns=? kind=x",
    "method p.A m/1 returns=? returns=?", "method p.A m/1 static bare",
    "method p.A m/0 static returns=q.Odd", "method p.A m/0 returns=p.B",
    "method q.Ghost m/0", "field q.Ghost F", "field p.A", "field p.A F type=? x=y",
    "field p.A F type=? type=?", "field p.A F bare", "banana p.A", "#method p.A",
    "method p.A m/+1 static static returns=?", "method p.A m/٣",
    "method p.A m/1 static static returns=?", "method p.A m/-1", "method p.A /0",
    "method p.A m/0 returns=", "field p.A F static type=", "type p.Z class lib=",
    "type p.Z class lib= extends=p.A",
)


def _kb_text(rng):
    """A generated KB: types for some owners and members for them in any
    order, so some members come before their owner's type record; repeated
    members, same-named fields of different types, and static before or
    after the type attribute. About half the cases also hold one or two of
    _KB_FAULTS."""
    owners = rng.sample(_KB_OWNERS, rng.randint(1, 4))
    records = []
    for fqn in owners:
        attrs = [f"lib={rng.choice('xyz')}"]
        supers = [o for o in owners if o != fqn and rng.random() < 0.3]
        if supers:
            attrs.append(rng.choice(("extends=", "implements=")) + ",".join(supers))
        if rng.random() < 0.2:
            attrs.append("external-super=v.Base,")
        rng.shuffle(attrs)
        records.append(["type", fqn, rng.choice(("class", "interface"))] + attrs)
    signatures = {}
    for _ in range(rng.randint(0, 12)):
        owner = rng.choice(owners)
        if rng.random() < 0.5:
            name = f"{rng.choice('mn')}/{rng.choice('012')}"
            static, ret = signatures.setdefault(
                (owner, name),
                (rng.random() < 0.3, rng.choice(("?", "p.A", "q.A", "q.Ext"))),
            )
            tail = ["static"] * static + [f"returns={ret}"] * (rng.random() < 0.9 or ret != "?")
            kind = "method"
        else:
            name = rng.choice(("F", "G"))
            tail = ["static"] * (rng.random() < 0.3)
            tail += [f"type={rng.choice(('?', 'p.A', 'q.A'))}"] * (rng.random() < 0.8)
            kind = "field"
        rng.shuffle(tail)
        records.append([kind, owner, name] + tail)
    records += [[""], ["#", "a", "comment"]][: rng.randint(0, 2)]
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
        records.append(rng.choice(_KB_FAULTS).split(" "))
    rng.shuffle(records)
    lines = []
    for words in records:
        line = " ".join(
            w if rng.random() < 0.9 else w + rng.choice(("\t", " ") + _ODD_BLANKS)
            for w in words
        )
        if rng.random() < 0.05:
            line = rng.choice(("\t", " ") + _ODD_BLANKS) + line
        lines.append(line)
    return "\n".join(lines) + rng.choice(("", "\n"))


# blanks around a literal, an escaped quote and a lone surrogate read as
# json.loads reads them
_MODEL_TOKENS = (
    '"a"', '"b c"', '"\\u00e9"', '"\\n\\t"', '"x\x85y"', '"p\u2028q"', '""',
    ' "a"', '"a" ', '"\\ud800"', '"\\""',
)
# records and headers that are malformed, alone or beside others
_MODEL_FAULTS = (
    'count\ta\ta.X\t1', 'count\t5\ta.X\t1', 'count\t[1]\ta.X\t1',
    'count\t"\x0c"\ta.X\t1', 'count\t"a"\ta.X\t0', 'count\t"a"\ta.X\t-2',
    'count\t"a"\ta.X\tx', 'count\t"a"\ta.X', 'count\t"a"\ta.X\t1\t1', 'count',
    'fqn', 'fqn\ta.X\tz', 'what', ' ', '\x0c', 'Count\t"a"\ta.X\t1',
    'count\t"a"\ta.X\t 4', 'count\t"a"\ta.X\t1_0', 'count\t"a"\ta.X\t+5',
    'count\t"a"\ta.X\t5 ', 'count\t"a"\ta.X\t\u0663',
    # a literal with text after it, unterminated, or with a short escape
    'count\t"a"x\ta.X\t1', 'count\t"a\ta.X\t1', 'count\t"\\u12"\ta.X\t1',
    'count\t"a\\"\ta.X\t1',
)
_MODEL_HEADERS = (
    "cooccurrence", "cooccurrence\teta=1\talpha=0.5", "cooccurrenc",
    "cooccurrence\talpha=0", "cooccurrence\tbeta=1", "cooccurrence\teta=x", "",
    "cooccurrence\teta=+2", "cooccurrence alpha=5.0\teta=1",
    "cooccurrence\talpha=1.0\talpha=3.0",
)


def _model_text(rng):
    """A generated model file: count records that repeat (token, FQN)
    pairs, FQN-only records, comments and blank lines. About half the cases
    also hold one or two of _MODEL_FAULTS, or an odd header."""
    header = "cooccurrence\talpha=1.0\teta=2"
    if rng.random() < 0.1:
        header = rng.choice(_MODEL_HEADERS)
    records = []
    for _ in range(rng.randint(0, 12)):
        fqn = rng.choice(("a.X", "a.Y", "b.X", "X"))
        roll = rng.random()
        if roll < 0.8:
            n = rng.choice(("1", "2", "3", "17"))
            records.append(f"count\t{rng.choice(_MODEL_TOKENS)}\t{fqn}\t{n}")
        elif roll < 0.9:
            records.append(f"fqn\t{fqn}")
        else:
            records.append(rng.choice(("", "# comment", '#count\t"a"\ta.X\t1')))
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
        records.append(rng.choice(_MODEL_FAULTS))
    rng.shuffle(records)
    return "\n".join([header] + records) + rng.choice(("", "\n"))


def test_kb_loader_matches_reference_loop():
    """_parse_kb gives the reference loop's entries, members and member
    order, or its error message and line, on mutated fixture KBs and on
    generated ones with forward references."""
    rng = random.Random(9014)
    fixture = (Path(__file__).parent / "fixtures" / "kb" / "global.kb").read_text(
        encoding="utf-8"
    )
    outcomes = {"kb": 0, "error": 0}
    for case in range(1200):
        if case < 400:
            text = _mutate(rng, fixture)
        else:
            text = _kb_text(rng)
        want = _kb_outcome(_ref_parse_kb, text)
        assert _kb_outcome(_parse_kb, text) == want, (case, text)
        outcomes[want[0]] += 1
    assert min(outcomes.values()) >= 300, outcomes


def test_member_tails_in_any_order_load_as_the_canonical_kb():
    """Every member record of a dumped random KB, with its `static` flag and
    `returns=`/`type=` in every order, loads to the KB the canonical text
    loads to, and so does a second `static` or an omitted unknown type; a
    duplicate type attribute or an unknown attribute (the other member
    kind's among them) keeps its error and line in any order."""
    rng = random.Random(9016)
    checked = 0
    for case in range(300):
        kb = _random_kb(rng)
        lines = dump_kb(kb).split("\n")
        at = [i for i, line in enumerate(lines) if line.startswith(("method ", "field "))]
        if not at:
            continue
        assert _parse_kb("\n".join(lines)) == kb, case
        # every member record in one random order of its tail at once
        shuffled = list(lines)
        for i in at:
            words = lines[i].split(" ")
            shuffled[i] = " ".join(words[:3] + rng.sample(words[3:], len(words) - 3))
        assert _parse_kb("\n".join(shuffled)) == kb, (case, shuffled)
        # one record in each order of its tail and of each variant's tail
        i = rng.choice(at)
        words = lines[i].split(" ")
        key = words[-1].partition("=")[0]
        other = "type" if key == "returns" else "returns"
        variants = [(words[3:], None)]
        if "static" in words:
            variants.append((words[3:] + ["static"], None))
        if words[-1] == f"{key}=?":
            variants.append((words[3:-1], None))
        variants += [
            (words[3:] + [f"{key}=p.Q"], (f"duplicate attribute {key!r}", i + 1)),
            (words[3:] + ["x=1"], ("unknown attributes ['x']", i + 1)),
            # the other member kind's attribute in the canonical places
            (words[3:-1] + [f"{other}=p.Q"], (f"unknown attributes [{other!r}]", i + 1)),
        ]
        for tail, error in variants:
            for order in itertools.permutations(tail):
                line = " ".join(words[:3] + list(order))
                text = "\n".join(lines[:i] + [line] + lines[i + 1:])
                if error is None:
                    assert _parse_kb(text) == kb, (case, text)
                else:
                    assert _kb_outcome(_parse_kb, text) == ("error", *error), (case, text)
                checked += 1
    assert checked >= 1000, checked


def _comes_back(values):
    """Whether some value comes back after a run of others."""
    runs = [v for i, v in enumerate(values) if i == 0 or values[i - 1] != v]
    return len(runs) > len(set(runs))


def test_kb_records_out_of_dump_order_load_as_the_canonical_kb():
    """A dumped random KB, with its records shuffled (members of different
    owners interleave, members come before their type record) and each
    type record's tail in a random order, loads to the KB the canonical
    text loads to."""
    rng = random.Random(2901)
    seen = {"interleaved": 0, "member-first": 0, "tail-reordered": 0}
    for case in range(300):
        kb = _random_kb(rng)
        lines = dump_kb(kb).split("\n")
        rng.shuffle(lines)
        for i, line in enumerate(lines):
            words = line.split(" ")
            if words[0] == "type":
                tail = rng.sample(words[3:], len(words) - 3)
                seen["tail-reordered"] += tail != words[3:]
                lines[i] = " ".join(words[:3] + tail)
        assert _parse_kb("\n".join(lines)) == kb, (case, lines)
        seen["interleaved"] += _comes_back(
            [line.split(" ")[1] for line in lines if line.startswith(("method", "field"))]
        )
        typed = set()
        for line in lines:
            words = line.split(" ")
            if words[0] == "type":
                typed.add(words[1])
            elif len(words) > 1 and words[1] not in typed:
                seen["member-first"] += 1
                break
    assert min(seen.values()) >= 100, seen


def test_model_records_out_of_dump_order_load_the_summed_rows(tmp_path):
    """A dumped random model, with some counts split over two records of
    the same (token, FQN) and every record shuffled, so that one token's
    records are no longer consecutive, loads the model's rows: its FQNs in
    the order of their first count records, then the FQNs of fqn records,
    and each row's tokens in the order of their first records."""
    rng = random.Random(2902)
    path = tmp_path / "m.tsv"
    seen = {"split": 0, "token-apart": 0}
    for case in range(300):
        rows = _random_dump_rows(rng)
        model = CooccurrenceModel(rows, {t for row in rows.values() for t in row}, 1.0, 2)
        header, *records = dump_model(model).rstrip("\n").split("\n")
        split = []
        for record in records:
            head, _, count = record.rpartition("\t")
            if record.startswith("count") and int(count) > 1 and rng.random() < 0.5:
                a = rng.randint(1, int(count) - 1)
                split += [f"{head}\t{a}", f"{head}\t{int(count) - a}"]
                seen["split"] += 1
            else:
                split.append(record)
        rng.shuffle(split)
        path.write_text("\n".join([header] + split) + "\n", encoding="utf-8")
        loaded = load_model(path)
        assert loaded == model, case
        want: dict[str, list[str]] = {}
        for record in split:
            kind, *fields = record.split("\t")
            if kind == "count":
                tokens = want.setdefault(fields[1], [])
                if json.loads(fields[0]) not in tokens:
                    tokens.append(json.loads(fields[0]))
        for record in split:
            kind, *fields = record.split("\t")
            if kind == "fqn":
                want.setdefault(fields[0], [])
        assert [(f, list(row)) for f, row in loaded.rows.items()] == list(want.items()), case
        seen["token-apart"] += _comes_back([r.split("\t")[1] for r in split if r.startswith("count")])
    assert min(seen.values()) >= 50, seen


def test_model_loader_matches_reference_loop(tmp_path, model):
    """load_model gives the reference loop's rows, counts and totals in the
    same insertion order, its vocabulary and settings, or its error message, on
    mutated fixture models and on generated ones."""
    rng = random.Random(9015)
    fixture = dump_model(model)
    path = tmp_path / "m.tsv"
    outcomes = {"model": 0, "error": 0}
    for case in range(1000):
        if case < 400:
            text = _mutate(rng, fixture)
        else:
            text = _model_text(rng)
        path.write_text(text, encoding="utf-8")
        want = _model_outcome(_ref_load_model, path)
        assert _model_outcome(load_model, path) == want, (case, text)
        outcomes[want[0]] += 1
    assert min(outcomes.values()) >= 300, outcomes
