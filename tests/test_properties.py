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
from fqninfer.orchestrator import CombinedResult, RoundRecord, combine
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
    TokenKind,
    augment,
    identify_api_elements,
    plain,
    read_utf8,
    tokenize,
)
from fqninfer.stat import (
    _HEADER_PREFIX,
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


def test_lossless_lexing_roundtrip():
    rng = random.Random(9002)
    for case in range(1500):
        raw = "".join(
            rng.choice(_LEX_PIECES) for _ in range(rng.randint(0, 40))
        )
        sn = tokenize(raw)
        assert "".join(t.lexeme for t in sn.tokens) == raw, case
        assert tokenize(raw).tokens == sn.tokens, case


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
        got = [(t.lexeme, t.kind, t.line) for t in tokenize(raw).tokens]
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
        got = [(t.lexeme, t.kind, t.line) for t in tokenize(raw).tokens]
        assert got == _match_loop_tokens(raw), raw


# ---------------------------------------------------------------------------
# bracket partners


def _unpadded(structure):
    """(token index, token) of each significant token, without the pads."""
    return [
        (i, t) for i, t in zip(structure.positions, structure.significant)
        if i is not None
    ]


def _matching_paren(sig, i_open):
    """Reference: the ')' where the depth count from sig[i_open] returns to
    zero, or None when it never does."""
    depth = 0
    for k in range(i_open, len(sig)):
        lex = sig[k][1].lexeme
        if lex == "(":
            depth += 1
        elif lex == ")":
            depth -= 1
            if depth == 0:
                return k
    return None


def _body(sig, end):
    """Reference: open and close of the body that starts where a header
    ends; an unterminated body runs to the last position."""
    if end >= len(sig) or sig[end][1].lexeme != "{":
        return None, None
    depth = 0
    for k in range(end, len(sig)):
        lex = sig[k][1].lexeme
        if lex == "{":
            depth += 1
        elif lex == "}":
            depth -= 1
            if depth == 0:
                return end, k
    return end, len(sig) - 1


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
        structure = tokenize(raw).structure
        sig = _unpadded(structure)
        expected = {}
        for i, (_, t) in enumerate(sig):
            if t.lexeme == "(" and _matching_paren(sig, i) is not None:
                expected[i] = _matching_paren(sig, i)
            elif t.lexeme == "{":
                expected[i] = _body(sig, i)[1]
        assert dict(structure.partner) == expected, (case, raw)
        # every declaration keyword heads one header, whose body starts at
        # the first '{' or ';' from the keyword on
        bodies = []
        for j, (_, t) in enumerate(sig):
            if t.lexeme in ("class", "interface", "enum"):
                end = j
                while end < len(sig) and sig[end][1].lexeme not in ("{", ";"):
                    end += 1
                bodies.append(_body(sig, end))
        assert [(h.open, h.close) for h in structure.headers] == bodies, (case, raw)


def _arity_scan(sig, i_open, close):
    """Reference: one more than the commas inside (i_open, close) where a
    depth count, '(', '[' or '{' up and ')', ']' or '}' down, is back at
    zero."""
    if close == i_open + 1:
        return 0
    arity, depth = 1, 0
    for k in range(i_open + 1, close):
        lex = sig[k][1].lexeme
        if lex in ("(", "[", "{"):
            depth += 1
        elif lex in (")", "]", "}"):
            depth -= 1
        elif lex == "," and depth == 0:
            arity += 1
    return arity


_ARG_PIECES = ("(", ")", "[", "]", "{", "}", ",", ",", "a", "f(", "x, y", "])")


def test_argument_arity_matches_reference_scan():
    rng = random.Random(9013)
    checked = 0
    for case in range(2000):
        raw = " ".join(rng.choice(_ARG_PIECES) for _ in range(rng.randint(0, 40)))
        structure = tokenize(raw).structure
        sig = _unpadded(structure)
        for i, (_, t) in enumerate(sig):
            if t.lexeme != "(":
                continue
            close = structure.partner.get(i)
            want = None if close is None else (_arity_scan(sig, i, close), close)
            assert _parse_args(structure, i) == want, (case, raw, i)
            checked += close is not None and close > i + 1
    assert checked >= 3000, checked


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

        assert len(aug.tokens) == len(sn.tokens), case
        changed = {
            i
            for i, (old, new) in enumerate(zip(sn.tokens, aug.tokens))
            if old != new
        }
        assert changed == {e.token_index for e in mapping}, case
        for e, fqn in mapping.items():
            t = aug.tokens[e.token_index]
            old = sn.tokens[e.token_index]
            assert t.lexeme == fqn, case
            assert t.kind is TokenKind.IDENTIFIER, case
            assert t.line == old.line, case
        assert augment(sn, {}).tokens == sn.tokens, case

        if elems:
            target = rng.choice(elems)
            eta = rng.randint(0, 2)
            expected = [
                t.lexeme
                for i, t in enumerate(aug.tokens)
                if t.kind in (TokenKind.IDENTIFIER, TokenKind.LITERAL)
                and target.line - eta <= t.line <= target.line + eta
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


def _brute_solve(kb, elements, constraints, excluded, strict_uniqueness):
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
        return {}, frozenset(untyped)
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


# ---------------------------------------------------------------------------
# solving under a mask versus solving on the KB rebuilt from it


def test_masked_solve_matches_rebuilt_kb():
    """One tabulation solved under several masks gives what `solve` gives on
    each mask's KB, built as a KnowledgeBase of its own. Half the cases are
    dense-shaped (assignment values and chain intermediates that a mask may
    drop), half the general random ones; most solve the full KB first, which
    arms the unique-optimum shortcut, and strictness changes per call. Each
    case ends with the whole KB as a mask, a restriction that drops
    nothing, in both strict modes."""
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
        problem = ConstraintProblem(kb, elems, cons, excluded)
        if rng.random() < 0.7:
            strict = rng.random() < 0.5
            got = problem.solve(strict_uniqueness=strict)
            assert got == solve(kb, elems, cons, excluded, strict_uniqueness=strict), case
        fqns = sorted(kb.entries)
        for _ in range(3):
            strict = rng.random() < 0.5
            mask = reduce_kb(kb, rng.sample(fqns, rng.randint(0, len(fqns))))
            rebuilt = KnowledgeBase(kb.entries[f] for f in sorted(mask))
            want = solve(rebuilt, elems, cons, excluded, strict_uniqueness=strict)
            assert problem.solve(mask, strict_uniqueness=strict) == want, case
        # a mask that drops nothing, drawing nothing from rng
        mask = frozenset(kb.entries)
        rebuilt = KnowledgeBase(kb.entries[f] for f in sorted(mask))
        for strict in (False, True):
            want = solve(rebuilt, elems, cons, excluded, strict_uniqueness=strict)
            assert problem.solve(mask, strict_uniqueness=strict) == want, case


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
        model = CooccurrenceModel(
            rows=_rows(counts),
            fqn_totals={
                f: sum(v for (t, q), v in counts.items() if q == f),
                g: sum(v for (t, q), v in counts.items() if q == g),
            },
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
    denom = model.fqn_totals.get(fqn, 0) + alpha * len(model.vocabulary)
    if denom <= 0:
        return float("-inf")
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


def test_ranking_scores_are_the_formula_bit_for_bit():
    """Hand-built models the trainer never makes: non-integer alpha, an
    empty vocabulary, stored zero and negative counts (some below -alpha,
    outside log's domain), totals that make the denominator nonpositive,
    repeated window tokens and window tokens the model has never seen."""
    rng = random.Random(9014)
    raised = 0
    for case in range(2000):
        fqns = [f"{pkg}.Target" for pkg in rng.sample(_PACKAGES, rng.randint(1, 3))]
        fqns += rng.sample(("p.Other", "Target", "q.Target.Inner"), rng.randint(0, 2))
        counts = {}
        for _ in range(rng.randint(0, 12)):
            key = (rng.choice(_SCORE_TOKENS), rng.choice(fqns))
            counts[key] = rng.choice((-4, -2, -1, 0, 0, 1, 1, 2, 3, 7))
        totals = {f: rng.choice((0, 1, 5, 12, -3, -40)) for f in fqns}
        vocabulary = set(rng.sample(_SCORE_TOKENS, rng.randint(0, len(_SCORE_TOKENS) - 2)))
        model = CooccurrenceModel(
            rows=_rows(counts),
            fqn_totals=totals,
            vocabulary=vocabulary,
            smoothing_alpha=rng.choice((0.5, 1.0, 1.7, 2.25, 3, 5e-324)),
            window_eta=rng.randint(0, 1),
        )
        # the target on line 1, window tokens on lines 1 and 2, with repeats
        words = [rng.choice(_SCORE_TOKENS + ("unseen",)) for _ in range(rng.randint(0, 10))]
        cut = rng.randint(0, len(words))
        sn = tokenize(" ".join(["Target"] + words[:cut]) + "\n" + " ".join(words[cut:]))
        target = ApiElement("Target", 1, 1, 0)
        aug = plain(sn)
        window = context_window(aug, target, model.window_eta)
        k = rng.randint(0, 4)
        want = _outcome(_evidence_first_topk, model, window, "Target", k)
        assert _outcome(predict_topk, model, aug, target, k) == want, (case, model, window)
        raised += want[0] == "raised"
        for fqn in fqns:
            assert _outcome(lambda: _score(model, window, fqn)) == _outcome(
                _formula_score, model, window, fqn
            ), (case, fqn)
    assert raised >= 50, raised


def test_memoized_terms_score_as_the_formula_on_every_call():
    """One model instance scores each FQN again and again over shuffled
    windows, so every score after the first reads the terms that an
    earlier one memoized, even when that one raised. Models are hand-built
    as in the bit-for-bit test: stored zero counts, counts outside log's
    domain and nonpositive denominators. Every outcome, of `_score` and of
    `predict_topk`, is the formula's on a fresh model: the same float bits,
    or the same exception type and message."""
    rng = random.Random(9019)
    raised_then_scored = nonpositive = zero_scored = 0
    for case in range(400):
        fqns = [f"{pkg}.Target" for pkg in rng.sample(_PACKAGES, rng.randint(1, 3))]
        fqns += rng.sample(("p.Other", "Target", "q.Target.Inner"), rng.randint(0, 2))
        counts = {}
        for _ in range(rng.randint(0, 12)):
            key = (rng.choice(_SCORE_TOKENS), rng.choice(fqns))
            counts[key] = rng.choice((-4, -2, -1, 0, 0, 1, 1, 2, 3, 7))
        totals = {f: rng.choice((0, 1, 5, 12, -3, -40)) for f in fqns}
        vocabulary = set(rng.sample(_SCORE_TOKENS, rng.randint(0, len(_SCORE_TOKENS) - 2)))
        settings = (rng.choice((0.5, 1.0, 1.7, 2.25, 3, 5e-324)), rng.randint(0, 1))

        def build():
            return CooccurrenceModel(
                _rows(counts), dict(totals), set(vocabulary), *settings
            )

        model = build()
        base = [rng.choice(_SCORE_TOKENS + ("unseen",)) for _ in range(rng.randint(1, 10))]
        failed = set()
        for call in range(6):
            # a shuffled part of the same tokens, so a token that made an
            # earlier score raise may be missing from a later window
            window = rng.sample(base, rng.randint(0, len(base)))
            sn = tokenize(" ".join(["Target"] + window))
            aug = plain(sn)
            target = ApiElement("Target", 1, 1, 0)
            assert context_window(aug, target, model.window_eta) == window
            fresh = build()
            # and an FQN the model does not know, which it scores unmemoized
            for fqn in rng.sample(fqns, len(fqns)) + ["zz.Target"]:
                want = _outcome(_formula_score, fresh, window, fqn)
                got = _outcome(lambda: _score(model, window, fqn))
                assert got == want, (case, call, fqn, window)
                if want[0] == "raised":
                    failed.add(fqn)
                elif fqn in failed:
                    raised_then_scored += 1
                nonpositive += totals.get(fqn, 0) + settings[0] * len(vocabulary) <= 0
                zero_scored += any(
                    n == 0 and q == fqn and t in window for (t, q), n in counts.items()
                )
            k = rng.randint(1, 4)
            want = _outcome(_evidence_first_topk, fresh, window, "Target", k)
            got = _outcome(predict_topk, model, aug, target, k)
            assert got == want, (case, call, window)
        # one entry per model FQN scored, and no other
        assert set(model._terms) == set(fqns), case
    assert raised_then_scored >= 100, raised_then_scored
    assert nonpositive >= 500, nonpositive
    assert zero_scored >= 200, zero_scored


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
    random KB, with stored zero counts, tied scores and repeated window
    tokens: ranking only the KB's FQNs gives the full ranking less the
    FQNs outside the KB, score for score, and `predict_all` gives the
    KB-filtered full ranking wherever the fetch of k + len(kb) reaches
    every KB FQN. Counts outside log's domain (which raise) are given only
    to KB FQNs, so both rankings raise together."""
    rng = random.Random(9018)
    compared = raised = dropped = 0
    for case in range(1500):
        kb = _kb_of(rng.sample(_TARGET_FQNS, rng.randint(0, 5)))
        fqns = rng.sample(_TARGET_FQNS, rng.randint(1, len(_TARGET_FQNS)))
        counts = {}
        for _ in range(rng.randint(0, 16)):
            fqn = rng.choice(fqns)
            values = (-4, -1, 0, 1, 2, 2, 3) if fqn in kb else (0, 0, 1, 2, 2, 3)
            counts[(rng.choice(_SCORE_TOKENS), fqn)] = rng.choice(values)
        rows = _rows(counts)
        if rng.random() < 0.5:  # as trained: equal rows tie
            totals = {f: sum(rows.get(f, {}).values()) for f in fqns}
        else:
            totals = {f: rng.choice((0, 2, 5, 12, -3)) for f in fqns}
        model = CooccurrenceModel(
            rows=rows,
            fqn_totals=totals,
            vocabulary=set(rng.sample(_SCORE_TOKENS, rng.randint(1, len(_SCORE_TOKENS)))),
            smoothing_alpha=rng.choice((0.5, 1.0, 1.7, 3)),
            window_eta=rng.randint(0, 1),
        )
        words = [rng.choice(_SCORE_TOKENS + ("unseen",)) for _ in range(rng.randint(0, 10))]
        cut = rng.randint(0, len(words))
        sn = tokenize(" ".join(["Target"] + words[:cut]) + "\n" + " ".join(words[cut:]))
        target = ApiElement("Target", 1, 1, 0)
        aug = plain(sn)
        full = _outcome(predict_topk, model, aug, target, len(_TARGET_FQNS))
        raised += full[0] == "raised"
        dropped += full[0] == "returned" and any(f not in kb for f, _ in full[1])
        assert _outcome(predict_topk, model, aug, target, 0, kb) == ("returned", []), case
        for n in range(1, 5):
            want = full if full[0] == "raised" else (
                "returned", [pair for pair in full[1] if pair[0] in kb][:n]
            )
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
    assert compared >= 300 and raised >= 30 and dropped >= 300, (compared, raised, dropped)


def test_kb_restricted_ranking_does_not_score_fqns_outside_the_kb():
    # a count outside log's domain fails the ranking of every FQN, but only
    # the KB's FQNs are ranked for predict_all
    model = CooccurrenceModel(
        rows={"zzz.Target": {"w0": 2, "w1": -4}, "aa.bb.Target": {"w0": 1}},
        fqn_totals={"zzz.Target": 8, "aa.bb.Target": 1},
        vocabulary={"w0", "w1"},
    )
    kb = _kb_of(["aa.bb.Target"])
    aug = plain(tokenize("Target w0 w1"))
    target = ApiElement("Target", 1, 1, 0)
    with pytest.raises(ValueError):
        predict_topk(model, aug, target, 5)
    assert predict_all(model, aug, [target], kb, 1)[target].ranked == ("aa.bb.Target",)


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
        idents = [i for i, t in enumerate(sn.tokens) if t.kind is TokenKind.IDENTIFIER]
        truth = {
            ApiElement(f"T{n}", 1, 1, i): fqn
            for n, (i, fqn) in enumerate(zip(idents, fqns))
        }
        built = CooccurrenceModel(fqn_totals=dict.fromkeys(fqns, 0))
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
    """Reference: one sorted (token, fqn, n) tuple per positive count, each
    token JSON-encoded, then an fqn record for each FQN with no positive
    count."""
    lines = [
        f"{_HEADER_PREFIX}\talpha={model.smoothing_alpha!r}\teta={model.window_eta}"
    ]
    records = sorted(
        (tok, fqn, n)
        for fqn, row in model.rows.items()
        for tok, n in row.items()
        if n > 0
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


def test_dump_matches_one_sorted_tuple_per_record():
    """dump_model writes the reference's bytes for hand-built models the
    trainer never makes: stored zeros, negative counts, empty rows, rows of
    FQNs without a total and FQNs that have only a total."""
    rng = random.Random(9017)
    shapes = {"fqn-only": 0, "nonpositive": 0}
    for case in range(1000):
        rows = {}
        for fqn in rng.sample(_DUMP_FQNS, rng.randint(0, 5)):
            toks = rng.sample(_DUMP_TOKENS, rng.randint(0, 6))
            rows[fqn] = {
                tok: rng.choice((-3, -1, 0, 0, 1, 2, 17, 10**20)) for tok in toks
            }
        totals = {
            fqn: rng.choice((0, 3, -2))
            for fqn in rng.sample(_DUMP_FQNS, rng.randint(0, len(_DUMP_FQNS)))
        }
        model = CooccurrenceModel(
            rows=rows,
            fqn_totals=totals,
            vocabulary={tok for row in rows.values() for tok in row},
            smoothing_alpha=rng.choice((0.5, 1.0, 2.25, 3)),
            window_eta=rng.randint(0, 3),
        )
        want = _ref_dump_model(model)
        assert dump_model(model) == want, case
        shapes["fqn-only"] += "\nfqn\t" in want
        shapes["nonpositive"] += any(
            n <= 0 for row in rows.values() for n in row.values()
        )
    assert min(shapes.values()) >= 300, shapes


# one value of each kind dump_model refuses, as the error names it
_DUMP_DEFECTS = {
    "count": (1.5, True, 2.0, -0.5, "3"),
    "token": (5, None, ("t",)),
    "FQN": ("a.X\tY", "a\nX", "a.X\r", "\r"),
    "total count": (10**308,),
}


def _random_dump_model(rng):
    """A hand-built model shaped like the dump reference's, with one defect
    planted in about half the cases: (model, the defect's kind or None)."""
    rows = {}
    for fqn in rng.sample(_DUMP_FQNS, rng.randint(0, 5)):
        toks = rng.sample(_DUMP_TOKENS, rng.randint(0, 6))
        rows[fqn] = {tok: rng.choice((-3, -1, 0, 0, 1, 2, 17, 10**20)) for tok in toks}
    totals = {
        fqn: rng.choice((0, 3, -2))
        for fqn in rng.sample(_DUMP_FQNS, rng.randint(0, len(_DUMP_FQNS)))
    }
    defect = rng.choice((None, None, None, *_DUMP_DEFECTS))
    if defect is not None:
        bad = rng.choice(_DUMP_DEFECTS[defect])
        row = rows.setdefault(rng.choice(_DUMP_FQNS), {})
        if defect == "count":
            row[rng.choice(_DUMP_TOKENS)] = bad
        elif defect == "token":
            row[bad] = rng.randint(1, 3)
        elif defect == "FQN":
            (rows if rng.random() < 0.5 else totals)[bad] = (
                {"t": rng.choice((-1, 0, 2))} if rng.random() < 0.5 else 0
            )
        else:
            row.update({"a": bad, "b": bad})
    model = CooccurrenceModel(
        rows=rows,
        fqn_totals=totals,
        vocabulary=set(),
        smoothing_alpha=rng.choice((0.5, 1.0, 2.25, 3, 5e-324, 1.7976931348623157e308)),
        window_eta=rng.randint(0, 3),
    )
    return model, defect


def test_every_model_dump_model_accepts_round_trips(tmp_path):
    """dump_model refuses each planted defect with one ValueError line, and
    any other hand-built model's dump loads and dumps again to the same
    text. An int alpha loads as its float, so only its header's number
    changes (alpha=3 becomes alpha=3.0)."""
    rng = random.Random(2107)
    path = tmp_path / "model.tsv"
    seen = dict.fromkeys((None, *_DUMP_DEFECTS), 0)
    for case in range(800):
        model, defect = _random_dump_model(rng)
        seen[defect] += 1
        if defect is not None:
            with pytest.raises(ValueError, match=f"^cannot dump model: {defect} "):
                dump_model(model)
            continue
        text = dump_model(model)
        path.write_text(text, encoding="utf-8")
        alpha = model.smoothing_alpha
        want = text.replace(f"alpha={alpha!r}", f"alpha={float(alpha)!r}", 1)
        assert dump_model(load_model(path)) == want, case
    assert min(seen.values()) >= 80, seen


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
            try:
                arity = int(arity_s)
            except ValueError:
                raise KbError(f"bad arity {arity_s!r}", lineno) from None
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
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise bad(1, "missing model header line")
    settings = {"alpha": 1.0, "eta": 2}
    for part in lines[0].split("\t")[1:]:
        key, _, value = part.partition("=")
        if key not in settings:
            raise bad(1, f"unknown header field {key!r}")
        try:
            settings[key] = float(value) if key == "alpha" else int(value)
        except ValueError:
            raise bad(1, f"bad {key} value {value!r}") from None
    alpha, eta = settings["alpha"], settings["eta"]
    try:
        _check_settings(alpha, eta)
    except ValueError as exc:
        raise bad(1, str(exc)) from None
    rows = {}
    totals = {}
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
            row = rows.setdefault(fqn, {})
            row[tok] = row.get(tok, 0) + n
            totals[fqn] = totals.get(fqn, 0) + n
            vocabulary.add(tok)
        elif parts[0] == "fqn" and len(parts) == 2:
            totals.setdefault(parts[1], 0)
        else:
            raise bad(lineno, f"bad record {_shown(line)}")
    return CooccurrenceModel(rows, totals, vocabulary, alpha, eta)


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
    "method p.A m/0 returns=", "field p.A F static type=",
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
    'count\t"a"\ta.X\t 4', 'count\t"a"\ta.X\t1_0',
    # a literal with text after it, unterminated, or with a short escape
    'count\t"a"x\ta.X\t1', 'count\t"a\ta.X\t1', 'count\t"\\u12"\ta.X\t1',
    'count\t"a\\"\ta.X\t1',
)
_MODEL_HEADERS = (
    "cooccurrence", "cooccurrence\teta=1\talpha=0.5", "cooccurrenc",
    "cooccurrence\talpha=0", "cooccurrence\tbeta=1", "cooccurrence\teta=x", "",
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
