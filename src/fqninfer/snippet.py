"""Lenient, lossless Java-ish lexing plus API element identification and
context augmentation for incomplete snippets.

The lexer never fails. One `findall` of one regex, whose last alternative
takes any single character, lists the lexemes, so every character of input
lands in exactly one token and concatenating the lexemes reproduces the
source exactly. A lexeme's kind is read off its first character, except
that a keyword, a lone '/' and a lone '.' are named whole; a lone quote is
an unterminated literal when a line break or the end of the text follows
it, and punctuation otherwise. A `Token` is a tuple-backed (lexeme, kind,
line) record, equal only to another `Token`. Snippets are allowed to be
broken code, so structure recognition has to cope.

Structure is recognised once per snippet, on the `Snippet` itself:
`Snippet.structure` holds the significant tokens, padded at the end so a
pass reads its neighbours without bounds checks, the partner of every
bracket (paired in one pass, so broken code costs no rescans), the commas
at each bracket depth (so a call's arity is two bisections), every class,
interface and enum header, and the extends/implements clauses.
Identification here and constraint extraction both read it.
`Snippet.word_index` holds the line and position of every identifier and
literal token: a context window over the snippet, or over any augmentation
of it, is a slice of that index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, repeat
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    LITERAL = "literal"
    PUNCT = "punct"
    COMMENT = "comment"
    WHITESPACE = "whitespace"


# Looking a member up on an Enum class costs about 170 ns on Python 3.11,
# so the kind tests made per token read these constants.
_IDENTIFIER, _KEYWORD, _PUNCT = TokenKind.IDENTIFIER, TokenKind.KEYWORD, TokenKind.PUNCT
_LAYOUT_KINDS = (TokenKind.WHITESPACE, TokenKind.COMMENT)
_WORD_KINDS = (TokenKind.IDENTIFIER, TokenKind.LITERAL)  # what a window reads

# Reserved words of the language, plus the three literal words which are
# reserved just the same for our purposes: none of them can name a type.
JAVA_KEYWORDS = frozenset(
    """
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while
    true false null var record sealed permits yield
    """.split()
)


def _value_tuple(cls):
    """Make the NamedTuple class cls a value equal only to its own instances.

    A tuple underneath, so it is built cheaply (by `tuple.__new__` where
    that matters) and hashes in C, as its field tuple does; but comparing it
    with a plain tuple, or with another NamedTuple of the same fields, gives
    False from either side.
    """

    def __eq__(self, other: object) -> bool:
        return other.__class__ is cls and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not (other.__class__ is cls and tuple.__eq__(self, other))

    cls.__eq__, cls.__ne__ = __eq__, __ne__
    # defining __eq__ unsets the hash; keep the field tuple's
    cls.__hash__ = tuple.__hash__
    return cls


@_value_tuple
class Token(NamedTuple):
    """One lexeme of a snippet: its text, kind and start line, as a
    `_value_tuple`."""

    lexeme: str
    kind: TokenKind
    line: int  # 1-based line where the token starts


@dataclass(frozen=True)
class Header:
    """One `class`, `interface` or `enum` header. Positions are indices into
    `SnippetStructure.significant`."""

    kind: str  # class | interface | enum
    name: str | None  # None when no identifier follows, as in `Foo.class`
    open: int | None  # the body's '{'; None when ';' or the end comes first
    close: int | None  # the matching '}', or the last token if unterminated


@dataclass(frozen=True)
class SnippetStructure:
    """The bracket and declaration structure of a snippet, read in one pass.

    significant: every token that is not whitespace or a comment, followed
        by three `END` pads. A pass may read up to three tokens past any
        real one, and `significant[j - 1]` at j == 0 wraps to a pad, so no
        neighbour read needs a bounds check. A pad has a layout kind and an
        empty lexeme, so it matches no kind or lexeme test a pass makes.
    positions: the token index of each significant token, then one None per
        pad: no element's token_index equals a pad's.
    partner: position of each '(' and '{' -> position of its matching ')'
        or '}'. Brackets are paired once, by one stack per bracket type.
        An unterminated '{' maps to the last position; an unterminated '('
        has no entry.
    arg_depth: position of each '(' -> the bracket depth just inside it.
    commas: bracket depth -> positions of the commas at that depth, in
        order. Bracket depth counts '(', '[' and '{' as opening and ')',
        ']' and '}' as closing, whichever bracket they pair with: that is
        how a call's arity counts the commas of its argument list and none
        inside an array initializer, class body or lambda block in it.
    headers: every class/interface/enum header, in token order.
    clauses: position of each identifier in an extends/implements clause ->
        (clause keyword, declaring header). A header nested in another
        before the body opens declares the clauses after it; a clause with
        no named header before it belongs to the first, nameless one.
    """

    significant: tuple[Token, ...]
    positions: tuple[int | None, ...]
    partner: Mapping[int, int]
    arg_depth: Mapping[int, int]
    commas: Mapping[int, Sequence[int]]
    headers: tuple[Header, ...]
    clauses: Mapping[int, tuple[str, Header]]


_DECLARATIONS = ("class", "interface", "enum")


_CLOSERS = {")": "(", "}": "{"}
_BRACKETS_AND_COMMA = frozenset("(){}[],")
END = Token("", TokenKind.WHITESPACE, 0)  # pads SnippetStructure.significant
_PADS = 3


def _read_structure(tokens: Sequence[Token]) -> SnippetStructure:
    positions = [i for i, t in enumerate(tokens) if t.kind not in _LAYOUT_KINDS]
    n = len(positions)
    sig = tuple([tokens[i] for i in positions] + [END] * _PADS)
    partner: dict[int, int] = {}
    stacks: dict[str, list[int]] = {"(": [], "{": []}
    arg_depth: dict[int, int] = {}
    commas: dict[int, list[int]] = {}
    depth = 0
    for j, t in enumerate(sig):
        lex = t.lexeme
        if lex not in _BRACKETS_AND_COMMA:
            continue
        if lex == ",":
            commas.setdefault(depth, []).append(j)
            continue
        if lex in stacks:
            stacks[lex].append(j)
        elif lex in _CLOSERS:
            openers = stacks[_CLOSERS[lex]]
            if openers:
                partner[openers.pop()] = j
        if lex in "([{":  # lex is one character here
            depth += 1
            if lex == "(":
                arg_depth[j] = depth
        elif lex in ")]}":
            depth -= 1
    for j in stacks["{"]:
        partner[j] = n - 1  # an unterminated body runs to the end
    headers: list[Header] = []
    clauses: dict[int, tuple[str, Header]] = {}
    j = 0
    while j < n:
        t = sig[j]
        if t.kind != _KEYWORD or t.lexeme not in _DECLARATIONS:
            j += 1
            continue
        # One header run, up to the first '{' or ';'. Headers nested in it
        # share its end and its body.
        end = j
        while end < n and sig[end].lexeme not in ("{", ";"):
            end += 1
        open_ = close = None
        if sig[end].lexeme == "{":
            open_, close = end, partner[end]
        clause: str | None = None
        first = latest_named = owner = None
        for k in range(j, end):
            tk = sig[k]
            if tk.kind == _KEYWORD and tk.lexeme in _DECLARATIONS:
                nxt = sig[k + 1]
                name = nxt.lexeme if nxt.kind == _IDENTIFIER else None
                header = Header(tk.lexeme, name, open_, close)
                headers.append(header)
                if first is None:
                    first = header
                if name is not None:
                    latest_named = header
            elif tk.kind == _KEYWORD and tk.lexeme in ("extends", "implements"):
                clause, owner = tk.lexeme, latest_named or first
            elif clause is not None and tk.kind == _IDENTIFIER:
                clauses[k] = (clause, owner)
        j = end
    return SnippetStructure(
        sig,
        tuple(positions + [None] * _PADS),
        MappingProxyType(partner),
        MappingProxyType(arg_depth),
        MappingProxyType(commas),
        tuple(headers),
        MappingProxyType(clauses),
    )


@dataclass(frozen=True)
class Snippet:
    """Source text and its lossless tokens; build one with `tokenize`."""

    raw: str
    tokens: tuple[Token, ...]

    @cached_property
    def structure(self) -> SnippetStructure:
        """Read on first use, then shared by every pass over this snippet."""
        return _read_structure(self.tokens)

    @cached_property
    def word_index(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(start lines, token indices) of the identifier and literal tokens,
        in token order, so the lines never decrease. Augmentation keeps each
        token's kind and line, so the index serves every augmentation of
        this snippet."""
        # tuples built from lists: tuple(genexpr) grows its tuple by resizing,
        # so it takes none from CPython's free list of its final size but
        # frees one into it; with no full collection to clear them, those
        # free lists would grow to their cap
        tokens = self.tokens
        indices = tuple([i for i, t in enumerate(tokens) if t.kind in _WORD_KINDS])
        return tuple([tokens[i].line for i in indices]), indices


_TOKEN_RE = re.compile(
    r"""
    [A-Za-z_$][A-Za-z0-9_$]*                         # identifier or keyword
    |\s+                                             # whitespace
    |//[^\n]*|/\*.*?\*/|/\*.*                        # line, block, unterminated block comment
    |"(?:\\.|[^"\\\n])*(?:"|(?=\n)|$)                # string, unterminated stops at EOL
    |'(?:\\.|[^'\\\n])*(?:'|(?=\n)|$)                # char, the same
    |0[xX][0-9a-fA-F_]+[lL]?                         # hex number
    |0[bB][01_]+[lL]?                                # binary number
    |\d[\d_]*\.\d[\d_]*(?:[eE][+-]?\d+)?[fFdD]?      # decimal with a point,
    |\.\d[\d_]*(?:[eE][+-]?\d+)?[fFdD]?              # with a leading point,
    |\d[\d_]*(?:[eE][+-]?\d+)?[fFdDlL]?              # with none
    |.                                               # any other character
    """,
    re.VERBOSE | re.DOTALL,
)


class _KindOfFirst(dict):
    """First character -> the kind of a lexeme that starts with it, unless
    `_KIND_OF_LEXEME` names the whole lexeme: the alternatives of
    `_TOKEN_RE` before the last start on disjoint characters, so the first
    one tells them apart. Tabled for ASCII; any other character is
    classified when it is looked up and not kept, so the table never
    grows."""

    def __missing__(self, char: str) -> TokenKind:
        if char.isascii() and (char.isalpha() or char in "_$"):
            return _IDENTIFIER
        if re.match(r"\s", char):
            return TokenKind.WHITESPACE
        if char == "/":
            return TokenKind.COMMENT
        if char in "\"'." or re.match(r"\d", char):
            return TokenKind.LITERAL
        return _PUNCT


_KIND_OF_FIRST = _KindOfFirst()
_KIND_OF_FIRST.update({c: _KIND_OF_FIRST[c] for c in map(chr, range(128))})
# A lone '/' or '.' is punctuation, where a longer lexeme is a comment or a
# number; an identifier-shaped keyword is a keyword.
_KIND_OF_LEXEME = {"/": _PUNCT, ".": _PUNCT} | dict.fromkeys(JAVA_KEYWORDS, _KEYWORD)
_QUOTES = frozenset("\"'")
_first = itemgetter(0)


def _lone_quotes_as_punct(lexemes: list[str], kinds: list[TokenKind]) -> list[TokenKind]:
    """Mark as punctuation each lone quote whose literal failed: one that is
    neither the last lexeme nor followed by a line break. Such a literal ran
    into a backslash that ends the text, so only such a text holds one."""
    last = len(lexemes) - 1
    for i, lexeme in enumerate(lexemes):
        if lexeme in _QUOTES and i < last and lexemes[i + 1][0] != "\n":
            kinds[i] = _PUNCT
    return kinds


def tokenize(text: str) -> Snippet:
    """Lossless total lexing: identifiers, keywords, literals, punctuation,
    comments and whitespace runs. Bytes that fit nothing become single-char
    punctuation tokens.

    One `findall` of one regex lists the lexemes: no alternative matches
    empty and the last matches any character, so each match starts where
    the previous one ended. A lexeme's kind is that of its first
    character, unless the whole lexeme is a keyword, or a lone '/' or '.',
    which are punctuation. A lone quote is a literal (unterminated at the
    end of its line or of the text) when it is the last lexeme or a line
    break follows it; otherwise it is punctuation. Every step maps a
    builtin over the lexemes, so no Python code runs per token.
    """
    lexemes = _TOKEN_RE.findall(text)
    first_kinds = map(_KIND_OF_FIRST.__getitem__, map(_first, lexemes))
    kinds = map(_KIND_OF_LEXEME.get, lexemes, first_kinds)
    if text.endswith("\\"):
        kinds = _lone_quotes_as_punct(lexemes, list(kinds))
    lines = accumulate(map(str.count, lexemes, repeat("\n")), initial=1)
    # a list first: tuple(map(...)) would grow its tuple by resizing
    # (see Snippet.word_index)
    tokens = list(map(tuple.__new__, repeat(Token), zip(lexemes, kinds, lines)))
    return Snippet(raw=text, tokens=tuple(tokens))


def read_utf8(path: str | Path, error: type[Exception] = ValueError) -> str:
    """The text of a UTF-8 file. A file that does not decode raises `error`
    naming the file and the line of the first bad byte.

    The file is read with universal newlines, so the text holds no "\\r",
    and the loaders end records at "\\n" alone, as this error counts lines.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = Path(path).read_bytes().count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text") from None


# ---------------------------------------------------------------------------
# API element identification

@_value_tuple
class ApiElement(NamedTuple):
    """One occurrence of an API class or interface name in a snippet, as a
    `_value_tuple`: elements key the dicts of every stage, and a tuple
    hashes in C.

    Occurrences are numbered from 1 within (simple_name, line), so the key
    Name[line,occurrence] is stable and human-readable.
    """

    simple_name: str
    line: int
    occurrence: int
    token_index: int

    @property
    def key(self) -> str:
        return f"{self.simple_name}[{self.line},{self.occurrence}]"


# Boxed primitives never need FQN inference; String is ubiquitous enough
# that asking for it is noise, though callers can opt back in.
BOXED_NAMES = frozenset(
    ["Integer", "Long", "Double", "Float", "Boolean", "Character", "Byte", "Short", "Void"]
)


def identify_api_elements(
    snippet: Snippet,
    kb=None,
    *,
    exclude_string: bool = True,
) -> list[ApiElement]:
    """Heuristic identification of API type occurrences, in token order.

    An uppercase-initial identifier becomes an element when it sits in a
    type-usage position: after `new`, as a declared type before another
    identifier, as the receiver of a static member access, in an extends or
    implements clause, as a cast, as an annotation name, or (when a kb is
    given) when its simple name matches a KB entry. Names declared by the
    snippet itself (class/interface/enum declarations) are excluded, as are
    boxed primitives and, by default, String.
    """
    excluded = set(BOXED_NAMES)
    if exclude_string:
        excluded.add("String")

    structure = snippet.structure
    sig = structure.significant
    local_decls = {h.name for h in structure.headers if h.name is not None}

    occurrence_counter: dict[tuple[str, int], int] = {}
    elements: list[ApiElement] = []

    for j, t in enumerate(sig):
        if t.kind != _IDENTIFIER or not t.lexeme[:1].isupper():
            continue
        name = t.lexeme
        if name in excluded or name in local_decls:
            continue
        prev, nxt, nxt2 = sig[j - 1], sig[j + 1], sig[j + 2]
        if prev.lexeme == ".":
            continue  # mid-qualified-name segment or member access

        # the first position that matches decides, even when it rejects
        if prev.lexeme == "@":
            accepted = True  # annotation
        elif prev.kind == _KEYWORD and prev.lexeme == "new":
            accepted = True  # object creation
        elif j in structure.clauses:
            accepted = True  # extends or implements clause
        elif nxt.lexeme == ".":
            accepted = nxt2.kind == _IDENTIFIER  # static receiver
        elif nxt.kind == _IDENTIFIER:
            accepted = True  # declared type
        elif nxt.lexeme == "[" and nxt2.lexeme == "]":
            accepted = sig[j + 3].kind == _IDENTIFIER  # declared array type
        elif (
            prev.lexeme == "("
            and nxt.lexeme == ")"
            and (nxt2.kind in _WORD_KINDS or nxt2.lexeme in ("(", "new", "this"))
        ):
            accepted = True  # cast
        else:
            accepted = kb is not None and bool(kb.candidates_for(name))

        if not accepted:
            continue
        count = occurrence_counter.get((name, t.line), 0) + 1
        occurrence_counter[(name, t.line)] = count
        elements.append(ApiElement(name, t.line, count, structure.positions[j]))

    return elements


# ---------------------------------------------------------------------------
# augmentation

class AugmentError(ValueError):
    """A substitution key does not line up with the snippet's tokens."""


@dataclass(frozen=True)
class AugmentedSnippet:
    """The source snippet with some element tokens replaced by FQN lexemes.

    Token count, ordering and line numbers are unchanged; only the lexeme at
    each substituted index differs. Substituted FQNs keep IDENTIFIER kind so
    they participate in context windows as single tokens.
    """

    source: Snippet
    tokens: tuple[Token, ...]

    def text(self) -> str:
        return "".join(t.lexeme for t in self.tokens)


def augment(snippet: Snippet, typed: Mapping[ApiElement, str]) -> AugmentedSnippet:
    """Replace each typed element's token with its inferred FQN.

    The FQN's simple name does not have to match the element name: wrong
    inferences are substituted as-is. Raises AugmentError when a key does
    not point at a matching identifier token of this snippet.
    """
    new_tokens = list(snippet.tokens)
    for e, fqn in typed.items():
        idx = e.token_index
        if idx < 0 or idx >= len(snippet.tokens):
            raise AugmentError(f"{e.key}: token index {idx} out of range")
        t = snippet.tokens[idx]
        if t.kind != _IDENTIFIER or t.lexeme != e.simple_name:
            raise AugmentError(
                f"{e.key}: token at index {idx} is {t.lexeme!r}, not an "
                f"occurrence of {e.simple_name!r}"
            )
        if not fqn:
            raise AugmentError(f"{e.key}: empty FQN")
        new_tokens[idx] = Token(fqn, _IDENTIFIER, t.line)
    return AugmentedSnippet(source=snippet, tokens=tuple(new_tokens))


def plain(snippet: Snippet) -> AugmentedSnippet:
    """The snippet viewed as an augmentation with no substitutions."""
    return augment(snippet, {})
