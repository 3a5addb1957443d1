"""Lenient, lossless Java-ish lexing plus API element identification and
context augmentation for incomplete snippets.

The lexer never fails: every byte of input lands in exactly one token, so
concatenating the lexemes reproduces the source exactly. Snippets are
allowed to be broken code, so structure recognition has to cope.

Structure is recognised once per snippet, on the `Snippet` itself:
`Snippet.structure` holds the significant tokens, the partner of every
bracket (paired in one pass, so broken code costs no rescans), every class,
interface and enum header, and the extends/implements clauses.
Identification here and constraint extraction both read it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    LITERAL = "literal"
    PUNCT = "punct"
    COMMENT = "comment"
    WHITESPACE = "whitespace"


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


@dataclass(frozen=True)
class Token:
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
    """The declaration structure of a snippet, read in one pass.

    significant: (token index, token) for every token that is not
        whitespace or a comment.
    partner: position of each '(' and '{' -> position of its matching ')'
        or '}'. Brackets are paired once, by one stack per bracket type.
        An unterminated '{' maps to the last position; an unterminated '('
        has no entry.
    headers: every class/interface/enum header, in token order.
    clauses: position of each identifier in an extends/implements clause ->
        (clause keyword, declaring header). A header nested in another
        before the body opens declares the clauses after it; a clause with
        no named header before it belongs to the first, nameless one.
    """

    significant: tuple[tuple[int, Token], ...]
    partner: Mapping[int, int]
    headers: tuple[Header, ...]
    clauses: Mapping[int, tuple[str, Header]]


_DECLARATIONS = ("class", "interface", "enum")


_CLOSERS = {")": "(", "}": "{"}


def _read_structure(tokens: Sequence[Token]) -> SnippetStructure:
    sig = tuple(
        (i, t)
        for i, t in enumerate(tokens)
        if t.kind not in (TokenKind.WHITESPACE, TokenKind.COMMENT)
    )
    n = len(sig)
    partner: dict[int, int] = {}
    stacks: dict[str, list[int]] = {"(": [], "{": []}
    for j, (_, t) in enumerate(sig):
        if t.lexeme in stacks:
            stacks[t.lexeme].append(j)
        elif t.lexeme in _CLOSERS:
            openers = stacks[_CLOSERS[t.lexeme]]
            if openers:
                partner[openers.pop()] = j
    for j in stacks["{"]:
        partner[j] = n - 1  # an unterminated body runs to the end
    headers: list[Header] = []
    clauses: dict[int, tuple[str, Header]] = {}
    j = 0
    while j < n:
        t = sig[j][1]
        if t.kind != TokenKind.KEYWORD or t.lexeme not in _DECLARATIONS:
            j += 1
            continue
        # One header run, up to the first '{' or ';'. Headers nested in it
        # share its end and its body.
        end = j
        while end < n and sig[end][1].lexeme not in ("{", ";"):
            end += 1
        open_ = close = None
        if end < n and sig[end][1].lexeme == "{":
            open_, close = end, partner[end]
        clause: str | None = None
        first = latest_named = owner = None
        for k in range(j, end):
            tk = sig[k][1]
            if tk.kind == TokenKind.KEYWORD and tk.lexeme in _DECLARATIONS:
                nxt = sig[k + 1][1] if k + 1 < n else None
                named = nxt is not None and nxt.kind == TokenKind.IDENTIFIER
                name = nxt.lexeme if named else None
                header = Header(tk.lexeme, name, open_, close)
                headers.append(header)
                if first is None:
                    first = header
                if name is not None:
                    latest_named = header
            elif tk.kind == TokenKind.KEYWORD and tk.lexeme in ("extends", "implements"):
                clause, owner = tk.lexeme, latest_named or first
            elif clause is not None and tk.kind == TokenKind.IDENTIFIER:
                clauses[k] = (clause, owner)
        j = end
    return SnippetStructure(
        sig, MappingProxyType(partner), tuple(headers), MappingProxyType(clauses)
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
    def token_lines(self) -> tuple[int, ...]:
        """The start line of each token, never decreasing along the stream."""
        return tuple(t.line for t in self.tokens)

    @property
    def line_count(self) -> int:
        """Lines as an editor counts them: a trailing newline ends the last
        line instead of opening an empty extra one."""
        if not self.raw:
            return 1
        n = self.raw.count("\n")
        return n if self.raw.endswith("\n") else n + 1


_TOKEN_RE = re.compile(
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


def tokenize(text: str) -> Snippet:
    """Lossless total lexing: identifiers, keywords, literals, punctuation,
    comments and whitespace runs. Bytes that fit nothing become single-char
    punctuation tokens.
    """
    tokens: list[Token] = []
    pos = 0
    line = 1
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m and m.end() > pos:
            lexeme = m.group(0)
            group = m.lastgroup
            if group == "comment":
                kind = TokenKind.COMMENT
            elif group == "whitespace":
                kind = TokenKind.WHITESPACE
            elif group in ("string", "char", "number"):
                kind = TokenKind.LITERAL
            else:
                kind = (
                    TokenKind.KEYWORD
                    if lexeme in JAVA_KEYWORDS
                    else TokenKind.IDENTIFIER
                )
        else:
            lexeme = text[pos]
            kind = TokenKind.PUNCT
        tokens.append(Token(lexeme, kind, line))
        line += lexeme.count("\n")
        pos += len(lexeme)
    return Snippet(raw=text, tokens=tuple(tokens))


def read_utf8(path: str | Path, error: type[Exception] = ValueError) -> str:
    """The text of a UTF-8 file. A file that does not decode raises `error`
    naming the file and the line of the first bad byte."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = Path(path).read_bytes().count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text") from None


# ---------------------------------------------------------------------------
# API element identification

@dataclass(frozen=True)
class ApiElement:
    """One occurrence of an API class or interface name in a snippet.

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
    nsig = len(sig)

    def tok(j: int) -> Token | None:
        return sig[j][1] if 0 <= j < nsig else None

    local_decls = {h.name for h in structure.headers if h.name is not None}

    occurrence_counter: dict[tuple[str, int], int] = {}
    elements: list[ApiElement] = []

    for j, (orig_index, t) in enumerate(sig):
        if t.kind != TokenKind.IDENTIFIER or not t.lexeme[:1].isupper():
            continue
        name = t.lexeme
        if name in excluded or name in local_decls:
            continue
        prev = tok(j - 1)
        nxt = tok(j + 1)
        nxt2 = tok(j + 2)
        if prev is not None and prev.lexeme == ".":
            continue  # mid-qualified-name segment or member access

        # the first position that matches decides, even when it rejects
        if prev is not None and prev.lexeme == "@":
            accepted = True  # annotation
        elif prev is not None and prev.kind == TokenKind.KEYWORD and prev.lexeme == "new":
            accepted = True  # object creation
        elif j in structure.clauses:
            accepted = True  # extends or implements clause
        elif nxt is not None and nxt.lexeme == ".":
            # static receiver
            accepted = nxt2 is not None and nxt2.kind == TokenKind.IDENTIFIER
        elif nxt is not None and nxt.kind == TokenKind.IDENTIFIER:
            accepted = True  # declared type
        elif (
            nxt is not None
            and nxt.lexeme == "["
            and nxt2 is not None
            and nxt2.lexeme == "]"
        ):
            # declared array type
            after = tok(j + 3)
            accepted = after is not None and after.kind == TokenKind.IDENTIFIER
        elif (
            prev is not None
            and prev.lexeme == "("
            and nxt is not None
            and nxt.lexeme == ")"
            and nxt2 is not None
            and (
                nxt2.kind in (TokenKind.IDENTIFIER, TokenKind.LITERAL)
                or nxt2.lexeme in ("(", "new", "this")
            )
        ):
            accepted = True  # cast
        else:
            accepted = kb is not None and bool(kb.candidates_for(name))

        if not accepted:
            continue
        count = occurrence_counter.get((name, t.line), 0) + 1
        occurrence_counter[(name, t.line)] = count
        elements.append(ApiElement(name, t.line, count, orig_index))

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
        if t.kind != TokenKind.IDENTIFIER or t.lexeme != e.simple_name:
            raise AugmentError(
                f"{e.key}: token at index {idx} is {t.lexeme!r}, not an "
                f"occurrence of {e.simple_name!r}"
            )
        if not fqn:
            raise AugmentError(f"{e.key}: empty FQN")
        new_tokens[idx] = Token(fqn, TokenKind.IDENTIFIER, t.line)
    return AugmentedSnippet(source=snippet, tokens=tuple(new_tokens))


def plain(snippet: Snippet) -> AugmentedSnippet:
    """The snippet viewed as an augmentation with no substitutions."""
    return augment(snippet, {})
