"""Lenient, lossless Java-ish lexing plus API element identification and
context augmentation for incomplete snippets.

The lexer never fails. One `findall` of one regex, whose last alternative
takes any single character, lists the lexemes, so every character of input
lands in exactly one token and concatenating the lexemes reproduces the
source exactly. A lexeme's kind is read off its first character, except
that a keyword, a lone '/' and a lone '.' are named whole; a lone quote is
an unterminated literal when a line break or the end of the text follows
it, and punctuation otherwise. A `Snippet` holds its tokens as three
parallel columns, `lexemes`, `kinds` and `lines`: no record is built per
token. Snippets may be broken code, so structure recognition has to cope.

Structure is recognised once per snippet, on the `Snippet` itself:
`Snippet.structure` holds the columns of the significant tokens, padded at
the end so a pass reads its neighbours without bounds checks, the partner
of every bracket and the end of every closed type-argument list `<...>`
(each paired by a stack, so broken code costs no rescans), the commas at
each bracket depth (so a call's arity is two bisections), every class,
interface and enum header with the constructor names atop its body, the
extends/implements clauses, and the line and token index of every
identifier and literal, from one walk over the significant tokens (two if
the text holds a '<') and one scan of each body's top level. Identification
here, constraint extraction and context windows read it: a window over
the snippet, or over any augmentation of it (which replaces lexemes only),
is a slice of those word columns.
"""

from __future__ import annotations

import gc
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, wraps
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
# so the kind tests made per token read these constants, by identity.
_IDENTIFIER, _KEYWORD, _PUNCT = TokenKind.IDENTIFIER, TokenKind.KEYWORD, TokenKind.PUNCT
_LITERAL, _WHITESPACE, _COMMENT = (TokenKind.LITERAL, TokenKind.WHITESPACE,
                                   TokenKind.COMMENT)
_WORD_KINDS = (_IDENTIFIER, _LITERAL)  # what a window reads

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
    """Make the NamedTuple class cls a value equal only to its own instances,
    as every record of the package that neither caches nor validates is.

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
class Header(NamedTuple):
    """One `class`, `interface` or `enum` header. Positions are indices into
    the `SnippetStructure` columns."""

    kind: str  # class | interface | enum
    name: str | None  # None when no identifier follows, as in `Foo.class`
    open: int | None  # the body's '{'; None when ';' or the end comes first
    close: int | None  # the matching '}', or the last token if unterminated


@_value_tuple
class SnippetStructure(NamedTuple):
    """The bracket and declaration structure of a snippet, read in one walk.

    lexemes, kinds, lines: the columns of every token that is not
        whitespace or a comment, each followed by three pads ("",
        WHITESPACE and 0). A pass may read up to three positions past any
        real one, and position j - 1 at j == 0 wraps to a pad, so no
        neighbour read needs a bounds check. A pad matches no kind or
        lexeme test a pass makes.
    positions: the token index of each significant token, then one None per
        pad: no element's token_index equals a pad's.
    partner: position of each '(' and '{' -> position of its matching ')'
        or '}'. Brackets are paired once, by one stack per bracket type.
        An unterminated '{' maps to the last position; an unterminated '('
        has no entry.
    arg_depth: position of each '(' -> the bracket depth just inside it.
    commas: bracket depth -> positions of the commas at that depth, in
        order. Bracket depth counts '(', '[' and '{' as opening and ')',
        ']' and '}' as closing, whichever bracket they pair with, and
        closed type arguments in expression position (after '.', '::' or
        the name a `new` or `instanceof` names) as one level: that is how
        a call's arity counts the commas of its argument list and none
        inside an array initializer, class body, lambda block or explicit
        type arguments in it.
    type_arguments: position of each '<' that opens closed type arguments
        -> the position just past its '>', so the type name at j and its
        type arguments end at `type_arguments.get(j + 1, j + 1)`.
    headers: every class/interface/enum header, in token order.
    constructors: the '{' of each header run's body -> the names of the
        constructor shapes at the body's top level (`Name(...) {` after a
        `_MEMBER_PREV` lexeme), read in one scan per body.
    clauses: position of each identifier in an extends/implements clause ->
        (clause keyword, declaring header). A header nested in another
        before the body opens declares the clauses after it; a clause with
        no named header before it belongs to the first, nameless one.
    constructed: the position of the name each `new` constructs.
    word_lines, word_indices: the line and token index of every identifier
        and literal, in token order (the lines never decrease), which a
        context window slices; augmentation keeps kinds and lines.
    """

    lexemes: tuple[str, ...]
    kinds: tuple[TokenKind, ...]
    lines: tuple[int, ...]
    positions: tuple[int | None, ...]
    partner: Mapping[int, int]
    arg_depth: Mapping[int, int]
    commas: Mapping[int, Sequence[int]]
    type_arguments: Mapping[int, int]
    headers: tuple[Header, ...]
    constructors: Mapping[int, frozenset[str]]
    clauses: Mapping[int, tuple[str, Header]]
    constructed: frozenset[int]
    word_lines: tuple[int, ...]
    word_indices: tuple[int, ...]


_DECLARATIONS = ("class", "interface", "enum")
_CLOSERS = {")": "(", "}": "{"}
# the lexemes the structure walk stops at, besides the words
_STRUCTURAL = frozenset("(){}[],<>") | frozenset(_DECLARATIONS) | {"new", "instanceof"}
# what may come right before a member's name in a class body
_MEMBER_PREV = frozenset(["public", "private", "protected", "static", "final",
                          ";", "{", "}"])
_PADS = 3  # pads after the SnippetStructure columns
_TYPE_ARGUMENT_WORDS = frozenset((".", ",", "?", "extends", "super"))
_PRIMITIVES = frozenset("boolean byte char short int long float double".split())


def _pair_type_arguments(lex: Sequence[str], kind: Sequence[TokenKind]) -> dict[int, int]:
    """'<' position -> the position just past its '>', for each '<' that
    opens closed type arguments: those hold only identifiers, '.', ',', '?',
    `extends`, `super`, '[]', a primitive before '[]' and nested `<...>`, so
    `A < b && c > d` and `List<int>` have none. One stack pass pairs them;
    any other token, a '>' with none open or a pad empties the stack."""
    ends: dict[int, int] = {}
    opened: list[int] = []
    tokens = enumerate(lex)
    for k, lx in tokens:
        if lx == "<":
            opened.append(k)
        elif lx == ">" and opened:
            ends[opened.pop()] = k + 1
        elif lx == "[" and lex[k + 1] == "]":
            next(tokens)
        elif (kind[k] is not _IDENTIFIER and lx not in _TYPE_ARGUMENT_WORDS
              and not (lx in _PRIMITIVES and lex[k + 1] == "[")):
            opened.clear()
    return ends


def _constructed(lex: Sequence[str], kind: Sequence[TokenKind], j: int) -> int:
    """Position of the name that `new Name` or `new a.b.Name` constructs,
    or that `instanceof` tests, with the keyword at position j: the last
    identifier of the dotted run after it, or -1 when none follows."""
    k = j + 1
    if kind[k] is not _IDENTIFIER:
        return -1
    while lex[k + 1] == "." and kind[k + 2] is _IDENTIFIER:
        k += 2
    return k


def _read_structure(snippet: Snippet) -> SnippetStructure:
    lexemes, kinds, lines = snippet.lexemes, snippet.kinds, snippet.lines
    positions = [i for i, k in enumerate(kinds)
                 if k is not _WHITESPACE and k is not _COMMENT]
    n = len(positions)
    lex = tuple([lexemes[i] for i in positions] + [""] * _PADS)
    kind = tuple([kinds[i] for i in positions] + [_WHITESPACE] * _PADS)
    partner: dict[int, int] = {}
    stacks: dict[str, list[int]] = {"(": [], "{": []}
    arg_depth: dict[int, int] = {}
    commas: dict[int, list[int]] = {}
    declarations: list[int] = []  # positions of class/interface/enum
    words: list[int] = []  # token indices of the identifiers and literals
    constructed: list[int] = []  # positions of the names `new` constructs
    type_arguments = _pair_type_arguments(lex, kind) if "<" in snippet.raw else {}
    depth = 0
    built = None  # the name the last `new` or `instanceof` names
    level_ends: set[int] = set()  # the '>' of each '<' counted as a level
    for j, lx in enumerate(lex):  # a pad is neither a word nor structural
        if lx not in _STRUCTURAL:
            k = kind[j]
            if k is _IDENTIFIER or k is _LITERAL:
                words.append(positions[j])
            continue
        if lx == ",":
            commas.setdefault(depth, []).append(j)
            continue
        if lx in _DECLARATIONS:  # always a keyword
            declarations.append(j)
            continue
        if lx == "new" or lx == "instanceof":  # always keywords
            built = _constructed(lex, kind, j)
            if lx == "new" and built >= 0:
                constructed.append(built)
            continue
        if lx == "<":  # type arguments in expression position are a level
            if j in type_arguments and (
                    j - 1 == built or lex[j - 1] == "." or lex[j - 1] == lex[j - 2] == ":"):
                depth += 1
                level_ends.add(type_arguments[j] - 1)
            continue
        if lx == ">":
            if j in level_ends:
                depth -= 1
            continue
        if lx in stacks:
            stacks[lx].append(j)
        elif lx in _CLOSERS:
            openers = stacks[_CLOSERS[lx]]
            if openers:
                partner[openers.pop()] = j
        if lx in "([{":  # lx is one character here
            depth += 1
            if lx == "(":
                arg_depth[j] = depth
        else:
            depth -= 1
    for j in stacks["{"]:
        partner[j] = n - 1  # an unterminated body runs to the end
    headers: list[Header] = []
    constructors: dict[int, frozenset[str]] = {}
    clauses: dict[int, tuple[str, Header]] = {}
    end = 0
    for j in declarations:
        if j < end:
            continue  # a header nested in the run read last
        # One header run, up to the first '{' or ';'. Headers nested in it
        # share its end and its body.
        end = j
        while end < n and lex[end] not in ("{", ";"):
            end += 1
        open_ = close = None
        if lex[end] == "{":
            open_, close = end, partner[end]
            names: set[str] = set()
            k = end + 1
            while k < close:  # the body's top level
                lx = lex[k]
                if lx == "{":
                    k = partner[k]  # a nested block holds no member of this body
                elif (kind[k] is _IDENTIFIER and lx[:1].isupper()
                      and lex[k - 1] in _MEMBER_PREV and lex[k + 1] == "("
                      and k + 1 in partner and lex[partner[k + 1] + 1] == "{"):
                    names.add(lx)
                k += 1
            constructors[end] = frozenset(names)
        clause: str | None = None
        first = latest_named = owner = None
        for k in range(j, end):
            if kind[k] is _KEYWORD and lex[k] in _DECLARATIONS:
                name = lex[k + 1] if kind[k + 1] is _IDENTIFIER else None
                header = Header(lex[k], name, open_, close)
                headers.append(header)
                if first is None:
                    first = header
                if name is not None:
                    latest_named = header
            elif kind[k] is _KEYWORD and lex[k] in ("extends", "implements"):
                clause, owner = lex[k], latest_named or first
            elif clause is not None and kind[k] is _IDENTIFIER:
                clauses[k] = (clause, owner)
    return SnippetStructure(
        lex, kind, tuple([lines[i] for i in positions] + [0] * _PADS),
        tuple(positions + [None] * _PADS), MappingProxyType(partner),
        MappingProxyType(arg_depth), MappingProxyType(commas),
        MappingProxyType(type_arguments), tuple(headers),
        MappingProxyType(constructors), MappingProxyType(clauses), frozenset(constructed),
        tuple([lines[i] for i in words]), tuple(words),
    )


@dataclass(frozen=True)
class Snippet:
    """Source text and its lossless tokens as columns: token i is
    `lexemes[i]`, of kind `kinds[i]`, from 1-based line `lines[i]`. Build
    one with `tokenize`."""

    raw: str
    lexemes: tuple[str, ...]
    kinds: tuple[TokenKind, ...]
    lines: tuple[int, ...]

    @cached_property
    def structure(self) -> SnippetStructure:
        """Read on first use, then shared by every pass over this snippet."""
        return _read_structure(self)


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
            return _WHITESPACE
        if char == "/":
            return _COMMENT
        if char in "\"'." or re.match(r"\d", char):
            return _LITERAL
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
    builtin over the lexemes, so no Python code runs per token, and the
    snippet's columns are the tuples those maps give.
    """
    lexemes = _TOKEN_RE.findall(text)
    first_kinds = map(_KIND_OF_FIRST.__getitem__, map(_first, lexemes))
    kinds = map(_KIND_OF_LEXEME.get, lexemes, first_kinds)
    if text.endswith("\\"):
        kinds = _lone_quotes_as_punct(lexemes, list(kinds))
    lines = list(accumulate(map(str.count, lexemes, repeat("\n")), initial=1))
    del lines[-1]  # the line after the last lexeme
    # lists first, here and for the structure's columns: tuple(map(...))
    # grows its tuple by resizing, so it takes none from CPython's free list
    # of its final size but frees one into it; with no full collection to
    # clear them, those free lists would grow to their cap
    return Snippet(text, tuple(lexemes), tuple(list(kinds)), tuple(lines))


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


def collector_paused(loader):
    """loader with the cyclic garbage collector paused while it runs.

    A loader builds tens of thousands of containers that all stay alive,
    so every collection their allocations would trigger finds nothing.
    The collector's previous state is restored however loader ends.

    When loader returns and the collector was on at entry, with no object
    frozen, everything the collector tracks moves to the oldest generation
    (`gc.freeze()` then `gc.unfreeze()`: two list splices, which also
    reset the young generation's count), so no young collection walks
    what loader built. A caller's frozen objects stay frozen: with any,
    the generations are left as they are.
    """

    @wraps(loader)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = loader(*args, **kwargs)
            if enabled and not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            return result
        finally:
            if enabled:
                gc.enable()

    return paused


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
    type-usage position: as the name a `new` constructs (the last one of
    `new a.b.Name`), as a declared type before another identifier, as the
    receiver of a static member access, in an extends or implements clause,
    as a cast, as an annotation name, or (when a kb is given) when its
    simple name matches a KB entry. A declared type, a declared array type
    and a cast are read past the type arguments `<...>` the name may take,
    so `List<String> xs` and `(List<String>) value` are read as `List xs`
    and `(List) value`. Names declared by the snippet itself
    (class/interface/enum declarations) are excluded, as are boxed
    primitives and, by default, String.
    """
    excluded = set(BOXED_NAMES)
    if exclude_string:
        excluded.add("String")

    structure = snippet.structure
    lexemes, kinds, lines = structure.lexemes, structure.kinds, structure.lines
    constructed = structure.constructed
    local_decls = {h.name for h in structure.headers if h.name is not None}

    occurrence_counter: dict[tuple[str, int], int] = {}
    elements: list[ApiElement] = []

    for j, name in enumerate(lexemes):
        if kinds[j] is not _IDENTIFIER or not name[:1].isupper():
            continue
        if name in excluded or name in local_decls:
            continue
        prev, nxt = lexemes[j - 1], lexemes[j + 1]
        # the declared, array and cast rules read on past the type arguments
        t = structure.type_arguments.get(j + 1, j + 1)

        # the first position that matches decides, even when it rejects
        if j in constructed:
            accepted = True  # object creation
        elif prev == ".":
            continue  # mid-qualified-name segment or member access
        elif prev == "@":
            accepted = True  # annotation
        elif j in structure.clauses:
            accepted = True  # extends or implements clause
        elif nxt == ".":
            accepted = kinds[j + 2] is _IDENTIFIER  # static receiver
        elif kinds[t] is _IDENTIFIER:
            accepted = True  # declared type
        elif lexemes[t] == "[" and lexemes[t + 1] == "]":
            accepted = kinds[t + 2] is _IDENTIFIER  # declared array type
        elif (
            prev == "("
            and lexemes[t] == ")"
            and (kinds[t + 1] in _WORD_KINDS or lexemes[t + 1] in ("(", "new", "this"))
        ):
            accepted = True  # cast
        else:
            accepted = kb is not None and bool(kb.candidates_for(name))

        if not accepted:
            continue
        slot = (name, lines[j])
        occurrence_counter[slot] = count = occurrence_counter.get(slot, 0) + 1
        elements.append(ApiElement(name, lines[j], count, structure.positions[j]))

    return elements


# ---------------------------------------------------------------------------
# augmentation

class AugmentError(ValueError):
    """A substitution key does not line up with the snippet's tokens."""


@_value_tuple
class AugmentedSnippet(NamedTuple):
    """The source snippet with some element tokens replaced by FQN lexemes.

    Only the lexeme column is its own: kinds and lines are the source's, so
    a substituted FQN is one IDENTIFIER token on its element's line and
    takes part in context windows as such.
    """

    source: Snippet
    lexemes: tuple[str, ...]

    def text(self) -> str:
        return "".join(self.lexemes)


def augment(snippet: Snippet, typed: Mapping[ApiElement, str]) -> AugmentedSnippet:
    """Replace each typed element's token with its inferred FQN.

    The FQN's simple name does not have to match the element name: wrong
    inferences are substituted as-is. Raises AugmentError when a key does
    not point at a matching identifier token of this snippet, or its FQN is
    empty, no str or holds a line feed, which would move the lines after it.
    """
    lexemes = snippet.lexemes
    new_lexemes = list(lexemes)
    for e, fqn in typed.items():
        idx = e.token_index
        if idx < 0 or idx >= len(lexemes):
            raise AugmentError(f"{e.key}: token index {idx} out of range")
        if snippet.kinds[idx] is not _IDENTIFIER or lexemes[idx] != e.simple_name:
            raise AugmentError(
                f"{e.key}: token at index {idx} is {lexemes[idx]!r}, not an "
                f"occurrence of {e.simple_name!r}"
            )
        if not isinstance(fqn, str) or "\n" in fqn:
            raise AugmentError(f"{e.key}: bad FQN {fqn!r:.80}")
        if not fqn:
            raise AugmentError(f"{e.key}: empty FQN")
        new_lexemes[idx] = fqn
    return AugmentedSnippet(snippet, tuple(new_lexemes))


def plain(snippet: Snippet) -> AugmentedSnippet:
    """The snippet viewed as an augmentation with no substitutions."""
    return augment(snippet, {})
