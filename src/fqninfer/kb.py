"""API knowledge base: type entries, a simple-name index, memoised
supertype closures, member lookups and solver check contributions, and
candidate masks.

A round of the loop narrows the KB to the statistical engine's candidate
types. That narrowing is a mask, not a new KB: `reduce_kb` returns the set
of FQNs the reduced KB would hold (each candidate type and its supertype
closure), and the solver reads KB membership from it. One loaded
KnowledgeBase therefore serves every round and every snippet, and its
memos keep paying. The check memo holds what one constraint check adds to
the solver's tables on the unmasked KB (`constraint._tabulate`), so a check
that recurs across snippets on the same candidates is evaluated once.

The KB is loaded from a line-oriented text format:

    type <fqn> <class|interface> lib=<id> [extends=<fqn,...>]
        [implements=<fqn,...>] [external-super=<fqn,...>]
    method <owner-fqn> <name>/<arity> [static] [returns=<fqn|?>]
    field <owner-fqn> <name> [static] [type=<fqn|?>]

A library id is non-empty (`lib=` alone is refused at its line, after the
record's other checks): `dump_kb` refuses to write an empty one. A method
name is non-empty and an arity is ASCII decimal digits. A member's
`static` and `returns=`/`type=` may come in either order. An empty
`returns=` or `type=` is refused: `dump_kb` spells an unknown type `?`,
so an empty one would not load back as it was read.

Records end at "\\n" alone; blank lines and lines starting with '#' are
skipped. Records may appear in any order, and the parse is one pass: each
member is appended to its owner's lists as it is read, before or after the
owner's type record, and a run of members of one owner finds the owner's
lists once. Only forward references wait: whether a member's owner
has a type record is checked once the whole file is read, and the first
member in line order whose owner has none is the error.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .snippet import _value_tuple, collector_paused, read_utf8


class KbError(Exception):
    """Malformed or inconsistent knowledge base input."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


@_value_tuple
class MethodSig(NamedTuple):
    """A method signature as the KB knows it, as a `snippet._value_tuple`.

    return_fqn is None when the KB does not record the return type
    (serialized as "returns=?").
    """

    name: str
    arity: int
    is_static: bool = False
    return_fqn: str | None = None


@_value_tuple
class FieldSig(NamedTuple):
    """A field as the KB knows it, as a `snippet._value_tuple`."""

    name: str
    type_fqn: str | None = None
    is_static: bool = False


@_value_tuple
class TypeEntry(NamedTuple):
    """One type in the KB with its members and supertype edges, as a
    `snippet._value_tuple`.

    supertypes holds direct extends/implements edges to other entries in the
    same KB. external_supertypes lists supertypes outside the KB; they are
    kept for documentation but excluded from closure computation.
    """

    fqn: str
    kind: str  # "class" or "interface"
    library: str
    methods: frozenset[MethodSig] = frozenset()
    fields: frozenset[FieldSig] = frozenset()
    supertypes: frozenset[str] = frozenset()
    external_supertypes: frozenset[str] = frozenset()

    def find_method(self, name: str, arity: int) -> MethodSig | None:
        for m in self.methods:
            if m.name == name and m.arity == arity:
                return m
        return None

    def find_field(self, name: str) -> FieldSig | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None


def simple_name_index(fqns: Iterable[str]) -> dict[str, tuple[str, ...]]:
    """Simple name -> the FQNs of that simple name, lexicographically
    ordered. A simple name is one identifier, so it is all after the last
    dot."""
    index: dict[str, list[str]] = {}
    for fqn in fqns:
        index.setdefault(fqn.rpartition(".")[2], []).append(fqn)
    return {k: tuple(sorted(v)) for k, v in index.items()}


_KINDS = ("class", "interface")


class KnowledgeBase:
    """Immutable collection of TypeEntry records plus a simple-name index."""

    def __init__(self, entries: Iterable[TypeEntry]):
        by_fqn: dict[str, TypeEntry] = {}
        for e in entries:
            if e.fqn in by_fqn:
                raise KbError(f"duplicate type {e.fqn}")
            by_fqn[e.fqn] = e
        self._entries = by_fqn
        self._by_simple_name = simple_name_index(by_fqn)
        # supertype_closure, member lookup and check contribution memos;
        # sound because the entries never change. The check memo is
        # constraint._tabulate's: a check's shape and candidate tuples ->
        # its contribution on this KB unmasked
        self._closures: dict[str, tuple[str, ...]] = {}
        self._members: dict[tuple, MethodSig | FieldSig | None] = {}
        self._checks: dict[tuple, tuple] = {}
        # each entry's first fault, in the order kind, method signatures,
        # fields, supertypes
        for e in by_fqn.values():
            if e.kind not in _KINDS:
                raise KbError(f"{e.fqn}: bad kind {e.kind!r}")
            signatures: set[tuple[str, int]] = set()
            for m in e.methods:
                if (m.name, m.arity) in signatures:
                    raise KbError(
                        f"{e.fqn}: conflicting signatures for {m.name}/{m.arity}"
                    )
                signatures.add((m.name, m.arity))
            names: set[str] = set()
            for f in e.fields:
                if f.name in names:
                    raise KbError(f"{e.fqn}: conflicting fields for {f.name}")
                names.add(f.name)
            for s in e.supertypes:
                if s not in by_fqn:
                    raise KbError(
                        f"{e.fqn}: supertype {s} not in KB and not marked external"
                    )

    @property
    def entries(self) -> Mapping[str, TypeEntry]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fqn: str) -> bool:
        return fqn in self._entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeBase):
            return NotImplemented
        return self._entries == other._entries

    def candidates_for(self, simple_name: str) -> tuple[str, ...]:
        """All FQNs whose simple name matches, lexicographically ordered."""
        return self._by_simple_name.get(simple_name, ())

    @property
    def libraries(self) -> tuple[str, ...]:
        return tuple(sorted({e.library for e in self._entries.values()}))


# ---------------------------------------------------------------------------
# text format

def _parse_attrs(
    parts: list[str], lineno: int, flag: str | None = None
) -> tuple[dict[str, str], bool]:
    """The key=value attributes of a record's tail, and whether the bare
    word flag stands anywhere among them (a member's `static`)."""
    attrs: dict[str, str] = {}
    flagged = False
    for p in parts:
        if p == flag:
            flagged = True
            continue
        k, eq, v = p.partition("=")
        if not eq:
            raise KbError(f"expected key=value, got {p!r}", lineno)
        if k in attrs:
            raise KbError(f"duplicate attribute {k!r}", lineno)
        attrs[k] = v
    return attrs, flagged


def _member_tail(parts: list[str], key: str, lineno: int) -> tuple[str | None, bool]:
    """The type (`returns=` or `type=` as key; None for `?` or absent) and
    the static flag of a member record's parts. The tails `dump_kb` writes,
    `<key>=X` and `static <key>=X`, are read without an attribute dict."""
    prefix = key + "="
    n = len(parts)
    if (n == 4 or n == 5 and parts[3] == "static") and parts[-1].startswith(prefix):
        value, is_static = parts[-1][len(prefix):], n == 5
    else:
        attrs, is_static = _parse_attrs(parts[3:], lineno, "static")
        value = attrs.pop(key, None)
        if attrs:
            raise KbError(f"unknown attributes {sorted(attrs)}", lineno)
    if value == "":
        raise KbError(f"empty {key}=; an unknown type is {key}=?", lineno)
    return (None if value == "?" else value), is_static


def _split_fqns(value: str) -> list[str]:
    return [v for v in value.split(",") if v]


def _type_tail(parts: list[str], lineno: int) -> tuple[str, list[str], list[str]]:
    """The library, supertypes and external supertypes of a type record's
    parts. The tails `dump_kb` writes, `lib=X` then an optional `extends=`
    and an optional `external-super=`, are read without an attribute dict."""
    tail = parts[4:]
    if parts[3].startswith("lib=") and len(tail) <= 2:
        supers, external = [], []
        if tail and tail[0].startswith("extends="):
            supers = _split_fqns(tail.pop(0)[8:])
        if tail and tail[0].startswith("external-super="):
            external = _split_fqns(tail.pop(0)[15:])
        if not tail:
            return parts[3][4:], supers, external
    attrs, _ = _parse_attrs(parts[3:], lineno)
    lib = attrs.pop("lib", None)
    if lib is None:
        raise KbError("type record missing lib=<id>", lineno)
    supers = _split_fqns(attrs.pop("extends", ""))
    supers += _split_fqns(attrs.pop("implements", ""))
    external = _split_fqns(attrs.pop("external-super", ""))
    if attrs:
        raise KbError(f"unknown attributes {sorted(attrs)}", lineno)
    return lib, supers, external


@collector_paused
def load_kb(path: str | Path) -> KnowledgeBase:
    """Parse the KB text format and return a validated KnowledgeBase.

    The cyclic garbage collector is paused while the KB is built, and
    left as it was found (`snippet.collector_paused`).

    Raises KbError as `<path>:<line>: <message>` for malformed records,
    duplicate type FQNs and members whose owner is unknown, and as
    `<path>: <message>` for conflicting method signatures or fields and
    supertype references that are neither in the KB nor marked external.
    """
    text = read_utf8(path, KbError)
    try:
        return _parse_kb(text)
    except KbError as exc:
        where = str(path) if exc.line is None else f"{path}:{exc.line}"
        raise KbError(f"{where}: {exc}") from None


def _parse_kb(text: str) -> KnowledgeBase:
    """One pass over the records, one split each. A record's errors come in
    the order of its fields; an owner with no type record is reported after
    the whole text is read, at the first member that names it."""
    types: dict[str, tuple[str, str, list[str], list[str]]] = {}
    # owner -> (methods, fields) in line order; a type record or a member
    # read before its owner's type record opens the owner's lists
    members: dict[str, tuple[list[MethodSig], list[FieldSig]]] = {}
    forward: list[tuple[int, str, str]] = []  # lineno, kind, owner
    make = tuple.__new__  # a record without NamedTuple's Python-level __new__

    # records end at "\n" alone: str.splitlines would also end them at form
    # feeds and other separators that split() reads as blanks
    owner, lists = None, None  # the last member's owner and its lists
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        record = parts[0]
        if record == "method":
            if len(parts) < 3 or "/" not in parts[2]:
                raise KbError("method record needs owner and name/arity", lineno)
            name, _, arity_s = parts[2].partition("/")
            if not name:
                raise KbError("empty method name", lineno)
            # int() would also read a sign, underscores and non-ASCII digits
            if not (arity_s.isascii() and arity_s.isdigit()):
                raise KbError(f"bad arity {arity_s!r}", lineno)
            try:
                arity = int(arity_s)
            except ValueError:  # more digits than int() converts
                raise KbError(f"bad arity {arity_s!r}", lineno) from None
            ret, is_static = _member_tail(parts, "returns", lineno)
            sig = make(MethodSig, (name, arity, is_static, ret))
            slot = 0
        elif record == "field":
            if len(parts) < 3:
                raise KbError("field record needs owner and name", lineno)
            ftype, is_static = _member_tail(parts, "type", lineno)
            sig = make(FieldSig, (parts[2], ftype, is_static))
            slot = 1
        elif record == "type":
            if len(parts) < 4:
                raise KbError("type record needs fqn, kind, lib=<id>", lineno)
            fqn, kind = parts[1], parts[2]
            if kind not in _KINDS:
                raise KbError(f"bad kind {kind!r}", lineno)
            lib, supers, external = _type_tail(parts, lineno)
            if fqn in types:
                raise KbError(f"duplicate type {fqn}", lineno)
            if not lib:
                raise KbError("empty lib=", lineno)
            types[fqn] = (kind, lib, supers, external)
            if fqn not in members:
                members[fqn] = ([], [])
            continue
        elif record[0] == "#":
            continue
        else:
            raise KbError(f"unknown record kind {record!r}", lineno)
        # an owner's lists never change once opened, so a run of members of
        # one owner looks it up once
        if parts[1] != owner:
            owner = parts[1]
            lists = members.get(owner)
            if lists is None:
                lists = members[owner] = ([], [])
                forward.append((lineno, record, owner))
        lists[slot].append(sig)

    # the first member of each owner read before the owner's type record
    for lineno, mkind, owner in forward:
        if owner not in types:
            raise KbError(f"{mkind} owner {owner} has no type record", lineno)

    return KnowledgeBase(
        make(
            TypeEntry,
            (
                fqn,
                kind,
                lib,
                frozenset(members[fqn][0]),
                frozenset(members[fqn][1]),
                frozenset(supers),
                frozenset(external),
            ),
        )
        for fqn, (kind, lib, supers, external) in types.items()
    )


def _field(
    value: str | None, what: str, owner: str = "", banned: str = "", unknown: str = ""
) -> str:
    """value, the owner's what, as one field of a record; a member type None
    as its spelling unknown. Raises ValueError for a value that is empty or
    unknown or holds one of banned or a character `str.split()` splits at."""
    if value is None and unknown:
        return unknown
    if value.split() != [value] or value == unknown or any(c in value for c in banned):
        of = f" of {owner!r:.80}" if owner else ""
        raise ValueError(f"cannot dump KB: bad {what} {value!r:.80}{of}")
    return value


def dump_kb(kb: KnowledgeBase) -> str:
    """Serialize to the canonical text form: entries sorted by FQN, members
    sorted by (name, arity). Internal supertype edges are emitted under a
    single extends= attribute. load(dump(kb)) == kb and repeated dumps are
    byte-identical: a KB whose text would not load back as it raises
    ValueError (an FQN, library or member name that is empty or holds a
    blank, a supertype with a comma, a method name with a slash, an arity
    that is not an int or is negative, a type of "" or "?", which spells an
    unknown one).
    """
    out: list[str] = []
    for fqn in sorted(kb.entries):
        e = kb.entries[fqn]
        line = f"type {_field(fqn, 'FQN')} {e.kind}"
        line += f" lib={_field(e.library, 'library', fqn)}"
        for s in sorted(e.supertypes | e.external_supertypes):
            _field(s, "supertype", fqn, ",")
        if e.supertypes:
            line += " extends=" + ",".join(sorted(e.supertypes))
        if e.external_supertypes:
            line += " external-super=" + ",".join(sorted(e.external_supertypes))
        out.append(line)
        for m in e.methods:
            # load_kb reads an arity as decimal digits, so only an int of
            # no sign reads back as it
            if type(m.arity) is not int or m.arity < 0:
                raise ValueError(
                    f"cannot dump KB: bad arity {m.arity!r:.80} of {fqn!r:.80}"
                )
        for m in sorted(e.methods, key=lambda m: (m.name, m.arity)):
            mline = f"method {e.fqn} {_field(m.name, 'method name', fqn, '/')}/{m.arity}"
            if m.is_static:
                mline += " static"
            mline += f" returns={_field(m.return_fqn, 'return type', fqn, unknown='?')}"
            out.append(mline)
        for f in sorted(e.fields, key=lambda f: f.name):
            fline = f"field {e.fqn} {_field(f.name, 'field name', fqn)}"
            if f.is_static:
                fline += " static"
            fline += f" type={_field(f.type_fqn, 'field type', fqn, unknown='?')}"
            out.append(fline)
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# closures, member lookups and masks

class UnknownTypeError(KeyError):
    """A requested candidate type is not present in the KB."""


def supertype_closure(kb: KnowledgeBase, fqn: str) -> tuple[str, ...]:
    """fqn plus all transitively reachable internal supertypes, in BFS order.

    External supertypes are skipped. Cycles are tolerated (each node once).
    Each closure is computed once per KnowledgeBase instance.
    """
    closure = kb._closures.get(fqn)
    if closure is not None:
        return closure
    if fqn not in kb:
        raise UnknownTypeError(fqn)
    # order doubles as the BFS queue: the loop reaches what it appends
    order = [fqn]
    seen = {fqn}
    for cur in order:
        for sup in sorted(kb.entries[cur].supertypes):
            if sup not in seen:
                seen.add(sup)
                order.append(sup)
    closure = kb._closures[fqn] = tuple(order)
    return closure


_UNSEEN = object()  # a memo miss; None is a cached answer


def _member_in_knowledge(
    kb: KnowledgeBase, ctype: str, name: str, arity: int | None, require_static: bool
) -> MethodSig | FieldSig | None:
    """The first declaration in ctype's closure order (the most derived one)
    of the method (name, arity), or with arity None of the field name. With
    require_static, only a static declaration counts. Each answer is
    computed once per KnowledgeBase instance."""
    key = (ctype, name, arity, require_static)
    found = kb._members.get(key, _UNSEEN)
    if found is not _UNSEEN:
        return found
    found = None
    for fqn in supertype_closure(kb, ctype):
        e = kb.entries[fqn]
        m = e.find_field(name) if arity is None else e.find_method(name, arity)
        if m is not None and (m.is_static or not require_static):
            found = m
            break
    kb._members[key] = found
    return found


def method_in_knowledge(
    kb: KnowledgeBase, ctype: str, name: str, arity: int, require_static: bool = False
) -> MethodSig | None:
    """Find a method (name, arity) on ctype or any internal supertype."""
    return _member_in_knowledge(kb, ctype, name, arity, require_static)


def field_in_knowledge(
    kb: KnowledgeBase, ctype: str, name: str, require_static: bool = False
) -> FieldSig | None:
    """Find a field on ctype or any internal supertype."""
    return _member_in_knowledge(kb, ctype, name, None, require_static)


def reduce_kb(kb: KnowledgeBase, cantypes: Iterable[str]) -> frozenset[str]:
    """The mask of kb reduced to candidate types: every candidate type and
    its supertype closure, as a set of FQNs.

    The reduced KB is the entries of kb under the mask. It is closed under
    supertypes, so each retained type keeps its closure, members and kind,
    and a solver can read kb's memos for them and only membership from the
    mask (see constraint.ConstraintProblem).

    Raises UnknownTypeError if any candidate type is absent from kb.
    """
    keep: set[str] = set()
    for t in cantypes:
        keep.update(supertype_closure(kb, t))
    return frozenset(keep)
