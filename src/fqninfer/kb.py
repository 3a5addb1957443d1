"""API knowledge base: type entries, a simple-name index, syntax-knowledge
closures, and candidate-driven reduction.

The KB is loaded from a line-oriented text format:

    type <fqn> <class|interface> lib=<id> [extends=<fqn,...>]
        [implements=<fqn,...>] [external-super=<fqn,...>]
    method <owner-fqn> <name>/<arity> [static] [returns=<fqn|?>]
    field <owner-fqn> <name> [static] [type=<fqn|?>]

Blank lines and lines starting with '#' are skipped. Records may appear in
any order; forward references are resolved after the whole file is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from .snippet import read_utf8

if TYPE_CHECKING:
    from .stat import CandidateList


class KbError(Exception):
    """Malformed or inconsistent knowledge base input."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class MethodSig:
    """A method signature as the KB knows it.

    return_fqn is None when the KB does not record the return type
    (serialized as "returns=?").
    """

    name: str
    arity: int
    is_static: bool = False
    return_fqn: str | None = None


@dataclass(frozen=True)
class FieldSig:
    name: str
    type_fqn: str | None = None
    is_static: bool = False


@dataclass(frozen=True)
class TypeEntry:
    """One type in the KB with its members and supertype edges.

    supertypes holds direct extends/implements edges to other entries in the
    same KB. external_supertypes lists supertypes outside the KB; they are
    kept for documentation but excluded from closure computation.
    """

    fqn: str
    kind: str  # "class" or "interface"
    library: str
    methods: frozenset[MethodSig] = field(default_factory=frozenset)
    fields: frozenset[FieldSig] = field(default_factory=frozenset)
    supertypes: frozenset[str] = field(default_factory=frozenset)
    external_supertypes: frozenset[str] = field(default_factory=frozenset)

    @property
    def simple_name(self) -> str:
        return self.fqn.rsplit(".", 1)[-1]

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


class KnowledgeBase:
    """Immutable collection of TypeEntry records plus a simple-name index."""

    def __init__(self, entries: Iterable[TypeEntry]):
        by_fqn: dict[str, TypeEntry] = {}
        for e in entries:
            if e.fqn in by_fqn:
                raise KbError(f"duplicate type {e.fqn}")
            by_fqn[e.fqn] = e
        index: dict[str, list[str]] = {}
        for fqn, e in by_fqn.items():
            index.setdefault(e.simple_name, []).append(fqn)
        self._entries = by_fqn
        self._by_simple_name = {k: tuple(sorted(v)) for k, v in index.items()}
        # supertype_closure memo; sound because the entries never change
        self._closures: dict[str, tuple[str, ...]] = {}
        self._validate()

    def _validate(self) -> None:
        for e in self._entries.values():
            if e.kind not in ("class", "interface"):
                raise KbError(f"{e.fqn}: bad kind {e.kind!r}")
            seen: dict[tuple[str, int], MethodSig] = {}
            for m in e.methods:
                key = (m.name, m.arity)
                if key in seen:
                    raise KbError(
                        f"{e.fqn}: conflicting signatures for {m.name}/{m.arity}"
                    )
                seen[key] = m
            for s in e.supertypes:
                if s not in self._entries:
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

    def get(self, fqn: str) -> TypeEntry | None:
        return self._entries.get(fqn)

    def candidates_for(self, simple_name: str) -> tuple[str, ...]:
        """All FQNs whose simple name matches, lexicographically ordered."""
        return self._by_simple_name.get(simple_name, ())

    @property
    def libraries(self) -> tuple[str, ...]:
        return tuple(sorted({e.library for e in self._entries.values()}))


# ---------------------------------------------------------------------------
# text format

def _parse_attrs(parts: list[str], lineno: int) -> dict[str, str]:
    attrs: dict[str, str] = {}
    for p in parts:
        if "=" not in p:
            raise KbError(f"expected key=value, got {p!r}", lineno)
        k, v = p.split("=", 1)
        if k in attrs:
            raise KbError(f"duplicate attribute {k!r}", lineno)
        attrs[k] = v
    return attrs


def _split_fqns(value: str) -> list[str]:
    return [v for v in value.split(",") if v]


def load_kb(path: str | Path) -> KnowledgeBase:
    """Parse the KB text format and return a validated KnowledgeBase.

    Raises KbError as `<path>:<line>: <message>` for malformed records,
    duplicate type FQNs and members whose owner is unknown, and as
    `<path>: <message>` for conflicting signatures and supertype references
    that are neither in the KB nor marked external.
    """
    text = read_utf8(path, KbError)
    try:
        return _parse_kb(text)
    except KbError as exc:
        where = str(path) if exc.line is None else f"{path}:{exc.line}"
        raise KbError(f"{where}: {exc}") from None


def _parse_kb(text: str) -> KnowledgeBase:
    types: dict[str, dict] = {}
    members: list[tuple[int, str, str, object]] = []  # lineno, kind, owner, sig

    for lineno, rawline in enumerate(text.splitlines(), start=1):
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
            attrs = _parse_attrs(parts[3:], lineno)
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
                "supers": _split_fqns(attrs.get("extends", ""))
                + _split_fqns(attrs.get("implements", "")),
                "external": _split_fqns(attrs.get("external-super", "")),
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
            attrs = _parse_attrs(rest, lineno)
            unknown = set(attrs) - {"returns"}
            if unknown:
                raise KbError(f"unknown attributes {sorted(unknown)}", lineno)
            ret = attrs.get("returns")
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
            attrs = _parse_attrs(rest, lineno)
            unknown = set(attrs) - {"type"}
            if unknown:
                raise KbError(f"unknown attributes {sorted(unknown)}", lineno)
            ftype = attrs.get("type")
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


def dump_kb(kb: KnowledgeBase) -> str:
    """Serialize to the canonical text form: entries sorted by FQN, members
    sorted by (name, arity). Internal supertype edges are emitted under a
    single extends= attribute. load(dump(kb)) == kb and repeated dumps are
    byte-identical.
    """
    out: list[str] = []
    for fqn in sorted(kb.entries):
        e = kb.entries[fqn]
        line = f"type {e.fqn} {e.kind} lib={e.library}"
        if e.supertypes:
            line += " extends=" + ",".join(sorted(e.supertypes))
        if e.external_supertypes:
            line += " external-super=" + ",".join(sorted(e.external_supertypes))
        out.append(line)
        for m in sorted(e.methods, key=lambda m: (m.name, m.arity)):
            mline = f"method {e.fqn} {m.name}/{m.arity}"
            if m.is_static:
                mline += " static"
            mline += f" returns={m.return_fqn if m.return_fqn else '?'}"
            out.append(mline)
        for f in sorted(e.fields, key=lambda f: f.name):
            fline = f"field {e.fqn} {f.name}"
            if f.is_static:
                fline += " static"
            fline += f" type={f.type_fqn if f.type_fqn else '?'}"
            out.append(fline)
    return "\n".join(out) + ("\n" if out else "")


def save_kb(kb: KnowledgeBase, path: str | Path) -> None:
    Path(path).write_text(dump_kb(kb), encoding="utf-8")


# ---------------------------------------------------------------------------
# closures and reduction

class UnknownTypeError(KeyError):
    """A requested candidate type is not present in the KB."""


def supertype_closure(kb: KnowledgeBase, fqn: str) -> tuple[str, ...]:
    """fqn plus all transitively reachable internal supertypes, in BFS order.

    External supertypes are skipped. Cycles are tolerated (each node once).
    Each closure is computed once per KnowledgeBase instance; a reduced KB
    is a new instance and so keeps its own.
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


def syntax_knowledge(kb: KnowledgeBase, ctype: str) -> dict[str, TypeEntry]:
    """Syntax knowledge of a candidate type: the entry for ctype and every
    transitive internal supertype, each carrying its full member sets and
    supertype edges. Returned as an fqn-keyed dict in closure order.
    """
    return {fqn: kb.entries[fqn] for fqn in supertype_closure(kb, ctype)}


def method_in_knowledge(
    kb: KnowledgeBase,
    ctype: str,
    name: str,
    arity: int,
    require_static: bool = False,
) -> MethodSig | None:
    """Find a method (name, arity) on ctype or any internal supertype.

    With require_static, only a static declaration counts. The first match
    in closure order (the most derived declaration) wins.
    """
    for fqn in supertype_closure(kb, ctype):
        m = kb.entries[fqn].find_method(name, arity)
        if m is not None:
            if require_static and not m.is_static:
                continue
            return m
    return None


def field_in_knowledge(
    kb: KnowledgeBase, ctype: str, name: str, require_static: bool = False
) -> FieldSig | None:
    for fqn in supertype_closure(kb, ctype):
        f = kb.entries[fqn].find_field(name)
        if f is not None:
            if require_static and not f.is_static:
                continue
            return f
    return None


def collect_candidate_types(
    stat_result: Mapping[object, CandidateList],
    constraint_typed: Mapping[object, str],
) -> frozenset[str]:
    """Union of every element's statistical top-k candidates and its
    constraint-inferred type."""
    out = set(constraint_typed.values())
    for cand in stat_result.values():
        out.update(cand.ranked)
    return frozenset(out)


def reduce_kb(kb: KnowledgeBase, cantypes: Iterable[str]) -> KnowledgeBase:
    """Reduced KB: the union of syntax_knowledge(kb, t) over all candidate
    types t. Every retained entry is identical to the original, so supertype
    edges among retained types survive, and the simple-name index is rebuilt
    for the reduced entry set.

    Raises UnknownTypeError if any candidate type is absent from kb.
    """
    keep: dict[str, TypeEntry] = {}
    for t in sorted(set(cantypes)):
        keep.update(syntax_knowledge(kb, t))
    return KnowledgeBase(keep[f] for f in sorted(keep))
