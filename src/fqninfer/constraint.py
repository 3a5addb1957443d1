"""Constraint extraction from snippet syntax and candidate solving over a KB.

Extraction reads the snippet's structure (`Snippet.structure`, recognised
once per snippet) and walks its significant tokens for structural patterns
(construction, member calls, inheritance clauses, declared assignments). It
reports which line ranges it could analyze. Solving scores whole assignments of candidate
FQNs to elements by (constraint violations, distinct library count,
lexicographic order) and abstains where optima disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .kb import (
    KnowledgeBase,
    field_in_knowledge,
    method_in_knowledge,
    supertype_closure,
)
from .snippet import (
    ApiElement,
    Snippet,
    SnippetStructure,
    Token,
    TokenKind,
    identify_api_elements,
)


@dataclass(frozen=True)
class ExtractOptions:
    """Extraction/solving knobs.

    cascaded_calls: follow Name.m1().m2() chains as one constraint. Off, only
        the first hop is kept, which mirrors tools that cannot express the
        full chain.
    strict_body_check: a constructor whose name does not match its class
        makes the whole class body unanalyzable (its lines leave coverage).
    strict_uniqueness: an element whose optimal candidates tie in a way no
        constraint breaks is reported untyped instead of guessed.
    """

    cascaded_calls: bool = True
    strict_body_check: bool = True
    strict_uniqueness: bool = True


# --------------------------------------------------------------------------
# constraint variants

@dataclass(frozen=True)
class Construction:
    subject: ApiElement
    arity: int


@dataclass(frozen=True)
class MemberCall:
    subject: ApiElement
    method: str
    arity: int
    static_call: bool


@dataclass(frozen=True)
class FieldAccess:
    subject: ApiElement
    field_name: str
    static_access: bool


@dataclass(frozen=True)
class CascadedCall:
    root: ApiElement
    chain: tuple[tuple[str, int], ...]  # at least two (method, arity) hops
    static_root: bool


@dataclass(frozen=True)
class Extends:
    sub: Union[ApiElement, str]
    sub_kind: str  # "class" or "interface": the declared kind of sub
    sup: ApiElement


@dataclass(frozen=True)
class Implements:
    sub: Union[ApiElement, str]
    sup: ApiElement


@dataclass(frozen=True)
class DeclaredAssignment:
    declared: ApiElement
    source: Union[Construction, MemberCall, CascadedCall]


Constraint = Union[
    Construction, MemberCall, FieldAccess, CascadedCall, Extends, Implements,
    DeclaredAssignment,
]


@dataclass(frozen=True)
class ConstraintResult:
    typed: Mapping[ApiElement, str]
    untyped: frozenset[ApiElement]


def line_covered(line: int, coverage: Sequence[tuple[int, int]]) -> bool:
    return any(lo <= line <= hi for lo, hi in coverage)


# --------------------------------------------------------------------------
# extraction

_MEMBER_PREV = frozenset(["public", "private", "protected", "static", "final",
                          ";", "{", "}"])


def _broken_body_lines(structure: SnippetStructure) -> set[int]:
    """Lines of class bodies containing a constructor whose name does not
    match the class: structure recognition gives up on the whole body."""
    sig = structure.significant
    excluded: set[int] = set()
    n = len(sig)
    for header in structure.headers:
        if header.kind != "class" or header.name is None or header.open is None:
            continue
        assert header.close is not None
        depth = 0
        mismatch = False
        k = header.open + 1
        while k < header.close:
            t = sig[k][1]
            if t.lexeme == "{":
                depth += 1
            elif t.lexeme == "}":
                depth -= 1
            elif (
                depth == 0
                and t.kind == TokenKind.IDENTIFIER
                and t.lexeme[:1].isupper()
            ):
                prev = sig[k - 1][1].lexeme if k > 0 else ""
                nxt = sig[k + 1][1].lexeme if k + 1 < n else ""
                if prev in _MEMBER_PREV and nxt == "(":
                    close = _matching_paren(sig, k + 1)
                    if (
                        close is not None
                        and close + 1 < n
                        and sig[close + 1][1].lexeme == "{"
                        and t.lexeme != header.name
                    ):
                        mismatch = True
                        break
            k += 1
        if mismatch:
            open_line = sig[header.open][1].line
            close_line = sig[header.close][1].line
            excluded.update(range(open_line + 1, close_line + 1))
    return excluded


def _matching_paren(sig: Sequence[tuple[int, Token]], i_open: int) -> int | None:
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


def _parse_args(sig: Sequence[tuple[int, Token]], i_open: int) -> tuple[int, int] | None:
    """Arity of a balanced argument list starting at sig[i_open] == '('.

    Returns (arity, index of the closing paren) or None when unbalanced.
    """
    close = _matching_paren(sig, i_open)
    if close is None:
        return None
    if close == i_open + 1:
        return 0, close
    arity = 1
    depth = 0
    for k in range(i_open + 1, close):
        lex = sig[k][1].lexeme
        if lex in "([":
            depth += 1
        elif lex in ")]":
            depth -= 1
        elif lex == "," and depth == 0:
            arity += 1
    return arity, close


def _parse_chain(
    sig: Sequence[tuple[int, Token]], i_dot: int
) -> tuple[tuple[tuple[str, int], ...], str | None]:
    """Parse `.m1(args).m2(args)...` starting at sig[i_dot] == '.'.

    Returns (hops, trailing_member): hops may be empty; trailing_member is a
    member name accessed without parentheses (a field access), if the chain
    starts that way.
    """
    hops: list[tuple[str, int]] = []
    n = len(sig)
    k = i_dot
    while k < n and sig[k][1].lexeme == ".":
        member = sig[k + 1][1] if k + 1 < n else None
        if member is None or member.kind not in (TokenKind.IDENTIFIER,):
            break
        opener = sig[k + 2][1].lexeme if k + 2 < n else ""
        if opener != "(":
            if not hops:
                return (), member.lexeme
            break
        parsed = _parse_args(sig, k + 2)
        if parsed is None:
            break
        arity, close = parsed
        hops.append((member.lexeme, arity))
        k = close + 1
    return tuple(hops), None


def extract_constraints(
    snippet: Snippet,
    elements: Sequence[ApiElement],
    options: ExtractOptions = ExtractOptions(),
) -> tuple[list[Constraint], tuple[tuple[int, int], ...]]:
    """Extract constraints and report coverage as inclusive line ranges.

    Lines inside a class body whose structure is broken (constructor name
    mismatch under strict_body_check) are excluded from coverage and
    contribute no constraints.
    """
    structure = snippet.structure
    sig = structure.significant
    n = len(sig)
    elem_at: dict[int, ApiElement] = {e.token_index: e for e in elements}
    excluded: set[int] = set()
    if options.strict_body_check:
        excluded = _broken_body_lines(structure)

    constraints: list[Constraint] = []
    var_types: dict[str, ApiElement] = {}

    def construction(k: int):
        """`new Name(args)` at sig[k] == 'new', Name an element."""
        e = elem_at.get(sig[k + 1][0]) if k + 1 < n else None
        if e is None or k + 2 >= n or sig[k + 2][1].lexeme != "(":
            return None
        parsed = _parse_args(sig, k + 2)
        return Construction(e, parsed[0]) if parsed is not None else None

    def call(root: ApiElement, hops, static_root: bool):
        """The call constraint of a nonempty chain. A chain the extractor
        does not follow keeps only its first hop."""
        if len(hops) > 1 and options.cascaded_calls:
            return CascadedCall(root, hops, static_root=static_root)
        m, a = hops[0]
        return MemberCall(root, m, a, static_call=static_root)

    def chain_constraint(root: ApiElement, i_dot: int, static_root: bool):
        hops, trailing_field = _parse_chain(sig, i_dot)
        if trailing_field is not None:
            return FieldAccess(root, trailing_field, static_access=static_root)
        return call(root, hops, static_root) if hops else None

    def rhs_source(k: int):
        """Recognize the constraint form of an initializer expression at
        sig[k]. Returns None for anything unrecognized."""
        if k >= n:
            return None
        t = sig[k][1]
        if t.kind == TokenKind.KEYWORD and t.lexeme == "new":
            return construction(k)
        if t.kind != TokenKind.IDENTIFIER or k + 1 >= n:
            return None
        if sig[k + 1][1].lexeme != ".":
            return None
        root = elem_at.get(sig[k][0])
        static_root = root is not None
        if root is None:
            root = var_types.get(t.lexeme)
        if root is None:
            return None
        hops, trailing = _parse_chain(sig, k + 1)
        # a chain the extractor is not following: the first hop's return is
        # not the assigned value, so no assignment link is emitted
        if trailing is not None or not hops or (
            len(hops) > 1 and not options.cascaded_calls
        ):
            return None
        return call(root, hops, static_root)

    for j in range(n):
        orig_index, t = sig[j]
        if t.line in excluded:
            continue
        nxt = sig[j + 1][1] if j + 1 < n else None

        if t.kind == TokenKind.KEYWORD and t.lexeme == "new":
            c = construction(j)
            if c is not None:
                constraints.append(c)
            continue

        if t.kind != TokenKind.IDENTIFIER:
            continue

        e = elem_at.get(orig_index)
        if e is not None:
            clause = structure.clauses.get(j)
            if clause is not None and clause[1].name is not None:
                keyword, header = clause
                if keyword == "extends":
                    kind = "interface" if header.kind == "interface" else "class"
                    constraints.append(Extends(header.name, kind, e))
                else:
                    constraints.append(Implements(header.name, e))
                continue
            if nxt is not None and nxt.lexeme == ".":
                prev = sig[j - 1][1].lexeme if j > 0 else ""
                if prev == "new":
                    continue  # handled by the construction branch
                c = chain_constraint(e, j + 1, static_root=True)
                if c is not None:
                    constraints.append(c)
                continue
            if nxt is not None and nxt.kind == TokenKind.IDENTIFIER:
                var_types[nxt.lexeme] = e
                after = sig[j + 2][1].lexeme if j + 2 < n else ""
                if after == "=":
                    src = rhs_source(j + 3)
                    if src is not None:
                        constraints.append(DeclaredAssignment(e, src))
                continue
            continue

        # plain identifier: maybe a declared variable receiving a call
        if (
            t.lexeme in var_types
            and nxt is not None
            and nxt.lexeme == "."
        ):
            prev = sig[j - 1][1].lexeme if j > 0 else ""
            if prev == ".":
                continue
            c = chain_constraint(var_types[t.lexeme], j + 1, static_root=False)
            if c is not None:
                constraints.append(c)

    max_line = snippet.line_count
    covered = [ln for ln in range(1, max_line + 1) if ln not in excluded]
    coverage = _to_ranges(covered) if covered else ()
    return constraints, coverage


def _to_ranges(lines: list[int]) -> tuple[tuple[int, int], ...]:
    ranges: list[tuple[int, int]] = []
    start = prev = lines[0]
    for ln in lines[1:]:
        if ln == prev + 1:
            prev = ln
            continue
        ranges.append((start, prev))
        start = prev = ln
    ranges.append((start, prev))
    return tuple(ranges)


# --------------------------------------------------------------------------
# solving

def _chain_value(
    kb: KnowledgeBase, start: str, chain: Sequence[tuple[str, int]], static_root: bool
) -> tuple[bool, str | None]:
    """Chase a call chain from a candidate root type.

    Returns (resolved, final return FQN or None). Every hop's method must be
    found; every non-final hop additionally needs a known return type whose
    entry is present in the KB, otherwise the chain does not resolve.
    """
    cur = start
    ret: str | None = None
    for idx, (m, a) in enumerate(chain):
        sig = method_in_knowledge(kb, cur, m, a, require_static=static_root and idx == 0)
        if sig is None:
            return False, None
        ret = sig.return_fqn
        if idx < len(chain) - 1:
            if ret is None or ret not in kb:
                return False, None
            cur = ret
    return True, ret


def _source_subject(source) -> ApiElement:
    if isinstance(source, Construction):
        return source.subject
    if isinstance(source, MemberCall):
        return source.subject
    return source.root


def _source_value(kb: KnowledgeBase, c_subject: str, source) -> str | None:
    """The value type produced by an initializer constraint under a
    candidate assignment of its subject, or None when unknown."""
    if isinstance(source, Construction):
        return c_subject
    if isinstance(source, MemberCall):
        sig = method_in_knowledge(
            kb, c_subject, source.method, source.arity,
            require_static=source.static_call,
        )
        return sig.return_fqn if sig else None
    resolved, ret = _chain_value(kb, c_subject, source.chain, source.static_root)
    return ret if resolved else None


def solve(
    kb: KnowledgeBase,
    elements: Sequence[ApiElement],
    constraints: Sequence[Constraint],
    coverage: Sequence[tuple[int, int]] | None = None,
    *,
    strict_uniqueness: bool = True,
) -> ConstraintResult:
    """Pick one FQN per element by global assignment search.

    Assignments over the full per-element candidate sets are scored by
    (violated constraints, distinct libraries, lexicographic vector in token
    order) and the minimum wins. Elements are untyped when: out of coverage,
    no candidate shares their simple name, their chosen value participates
    in a violated constraint, or (strict_uniqueness) the optima disagree
    about them.
    """
    ordered = sorted(elements, key=lambda e: e.token_index)
    if coverage is None:
        coverage = ((1, 10**9),)

    untyped: set[ApiElement] = set()
    cands: dict[ApiElement, tuple[str, ...]] = {}
    for e in ordered:
        if not line_covered(e.line, coverage):
            untyped.add(e)
            continue
        cs = kb.candidates_for(e.simple_name)
        if not cs:
            untyped.add(e)
            continue
        cands[e] = cs

    search = [e for e in ordered if e in cands]
    index_of = {e: i for i, e in enumerate(search)}

    # per-candidate unary checks and cross-element checks
    unary: dict[int, list] = {i: [] for i in range(len(search))}
    binary: list[tuple[int, int, object]] = []
    for con in constraints:
        if isinstance(con, Construction):
            if con.subject in index_of:
                unary[index_of[con.subject]].append(
                    lambda c, kb=kb: kb.entries[c].kind == "class"
                )
        elif isinstance(con, MemberCall):
            if con.subject in index_of:
                unary[index_of[con.subject]].append(
                    lambda c, kb=kb, con=con: method_in_knowledge(
                        kb, c, con.method, con.arity, require_static=con.static_call
                    )
                    is not None
                )
        elif isinstance(con, FieldAccess):
            if con.subject in index_of:
                unary[index_of[con.subject]].append(
                    lambda c, kb=kb, con=con: field_in_knowledge(
                        kb, c, con.field_name, require_static=con.static_access
                    )
                    is not None
                )
        elif isinstance(con, CascadedCall):
            if con.root in index_of:
                unary[index_of[con.root]].append(
                    lambda c, kb=kb, con=con: _chain_value(
                        kb, c, con.chain, con.static_root
                    )[0]
                )
        elif isinstance(con, (Extends, Implements)):
            if con.sup not in index_of:
                continue
            if isinstance(con, Implements):
                want = "interface"
            else:
                want = con.sub_kind
            unary[index_of[con.sup]].append(
                lambda c, kb=kb, want=want: kb.entries[c].kind == want
            )
            if isinstance(con.sub, ApiElement) and con.sub in index_of:
                def sup_pair(c_sub, c_sup, kb=kb):
                    return c_sup != c_sub and c_sup in supertype_closure(kb, c_sub)

                binary.append((index_of[con.sub], index_of[con.sup], sup_pair))
        elif isinstance(con, DeclaredAssignment):
            subj = _source_subject(con.source)
            if con.declared not in index_of or subj not in index_of:
                continue

            def assign_pair(c_decl, c_subj, kb=kb, con=con):
                value = _source_value(kb, c_subj, con.source)
                if value is None or value not in kb:
                    return True  # unknown returns impose nothing
                return c_decl == value or c_decl in supertype_closure(kb, value)

            binary.append((index_of[con.declared], index_of[subj], assign_pair))

    if not search:
        return ConstraintResult({}, frozenset(untyped))

    cand_lists = [cands[e] for e in search]
    libs_of = [
        tuple(kb.entries[c].library for c in cl) for cl in cand_lists
    ]
    unary_fail = [
        [sum(1 for chk in unary[i] if not chk(c)) for c in cand_lists[i]]
        for i in range(len(search))
    ]
    binary_by_hi = {}
    for a, b, fn in binary:
        lo, hi = (a, b) if a < b else (b, a)
        binary_by_hi.setdefault(hi, []).append((a, b, fn))

    best_cost: tuple[int, int] | None = None
    best_vec: tuple[int, ...] | None = None
    optima_values: list[set[int]] = [set() for _ in search]

    choice = [0] * len(search)

    def dfs(i: int, v: int, libset: frozenset):
        nonlocal best_cost, best_vec, optima_values
        if best_cost is not None:
            if v > best_cost[0] or (v == best_cost[0] and len(libset) > best_cost[1]):
                return
        if i == len(search):
            cost = (v, len(libset))
            vec = tuple(choice)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_vec = vec
                optima_values = [{vec[j]} for j in range(len(search))]
            elif cost == best_cost:
                for j in range(len(search)):
                    optima_values[j].add(vec[j])
                assert best_vec is not None
                if tuple(cand_lists[j][vec[j]] for j in range(len(search))) < tuple(
                    cand_lists[j][best_vec[j]] for j in range(len(search))
                ):
                    best_vec = vec
            return
        for ci in range(len(cand_lists[i])):
            dv = unary_fail[i][ci]
            choice[i] = ci
            for a, b, fn in binary_by_hi.get(i, ()):
                if not fn(cand_lists[a][choice[a]], cand_lists[b][choice[b]]):
                    dv += 1
            dfs(i + 1, v + dv, libset | {libs_of[i][ci]})
        choice[i] = 0

    dfs(0, 0, frozenset())
    assert best_cost is not None and best_vec is not None

    # which elements sit on a violated constraint in the chosen optimum
    violated_elems: set[int] = set()
    if best_cost[0] > 0:
        for i in range(len(search)):
            if unary_fail[i][best_vec[i]] > 0:
                violated_elems.add(i)
        for a, b, fn in binary:
            if not fn(cand_lists[a][best_vec[a]], cand_lists[b][best_vec[b]]):
                violated_elems.add(a)
                violated_elems.add(b)

    typed: dict[ApiElement, str] = {}
    for i, e in enumerate(search):
        if i in violated_elems:
            untyped.add(e)
            continue
        if strict_uniqueness and len(optima_values[i]) > 1:
            untyped.add(e)
            continue
        typed[e] = cand_lists[i][best_vec[i]]

    return ConstraintResult(typed, frozenset(untyped))


def infer_snippet(
    kb: KnowledgeBase,
    snippet: Snippet,
    options: ExtractOptions = ExtractOptions(),
    elements: Sequence[ApiElement] | None = None,
) -> ConstraintResult:
    """Identify, extract and solve in one pass (single-shot constraint run)."""
    if elements is None:
        elements = identify_api_elements(snippet, kb)
    constraints, coverage = extract_constraints(snippet, elements, options)
    return solve(
        kb, elements, constraints, coverage,
        strict_uniqueness=options.strict_uniqueness,
    )
