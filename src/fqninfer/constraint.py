"""Constraint extraction from snippet syntax and candidate solving over a KB.

Extraction reads the snippet's structure (`Snippet.structure`, recognised
once per snippet) and walks its significant tokens for five kinds of fact,
one constraint type each:

- `Construction`: `new Name(...)` needs Name to be a class.
- `MemberCall`: `Name.m1(...).m2(...)` needs each hop's method, by name
  and arity, on the type the previous hop returned.
- `FieldAccess`: `Name.f` needs the field f.
- `Supertype`: an `extends` or `implements` clause needs a class or an
  interface.
- `DeclaredAssignment`: `Name x = <construction or call>` needs the value's
  type to be Name or one of its subtypes.

Every constraint is about API elements; the snippet's own declared types
are never elements. Extraction also reports the lines it could not analyze
(its excluded lines), and an element on one of them is untyped. Solving
scores whole assignments of candidate FQNs to elements by (constraint
violations, distinct library count, lexicographic order) and abstains
where optima disagree.

A `ConstraintProblem` tabulates every check once against a loaded KB and
can then be solved under a mask (a reduced KB given as its FQN set) with
the answers of a solve on that reduced KB, without building it. The engine
on its own, from snippet to answers, is `orchestrator.infer_with_engine`
with engine "constraint".
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .kb import (
    KnowledgeBase,
    field_in_knowledge,
    method_in_knowledge,
    supertype_closure,
)
from .snippet import _IDENTIFIER, _KEYWORD, ApiElement, Snippet, SnippetStructure


@dataclass(frozen=True)
class ExtractOptions:
    """Extraction/solving knobs.

    Extraction emits the five constraint kinds (construction, member call,
    field access, supertype clause, declared assignment) under every
    setting; the knobs change which calls a member call follows, which lines
    yield constraints, and how ties are reported.

    cascaded_calls: a member call keeps every hop of a Name.m1().m2() chain.
        Off (the default, as in `RunConfig` and the CLI), it keeps only the
        first hop, which mirrors tools that cannot express the full chain,
        and a longer chain gives a declared assignment no source.
    strict_body_check: a constructor whose name does not match its class
        makes the whole class body unanalyzable: its lines are excluded.
    strict_uniqueness: an element whose optimal candidates tie in a way no
        constraint breaks is reported untyped instead of guessed.
    """

    cascaded_calls: bool = False
    strict_body_check: bool = True
    strict_uniqueness: bool = True


# --------------------------------------------------------------------------
# constraint variants

@dataclass(frozen=True)
class Construction:
    subject: ApiElement


@dataclass(frozen=True)
class MemberCall:
    subject: ApiElement
    chain: tuple[tuple[str, int], ...]  # one or more (method, arity) hops
    static_call: bool  # the first hop is called on the type itself


@dataclass(frozen=True)
class FieldAccess:
    subject: ApiElement
    field_name: str
    static_access: bool


@dataclass(frozen=True)
class Supertype:
    subject: ApiElement
    kind: str  # "class" or "interface": the kind the clause requires


@dataclass(frozen=True)
class DeclaredAssignment:
    declared: ApiElement
    source: Union[Construction, MemberCall]


Constraint = Union[
    Construction, MemberCall, FieldAccess, Supertype, DeclaredAssignment
]


@dataclass(frozen=True)
class ConstraintResult:
    typed: Mapping[ApiElement, str]
    untyped: frozenset[ApiElement]


# --------------------------------------------------------------------------
# extraction

_MEMBER_PREV = frozenset(["public", "private", "protected", "static", "final",
                          ";", "{", "}"])


def _broken_body_lines(structure: SnippetStructure) -> frozenset[int]:
    """Lines of class bodies containing a constructor whose name does not
    match the class: structure recognition gives up on the whole body."""
    sig = structure.significant
    partner = structure.partner
    excluded: set[int] = set()
    for header in structure.headers:
        if header.kind != "class" or header.name is None or header.open is None:
            continue
        k = header.open + 1
        while k < header.close:
            t = sig[k]
            if t.lexeme == "{":
                k = partner[k]  # a nested block holds no member of this class
            elif (
                t.kind == _IDENTIFIER
                and t.lexeme[:1].isupper()
                and t.lexeme != header.name
                and sig[k - 1].lexeme in _MEMBER_PREV
                and sig[k + 1].lexeme == "("
                and k + 1 in partner  # a constructor's parameters close
                and sig[partner[k + 1] + 1].lexeme == "{"
            ):
                open_line = sig[header.open].line
                excluded.update(range(open_line + 1, sig[header.close].line + 1))
                break
            k += 1
    return frozenset(excluded)


def _parse_args(structure: SnippetStructure, i_open: int) -> tuple[int, int] | None:
    """Arity of a balanced argument list starting at sig[i_open] == '('.

    Returns (arity, index of the closing paren) or None when unbalanced.
    The arity is one more than the commas strictly inside the list at the
    bracket depth just inside its '(', counted by bisection.
    """
    close = structure.partner.get(i_open)
    if close is None:
        return None
    if close == i_open + 1:
        return 0, close
    commas = structure.commas.get(structure.arg_depth[i_open], ())
    return 1 + bisect_left(commas, close) - bisect_right(commas, i_open), close


def _parse_chain(
    structure: SnippetStructure, i_dot: int
) -> tuple[tuple[tuple[str, int], ...], str | None]:
    """Parse `.m1(args).m2(args)...` starting at sig[i_dot] == '.'.

    Returns (hops, trailing_member): hops may be empty; trailing_member is a
    member name accessed without parentheses (a field access), if the chain
    starts that way.
    """
    sig = structure.significant
    hops: list[tuple[str, int]] = []
    k = i_dot
    while sig[k].lexeme == ".":
        member = sig[k + 1]
        if member.kind != _IDENTIFIER:
            break
        if sig[k + 2].lexeme != "(":
            if not hops:
                return (), member.lexeme
            break
        parsed = _parse_args(structure, k + 2)
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
) -> tuple[list[Constraint], frozenset[int]]:
    """Extract constraints and report the excluded lines.

    Under strict_body_check, the lines inside a class body whose structure
    is broken (a constructor name that does not match the class) are
    excluded: they contribute no constraints, and `solve` leaves the
    elements on them untyped.
    """
    structure = snippet.structure
    sig = structure.significant
    positions = structure.positions
    elem_at: dict[int | None, ApiElement] = {e.token_index: e for e in elements}
    excluded = (
        _broken_body_lines(structure) if options.strict_body_check else frozenset()
    )

    constraints: list[Constraint] = []
    var_types: dict[str, ApiElement] = {}

    def construction(k: int):
        """`new Name(args)` at sig[k] == 'new', Name an element and the
        argument list closed."""
        e = elem_at.get(positions[k + 1])
        if e is None or k + 2 not in structure.partner or sig[k + 2].lexeme != "(":
            return None
        return Construction(e)

    def call(root: ApiElement, hops, static_call: bool):
        """The call constraint of a nonempty chain. A chain the extractor
        does not follow keeps only its first hop."""
        return MemberCall(
            root, hops if options.cascaded_calls else hops[:1], static_call
        )

    def chain_constraint(root: ApiElement, i_dot: int, static_call: bool):
        hops, trailing_field = _parse_chain(structure, i_dot)
        if trailing_field is not None:
            return FieldAccess(root, trailing_field, static_access=static_call)
        return call(root, hops, static_call) if hops else None

    def rhs_source(k: int):
        """Recognize the constraint form of an initializer expression at
        sig[k]. Returns None for anything unrecognized."""
        t = sig[k]
        if t.kind == _KEYWORD and t.lexeme == "new":
            return construction(k)
        if t.kind != _IDENTIFIER or sig[k + 1].lexeme != ".":
            return None
        root = elem_at.get(positions[k])
        static_call = root is not None
        if root is None:
            root = var_types.get(t.lexeme)
        if root is None:
            return None
        hops, trailing = _parse_chain(structure, k + 1)
        # a chain the extractor is not following: the first hop's return is
        # not the assigned value, so no assignment link is emitted
        if trailing is not None or not hops or (
            len(hops) > 1 and not options.cascaded_calls
        ):
            return None
        return call(root, hops, static_call)

    for j, t in enumerate(sig):
        if t.line in excluded:
            continue

        if t.kind == _KEYWORD and t.lexeme == "new":
            c = construction(j)
            if c is not None:
                constraints.append(c)
            continue

        if t.kind != _IDENTIFIER:
            continue

        nxt = sig[j + 1]
        e = elem_at.get(positions[j])
        if e is not None:
            clause = structure.clauses.get(j)
            if clause is not None and clause[1].name is not None:
                keyword, header = clause
                interface = keyword == "implements" or header.kind == "interface"
                constraints.append(Supertype(e, "interface" if interface else "class"))
                continue
            if nxt.lexeme == ".":
                if sig[j - 1].lexeme == "new":
                    continue  # handled by the construction branch
                c = chain_constraint(e, j + 1, static_call=True)
                if c is not None:
                    constraints.append(c)
                continue
            if nxt.kind == _IDENTIFIER:
                var_types[nxt.lexeme] = e
                if sig[j + 2].lexeme == "=":
                    src = rhs_source(j + 3)
                    if src is not None:
                        constraints.append(DeclaredAssignment(e, src))
                continue
            continue

        # plain identifier: maybe a declared variable receiving a call
        if t.lexeme in var_types and nxt.lexeme == "." and sig[j - 1].lexeme != ".":
            c = chain_constraint(var_types[t.lexeme], j + 1, static_call=False)
            if c is not None:
                constraints.append(c)

    return constraints, excluded


# --------------------------------------------------------------------------
# solving

def _chain_value(
    kb: KnowledgeBase, start: str, chain: Sequence[tuple[str, int]], static_call: bool
) -> tuple[str | None, tuple[str, ...]] | None:
    """Chase a call chain from a candidate root type.

    Returns None when the chain does not resolve, else (final return FQN or
    None, the intermediate return types it passed through). Every hop's
    method must be found, the first one static when static_call; every
    non-final hop additionally needs a known return type whose entry is
    present in the KB, so a KB reduced to a mask resolves the chain only if
    the mask holds every intermediate type. A one-hop chain is a plain
    method lookup and passes through no type.
    """
    cur = start
    passed: list[str] = []
    for idx, (m, a) in enumerate(chain[:-1]):
        sig = method_in_knowledge(kb, cur, m, a, require_static=static_call and idx == 0)
        ret = sig.return_fqn if sig is not None else None
        if ret is None or ret not in kb:
            return None
        passed.append(ret)
        cur = ret
    m, a = chain[-1]
    sig = method_in_knowledge(kb, cur, m, a, require_static=static_call and not passed)
    return None if sig is None else (sig.return_fqn, tuple(passed))


def _source_value(
    kb: KnowledgeBase, c_subject: str, source: Construction | MemberCall
) -> tuple[str | None, tuple[str, ...]]:
    """The value type produced by an initializer constraint under a
    candidate assignment of its subject, or None when unknown, with the
    intermediate types a chain passed through to produce it."""
    if isinstance(source, Construction):
        return c_subject, ()
    walked = _chain_value(kb, c_subject, source.chain, source.static_call)
    return walked if walked is not None else (None, ())


def _tabulate(
    kb: KnowledgeBase,
    constraints: Sequence[Constraint],
    index_of: Mapping[ApiElement, int],
    cand_lists: Sequence[tuple[str, ...]],
) -> tuple[
    list[list[int]],
    dict[tuple[int, int], list[list[int]]],
    list[tuple[frozenset[str], int, int, int]],
    list[tuple[frozenset[str], int, int, int, int]],
]:
    """Evaluate every check the solver wires, once per candidate (pair).

    Returns (unary, pairs, unary_if, pairs_if). unary[i][ci] counts the
    checks that candidate ci of element i fails. pairs[(lo, hi)][c_lo][c_hi],
    lo < hi, counts the cross-element checks failed when lo takes c_lo and
    hi takes c_hi. A cross-element check whose two ends are one element is
    a unary check.

    Counts are the full KB's answers. Two checks also read whether a type
    other than their own candidates is in the KB: a chain needs its
    intermediate return types, and an assignment constrains only through a
    value type the KB holds. Each such count is recorded with those types,
    which a mask may drop: unary_if holds (types, i, ci, delta), the change
    of unary[i][ci] when some of the types are missing, and pairs_if holds
    (types, lo, hi, c_lo, c_hi), a pair count that then drops by one.
    """
    unary = [[0] * len(cl) for cl in cand_lists]
    pairs: dict[tuple[int, int], list[list[int]]] = {}
    unary_if: list[tuple[frozenset[str], int, int, int]] = []
    pairs_if: list[tuple[frozenset[str], int, int, int, int]] = []

    def check(e: ApiElement, ok) -> None:
        i = index_of[e]
        for ci, c in enumerate(cand_lists[i]):
            if not ok(c):
                unary[i][ci] += 1

    def link(free: ApiElement, key: ApiElement, allowed) -> None:
        """A check on two elements: given key's candidate, free must take a
        candidate in allowed(candidate)[0], or anything when that is None;
        allowed(candidate)[1] are the other types that answer depends on."""
        f, k = index_of[free], index_of[key]
        if f == k:
            for ci, c in enumerate(cand_lists[k]):
                ok, types = allowed(c)
                if ok is not None and c not in ok:
                    unary[k][ci] += 1
                    if types:
                        unary_if.append((types, k, ci, -1))
            return
        lo, hi = min(f, k), max(f, k)
        table = pairs.get((lo, hi))
        if table is None:
            table = pairs[(lo, hi)] = [
                [0] * len(cand_lists[hi]) for _ in cand_lists[lo]
            ]
        for ck, c_key in enumerate(cand_lists[k]):
            ok, types = allowed(c_key)
            if ok is None:
                continue
            for cf, c_free in enumerate(cand_lists[f]):
                if c_free not in ok:
                    a, b = (cf, ck) if f < k else (ck, cf)
                    table[a][b] += 1
                    if types:
                        pairs_if.append((types, lo, hi, a, b))

    # check and link run their functions at once, so these may read `con`
    for con in constraints:
        if isinstance(con, DeclaredAssignment):
            subj = con.source.subject
            if con.declared not in index_of or subj not in index_of:
                continue

            def assigned_from(c: str):
                value, passed = _source_value(kb, c, con.source)
                if value is None or value not in kb:
                    return None, frozenset()  # unknown returns impose nothing
                # value and its supertypes; the candidate c is in any mask
                # that keeps this check
                return supertype_closure(kb, value), frozenset((value, *passed)) - {c}

            link(con.declared, subj, assigned_from)
        elif con.subject not in index_of:
            continue
        elif isinstance(con, Construction):
            check(con.subject, lambda c: kb.entries[c].kind == "class")
        elif isinstance(con, MemberCall):
            i = index_of[con.subject]
            for ci, c in enumerate(cand_lists[i]):
                walked = _chain_value(kb, c, con.chain, con.static_call)
                if walked is None:
                    unary[i][ci] += 1
                elif types := frozenset(walked[1]) - {c}:
                    unary_if.append((types, i, ci, 1))
        elif isinstance(con, FieldAccess):
            check(con.subject, lambda c: field_in_knowledge(
                kb, c, con.field_name, require_static=con.static_access
            ) is not None)
        else:
            check(con.subject, lambda c: kb.entries[c].kind == con.kind)
    return unary, pairs, unary_if, pairs_if


def _search(
    libs: Sequence[Sequence[str]],
    unary: Sequence[Sequence[int]],
    pairs: Mapping[tuple[int, int], Sequence[Sequence[int]]],
) -> tuple[int, tuple[int, ...], list[set[int]]]:
    """Exact depth-first branch and bound over a tabulated problem whose
    element i has candidates with libraries libs[i], in token order.

    Returns (fewest violations, the smallest optimal candidate-index
    vector, each element's candidate indices across all optima).

    - Elements with one candidate are settled up front and their pair
      tables folded into the other element's counts, so the search branches
      only over elements with a choice. A search node only adds up table
      entries.
    - At each element, candidates are tried by the violations they add
      given the choices above them, then whether their library is new, then
      how many elements have a candidate in that library, then candidate
      order. The first complete assignment is usually optimal, so later
      branches meet a tight incumbent.
    - A branch is cut when its lower bound is strictly worse than the
      incumbent. The violation bound is the violations so far plus each
      remaining element's fewest unary violations. The library bound is the
      libraries used so far plus a greedy count of remaining elements whose
      candidate libraries are disjoint from those and from each other: each
      such element needs one more library.

    Both bounds never exceed the cost of any completion, and the cut is
    strict, so every optimal assignment is still reached. The set of optima,
    and with it the lexicographic choice among them and the strict-
    uniqueness abstentions, therefore do not depend on the order in which
    the search meets them.
    """
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
    earlier: list[list[tuple[int, Sequence[Sequence[int]]]]] = [[] for _ in libs]
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

    def lib_bound(d: int, used: int) -> int:
        """Libraries every completion from depth d beyond `used` needs."""
        count = used.bit_count()
        for i in free[d:]:
            if not elem_bits[i] & used:
                count += 1
                used |= elem_bits[i]
        return count

    best_v = best_l = math.inf
    best_vec: tuple[int, ...] = ()
    optima_values: list[set[int]] = []
    choice = [0] * n

    def dfs(d: int, v: int, used: int) -> None:
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

    dfs(0, base_v, base_used)
    return int(best_v), best_vec, optima_values


def _decide(
    search: Sequence[ApiElement],
    cand_lists: Sequence[Sequence[str]],
    libs: Sequence[Sequence[str]],
    unary: Sequence[Sequence[int]],
    pairs: Mapping[tuple[int, int], Sequence[Sequence[int]]],
    untyped: frozenset[ApiElement],
    strict_uniqueness: bool,
) -> tuple[ConstraintResult, tuple[int, ...] | None]:
    """Search a tabulated problem and read off the answers: the result, and
    the optimal candidate-index vector when it is the only optimum."""
    if not search:
        return ConstraintResult({}, untyped), ()
    best_v, best_vec, optima_values = _search(libs, unary, pairs)

    # which elements sit on a violated constraint in the chosen optimum
    violated_elems: set[int] = set()
    if best_v > 0:
        for i, row in enumerate(unary):
            if row[best_vec[i]] > 0:
                violated_elems.add(i)
        for (lo, hi), table in pairs.items():
            if table[best_vec[lo]][best_vec[hi]] > 0:
                violated_elems.update((lo, hi))

    typed: dict[ApiElement, str] = {}
    rejected = set(untyped)
    for i, e in enumerate(search):
        if i in violated_elems or (strict_uniqueness and len(optima_values[i]) > 1):
            rejected.add(e)
        else:
            typed[e] = cand_lists[i][best_vec[i]]
    unique = all(len(values) == 1 for values in optima_values)
    return ConstraintResult(typed, frozenset(rejected)), best_vec if unique else None


class ConstraintProblem:
    """One snippet's constraint problem, tabulated once against a loaded KB.

    Construction evaluates every check for each element's full candidate
    list (see `_tabulate`). Elements on the excluded lines, and elements
    with no candidate, are untyped under every mask and never searched.
    `solve` then searches the whole problem, or the problem on the KB
    reduced to a mask (`kb.reduce_kb`), without building that KB or
    evaluating a check again.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        elements: Sequence[ApiElement],
        constraints: Sequence[Constraint],
        excluded: frozenset[int] = frozenset(),
    ):
        # elements on excluded lines or with no candidate sharing their
        # simple name are untyped under every mask
        untyped: set[ApiElement] = set()
        self._search: list[ApiElement] = []
        for e in sorted(elements, key=lambda e: e.token_index):
            if e.line not in excluded and kb.candidates_for(e.simple_name):
                self._search.append(e)
            else:
                untyped.add(e)
        self._untyped = frozenset(untyped)
        # candidates_for is sorted, so comparing index vectors compares FQNs
        self._cands = [kb.candidates_for(e.simple_name) for e in self._search]
        self._libs = [[kb.entries[c].library for c in cl] for cl in self._cands]
        index_of = {e: i for i, e in enumerate(self._search)}
        self._unary, self._pairs, self._unary_if, self._pairs_if = _tabulate(
            kb, constraints, index_of, self._cands
        )
        # the whole problem's result and its optimum, once solved, when that
        # optimum is the only one
        self._unique: tuple[ConstraintResult, tuple[int, ...]] | None = None

    def solve(
        self, mask: frozenset[str] | None = None, *, strict_uniqueness: bool = True
    ) -> ConstraintResult:
        """The result of `solve` on the loaded KB (mask None) or on the KB
        reduced to mask, the entries of the loaded KB whose FQN it holds.

        A mask from `reduce_kb` is closed under supertypes, so every check
        on retained types reads the same closures, members and kinds as on
        the loaded KB. The reduced problem therefore drops the candidates
        outside the mask, and changes only the checks whose recorded types
        leave it: a chain through a missing type does not resolve, and an
        assignment whose value type is missing imposes nothing.

        When the whole problem was solved before with a unique optimum, every
        value of that optimum is in the mask, and no check on surviving
        candidates changes, the answer is the whole problem's: each
        assignment inside the mask costs what it did, so the masked minimum
        cannot fall below the full one, and the full optimum is still
        available, so it is again the only optimum. The search is skipped.
        """
        if mask is None:
            result, unique_vec = _decide(
                self._search, self._cands, self._libs, self._unary, self._pairs,
                self._untyped, strict_uniqueness,
            )
            if unique_vec is not None:
                self._unique = (result, unique_vec)
            return result

        cands = self._cands
        unary_fired = [
            (i, ci, delta) for types, i, ci, delta in self._unary_if
            if not types <= mask and cands[i][ci] in mask
        ]
        pairs_fired = [
            (lo, hi, a, b) for types, lo, hi, a, b in self._pairs_if
            if not types <= mask and cands[lo][a] in mask and cands[hi][b] in mask
        ]
        if (
            self._unique is not None
            and not unary_fired
            and not pairs_fired
            and all(cands[i][ci] in mask for i, ci in enumerate(self._unique[1]))
        ):
            return self._unique[0]

        keep = [[ci for ci, c in enumerate(cl) if c in mask] for cl in cands]
        alive = [i for i, kept in enumerate(keep) if kept]
        new = {i: j for j, i in enumerate(alive)}
        at = [{ci: k for k, ci in enumerate(kept)} for kept in keep]
        unary = [[self._unary[i][ci] for ci in keep[i]] for i in alive]
        pairs = {
            (new[lo], new[hi]): [[table[a][b] for b in keep[hi]] for a in keep[lo]]
            for (lo, hi), table in self._pairs.items()
            if keep[lo] and keep[hi]
        }
        for i, ci, delta in unary_fired:
            unary[new[i]][at[i][ci]] += delta
        for lo, hi, a, b in pairs_fired:
            pairs[new[lo], new[hi]][at[lo][a]][at[hi][b]] -= 1
        untyped = self._untyped | {
            e for e, kept in zip(self._search, keep) if not kept
        }
        result, _ = _decide(
            [self._search[i] for i in alive],
            [[cands[i][ci] for ci in keep[i]] for i in alive],
            [[self._libs[i][ci] for ci in keep[i]] for i in alive],
            unary, pairs, untyped, strict_uniqueness,
        )
        return result


def solve(
    kb: KnowledgeBase,
    elements: Sequence[ApiElement],
    constraints: Sequence[Constraint],
    excluded: frozenset[int] = frozenset(),
    *,
    strict_uniqueness: bool = True,
) -> ConstraintResult:
    """Pick one FQN per element by global assignment search.

    Assignments over the full per-element candidate sets are scored by
    (violated constraints, distinct libraries, lexicographic vector in token
    order) and the minimum wins. Elements are untyped when: on a line in
    excluded (the lines `extract_constraints` could not analyze), no
    candidate shares their simple name, their chosen value participates in
    a violated constraint, or (strict_uniqueness) the optima disagree about
    them.

    Every check is tabulated once per candidate and candidate pair, then an
    exact branch and bound (`_search`) finds every optimum. The loop in
    `orchestrator.run` keeps the tabulation for the whole run instead: it
    builds one `ConstraintProblem` and solves it under each round's mask,
    skipping the search when the full KB's unique optimum survives the mask
    unchanged.
    """
    return ConstraintProblem(kb, elements, constraints, excluded).solve(
        strict_uniqueness=strict_uniqueness
    )

