"""Constraint extraction from snippet syntax and candidate solving over a KB.

Extraction reads the snippet's structure (`Snippet.structure`, recognised
once per snippet) and walks its significant tokens for five kinds of fact,
one constraint type each:

- `Construction`: `new Name(...)` or `new Name<...>(...)` needs Name to be
  a class.
- `MemberCall`: `Name.m1(...).m2(...)` needs each hop's method, by name
  and arity, on the type the previous hop returned.
- `FieldAccess`: `Name.f` needs the field f.
- `Supertype`: an `extends` or `implements` clause needs a class or an
  interface.
- `DeclaredAssignment`: `Name x = <construction or call>`, or
  `Name<...> x = ...`, needs the value's type to be Name or one of its
  subtypes.

Every constraint is about API elements; the snippet's own declared types
are never elements. Extraction also reports the lines it could not analyze
(its excluded lines), and an element on one of them is untyped. Solving
scores whole assignments of candidate FQNs to elements by (constraint
violations, distinct library count, lexicographic order) and abstains
where optima disagree.

A `ConstraintProblem` solves one snippet's constraints against a loaded KB
under a mask (a reduced KB given as its FQN set, or None for the loaded
KB). Its one solve path keeps the candidates in the mask, tabulates their
checks with KB membership read from the mask, and searches once, with the
answers of a solve on that reduced KB, without building it. The engine on
its own, from snippet to answers, is `orchestrator.infer_with_engine` with
engine "constraint".
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Container, Mapping, NamedTuple, Sequence, Union

from .kb import KnowledgeBase, field_in_knowledge, method_in_knowledge, supertype_closure
from .snippet import (_IDENTIFIER, _KEYWORD, ApiElement, Snippet, SnippetStructure,
                      _declared_variable, _type_arguments_end, _value_tuple)


# --------------------------------------------------------------------------
# constraint variants

@_value_tuple
class Construction(NamedTuple):
    subject: ApiElement


@_value_tuple
class MemberCall(NamedTuple):
    subject: ApiElement
    chain: tuple[tuple[str, int], ...]  # one or more (method, arity) hops
    static_call: bool  # the first hop is called on the type itself


@_value_tuple
class FieldAccess(NamedTuple):
    subject: ApiElement
    field_name: str
    static_access: bool


@_value_tuple
class Supertype(NamedTuple):
    subject: ApiElement
    kind: str  # "class" or "interface": the kind the clause requires


@_value_tuple
class DeclaredAssignment(NamedTuple):
    declared: ApiElement
    source: Union[Construction, MemberCall]


Constraint = Union[
    Construction, MemberCall, FieldAccess, Supertype, DeclaredAssignment
]


@_value_tuple
class ConstraintResult(NamedTuple):
    typed: Mapping[ApiElement, str]
    untyped: frozenset[ApiElement]


# --------------------------------------------------------------------------
# extraction

_MEMBER_PREV = frozenset(["public", "private", "protected", "static", "final",
                          ";", "{", "}"])


def _broken_body_lines(structure: SnippetStructure) -> frozenset[int]:
    """Lines of class bodies containing a constructor whose name does not
    match the class: structure recognition gives up on the whole body."""
    lexemes, kinds, lines = structure.lexemes, structure.kinds, structure.lines
    partner = structure.partner
    excluded: set[int] = set()
    for header in structure.headers:
        if header.kind != "class" or header.name is None or header.open is None:
            continue
        k = header.open + 1
        while k < header.close:
            lex = lexemes[k]
            if lex == "{":
                k = partner[k]  # a nested block holds no member of this class
            elif (
                kinds[k] is _IDENTIFIER
                and lex[:1].isupper()
                and lex != header.name
                and lexemes[k - 1] in _MEMBER_PREV
                and lexemes[k + 1] == "("
                and k + 1 in partner  # a constructor's parameters close
                and lexemes[partner[k + 1] + 1] == "{"
            ):
                open_line = lines[header.open]
                excluded.update(range(open_line + 1, lines[header.close] + 1))
                break
            k += 1
    return frozenset(excluded)


def _parse_args(structure: SnippetStructure, i_open: int) -> tuple[int, int] | None:
    """Arity of a balanced argument list whose '(' is at position i_open.

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
    """Parse `.m1(args).m2(args)...` starting at the '.' at position i_dot.

    Returns (hops, trailing_member): hops may be empty; trailing_member is a
    member name accessed without parentheses (a field access), if the chain
    starts that way.
    """
    lexemes, kinds = structure.lexemes, structure.kinds
    hops: list[tuple[str, int]] = []
    k = i_dot
    while lexemes[k] == ".":
        if kinds[k + 1] is not _IDENTIFIER:
            break
        member = lexemes[k + 1]
        if lexemes[k + 2] != "(":
            if not hops:
                return (), member
            break
        parsed = _parse_args(structure, k + 2)
        if parsed is None:
            break
        arity, close = parsed
        hops.append((member, arity))
        k = close + 1
    return tuple(hops), None


def extract_constraints(
    snippet: Snippet,
    elements: Sequence[ApiElement],
    *,
    cascaded_calls: bool = False,
    strict_body_check: bool = True,
) -> tuple[list[Constraint], frozenset[int]]:
    """Extract constraints and report the excluded lines.

    `cascaded_calls` and `strict_body_check` are the `RunConfig` switches.
    Under strict_body_check, the lines inside a class body whose structure
    is broken (a constructor name that does not match the class) are
    excluded: they contribute no constraints, and `solve` leaves the
    elements on them untyped.
    """
    structure = snippet.structure
    lexemes, kinds, lines = structure.lexemes, structure.kinds, structure.lines
    positions = structure.positions
    elem_at: dict[int | None, ApiElement] = {e.token_index: e for e in elements}
    excluded = (
        _broken_body_lines(structure) if strict_body_check else frozenset()
    )

    constraints: list[Constraint] = []
    var_types: dict[str, ApiElement] = {}

    def construction(k: int):
        """`new Name(args)` or `new Name<...>(args)` with 'new' at position
        k, Name an element and the argument list closed."""
        e = elem_at.get(positions[k + 1])
        i_open = k + 2
        if lexemes[i_open] == "<":
            i_open = _type_arguments_end(lexemes, kinds, k) + 1  # 0: unclosed
        if e is None or not i_open or i_open not in structure.partner:
            return None
        return Construction(e) if lexemes[i_open] == "(" else None

    def chain(k: int, initializer: bool):
        """The constraint of `root.f` or `root.m1(args).m2(args)...` with
        root at position k, an element (a static call) or a declared variable
        (an instance call). A chain the extractor does not follow keeps only
        its first hop. An initializer's value is the chain's return, so a
        field access or an unfollowed chain there gives no constraint."""
        root = elem_at.get(positions[k])
        static_call = root is not None
        if root is None:
            root = var_types.get(lexemes[k])
        if root is None or lexemes[k + 1] != ".":
            return None
        hops, trailing_field = _parse_chain(structure, k + 1)
        if trailing_field is not None:
            if initializer:
                return None
            return FieldAccess(root, trailing_field, static_access=static_call)
        if not hops or (initializer and len(hops) > 1 and not cascaded_calls):
            return None
        return MemberCall(root, hops if cascaded_calls else hops[:1], static_call)

    for j, kind in enumerate(kinds):
        if lines[j] in excluded:
            continue

        if kind is _KEYWORD and lexemes[j] == "new":
            c = construction(j)
            if c is not None:
                constraints.append(c)
            continue

        if kind is not _IDENTIFIER:
            continue

        nxt = lexemes[j + 1]
        e = elem_at.get(positions[j])
        if e is not None:
            clause = structure.clauses.get(j)
            if clause is not None and clause[1].name is not None:
                keyword, header = clause
                interface = keyword == "implements" or header.kind == "interface"
                constraints.append(Supertype(e, "interface" if interface else "class"))
                continue
            if nxt == ".":
                # after `new`, the construction branch has read it
                if lexemes[j - 1] != "new":
                    c = chain(j, initializer=False)
                    if c is not None:
                        constraints.append(c)
            else:
                v = _declared_variable(lexemes, kinds, j)
                if v >= 0:
                    var_types[lexemes[v]] = e
                    if lexemes[v + 1] == "=":
                        k = v + 2
                        src = construction(k) if lexemes[k] == "new" else chain(k, True)
                        if src is not None:
                            constraints.append(DeclaredAssignment(e, src))
            continue

        # plain identifier: maybe a declared variable receiving a call
        if nxt == "." and lexemes[j - 1] != ".":
            c = chain(j, initializer=False)
            if c is not None:
                constraints.append(c)

    return constraints, excluded


# --------------------------------------------------------------------------
# solving

def _chain_value(
    kb: KnowledgeBase, members: Container[str], start: str,
    chain: Sequence[tuple[str, int]], static_call: bool,
) -> tuple[str | None, tuple[str, ...]] | None:
    """Chase a call chain from a candidate root type.

    Returns None when the chain does not resolve, else (final return FQN or
    None, the intermediate return types it passed through). Every hop's
    method must be found, the first one static when static_call; every
    non-final hop also needs a known return type in members, the FQNs of
    the KB solved against.
    """
    cur = start
    passed: list[str] = []
    for idx, (m, a) in enumerate(chain[:-1]):
        sig = method_in_knowledge(kb, cur, m, a, require_static=static_call and idx == 0)
        ret = sig.return_fqn if sig is not None else None
        if ret is None or ret not in members:
            return None
        passed.append(ret)
        cur = ret
    m, a = chain[-1]
    sig = method_in_knowledge(kb, cur, m, a, require_static=static_call and not passed)
    return None if sig is None else (sig.return_fqn, tuple(passed))


def _tabulate(
    kb: KnowledgeBase, members: Container[str], constraints: Sequence[Constraint],
    index_of: Mapping[ApiElement, int], cand_lists: Sequence[Sequence[str]],
) -> tuple[list[list[int]], dict[tuple[int, int], list[list[int]]], dict[str, set[str]]]:
    """Evaluate every check the solver wires, once per candidate (pair), on
    the KB of FQNs members: kb itself, or a `reduce_kb` mask of it, whose
    types keep their kinds, members and closures, read through kb's memos.

    Returns (unary, pairs, consulted). unary[i][ci] counts the checks that
    candidate ci of element i fails. pairs[(lo, hi)][c_lo][c_hi], lo < hi,
    counts the cross-element checks failed when lo takes c_lo and hi takes
    c_hi; one whose two ends are one element is a unary check. consulted
    maps a candidate to the other types whose membership its counts read:
    a resolved chain's intermediate types, and a failed assignment check's
    value type and chain types.
    """
    unary = [[0] * len(cl) for cl in cand_lists]
    pairs: dict[tuple[int, int], list[list[int]]] = {}
    consulted: dict[str, set[str]] = {}

    def check(e: ApiElement, ok) -> None:
        i = index_of[e]
        for ci, c in enumerate(cand_lists[i]):
            if not ok(c):
                unary[i][ci] += 1

    # check calls `ok` at once, so the lambdas below may read `con`
    for con in constraints:
        if isinstance(con, DeclaredAssignment):
            # given the source's candidate, the declared element must take
            # the value type or one of its supertypes
            src = con.source
            if con.declared not in index_of or src.subject not in index_of:
                continue
            f, k = index_of[con.declared], index_of[src.subject]
            lo, hi = min(f, k), max(f, k)
            if f != k and (lo, hi) not in pairs:
                pairs[(lo, hi)] = [[0] * len(cand_lists[hi]) for _ in cand_lists[lo]]
            for ck, c in enumerate(cand_lists[k]):
                if isinstance(src, Construction):
                    walked = c, ()
                else:
                    walked = _chain_value(kb, members, c, src.chain, src.static_call)
                if walked is None or walked[0] not in members:
                    continue  # unknown returns impose nothing
                value, passed = walked
                allowed = supertype_closure(kb, value)
                if f == k:
                    failed = c not in allowed
                    if failed:
                        unary[k][ck] += 1
                else:
                    failed = False
                    table = pairs[(lo, hi)]
                    for cf, c_free in enumerate(cand_lists[f]):
                        if c_free not in allowed:
                            a, b = (cf, ck) if f < k else (ck, cf)
                            table[a][b] += 1
                            failed = True
                if failed:
                    consulted.setdefault(c, set()).update((value, *passed))
        elif con.subject not in index_of:
            continue
        elif isinstance(con, Construction):
            check(con.subject, lambda c: kb.entries[c].kind == "class")
        elif isinstance(con, MemberCall):
            i = index_of[con.subject]
            for ci, c in enumerate(cand_lists[i]):
                walked = _chain_value(kb, members, c, con.chain, con.static_call)
                if walked is None:
                    unary[i][ci] += 1
                elif walked[1]:
                    consulted.setdefault(c, set()).update(walked[1])
        elif isinstance(con, FieldAccess):
            check(con.subject, lambda c: field_in_knowledge(
                kb, c, con.field_name, require_static=con.static_access
            ) is not None)
        else:
            check(con.subject, lambda c: kb.entries[c].kind == con.kind)
    return unary, pairs, consulted


def _search(
    libs: Sequence[Sequence[str]],
    unary: Sequence[Sequence[int]],
    pairs: Mapping[tuple[int, int], Sequence[Sequence[int]]],
) -> tuple[int, tuple[int, ...], dict[int, set[int]]]:
    """Exact depth-first branch and bound over a tabulated problem whose
    element i has candidates with libraries libs[i], in token order.

    Returns (fewest violations, the smallest optimal candidate-index
    vector, alternatives): alternatives maps each element two optima give
    different candidates (an ambiguous element) to every candidate index
    an optimum gives it.

    - Set-up is one pass over the elements. It gives each candidate its
      library's bit, each element the union of its candidates' bits, each
      library the number of elements with a candidate in it (its reach),
      and splits the elements into settled ones (one candidate) and free
      ones.
    - Settled elements' violations and libraries count for every
      assignment, and their pair tables fold into the other element's
      counts, so the search branches only over free elements. A search
      node only adds up table entries.
    - At each element, candidates are tried by the violations they add
      given the choices above them, then whether their library is new, then
      the reach of their library, then candidate order. The last two keys
      do not change during the search, so each distinct library list (the
      elements of one simple name share one) is sorted by them once, and
      each node sorts that order by the first two. The first complete
      assignment is usually optimal, so later branches meet a tight
      incumbent.
    - A branch is cut when its lower bound is strictly worse than the
      incumbent. The violation bound is the violations so far plus each
      remaining element's fewest unary violations. The library bound is the
      libraries used so far plus a greedy count of remaining elements whose
      candidate libraries are disjoint from those and from each other: each
      such element needs one more library.

    Both bounds never exceed the cost of any completion, and the cut is
    strict, so every optimal assignment is still reached. The set of optima,
    and with it the lexicographic choice among them, the alternatives and
    the strict-uniqueness abstentions, therefore do not depend on the order
    in which the search meets them. An equal-cost leaf adds its value of
    each element where it differs from the smallest optimum so far, and
    that optimum's value too when the element is new to the alternatives
    (the smallest optimum only moves to values they hold): every value
    some optimum gives an ambiguous element is then collected.
    """
    n = len(libs)
    # the one set-up pass; cost holds the free elements' unary counts
    lib_bit: dict[str, int] = {}
    cand_bits: list[list[int]] = []
    elem_bits: list[int] = []
    reach: dict[int, int] = {}
    free: list[int] = []
    cost: dict[int, list[int]] = {}
    base_v = base_used = 0
    for i, ls in enumerate(libs):
        bits: list[int] = []
        union = 0
        for lib in ls:
            bit = lib_bit.get(lib)
            if bit is None:
                bit = lib_bit[lib] = 1 << len(lib_bit)
            bits.append(bit)
            if not union & bit:
                union |= bit
                reach[bit] = reach.get(bit, 0) + 1
        cand_bits.append(bits)
        elem_bits.append(union)
        if len(bits) > 1:
            free.append(i)
            cost[i] = list(unary[i])
        else:
            base_v += unary[i][0]
            base_used |= union

    # pair tables of two free elements, by the later one
    earlier: dict[int, list[tuple[int, Sequence[Sequence[int]]]]] = {i: [] for i in free}
    for (lo, hi), table in pairs.items():
        if lo not in cost:
            if hi not in cost:
                base_v += table[0][0]
            else:
                for c, x in enumerate(table[0]):
                    cost[hi][c] += x
        elif hi not in cost:
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
    tie_order: list[list[int]] = []
    order_of: dict[int, list[int]] = {}
    for i in free:
        key = id(libs[i])
        if key not in order_of:
            neg_reach = [-reach[bit] for bit in cand_bits[i]]
            order_of[key] = sorted(range(len(neg_reach)), key=neg_reach.__getitem__)
        tie_order.append(order_of[key])

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
    alternatives: dict[int, set[int]] = {}
    choice = [0] * n

    def dfs(d: int, v: int, used: int) -> None:
        nonlocal best_v, best_l, best_vec, alternatives
        if d == depth:
            leaf = (v, used.bit_count())
            vec = tuple(choice)
            if leaf < (best_v, best_l):
                best_v, best_l = leaf
                best_vec = vec
                alternatives = {}
            elif leaf == (best_v, best_l):
                for i in free:
                    if vec[i] != best_vec[i]:
                        if i in alternatives:
                            alternatives[i].add(vec[i])
                        else:
                            alternatives[i] = {vec[i], best_vec[i]}
                best_vec = min(best_vec, vec)
            return
        i = free[d]
        added = list(cost[i])
        for lo, table in earlier[i]:
            row = table[choice[lo]]
            for ci, x in enumerate(row):
                added[ci] += x
        bits = cand_bits[i]
        for ci in sorted(tie_order[d], key=lambda ci: (added[ci], not bits[ci] & used)):
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
    return best_v, best_vec, alternatives


class ConstraintProblem:
    """One snippet's constraint problem on a loaded KB, solved under masks.

    Construction fixes the strictness of every solve and sets apart the
    elements untyped under every mask: those on the excluded lines and
    those with no candidate. For each other element it stores the
    candidates and their libraries, read from the KB once per simple name.
    Each `solve` tabulates the candidates its mask keeps and searches once,
    or returns the loaded KB's result when the mask keeps every optimum.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        elements: Sequence[ApiElement],
        constraints: Sequence[Constraint],
        excluded: frozenset[int] = frozenset(),
        *,
        strict_uniqueness: bool = True,
    ):
        self._kb = kb
        self._constraints = constraints
        self._strict = strict_uniqueness
        untyped: set[ApiElement] = set()
        # each searched element with its candidates and their libraries,
        # read once per simple name; candidates_for is sorted, so comparing
        # index vectors compares FQNs
        self._elements: list[ApiElement] = []
        self._cands: list[tuple[str, ...]] = []
        self._libs: list[list[str]] = []
        libs_of: dict[str, list[str]] = {}
        entries = kb.entries
        for e in sorted(elements, key=lambda e: e.token_index):
            cands = kb.candidates_for(e.simple_name)
            if e.line not in excluded and cands:
                libs = libs_of.get(e.simple_name)
                if libs is None:
                    libs = libs_of[e.simple_name] = [entries[c].library for c in cands]
                self._elements.append(e)
                self._cands.append(cands)
                self._libs.append(libs)
            else:
                untyped.add(e)
        self._untyped = frozenset(untyped)
        # once the loaded KB is solved: the result of that solve, the FQNs
        # some optimum takes and each candidate's consulted types
        self._loaded: (
            tuple[ConstraintResult, frozenset[str], dict[str, set[str]]] | None
        ) = None

    def solve(self, mask: frozenset[str] | None = None) -> ConstraintResult:
        """The result of `solve` on the loaded KB (mask None) or on the KB
        reduced to mask, the entries of the loaded KB whose FQN it holds.

        The loaded KB's solve uses the stored candidates and libraries as
        they are, since every candidate is an entry of that KB; a masked
        solve keeps the candidates in the mask, with their libraries, in
        one pass.

        Strict uniqueness, fixed at construction, leaves the search's
        ambiguous elements, which two optima give different candidates,
        untyped. If the loaded KB was solved and the mask holds every FQN
        that some optimum of that solve takes, and every type consulted by
        every candidate it keeps, that result is returned without tabulating
        or searching: each assignment inside the mask costs what it did and
        every optimum is inside it, so the optimum cost, the optima, the
        smallest of them, the ambiguous and the violated elements are all
        unchanged. A unique optimum is the case where those FQNs are its own.

        Raises ValueError when more elements have a choice than the
        search's recursion limit allows.
        """
        kb = self._kb
        if mask is not None and self._loaded is not None:
            result, optimal, consulted = self._loaded
            if optimal <= mask and all(
                types <= mask for c, types in consulted.items() if c in mask
            ):
                return result
        rejected = set(self._untyped)
        members: Container[str]
        if mask is None:
            # every candidates_for FQN is an entry of the loaded KB
            members = kb.entries
            search, cands, libs = self._elements, self._cands, self._libs
        else:
            members = mask
            search, cands, libs = [], [], []
            # the elements of one simple name share libraries and what is kept
            kept_of: dict[int, tuple[list[str], list[str]]] = {}
            for e, cl, ls in zip(self._elements, self._cands, self._libs):
                if id(ls) not in kept_of:
                    kept_of[id(ls)] = ([c for c in cl if c in mask],
                                       [lib for c, lib in zip(cl, ls) if c in mask])
                kept, kept_libs = kept_of[id(ls)]
                if kept:
                    search.append(e)
                    cands.append(kept)
                    libs.append(kept_libs)
                else:
                    rejected.add(e)
        index_of = {e: i for i, e in enumerate(search)}
        unary, pairs, consulted = _tabulate(
            kb, members, self._constraints, index_of, cands
        )
        best_v, best_vec, alternatives = _search(libs, unary, pairs)
        # which elements sit on a violated constraint in the chosen optimum
        violated: set[int] = set()
        if best_v > 0:
            for i, row in enumerate(unary):
                if row[best_vec[i]] > 0:
                    violated.add(i)
            for (lo, hi), table in pairs.items():
                if table[best_vec[lo]][best_vec[hi]] > 0:
                    violated.update((lo, hi))
        typed: dict[ApiElement, str] = {}
        for i, e in enumerate(search):
            if i in violated or (self._strict and i in alternatives):
                rejected.add(e)
            else:
                typed[e] = cands[i][best_vec[i]]
        result = ConstraintResult(typed, frozenset(rejected))
        if mask is None:
            optimal = {cl[ci] for cl, ci in zip(cands, best_vec)}
            optimal.update(cands[i][ci] for i, values in alternatives.items() for ci in values)
            self._loaded = (result, frozenset(optimal), consulted)
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

    This is `ConstraintProblem.solve` with mask None, on a problem built
    with this strictness: each element's candidates and their libraries are
    read from the KB once, every check is tabulated once per candidate and
    candidate pair, and an exact branch and bound (`_search`) over those
    tables finds every optimum. The loop in `orchestrator.run` builds one
    `ConstraintProblem` per run, with the run's strictness, and solves it
    under each round's mask. Raises ValueError when more elements have a
    choice than the search's recursion limit allows.

    The program no longer calls this function: the "constraint" engine is
    the loop's first round. It stays for perfbench/tracer.py, which wraps
    `orchestrator.solve`, and for the tests that call it directly.
    """
    return ConstraintProblem(
        kb, elements, constraints, excluded, strict_uniqueness=strict_uniqueness
    ).solve()

