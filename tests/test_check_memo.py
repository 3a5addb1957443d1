"""The KB's check memo: `constraint._tabulate` against the tabulation it
replaced, and the work the memo saves, counted.

`_parent_tabulate` is the tabulation before the memo, kept verbatim but
for its name. Every table the new one adds up must equal its tables with
the memo cold (a fresh KB), warm (a KB that tabulated every other problem
first) and bypassed (a `reduce_kb` mask), on every fixture snippet, the
solver's cliff shapes and seeded problems of the randomized suites.
"""

import random
from pathlib import Path
from typing import Container, Mapping, Sequence, get_args

from test_properties import (
    _dense_constraints,
    _dense_elements,
    _dense_kb,
    _random_constraints,
    _random_elements,
    _random_kb,
)

from fqninfer import (
    ApiElement,
    KnowledgeBase,
    identify_api_elements,
    load_corpus,
    load_kb,
    tokenize,
)
from fqninfer import constraint
from fqninfer.constraint import (
    Constraint,
    ConstraintProblem,
    Construction,
    DeclaredAssignment,
    FieldAccess,
    MemberCall,
    _chain_value,
    _tabulate,
    extract_constraints,
)
from fqninfer.kb import field_in_knowledge, reduce_kb, supertype_closure

_FIXTURES = Path(__file__).parent / "fixtures"
_KB_PATH = _FIXTURES / "kb" / "global.kb"


def _parent_tabulate(
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


# ---------------------------------------------------------------------------
# the tables against the parent's, with the memo cold, warm and bypassed

def _snippet_problem(kb, text):
    """The elements a solve of snippet text searches and its constraints."""
    sn = tokenize(text)
    elements = identify_api_elements(sn, kb)
    constraints, excluded = extract_constraints(sn, elements)
    return [e for e in elements if e.line not in excluded], constraints


def _tables(tabulate, kb, members, elements, constraints):
    """What tabulate gives on the KB of FQNs members for the elements'
    candidates as a solve passes them: kb's candidate tuples on the loaded
    KB, lists filtered by the mask otherwise; an element left without one
    is not searched. The pair tables come in insertion order."""
    search, cands = [], []
    for e in sorted(elements, key=lambda e: e.token_index):
        cl = kb.candidates_for(e.simple_name)
        if members is not kb.entries:
            cl = [c for c in cl if c in members]
        if cl:
            search.append(e)
            cands.append(cl)
    index_of = {e: i for i, e in enumerate(search)}
    unary, pairs, consulted = tabulate(kb, members, constraints, index_of, cands)
    return unary, list(pairs.items()), consulted


def _assert_matches_parent(entries, problems, masks, where):
    """Each problem's tables on a KB of entries equal the parent's: on a
    fresh KB, on a KB that tabulated every other problem first, and under
    each mask, which leaves the warm memo as it was."""
    entries = list(entries)
    for p, (elements, constraints) in enumerate(problems):
        reference = KnowledgeBase(entries)
        want = _tables(_parent_tabulate, reference, reference.entries, elements, constraints)
        cold = KnowledgeBase(entries)
        got = _tables(_tabulate, cold, cold.entries, elements, constraints)
        assert got == want, (where, p, "cold")
        warm = KnowledgeBase(entries)
        for q, (other_elements, other_constraints) in enumerate(problems):
            if q != p:
                _tables(_tabulate, warm, warm.entries, other_elements, other_constraints)
        got = _tables(_tabulate, warm, warm.entries, elements, constraints)
        assert got == want, (where, p, "warm")
        memo = dict(warm._checks)
        for m, mask in enumerate(masks):
            want = _tables(_parent_tabulate, reference, mask, elements, constraints)
            got = _tables(_tabulate, warm, mask, elements, constraints)
            assert got == want, (where, p, "mask", m)
        assert warm._checks == memo, (where, p)


_CLIFF_SHAPES = (
    "Document d = null;\n" * 12,
    "Label a; Document d; Button b;\n" * 10,
    "Composite c = new Composite();\n" * 30,
)


def test_tabulation_matches_the_parent_on_fixture_snippets_and_cliff_shapes():
    kb = load_kb(_KB_PATH)
    texts = [item.snippet.raw for item in load_corpus(_FIXTURES / "corpus")]
    texts += _CLIFF_SHAPES
    problems = [_snippet_problem(kb, text) for text in texts]
    assert sum(len(constraints) for _, constraints in problems) >= 100
    rng = random.Random(4401)
    fqns = sorted(kb.entries)
    masks = [reduce_kb(kb, rng.sample(fqns, rng.randint(0, len(fqns)))) for _ in range(3)]
    masks.append(frozenset(kb.entries))
    _assert_matches_parent(kb.entries.values(), problems, masks, "fixture")


def _static_flipped(constraints):
    """constraints with the static flag of each call and field access
    flipped, an assignment's source's too."""
    def flip(c):
        if isinstance(c, MemberCall):
            return c._replace(static_call=not c.static_call)
        if isinstance(c, FieldAccess):
            return c._replace(static_access=not c.static_access)
        if isinstance(c, DeclaredAssignment):
            return c._replace(source=flip(c.source))
        return c

    return [flip(c) for c in constraints]


def test_tabulation_matches_the_parent_on_seeded_problems():
    """Three draws of elements and constraints share each seeded KB, so a
    warm memo holds the other draws' checks on the same candidates: general
    random problems, and dense-shaped ones, whose assignments link elements
    of one name and of two. A fourth problem is the first with every static
    flag flipped, so a warm memo holds each of its checks with the other
    flag."""
    rng = random.Random(4402)
    for case in range(400):
        if case % 2:
            kb = _dense_kb(rng)
            problems = []
            for _ in range(3):
                elements = _dense_elements(rng)
                problems.append((elements, _dense_constraints(rng, elements)))
        else:
            kb = _random_kb(rng)
            problems = []
            for _ in range(3):
                elements = _random_elements(rng)
                problems.append((elements, _random_constraints(rng, elements)))
        problems.append((problems[0][0], _static_flipped(problems[0][1])))
        fqns = sorted(kb.entries)
        masks = [reduce_kb(kb, rng.sample(fqns, rng.randint(0, len(fqns)))) for _ in range(2)]
        masks.append(frozenset(kb.entries))
        _assert_matches_parent(kb.entries.values(), problems, masks, case)


# ---------------------------------------------------------------------------
# the work the memo saves, counted

class _CountingMemo(dict):
    """A check memo that counts its reads."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


class _SealedMemo(dict):
    """A check memo that fails on any read or write."""

    def _touched(self, *args, **kwargs):
        raise AssertionError("a masked tabulation touched the check memo")

    get = __getitem__ = __setitem__ = __contains__ = setdefault = _touched


def _is_value(x):
    """x is a constraint class, a str, an int, None, or a tuple of values."""
    if isinstance(x, tuple):
        return all(_is_value(y) for y in x)
    return x is None or isinstance(x, (str, int)) or x in get_args(Constraint)


def test_check_memo_work_counts(monkeypatch):
    """Loaded-KB solves of the fixture corpus on one KB compute 52 check
    contributions for 61 lookups, keyed and valued by values alone, and a
    KB of the same entries fills an equal memo. A second pass computes
    none and adds no entry. Masked solves neither read nor write the memo,
    and the warm KB equals a cold one."""
    kb = load_kb(_KB_PATH)
    problems = []
    for item in load_corpus(_FIXTURES / "corpus"):
        elements = identify_api_elements(item.snippet, kb)
        problems.append((elements, *extract_constraints(item.snippet, elements)))
    computed = []
    contribution = constraint._contribution

    def counted(*args):
        computed.append(args[2])
        return contribution(*args)

    monkeypatch.setattr(constraint, "_contribution", counted)

    def loaded_pass(kb):
        for elements, constraints, excluded in problems:
            ConstraintProblem(kb, elements, constraints, excluded).solve()

    memo = kb._checks = _CountingMemo()
    loaded_pass(kb)
    assert (len(computed), memo.reads, len(memo)) == (52, 61, 52)
    assert all(_is_value(key) and _is_value(value) for key, value in memo.items())
    twin = load_kb(_KB_PATH)
    loaded_pass(twin)
    assert twin._checks == memo

    computed.clear()
    memo.reads = 0
    loaded_pass(kb)
    assert (len(computed), memo.reads, len(memo)) == (0, 61, 52)

    warm = dict(memo)
    kb._checks = _SealedMemo()
    for elements, constraints, excluded in problems:
        cands = sorted({c for e in elements for c in kb.candidates_for(e.simple_name)})
        for mask in (frozenset(kb.entries), reduce_kb(kb, cands[::2])):
            ConstraintProblem(kb, elements, constraints, excluded).solve(mask)
    assert computed  # each masked solve evaluated its own checks
    assert memo == warm
    kb._checks = memo
    cold = load_kb(_KB_PATH)
    assert cold._checks == {} and kb == cold
