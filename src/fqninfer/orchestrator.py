"""Iterative combination of the constraint solver and the statistical ranker.

Each round runs both engines, feeding constraint-typed elements into the
statistical context (augmentation) and feeding both engines' candidate types
into a reduction of the knowledge base for the next constraint pass. The
loop stops when a round reproduces the previous one exactly, or after a
fixed number of rounds. Final answers prefer the constraint engine where it
ever committed, falling back to the statistical ranking.

A reduction is a mask over the loaded KB (`kb.reduce_kb`), never a new KB:
each round tabulates and searches the candidates its mask keeps, reading
KB membership from the mask. A masked round whose mask keeps every
candidate that some optimum of the full-KB round gives an element, and
every type the checks of its kept candidates consulted, returns the
full-KB round's result without tabulating or searching (see
`constraint.ConstraintProblem.solve`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

# `solve` is never called here: it stays in this namespace only because
# perfbench/tracer.py wraps `orchestrator.solve`
from .constraint import ConstraintProblem, ConstraintResult, extract_constraints, solve
from .kb import KnowledgeBase, reduce_kb
from .snippet import (ApiElement, Snippet, _value_tuple, augment, identify_api_elements,
                      plain)
from .stat import CandidateList, Predictor, predict_all

ORDER_CONSTRAINT_FIRST = "constraint_first"
ORDER_STAT_FIRST = "stat_first"


@dataclass(frozen=True)
class RunConfig:
    """Every run setting, one field per CLI flag (`--model` and `--eta`,
    which pick the model, aside).

    k: statistical candidates kept per element (0 turns the ranker off).
    delta: hard round limit when no fixed point is reached (at least 1).
    order: which engine leads a round; the follower sees the leader's output.
    cascaded_calls: a member call keeps every hop of a Name.m1().m2() chain.
        Off, it keeps only the first hop, which mirrors tools that cannot
        express the full chain, and a longer chain gives a declared
        assignment no source.
    strict_body_check: a constructor whose name does not match its class
        makes the whole class body unanalyzable: its lines are excluded.
    strict_uniqueness: an element whose optimal candidates tie in a way no
        constraint breaks is reported untyped instead of guessed.
    exclude_string: String occurrences are not API elements.
    """

    k: int = 3
    delta: int = 10
    order: str = ORDER_CONSTRAINT_FIRST
    cascaded_calls: bool = False
    strict_body_check: bool = True
    strict_uniqueness: bool = True
    exclude_string: bool = True

    def __post_init__(self) -> None:
        if self.order not in (ORDER_CONSTRAINT_FIRST, ORDER_STAT_FIRST):
            raise ValueError(f"unknown round order: {self.order!r}")
        for name in ("k", "delta"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("cascaded_calls", "strict_body_check", "strict_uniqueness",
                     "exclude_string"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be a bool, got {value!r}")
        if self.k < 0:
            raise ValueError(f"k must not be negative, got {self.k}")
        if self.delta < 1:
            raise ValueError(f"delta must be at least 1, got {self.delta}")


@_value_tuple
class RoundRecord(NamedTuple):
    round_number: int
    constraint_result: ConstraintResult
    stat_result: Mapping[ApiElement, CandidateList]
    kb_size: int  # size of the (masked) KB the constraint pass ran against


@_value_tuple
class CombinedElement(NamedTuple):
    element: ApiElement
    final_fqn: str | None
    source: str  # "constraint", "statistical" or "none"
    comb_type_c: str | None
    comb_types_s: tuple[str, ...]


@_value_tuple
class CombinedResult(NamedTuple):
    per_element: Mapping[ApiElement, CombinedElement]

    def answers(self) -> dict[str, str]:
        """Element key -> final FQN for every element that got one."""
        return {
            e.key: ce.final_fqn
            for e, ce in self.per_element.items()
            if ce.final_fqn is not None
        }


def check_stable(prev: RoundRecord, cur: RoundRecord) -> bool:
    """A fixed point: same constraint decisions and same ranked candidates."""
    return (
        prev.constraint_result.typed == cur.constraint_result.typed
        and prev.stat_result == cur.stat_result
    )


def collect_candidate_types(
    stat_result: Mapping[ApiElement, CandidateList],
    constraint_typed: Mapping[ApiElement, str],
) -> frozenset[str]:
    """Union of every element's statistical top-k candidates and its
    constraint-inferred type."""
    out = set(constraint_typed.values())
    for cand in stat_result.values():
        out.update(cand.ranked)
    return frozenset(out)


def combine(
    trace: Sequence[RoundRecord], elements: Sequence[ApiElement]
) -> CombinedResult:
    """Fold a round trace into one answer per element.

    The constraint answer is the one from the last round that committed to
    the element; the statistical answer is the last nonempty candidate list.
    Constraint answers win; otherwise the top statistical candidate is used.
    """
    per: dict[ApiElement, CombinedElement] = {}
    for e in sorted(elements, key=lambda e: e.token_index):
        comb_type_c: str | None = None
        comb_types_s: tuple[str, ...] = ()
        for rec in trace:
            if e in rec.constraint_result.typed:
                comb_type_c = rec.constraint_result.typed[e]
            ranked = rec.stat_result.get(e)
            if ranked is not None and ranked.ranked:
                comb_types_s = ranked.ranked
        if comb_type_c is not None:
            final, source = comb_type_c, "constraint"
        elif comb_types_s:
            final, source = comb_types_s[0], "statistical"
        else:
            final, source = None, "none"
        per[e] = CombinedElement(e, final, source, comb_type_c, comb_types_s)
    return CombinedResult(per)


def run(
    snippet: Snippet,
    kb: KnowledgeBase,
    model: Predictor,
    config: RunConfig = RunConfig(),
    elements: Sequence[ApiElement] | None = None,
) -> tuple[CombinedResult, list[RoundRecord]]:
    """Run the full loop on one snippet.

    `model` ranks the statistical candidates, e.g. a trained co-occurrence
    model. Statistical candidates are always filtered against the ORIGINAL
    kb; reduction narrows only what the constraint solver sees.

    Within a run the solver's answer depends only on the candidate-type
    set the KB is reduced to (None: the full KB), and the ranking only on
    the substitution map, so each distinct input is solved under its mask
    or ranked once.

    Raises ValueError when the snippet is too large to solve: more elements
    with a choice than the constraint search's recursion limit allows.
    """
    if elements is None:
        elements = identify_api_elements(
            snippet, kb, exclude_string=config.exclude_string
        )
    constraints, excluded = extract_constraints(
        snippet, elements, cascaded_calls=config.cascaded_calls,
        strict_body_check=config.strict_body_check,
    )
    problem = ConstraintProblem(
        kb, elements, constraints, excluded, strict_uniqueness=config.strict_uniqueness
    )
    solved: dict[frozenset[str] | None, tuple[int, ConstraintResult]] = {}
    ranked: dict[frozenset, dict[ApiElement, CandidateList]] = {}

    def solve_reduced(cantypes: frozenset[str] | None) -> tuple[int, ConstraintResult]:
        if cantypes not in solved:
            mask = None if cantypes is None else reduce_kb(kb, cantypes)
            cres = problem.solve(mask)
            solved[cantypes] = (len(kb if mask is None else mask), cres)
        return solved[cantypes]

    def rank(typed: Mapping[ApiElement, str]) -> dict[ApiElement, CandidateList]:
        key = frozenset(typed.items())
        if key not in ranked:
            aug = augment(snippet, dict(typed))
            ranked[key] = predict_all(model, aug, elements, kb, config.k)
        return ranked[key]

    cantypes: frozenset[str] | None = None
    prev_typed: Mapping[ApiElement, str] = {}
    trace: list[RoundRecord] = []

    for round_number in range(1, config.delta + 1):
        if config.order == ORDER_CONSTRAINT_FIRST:
            if trace:  # the previous round's candidates narrow the KB
                cantypes = collect_candidate_types(sres, cres.typed)
            kb_size, cres = solve_reduced(cantypes)
            sres = rank(cres.typed)
        else:
            sres = rank(prev_typed)
            cantypes = collect_candidate_types(sres, prev_typed)
            kb_size, cres = solve_reduced(cantypes)
            prev_typed = cres.typed

        record = RoundRecord(round_number, cres, sres, kb_size)
        trace.append(record)
        if len(trace) > 1 and check_stable(trace[-2], record):
            break

    return combine(trace, elements), trace


def infer_with_engine(
    snippet: Snippet,
    kb: KnowledgeBase,
    model: Predictor | None,
    engine: str,
    config: RunConfig = RunConfig(),
) -> dict[str, str]:
    """Element key -> FQN under one of the three engines.

    "constraint" is the constraint-first loop's first round with the ranker
    off (one full-KB solve), "stat" a single raw-context ranking (top 1),
    "combined" the iterative loop. Like `run`, the "constraint" and
    "combined" engines raise ValueError on a snippet too large to solve.
    """
    elements = identify_api_elements(snippet, kb, exclude_string=config.exclude_string)
    if engine == "stat":
        preds = predict_all(model, plain(snippet), elements, kb, max(1, config.k))
        return {
            e.key: cl.ranked[0] for e, cl in preds.items() if cl.ranked
        }
    if engine == "constraint":
        # the order is forced: a stat-first round 1 solves under the mask of
        # an empty ranking
        config = replace(config, k=0, delta=1, order=ORDER_CONSTRAINT_FIRST)
    elif engine != "combined":
        raise ValueError(f"unknown engine: {engine!r}")
    combined, _ = run(snippet, kb, model, config, elements=elements)
    return combined.answers()


def serialize_trace(
    trace: Sequence[RoundRecord], elements: Sequence[ApiElement]
) -> str:
    """Readable round-by-round log, stable across runs."""
    ordered = sorted(elements, key=lambda e: e.token_index)
    lines: list[str] = []
    for rec in trace:
        lines.append(f"round {rec.round_number} kb_size={rec.kb_size}")
        for e in ordered:
            fqn = rec.constraint_result.typed.get(e)
            lines.append(f"constraint {e.key} {fqn if fqn else '-'}")
        for e in ordered:
            cl = rec.stat_result.get(e)
            shown = ",".join(cl.ranked) if cl and cl.ranked else "-"
            lines.append(f"stat {e.key} {shown}")
    return "\n".join(lines) + "\n"
