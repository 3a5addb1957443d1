"""The iterative loop: stability, reduction, augmentation, combination."""

import ast
import gc
import itertools
import random
import sys
import zlib
from pathlib import Path

import pytest

from fqninfer import (
    ApiElement,
    ORDER_CONSTRAINT_FIRST,
    ORDER_STAT_FIRST,
    RunConfig,
    infer_with_engine,
    run,
    serialize_trace,
)
from fqninfer.constraint import (ConstraintProblem, ConstraintResult, extract_constraints,
                                 solve)
from fqninfer.kb import KnowledgeBase, reduce_kb
from fqninfer import orchestrator, tokenize
from fqninfer.orchestrator import (
    RoundRecord,
    check_stable,
    collect_candidate_types,
    combine,
)
from fqninfer.snippet import augment, identify_api_elements, plain
from fqninfer.stat import CandidateList, predict_all

import test_properties


def _el(name, idx):
    return ApiElement(name, 1, 1, idx)


def _record(n, typed, ranks, kb_size=10):
    cres = ConstraintResult(typed, frozenset())
    sres = {e: CandidateList(tuple(r)) for e, r in ranks.items()}
    return RoundRecord(n, cres, sres, kb_size)


def test_check_stable_requires_identical_constraint_decisions():
    a = _el("X", 0)
    r1 = _record(1, {a: "com.a.X"}, {a: ("com.a.X",)})
    r2 = _record(2, {}, {a: ("com.a.X",)})
    r3 = _record(3, {a: "com.a.X"}, {a: ("com.a.X",)})
    assert not check_stable(r1, r2)
    assert check_stable(r1, r3)


def test_check_stable_requires_identical_rankings():
    a = _el("X", 0)
    r1 = _record(1, {a: "com.a.X"}, {a: ("com.a.X", "org.b.X")})
    r2 = _record(2, {a: "com.a.X"}, {a: ("org.b.X", "com.a.X")})
    assert not check_stable(r1, r2)


def test_collect_candidate_types_union():
    e1, e2, e3 = _el("A", 0), _el("B", 1), _el("C", 2)
    stat = {
        e1: CandidateList(("a.X", "b.X")),
        e2: CandidateList(("c.Y",)),
        e3: CandidateList(()),
    }
    typed = {e1: "e.X", e3: "a.X"}
    got = collect_candidate_types(stat, typed)
    assert got == frozenset({"a.X", "b.X", "c.Y", "e.X"})


def test_collect_candidate_types_empty():
    assert collect_candidate_types({}, {}) == frozenset()


def test_combine_prefers_latest_constraint_answer():
    a = _el("X", 0)
    trace = [
        _record(1, {a: "com.a.X"}, {a: ()}),
        _record(2, {a: "org.b.X"}, {a: ()}),
    ]
    got = combine(trace, [a]).per_element[a]
    assert got.final_fqn == "org.b.X"
    assert got.source == "constraint"


def test_combine_keeps_last_commitment_when_later_rounds_abstain():
    a = _el("X", 0)
    trace = [
        _record(1, {a: "com.a.X"}, {a: ()}),
        _record(2, {}, {a: ()}),
    ]
    got = combine(trace, [a]).per_element[a]
    assert got.final_fqn == "com.a.X"
    assert got.comb_type_c == "com.a.X"


def test_combine_falls_back_to_last_nonempty_ranking():
    a = _el("X", 0)
    trace = [
        _record(1, {}, {a: ("org.b.X", "com.a.X")}),
        _record(2, {}, {a: ()}),
    ]
    got = combine(trace, [a]).per_element[a]
    assert got.final_fqn == "org.b.X"
    assert got.source == "statistical"
    assert got.comb_types_s == ("org.b.X", "com.a.X")


def test_combine_reports_none_when_neither_engine_commits():
    a = _el("X", 0)
    trace = [_record(1, {}, {a: ()})]
    got = combine(trace, [a]).per_element[a]
    assert got.final_fqn is None
    assert got.source == "none"


def test_combined_answers_skips_unanswered_elements():
    a, b = _el("X", 0), _el("Y", 1)
    trace = [_record(1, {a: "com.a.X"}, {a: ("com.a.X",), b: ()})]
    assert combine(trace, [a, b]).answers() == {"X[1,1]": "com.a.X"}


def test_run_rejects_unknown_order():
    with pytest.raises(ValueError, match="unknown round order"):
        RunConfig(order="sideways")
    with pytest.raises(ValueError, match="delta must be at least 1"):
        RunConfig(delta=0)
    with pytest.raises(ValueError, match="k must not be negative"):
        RunConfig(k=-1)
    # a value of the wrong type is rejected here, not deep inside a run
    for bad in ({"k": 2.5}, {"k": "3"}, {"k": True}, {"delta": 2.5}):
        with pytest.raises(ValueError, match="must be an integer"):
            RunConfig(**bad)
    # the edges themselves are valid: one round, and no statistical ranking
    RunConfig(k=0, delta=1)


def test_run_config_switches_must_be_bools():
    # a truthy stand-in such as "no" would silently turn a switch on
    with pytest.raises(ValueError, match="^exclude_string must be a bool, got None$"):
        RunConfig(exclude_string=None)
    for name in ("cascaded_calls", "strict_body_check", "strict_uniqueness"):
        for bad in ("no", 1, None):
            message = f"^{name} must be a bool, got {bad!r}$"
            with pytest.raises(ValueError, match=message):
                RunConfig(**{name: bad})


def test_run_first_round_sees_full_kb(kb, model, by_id):
    _, trace = run(by_id["8746084"].snippet, kb, model)
    assert trace[0].kb_size == len(kb.entries)
    # later rounds run against the reduced KB
    assert trace[1].kb_size < len(kb.entries)


def test_run_stable_trace_ends_with_repeated_round(kb, model, by_id):
    _, trace = run(by_id["8746084"].snippet, kb, model)
    assert len(trace) == 2
    assert check_stable(trace[-2], trace[-1])


def test_run_delta_caps_rounds(kb, model, by_id):
    cfg = RunConfig(delta=4)
    _, trace = run(by_id["9090901"].snippet, kb, model, cfg)
    assert len(trace) == 4
    assert not check_stable(trace[-2], trace[-1])


def test_augmentation_moves_statistical_ranking(kb, model, by_id):
    # mechanism view of the gwt Document flip: the raw ranking prefers the
    # wrong library; substituting the co-elements' FQNs flips the order
    item = by_id["3954392"]
    elements = identify_api_elements(item.snippet, kb)
    raw = predict_all(model, plain(item.snippet), elements, kb, 3)
    doc = next(e for e in raw if e.simple_name == "Document")
    assert raw[doc].ranked[0] == "com.extjs.gxt.ui.client.widget.Document"
    _, trace = run(item.snippet, kb, model)
    aug_ranked = trace[0].stat_result[doc].ranked
    assert aug_ranked[0] == "com.google.gwt.dom.client.Document"


def test_reduction_moves_constraint_answer(kb, model, by_id):
    # mechanism view of the xstream flip: with cascaded chains on and the
    # uniqueness guard off, the full KB resolves to the wrong library and
    # the statistically reduced KB breaks that resolution
    item = by_id["39005622"]
    cfg = RunConfig(cascaded_calls=True, strict_uniqueness=False)
    _, trace = run(item.snippet, kb, model, cfg)
    first = set(trace[0].constraint_result.typed.values())
    last = set(trace[-1].constraint_result.typed.values())
    assert all(f.startswith("cc.argonaut.") for f in first)
    assert all(f.startswith("com.thoughtworks.xstream.") for f in last)


def test_stat_first_round_one_constraint_runs_reduced(kb, model, by_id):
    item = by_id["1318732"]
    _, trace = run(item.snippet, kb, model, RunConfig(order=ORDER_STAT_FIRST))
    assert trace[0].kb_size < len(kb.entries)
    combined, _ = run(item.snippet, kb, model, RunConfig(order=ORDER_STAT_FIRST))
    comp = next(
        e for e in combined.per_element if e.simple_name == "Composite"
    )
    assert combined.per_element[comp].final_fqn == "android.widget.Composite"


def test_infer_with_engine_shapes(kb, model, by_id):
    sn = by_id["8746084"].snippet
    for engine in ("constraint", "stat", "combined"):
        got = infer_with_engine(sn, kb, model, engine)
        assert all(isinstance(k, str) and "[" in k for k in got)
        assert all(isinstance(v, str) for v in got.values())


@pytest.mark.parametrize("order", [ORDER_CONSTRAINT_FIRST, ORDER_STAT_FIRST])
@pytest.mark.parametrize("strict", [True, False])
def test_constraint_engine_is_one_full_kb_solve_in_either_order(
    kb, model, eval_items, order, strict
):
    # the engine is the constraint-first loop's first round whatever order
    # the config names: a stat-first round 1 would solve under the mask of
    # an empty ranking
    config = RunConfig(order=order, strict_uniqueness=strict)
    for item in eval_items:
        sn = item.snippet
        elements = identify_api_elements(sn, kb)
        constraints, excluded = extract_constraints(sn, elements)
        problem = ConstraintProblem(
            kb, elements, constraints, excluded, strict_uniqueness=strict
        )
        want = {e.key: fqn for e, fqn in problem.solve().typed.items()}
        got = infer_with_engine(sn, kb, model, "constraint", config)
        assert got == want, item.snippet_id


def test_infer_with_engine_rejects_unknown_name(kb, model, by_id):
    with pytest.raises(ValueError, match="unknown engine"):
        infer_with_engine(by_id["8746084"].snippet, kb, model, "oracle")


def test_a_solve_deeper_than_the_recursion_limit_raises_value_error(kb, model):
    # Composite has two candidates in the fixture KB, so the constraint
    # search has two elements with a choice per line
    sn = tokenize("Composite c = new Composite();\n" * 1000)
    with pytest.raises(ValueError, match="snippet too large to solve"):
        run(sn, kb, model)
    with pytest.raises(ValueError, match="snippet too large to solve"):
        infer_with_engine(sn, kb, model, "constraint")


def test_inference_leaves_no_cyclic_garbage(kb, model, eval_items):
    """Each search's tables are freed by refcounting when it returns, so
    inference on the fixture corpus leaves the cyclic collector nothing."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for item in eval_items:
            for order in (ORDER_CONSTRAINT_FIRST, ORDER_STAT_FIRST):
                run(item.snippet, kb, model, RunConfig(order=order))
            for engine in ("constraint", "stat", "combined"):
                infer_with_engine(item.snippet, kb, model, engine)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_serialize_trace_layout():
    a, b = _el("X", 0), _el("Y", 1)
    trace = [
        _record(1, {a: "com.a.X"}, {a: ("com.a.X", "org.b.X"), b: ()}, kb_size=7)
    ]
    text = serialize_trace(trace, [b, a])
    assert text == (
        "round 1 kb_size=7\n"
        "constraint X[1,1] com.a.X\n"
        "constraint Y[1,1] -\n"
        "stat X[1,1] com.a.X,org.b.X\n"
        "stat Y[1,1] -\n"
    )


def test_serialize_trace_is_deterministic(kb, model, by_id):
    item = by_id["3954392"]
    c1, t1 = run(item.snippet, kb, model)
    c2, t2 = run(item.snippet, kb, model)
    els = list(c1.per_element)
    assert serialize_trace(t1, els) == serialize_trace(t2, els)
    assert c1.answers() == c2.answers()


def test_run_covers_every_identified_element(kb, model, by_id):
    item = by_id["1109022"]
    combined, _ = run(item.snippet, kb, model)
    names = sorted(e.key for e in combined.per_element)
    assert names == ["Context[2,1]", "Toast[3,1]", "Toast[3,2]", "Toast[3,3]", "Toast[5,1]"]


def _reduced_kb(kb, cantypes):
    """The KB the loop narrows to, built as a KnowledgeBase of its own."""
    return KnowledgeBase(kb.entries[f] for f in sorted(reduce_kb(kb, cantypes)))


def _reference_run(snippet, kb, model, config):
    """The loop without reuse: every round builds its reduced KB, solves on
    it and ranks afresh."""
    elements = identify_api_elements(
        snippet, kb, exclude_string=config.exclude_string
    )
    constraints, excluded = extract_constraints(
        snippet, elements, cascaded_calls=config.cascaded_calls,
        strict_body_check=config.strict_body_check,
    )
    strict = config.strict_uniqueness
    current = kb
    prev_typed = {}
    trace = []
    for round_number in range(1, config.delta + 1):
        if config.order == ORDER_CONSTRAINT_FIRST:
            cres = solve(
                current, elements, constraints, excluded, strict_uniqueness=strict
            )
            aug = augment(snippet, dict(cres.typed))
            sres = predict_all(model, aug, elements, kb, config.k)
        else:
            aug = augment(snippet, prev_typed)
            sres = predict_all(model, aug, elements, kb, config.k)
            current = _reduced_kb(kb, collect_candidate_types(sres, prev_typed))
            cres = solve(
                current, elements, constraints, excluded, strict_uniqueness=strict
            )
            prev_typed = dict(cres.typed)
        record = RoundRecord(round_number, cres, sres, len(current))
        trace.append(record)
        if len(trace) > 1 and check_stable(trace[-2], record):
            break
        if config.order == ORDER_CONSTRAINT_FIRST:
            current = _reduced_kb(kb, collect_candidate_types(sres, cres.typed))
    return combine(trace, elements), trace


class _TextSensitivePredictor:
    """Ranks the KB's candidates in an order that any change to the
    augmented text reshuffles, so a stale ranking cannot go unnoticed."""

    def __init__(self, kb):
        self.kb = kb

    def predict(self, aug, target, k, kb):
        names = self.kb.candidates_for(target.simple_name)
        if not names:
            return []
        turn = zlib.crc32(aug.text().encode("utf-8")) % len(names)
        names = names[turn:] + names[:turn]
        return [(fqn, float(-i)) for i, fqn in enumerate(names[:k])]


@pytest.mark.parametrize("predictor", ["model", "text-sensitive"])
def test_run_matches_the_loop_without_reuse(kb, model, eval_items, predictor):
    if predictor != "model":
        model = _TextSensitivePredictor(kb)
    orders = (ORDER_CONSTRAINT_FIRST, ORDER_STAT_FIRST)
    grid = itertools.product(orders, (0, 1, 3), (1, 4, 10), (False, True))
    for order, k, delta, cascaded in grid:
        cfg = RunConfig(k=k, delta=delta, order=order, cascaded_calls=cascaded)
        for item in eval_items:
            case = (item.snippet_id, order, k, delta, cascaded)
            want, want_trace = _reference_run(item.snippet, kb, model, cfg)
            got, got_trace = run(item.snippet, kb, model, cfg)
            els = list(want.per_element)
            assert serialize_trace(got_trace, els) == serialize_trace(
                want_trace, els
            ), case
            assert got.per_element == want.per_element, case


def _dense_snippet_text(rng, kb):
    """A snippet in the generated dense workload's statement forms over the
    names of a `test_properties._dense_kb` KB: constructions, static
    factories, `to<Name>()` assignments whose value type a mask may drop,
    and two-hop chains whose intermediate type it may drop."""
    names = sorted({fqn.rpartition(".")[2] for fqn in kb.entries})
    lines = ["class Case {", "    void body() {"]
    variables = []
    for k in range(rng.randint(3, 9)):
        name, via = rng.choice(names), rng.choice(names)
        roll = rng.random()
        var = f"v{k}"
        if not variables or roll < 0.2:
            stmt = f"{name} {var} = new {name}();"
        elif roll < 0.35:
            stmt = f"{name} {var} = {name}.getInstance();"
        else:
            v = rng.choice(variables)
            if roll < 0.6:
                stmt = f"{name} {var} = {v}.to{name}();"
            elif roll < 0.8:
                stmt = f"{name} {var} = {v}.to{via}().to{name}();"
            elif roll < 0.9:
                stmt, var = f"{v}.to{via}().run();", None
            else:
                stmt, var = f"{v}.run();", None
        lines.append("        " + stmt)
        if var is not None:
            variables.append(var)
    return "\n".join(lines + ["    }", "}"]) + "\n"


def test_run_matches_the_loop_on_rebuilt_kbs_for_dense_snippets():
    """Seeded dense-shaped snippets: `run` (one tabulation, masked rounds,
    the unique-optimum shortcut) against the loop that builds each round's
    reduced KB, in both round orders, both strictness modes, with and
    without cascaded chains."""
    rng = random.Random(9017)
    orders = (ORDER_CONSTRAINT_FIRST, ORDER_STAT_FIRST)
    for case in range(150):
        kb = test_properties._dense_kb(rng)
        snippet = tokenize(_dense_snippet_text(rng, kb))
        predictor = _TextSensitivePredictor(kb)
        k, delta = rng.randint(1, 3), rng.randint(2, 6)
        for order, strict in itertools.product(orders, (True, False)):
            cfg = RunConfig(
                k=k, delta=delta, order=order,
                cascaded_calls=rng.random() < 0.7, strict_uniqueness=strict,
            )
            want, want_trace = _reference_run(snippet, kb, predictor, cfg)
            got, got_trace = run(snippet, kb, predictor, cfg)
            els = list(want.per_element)
            where = (case, order, strict, cfg.cascaded_calls)
            assert serialize_trace(got_trace, els) == serialize_trace(
                want_trace, els
            ), where
            assert got.per_element == want.per_element, where


class _CountingPredictor:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def predict(self, aug, target, k, kb):
        self.calls += 1
        return self.inner.predict(aug, target, k, kb)


@pytest.mark.parametrize("order", [ORDER_CONSTRAINT_FIRST, ORDER_STAT_FIRST])
def test_confirming_round_asks_the_predictor_nothing(kb, model, by_id, order):
    counting = _CountingPredictor(model)
    combined, trace = run(by_id["8746084"].snippet, kb, counting, RunConfig(order=order))
    assert len(trace) > 1 and check_stable(trace[-2], trace[-1])
    # a round ranks its own constraint answers under constraint-first, and
    # the round before's (none before round 1) under stat-first; the
    # confirming round's were ranked before, and each distinct ranking
    # asks the predictor once per element
    typed = [{}] + [rec.constraint_result.typed for rec in trace]
    ranked = typed[1:] if order == ORDER_CONSTRAINT_FIRST else typed[:-1]
    assert ranked[-1] in ranked[:-1]
    distinct = {frozenset(t.items()) for t in ranked}
    assert counting.calls == len(combined.per_element) * len(distinct)


class _SilentPredictor:
    def predict(self, aug, target, k, kb):
        return []


@pytest.mark.parametrize("order", [ORDER_CONSTRAINT_FIRST, ORDER_STAT_FIRST])
def test_k_zero_asks_the_predictor_nothing(kb, model, eval_items, order):
    # k=0 turns the ranker off: the trace is the one a predictor that
    # never names a candidate gives, and the predictor is never asked
    for item in eval_items:
        counting = _CountingPredictor(model)
        got, got_trace = run(item.snippet, kb, counting, RunConfig(k=0, order=order))
        want, want_trace = run(
            item.snippet, kb, _SilentPredictor(), RunConfig(k=1, order=order)
        )
        els = list(want.per_element)
        assert counting.calls == 0, item.snippet_id
        assert serialize_trace(got_trace, els) == serialize_trace(
            want_trace, els
        ), item.snippet_id
        assert got.per_element == want.per_element, item.snippet_id


@pytest.mark.parametrize("order", [ORDER_CONSTRAINT_FIRST, ORDER_STAT_FIRST])
def test_oscillation_solves_and_ranks_each_state_once(
    kb, model, by_id, order, monkeypatch
):
    calls = {"problems": 0, "solve": 0, "reduce_kb": 0}

    class CountedProblem(orchestrator.ConstraintProblem):
        def __init__(self, *args, **kw):
            calls["problems"] += 1
            super().__init__(*args, **kw)

        def solve(self, *args):
            calls["solve"] += 1
            return super().solve(*args)

    def counted_reduce(*args, _inner=orchestrator.reduce_kb):
        calls["reduce_kb"] += 1
        return _inner(*args)

    monkeypatch.setattr(orchestrator, "ConstraintProblem", CountedProblem)
    monkeypatch.setattr(orchestrator, "reduce_kb", counted_reduce)
    counting = _CountingPredictor(model)
    cfg = RunConfig(delta=10, order=order)
    combined, trace = run(by_id["9090901"].snippet, kb, counting, cfg)
    # one problem per run; each state of this oscillation solves under a
    # mask of its own size
    sizes = {rec.kb_size for rec in trace}
    assert calls == {
        "problems": 1, "solve": len(sizes), "reduce_kb": len(sizes - {len(kb)})
    }
    typed = [frozenset(rec.constraint_result.typed.items()) for rec in trace]
    # constraint first ranks each round's answers; stat first ranks the
    # previous round's, starting from no substitution at all
    if order == ORDER_STAT_FIRST:
        typed = [frozenset()] + typed[:-1]
    assert len(trace) == 10
    assert counting.calls == len(combined.per_element) * len(set(typed))
    assert counting.calls < len(combined.per_element) * len(trace)


def test_package_exports_the_public_names():
    import fqninfer

    assert fqninfer.__all__ == [
        "tokenize", "load_kb", "dump_kb", "load_model", "save_model",
        "dump_model", "train", "load_corpus", "load_truth", "training_pairs",
        "truth_elements",
        "identify_api_elements", "plain", "predict_all", "run", "RunConfig",
        "ORDER_CONSTRAINT_FIRST", "ORDER_STAT_FIRST",
        "serialize_trace", "infer_with_engine",
        "Predictor", "ExternalPredictor", "CooccurrenceModel",
        "score_snippet", "aggregate", "format_report",
        "KbError", "ModelFormatError", "TruthFormatError",
        "ApiElement", "KnowledgeBase",
    ]
    assert all(hasattr(fqninfer, name) for name in fqninfer.__all__)


def test_package_imports_only_the_standard_library():
    import fqninfer

    sources = sorted(Path(fqninfer.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name}: {name}"
