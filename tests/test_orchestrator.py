"""The iterative loop: stability, reduction, augmentation, combination."""

import pytest

from fqninfer import (
    ApiElement,
    ExtractOptions,
    ORDER_STAT_FIRST,
    RunConfig,
    infer_with_engine,
    run,
    serialize_trace,
    single_pass_stat,
)
from fqninfer.constraint import ConstraintResult
from fqninfer.orchestrator import RoundRecord, check_stable, combine
from fqninfer.snippet import ElementRole
from fqninfer.stat import CandidateList


def _el(name, idx):
    return ApiElement(name, 1, 1, idx, ElementRole.DECLARED_TYPE)


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
    # the edges themselves are valid: one round, and no statistical ranking
    RunConfig(k=0, delta=1)


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
    raw = single_pass_stat(item.snippet, kb, model, k=3)
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
    opts = ExtractOptions(cascaded_calls=True, strict_uniqueness=False)
    cfg = RunConfig(extract_options=opts)
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


def test_single_pass_stat_defaults_to_top_one(kb, model, by_id):
    preds = single_pass_stat(by_id["1318732"].snippet, kb, model)
    assert all(len(cl.ranked) <= 1 for cl in preds.values())


def test_infer_with_engine_shapes(kb, model, by_id):
    sn = by_id["8746084"].snippet
    for engine in ("constraint", "stat", "combined"):
        got = infer_with_engine(sn, kb, model, engine)
        assert all(isinstance(k, str) and "[" in k for k in got)
        assert all(isinstance(v, str) for v in got.values())


def test_infer_with_engine_rejects_unknown_name(kb, model, by_id):
    with pytest.raises(ValueError, match="unknown engine"):
        infer_with_engine(by_id["8746084"].snippet, kb, model, "oracle")


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


def test_package_exports_the_public_names():
    import fqninfer

    assert fqninfer.__all__ == [
        "tokenize", "load_kb", "dump_kb", "load_model", "save_model",
        "dump_model", "train", "load_corpus", "load_truth", "training_pairs",
        "truth_elements",
        "identify_api_elements", "plain", "predict_all", "run", "RunConfig",
        "ExtractOptions", "ORDER_CONSTRAINT_FIRST", "ORDER_STAT_FIRST",
        "serialize_trace", "infer_with_engine", "infer_snippet",
        "single_pass_stat",
        "Predictor", "ExternalPredictor", "CooccurrenceModel",
        "score_snippet", "aggregate", "format_report",
        "KbError", "ModelFormatError", "TruthFormatError",
        "ApiElement", "KnowledgeBase",
    ]
    assert all(hasattr(fqninfer, name) for name in fqninfer.__all__)
