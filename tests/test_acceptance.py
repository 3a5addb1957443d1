"""End-to-end checks against the bundled corpus, model, and knowledge base.

Each test covers one headline behavior of the combined pipeline, asserts a
hard runtime budget, and prints a single PASS line (visible with -s, and in
the failure report otherwise).
"""

import time

import fqninfer as fq

import test_properties

_UI = "com.google.gwt.user.client.ui."


def _answers(snippet, kb, model, engine):
    return fq.infer_with_engine(snippet, kb, model, engine, fq.RunConfig())


def _done(t0, limit, name, detail):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{name} took {elapsed:.2f}s (budget {limit}s)"
    print(f"PASS {name}: {detail} ({elapsed:.2f}s < {limit}s)")


def test_single_snippet_score_parity(kb, model, by_id):
    """The two engines reproduce the reference per-snippet scores exactly."""
    t0 = time.perf_counter()
    gwt = by_id["1318732"]
    joda = by_id["8746084"]

    cons = fq.score_snippet(_answers(gwt.snippet, kb, None, "constraint"), gwt.truth)
    assert (cons.correct, cons.inferred, cons.requested) == (1, 1, 5)
    assert (cons.precision, cons.recall) == (1.0, 0.2)

    stat1 = fq.score_snippet(_answers(gwt.snippet, kb, model, "stat"), gwt.truth)
    assert (stat1.correct, stat1.inferred, stat1.requested) == (4, 5, 5)
    assert (stat1.precision, stat1.recall) == (0.8, 0.8)

    stat2 = fq.score_snippet(_answers(joda.snippet, kb, model, "stat"), joda.truth)
    assert (stat2.correct, stat2.inferred, stat2.requested) == (1, 4, 4)
    assert (stat2.precision, stat2.recall) == (0.25, 0.25)

    _done(
        t0, 1,
        "score parity",
        "constraint 1.00/0.20 and stat 0.80/0.80 on 1318732; stat 0.25/0.25 on 8746084",
    )


def test_per_element_result_tables(kb, model, by_id):
    """Per-element answers and abstentions match the reference tables."""
    t0 = time.perf_counter()
    gwt = by_id["1318732"]
    assert _answers(gwt.snippet, kb, None, "constraint") == {
        "Composite[1,1]": _UI + "Composite",
    }
    assert _answers(gwt.snippet, kb, model, "stat") == {
        "Composite[1,1]": "android.widget.Composite",
        "VerticalSplitPanel[3,1]": _UI + "VerticalSplitPanel",
        "VerticalSplitPanel[3,2]": _UI + "VerticalSplitPanel",
        "HTML[9,1]": _UI + "HTML",
        "HTML[10,1]": _UI + "HTML",
    }

    joda = by_id["8746084"]
    assert _answers(joda.snippet, kb, None, "constraint") == {
        "DateTimeFormatter[1,1]": "org.joda.time.format.DateTimeFormatter",
        "DateTimeFormat[1,1]": "org.joda.time.format.DateTimeFormat",
        "DateTime[2,1]": "org.joda.time.DateTime",
        "LocalDate[3,1]": "org.joda.time.LocalDate",
    }
    assert _answers(joda.snippet, kb, model, "stat") == {
        "DateTimeFormatter[1,1]": "java.text.DateTimeFormatter",
        "DateTimeFormat[1,1]": "java.text.DateTimeFormat",
        "DateTime[2,1]": "org.joda.time.DateTime",
        "LocalDate[3,1]": "java.time.LocalDate",
    }
    _done(t0, 5, "result tables", "all rows and abstentions on 1318732 and 8746084")


def test_engines_promote_each_other(kb, model, by_id):
    """Each engine's output provably fixes the other's mistake."""
    t0 = time.perf_counter()

    # Augmentation direction: the statistical engine ranks Document wrong on
    # the raw snippet and right once constraint answers pad its context.
    item = by_id["3954392"]
    elements = fq.identify_api_elements(item.snippet, kb)
    doc = next(e for e in elements if e.key == "Document[7,1]")
    correct = "com.google.gwt.dom.client.Document"
    before = fq.predict_all(model, fq.plain(item.snippet), elements, kb, 3)[doc]
    assert before.ranked[:1] != (correct,)
    combined, trace = fq.run(item.snippet, kb, model, fq.RunConfig(), elements=elements)
    assert trace[0].stat_result[doc].ranked[:1] == (correct,)
    assert combined.per_element[doc].final_fqn == correct

    # Reduction direction: committed chain constraints pick a look-alike
    # library on the full KB; statistical reduction removes it.
    item2 = by_id["39005622"]
    config = fq.RunConfig(cascaded_calls=True, strict_uniqueness=False)
    _, trace2 = fq.run(item2.snippet, kb, model, config)
    first = trace2[0].constraint_result.typed
    assert first and all(f.startswith("cc.argonaut.") for f in first.values())
    last = trace2[-1].constraint_result.typed
    assert {e.key: f for e, f in last.items()} == dict(item2.truth.truth)
    assert trace2[-1].kb_size < len(kb)

    _done(
        t0, 5,
        "mutual promotion",
        "augmentation flips Document[7,1]; reduction flips all of 39005622",
    )


def test_combined_engine_dominates(kb, model, eval_items):
    """Combined recall beats both single engines, per snippet and overall."""
    t0 = time.perf_counter()
    assert len(eval_items) >= 12
    assert len({item.library for item in eval_items}) >= 4

    scores = {"combined": [], "constraint": [], "stat": []}
    for item in eval_items:
        recalls = {}
        for engine in scores:
            answers = _answers(item.snippet, kb, model, engine)
            score = fq.score_snippet(answers, item.truth, lenient=True)
            scores[engine].append(score)
            recalls[engine] = score.recall
        assert recalls["combined"] >= max(
            recalls["constraint"], recalls["stat"]
        ), item.snippet_id

    overall = {
        engine: fq.aggregate(engine_scores)[1].recall
        for engine, engine_scores in scores.items()
    }
    assert overall["combined"] > overall["constraint"]
    assert overall["combined"] > overall["stat"]
    _done(
        t0, 30,
        "combined dominance",
        "overall recall {combined:.4f} > constraint {constraint:.4f} "
        "and stat {stat:.4f}".format(**overall),
    )


def test_loop_convergence(kb, model, eval_items):
    """Runs stay within ten rounds and almost all stabilize by round three."""
    t0 = time.perf_counter()
    lengths = {}
    for item in eval_items:
        _, trace = fq.run(item.snippet, kb, model, fq.RunConfig())
        lengths[item.snippet_id] = len(trace)
    assert all(n <= 10 for n in lengths.values())
    early = sum(1 for n in lengths.values() if n <= 3)
    assert early / len(lengths) >= 0.9
    assert lengths["9090901"] == 10  # the engineered oscillator never settles
    _done(
        t0, 30,
        "convergence",
        f"max {max(lengths.values())} rounds, {early}/{len(lengths)} stable "
        "by round 3, oscillator capped at 10",
    )


def test_top_k_insensitivity(kb, model, eval_items):
    """Final per-element answers do not depend on k."""
    t0 = time.perf_counter()
    finals = {}
    for k in (1, 3, 5, 10):
        config = fq.RunConfig(k=k)
        for item in eval_items:
            combined, trace = fq.run(item.snippet, kb, model, config)
            shaped = {
                e.key: ce.final_fqn for e, ce in combined.per_element.items()
            }
            finals.setdefault(item.snippet_id, {})[k] = shaped
            if k >= 3:
                for rec in trace:
                    for cl in rec.stat_result.values():
                        assert len(cl.ranked) <= 2, item.snippet_id
    for sid, per_k in finals.items():
        for k in (3, 5, 10):
            assert per_k[k] == per_k[1], (sid, k)
    _done(
        t0, 60,
        "top-k insensitivity",
        f"identical answers for k in (1, 3, 5, 10) on {len(finals)} snippets",
    )


def test_randomized_suites_within_budget(tmp_path, call_seconds, kb, model):
    """All randomized invariant suites fit the shared time budget.

    A suite that already passed in this session counts with the time its
    test took; only the others run here."""
    suites = [
        (test_properties.test_kb_reduction_properties, (tmp_path,)),
        (test_properties.test_lossless_lexing_roundtrip, ()),
        (test_properties.test_augmentation_alignment, ()),
        (test_properties.test_solver_matches_bruteforce_oracle, ()),
        (test_properties.test_solver_matches_oracle_on_dense_links, ()),
        (test_properties.test_search_matches_the_search_it_replaced, ()),
        (test_properties.test_mutated_snippets_end_in_answers_or_one_error_line, (kb, model)),
        (test_properties.test_combination_invariants, ()),
        (test_properties.test_aggregate_permutation_invariance, ()),
        (test_properties.test_full_answer_precision_equals_recall, ()),
        (test_properties.test_stat_score_dominance, ()),
    ]
    recorded = sum(call_seconds.get(suite, 0.0) for suite, _ in suites)
    t0 = time.perf_counter() - recorded
    for suite, args in suites:
        if suite not in call_seconds:
            suite(*args)
    _done(t0, 120, "randomized suites", "11 suites, 1000+ cases each")


def test_stat_first_order_recall(kb, model, eval_items):
    """Leading with the statistical engine never improves overall recall."""
    t0 = time.perf_counter()

    def overall_recall(order):
        scores = []
        for item in eval_items:
            combined, _ = fq.run(item.snippet, kb, model, fq.RunConfig(order=order))
            scores.append(fq.score_snippet(combined.answers(), item.truth, lenient=True))
        return fq.aggregate(scores)[1].recall

    default = overall_recall(fq.ORDER_CONSTRAINT_FIRST)
    swapped = overall_recall(fq.ORDER_STAT_FIRST)
    assert swapped <= default
    _done(
        t0, 30,
        "order swap",
        f"stat-first recall {swapped:.4f} <= constraint-first {default:.4f}",
    )
