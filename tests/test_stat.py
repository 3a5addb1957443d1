"""Co-occurrence model: windows, training, ranking, filtering, persistence."""

import math
import random
import sys
import time

import pytest

from fqninfer import (
    ApiElement,
    CooccurrenceModel,
    ExternalPredictor,
    KnowledgeBase,
    ModelFormatError,
    dump_model,
    identify_api_elements,
    load_model,
    plain,
    predict_all,
    save_model,
    tokenize,
    train,
    training_pairs,
)
from fqninfer.kb import TypeEntry
from fqninfer.snippet import AugmentError, augment
from fqninfer.stat import (
    CandidateList,
    context_window,
    filter_against_kb,
    predict_topk,
    score_candidate,
)


def _kb(*fqns):
    return KnowledgeBase(
        [TypeEntry(fqn=f, kind="class", library=f.split(".")[0]) for f in fqns]
    )


def _single_element(text, name):
    sn = tokenize(text)
    els = identify_api_elements(sn)
    return sn, next(e for e in els if e.simple_name == name)


# ---------------------------------------------------------------------------
# context windows


def test_window_respects_eta_lines():
    text = "far1\nnear1\nLabel target = mid;\nnear2\nfar2\n"
    sn, el = _single_element(text, "Label")
    assert context_window(plain(sn), el, 1) == ["near1", "target", "mid", "near2"]
    assert context_window(plain(sn), el, 2) == [
        "far1", "near1", "target", "mid", "near2", "far2",
    ]


def test_window_excludes_own_token_but_not_same_name():
    text = "Label a = new Label(b);"
    sn = tokenize(text)
    els = identify_api_elements(sn)
    window = context_window(plain(sn), els[0], 2)
    # the second Label occurrence stays: only the target's own token s out
    assert window == ["a", "Label", "b"]


def test_window_keeps_identifiers_and_literals_only():
    text = 'Label x = call("lit", 42); // comment with words\n'
    sn, el = _single_element(text, "Label")
    assert context_window(plain(sn), el, 2) == ["x", "call", '"lit"', "42"]


def test_window_sees_substituted_fqns():
    text = "Label a;\nButton b;\n"
    sn = tokenize(text)
    els = identify_api_elements(sn)
    label, button = els
    aug = augment(sn, {button: "com.x.Button"})
    assert context_window(aug, label, 2) == ["a", "com.x.Button", "b"]


# ---------------------------------------------------------------------------
# training


def _toy_corpus():
    sn = tokenize("Label a = fill(Button.MODE);\n")
    els = identify_api_elements(sn)
    label = next(e for e in els if e.simple_name == "Label")
    button = next(e for e in els if e.simple_name == "Button")
    truth = {label: "com.x.Label", button: "com.y.Button"}
    return sn, label, button, truth


def test_train_counts_leave_one_out():
    sn, label, button, truth = _toy_corpus()
    model = train([(sn, truth)])
    # Label's window saw Button substituted by its FQN, not the raw name
    assert model.counts[("com.y.Button", "com.x.Label")] == 1
    assert ("Button", "com.x.Label") not in model.counts
    # and symmetrically
    assert model.counts[("com.x.Label", "com.y.Button")] == 1


def test_train_totals_are_count_sums():
    sn, label, button, truth = _toy_corpus()
    model = train([(sn, truth)])
    for fqn in ("com.x.Label", "com.y.Button"):
        manual = sum(n for (_, f), n in model.counts.items() if f == fqn)
        assert model.fqn_totals[fqn] == manual


def test_train_keeps_fqn_with_empty_window():
    sn = tokenize("Label a;")
    els = identify_api_elements(sn)
    model = train([(sn, {els[0]: "com.x.Label"})], eta=0)
    # eta=0 window holds only same-line tokens; 'a' is one, so drop to a
    # bare line to observe the empty case
    lone = tokenize("Label x;\n\n\nother;\n")
    lone_els = identify_api_elements(lone)
    model2 = train([(lone, {lone_els[0]: "com.x.Label"})], eta=0)
    assert "com.x.Label" in model2.fqn_totals
    assert model2.fqn_totals["com.x.Label"] >= 0


def _reference_train(corpus, eta=2, alpha=1.0):
    """The per-element leave-one-out loop: one augmentation per truth
    element, with every other truth element substituted."""
    counts, totals, vocabulary = {}, {}, set()
    for snippet, truth in corpus:
        for e, fqn in truth.items():
            others = {o: f for o, f in truth.items() if o != e}
            aug = augment(snippet, others)
            totals.setdefault(fqn, 0)
            for tok in context_window(aug, e, eta):
                counts[(tok, fqn)] = counts.get((tok, fqn), 0) + 1
                totals[fqn] += 1
                vocabulary.add(tok)
    return CooccurrenceModel(counts, totals, vocabulary, alpha, eta)


def _assert_same_model(got, want):
    assert list(got.counts.items()) == list(want.counts.items())
    assert list(got.fqn_totals.items()) == list(want.fqn_totals.items())
    assert got.vocabulary == want.vocabulary
    assert dump_model(got) == dump_model(want)


_NAMES = ("Label", "Button", "Panel")
_FQNS = tuple(f"{lib}.{name}" for lib in ("a", "b") for name in _NAMES)
_LINE_SHAPES = (
    "{0} v{i} = new {1}();",
    "{0} v{i} = {1}.of(v{j}, {2}.MODE);",
    "call(new {0}(), new {1}(\"s{i}\"), {2}.X);",
    "v{i}.run({0}.get({j}));",
    "other{i} = {0}.NONE + {1}.NONE + {0}.ALL;",
    "",
)


def _generated_corpus(rng, count):
    """Seeded snippets whose truth maps label 1 to 20 elements: repeated
    names, several occurrences on one line, and FQNs that may disagree
    with the element's name."""
    corpus = []
    while len(corpus) < count:
        lines = []
        for i in range(rng.randint(1, 9)):
            shape = rng.choice(_LINE_SHAPES)
            names = [rng.choice(_NAMES) for _ in range(3)]
            lines.append(shape.format(*names, i=i, j=rng.randint(0, 9)))
        sn = tokenize("\n".join(lines) + "\n")
        els = identify_api_elements(sn)
        if not els:
            continue
        chosen = rng.sample(els, rng.randint(1, min(20, len(els))))
        corpus.append((sn, {e: rng.choice(_FQNS) for e in chosen}))
    return corpus


@pytest.mark.parametrize("eta", [0, 1, 2, 3])
def test_train_matches_per_element_reference_on_fixtures(train_items, eta):
    corpus = training_pairs(train_items)
    _assert_same_model(train(corpus, eta=eta), _reference_train(corpus, eta=eta))


def test_train_matches_per_element_reference_on_generated_snippets():
    rng = random.Random(6)
    corpus = _generated_corpus(rng, 300)
    sizes = {len(truth) for _, truth in corpus}
    assert 1 in sizes and max(sizes) == 20
    for eta in range(4):
        _assert_same_model(train(corpus, eta=eta), _reference_train(corpus, eta=eta))
    # one snippet at a time, so each model holds only that snippet's counts
    for pair in corpus:
        eta = rng.randint(0, 3)
        _assert_same_model(train([pair], eta=eta), _reference_train([pair], eta=eta))


def _repeated_labels(times):
    sn = tokenize("Label a = new Label();\n" * times)
    return sn, {e: "com.x.Label" for e in identify_api_elements(sn)}


def test_train_is_linear_in_snippet_size():
    # 1,600 labelled elements over 10.4k tokens; one augmentation per
    # element took about 10 s (Python 3.11 on a 2-core VM)
    sn, truth = _repeated_labels(800)
    assert len(truth) == 1600
    start = time.perf_counter()
    train([(sn, truth)])
    assert time.perf_counter() - start < 2.0
    small = [_repeated_labels(100)]
    _assert_same_model(train(small), _reference_train(small))


def test_train_names_the_bad_key_of_a_larger_truth():
    sn = tokenize("Label a = new Button();\n")
    label, button = identify_api_elements(sn)
    wrong = ApiElement("Label", 1, 2, button.token_index)
    for truth in ({label: "com.x.Label", wrong: "com.x.Label"},
                  {wrong: "com.x.Label", button: "com.y.Button"},
                  {wrong: "com.x.Label"}):
        with pytest.raises(AugmentError, match=r"^Label\[1,2\]: token at index"):
            train([(sn, truth)])


def test_known_fqns_named_suffix_match():
    model = CooccurrenceModel(
        fqn_totals={"com.a.Label": 1, "org.b.Label": 1, "com.a.NotLabel": 1, "Label": 1}
    )
    assert model.known_fqns_named("Label") == ["Label", "com.a.Label", "org.b.Label"]


def test_score_candidate_matches_hand_computation():
    model = CooccurrenceModel(
        counts={("tok", "com.a.X"): 3},
        fqn_totals={"com.a.X": 3},
        vocabulary={"tok", "other"},
        smoothing_alpha=1.0,
    )
    got = score_candidate(model, ["tok", "unseen"], "com.a.X")
    denom = 3 + 1.0 * 2
    want = math.log((3 + 1) / denom) + math.log((0 + 1) / denom)
    assert got == pytest.approx(want)


def test_score_candidate_empty_model_is_minus_inf():
    model = CooccurrenceModel()
    assert score_candidate(model, ["a"], "com.a.X") == float("-inf")


# ---------------------------------------------------------------------------
# ranking


def _ranking_model():
    # totals are balanced (5 each) so the ctx evidence alone decides
    return CooccurrenceModel(
        counts={
            ("ctx", "com.a.Label"): 5,
            ("ctx", "org.b.Label"): 1,
            ("other", "org.b.Label"): 4,
        },
        fqn_totals={"com.a.Label": 5, "org.b.Label": 5, "net.c.Label": 0},
        vocabulary={"ctx", "other"},
    )


def test_predict_topk_orders_by_score():
    model = _ranking_model()
    sn, el = _single_element("Label x = ctx;", "Label")
    got = predict_topk(model, plain(sn), el, 5)
    assert [f for f, _ in got] == ["com.a.Label", "org.b.Label"]
    assert got[0][1] > got[1][1]


def test_predict_topk_drops_zero_evidence_candidates():
    model = _ranking_model()
    sn, el = _single_element("Label x = nothing_known;", "Label")
    assert predict_topk(model, plain(sn), el, 5) == []


def test_predict_topk_breaks_ties_lexicographically():
    model = CooccurrenceModel(
        counts={("ctx", "org.z.Same"): 2, ("ctx", "com.a.Same"): 2},
        fqn_totals={"org.z.Same": 2, "com.a.Same": 2},
        vocabulary={"ctx"},
    )
    sn, el = _single_element("Same x = ctx;", "Same")
    got = predict_topk(model, plain(sn), el, 5)
    assert [f for f, _ in got] == ["com.a.Same", "org.z.Same"]
    assert got[0][1] == got[1][1]


def test_predict_topk_nonpositive_k_empty():
    model = _ranking_model()
    sn, el = _single_element("Label x = ctx;", "Label")
    assert predict_topk(model, plain(sn), el, 0) == []
    assert predict_topk(model, plain(sn), el, -3) == []


def test_predict_topk_truncates():
    model = _ranking_model()
    sn, el = _single_element("Label x = ctx;", "Label")
    got = predict_topk(model, plain(sn), el, 1)
    assert [f for f, _ in got] == ["com.a.Label"]


# ---------------------------------------------------------------------------
# KB filtering


def test_filter_drops_unknown_and_keeps_order():
    kb = _kb("com.a.Label", "org.b.Label")
    got = filter_against_kb(
        [("zzz.Fake", 3.0), ("org.b.Label", 2.0), ("com.a.Label", 1.0)], kb, 3
    )
    assert got.ranked == ("org.b.Label", "com.a.Label")


def test_filter_accepts_scored_pairs():
    kb = _kb("com.a.Label")
    got = filter_against_kb([("com.a.Label", 0.5), ("zzz.Fake", 0.1)], kb, 3)
    assert got.ranked == ("com.a.Label",)


def test_filter_deduplicates():
    kb = _kb("com.a.Label")
    got = filter_against_kb([("com.a.Label", 2.0), ("com.a.Label", 1.0)], kb, 3)
    assert got.ranked == ("com.a.Label",)


def test_filter_truncates_to_k_survivors():
    kb = _kb("com.a.L", "com.b.L", "com.c.L")
    ranked = [("zzz.L", 4.0), ("com.a.L", 3.0), ("com.b.L", 2.0), ("com.c.L", 1.0)]
    got = filter_against_kb(ranked, kb, 2)
    assert got.ranked == ("com.a.L", "com.b.L")


def test_filter_nonpositive_k_empty():
    kb = _kb("com.a.L")
    assert filter_against_kb([("com.a.L", 1.0)], kb, 0).ranked == ()


def test_candidate_list_top_and_len():
    cl = CandidateList(("a.X", "b.X"))
    assert cl.top() == "a.X" and len(cl.ranked) == 2
    assert CandidateList(()).top() is None


def test_predict_all_survives_hallucinated_top_rank():
    # the model's best guess is absent from the KB; with k=1 the engine must
    # still emit the best KB-known candidate instead of going silent
    model = CooccurrenceModel(
        counts={("ctx", "zzz.fake.Label"): 9, ("ctx", "com.a.Label"): 1},
        fqn_totals={"zzz.fake.Label": 9, "com.a.Label": 1},
        vocabulary={"ctx"},
    )
    kb = _kb("com.a.Label")
    sn, el = _single_element("Label x = ctx;", "Label")
    got = predict_all(model, plain(sn), [el], kb, k=1)
    assert got[el].ranked == ("com.a.Label",)


def test_predict_all_keys_in_token_order():
    model = CooccurrenceModel(
        counts={("shared", "com.a.Label"): 1, ("shared", "com.b.Button"): 1},
        fqn_totals={"com.a.Label": 1, "com.b.Button": 1},
        vocabulary={"shared"},
    )
    kb = _kb("com.a.Label", "com.b.Button")
    sn = tokenize("Button b = shared;\nLabel l = shared;\n")
    els = identify_api_elements(sn)
    got = predict_all(model, plain(sn), list(reversed(els)), kb, k=3)
    assert [e.simple_name for e in got] == ["Button", "Label"]


# ---------------------------------------------------------------------------
# predictors


def test_model_predict_is_predict_topk():
    model = _ranking_model()
    sn, el = _single_element("Label x = ctx;", "Label")
    assert model.predict(plain(sn), el, 5) == predict_topk(model, plain(sn), el, 5)


def test_predict_all_takes_any_predictor():
    class Custom:
        def predict(self, aug, target, k):
            return [("zzz.Label", 2.0), ("com.a.Label", 1.0)][:k]

    kb = _kb("com.a.Label")
    sn, el = _single_element("Label x = ctx;", "Label")
    assert predict_all(Custom(), plain(sn), [el], kb, k=1)[el].ranked == ("com.a.Label",)


ECHO_PREDICTOR = r"""
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    name = req["target_key"].split("[")[0]
    k = req["k"]
    out = [f"mock.one.{name}", f"mock.two.{name}", f"zzz.{name}"][:k]
    print(json.dumps(out), flush=True)
"""


def test_external_predictor_line_protocol(tmp_path):
    script = tmp_path / "echo_predictor.py"
    script.write_text(ECHO_PREDICTOR, encoding="utf-8")
    sn, el = _single_element("Label x = ctx;", "Label")
    with ExternalPredictor([sys.executable, str(script)]) as pred:
        got = pred.predict(plain(sn), el, 2)
        assert [f for f, _ in got] == ["mock.one.Label", "mock.two.Label"]
        # rank-synthesized scores decrease monotonically
        assert got[0][1] > got[1][1]
        # and the process answers repeated requests on the same pipe
        again = pred.predict(plain(sn), el, 1)
        assert [f for f, _ in again] == ["mock.one.Label"]


def test_external_predictor_feeds_pipeline(tmp_path):
    script = tmp_path / "echo_predictor.py"
    script.write_text(ECHO_PREDICTOR, encoding="utf-8")
    kb = _kb("mock.two.Label")
    sn, el = _single_element("Label x = ctx;", "Label")
    with ExternalPredictor([sys.executable, str(script)]) as pred:
        got = predict_all(pred, plain(sn), [el], kb, k=2)
    assert got[el].ranked == ("mock.two.Label",)


# ---------------------------------------------------------------------------
# persistence


def test_model_round_trip(tmp_path):
    sn, label, button, truth = _toy_corpus()
    model = train([(sn, truth)], eta=3, alpha=0.5)
    path = tmp_path / "model.tsv"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.counts == model.counts
    assert loaded.fqn_totals == model.fqn_totals
    assert loaded.vocabulary == model.vocabulary
    assert loaded.smoothing_alpha == model.smoothing_alpha
    assert loaded.window_eta == model.window_eta
    assert dump_model(loaded) == dump_model(model)


def test_dump_escapes_awkward_tokens(tmp_path):
    model = CooccurrenceModel(
        counts={('"two\twords"', "com.a.X"): 1},
        fqn_totals={"com.a.X": 1},
        vocabulary={'"two\twords"'},
    )
    path = tmp_path / "model.tsv"
    save_model(model, path)
    assert load_model(path).counts == model.counts


def test_dump_keeps_zero_count_fqns(tmp_path):
    model = CooccurrenceModel(fqn_totals={"com.a.Quiet": 0})
    path = tmp_path / "model.tsv"
    save_model(model, path)
    assert load_model(path).fqn_totals == {"com.a.Quiet": 0}


def test_load_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("count\tx\tcom.a.X\t1\n", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="header"):
        load_model(path)


def test_load_rejects_bad_record(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("cooccurrence\talpha=1.0\teta=2\nwhat\tis\tthis\n", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="bad record"):
        load_model(path)


def test_load_rejects_nonpositive_count(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(
        'cooccurrence\talpha=1.0\teta=2\ncount\t"x"\tcom.a.X\t0\n', encoding="utf-8"
    )
    with pytest.raises(ModelFormatError, match="nonpositive"):
        load_model(path)


@pytest.mark.parametrize(
    "text, match",
    [
        ("cooccurrence\talpha=1.0\teta=x\n", "m.tsv:1: bad eta value 'x'"),
        ("cooccurrence\talpha=one\teta=2\n", "m.tsv:1: bad alpha value 'one'"),
        ('cooccurrence\teta=2\ncount\t"x"\tcom.a.X\tzz\n', "m.tsv:2: bad count record"),
        ("cooccurrence\teta=2\ncount\tx\tcom.a.X\t1\n", "m.tsv:2: bad count record"),
        ("cooccurrence\teta=2\ncount\t[1]\tcom.a.X\t2\n", "m.tsv:2: bad count record"),
        ("cooccurrence\teta=2\ncount\t5\tcom.a.X\t2\n", "m.tsv:2: bad count record"),
        ("cooccurrence\teta=2\ncount\t" + "[" * 100_000 + "\tcom.a.X\t2\n",
         "m.tsv:2: bad count record"),
        ("cooccurrence\talpha=0.0\teta=2\n", "m.tsv:1: bad alpha value 0.0"),
        ("cooccurrence\talpha=-1.5\teta=2\n", "m.tsv:1: bad alpha value -1.5"),
        ("cooccurrence\talpha=inf\teta=2\n", "m.tsv:1: bad alpha value inf"),
        ("cooccurrence\talpha=1.0\teta=-3\n", "m.tsv:1: bad eta value -3"),
        ('cooccurrence\teta=2\ncount\t"\udcff"\tcom.a.X\t1\n', "m.tsv:2: not UTF-8"),
    ],
    ids=["eta", "alpha", "count", "token", "token-list", "token-number",
         "token-deep", "alpha-zero", "alpha-negative", "alpha-inf",
         "eta-negative", "not-utf8"],
)
def test_load_rejects_bad_values_with_line(tmp_path, text, match):
    path = tmp_path / "m.tsv"
    # surrogate escapes stand for raw bytes that are not UTF-8
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ModelFormatError, match=match):
        load_model(path)


def test_trained_fixture_model_knows_only_trained_fqns(model):
    # the bundled trainers never teach the decoy libraries, so the model
    # must not be able to hallucinate them
    assert model.known_fqns_named("Composite") == ["android.widget.Composite"]
    assert "cc.argonaut.convert.Converter" not in model.fqn_totals
    assert "com.ibm.icu.math.BigDecimal" not in model.fqn_totals
