"""Co-occurrence model: windows, training, ranking, filtering, persistence."""

import hashlib
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
    RunConfig,
    dump_model,
    identify_api_elements,
    load_model,
    plain,
    predict_all,
    run,
    save_model,
    tokenize,
    train,
    training_pairs,
)
from fqninfer.kb import TypeEntry
from fqninfer.snippet import AugmentError, augment
from fqninfer.stat import (
    CandidateList,
    _score,
    context_window,
    filter_against_kb,
    predict_topk,
)


def _rows(counts):
    """The count rows {fqn: {token: n}} of a {(token, fqn): n} dict, filled
    in the dict's order."""
    rows = {}
    for (tok, fqn), n in counts.items():
        rows.setdefault(fqn, {})[tok] = n
    return rows


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
    assert model.rows["com.x.Label"]["com.y.Button"] == 1
    assert "Button" not in model.rows["com.x.Label"]
    # and symmetrically
    assert model.rows["com.y.Button"]["com.x.Label"] == 1


def test_train_totals_are_count_sums():
    sn, label, button, truth = _toy_corpus()
    model = train([(sn, truth)])
    for fqn in ("com.x.Label", "com.y.Button"):
        manual = sum(model.rows[fqn].values())
        assert model.fqn_totals[fqn] == manual


def test_train_keeps_fqn_with_empty_window():
    # an eta 0 window holds only same-line words, and this line has none
    # but the element's own
    sn = tokenize("new Label();\n\nother;\n")
    (label,) = identify_api_elements(sn)
    assert context_window(plain(sn), label, 0) == []
    model = train([(sn, {label: "com.x.Label"})], eta=0)
    assert model.fqn_totals == {"com.x.Label": 0}
    assert model.rows == {}
    assert model.known_fqns_named("Label") == ("com.x.Label",)


def _reference_train(corpus, eta=2, alpha=1.0):
    """The per-element leave-one-out loop: one augmentation per truth
    element, with every other truth element substituted."""
    rows, totals, vocabulary = {}, {}, set()
    for snippet, truth in corpus:
        for e, fqn in truth.items():
            others = {o: f for o, f in truth.items() if o != e}
            aug = augment(snippet, others)
            totals.setdefault(fqn, 0)
            for tok in context_window(aug, e, eta):
                row = rows.setdefault(fqn, {})
                row[tok] = row.get(tok, 0) + 1
                totals[fqn] += 1
                vocabulary.add(tok)
    return CooccurrenceModel(rows, totals, vocabulary, alpha, eta)


def _row_items(model):
    """Every row and count in insertion order."""
    return [(fqn, list(row.items())) for fqn, row in model.rows.items()]


def _assert_same_model(got, want):
    assert _row_items(got) == _row_items(want)
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
    assert model.known_fqns_named("Label") == ("Label", "com.a.Label", "org.b.Label")


def test_score_candidate_matches_hand_computation():
    model = CooccurrenceModel(
        rows=_rows({("tok", "com.a.X"): 3}),
        fqn_totals={"com.a.X": 3},
        vocabulary={"tok", "other"},
        smoothing_alpha=1.0,
    )
    got = _score(model, ["tok", "unseen"], "com.a.X")
    denom = 3 + 1.0 * 2
    want = math.log((3 + 1) / denom) + math.log((0 + 1) / denom)
    assert got == pytest.approx(want)


def test_score_candidate_empty_model_is_minus_inf():
    model = CooccurrenceModel()
    assert _score(model, ["a"], "com.a.X") == float("-inf")


# ---------------------------------------------------------------------------
# ranking


def _ranking_model():
    # totals are balanced (5 each) so the ctx evidence alone decides
    return CooccurrenceModel(
        rows=_rows({
            ("ctx", "com.a.Label"): 5,
            ("ctx", "org.b.Label"): 1,
            ("other", "org.b.Label"): 4,
        }),
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
        rows=_rows({("ctx", "org.z.Same"): 2, ("ctx", "com.a.Same"): 2}),
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
    assert cl.ranked == ("a.X", "b.X")
    assert CandidateList(()).ranked == ()


def test_predict_all_survives_hallucinated_top_rank():
    # the model's best guess is absent from the KB; with k=1 the engine must
    # still emit the best KB-known candidate instead of going silent
    model = CooccurrenceModel(
        rows=_rows({("ctx", "zzz.fake.Label"): 9, ("ctx", "com.a.Label"): 1}),
        fqn_totals={"zzz.fake.Label": 9, "com.a.Label": 1},
        vocabulary={"ctx"},
    )
    kb = _kb("com.a.Label")
    sn, el = _single_element("Label x = ctx;", "Label")
    got = predict_all(model, plain(sn), [el], kb, k=1)
    assert got[el].ranked == ("com.a.Label",)


def test_predict_all_keeps_a_kb_type_that_many_hallucinations_outrank():
    # five model FQNs outside the KB outrank its one Label; a fetch of
    # k + len(kb) = 4 ranked FQNs once stopped before reaching it
    rows = {f"x{i}.Label": {"ctx": 9} for i in range(5)}
    rows["com.a.Label"] = {"ctx": 1, "other": 20}
    model = CooccurrenceModel(
        rows=rows,
        fqn_totals={fqn: sum(row.values()) for fqn, row in rows.items()},
        vocabulary={"ctx", "other"},
    )
    kb = KnowledgeBase([TypeEntry(fqn="com.a.Label", kind="class", library="a")])
    sn, el = _single_element("Label x = ctx;", "Label")
    assert predict_all(model, plain(sn), [el], kb, k=3)[el].ranked == ("com.a.Label",)


def test_predict_all_keys_in_token_order():
    model = CooccurrenceModel(
        rows=_rows({("shared", "com.a.Label"): 1, ("shared", "com.b.Button"): 1}),
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
    kb = _kb("com.a.Label", "org.b.Label")
    sn, el = _single_element("Label x = ctx;", "Label")
    assert model.predict(plain(sn), el, 5, kb) == predict_topk(
        model, plain(sn), el, 5, kb
    )


def test_predict_all_takes_any_predictor():
    class Custom:
        def predict(self, aug, target, k, kb):
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
        got = pred.predict(plain(sn), el, 2, _kb())
        assert [f for f, _ in got] == ["mock.one.Label", "mock.two.Label"]
        # rank-synthesized scores decrease monotonically
        assert got[0][1] > got[1][1]
        # and the process answers repeated requests on the same pipe
        again = pred.predict(plain(sn), el, 1, _kb())
        assert [f for f, _ in again] == ["mock.one.Label"]


LINE_PREDICTOR = r"""
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    number = int(req["target_key"].split("[")[1].split(",")[0])
    print(json.dumps([req["context_lines"][number - 1]]), flush=True)
"""


def test_external_predictor_context_lines_match_key_lines(tmp_path):
    # keys count lines at "\n" alone: a form feed, "\x85" or "\u2028" inside
    # a line does not end it
    script = tmp_path / "line_predictor.py"
    script.write_text(LINE_PREDICTOR, encoding="utf-8")
    text = "Label a;\f Button b = new Button();\nDocument d;\x85 e;\u2028\n"
    sn = tokenize(text)
    els = identify_api_elements(sn)
    keys = ["Label[1,1]", "Button[1,1]", "Button[1,2]", "Document[2,1]"]
    assert [e.key for e in els] == keys
    with ExternalPredictor([sys.executable, str(script)]) as pred:
        for e in els:
            got = pred.predict(plain(sn), e, 1, _kb())
            assert [f for f, _ in got] == [text.split("\n")[e.line - 1]], e.key


def test_external_predictor_feeds_pipeline(tmp_path):
    script = tmp_path / "echo_predictor.py"
    script.write_text(ECHO_PREDICTOR, encoding="utf-8")
    kb = _kb("mock.two.Label")
    sn, el = _single_element("Label x = ctx;", "Label")
    with ExternalPredictor([sys.executable, str(script)]) as pred:
        got = predict_all(pred, plain(sn), [el], kb, k=2)
    assert got[el].ranked == ("mock.two.Label",)


def test_external_predictor_close_kills_a_child_that_outlives_its_input(tmp_path):
    # answers one request, then keeps running after its input ends
    script = tmp_path / "lingering_predictor.py"
    script.write_text(
        "import sys, time\n"
        "sys.stdin.readline()\n"
        "print('[]', flush=True)\n"
        "sys.stdin.read()\n"
        "time.sleep(60)\n",
        encoding="utf-8",
    )
    sn, el = _single_element("Label x = ctx;", "Label")
    pred = ExternalPredictor([sys.executable, str(script)], timeout=0.5)
    assert pred.predict(plain(sn), el, 1, _kb()) == []
    proc = pred._proc
    pred.close()  # one wait of the deadline for the child, then a kill
    assert proc.poll() is not None
    assert proc.returncode < 0  # stopped by a signal, not exited
    assert proc.stdout.closed
    assert pred._proc is None


def test_external_predictor_that_never_answers_is_an_error_within_the_deadline(tmp_path):
    # reads the request, then stays silent far beyond the deadline
    script = tmp_path / "silent_predictor.py"
    script.write_text(
        "import sys, time\n"
        "sys.stdin.readline()\n"
        "time.sleep(60)\n",
        encoding="utf-8",
    )
    sn, el = _single_element("Label x = ctx;", "Label")
    pred = ExternalPredictor([sys.executable, str(script)], timeout=0.5)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match=r"^external predictor gave no answer within 0\.5 s$"):
        pred.predict(plain(sn), el, 1, _kb())
    assert time.monotonic() - started < 10
    proc = pred._proc
    assert proc.returncode is not None  # killed, so no late answer is read
    with pytest.raises(RuntimeError, match="^external predictor exited with status"):
        pred.predict(plain(sn), el, 1, _kb())
    pred.close()
    assert proc.stdout.closed
    assert pred._proc is None


def test_external_predictor_that_never_reads_is_an_error_within_the_deadline(tmp_path):
    # never reads its input, so a request larger than the pipe buffer
    # cannot be written in full
    script = tmp_path / "sleeping_predictor.py"
    script.write_text("import time\ntime.sleep(60)\n", encoding="utf-8")
    padding = "".join(f"// {'x' * 100}\n" for _ in range(1000))  # past 64 KiB
    sn, el = _single_element(padding + "Label x = ctx;", "Label")
    pred = ExternalPredictor([sys.executable, str(script)], timeout=0.5)
    started = time.monotonic()
    with pytest.raises(
        RuntimeError, match=r"^external predictor did not read its request within 0\.5 s$"
    ):
        pred.predict(plain(sn), el, 1, _kb())
    assert time.monotonic() - started < 10
    proc = pred._proc
    assert proc.returncode is not None  # killed, so it reads no stale request
    pred.close()
    assert proc.stdin.closed and proc.stdout.closed


def test_external_predictor_answer_already_read_does_not_wait(tmp_path):
    # answers the first request with two lines at once, then falls silent
    script = tmp_path / "eager_predictor.py"
    script.write_text(
        "import sys, time\n"
        "sys.stdin.readline()\n"
        "sys.stdout.write('[\"a.Label\"]\\n[\"b.Label\"]\\n')\n"
        "sys.stdout.flush()\n"
        "time.sleep(60)\n",
        encoding="utf-8",
    )
    sn, el = _single_element("Label x = ctx;", "Label")
    with ExternalPredictor([sys.executable, str(script)], timeout=5) as pred:
        assert pred.predict(plain(sn), el, 1, _kb()) == [("a.Label", 1.0)]
        # the child never reads this request, but its answer was read
        # with the first one
        assert pred.predict(plain(sn), el, 1, _kb()) == [("b.Label", 1.0)]
        proc = pred._proc
        assert proc.poll() is None
        proc.kill()


def test_external_predictor_that_closed_its_input_is_an_error(tmp_path):
    # answers one request after closing its input, then lingers briefly
    script = tmp_path / "deaf_predictor.py"
    script.write_text(
        "import json, os, sys, time\n"
        "sys.stdin.readline()\n"
        "os.close(0)\n"
        "print(json.dumps(['a.X']), flush=True)\n"
        "time.sleep(0.5)\n",
        encoding="utf-8",
    )
    sn, el = _single_element("Label x = ctx;", "Label")
    pred = ExternalPredictor([sys.executable, str(script)])
    assert pred.predict(plain(sn), el, 1, _kb()) == [("a.X", 1.0)]
    proc = pred._proc
    with pytest.raises(RuntimeError, match="^external predictor closed its input"):
        pred.predict(plain(sn), el, 1, _kb())
    pred.close()  # the broken pipe does not stop close(): the child is reaped
    assert proc.returncode == 0
    assert proc.stdin.closed and proc.stdout.closed
    assert pred._proc is None


@pytest.mark.parametrize(
    "body, match",
    [
        # answers every request with an object
        ("for line in sys.stdin:\n    print('{}', flush=True)\n",
         "must answer a JSON array"),
        # reads the request and exits without answering
        ("sys.stdin.readline()\n", "closed its output stream"),
        # answers with a line that is not JSON
        ("for line in sys.stdin:\n    print('[\"a.Label\"', flush=True)\n",
         "^external predictor must answer a JSON array$"),
        # answers with an array nested past the parser's recursion limit
        ("for line in sys.stdin:\n    print('[' * 100000, flush=True)\n",
         "^external predictor must answer a JSON array$"),
        # answers with arrays whose entries are not all strings
        ("for line in sys.stdin:\n    print('[[\"a.Label\"]]', flush=True)\n",
         "^external predictor must answer an array of strings$"),
        ("for line in sys.stdin:\n    print('[\"a.Label\", 1e999]', flush=True)\n",
         "^external predictor must answer an array of strings$"),
    ],
    ids=["not-an-array", "no-answer", "not-json", "too-deep", "nested-array", "number"],
)
def test_external_predictor_out_of_protocol_is_an_error(tmp_path, body, match):
    script = tmp_path / "bad_predictor.py"
    script.write_text("import sys\n" + body, encoding="utf-8")
    sn, el = _single_element("Label x = ctx;", "Label")
    with ExternalPredictor([sys.executable, str(script)]) as pred:
        with pytest.raises(RuntimeError, match=match):
            pred.predict(plain(sn), el, 1, _kb())


@pytest.mark.parametrize(
    "command, timeout, match",
    [
        ("python3 predictor.py", 5, r"^bad command value 'python3 predictor\.py'$"),
        ([], 5, r"^bad command value \[\]$"),
        ([sys.executable, 1], 5, r"^bad command value \["),
        ([sys.executable], "5", r"^bad timeout value '5'$"),
        ([sys.executable], True, r"^bad timeout value True$"),
        ([sys.executable], 0, r"^bad timeout value 0$"),
        ([sys.executable], -1.5, r"^bad timeout value -1\.5$"),
        ([sys.executable], float("nan"), r"^bad timeout value nan$"),
        ([sys.executable], float("inf"), r"^bad timeout value inf$"),
        ([sys.executable], 10**400, r"^bad timeout value 1000"),
    ],
    ids=[
        "str-command", "empty-command", "non-str-argument", "str-timeout",
        "bool-timeout", "zero-timeout", "negative-timeout", "nan-timeout",
        "inf-timeout", "huge-int-timeout",
    ],
)
def test_external_predictor_refuses_bad_settings(command, timeout, match):
    # refused before any child starts: a bad timeout would fail each wait
    # and close(), leaving the child running
    with pytest.raises(ValueError, match=match):
        ExternalPredictor(command, timeout)


def test_external_predictor_that_exited_is_an_error(tmp_path):
    # answers one request, then exits with status 3
    script = tmp_path / "one_shot_predictor.py"
    script.write_text(
        "import sys\n"
        "sys.stdin.readline()\n"
        "print('[]', flush=True)\n"
        "sys.exit(3)\n",
        encoding="utf-8",
    )
    sn, el = _single_element("Label x = ctx;", "Label")
    with ExternalPredictor([sys.executable, str(script)]) as pred:
        assert pred.predict(plain(sn), el, 1, _kb()) == []
        first = pred._proc
        first.wait(timeout=30)
        with pytest.raises(RuntimeError, match="exited with status 3"):
            pred.predict(plain(sn), el, 1, _kb())
        assert pred._proc is first  # no second child was started
        pred.close()
        assert pred.predict(plain(sn), el, 1, _kb()) == []  # close() allows a new one
        assert pred._proc is not first


# ---------------------------------------------------------------------------
# persistence


def test_model_round_trip(tmp_path):
    sn, label, button, truth = _toy_corpus()
    model = train([(sn, truth)], eta=3, alpha=0.5)
    path = tmp_path / "model.tsv"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model
    assert loaded.rows == model.rows
    assert loaded.fqn_totals == model.fqn_totals
    assert loaded.vocabulary == model.vocabulary
    assert loaded.smoothing_alpha == model.smoothing_alpha
    assert loaded.window_eta == model.window_eta
    assert dump_model(loaded) == dump_model(model)


def test_dump_escapes_awkward_tokens(tmp_path):
    # a surrogate pair, lone surrogates and a low one before a high one
    # load back as written
    toks = ('"two\twords"', "\U0001F600", "\ud83d", "\udfff\ud800", "a\ud800b")
    model = CooccurrenceModel(
        rows=_rows({(tok, "com.a.X"): 1 for tok in toks}),
        fqn_totals={"com.a.X": len(toks)},
        vocabulary=set(toks),
    )
    path = tmp_path / "model.tsv"
    save_model(model, path)
    assert load_model(path).rows == model.rows


def test_dump_keeps_zero_count_fqns(tmp_path):
    model = CooccurrenceModel(fqn_totals={"com.a.Quiet": 0})
    path = tmp_path / "model.tsv"
    save_model(model, path)
    assert load_model(path).fqn_totals == {"com.a.Quiet": 0}


def test_dump_keeps_fqns_without_a_positive_count(tmp_path):
    # a stored zero writes no count record, so its FQN needs an fqn record
    model = CooccurrenceModel(
        rows=_rows({("t", "a.X"): 0, ("u", "b.Y"): 2}),
        fqn_totals={"a.X": 0, "b.Y": 2},
        vocabulary={"t", "u"},
    )
    path = tmp_path / "model.tsv"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.known_fqns_named("X") == ("a.X",)
    assert loaded.fqn_totals == {"a.X": 0, "b.Y": 2}
    assert loaded.rows == {"b.Y": {"u": 2}}


@pytest.mark.parametrize(
    "rows, totals, alpha, match",
    [
        # load_model reads a count with int() and a token as a JSON string
        ({"a.X": {"t": 1.5}}, {}, 1.0, r"count 1\.5 of 'a\.X' is not an int"),
        ({"a.X": {"t": True}}, {}, 1.0, r"count True of 'a\.X' is not an int"),
        ({"a.X": {"t": -0.5}}, {}, 1.0, r"count -0\.5 of 'a\.X' is not an int"),
        ({"a.X": {"t": "3"}}, {}, 1.0, r"count '3' of 'a\.X' is not an int"),
        ({"a.X": {5: 1}}, {}, 1.0, r"token 5 is not a str"),
        ({"a.X": {"t": 1, None: 2}}, {}, 1.0, r"token None is not a str"),
        # it splits records at tabs and reads with universal newlines
        ({"a.X\tY": {"t": 1}}, {}, 1.0, r"FQN 'a\.X\\tY' holds a tab or line break"),
        ({}, {"a.X\nY": 0}, 1.0, r"FQN 'a\.X\\nY' holds a tab or line break"),
        ({"a.X\r": {"t": 0}}, {}, 1.0, r"FQN 'a\.X\\r' holds a tab or line break"),
        ({5: {"t": 1}}, {}, 1.0, r"FQN 5 is not a str"),
        # it refuses a total or an alpha that float() cannot hold
        ({"a.X": {"a": 10**308, "b": 10**308, "c": -(10**308)}}, {}, 1.0,
         r"total count of 'a\.X' is beyond float range"),
        ({}, {}, 10**400, r"alpha is beyond float range"),
        # json.loads joins a high and a low surrogate escape into one character
        ({"a.X": {"\ud800\udfff": 1}}, {}, 1.0,
         r"token '\\ud800\\udfff' does not load back as itself"),
    ],
    ids=[
        "float-count", "bool-count", "negative-float-count", "str-count",
        "int-token", "none-token", "tab-fqn", "newline-total-fqn", "cr-fqn",
        "int-fqn", "total", "alpha", "surrogate-pair-token",
    ],
)
def test_dump_refuses_a_model_load_would_refuse(rows, totals, alpha, match):
    model = CooccurrenceModel(
        rows=rows, fqn_totals=totals, vocabulary=set(), smoothing_alpha=alpha
    )
    with pytest.raises(ValueError, match=f"^cannot dump model: {match}$"):
        dump_model(model)


# SHA-256 of dump_model(train(pairs, eta=e)) on the fixture training corpus,
# as the (token, fqn)-keyed count dict wrote them
_FIXTURE_DUMP_DIGESTS = {
    0: "a95cb334bfd4bc46b4e28a65643c86b98a470876db5b07088c9c9b55af8744b8",
    1: "b0c21328eb563621b4e9ae078df41fb9695497df6d192421384d235781b9da52",
    2: "9afd19457d5e54a12abade3b9750f67efd45d6a312b2b6c2d2308031d7860bcf",
    3: "72b3dd4abc036d930dea82e900e798f4f7035ceb838e4afb21e0526f337b6b75",
}


@pytest.mark.parametrize("eta", sorted(_FIXTURE_DUMP_DIGESTS))
def test_fixture_model_dumps_are_pinned(train_items, eta):
    text = dump_model(train(training_pairs(train_items), eta=eta))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == _FIXTURE_DUMP_DIGESTS[eta]


def test_trained_rows_are_never_empty_and_load_back_equal(tmp_path, train_items):
    # at eta 0 Label's window is empty, so its FQN has a total but no row
    sn = tokenize("new Label();\nnew Button(x);\n")
    truth = {e: f"com.x.{e.simple_name}" for e in identify_api_elements(sn)}
    corpora = [
        training_pairs(train_items),
        _generated_corpus(random.Random(16), 60),
        [(sn, truth)],
    ]
    path = tmp_path / "model.tsv"
    rowless = 0
    for corpus in corpora:
        for eta in range(4):
            model = train(corpus, eta=eta)
            assert all(model.rows.values()), eta
            assert set(model.rows) <= set(model.fqn_totals)
            rowless += len(model.fqn_totals) - len(model.rows)
            save_model(model, path)
            loaded = load_model(path)
            assert loaded == model, eta
            assert all(loaded.rows.values()), eta
    assert rowless > 0


def test_ranking_changes_no_model_equality_dump_or_repr(tmp_path, kb, train_items, eval_items):
    # the scoring memo fills as a model ranks, and is no part of its value
    trained = train(training_pairs(train_items))
    path = tmp_path / "model.tsv"
    save_model(trained, path)
    loaded = load_model(path)
    before = [(dump_model(m), repr(m)) for m in (trained, loaded)]
    for item in eval_items:
        run(item.snippet, kb, trained, RunConfig())
        aug = plain(item.snippet)
        for el in identify_api_elements(item.snippet):
            predict_topk(loaded, aug, el, 5)
    # the two models filled different memos: one ranked KB FQNs only
    assert trained._terms and loaded._terms
    assert trained._terms.keys() != loaded._terms.keys()
    assert trained == loaded
    assert [(dump_model(m), repr(m)) for m in (trained, loaded)] == before


@pytest.mark.parametrize(
    "alpha, eta, match",
    [
        (1.0, 1.5, "^bad eta value 1.5$"),
        (1.0, True, "^bad eta value True$"),
        (True, 2, "^bad alpha value True$"),
        ("1", 2, "^bad alpha value '1'$"),
    ],
    ids=["eta-float", "eta-bool", "alpha-bool", "alpha-str"],
)
def test_model_settings_must_be_numbers(alpha, eta, match):
    # a bool would pass the range checks as 0 or 1, and a string failed
    # them with a TypeError
    with pytest.raises(ValueError, match=match):
        CooccurrenceModel(smoothing_alpha=alpha, window_eta=eta)
    with pytest.raises(ValueError, match=match):
        train([], eta=eta, alpha=alpha)
    # an int alpha is a number
    assert CooccurrenceModel(smoothing_alpha=3).smoothing_alpha == 3


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


def test_load_rejects_a_total_beyond_float_range_that_hand_built_models_keep(
    tmp_path,
):
    # 10**308 fits a float, twice it does not
    counts = {("a", "com.a.X"): 10**308, ("b", "com.a.X"): 10**308}
    model = CooccurrenceModel(
        rows=_rows(counts), fqn_totals={"com.a.X": 2 * 10**308}, vocabulary={"a", "b"}
    )
    with pytest.raises(OverflowError):
        _score(model, ["a"], "com.a.X")
    # dump_model refuses to write such a model, so its file is written here
    with pytest.raises(
        ValueError, match=r"^cannot dump model: total count of 'com\.a\.X' is beyond"
    ):
        dump_model(model)
    path = tmp_path / "m.tsv"
    path.write_text(
        f'cooccurrence\teta=2\ncount\t"a"\tcom.a.X\t{10**308}\n'
        f'count\t"b"\tcom.a.X\t{10**308}\n',
        encoding="utf-8",
    )
    with pytest.raises(
        ModelFormatError, match=r"m\.tsv: total count of 'com\.a\.X' is beyond float range$"
    ):
        load_model(path)
    # a total at the edge of float range loads
    path.write_text(
        f'cooccurrence\teta=2\ncount\t"a"\tcom.a.X\t{int(sys.float_info.max)}\n',
        encoding="utf-8",
    )
    assert load_model(path).fqn_totals == {"com.a.X": int(sys.float_info.max)}


def test_load_ends_records_at_newline_only(tmp_path):
    # U+2028 and U+0085 are legal unescaped in a JSON string, and end a
    # line for str.splitlines
    path = tmp_path / "m.tsv"
    path.write_text(
        'cooccurrence\teta=2\ncount\t"a\u2028b\x85c"\tcom.a.X\t2\n', encoding="utf-8"
    )
    model = load_model(path)
    assert model.rows == {"com.a.X": {"a\u2028b\x85c": 2}}
    assert model.vocabulary == {"a\u2028b\x85c"}
    # a record after one holding a line separator keeps its line number
    path.write_text(
        'cooccurrence\teta=2\ncount\t"a\u2028b"\tcom.a.X\t2\nwhat\n', encoding="utf-8"
    )
    with pytest.raises(ModelFormatError, match="m.tsv:3: bad record 'what'"):
        load_model(path)


def test_trained_fixture_model_knows_only_trained_fqns(model):
    # the bundled trainers never teach the decoy libraries, so the model
    # must not be able to hallucinate them
    assert model.known_fqns_named("Composite") == ("android.widget.Composite",)
    assert "cc.argonaut.convert.Converter" not in model.fqn_totals
    assert "com.ibm.icu.math.BigDecimal" not in model.fqn_totals
