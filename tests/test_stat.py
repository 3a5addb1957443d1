"""Co-occurrence model: windows, training, ranking, filtering, persistence."""

import hashlib
import math
import random
import select
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
    assert model.rows == {"com.x.Label": {}}
    assert model.known_fqns_named("Label") == ("com.x.Label",)


def _reference_train(corpus, eta=2, alpha=1.0):
    """The per-element leave-one-out loop: one augmentation per truth
    element, with every other truth element substituted."""
    rows, vocabulary = {}, set()
    for snippet, truth in corpus:
        for e, fqn in truth.items():
            others = {o: f for o, f in truth.items() if o != e}
            aug = augment(snippet, others)
            row = rows.setdefault(fqn, {})
            for tok in context_window(aug, e, eta):
                row[tok] = row.get(tok, 0) + 1
                vocabulary.add(tok)
    return CooccurrenceModel(rows, vocabulary, alpha, eta)


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
    fqns = ("com.a.Label", "org.b.Label", "com.a.NotLabel", "Label")
    model = CooccurrenceModel(rows={fqn: {} for fqn in fqns})
    assert model.known_fqns_named("Label") == ("Label", "com.a.Label", "org.b.Label")


def test_score_candidate_matches_hand_computation():
    model = CooccurrenceModel(
        rows=_rows({("tok", "com.a.X"): 3}),
        vocabulary={"tok", "other"},
        smoothing_alpha=1.0,
    )
    got = _score(model, ["tok", "unseen"], "com.a.X")
    denom = 3 + 1.0 * 2
    want = math.log((3 + 1) / denom) + math.log((0 + 1) / denom)
    assert got == pytest.approx(want)


# ---------------------------------------------------------------------------
# ranking


def _ranking_model():
    # totals are balanced (5 each) so the ctx evidence alone decides
    rows = _rows({
        ("ctx", "com.a.Label"): 5,
        ("ctx", "org.b.Label"): 1,
        ("other", "org.b.Label"): 4,
    })
    rows["net.c.Label"] = {}
    return CooccurrenceModel(rows=rows, vocabulary={"ctx", "other"})


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
    model = CooccurrenceModel(rows=rows, vocabulary={"ctx", "other"})
    kb = KnowledgeBase([TypeEntry(fqn="com.a.Label", kind="class", library="a")])
    sn, el = _single_element("Label x = ctx;", "Label")
    assert predict_all(model, plain(sn), [el], kb, k=3)[el].ranked == ("com.a.Label",)


def test_predict_all_keys_in_token_order():
    model = CooccurrenceModel(
        rows=_rows({("shared", "com.a.Label"): 1, ("shared", "com.b.Button"): 1}),
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


K_PREDICTOR = r"""
import json, sys
for line in sys.stdin:
    print(json.dumps([f"sent.k{json.loads(line)['k']}"]), flush=True)
"""


def test_predict_all_asks_for_k_plus_the_kb_fqns_of_the_name(tmp_path):
    # the child answers with the k it was sent, spelled as an FQN the KB
    # holds; the KB holds 2 Labels among 12 types
    script = tmp_path / "k_predictor.py"
    script.write_text(K_PREDICTOR, encoding="utf-8")
    kb = _kb("com.a.Label", "org.b.Label", "com.a.Button",
             *(f"sent.k{n}" for n in range(1, 10)))
    sn, el = _single_element("Label x = ctx;", "Label")
    with ExternalPredictor([sys.executable, str(script)]) as pred:
        sent = [predict_all(pred, plain(sn), [el], kb, k)[el].ranked for k in (1, 3)]
    assert sent == [("sent.k3",), ("sent.k5",)]


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


@pytest.mark.parametrize(
    "action, match",
    [
        ("print('[\"b.Label\"]', flush=True)", "^external predictor wrote output out of turn$"),
        ("print('loading model', flush=True)", "^external predictor wrote output out of turn$"),
        ("os.close(1)", "^external predictor closed its output stream$"),
    ],
    ids=["early-answer", "unasked-line", "closed-output"],
)
def test_external_predictor_output_between_requests_is_an_error(tmp_path, action, match):
    # answers the first request; once that answer is read, writes the answer
    # to a request not yet sent, an unasked line, or closes its output; then
    # saves what else it reads
    go, seen = tmp_path / "go", tmp_path / "seen"
    script = tmp_path / "eager_predictor.py"
    script.write_text(
        "import os, sys, time\n"
        "sys.stdin.readline()\n"
        "print('[\"a.Label\"]', flush=True)\n"
        f"while not os.path.exists({str(go)!r}):\n"
        "    time.sleep(0.01)\n"
        f"{action}\n"
        f"open({str(seen)!r}, 'w').write(sys.stdin.read())\n",
        encoding="utf-8",
    )
    sn, el = _single_element("Label x = ctx;", "Label")
    pred = ExternalPredictor([sys.executable, str(script)])
    assert pred.predict(plain(sn), el, 1, _kb()) == [("a.Label", 1.0)]
    go.touch()
    assert select.select([pred._proc.stdout], [], [], 30)[0]  # the output is waiting
    with pytest.raises(RuntimeError, match=match):
        pred.predict(plain(sn), el, 1, _kb())
    pred.close()
    assert seen.read_text(encoding="utf-8") == ""  # the request was never written


def test_external_predictor_that_floods_its_output_is_killed_at_the_answer_bound(tmp_path):
    # writes 50 MB with no newline, then lingers
    script = tmp_path / "flooding_predictor.py"
    script.write_text(
        "import sys, time\n"
        "sys.stdin.readline()\n"
        "for _ in range(50):\n"
        "    sys.stdout.write('x' * 1000000)\n"
        "sys.stdout.flush()\n"
        "time.sleep(60)\n",
        encoding="utf-8",
    )
    sn, el = _single_element("Label x = ctx;", "Label")
    pred = ExternalPredictor([sys.executable, str(script)], timeout=30)
    started = time.monotonic()
    with pytest.raises(
        RuntimeError, match=r"^external predictor answer exceeds 16777216 bytes$"
    ):
        pred.predict(plain(sn), el, 1, _kb())
    proc = pred._proc
    pred.close()
    # killed, so close() neither read the rest nor waited out its deadline
    assert time.monotonic() - started < 10
    assert proc.returncode < 0 and pred._proc is None


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
        # answers with two lines at once
        ("for line in sys.stdin:\n    print('[\"a.Label\"]\\n[\"b.Label\"]', flush=True)\n",
         "^external predictor answered more than one line$"),
    ],
    ids=["not-an-array", "no-answer", "not-json", "too-deep", "nested-array", "number",
         "two-lines"],
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
        vocabulary=set(toks),
    )
    path = tmp_path / "model.tsv"
    save_model(model, path)
    assert load_model(path).rows == model.rows


def test_dump_keeps_zero_count_fqns(tmp_path):
    model = CooccurrenceModel(rows={"com.a.Quiet": {}})
    path = tmp_path / "model.tsv"
    save_model(model, path)
    assert load_model(path).fqn_totals == {"com.a.Quiet": 0}


def test_dump_keeps_fqns_without_a_positive_count(tmp_path):
    # an empty row writes no count record, so its FQN needs an fqn record
    model = CooccurrenceModel(rows={"a.X": {}, "b.Y": {"u": 2}}, vocabulary={"u"})
    assert dump_model(model).endswith('count\t"u"\tb.Y\t2\nfqn\ta.X\n')
    path = tmp_path / "model.tsv"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model
    assert loaded.known_fqns_named("X") == ("a.X",)
    assert loaded.fqn_totals == {"a.X": 0, "b.Y": 2}


_UNWRITABLE = "a tab, a line break or a surrogate"


@pytest.mark.parametrize(
    "rows, vocabulary, alpha, match",
    [
        # dump_model refuses what the constructor accepts and no file
        # carries: load_model reads a count with int(), and a file's
        # vocabulary is its written tokens
        ({"a.X": {"t": True}}, {"t"}, 1.0,
         r"cannot dump model: count True of 'a\.X' is not an int"),
        ({"a.X": {"t": 2}}, {"t", "v", "u"}, 1.0,
         r"cannot dump model: vocabulary token 'u' is in no row"),
        ({"a.X": {}}, {"t"}, 1.0, r"cannot dump model: vocabulary token 't' is in no row"),
        # the constructor refuses what no file gives back as itself: load_model
        # reads a token as a JSON string, which json.loads reads with a high
        # and a low surrogate escape joined into one character
        ({"a.X": {5: 1}}, {5}, 1.0, r"token 5 is not a str"),
        ({"a.X": {"t": 1, None: 2}}, {"t", None}, 1.0, r"token None is not a str"),
        ({"a.X": {"\ud800\udfff": 1}}, {"\ud800\udfff"}, 1.0,
         r"token '\\ud800\\udfff' does not load back as itself"),
        # it splits records at tabs, reads with universal newlines, and
        # reads UTF-8, which holds no surrogate
        ({"a.X\tY": {"t": 1}}, {"t"}, 1.0, r"FQN 'a\.X\\tY' holds " + _UNWRITABLE),
        ({"a.X\nY": {}}, set(), 1.0, r"FQN 'a\.X\\nY' holds " + _UNWRITABLE),
        ({"a.X\r": {"t": 1}}, {"t"}, 1.0, r"FQN 'a\.X\\r' holds " + _UNWRITABLE),
        ({5: {"t": 1}}, {"t"}, 1.0, r"FQN 5 is not a str"),
        ({"a.X": {}, "\udc80.X": {}}, set(), 1.0, r"FQN '\\udc80\.X' holds " + _UNWRITABLE),
        # the header writes alpha as a float, which cannot hold this int
        ({}, set(), 10**400, "bad alpha value 1" + "0" * 79),
        # nor this one exactly: its float is the largest, so alpha * |V|
        # overflows, where int arithmetic would not
        ({"a.X": {"t": 2}, "b.X": {"u": 1}}, {"t", "u"}, int(1.7976931348623157e308),
         r"bad alpha value 1\.7976931348623157e\+308"),
    ],
    ids=[
        "bool-count", "superset-vocabulary", "vocabulary-without-counts",
        "int-token", "none-token", "surrogate-pair-token", "tab-fqn",
        "newline-total-fqn", "cr-fqn", "int-fqn", "surrogate-fqn", "alpha",
        "alpha-over-written-tokens",
    ],
)
def test_dump_refuses_a_model_load_would_refuse(rows, vocabulary, alpha, match):
    # the constructor refuses all but the first three, so no such model is
    # ever dumped
    with pytest.raises(ValueError, match=f"^{match}$"):
        dump_model(CooccurrenceModel(rows, vocabulary, alpha))


@pytest.mark.parametrize(
    "rows, vocabulary, alpha, match",
    [
        ({"a.X": {"t": 1.5}}, set(), 1.0, r"a count of 'a\.X' is not a positive int"),
        ({"a.X": {"t": -0.5}}, set(), 1.0, r"a count of 'a\.X' is not a positive int"),
        ({"a.X": {"t": "3"}}, set(), 1.0, r"a count of 'a\.X' is not a positive int"),
        ({"a.X": {"t": 2, "u": 0}}, {"t", "u"}, 1.0,
         r"a count of 'a\.X' is not a positive int"),
        ({"a.X": {"t": 1}, "b.X": {"a": 10**308, "b": 10**308, "c": -(10**308)}},
         {"a", "b", "c", "t"}, 1.0, r"a count of 'b\.X' is not a positive int"),
        ({"a.X": {"a": 10**308, "b": 10**308}}, {"a", "b"}, 1.0,
         r"total count of 'a\.X' is beyond float range"),
        # sum() cannot add a float to an int float() cannot hold
        ({"a.X": {"t": 10**400, "u": 0.5}}, {"t", "u"}, 1.0,
         r"a count of 'a\.X' is not a positive int"),
        ({"a.X": {"u": 0.5, "t": 10**400}}, {"t", "u"}, 1.0,
         r"a count of 'a\.X' is not a positive int"),
        # alpha / denominator underflows to zero, or the denominator overflows
        ({"a.X": {"t": 2}}, {"t"}, 5e-324, r"bad alpha value 5e-324"),
        ({"a.X": {"t": 1}}, {"t", "u"}, 1e308, r"bad alpha value 1e\+308"),
        # a token the vocabulary lacks would score a probability above 1
        ({"a.X": {"t": 1}}, set(), 1.0, r"a token of 'a\.X' is not in the vocabulary"),
        ({"a.X": {"t": 1}, "b.X": {"t": 2, "u": 1}}, {"t"}, 1.0,
         r"a token of 'b\.X' is not in the vocabulary"),
        # an FQN's type is checked before a message quotes it
        ({5: {"t": 1}}, set(), 1.0, r"FQN 5 is not a str"),
        ({None: {"t": 1.5}}, {"t"}, 1.0, r"FQN None is not a str"),
        # each field's type is checked before its contents
        ([("a.X", {"t": 1})], {"t"}, 1.0, r"rows is a list, not a dict"),
        ({"a.X": {"t": 1}}, ["t"], 1.0, r"vocabulary is a list, not a set"),
        ({"a.X": {"t": 1}}, {"t": 1}, 1.0, r"vocabulary is a dict, not a set"),
        ({}, ["t"], 1.0, r"vocabulary is a list, not a set"),
        ({"a.X": [1]}, {"t"}, 1.0, r"the row of 'a\.X' is a list, not a dict"),
        ({"a.X": {"t": 1}, "b.X": ("t",)}, {"t"}, 1.0,
         r"the row of 'b\.X' is a tuple, not a dict"),
    ],
    ids=[
        "float-count", "negative-float-count", "str-count", "zero-count",
        "negative-count", "total", "huge-int-then-float", "float-then-huge-int",
        "alpha-underflow", "alpha-overflow", "empty-vocabulary", "token-outside",
        "int-fqn", "none-fqn", "list-rows", "list-vocabulary", "dict-vocabulary",
        "list-vocabulary-without-rows", "list-row", "tuple-row",
    ],
)
def test_constructor_refuses_a_model_it_cannot_score(rows, vocabulary, alpha, match):
    with pytest.raises(ValueError, match=f"^{match}$"):
        CooccurrenceModel(rows=rows, vocabulary=vocabulary, smoothing_alpha=alpha)


def test_frozenset_vocabulary_loads_and_round_trips(tmp_path):
    model = CooccurrenceModel(rows={"a.X": {"t": 2}}, vocabulary=frozenset({"t"}))
    assert model.fqn_totals == {"a.X": 2}
    assert CooccurrenceModel(rows={"a.X": {"t": 2}}, vocabulary={"t"}) == model
    save_model(model, tmp_path / "model.tsv")
    assert load_model(tmp_path / "model.tsv") == model


def test_constructor_checks_alpha_only_against_counted_rows():
    # no row has a count, so no score term is ever computed
    model = CooccurrenceModel(rows={"a.X": {}}, smoothing_alpha=5e-324)
    assert model.fqn_totals == {"a.X": 0}
    # a tiny alpha whose zero-count summand is a float is kept
    model = CooccurrenceModel(rows={"a.X": {"t": 3}}, vocabulary={"t"}, smoothing_alpha=1e-310)
    assert model.fqn_totals == {"a.X": 3}


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


def test_trained_empty_rows_load_back_equal(tmp_path, train_items):
    # at eta 0 Label's window is empty, so its FQN has an empty row
    sn = tokenize("new Label();\nnew Button(x);\n")
    truth = {e: f"com.x.{e.simple_name}" for e in identify_api_elements(sn)}
    corpora = [
        training_pairs(train_items),
        _generated_corpus(random.Random(16), 60),
        [(sn, truth)],
    ]
    path = tmp_path / "model.tsv"
    empty = 0
    for corpus in corpora:
        for eta in range(4):
            model = train(corpus, eta=eta)
            assert set(model.rows) == {fqn for _, truth in corpus for fqn in truth.values()}
            empty += sum(not row for row in model.rows.values())
            save_model(model, path)
            loaded = load_model(path)
            assert loaded == model, eta
            assert loaded.fqn_totals == model.fqn_totals, eta
    assert empty > 0


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


@pytest.mark.parametrize(
    "header, message",
    [
        ("cooccurrence alpha=5.0\teta=1", "missing model header line"),
        ("cooccurrences\talpha=1.0", "missing model header line"),
        ("cooccurrence\talpha=1.0\talpha=3.0", "duplicate header field 'alpha'"),
        ("cooccurrence\teta=2\talpha=1.0\teta=2", "duplicate header field 'eta'"),
    ],
    ids=["space-after-name", "longer-name", "alpha-twice", "eta-twice"],
)
def test_load_reads_the_header_name_exactly_and_each_field_once(tmp_path, header, message):
    # a header whose first field only begins with the name would load with
    # default settings, and a repeated field would override the first
    path = tmp_path / "m.tsv"
    path.write_text(header + '\ncount\t"x"\tcom.a.X\t1\n', encoding="utf-8")
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}:1: {message}"


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


@pytest.mark.parametrize(
    "value",
    ["+5", "5_0", " 7", "5 ", "\u0663", "\uff15"],
    ids=["plus", "underscore", "leading-blank", "trailing-blank",
         "arabic-indic-digit", "fullwidth-digit"],
)
def test_load_refuses_a_count_or_eta_that_is_not_ascii_digits(tmp_path, value):
    # int() and float() read each of these as a number; dump_model writes
    # every count and eta as ASCII digits, and alpha as repr() of a float
    path = tmp_path / "m.tsv"
    record = f'count\t"x"\tcom.a.X\t{value}'
    path.write_text(f"cooccurrence\teta=2\n{record}\n", encoding="utf-8")
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}:2: bad count record {record!r}"
    path.write_text(f"cooccurrence\talpha=1.0\teta={value}\n", encoding="utf-8")
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}:1: bad eta value {value!r}"
    path.write_text(f"cooccurrence\talpha={value}\teta=2\n", encoding="utf-8")
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}:1: bad alpha value {value!r}"


@pytest.mark.parametrize("value", ["0", "-1", "+0", "-0"])
def test_a_signed_or_zero_count_stays_a_nonpositive_count(tmp_path, value):
    # the digit check comes after int() and the sign check
    path = tmp_path / "m.tsv"
    path.write_text(f'cooccurrence\teta=2\ncount\t"x"\tcom.a.X\t{value}\n', encoding="utf-8")
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}:2: nonpositive count"


def test_load_rejects_a_total_beyond_float_range(tmp_path):
    # 10**308 fits a float, twice it does not; the constructor refuses such
    # a row, so no model holds one and its file is written here
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
    # the first such total in count order is named, as an fqn record that
    # comes first does not put its FQN first
    records = path.read_text(encoding="utf-8").split("\n", 1)[1]
    path.write_text(
        "cooccurrence\teta=2\nfqn\tb.Y\n" + records + records.replace("com.a.X", "b.Y"),
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


def test_load_refuses_an_alpha_whose_unseen_summand_fails(tmp_path, model):
    # alpha / denominator underflows to zero at the largest total, so a
    # score's log would fail; no line alone holds the fault
    path = tmp_path / "m.tsv"
    path.write_text(
        dump_model(model).replace("alpha=1.0", "alpha=5e-324", 1), encoding="utf-8"
    )
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: bad alpha value 5e-324"


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
