"""Ground truth loading, per-snippet scores, and aggregation."""

import pytest

from fqninfer import (
    TruthFormatError,
    aggregate,
    format_report,
    identify_api_elements,
    load_corpus,
    load_truth,
    score_snippet,
    training_pairs,
    truth_elements,
    tokenize,
)
from fqninfer.scoring import GroundTruth, SnippetScore


def _truth(mapping, snippet_id="s1", library="lib"):
    return GroundTruth(snippet_id, library, mapping)


def _score(sid, lib, p, r, inferred=0, correct=0, requested=1):
    return SnippetScore(sid, lib, p, r, inferred, correct, requested)


# ---------------------------------------------------------------------------
# truth files and corpus layout


def test_load_truth_parses_tabs_and_comments(tmp_path):
    path = tmp_path / "x.truth"
    path.write_text(
        "# header comment\nLabel[1,1]\tcom.a.Label\n\nHTML[2,1]\tcom.a.HTML\n",
        encoding="utf-8",
    )
    got = load_truth(path, "x", "lib")
    assert got.truth == {"Label[1,1]": "com.a.Label", "HTML[2,1]": "com.a.HTML"}
    assert (got.snippet_id, got.library) == ("x", "lib")


def test_load_truth_rejects_duplicate_keys(tmp_path):
    path = tmp_path / "x.truth"
    path.write_text("A[1,1]\tcom.a.A\nA[1,1]\tcom.b.A\n", encoding="utf-8")
    with pytest.raises(TruthFormatError, match="duplicate"):
        load_truth(path)


def test_load_truth_rejects_untabbed_lines(tmp_path):
    path = tmp_path / "x.truth"
    path.write_text("A[1,1] com.a.A\n", encoding="utf-8")
    with pytest.raises(TruthFormatError):
        load_truth(path)


@pytest.mark.parametrize(
    "key",
    [
        "\ufeffComposite[1,1]",  # a UTF-8 byte order mark before the first key
        "Composite[1;1]",
        "Composite[1,1",
        "Composite(1,1)",
        "Composite[0,1]",
        "Composite[1,0]",
        "Composite[01,1]",
        "Composite[-1,1]",
        "Composite[1,1,1]",
        "Composite[1, 1]",
        "Composite[\u0661,1]",  # a Unicode digit
        "[1,1]",
        "1Composite[1,1]",
        "a.Composite[1,1]",
        "Composité[1,1]",
        "Composite",
    ],
)
def test_load_truth_rejects_malformed_keys(tmp_path, key):
    path = tmp_path / "x.truth"
    path.write_text(f"# header\n{key}\tcom.a.Composite\n", encoding="utf-8")
    with pytest.raises(TruthFormatError) as info:
        load_truth(path)
    assert str(info.value) == f"{path}:2: bad element key {key!r}"


def test_load_truth_accepts_every_element_key(tmp_path, eval_items, train_items):
    path = tmp_path / "x.truth"
    path.write_text("$x_9[12,3]\ta.B\n_[1,1]\ta.C\n", encoding="utf-8")
    assert list(load_truth(path).truth) == ["$x_9[12,3]", "_[1,1]"]
    for item in eval_items + train_items:
        for e in identify_api_elements(item.snippet):
            path.write_text(f"{e.key}\ta.B\n", encoding="utf-8")
            assert list(load_truth(path).truth) == [e.key]


def test_load_truth_ends_records_at_newline_only(tmp_path):
    # a lone form feed is one blank line, not two
    path = tmp_path / "x.truth"
    path.write_text("A[1,1]\tcom.a.A\n\x0c\nB[3,1] com.a.B\n", encoding="utf-8")
    with pytest.raises(TruthFormatError, match="x.truth:3: expected"):
        load_truth(path)


def test_load_corpus_walks_library_directories(tmp_path):
    (tmp_path / "libx").mkdir()
    (tmp_path / "libx" / "10.java").write_text("Label a;\n", encoding="utf-8")
    (tmp_path / "libx" / "10.truth").write_text(
        "Label[1,1]\tcom.a.Label\n", encoding="utf-8"
    )
    items = load_corpus(tmp_path)
    assert len(items) == 1
    assert items[0].snippet_id == "10"
    assert items[0].library == "libx"
    assert items[0].snippet.raw == "Label a;\n"


def test_load_corpus_requires_truth_file(tmp_path):
    (tmp_path / "libx").mkdir()
    (tmp_path / "libx" / "10.java").write_text("Label a;\n", encoding="utf-8")
    with pytest.raises(FileNotFoundError, match="truth"):
        load_corpus(tmp_path)


def test_load_corpus_rejects_empty_tree(tmp_path):
    with pytest.raises(FileNotFoundError, match="java"):
        load_corpus(tmp_path)


def test_load_corpus_rejects_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError, match="corpus directory not found"):
        load_corpus(tmp_path / "absent")


def test_truth_elements_resolves_keys():
    sn = tokenize("Label a = new Label(b);\n")
    truth = _truth({"Label[1,1]": "com.a.Label", "Label[1,2]": "com.a.Label"})
    got = truth_elements(sn, truth)
    assert {e.key for e in got} == {"Label[1,1]", "Label[1,2]"}
    assert set(got.values()) == {"com.a.Label"}


def test_truth_elements_rejects_unmatched_key():
    sn = tokenize("Label a;\n")
    truth = _truth({"Banner[4,1]": "com.a.Banner"})
    with pytest.raises(TruthFormatError, match="Banner"):
        truth_elements(sn, truth)


def test_training_pairs_shapes(train_items):
    pairs = training_pairs(train_items, kb=None)
    assert len(pairs) == len(train_items)
    for snippet, mapping in pairs:
        assert mapping, snippet.raw
        for element, fqn in mapping.items():
            assert element.simple_name == fqn.rsplit(".", 1)[-1]


# ---------------------------------------------------------------------------
# scoring


def test_score_snippet_counts():
    truth = _truth({"A[1,1]": "com.a.A", "B[2,1]": "com.b.B", "C[3,1]": "com.c.C"})
    got = score_snippet({"A[1,1]": "com.a.A", "B[2,1]": "com.WRONG"}, truth)
    assert (got.inferred, got.correct, got.requested) == (2, 1, 3)
    assert got.precision == pytest.approx(0.5)
    assert got.recall == pytest.approx(1 / 3)


def test_score_snippet_nothing_inferred_has_no_precision():
    truth = _truth({"A[1,1]": "com.a.A"})
    got = score_snippet({}, truth)
    assert got.precision is None
    assert got.recall == 0.0


def test_score_snippet_empty_truth_has_no_recall():
    got = score_snippet({}, _truth({}))
    assert got.recall is None and got.precision is None


def test_score_snippet_rejects_extraneous_answers_by_default():
    truth = _truth({"A[1,1]": "com.a.A"})
    with pytest.raises(ValueError, match="unrequested"):
        score_snippet({"Z[9,9]": "com.z.Z"}, truth)
    lenient = score_snippet({"Z[9,9]": "com.z.Z"}, truth, lenient=True)
    assert (lenient.inferred, lenient.requested) == (0, 1)


def test_aggregate_means():
    scores = [
        _score("1", "gwt", 1.0, 0.2),
        _score("2", "gwt", 0.8, 0.8),
        _score("3", "joda", 0.25, 0.25),
    ]
    per_lib, overall = aggregate(scores)
    assert per_lib["gwt"].precision == pytest.approx(0.9)
    assert per_lib["gwt"].recall == pytest.approx(0.5)
    assert per_lib["joda"].recall == pytest.approx(0.25)
    assert overall.precision == pytest.approx((1.0 + 0.8 + 0.25) / 3)
    assert overall.recall == pytest.approx((0.2 + 0.8 + 0.25) / 3)
    assert overall.snippets == 3


def test_aggregate_skips_undefined_precisions():
    scores = [
        _score("1", "gwt", None, 0.0),
        _score("2", "gwt", 1.0, 1.0),
    ]
    per_lib, overall = aggregate(scores)
    assert per_lib["gwt"].precision == pytest.approx(1.0)  # None excluded
    assert per_lib["gwt"].recall == pytest.approx(0.5)  # zero still counts
    assert overall.snippets == 2


def test_aggregate_all_undefined():
    _, overall = aggregate([_score("1", "gwt", None, None, requested=0)])
    assert overall.precision is None
    assert overall.recall is None


def test_format_report_stable_and_complete():
    scores = [
        _score("2", "gwt", 0.8, 0.8, 5, 4, 5),
        _score("1", "joda", 0.25, 0.25, 4, 1, 4),
    ]
    text = format_report(scores)
    assert text == (
        "snippet gwt/2 P=0.80 R=0.80 inferred=5 correct=4 requested=5\n"
        "snippet joda/1 P=0.25 R=0.25 inferred=4 correct=1 requested=4\n"
        "library gwt P=0.80 R=0.80 snippets=1\n"
        "library joda P=0.25 R=0.25 snippets=1\n"
        "overall P=0.53 R=0.53 snippets=2\n"
    )


def test_format_report_dashes_for_undefined():
    text = format_report([_score("1", "gwt", None, 0.0, 0, 0, 2)])
    assert "snippet gwt/1 P=- R=0.00" in text
    assert "overall P=- R=0.00" in text
