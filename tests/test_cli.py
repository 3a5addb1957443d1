"""End-to-end coverage of the command line interface via main(argv)."""

import logging
import shutil
from pathlib import Path

import pytest

from fqninfer import dump_kb, dump_model, load_kb, load_truth, save_model
from fqninfer.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
KB_PATH = str(FIXTURES / "kb" / "global.kb")
EVAL_DIR = str(FIXTURES / "corpus")
TRAIN_DIR = str(FIXTURES / "train")


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("model") / "corpus.model"
    save_model(model, path)
    return str(path)


def _lines(capsys):
    out = capsys.readouterr().out
    return out.splitlines()


# ---------------------------------------------------------------------------
# kb-build / kb-inspect


def test_kb_build_prints_canonical_form(capsys):
    assert main(["kb-build", KB_PATH]) == 0
    out = capsys.readouterr().out
    assert out == dump_kb(load_kb(KB_PATH))


def test_kb_build_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "canon.kb"
    assert main(["kb-build", KB_PATH, "-o", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text(encoding="utf-8") == dump_kb(load_kb(KB_PATH))


def test_kb_build_reports_missing_input(tmp_path, capsys):
    assert main(["kb-build", str(tmp_path / "nope.kb")]) == 1
    assert "error:" in capsys.readouterr().err


def test_kb_build_logs_summary(caplog):
    with caplog.at_level(logging.INFO, logger="fqninfer"):
        main(["kb-build", KB_PATH])
    assert any("types" in rec.message for rec in caplog.records)


def test_kb_inspect_lists_every_entry(kb, capsys):
    assert main(["kb-inspect", "--kb", KB_PATH]) == 0
    lines = _lines(capsys)
    assert len(lines) == len(kb)
    assert all(" lib=" in line for line in lines)


def test_kb_inspect_filters_by_simple_name(kb, capsys):
    assert main(["kb-inspect", "--kb", KB_PATH, "--name", "Document"]) == 0
    lines = _lines(capsys)
    expected = kb.candidates_for("Document")
    assert len(lines) == len(expected)
    assert tuple(line.split()[0] for line in lines) == expected


def test_kb_inspect_reads_env_var(monkeypatch, capsys):
    monkeypatch.setenv("FQNINFER_KB", KB_PATH)
    assert main(["kb-inspect", "--name", "XStream"]) == 0
    assert _lines(capsys)


def test_kb_inspect_without_kb_refuses(monkeypatch):
    monkeypatch.delenv("FQNINFER_KB", raising=False)
    with pytest.raises(SystemExit, match="no KB"):
        main(["kb-inspect"])


# ---------------------------------------------------------------------------
# train


def test_train_reproduces_library_model(tmp_path, monkeypatch, model):
    monkeypatch.delenv("FQNINFER_KB", raising=False)
    out = tmp_path / "trained.model"
    assert main(["train", TRAIN_DIR, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == dump_model(model)


# ---------------------------------------------------------------------------
# infer / trace


def test_infer_prints_key_fqn_source(model_file, capsys):
    snippet = str(FIXTURES / "corpus" / "gwt" / "1318732.java")
    assert main(["infer", snippet, "--kb", KB_PATH, "--model", model_file]) == 0
    rows = [line.split("\t") for line in _lines(capsys)]
    truth = load_truth(FIXTURES / "corpus" / "gwt" / "1318732.truth").truth
    assert [r[0] for r in rows] == [
        "Composite[1,1]",
        "VerticalSplitPanel[3,1]",
        "VerticalSplitPanel[3,2]",
        "HTML[9,1]",
        "HTML[10,1]",
    ]
    assert {r[0]: r[1] for r in rows} == truth
    assert set(r[2] for r in rows) <= {"constraint", "statistical"}


def test_infer_trace_file_matches_trace_command(tmp_path, model_file, capsys):
    snippet = str(FIXTURES / "corpus" / "joda-time" / "8746084.java")
    trace_path = tmp_path / "rounds.log"
    base = ["--kb", KB_PATH, "--model", model_file]
    assert main(["infer", snippet, *base, "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    assert main(["trace", snippet, *base]) == 0
    assert trace_path.read_text(encoding="utf-8") == capsys.readouterr().out


def test_trace_log_shape(kb, model_file, capsys):
    snippet = str(FIXTURES / "corpus" / "gwt" / "3954392.java")
    assert main(["trace", snippet, "--kb", KB_PATH, "--model", model_file]) == 0
    lines = _lines(capsys)
    assert lines[0] == f"round 1 kb_size={len(kb)}"
    assert all(line.split()[0] in {"round", "constraint", "stat"} for line in lines)


def test_infer_reports_missing_snippet(tmp_path, capsys):
    missing = str(tmp_path / "gone.java")
    assert main(["infer", missing, "--kb", KB_PATH]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "cooccurrence\talpha=1.0\teta=x\n",
        'cooccurrence\talpha=1.0\teta=2\ncount\t"x"\tcom.a.X\tzz\n',
        'count\t"x"\tcom.a.X\t1\n',
    ],
    ids=["bad-eta", "bad-count", "no-header"],
)
def test_infer_reports_malformed_model_in_one_line(tmp_path, capsys, text):
    snippet = str(FIXTURES / "corpus" / "gwt" / "1318732.java")
    model_path = tmp_path / "m.tsv"
    model_path.write_text(text, encoding="utf-8")
    assert main(["infer", snippet, "--kb", KB_PATH, "--model", str(model_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize(
    "command, bad",
    [("infer", "model"), ("infer", "kb"), ("infer", "java"),
     ("eval", "java"), ("eval", "truth"), ("train", "java")],
    ids=["model", "kb", "snippet", "eval-java", "eval-truth", "train-java"],
)
def test_reports_non_utf8_file_in_one_line(
    tmp_path, capsys, monkeypatch, model_file, command, bad
):
    monkeypatch.delenv("FQNINFER_KB", raising=False)
    corpus = tmp_path / "corpus"
    (corpus / "gwt").mkdir(parents=True)
    sources = {
        "model": Path(model_file),
        "kb": Path(KB_PATH),
        "java": FIXTURES / "corpus" / "gwt" / "1318732.java",
        "truth": FIXTURES / "corpus" / "gwt" / "1318732.truth",
    }
    files = {
        "model": tmp_path / "m.model",
        "kb": tmp_path / "k.kb",
        "java": corpus / "gwt" / "1318732.java",
        "truth": corpus / "gwt" / "1318732.truth",
    }
    for name, path in files.items():
        data = sources[name].read_bytes()
        path.write_bytes(data + b"\xff\n" if name == bad else data)
    run_flags = ["--kb", str(files["kb"]), "--model", str(files["model"])]
    argv = {
        "infer": ["infer", str(files["java"]), *run_flags],
        "eval": ["eval", str(corpus), *run_flags],
        "train": ["train", str(corpus), "-o", str(tmp_path / "out.model")],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"{files[bad]}:" in err[0] and "not UTF-8" in err[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["infer", "--delta", "0"],
        ["infer", "--k", "-1"],
        ["infer", "--eta", "-1"],
        ["train", "--eta", "-1"],
        ["train", "--alpha", "0"],
    ],
    ids=["delta-0", "k-negative", "eta-negative", "train-eta-negative",
         "train-alpha-zero"],
)
def test_rejects_nonsense_numbers_in_one_line(tmp_path, capsys, model_file, argv):
    command, flags = argv[0], argv[1:]
    if command == "train":
        argv = ["train", TRAIN_DIR, "-o", str(tmp_path / "out.model"), *flags]
    else:
        snippet = str(FIXTURES / "corpus" / "gwt" / "1318732.java")
        argv = ["infer", snippet, "--kb", KB_PATH, "--model", model_file, *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "out.model").exists()


# ---------------------------------------------------------------------------
# eval


def test_eval_constraint_engine_over_corpus(capsys):
    assert main(["eval", EVAL_DIR, "--kb", KB_PATH, "--engine", "constraint"]) == 0
    lines = _lines(capsys)
    assert "snippet gwt/1318732 P=1.00 R=0.20 inferred=1 correct=1 requested=5" in lines
    overall = lines[-1]
    assert overall.startswith("overall ")
    assert "R=0.58" in overall and overall.endswith("snippets=14")


def test_eval_stat_engine_over_corpus(model_file, capsys):
    argv = ["eval", EVAL_DIR, "--kb", KB_PATH, "--model", model_file,
            "--engine", "stat"]
    assert main(argv) == 0
    lines = _lines(capsys)
    assert (
        "snippet joda-time/8746084 P=0.25 R=0.25 inferred=4 correct=1 requested=4"
        in lines
    )
    assert "R=0.92" in lines[-1] and lines[-1].endswith("snippets=14")


def test_eval_combined_engine_single_snippet(tmp_path, model_file, capsys):
    corpus = tmp_path / "corpus" / "gwt"
    corpus.mkdir(parents=True)
    for suffix in (".java", ".truth"):
        shutil.copy(FIXTURES / "corpus" / "gwt" / ("1318732" + suffix), corpus)
    argv = ["eval", str(tmp_path / "corpus"), "--kb", KB_PATH,
            "--model", model_file]
    assert main(argv) == 0
    assert _lines(capsys)[-1] == "overall P=1.00 R=1.00 snippets=1"


def test_eval_stat_requires_model(monkeypatch):
    monkeypatch.delenv("FQNINFER_KB", raising=False)
    with pytest.raises(SystemExit, match="--model"):
        main(["eval", EVAL_DIR, "--kb", KB_PATH, "--engine", "stat"])


def test_rejects_unknown_order():
    with pytest.raises(SystemExit):
        main(["eval", EVAL_DIR, "--kb", KB_PATH, "--order", "zz"])


def test_rejects_unknown_engine():
    with pytest.raises(SystemExit):
        main(["eval", EVAL_DIR, "--kb", KB_PATH, "--engine", "psychic"])
