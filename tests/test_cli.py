"""End-to-end coverage of the command line interface via main(argv)."""

import errno
import logging
import os
import re
import shutil
from pathlib import Path

import pytest

from fqninfer import (
    CooccurrenceModel,
    RunConfig,
    dump_kb,
    dump_model,
    load_kb,
    load_truth,
    save_model,
)
from fqninfer import cli
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


def test_kb_build_refuses_an_empty_return_type(tmp_path, capsys):
    path = tmp_path / "k.kb"
    path.write_text(
        "type a.X class lib=l1\nmethod a.X m/0 returns=\nfield a.X f type=\n",
        encoding="utf-8",
    )
    out_path = tmp_path / "out.kb"
    assert main(["kb-build", str(path), "-o", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {path}:2: empty returns=; an unknown type is returns=?"
    ]
    assert not out_path.exists()


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


def test_kb_inspect_of_an_empty_name_lists_nothing(capsys):
    # no entry has an empty simple name
    assert main(["kb-inspect", "--kb", KB_PATH, "--name", ""]) == 0
    assert capsys.readouterr().out == ""


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


def test_train_logs_one_pair_per_count_record(tmp_path, monkeypatch, caplog):
    # the summary counts row entries; building the (token, fqn) view fails
    def no_pair_view(self):
        raise AssertionError("CooccurrenceModel.counts was read")

    monkeypatch.setattr(CooccurrenceModel, "counts", property(no_pair_view))
    monkeypatch.delenv("FQNINFER_KB", raising=False)
    out = tmp_path / "trained.model"
    with caplog.at_level(logging.INFO, logger="fqninfer"):
        assert main(["train", TRAIN_DIR, "-o", str(out)]) == 0
    records = out.read_text(encoding="utf-8").split("\n")
    (summary,) = [r.message for r in caplog.records if r.message.startswith("trained")]
    pairs = re.search(r": (\d+) \(token, fqn\) pairs,", summary)
    assert int(pairs.group(1)) == sum(r.startswith("count\t") for r in records) > 0


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
    "position", ["snippet", "kb", "model", "train-o", "kb-build-o", "trace"]
)
def test_directory_in_a_file_position_is_one_error_line(
    tmp_path, capsys, monkeypatch, model_file, position
):
    monkeypatch.delenv("FQNINFER_KB", raising=False)
    snippet = str(FIXTURES / "corpus" / "gwt" / "1318732.java")
    d = str(tmp_path)
    argv = {
        "snippet": ["infer", d, "--kb", KB_PATH, "--model", model_file],
        "kb": ["infer", snippet, "--kb", d, "--model", model_file],
        "model": ["infer", snippet, "--kb", KB_PATH, "--model", d],
        "train-o": ["train", TRAIN_DIR, "-o", d],
        "kb-build-o": ["kb-build", KB_PATH, "-o", d],
        "trace": ["infer", snippet, "--kb", KB_PATH, "--model", model_file,
                  "--trace", d],
    }[position]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and d in err[0]


def test_infer_with_an_unwritable_trace_prints_no_answer(tmp_path, capsys, model_file):
    snippet = str(FIXTURES / "corpus" / "gwt" / "1318732.java")
    argv = ["infer", snippet, "--kb", KB_PATH, "--model", model_file,
            "--trace", str(tmp_path)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_a_solve_deeper_than_the_recursion_limit_is_one_error_line(
    tmp_path, capsys, model_file
):
    # Composite has two candidates in the fixture KB, so the constraint
    # search recurses once per occurrence, two per line
    snippet = tmp_path / "deep.java"
    snippet.write_text("Composite c = new Composite();\n" * 1000, encoding="utf-8")
    assert main(["infer", str(snippet), "--kb", KB_PATH, "--model", model_file]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def _argv_writing(command, output):
    snippet = str(FIXTURES / "corpus" / "gwt" / "1318732.java")
    return {
        "train": ["train", TRAIN_DIR, "-o", output],
        "kb-build": ["kb-build", KB_PATH, "-o", output],
        "infer": ["infer", snippet, "--kb", KB_PATH, "--model", "m.tsv", "--trace", output],
    }[command]


@pytest.mark.parametrize("command", ["train", "kb-build", "infer"])
@pytest.mark.parametrize("where", ["missing-parent", "parent-is-a-file", "directory", "empty"])
def test_an_output_that_cannot_be_written_is_refused_before_any_load(
    tmp_path, capsys, monkeypatch, command, where
):
    loaded = []
    for name in ("load_kb", "load_corpus", "load_model", "read_utf8"):
        monkeypatch.setattr(cli, name, lambda *a, **k: loaded.append(a))
    (tmp_path / "file").write_text("", encoding="utf-8")
    output, code = {
        "missing-parent": (tmp_path / "missing" / "out", errno.ENOENT),
        "parent-is-a-file": (tmp_path / "file" / "out", errno.ENOTDIR),
        "directory": (tmp_path, errno.EISDIR),
        "empty": ("", errno.EISDIR),
    }[where]
    assert main(_argv_writing(command, str(output))) == 1
    out, err = capsys.readouterr()
    assert out == "" and loaded == []
    assert err == f"error: [Errno {code}] {os.strerror(code)}: '{output}'\n"


def test_an_output_refused_early_is_the_error_its_write_would_raise(tmp_path):
    (tmp_path / "file").write_text("", encoding="utf-8")
    for output in (tmp_path / "missing" / "out", tmp_path / "file" / "out", tmp_path):
        with pytest.raises(OSError) as early:
            cli._refuse_unwritable(str(output))
        with pytest.raises(OSError) as late:
            Path(output).write_text("", encoding="utf-8")
        assert str(early.value) == str(late.value)
    cli._refuse_unwritable(str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


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
    "records",
    [
        ['count\t"label"\tcom.google.gwt.user.client.ui.Label\t1' + "0" * 400],
        # each count fits a float, their total does not
        ['count\t"label"\tcom.google.gwt.user.client.ui.Label\t1' + "0" * 308,
         'count\t"types"\tcom.google.gwt.user.client.ui.Label\t1' + "0" * 308],
    ],
    ids=["count", "total"],
)
def test_a_model_total_beyond_float_range_is_one_error_line(tmp_path, capsys, records):
    # the snippet constructs a Label, so infer ranks Label's FQN
    snippet = str(FIXTURES / "corpus" / "gwt" / "3954392.java")
    model_path = tmp_path / "m.tsv"
    model_path.write_text(
        "\n".join(["cooccurrence\talpha=1.0\teta=2", *records]) + "\n", encoding="utf-8"
    )
    assert main(["infer", snippet, "--kb", KB_PATH, "--model", str(model_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: {model_path}: total count of "
        "'com.google.gwt.user.client.ui.Label' is beyond float range"
    ]


@pytest.mark.parametrize(
    "bad, text, message",
    [
        ("model", "cooccurrence\talpha=1.0\teta=x\n", ":1: bad eta value 'x'"),
        ("model", 'cooccurrence\teta=2\ncount\t"x"\tcom.a.X\t0\n',
         ":2: nonpositive count"),
        ("model", "cooccurrence\teta=2\ncount\t[1]\tcom.a.X\t2\n",
         ":2: bad count record 'count\\t[1]\\tcom.a.X\\t2'"),
        ("model", "cooccurrence\teta=2\ncount\t" + "[" * 100_000 + "\tcom.a.X\t2\n",
         ":2: bad count record 'count\\t" + "[" * 74 + "'... (100016 characters)"),
        ("model", "cooccurrence\teta=2\n" + "z" * 81 + "\n",
         ":2: bad record '" + "z" * 80 + "'... (81 characters)"),
        ("kb", "type com.a.X klass lib=a\n", ":1: bad kind 'klass'"),
        ("kb", "type com.a.X class lib=a\nmethod com.b.Y run/0\n",
         ":2: method owner com.b.Y has no type record"),
        ("kb", "type com.a.X class lib=a extends=com.a.Gone\n",
         ": com.a.X: supertype com.a.Gone not in KB and not marked external"),
        ("kb", "type com.a.X class lib=a\nmethod com.a.X run/0 returns=?\n"
               "method com.a.X run/0 static returns=?\n",
         ": com.a.X: conflicting signatures for run/0"),
    ],
    ids=["model-header", "model-record", "model-token", "model-token-deep",
         "model-long-record", "kb-record", "kb-owner",
         "kb-supertype", "kb-signatures"],
)
def test_format_errors_name_the_file(tmp_path, capsys, model_file, bad, text, message):
    snippet = str(FIXTURES / "corpus" / "gwt" / "1318732.java")
    paths = {"kb": KB_PATH, "model": model_file}
    paths[bad] = str(tmp_path / ("bad." + bad))
    Path(paths[bad]).write_text(text, encoding="utf-8")
    argv = ["infer", snippet, "--kb", paths["kb"], "--model", paths["model"]]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {paths[bad]}{message}"]


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


def test_run_config_has_one_default():
    for argv in (["infer", "x.java"], ["trace", "x.java"], ["eval", "corpus"]):
        args = cli.build_parser().parse_args(argv)
        assert RunConfig() == cli._run_config(args), argv


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


def test_eval_refuses_a_truth_file_with_a_byte_order_mark(tmp_path, capsys):
    # the unmarked file reads R=0.20 under this engine; a key the mark
    # hides would read R=0.00 and exit 0
    corpus = tmp_path / "corpus"
    shutil.copytree(FIXTURES / "corpus", corpus)
    truth = corpus / "gwt" / "1318732.truth"
    truth.write_text("\ufeff" + truth.read_text(encoding="utf-8"), encoding="utf-8")
    assert main(["eval", str(corpus), "--kb", KB_PATH, "--engine", "constraint"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {truth}:1: bad element key ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flags", [[], ["--include-string"]], ids=["default", "include-string"])
def test_eval_refuses_a_truth_key_that_names_no_element(tmp_path, capsys, flags):
    # a well-formed key that names no element would otherwise score as a miss
    corpus = tmp_path / "corpus"
    shutil.copytree(FIXTURES / "corpus", corpus)
    truth = corpus / "gwt" / "1318732.truth"
    text = truth.read_text(encoding="utf-8")
    assert "Composite[1,1]\t" in text
    truth.write_text(text.replace("Composite[1,1]\t", "Composite[9,1]\t"), encoding="utf-8")
    argv = ["eval", str(corpus), "--kb", KB_PATH, "--engine", "constraint", *flags]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: truth key Composite[9,1] matches no identified element in gwt/1318732"
    ]
