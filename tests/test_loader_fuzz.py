"""Seeded mutation fuzz of the KB, model and truth loaders through cli.main.

Each case mutates one fixture file by line edits (delete, duplicate, swap,
cut short) and character edits (delete, insert, replace with characters
the formats give meaning to), then runs the command that loads it. Every
call must exit 0 or print exactly one `error:` line; an exception escaping
main fails the case.
"""

import random
import shutil
from pathlib import Path

import pytest

from fqninfer import save_model
from fqninfer.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
KB_PATH = FIXTURES / "kb" / "global.kb"
SNIPPET = FIXTURES / "corpus" / "gwt" / "1318732"
CASES = 300

# characters with a meaning in one of the formats, plus some without
_CHARS = "\t \n=,/?#\"'[]{}\\:.-+0129exE_aZé \x00"


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        lines = text.splitlines(keepends=True)
        op = rng.randrange(7)
        if op < 4 and lines:
            i = rng.randrange(len(lines))
            if op == 0:
                del lines[i]
            elif op == 1:
                lines.insert(i, lines[i])
            elif op == 2:
                j = rng.randrange(len(lines))
                lines[i], lines[j] = lines[j], lines[i]
            else:
                lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
            text = "".join(lines)
            continue
        pos = rng.randrange(len(text) + 1)
        if op == 4:
            text = text[:pos] + text[pos + 1:]
        elif op == 5:
            text = text[:pos] + rng.choice(_CHARS) + text[pos:]
        else:
            text = text[:pos] + rng.choice(_CHARS) + text[pos + 1:]
    return text


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("fuzz-model") / "corpus.model"
    save_model(model, path)
    return path


def _assert_one_line_or_success(capsys, code, case):
    err = capsys.readouterr().err.splitlines()
    if code == 0:
        assert not any(line.startswith("error:") for line in err), case
    else:
        assert code == 1, case
        assert len(err) == 1 and err[0].startswith("error:"), (case, err)


@pytest.mark.parametrize("target", ["kb", "model", "truth"])
def test_mutated_loader_input_ends_in_one_error_line(
    tmp_path, capsys, monkeypatch, model_path, target
):
    monkeypatch.delenv("FQNINFER_KB", raising=False)
    rng = random.Random(f"loader-fuzz-{target}")
    corpus = tmp_path / "corpus"
    (corpus / "gwt").mkdir(parents=True)
    shutil.copy(SNIPPET.with_suffix(".java"), corpus / "gwt")
    files = {
        "kb": (KB_PATH, tmp_path / "fuzz.kb"),
        "model": (model_path, tmp_path / "fuzz.model"),
        "truth": (SNIPPET.with_suffix(".truth"), corpus / "gwt" / "1318732.truth"),
    }
    source, path = files[target]
    original = source.read_text(encoding="utf-8")
    kb, model = str(KB_PATH), str(model_path)
    if target == "kb":
        kb = str(path)
    elif target == "model":
        model = str(path)
    argv = {
        "kb": ["kb-inspect", "--kb", kb],
        "model": ["infer", str(corpus / "gwt" / "1318732.java"),
                  "--kb", kb, "--model", model],
        "truth": ["eval", str(corpus), "--kb", kb, "--engine", "constraint"],
    }[target]
    for case in range(CASES):
        path.write_text(_mutate(rng, original), encoding="utf-8")
        code = main(argv)
        _assert_one_line_or_success(capsys, code, (target, case))
