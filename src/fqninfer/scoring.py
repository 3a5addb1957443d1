"""Corpus loading and precision/recall scoring.

A corpus directory holds one subdirectory per library, each containing
`<id>.java` next to `<id>.truth`. A truth file lists one element per line as
`Name[line,occ]<TAB>fully.qualified.Name`; `#` starts a comment. A key
that is no element key, as one behind a byte order mark, is an error.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .snippet import (
    ApiElement,
    Snippet,
    _value_tuple,
    collector_paused,
    identify_api_elements,
    read_utf8,
    tokenize,
)


class TruthFormatError(ValueError):
    pass


@_value_tuple
class GroundTruth(NamedTuple):
    snippet_id: str
    library: str
    truth: Mapping[str, str]  # element key -> FQN


# `ApiElement.key`: an identifier, then two positive decimal ints
_ELEMENT_KEY = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*\[[1-9][0-9]*,[1-9][0-9]*\]")


def load_truth(path: str | Path, snippet_id: str = "", library: str = "") -> GroundTruth:
    truth: dict[str, str] = {}
    text = read_utf8(path, TruthFormatError)
    # records end at "\n" alone, as in the KB and model files
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise TruthFormatError(f"{path}:{lineno}: expected <Name[line,occ]><TAB><fqn>")
        key, fqn = parts[0].strip(), parts[1].strip()
        if _ELEMENT_KEY.fullmatch(key) is None:
            raise TruthFormatError(f"{path}:{lineno}: bad element key {key!r}")
        if key in truth:
            raise TruthFormatError(f"{path}:{lineno}: duplicate element key {key}")
        truth[key] = fqn
    sid = snippet_id or Path(path).stem
    return GroundTruth(sid, library, truth)


@_value_tuple
class CorpusItem(NamedTuple):
    snippet_id: str
    library: str
    java_path: str
    snippet: Snippet
    truth: GroundTruth


@collector_paused
def load_corpus(root: str | Path) -> list[CorpusItem]:
    """Read every `<library>/<id>.java` + `<id>.truth` pair under root.

    The cyclic garbage collector is paused while the corpus is read, and
    left as it was found (`snippet.collector_paused`).
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    items: list[CorpusItem] = []
    for library in sorted(p.name for p in root.iterdir() if p.is_dir()):
        libdir = root / library
        for java in sorted(libdir.glob("*.java")):
            truth_path = java.with_suffix(".truth")
            if not truth_path.exists():
                raise FileNotFoundError(f"missing truth file for {java}")
            snippet = tokenize(read_utf8(java, TruthFormatError))
            truth = load_truth(truth_path, snippet_id=java.stem, library=library)
            items.append(
                CorpusItem(java.stem, library, str(java), snippet, truth)
            )
    if not items:
        raise FileNotFoundError(f"no <library>/<id>.java snippets under {root}")
    return items


def truth_elements(
    snippet: Snippet, truth: GroundTruth, kb=None, *, exclude_string: bool = True
) -> dict[ApiElement, str]:
    """Resolve truth keys to elements of the snippet, as
    `identify_api_elements` identifies them.

    Raises TruthFormatError when a key does not match any identified
    element, which usually means the truth file drifted from the source.
    """
    elements = {
        e.key: e
        for e in identify_api_elements(snippet, kb, exclude_string=exclude_string)
    }
    out: dict[ApiElement, str] = {}
    for key, fqn in truth.truth.items():
        e = elements.get(key)
        if e is None:
            raise TruthFormatError(
                f"truth key {key} matches no identified element in "
                f"{truth.library}/{truth.snippet_id}"
            )
        out[e] = fqn
    return out


def training_pairs(
    items: Sequence[CorpusItem], kb=None
) -> list[tuple[Snippet, dict[ApiElement, str]]]:
    return [(it.snippet, truth_elements(it.snippet, it.truth, kb)) for it in items]


# ---------------------------------------------------------------------------
# metrics

@_value_tuple
class SnippetScore(NamedTuple):
    snippet_id: str
    library: str
    precision: float | None  # None when nothing was inferred
    recall: float | None  # None when nothing was requested
    inferred: int
    correct: int
    requested: int


def score_snippet(
    answers: Mapping[str, str], truth: GroundTruth, *, lenient: bool = False
) -> SnippetScore:
    """Score one snippet's answers against its ground truth.

    `answers` maps element keys to FQNs, as `CombinedResult.answers()` and
    `infer_with_engine` return them. Keys outside the requested set raise
    unless lenient.
    """
    requested = len(truth.truth)
    extra = set(answers) - set(truth.truth)
    if extra and not lenient:
        raise ValueError(
            f"answers for unrequested elements in {truth.library}/"
            f"{truth.snippet_id}: {sorted(extra)}"
        )
    inferred = 0
    correct = 0
    for key, fqn in answers.items():
        if key not in truth.truth or fqn is None:
            continue
        inferred += 1
        if fqn == truth.truth[key]:
            correct += 1
    precision = correct / inferred if inferred else None
    recall = correct / requested if requested else None
    return SnippetScore(
        truth.snippet_id, truth.library, precision, recall,
        inferred, correct, requested,
    )


@_value_tuple
class Aggregate(NamedTuple):
    precision: float | None
    recall: float | None
    snippets: int


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def aggregate(
    scores: Sequence[SnippetScore],
) -> tuple[dict[str, Aggregate], Aggregate]:
    """Unweighted per-library and overall means.

    Snippets without an inference contribute no precision term (their
    precision is undefined) but still weigh down recall.
    """
    by_lib: dict[str, list[SnippetScore]] = {}
    for s in scores:
        by_lib.setdefault(s.library, []).append(s)

    def fold(group: Sequence[SnippetScore]) -> Aggregate:
        return Aggregate(
            _mean([s.precision for s in group if s.precision is not None]),
            _mean([s.recall for s in group if s.recall is not None]),
            len(group),
        )

    per_library = {lib: fold(group) for lib, group in sorted(by_lib.items())}
    return per_library, fold(scores)


def _fmt(value: float | None) -> str:
    return f"{value:.2f}" if value is not None else "-"


def format_report(scores: Sequence[SnippetScore]) -> str:
    """Stable text report: per snippet, per library, then overall."""
    lines: list[str] = []
    for s in sorted(scores, key=lambda s: (s.library, s.snippet_id)):
        lines.append(
            f"snippet {s.library}/{s.snippet_id} P={_fmt(s.precision)} "
            f"R={_fmt(s.recall)} inferred={s.inferred} correct={s.correct} "
            f"requested={s.requested}"
        )
    per_library, overall = aggregate(scores)
    for lib, agg in per_library.items():
        lines.append(
            f"library {lib} P={_fmt(agg.precision)} R={_fmt(agg.recall)} "
            f"snippets={agg.snippets}"
        )
    lines.append(
        f"overall P={_fmt(overall.precision)} R={_fmt(overall.recall)} "
        f"snippets={overall.snippets}"
    )
    return "\n".join(lines) + "\n"
