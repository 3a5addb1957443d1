"""Corpus loading and precision/recall scoring.

A corpus directory holds one subdirectory per library, each containing
`<id>.java` next to `<id>.truth`. A truth file lists one element per line as
`Name[line,occ]<TAB>fully.qualified.Name`; `#` starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .snippet import ApiElement, Snippet, identify_api_elements, read_utf8, tokenize


class TruthFormatError(ValueError):
    def __init__(self, message: str, path: str = "", line: int = 0):
        detail = message
        if path:
            detail = f"{path}:{line}: {message}"
        super().__init__(detail)
        self.path = path
        self.line = line


@dataclass(frozen=True)
class GroundTruth:
    snippet_id: str
    library: str
    truth: Mapping[str, str]  # element key -> FQN


def load_truth(path: str | Path, snippet_id: str = "", library: str = "") -> GroundTruth:
    truth: dict[str, str] = {}
    text = read_utf8(path, TruthFormatError)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise TruthFormatError(
                "expected <Name[line,occ]><TAB><fqn>", str(path), lineno
            )
        key, fqn = parts[0].strip(), parts[1].strip()
        if not key or not fqn:
            raise TruthFormatError("empty key or FQN", str(path), lineno)
        if key in truth:
            raise TruthFormatError(f"duplicate element key {key}", str(path), lineno)
        truth[key] = fqn
    sid = snippet_id or Path(path).stem
    return GroundTruth(sid, library, truth)


@dataclass(frozen=True)
class CorpusItem:
    snippet_id: str
    library: str
    java_path: str
    snippet: Snippet
    truth: GroundTruth


def load_corpus(root: str | Path) -> list[CorpusItem]:
    """Read every `<library>/<id>.java` + `<id>.truth` pair under root."""
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
    snippet: Snippet, truth: GroundTruth, kb=None
) -> dict[ApiElement, str]:
    """Resolve truth keys to identified elements of the snippet.

    Raises TruthFormatError when a key does not match any identified
    element, which usually means the truth file drifted from the source.
    """
    elements = {e.key: e for e in identify_api_elements(snippet, kb)}
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

@dataclass(frozen=True)
class SnippetScore:
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


@dataclass(frozen=True)
class Aggregate:
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
