"""Statistical type prediction from token co-occurrence counts.

The model plays the role a masked language model would play in a richer
system: given the tokens around an API element, rank fully-qualified names
for it. Here the ranking comes from Laplace-smoothed co-occurrence counts
gathered from a training corpus of snippets with known element types.

score(f) = sum over window tokens t of
    log( (counts[(t, f)] + alpha) / (fqn_totals[f] + alpha * |vocabulary|) )

Only model-known FQNs whose simple name matches the target are ranked, and
a candidate needs at least one positive count against the window to appear
at all: the model does not propose types it has no contextual evidence for.
Predictions may still name FQNs that exist nowhere in a given KB (learned
from other corpora), which is exactly the hallucination the KB filter is
for.
"""

from __future__ import annotations

import json
import math
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

from .kb import KnowledgeBase
from .snippet import (
    ApiElement,
    AugmentedSnippet,
    Snippet,
    TokenKind,
    augment,
    read_utf8,
)


@dataclass
class CooccurrenceModel:
    """Token/FQN co-occurrence counts plus smoothing configuration."""

    counts: dict[tuple[str, str], int] = field(default_factory=dict)
    fqn_totals: dict[str, int] = field(default_factory=dict)
    vocabulary: set[str] = field(default_factory=set)
    smoothing_alpha: float = 1.0
    window_eta: int = 2

    def __post_init__(self) -> None:
        # a zero alpha takes the log of zero for every unseen pair, and a
        # negative eta leaves every context window empty
        if not 0 < self.smoothing_alpha < math.inf:
            raise ValueError(f"bad alpha value {self.smoothing_alpha!r}")
        if self.window_eta < 0:
            raise ValueError(f"bad eta value {self.window_eta!r}")

    def predict(
        self, aug: AugmentedSnippet, target: ApiElement, k: int
    ) -> list[tuple[str, float]]:
        return predict_topk(self, aug, target, k)

    def known_fqns_named(self, simple_name: str) -> list[str]:
        suffix = "." + simple_name
        return sorted(
            f for f in self.fqn_totals if f == simple_name or f.endswith(suffix)
        )


_WINDOW_KINDS = (TokenKind.IDENTIFIER, TokenKind.LITERAL)


def context_window(
    aug: AugmentedSnippet, element: ApiElement, eta: int
) -> list[str]:
    """Identifier and literal lexemes within +-eta lines of the element's
    line, excluding the element's own token. Substituted FQNs of other
    elements appear as single tokens. Order follows the token stream.
    """
    lo = element.line - eta
    hi = element.line + eta
    out: list[str] = []
    for i, t in enumerate(aug.tokens):
        if i == element.token_index:
            continue
        if t.kind not in _WINDOW_KINDS:
            continue
        if lo <= t.line <= hi:
            out.append(t.lexeme)
    return out


def train(
    corpus: Iterable[tuple[Snippet, Mapping[ApiElement, str]]],
    eta: int = 2,
    alpha: float = 1.0,
) -> CooccurrenceModel:
    """Count co-occurrences over a corpus of (snippet, truth) pairs.

    For each truth pair (e, fqn) the context is taken leave-one-out: all
    OTHER truth elements are substituted by their FQNs first, mirroring what
    prediction sees after augmentation, then every window token around e
    adds one count for (token, fqn).
    """
    model = CooccurrenceModel(smoothing_alpha=alpha, window_eta=eta)
    counts, totals = model.counts, model.fqn_totals
    for snippet, truth in corpus:
        for e, fqn in truth.items():
            others = {o: f for o, f in truth.items() if o != e}
            aug = augment(snippet, others)
            # a truth FQN is kept even when its window gathers no tokens
            totals.setdefault(fqn, 0)
            for tok in context_window(aug, e, eta):
                counts[(tok, fqn)] = counts.get((tok, fqn), 0) + 1
                totals[fqn] += 1
                model.vocabulary.add(tok)
    return model


def score_candidate(
    model: CooccurrenceModel, window: Sequence[str], fqn: str
) -> float:
    alpha = model.smoothing_alpha
    denom = model.fqn_totals.get(fqn, 0) + alpha * len(model.vocabulary)
    if denom <= 0:
        return float("-inf")
    total = 0.0
    for tok in window:
        c = model.counts.get((tok, fqn), 0)
        total += math.log((c + alpha) / denom)
    return total


def predict_topk(
    model: CooccurrenceModel,
    aug: AugmentedSnippet,
    target: ApiElement,
    k: int,
) -> list[tuple[str, float]]:
    """Rank model-known FQNs whose simple name matches the target.

    Candidates with no positive count against any window token are dropped;
    the rest are ordered by score, ties broken by lexicographically smaller
    FQN. Returns at most k (fqn, score) pairs. An empty model, or a target
    name the model has never seen, yields an empty list.
    """
    if k <= 0:
        return []
    window = context_window(aug, target, model.window_eta)
    scored: list[tuple[str, float]] = []
    for fqn in model.known_fqns_named(target.simple_name):
        if not any(model.counts.get((tok, fqn), 0) > 0 for tok in window):
            continue
        scored.append((fqn, score_candidate(model, window, fqn)))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


@dataclass(frozen=True)
class CandidateList:
    """Ordered, KB-filtered candidate FQNs for one element."""

    ranked: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.ranked)

    def top(self) -> str | None:
        return self.ranked[0] if self.ranked else None


def filter_against_kb(
    ranked: Sequence[tuple[str, float]], kb: KnowledgeBase, k: int
) -> CandidateList:
    """Drop (fqn, score) pairs whose FQN is not in kb, keep order, truncate
    to k FQNs.

    No padding happens when fewer than k survive; the list may be empty.
    """
    if k <= 0:
        return CandidateList(())
    kept: list[str] = []
    for fqn, _ in ranked:
        if fqn in kb and fqn not in kept:
            kept.append(fqn)
        if len(kept) == k:
            break
    return CandidateList(tuple(kept))


class Predictor(Protocol):
    """The statistical engine: ranks candidate FQNs for an element in
    context, best first, as at most k (fqn, score) pairs."""

    def predict(
        self, aug: AugmentedSnippet, target: ApiElement, k: int
    ) -> list[tuple[str, float]]: ...


class ExternalPredictor:
    """Adapter for an out-of-process predictor.

    Speaks a line protocol over the child's standard streams: one JSON
    request per line, {"context_lines": [...], "target_key": "Name[l,o]",
    "k": n}, answered by one JSON line holding an ordered array of candidate
    FQN strings. Scores are synthesized from rank so external candidates
    sort stably downstream.
    """

    def __init__(self, command: Sequence[str]):
        self.command = list(command)
        self._proc: subprocess.Popen | None = None

    def _ensure(self) -> subprocess.Popen:
        if self._proc is None or self._proc.poll() is not None:
            self.close()
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        return self._proc

    def predict(self, aug, target, k):
        proc = self._ensure()
        lines = aug.text().splitlines()
        request = {"context_lines": lines, "target_key": target.key, "k": k}
        assert proc.stdin is not None and proc.stdout is not None
        proc.stdin.write(json.dumps(request) + "\n")
        proc.stdin.flush()
        answer = proc.stdout.readline()
        if not answer:
            raise RuntimeError("external predictor closed its output stream")
        candidates = json.loads(answer)
        if not isinstance(candidates, list):
            raise RuntimeError("external predictor must answer a JSON array")
        ranked = []
        for rank, fqn in enumerate(candidates[:k]):
            ranked.append((str(fqn), float(len(candidates) - rank)))
        return ranked

    def close(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        assert proc.stdin is not None and proc.stdout is not None
        proc.stdin.close()
        proc.wait(timeout=5)
        proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def predict_all(
    predictor: Predictor,
    aug: AugmentedSnippet,
    elements: Sequence[ApiElement],
    kb: KnowledgeBase,
    k: int,
) -> dict[ApiElement, CandidateList]:
    """Predict and KB-filter candidates for every element, in token order.

    k limits the number of surviving candidates, not the raw ranking: the
    predictor is asked for a longer list so that dropping hallucinated
    (non knowledge-base) names still leaves up to k usable ones. For the
    co-occurrence model the over-fetch is harmless because its candidate
    universe per simple name is finite and small.
    """
    fetch = k + len(kb.entries) if k > 0 else 0
    out: dict[ApiElement, CandidateList] = {}
    for e in sorted(elements, key=lambda e: e.token_index):
        ranked = predictor.predict(aug, e, fetch)
        out[e] = filter_against_kb(ranked, kb, k)
    return out


# ---------------------------------------------------------------------------
# serialization

_HEADER_PREFIX = "cooccurrence"


def dump_model(model: CooccurrenceModel) -> str:
    """Serialize as a header line plus sorted, tab-delimited count records.

    Tokens are JSON-escaped because lexemes (string literals) may contain
    spaces, tabs or newlines. Deterministic: equal models dump identically.
    """
    lines = [
        f"{_HEADER_PREFIX}\talpha={model.smoothing_alpha!r}\teta={model.window_eta}"
    ]
    for (tok, fqn) in sorted(model.counts):
        n = model.counts[(tok, fqn)]
        if n <= 0:
            continue
        lines.append(f"count\t{json.dumps(tok)}\t{fqn}\t{n}")
    # FQNs with no counts at all still need to exist after a round-trip
    counted = {fqn for (_, fqn) in model.counts}
    for fqn in sorted(model.fqn_totals):
        if fqn not in counted:
            lines.append(f"fqn\t{fqn}")
    return "\n".join(lines) + "\n"


def save_model(model: CooccurrenceModel, path: str | Path) -> None:
    Path(path).write_text(dump_model(model), encoding="utf-8")


class ModelFormatError(ValueError):
    pass


def load_model(path: str | Path) -> CooccurrenceModel:
    text = read_utf8(path, ModelFormatError)
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise ModelFormatError("missing model header line")
    settings: dict[str, float | int] = {"alpha": 1.0, "eta": 2}
    for part in lines[0].split("\t")[1:]:
        key, _, value = part.partition("=")
        if key not in settings:
            raise ModelFormatError(f"line 1: unknown header field {key!r}")
        try:
            settings[key] = float(value) if key == "alpha" else int(value)
        except ValueError:
            raise ModelFormatError(f"line 1: bad {key} value {value!r}") from None
    try:
        model = CooccurrenceModel(
            smoothing_alpha=settings["alpha"], window_eta=settings["eta"]
        )
    except ValueError as exc:
        raise ModelFormatError(f"line 1: {exc}") from None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if parts[0] == "count" and len(parts) == 4:
            fqn = parts[2]
            try:
                tok = json.loads(parts[1])
                n = int(parts[3])
            except ValueError:
                raise ModelFormatError(
                    f"line {lineno}: bad count record {line!r}"
                ) from None
            if n <= 0:
                raise ModelFormatError(f"line {lineno}: nonpositive count")
            model.counts[(tok, fqn)] = model.counts.get((tok, fqn), 0) + n
            model.vocabulary.add(tok)
        elif parts[0] == "fqn" and len(parts) == 2:
            model.fqn_totals.setdefault(parts[1], 0)
        else:
            raise ModelFormatError(f"line {lineno}: bad record {line!r}")
    totals: dict[str, int] = dict.fromkeys(model.fqn_totals, 0)
    for (tok, fqn), n in model.counts.items():
        totals[fqn] = totals.get(fqn, 0) + n
    model.fqn_totals = totals
    return model
