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
A window is a slice of the snippet's word index (`Snippet.word_index`),
found by bisecting its lines, and each candidate is scored and checked for
evidence in one pass over the window, one count lookup per token.
Predictions may still name FQNs that exist nowhere in a given KB (learned
from other corpora), which is exactly the hallucination the KB filter is
for.
"""

from __future__ import annotations

import json
import math
import subprocess
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

from .kb import KnowledgeBase
from .snippet import (
    ApiElement,
    AugmentedSnippet,
    Snippet,
    augment,
    read_utf8,
)


def _check_settings(alpha: float, eta: int) -> None:
    # a zero alpha takes the log of zero for every unseen pair, and a
    # negative eta leaves every context window empty
    if not 0 < alpha < math.inf:
        raise ValueError(f"bad alpha value {alpha!r}")
    if eta < 0:
        raise ValueError(f"bad eta value {eta!r}")


@dataclass
class CooccurrenceModel:
    """Token/FQN co-occurrence counts plus smoothing configuration.

    The fields are read-only after construction, which builds the
    simple-name index that `known_fqns_named` answers from.
    """

    counts: dict[tuple[str, str], int] = field(default_factory=dict)
    fqn_totals: dict[str, int] = field(default_factory=dict)
    vocabulary: set[str] = field(default_factory=set)
    smoothing_alpha: float = 1.0
    window_eta: int = 2
    _by_simple_name: dict[str, list[str]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _check_settings(self.smoothing_alpha, self.window_eta)
        self._by_simple_name = {}
        for fqn in self.fqn_totals:
            # a simple name is one identifier, so it is all after the last dot
            self._by_simple_name.setdefault(fqn.rpartition(".")[2], []).append(fqn)
        for fqns in self._by_simple_name.values():
            fqns.sort()

    def predict(
        self, aug: AugmentedSnippet, target: ApiElement, k: int
    ) -> list[tuple[str, float]]:
        return predict_topk(self, aug, target, k)

    def known_fqns_named(self, simple_name: str) -> list[str]:
        """Model FQNs with this simple name, lexicographically ordered."""
        return list(self._by_simple_name.get(simple_name, ()))


def context_window(
    aug: AugmentedSnippet, element: ApiElement, eta: int
) -> list[str]:
    """Identifier and literal lexemes within +-eta lines of the element's
    line, excluding the element's own token. Substituted FQNs of other
    elements appear as single tokens. Order follows the token stream.

    The window is a slice of the source snippet's word index, found by
    bisecting its lines, read from the augmented tokens.
    """
    lines, indices = aug.source.word_index
    start = bisect_left(lines, element.line - eta)
    stop = bisect_right(lines, element.line + eta)
    tokens = aug.tokens
    own = element.token_index
    return [tokens[i].lexeme for i in indices[start:stop] if i != own]


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

    Each snippet is augmented once, with every truth element substituted.
    That gives every element its leave-one-out window, because an element's
    window never holds its own token, and its own token is the only one the
    two augmentations differ at. Training cost is therefore linear in the
    snippet's size, and every truth key is checked against the snippet.
    """
    _check_settings(alpha, eta)
    counts: dict[tuple[str, str], int] = {}
    totals: dict[str, int] = {}
    vocabulary: set[str] = set()
    for snippet, truth in corpus:
        aug = augment(snippet, truth)
        for e, fqn in truth.items():
            # a truth FQN is kept even when its window gathers no tokens
            totals.setdefault(fqn, 0)
            for tok in context_window(aug, e, eta):
                counts[(tok, fqn)] = counts.get((tok, fqn), 0) + 1
                totals[fqn] += 1
                vocabulary.add(tok)
    return CooccurrenceModel(counts, totals, vocabulary, alpha, eta)


def score_candidate(
    model: CooccurrenceModel, window: Sequence[str], fqn: str
) -> float:
    """score(fqn) over the window, as the module docstring defines it;
    minus infinity when the denominator is not positive."""
    return _score(model, window, fqn)[0]


def _score(
    model: CooccurrenceModel, window: Sequence[str], fqn: str
) -> tuple[float, bool]:
    """The score of fqn against window, and whether some window token has
    a positive count with fqn, from one count lookup per window token.

    Every zero count adds the same summand, log(alpha / denom), which equals
    log((0 + alpha) / denom) exactly, so it is computed once. The summands
    and their order are the formula's, so the score is the same float.
    """
    counts = model.counts
    alpha = model.smoothing_alpha
    denom = model.fqn_totals.get(fqn, 0) + alpha * len(model.vocabulary)
    if denom <= 0:
        return float("-inf"), any(counts.get((tok, fqn), 0) > 0 for tok in window)
    total = 0.0
    evidence = False
    unseen = None  # log(alpha / denom), computed where the formula first would
    for tok in window:
        c = counts.get((tok, fqn), 0)
        if c:
            if c > 0:
                evidence = True
            total += math.log((c + alpha) / denom)
        else:
            if unseen is None:
                unseen = math.log(alpha / denom)
            total += unseen
    return total, evidence


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
        try:
            score, evidence = _score(model, window, fqn)
        except (ArithmeticError, ValueError):
            # a summand outside log's domain (a hand-built model's negative
            # count) fails only a candidate with evidence; one without is
            # dropped before it is scored
            if any(model.counts.get((tok, fqn), 0) > 0 for tok in window):
                raise
            continue
        if evidence:
            scored.append((fqn, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


@dataclass(frozen=True)
class CandidateList:
    """Ordered, KB-filtered candidate FQNs for one element."""

    ranked: tuple[str, ...]

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
    spaces, tabs or newlines. Each distinct token is encoded once, as
    `load_model` decodes each once. Deterministic: equal models dump
    identically.
    """
    lines = [
        f"{_HEADER_PREFIX}\talpha={model.smoothing_alpha!r}\teta={model.window_eta}"
    ]
    encoded: dict[str, str] = {}
    for (tok, fqn) in sorted(model.counts):
        n = model.counts[(tok, fqn)]
        if n <= 0:
            continue
        quoted = encoded.get(tok)
        if quoted is None:
            quoted = encoded[tok] = json.dumps(tok)
        lines.append(f"count\t{quoted}\t{fqn}\t{n}")
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


def _shown(record: str) -> str:
    """A record as an error message quotes it: its first 80 characters at
    most, so a huge malformed record still gives a short error line."""
    if len(record) <= 80:
        return repr(record)
    return f"{record[:80]!r}... ({len(record)} characters)"


def load_model(path: str | Path) -> CooccurrenceModel:
    text = read_utf8(path, ModelFormatError)

    def bad(lineno: int, message: str) -> ModelFormatError:
        return ModelFormatError(f"{path}:{lineno}: {message}")

    lines = text.splitlines()
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise bad(1, "missing model header line")
    settings: dict[str, float | int] = {"alpha": 1.0, "eta": 2}
    for part in lines[0].split("\t")[1:]:
        key, _, value = part.partition("=")
        if key not in settings:
            raise bad(1, f"unknown header field {key!r}")
        try:
            settings[key] = float(value) if key == "alpha" else int(value)
        except ValueError:
            raise bad(1, f"bad {key} value {value!r}") from None
    alpha, eta = settings["alpha"], settings["eta"]
    try:
        _check_settings(alpha, eta)
    except ValueError as exc:
        raise bad(1, str(exc)) from None
    counts: dict[tuple[str, str], int] = {}
    totals: dict[str, int] = {}
    vocabulary: set[str] = set()
    # few distinct tokens stand in many records; a bad one never enters
    decoded: dict[str, str] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if parts[0] == "count" and len(parts) == 4:
            fqn = parts[2]
            try:
                tok = decoded.get(parts[1])
                if tok is None:
                    tok = json.loads(parts[1])
                    # a token is a lexeme, so any other JSON value is bad
                    if not isinstance(tok, str):
                        raise ValueError(tok)
                    decoded[parts[1]] = tok
                n = int(parts[3])
            except (ValueError, RecursionError):
                raise bad(lineno, f"bad count record {_shown(line)}") from None
            if n <= 0:
                raise bad(lineno, "nonpositive count")
            counts[(tok, fqn)] = counts.get((tok, fqn), 0) + n
            totals[fqn] = totals.get(fqn, 0) + n
            vocabulary.add(tok)
        elif parts[0] == "fqn" and len(parts) == 2:
            totals.setdefault(parts[1], 0)
        else:
            raise bad(lineno, f"bad record {_shown(line)}")
    return CooccurrenceModel(counts, totals, vocabulary, alpha, eta)
