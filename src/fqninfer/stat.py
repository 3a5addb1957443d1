"""Statistical type prediction from token co-occurrence counts.

The model plays the role a masked language model would play in a richer
system: given the tokens around an API element, rank fully-qualified names
for it. Here the ranking comes from Laplace-smoothed co-occurrence counts
gathered from a training corpus of snippets with known element types.

score(f) = sum over window tokens t of
    log( (rows[f][t] + alpha) / (fqn_totals[f] + alpha * |vocabulary|) )

where a token missing from f's row counts 0.

Only model-known FQNs whose simple name matches the target are ranked, and
a candidate needs at least one positive count against the window to appear
at all: the model does not propose types it has no contextual evidence for.
Given the KB its answers will be filtered against, the model ranks only the
FQNs that KB holds, so it scores no candidate the filter would drop and
builds no window for an element when the KB holds none of the model's FQNs
of its name.
A window is a slice of the snippet's word index (`Snippet.word_index`),
found by bisecting its lines.
A model learned from other corpora knows FQNs that exist nowhere in a
given KB; ranked without a KB it may name them. Such names are the
hallucination the KB filter is for, and a predictor that ignores the KB
(an external one) relies on it.

Every summand of the formula is a constant of the model, so the model
keeps a memo of each FQN's terms, filled at the FQN's first score and
never at load: the summand of each token with a nonzero count, the tokens
with a positive count, and the summand of every zero count,
log(alpha / denominator). A candidate is scored from one fetch of its
terms: its evidence is checked against the window first, and only then
are the summands added, left to right as the formula adds them, so every
score is the same float. An FQN with a term that is no float (a
nonpositive denominator, a summand outside log's domain) keeps only its
evidence, and the formula itself scores it.
"""

from __future__ import annotations

import json
import math
import os
import select
import selectors
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

from .kb import KnowledgeBase, simple_name_index
from .snippet import (
    ApiElement,
    AugmentedSnippet,
    Snippet,
    augment,
    read_utf8,
)


def _check_positive(name: str, value: object, limit: float = math.inf) -> None:
    """Raises ValueError unless value is an int or float, no bool, in (0, limit)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or not 0 < value < limit:
        raise ValueError(f"bad {name} value {value!r}")


def _check_settings(alpha: float, eta: int) -> None:
    # a zero alpha takes the log of zero for every unseen pair, and a
    # negative eta leaves every context window empty
    _check_positive("alpha", alpha)
    if isinstance(eta, bool) or not isinstance(eta, int) or eta < 0:
        raise ValueError(f"bad eta value {eta!r}")


# An FQN's score terms, (summands, positive, unseen):
#   summands  {token: log((c + alpha) / denom)} for each nonzero count c;
#             None when a term is no float, and `_formula` scores the FQN
#   positive  the tokens with a positive count, the evidence test
#   unseen    log(alpha / denom), the summand of every zero count
_Terms = tuple[dict[str, float] | None, frozenset[str], float]


@dataclass
class CooccurrenceModel:
    """Token/FQN co-occurrence counts plus smoothing configuration.

    `rows` holds one count row per FQN, `{fqn: {token: n}}`; a token absent
    from a row counts 0. `train` and `load_model` open a row at its FQN's
    first count, so no row they build is empty, and a trained model equals
    the model loaded from its dump. `counts` is a derived `{(token, fqn): n}`
    view, built afresh on each read.

    The fields are read-only after construction. The first
    `known_fqns_named` call builds the simple-name index it answers from,
    and scoring fills a memo of each model FQN's score terms (see the
    module docstring), at most one entry per model FQN scored; like the
    KB's memos both are sound because the fields never change, and they
    take no part in equality or repr.
    """

    rows: dict[str, dict[str, int]] = field(default_factory=dict)
    fqn_totals: dict[str, int] = field(default_factory=dict)
    vocabulary: set[str] = field(default_factory=set)
    smoothing_alpha: float = 1.0
    window_eta: int = 2
    _by_simple_name: dict[str, tuple[str, ...]] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    _terms: dict[str, _Terms] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        _check_settings(self.smoothing_alpha, self.window_eta)

    @property
    def counts(self) -> dict[tuple[str, str], int]:
        """A fresh `{(token, fqn): n}` dict of every count in `rows`."""
        return {
            (tok, fqn): n for fqn, row in self.rows.items() for tok, n in row.items()
        }

    def predict(
        self, aug: AugmentedSnippet, target: ApiElement, k: int, kb: KnowledgeBase
    ) -> list[tuple[str, float]]:
        return predict_topk(self, aug, target, k, kb)

    def known_fqns_named(self, simple_name: str) -> tuple[str, ...]:
        """The stored tuple of model FQNs with this simple name,
        lexicographically ordered. The first call builds the index."""
        index = self._by_simple_name
        if index is None:
            index = self._by_simple_name = simple_name_index(self.fqn_totals)
        return index.get(simple_name, ())


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
    rows: dict[str, dict[str, int]] = {}
    totals: dict[str, int] = {}
    for snippet, truth in corpus:
        aug = augment(snippet, truth)
        for e, fqn in truth.items():
            window = context_window(aug, e, eta)
            # a truth FQN is kept even when its window gathers no tokens,
            # but its row opens only at its first token
            totals[fqn] = totals.get(fqn, 0) + len(window)
            if window:
                row = rows.get(fqn)
                if row is None:
                    row = rows[fqn] = {}
                for tok in window:
                    row[tok] = row.get(tok, 0) + 1
    # every window token lands in a row, so the rows' tokens are the
    # vocabulary
    return CooccurrenceModel(rows, totals, set().union(*rows.values()), alpha, eta)


_NO_COUNTS: Mapping[str, int] = {}  # the row of an FQN with no counts


def _fill_terms(model: CooccurrenceModel, fqn: str) -> _Terms:
    """fqn's score terms, computed as the formula computes each summand;
    memoized when fqn is a model FQN."""
    row = model.rows.get(fqn, _NO_COUNTS)
    alpha = model.smoothing_alpha
    positive = frozenset(tok for tok, c in row.items() if c > 0)
    try:
        denom = model.fqn_totals.get(fqn, 0) + alpha * len(model.vocabulary)
        # a nonpositive denom fails here too, dividing by zero or outside log's domain
        unseen = math.log(alpha / denom)
        summands = {tok: math.log((c + alpha) / denom) for tok, c in row.items() if c}
    except (ArithmeticError, ValueError):
        summands, unseen = None, 0.0
    terms = (summands, positive, unseen)
    if fqn in model.fqn_totals:
        model._terms[fqn] = terms
    return terms


def _formula(model: CooccurrenceModel, window: Sequence[str], fqn: str) -> float:
    """score(fqn) over the window, as the module docstring writes it: minus
    infinity when the denominator is not positive, else the summands added
    left to right, raising the first failure as it occurs."""
    alpha = model.smoothing_alpha
    denom = model.fqn_totals.get(fqn, 0) + alpha * len(model.vocabulary)
    if denom <= 0:
        return float("-inf")
    row = model.rows.get(fqn, _NO_COUNTS)
    total = 0.0
    for tok in window:
        total += math.log((row.get(tok, 0) + alpha) / denom)
    return total


def _score(
    model: CooccurrenceModel, window: Sequence[str], fqn: str, terms: _Terms | None = None
) -> float:
    """score(fqn) over the window, from the terms given or else memoized."""
    summands, _, unseen = terms or model._terms.get(fqn) or _fill_terms(model, fqn)
    if summands is None:
        return _formula(model, window, fqn)
    # a plain loop: from Python 3.12, sum() of floats is compensated, so it
    # would not give the formula's float
    total = 0.0
    for tok in window:
        total += summands.get(tok, unseen)
    return total


def predict_topk(
    model: CooccurrenceModel,
    aug: AugmentedSnippet,
    target: ApiElement,
    k: int,
    kb: KnowledgeBase | None = None,
) -> list[tuple[str, float]]:
    """Rank model-known FQNs whose simple name matches the target; given a
    kb, only those the kb holds.

    Candidates with no positive count against any window token are dropped
    before they are scored; the rest are ordered by score, ties broken by
    lexicographically smaller FQN. Returns at most k (fqn, score) pairs. An
    empty model, or a target name with no candidate, yields an empty list
    without building the context window. A candidate's score does not
    depend on the others, so the ranking with a kb is the ranking without
    one, less the FQNs outside the kb, as long as no FQN outside it fails
    to score.
    """
    if k <= 0:
        return []
    if kb is None:
        fqns = model.known_fqns_named(target.simple_name)
    else:
        # the kb keys an FQN by the model's simple-name rule, so those of
        # its FQNs the model knows are the model's FQNs of this name in kb
        fqns = kb.candidates_for(target.simple_name)
    totals = model.fqn_totals
    memo = model._terms  # holds model FQNs only
    window: list[str] | None = None  # built at the first known candidate
    scored: list[tuple[str, float]] = []
    for fqn in fqns:
        terms = memo.get(fqn)
        if terms is None:
            if fqn not in totals:
                continue
            terms = _fill_terms(model, fqn)
        if window is None:
            window = context_window(aug, target, model.window_eta)
        if terms[1].isdisjoint(window):
            continue
        scored.append((fqn, _score(model, window, fqn, terms)))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


@dataclass(frozen=True)
class CandidateList:
    """Ordered, KB-filtered candidate FQNs for one element."""

    ranked: tuple[str, ...]


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
    context, best first, as at most k (fqn, score) pairs.

    `kb` is the knowledge base the answer will be filtered against. A
    predictor may rank only FQNs it holds, as `CooccurrenceModel` does, or
    ignore it, as `ExternalPredictor` does: `predict_all` drops every FQN
    outside it either way."""

    def predict(
        self, aug: AugmentedSnippet, target: ApiElement, k: int, kb: KnowledgeBase
    ) -> list[tuple[str, float]]: ...


class ExternalPredictor:
    """Adapter for an out-of-process predictor.

    Speaks a line protocol over the child's standard streams: one JSON
    request per line, {"context_lines": [...], "target_key": "Name[l,o]",
    "k": n}, answered by one JSON line holding an ordered array of candidate
    FQN strings. `context_lines` is the text split at line feeds alone, as
    keys count lines, so `context_lines[l - 1]` is line l of every key.
    Scores are synthesized from rank only to fill the `Predictor` (fqn,
    score) pair shape: `filter_against_kb` keeps the child's order and
    drops them. The KB is not sent: the child may name any FQN, and
    `predict_all` filters its answer. The child's standard error is
    discarded.

    `timeout` is the one deadline, in seconds: `predict` waits at most that
    long for the child to take each request and answer it, and `close()` at
    most that long for the child to exit before it kills it. A `command`
    that is a str, is empty or holds a non-str, and a `timeout` that is no
    int or float in (0, inf) or is beyond float range raise ValueError.
    """

    def __init__(self, command: Sequence[str], timeout: float = 5.0):
        args = None if isinstance(command, str) else list(command)
        if not args or not all(isinstance(arg, str) for arg in args):
            raise ValueError(f"bad command value {command!r:.80}")
        _check_positive("timeout", timeout, sys.float_info.max)
        self.command = args
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._pending = b""  # output read past the last answer line

    def predict(self, aug, target, k, kb):
        """Raises RuntimeError when the child has exited, has closed its
        input, does not take the request and answer it within the deadline
        or answers out of protocol, with a line that is not a JSON array of
        strings. A child that misses the deadline is killed, so a late
        answer is never read as the answer to a later request. The child
        starts on first use, and again only after `close()`."""
        proc = self._proc
        if proc is None:
            proc = self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        elif proc.poll() is not None:
            raise RuntimeError(
                f"external predictor exited with status {proc.returncode}"
            )
        # keys count lines at "\n" alone; str.splitlines also breaks at a
        # form feed, "\x85", "\u2028" and the other separators
        lines = aug.text().removesuffix("\n").split("\n")
        request = {"context_lines": lines, "target_key": target.key, "k": k}
        deadline = time.monotonic() + self.timeout
        self._send(proc, json.dumps(request).encode() + b"\n", deadline)
        try:
            candidates = json.loads(self._answer_line(proc, deadline))
        except (ValueError, RecursionError):  # not JSON, or nested too deep
            candidates = None
        if not isinstance(candidates, list):
            raise RuntimeError("external predictor must answer a JSON array")
        if not all(isinstance(fqn, str) for fqn in candidates):
            raise RuntimeError("external predictor must answer an array of strings")
        n = len(candidates)
        return [(fqn, float(n - rank)) for rank, fqn in enumerate(candidates[:k])]

    def _expire(self, proc: subprocess.Popen, what: str) -> RuntimeError:
        """Kills the child that missed the deadline; the error to raise."""
        proc.kill()
        proc.wait()
        return RuntimeError(f"external predictor {what} within {self.timeout} s")

    def _send(self, proc: subprocess.Popen, data: bytes, deadline: float) -> None:
        """Writes data to the child's input, waiting for room at most until
        the deadline. Each write after a wait is at most PIPE_BUF bytes, so
        it cannot block."""
        assert proc.stdin is not None
        fd = proc.stdin.fileno()
        view = memoryview(data)
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_WRITE)
            while view:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise self._expire(proc, "did not read its request")
                try:
                    view = view[os.write(fd, view[: select.PIPE_BUF]):]
                except BrokenPipeError:
                    raise RuntimeError(
                        "external predictor closed its input stream"
                    ) from None

    def _answer_line(self, proc: subprocess.Popen, deadline: float) -> bytes:
        """The child's next output line, waiting for output at most until
        the deadline; a line already read does not wait. Output is read
        from the pipe's descriptor, so no buffer hides a line from the
        wait. The last line may end at the end of output instead of at a
        newline."""
        assert proc.stdout is not None
        fd = proc.stdout.fileno()
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise self._expire(proc, "gave no answer")
                chunk = os.read(fd, 65536)
                if not chunk:
                    if not self._pending:
                        raise RuntimeError("external predictor closed its output stream")
                    break
                self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line

    def close(self) -> None:
        proc, self._proc = self._proc, None
        self._pending = b""
        if proc is None:
            return
        # communicate ignores a broken input pipe, closes both pipes and
        # reaps the child
        try:
            proc.communicate(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            # the child outlived its input: stop it rather than leave it
            proc.kill()
            proc.communicate()

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
    (non knowledge-base) names still leaves up to k usable ones. The
    over-fetch serves predictors that ignore `kb`; the co-occurrence model
    ranks only KB FQNs, so the filter drops none of its answer. With k <= 0
    the predictor is not asked, and every element gets an empty list.
    """
    ordered = sorted(elements, key=lambda e: e.token_index)
    if k <= 0:
        return {e: CandidateList(()) for e in ordered}
    fetch = k + len(kb.entries)
    return {
        e: filter_against_kb(predictor.predict(aug, e, fetch, kb), kb, k)
        for e in ordered
    }


# ---------------------------------------------------------------------------
# serialization

_HEADER_PREFIX = "cooccurrence"
# the function json.dumps writes a str with under its default settings
_quote_token = json.encoder.encode_basestring_ascii
# json's string scanner, taken if the literal spans the field; else json.loads decides
_scan_token = json.decoder.scanstring


def dump_model(model: CooccurrenceModel) -> str:
    """Serialize as a header line plus sorted, tab-delimited count records.

    Count records are sorted by (token, fqn), and only positive counts are
    written. Tokens are JSON-escaped because lexemes (string literals) may
    contain spaces, tabs or newlines; each is written exactly as
    `json.dumps` writes it. Each distinct token is encoded once, as
    `load_model` decodes each once. Deterministic: equal models dump
    identically.

    Raises ValueError for a model whose dump `load_model` would refuse: a
    count that is not an int, a written token that is not a str or that
    loads back as another token (a lone high surrogate followed by a lone
    low one), an FQN that is not a str or holds a tab or line break, a row
    whose positive counts total beyond float range, or an alpha beyond
    float range.
    Zero and negative counts are not written, and the totals are not
    checked against the rows.
    """
    if model.smoothing_alpha > sys.float_info.max:
        raise ValueError("cannot dump model: alpha is beyond float range")
    lines = [
        f"{_HEADER_PREFIX}\talpha={model.smoothing_alpha!r}\teta={model.window_eta}"
    ]
    # a row holds a token once, so sorting each token's (fqn, n) pairs
    # orders the records by (token, fqn)
    by_token: dict[str, list[tuple[str, int]]] = {}
    # an FQN with no positive count writes no count record, but must still
    # exist after a round-trip
    counted: set[str] = set()
    for fqn, row in model.rows.items():
        _check_dump_fqn(fqn)
        total = 0
        for tok, n in row.items():
            if type(n) is not int:
                raise ValueError(
                    f"cannot dump model: count {n!r:.80} of {_shown(fqn)} is not an int"
                )
            if n > 0:
                by_token.setdefault(tok, []).append((fqn, n))
                total += n
        if total:
            counted.add(fqn)
            if total > sys.float_info.max:
                raise ValueError(
                    f"cannot dump model: total count of {_shown(fqn)} is beyond"
                    " float range"
                )
    for fqn in model.fqn_totals:
        if fqn not in model.rows:
            _check_dump_fqn(fqn)
    for tok in by_token:
        if not isinstance(tok, str):
            raise ValueError(f"cannot dump model: token {tok!r:.80} is not a str")
    append = lines.append
    for tok in sorted(by_token):
        quoted = _quote_token(tok)
        # the scanner joins a high and a low surrogate escape into one character
        if "\\ud" in quoted and _scan_token(quoted, 1)[0] != tok:
            raise ValueError(
                f"cannot dump model: token {tok!r:.80} does not load back as itself"
            )
        head = f"count\t{quoted}\t"
        pairs = by_token[tok]
        pairs.sort()
        for fqn, n in pairs:
            append(f"{head}{fqn}\t{n}")
    for fqn in sorted(model.fqn_totals):
        if fqn not in counted:
            append(f"fqn\t{fqn}")
    return "\n".join(lines) + "\n"


def _check_dump_fqn(fqn: object) -> None:
    """Raise ValueError for an FQN that no record can hold: `load_model`
    splits records at tabs, and reads with universal newlines."""
    if not isinstance(fqn, str):
        raise ValueError(f"cannot dump model: FQN {fqn!r:.80} is not a str")
    if "\t" in fqn or "\n" in fqn or "\r" in fqn:
        raise ValueError(
            f"cannot dump model: FQN {_shown(fqn)} holds a tab or line break"
        )


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
    """Parse a model file as `dump_model` writes it.

    The first line is the header: `cooccurrence`, then optional
    tab-separated `alpha=<float>` and `eta=<int>` fields (1.0 and 2 if
    absent). Each later line is a record: `count<TAB><token><TAB><fqn><TAB><n>`
    adds a positive int n to the FQN's count of the token, `fqn<TAB><fqn>`
    makes the FQN known without counts, and empty lines and lines starting
    with `#` are skipped. A token is one JSON string, read as `json.loads`
    reads it. An FQN's total is the sum of its counts.

    Raises ModelFormatError as `<path>:<line>: <message>` for text that is
    not UTF-8, a missing or bad header, a bad record or a nonpositive
    count, and as
    `<path>: <message>` for an FQN whose total is beyond float range.
    """
    text = read_utf8(path, ModelFormatError)

    def bad(lineno: int, message: str) -> ModelFormatError:
        return ModelFormatError(f"{path}:{lineno}: {message}")

    # records end at "\n" alone: str.splitlines would also end one at a
    # form feed, "\x85" or "\u2028" inside a token
    lines = text.split("\n")
    if not lines[0].startswith(_HEADER_PREFIX):
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
    rows: dict[str, dict[str, int]] = {}
    # an FQN enters totals at its first record, so totals keeps first-seen
    # order; the totals of counted FQNs are summed after the parse
    totals: dict[str, int] = {}
    # few distinct tokens stand in many records; a bad one never enters, so
    # the decoded tokens are the vocabulary
    decoded: dict[str, str] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) == 4 and parts[0] == "count":
            _, quoted, fqn, count = parts
            try:
                tok = decoded.get(quoted)
                if tok is None:
                    if quoted[:1] == '"':
                        tok, end = _scan_token(quoted, 1)
                        if end != len(quoted):
                            tok = None
                    if tok is None:
                        tok = json.loads(quoted)
                        # a token is a lexeme, so any other JSON value is bad
                        if not isinstance(tok, str):
                            raise ValueError(tok)
                    decoded[quoted] = tok
                n = int(count)
            except (ValueError, RecursionError):
                raise bad(lineno, f"bad count record {_shown(line)}") from None
            if n <= 0:
                raise bad(lineno, "nonpositive count")
            row = rows.get(fqn)
            if row is None:
                # later records of this FQN find its row, so its string is
                # kept once
                row = rows[fqn] = {}
                totals.setdefault(fqn, 0)
            row[tok] = row.get(tok, 0) + n
        elif len(parts) == 2 and parts[0] == "fqn":
            totals.setdefault(parts[1], 0)
        elif line and line[0] != "#":
            raise bad(lineno, f"bad record {_shown(line)}")
    for fqn, row in rows.items():
        total = totals[fqn] = sum(row.values())
        # every count is at most its FQN's total, so this bounds them all:
        # a count float() cannot hold would fail every score of the FQN
        if total > sys.float_info.max:
            raise ModelFormatError(
                f"{path}: total count of {_shown(fqn)} is beyond float range"
            )
    vocabulary = set(decoded.values())
    return CooccurrenceModel(rows, totals, vocabulary, alpha, eta)
