"""Statistical type prediction from token co-occurrence counts.

The model plays the role a masked language model would play in a richer
system: given the tokens around an API element, rank fully-qualified names
for it. Here the ranking comes from Laplace-smoothed co-occurrence counts
gathered from a training corpus of snippets with known element types.

score(f) = sum over window tokens t of
    log( (rows[f][t] + alpha) / (total(f) + alpha * |vocabulary|) )

where total(f) is the sum of f's row and a token missing from it counts 0.

Only model-known FQNs whose simple name matches the target are ranked, and
a candidate needs at least one count against the window to appear at all:
the model does not propose types it has no contextual evidence for.
Given the KB its answers will be filtered against, the model ranks only the
FQNs that KB holds, so it scores no candidate the filter would drop and
builds no window for an element when the KB holds none of the model's FQNs
of its name.
A window is a slice of the word columns of the snippet's structure
(`Snippet.structure`), found by bisecting its lines.
A model learned from other corpora knows FQNs that exist nowhere in a
given KB; ranked without a KB it may name them. Such names are the
hallucination the KB filter is for, and a predictor that ignores the KB
(an external one) relies on it.

Every summand of the formula is a constant of the model, so the model
keeps a memo of each FQN's terms, filled at the FQN's first score and
never at load: the summand of each token in its row, and the summand of
every zero count, log(alpha / denominator). The model's constructor
refuses any model for which one of these would fail, and is the one check
of what a model may hold: every model it accepts that `dump_model` writes
loads back equal. A candidate's row is checked against the window first,
and only a candidate with evidence is scored: its summands are added left
to right as the formula adds them, so every score is the same float.
"""

from __future__ import annotations

import json
import math
import os
import re
import select
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Protocol, Sequence

from .kb import KnowledgeBase, simple_name_index
from .snippet import (
    ApiElement,
    AugmentedSnippet,
    Snippet,
    _value_tuple,
    augment,
    collector_paused,
    read_utf8,
)


def _check_positive(name: str, value: object, limit: float = math.inf) -> None:
    """Raises ValueError unless value is an int or float, no bool, in (0, limit)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or not 0 < value < limit:
        raise ValueError(f"bad {name} value {value!r:.80}")


def _check_settings(alpha: float, eta: int) -> None:
    # a zero alpha takes the log of zero for every unseen pair, and a
    # negative eta leaves every context window empty
    _check_positive("alpha", alpha)
    if isinstance(eta, bool) or not isinstance(eta, int) or eta < 0:
        raise ValueError(f"bad eta value {eta!r}")


def _shown(record: str) -> str:
    """A record as an error message quotes it: its first 80 characters at
    most, so a huge malformed record still gives a short error line."""
    if len(record) <= 80:
        return repr(record)
    return f"{record[:80]!r}... ({len(record)} characters)"


_UNWRITABLE_FQN = re.compile("[\t\n\r\ud800-\udfff]")
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


# An FQN's score terms, (summands, unseen):
#   summands  {token: log((c + alpha) / denom)} for each count c in its row
#   unseen    log(alpha / denom), the summand of every zero count
_Terms = tuple[dict[str, float], float]


@dataclass
class CooccurrenceModel:
    """Token/FQN co-occurrence counts plus smoothing configuration.

    `rows` holds one count row per known FQN, `{fqn: {token: n}}`, and is
    the model's only count store: every count is an int of at least 1, a
    token absent from a row counts 0, and an FQN known without counts has
    an empty row. `fqn_totals` is derived from it, each row's sum, and
    `counts` is a derived `{(token, fqn): n}` view, built afresh on each
    read. `smoothing_alpha` is stored as a float, as the dump writes it.

    The constructor raises ValueError for a bad setting, for `rows` or a
    row that is no dict and a `vocabulary` that is no set or frozenset,
    for a row holding a count that is no int or is below 1 or a token the
    vocabulary lacks, for a row whose total float() cannot hold, and for
    an alpha at which log(alpha / denominator) fails for the largest
    total, so that no score term of the model fails. It also raises it for
    what a model file would not give back as itself: an alpha float()
    cannot hold, an FQN that is no str or holds a tab, a line break or a
    surrogate, and a token that is no str or holds a high surrogate
    followed by a low one.

    The fields are read-only after construction. The first
    `known_fqns_named` call builds the simple-name index it answers from,
    and scoring fills a memo of each model FQN's score terms (see the
    module docstring), at most one entry per model FQN scored; like the
    KB's memos both are sound because the fields never change, and they
    take no part in equality or repr, as the derived totals do not.
    """

    rows: dict[str, dict[str, int]] = field(default_factory=dict)
    vocabulary: set[str] = field(default_factory=set)
    smoothing_alpha: float = 1.0
    window_eta: int = 2
    fqn_totals: dict[str, int] = field(init=False, repr=False, compare=False)
    _by_simple_name: dict[str, tuple[str, ...]] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    _terms: dict[str, _Terms] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        _check_settings(self.smoothing_alpha, self.window_eta)
        try:  # the header writes alpha as this float
            alpha = self.smoothing_alpha = float(self.smoothing_alpha)
        except OverflowError:
            raise ValueError(f"bad alpha value {self.smoothing_alpha!r:.80}") from None
        rows, vocabulary = self.rows, self.vocabulary
        if not isinstance(rows, dict):
            raise ValueError(f"rows is a {type(rows).__name__}, not a dict")
        if not isinstance(vocabulary, (set, frozenset)):
            raise ValueError(f"vocabulary is a {type(vocabulary).__name__}, not a set")
        # one string of the FQNs and one of the tokens, so that no check of
        # what a file holds is Python work per row
        try:
            fqns, tokens = "".join(rows), "\n".join(vocabulary)
        except TypeError:
            what, bad = next((what, x) for what, xs in (("FQN", rows), ("token", vocabulary))
                             for x in xs if not isinstance(x, str))
            raise ValueError(f"{what} {bad!r:.80} is not a str") from None
        # load_model splits records at tabs and reads UTF-8, which holds no
        # surrogate, with universal newlines
        if ("\t" in fqns or "\n" in fqns or "\r" in fqns
                or not fqns.isascii() and _UNWRITABLE_FQN.search(fqns)):
            fqn = next(f for f in rows if _UNWRITABLE_FQN.search(f))
            raise ValueError(f"FQN {_shown(fqn)} holds a tab, a line break or a surrogate")
        # json.loads joins a high and a low surrogate escape into one character
        if not tokens.isascii() and _SURROGATE_PAIR.search(tokens):
            tok = next(t for t in vocabulary if _SURROGATE_PAIR.search(t))
            raise ValueError(f"token {_shown(tok)} does not load back as itself")
        totals = self.fqn_totals = {}
        limit = sys.float_info.max
        for fqn, row in rows.items():
            if not isinstance(row, dict):
                what = type(row).__name__
                raise ValueError(f"the row of {_shown(fqn)} is a {what}, not a dict")
            counts = row.values()
            try:
                total = sum(counts)
            except (TypeError, OverflowError):  # a str, or a float beside a huge int
                total = None
            if type(total) is not int or (row and min(counts) < 1):
                raise ValueError(f"a count of {_shown(fqn)} is not a positive int")
            # every count is at most its row's total, so this bounds them all
            if total > limit:
                raise ValueError(f"total count of {_shown(fqn)} is beyond float range")
            # a token outside it sums the row past 1; a superset is sound
            if not vocabulary.issuperset(row):
                raise ValueError(f"a token of {_shown(fqn)} is not in the vocabulary")
            totals[fqn] = total
        # the largest total gives the smallest alpha / denominator, so when
        # its log is a float every summand of every row is one; alpha is
        # finite and that denominator at least 1, so no log here is infinite
        largest = max(totals.values(), default=0)
        try:
            largest and math.log(alpha / (largest + alpha * len(vocabulary)))
        except (ArithmeticError, ValueError):
            raise ValueError(f"bad alpha value {alpha!r}") from None

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
            index = self._by_simple_name = simple_name_index(self.rows)
        return index.get(simple_name, ())


def context_window(
    aug: AugmentedSnippet, element: ApiElement, eta: int
) -> list[str]:
    """Identifier and literal lexemes within +-eta lines of the element's
    line, excluding the element's own token. Substituted FQNs of other
    elements appear as single tokens. Order follows the token stream.

    The window is a slice of the source snippet's word columns, found by
    bisecting their lines, read from the augmentation's lexeme column: the
    kinds and lines the columns were read from are the source's.
    """
    structure = aug.source.structure
    lines = structure.word_lines
    start = bisect_left(lines, element.line - eta)
    stop = bisect_right(lines, element.line + eta)
    lexemes = aug.lexemes
    own = element.token_index
    return [lexemes[i] for i in structure.word_indices[start:stop] if i != own]


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
    for snippet, truth in corpus:
        aug = augment(snippet, truth)
        for e, fqn in truth.items():
            # a truth FQN is kept even when its window gathers no tokens
            row = rows.get(fqn)
            if row is None:
                row = rows[fqn] = {}
            for tok in context_window(aug, e, eta):
                row[tok] = row.get(tok, 0) + 1
    # every window token lands in a row, so the rows' tokens are the
    # vocabulary
    return CooccurrenceModel(rows, set().union(*rows.values()), alpha, eta)


def _score(model: CooccurrenceModel, window: Sequence[str], fqn: str) -> float:
    """score(fqn) over the window, from fqn's memoized terms, which its
    first score fills. fqn is a model FQN with counts: `predict_topk`
    scores no other."""
    terms = model._terms.get(fqn)
    if terms is None:
        row = model.rows[fqn]
        alpha = model.smoothing_alpha
        denom = model.fqn_totals[fqn] + alpha * len(model.vocabulary)
        terms = model._terms[fqn] = (
            {tok: math.log((c + alpha) / denom) for tok, c in row.items()},
            math.log(alpha / denom),
        )
    summands, unseen = terms
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

    Candidates whose row counts no window token are dropped before they
    are scored; the rest are ordered by score, ties broken by
    lexicographically smaller FQN. Returns at most k (fqn, score) pairs. An
    empty model, or a target name with no candidate, yields an empty list
    without building the context window. A candidate's score does not
    depend on the others, so the ranking with a kb is the ranking without
    one, less the FQNs outside the kb.
    """
    if k <= 0:
        return []
    if kb is None:
        fqns = model.known_fqns_named(target.simple_name)
    else:
        # the kb keys an FQN by the model's simple-name rule, so those of
        # its FQNs the model knows are the model's FQNs of this name in kb
        fqns = kb.candidates_for(target.simple_name)
    rows = model.rows
    window: list[str] | None = None  # built at the first known candidate
    scored: list[tuple[str, float]] = []
    for fqn in fqns:
        row = rows.get(fqn)
        if row is None:
            continue
        if window is None:
            window = context_window(aug, target, model.window_eta)
        # evidence first, so an empty row is never scored
        if row.keys().isdisjoint(window):
            continue
        scored.append((fqn, _score(model, window, fqn)))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


@_value_tuple
class CandidateList(NamedTuple):
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


_MAX_ANSWER = 1 << 24  # bytes: far beyond any answer of k plus a name's KB FQNs


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

    def predict(self, aug, target, k, kb):
        """Raises RuntimeError when the child has exited, has closed its
        input, does not take the request and answer it within the deadline,
        or answers out of turn, in more than one line or _MAX_ANSWER bytes,
        or with no JSON array of strings. A child that misses the deadline or
        floods is killed. It starts on first use, and again only after close()."""
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
        answer = self._exchange(proc, json.dumps(request).encode() + b"\n")
        try:
            candidates = json.loads(answer)
        except (ValueError, RecursionError):  # not JSON, or nested too deep
            candidates = None
        if not isinstance(candidates, list):
            raise RuntimeError("external predictor must answer a JSON array")
        if not all(isinstance(fqn, str) for fqn in candidates):
            raise RuntimeError("external predictor must answer an array of strings")
        n = len(candidates)
        return [(fqn, float(n - rank)) for rank, fqn in enumerate(candidates[:k])]

    def _wait(self, proc: subprocess.Popen, deadline: float, sending: bool) -> bool:
        """Waits until the deadline at most for output or, while sending, room
        in the child's input; whether output is readable. A child not ready by
        then is killed, so no late answer is read for a later request."""
        poller = select.poll()
        poller.register(proc.stdout, select.POLLIN)
        if sending:
            poller.register(proc.stdin, select.POLLOUT)
        ready = poller.poll(max(deadline - time.monotonic(), 0) * 1000)
        if ready:
            return any(fd == proc.stdout.fileno() for fd, _ in ready)
        proc.kill()
        proc.wait()
        what = "did not read its request" if sending else "gave no answer"
        raise RuntimeError(f"external predictor {what} within {self.timeout} s")

    def _exchange(self, proc: subprocess.Popen, request: bytes) -> bytearray:
        """Writes the request and reads the answer line, which may end at the
        end of output; output before the whole request is written is out of
        turn. Each write follows a wait and is at most PIPE_BUF bytes, so it
        cannot block; reads bypass buffers, so none hides output from a wait."""
        deadline = time.monotonic() + self.timeout
        view = memoryview(request)
        while view and not self._wait(proc, deadline, sending=True):
            try:
                view = view[os.write(proc.stdin.fileno(), view[: select.PIPE_BUF]):]
            except BrokenPipeError:
                raise RuntimeError(
                    "external predictor closed its input stream"
                ) from None
        answer = bytearray()
        end = -1
        while end < 0:
            self._wait(proc, deadline, sending=False)
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                break
            if view:
                raise RuntimeError("external predictor wrote output out of turn")
            answer += chunk
            if len(answer) > _MAX_ANSWER:
                proc.kill()  # else close() would read the rest of the flood
                raise RuntimeError(f"external predictor answer exceeds {_MAX_ANSWER} bytes")
            end = chunk.find(b"\n")  # earlier chunks hold none
        if not answer:
            raise RuntimeError("external predictor closed its output stream")
        if 0 <= end < len(chunk) - 1:
            raise RuntimeError("external predictor answered more than one line")
        return answer

    def close(self) -> None:
        proc, self._proc = self._proc, None
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
    predictor is asked for k more than the KB's FQNs of the element's name,
    so that dropping hallucinated (non knowledge-base) names still leaves
    usable ones. The co-occurrence model ranks only those KB FQNs, so it
    never fills the request and the filter drops none of its answer. With
    k <= 0 the predictor is not asked, and every element gets an empty list.
    """
    ordered = sorted(elements, key=lambda e: e.token_index)
    if k <= 0:
        return {e: CandidateList(()) for e in ordered}
    ranked = {}
    for e in ordered:
        fetch = k + len(kb.candidates_for(e.simple_name))
        ranked[e] = filter_against_kb(predictor.predict(aug, e, fetch, kb), kb, k)
    return ranked


# ---------------------------------------------------------------------------
# serialization

_HEADER = "cooccurrence"  # the header line's first field
# the ASCII decimal spelling of each small int, as `str` writes it:
# `load_model` looks a count up here before its general check
DECIMALS = {str(i): i for i in range(256)}
# the function json.dumps writes a str with under its default settings
_quote_token = json.encoder.encode_basestring_ascii
# json's string scanner, taken if the literal spans the field; else json.loads decides
_scan_token = json.decoder.scanstring


def dump_model(model: CooccurrenceModel) -> str:
    """Serialize as a header line plus sorted, tab-delimited count records.

    Count records are sorted by (token, fqn), and an FQN with an empty row
    is written as an `fqn` record after them, in FQN order. Tokens are
    JSON-escaped because lexemes (string literals) may contain spaces, tabs
    or newlines; each is written exactly as `json.dumps` writes it. Each
    distinct token is encoded once, as `load_model` decodes each once.
    Deterministic: equal models dump identically, and the dump loads back
    as an equal model. Raises ValueError for a count that is not an int (a
    bool), and for a vocabulary token no row counts, as the file loads
    with the written tokens as its vocabulary.
    """
    lines = [
        f"{_HEADER}\talpha={model.smoothing_alpha!r}\teta={model.window_eta}"
    ]
    # a row holds a token once, so sorting each token's (fqn, n) pairs
    # orders the records by (token, fqn)
    by_token: dict[str, list[tuple[str, int]]] = {}
    for fqn, row in model.rows.items():
        for tok, n in row.items():
            if type(n) is not int:
                raise ValueError(
                    f"cannot dump model: count {n!r:.80} of {_shown(fqn)} is not an int"
                )
            by_token.setdefault(tok, []).append((fqn, n))
    # the constructor keeps every row's tokens in the vocabulary
    if len(by_token) < len(model.vocabulary):
        tok = min(model.vocabulary.difference(by_token))
        raise ValueError(f"cannot dump model: vocabulary token {_shown(tok)} is in no row")
    append = lines.append
    for tok in sorted(by_token):
        head = f"count\t{_quote_token(tok)}\t"
        pairs = by_token[tok]
        pairs.sort()
        for fqn, n in pairs:
            append(f"{head}{fqn}\t{n}")
    lines += sorted(f"fqn\t{fqn}" for fqn, row in model.rows.items() if not row)
    return "\n".join(lines) + "\n"


def save_model(model: CooccurrenceModel, path: str | Path) -> None:
    Path(path).write_text(dump_model(model), encoding="utf-8")


class ModelFormatError(ValueError):
    pass


def _read_token(quoted: str) -> str:
    """The token a count record's JSON string spells, read as `json.loads`
    reads it. Raises ValueError (or RecursionError) for text that is no
    JSON string."""
    if quoted[:1] == '"':
        tok, end = _scan_token(quoted, 1)
        if end == len(quoted):
            return tok
    tok = json.loads(quoted)
    # a token is a lexeme, so any other JSON value is bad
    if not isinstance(tok, str):
        raise ValueError(tok)
    return tok


@collector_paused
def load_model(path: str | Path) -> CooccurrenceModel:
    """Parse a model file as `dump_model` writes it. The cyclic garbage
    collector is paused while the model is built, and left as it was found
    (`snippet.collector_paused`).

    The first line is the header: the field `cooccurrence`, then optional
    tab-separated `alpha=<float>` and `eta=<int>` fields, each at most once
    (1.0 and 2 if absent). Each later line is a record:
    `count<TAB><token><TAB><fqn><TAB><n>` adds a positive int n to the
    FQN's count of the token, `fqn<TAB><fqn>` makes the FQN known without
    counts (an empty row), and empty lines and lines starting with `#` are
    skipped. A token is one JSON string, read as `json.loads` reads it. A
    count and an eta are ASCII decimal digits: `+5`, `5_0`, ` 7` and `٣`,
    which int() reads, are refused, and so is an alpha that float() reads
    but is not ASCII, holds `_` or a blank, or starts with `+`.

    Raises ModelFormatError as `<path>:<line>: <message>` for text that is
    not UTF-8, a missing header, a bad or repeated header field, a bad
    record or a nonpositive count, and as `<path>: <message>` for what the
    model's constructor refuses: an FQN whose total is beyond float range,
    or an alpha whose log term fails at the largest total.
    """
    text = read_utf8(path, ModelFormatError)

    def bad(lineno: int, message: str) -> ModelFormatError:
        return ModelFormatError(f"{path}:{lineno}: {message}")

    # records end at "\n" alone: str.splitlines would also end one at a
    # form feed, "\x85" or "\u2028" inside a token
    lines = text.split("\n")
    name, *fields = lines[0].split("\t")
    if name != _HEADER:
        raise bad(1, "missing model header line")
    settings: dict[str, float | int] = {"alpha": 1.0, "eta": 2}
    texts: dict[str, str] = {}  # each field's value as written
    for part in fields:
        key, _, value = part.partition("=")
        if key not in settings:
            raise bad(1, f"unknown header field {key!r}")
        if key in texts:
            raise bad(1, f"duplicate header field {key!r}")
        texts[key] = value
        try:
            settings[key] = float(value) if key == "alpha" else int(value)
        except ValueError:
            raise bad(1, f"bad {key} value {value!r}") from None
    alpha, eta = settings["alpha"], settings["eta"]
    try:
        _check_settings(alpha, eta)
    except ValueError as exc:
        raise bad(1, str(exc)) from None
    # float() and int() also read a sign, `_`, blanks and non-ASCII digits
    alpha_text = texts.get("alpha", "1")
    if alpha_text != alpha_text.strip() or not alpha_text.isascii() \
            or "_" in alpha_text or alpha_text[:1] == "+":
        raise bad(1, f"bad alpha value {alpha_text!r}")
    eta_text = texts.get("eta", "2")
    if not (eta_text.isascii() and eta_text.isdigit()):
        raise bad(1, f"bad eta value {eta_text!r}")
    # a counted FQN's row opens at its first count, and the FQNs of fqn
    # records get empty rows after the parse, so the constructor meets
    # the counted rows in first-count order and names the first total
    # beyond float range as the file orders them
    rows: dict[str, dict[str, int]] = {}
    known: list[str] = []
    # few distinct tokens stand in many records, and a dump writes the
    # records of one token in a run; a bad one never enters, so the decoded
    # tokens are the vocabulary
    decoded: dict[str, str] = {}
    last = None  # the quoted token of the last count record
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) == 4 and parts[0] == "count":
            _, quoted, fqn, count = parts
            if quoted != last:
                tok = decoded.get(quoted)
                if tok is None:
                    try:
                        tok = decoded[quoted] = _read_token(quoted)
                    except (ValueError, RecursionError):
                        raise bad(lineno, f"bad count record {_shown(line)}") from None
                last = quoted
            n = DECIMALS.get(count)
            if not n:  # 0, or no small int's spelling
                try:
                    n = int(count)
                except ValueError:
                    raise bad(lineno, f"bad count record {_shown(line)}") from None
                if n <= 0:
                    raise bad(lineno, "nonpositive count")
                # int() also reads a sign, underscores, blanks and non-ASCII digits
                if not (count.isascii() and count.isdigit()):
                    raise bad(lineno, f"bad count record {_shown(line)}")
            row = rows.get(fqn)
            if row is None:
                # later records of this FQN find its row, so its string is
                # kept once
                rows[fqn] = {tok: n}
            else:
                row[tok] = row.get(tok, 0) + n
        elif len(parts) == 2 and parts[0] == "fqn":
            known.append(parts[1])
        elif line and line[0] != "#":
            raise bad(lineno, f"bad record {_shown(line)}")
    for fqn in known:
        rows.setdefault(fqn, {})
    try:
        return CooccurrenceModel(rows, set(decoded.values()), alpha, eta)
    except ValueError as exc:  # a total or an alpha no line alone holds
        raise ModelFormatError(f"{path}: {exc}") from None
