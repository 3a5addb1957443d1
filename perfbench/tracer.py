"""Spans and counters recorded from outside the program.

`Tracer.install` replaces the module attributes that fqninfer looks up at
call time (`orchestrator.solve`, `stat.context_window`, ...) with wrappers
that record a span per call: name, start, end, parent span and operation
id. Spans are kept in flat arrays in memory and written out when the run
ends. A few hot helpers get count-only wrappers with no timer.

Counters that size a future optimisation (repeat calls, filter waste,
search-space size) are derived inside the wrappers by hashing each stage's
inputs. That bookkeeping runs in its own `trace.counters` span so it is not
charged to any layer.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute, span name). A function appears once per module that
# calls it through a global lookup.
TIMED = (
    ("orchestrator", "extract_constraints", "constraint.extract_constraints"),
    ("orchestrator", "solve", "constraint.solve"),
    ("orchestrator", "augment", "snippet.augment"),
    ("orchestrator", "predict_all", "stat.predict_all"),
    ("orchestrator", "collect_candidate_types", "kb.collect_candidate_types"),
    ("orchestrator", "reduce_kb", "kb.reduce_kb"),
    ("stat", "augment", "snippet.augment"),
    ("stat", "context_window", "stat.context_window"),
    ("stat", "predict_topk", "stat.predict_topk"),
    ("stat", "filter_against_kb", "stat.filter_against_kb"),
)
COUNTED = (
    ("kb", "supertype_closure", "kb.supertype_closure"),
    ("constraint", "supertype_closure", "kb.supertype_closure"),
    ("constraint", "method_in_knowledge", "kb.method_in_knowledge"),
)
# Functions the benchmark itself calls: (layer module, function).
ENTRY = (
    ("snippet", "tokenize"),
    ("snippet", "identify_api_elements"),
    ("orchestrator", "run"),
    ("scoring", "score_snippet"),
    ("scoring", "load_corpus"),
    ("scoring", "training_pairs"),
    ("kb", "load_kb"),
    ("stat", "load_model"),
    ("stat", "train"),
    ("stat", "dump_model"),
)


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children never overlap each other."""
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()  # (phase, counter) -> value
        self.phase = "setup"
        self._seen: dict[str, set] = defaultdict(set)
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def root(self, name: str, op_id: int, phase: str):
        """Start the root span of one operation or set-up pass; returns a
        function that ends it. Repeat detection starts afresh per root."""
        self.op_id = op_id
        self.phase = phase
        self._seen.clear()
        i = self._open(name)
        return lambda: self._close(i)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[(self.phase, key)] += n

    def repeat(self, key: str, value) -> None:
        """Count a call whose inputs equal an earlier call's in this root."""
        seen = self._seen[key]
        if value in seen:
            self.count(key + ".repeat_calls")
        else:
            seen.add(value)

    # -- wrappers ------------------------------------------------------------

    def timed(self, name: str, fn, after=None):
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            self.count(calls)
            if after is not None:
                j = self._open("trace.counters")
                after(self, args, kwargs, result)
                self._close(j)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[(self.phase, key)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, fq_modules: dict) -> None:
        """Wrap the program's call-time lookups. `fq_modules` maps short
        module names (`stat`, `kb`, ...) to the imported modules."""
        for mod, attr, name in TIMED:
            fn = getattr(fq_modules[mod], attr)
            self._patch(fq_modules[mod], attr, self.timed(name, fn, AFTER.get(name)))
        for mod, attr, name in COUNTED:
            fn = getattr(fq_modules[mod], attr)
            self._patch(fq_modules[mod], attr, self.counted(name, fn))
        model = fq_modules["stat"].CooccurrenceModel
        fn = model.known_fqns_named
        self._patch(model, "known_fqns_named", self.timed("stat.known_fqns_named", fn))

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def entry_points(self, fq_modules: dict) -> dict:
        """Timed versions of the functions the benchmark calls directly."""
        return {
            fn: self.timed(name, getattr(fq_modules[mod], fn), AFTER.get(name))
            for mod, fn in ENTRY
            for name in [f"{mod}.{fn}"]
        }


# ---------------------------------------------------------------------------
# counters derived from a stage's inputs and outputs

def _after_solve(tr: Tracer, args, kwargs, result) -> None:
    kb, elements, constraints = args[0], args[1], args[2]
    coverage = args[3] if len(args) > 3 else kwargs.get("coverage")
    space = 0.0
    for e in elements:
        n = len(kb.candidates_for(e.simple_name))
        if n:
            space += math.log10(n)
    tr.count("constraint.solve.search_space_log10", space)
    tr.count("constraint.solve.elements", len(result.typed) + len(result.untyped))
    tr.count("constraint.solve.untyped", len(result.untyped))
    tr.repeat("constraint.solve", hash((
        frozenset(kb.entries), tuple(elements), tuple(constraints),
        tuple(coverage or ()), kwargs.get("strict_uniqueness", True),
    )))


def _after_predict_all(tr: Tracer, args, kwargs, result) -> None:
    _, aug, elements, kb, k = args
    tr.repeat("stat.predict_all", hash((aug.text(), tuple(elements), id(kb), k)))


def _after_filter(tr: Tracer, args, kwargs, result) -> None:
    tr.count("stat.filter_against_kb.returned", len(args[0]))
    tr.count("stat.filter_against_kb.kept", len(result.ranked))


def _after_reduce(tr: Tracer, args, kwargs, result) -> None:
    tr.repeat("kb.reduce_kb", hash((id(args[0]), frozenset(args[1]))))
    tr.count("kb.reduce_kb.size", len(result))


def _round_view(rec):
    return (
        dict(rec.constraint_result.typed),
        {e: cl.ranked for e, cl in rec.stat_result.items()},
    )


def _after_run(tr: Tracer, args, kwargs, result) -> None:
    """Rounds per run, and rounds that exactly repeat the one before."""
    views = [_round_view(rec) for rec in result[1]]
    tr.count("orchestrator.run.rounds", len(views))
    tr.count("orchestrator.run.confirm_rounds", sum(a == b for a, b in zip(views, views[1:])))


AFTER = {
    "constraint.solve": _after_solve,
    "stat.predict_all": _after_predict_all,
    "stat.filter_against_kb": _after_filter,
    "kb.reduce_kb": _after_reduce,
    "orchestrator.run": _after_run,
}
