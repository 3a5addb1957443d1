"""Runs one workload on generated files and prints its metrics as JSON.

    python3 perfbench/worker.py --workload W --dir D --seconds S --trace 0|1

run.py starts this in a fresh process per workload, so the peak resident
memory it reports belongs to that workload alone. The program is reached
only through its public modules; one caller, closed loop, no threads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracer import ENTRY, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
MIN_SAMPLES = 200  # 10 samples beyond p95
SETUP_REPEATS = 5  # at least; small set-ups repeat for SETUP_SECONDS
SETUP_SECONDS = 1.0
WARMUP_OPS = 5
MODULES = ("snippet", "constraint", "kb", "stat", "orchestrator", "scoring")
LAYERS = MODULES + ("trace",)
REFERENCE = Path(__file__).resolve().parent / "reference.tsv"

# The speed of a shared machine drifts by 15-30% over tens of seconds, far
# more than the bounds the benchmark must hold. Every time it reports is
# therefore scaled to a reference speed: a fixed pure-Python loop is timed
# around each set-up and every CAL_EVERY_S between operations, and a time t
# is reported as t * CAL_REF_S / (the loop's time), averaging the scale of
# the calibrations just before and just after it.
CAL_REF_S = 0.0013  # the loop's time on a 2-core x86 VM, Python 3.11
CAL_EVERY_S = 0.1
_CAL_WORDS = [f"w{i}" for i in range(250)]


def calibration_loop():
    """Integer arithmetic, then tuple-keyed dict updates and a sort: the
    first tracks the interpreter's speed, the second its memory traffic."""
    s = 0
    for i in range(10000):
        s += i * i % 7
    d: dict[tuple[str, int], int] = {}
    for i in range(2000):
        key = (_CAL_WORDS[i % 250], i % 8)
        d[key] = d.get(key, 0) + i
    return s, sorted(d.items())


def machine_scale() -> float:
    """CAL_REF_S over the median of three timings of the calibration loop."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - t0)
    return CAL_REF_S / statistics.median(times)


def percentile(values, q: float, min_beyond: int = 10):
    """Nearest-rank percentile, or None when fewer than `min_beyond`
    samples lie above it: a tail that thin is not a measurement."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_reference(workload: str) -> dict[str, tuple[str, str]]:
    out = {}
    for line in REFERENCE.read_text(encoding="utf-8").splitlines():
        w, ident, a, t = line.split("\t")
        if w == workload:
            out[ident] = (a, t)
    return out


class Inference:
    """One operation: source text -> tokenize -> identify -> run -> score."""

    def __init__(self, mods, api, work: Path, reference):
        self.mods, self.api, self.work, self.reference = mods, api, work, reference
        self.config = mods["orchestrator"].RunConfig()
        self.scores: dict[str, object] = {}

    def setup(self):
        api = self.api
        kb = api["load_kb"](self.work / "kb.kb")
        model = api["load_model"](self.work / "model.tsv")
        items = api["load_corpus"](self.work / "corpus")
        return kb, model, items

    def items(self, state):
        by_id = {it.snippet_id: it for it in state[2]}
        order = (self.work / "order.txt").read_text(encoding="utf-8").split()
        return [by_id[i] for i in order]

    def op(self, state, item):
        kb, model, _ = state
        api = self.api
        snippet = api["tokenize"](item.snippet.raw)
        elements = api["identify_api_elements"](
            snippet, kb, exclude_string=self.config.exclude_string
        )
        combined, trace = api["run"](snippet, kb, model, self.config, elements=elements)
        score = api["score_snippet"](combined.answers(), item.truth, lenient=True)
        return combined, trace, elements, score

    def digests(self, result) -> tuple[str, str]:
        combined, trace, elements, _ = result
        answers = json.dumps(sorted(combined.answers().items()))
        return digest(answers), digest(self.mods["orchestrator"].serialize_trace(trace, elements))

    def check(self, item, result) -> str | None:
        self.scores.setdefault(item.snippet_id, result[3])
        want = self.reference.get(item.snippet_id)
        got = self.digests(result)
        if want is None:
            return f"{item.snippet_id}: no reference digest"
        if got[0] != want[0]:
            return f"{item.snippet_id}: answers differ from the reference"
        if got[1] != want[1]:
            return f"{item.snippet_id}: trace differs from the reference"
        return None

    def snippets_per_op(self, state) -> int:
        return 1

    def quality(self, state) -> dict[str, float]:
        p = [s.precision for s in self.scores.values() if s.precision is not None]
        r = [s.recall for s in self.scores.values() if s.recall is not None]
        return {"precision": statistics.fmean(p), "recall": statistics.fmean(r)}


class Build:
    """One operation: training pairs -> train -> dump -> save -> load."""

    def __init__(self, mods, api, work: Path, reference):
        self.mods, self.api, self.work, self.reference = mods, api, work, reference
        self.model_path = work / "built.tsv"

    def setup(self):
        items = self.api["load_corpus"](self.work / "train")
        return items, self.api["training_pairs"](items)

    def items(self, state):
        """One item: the training pairs in the seed's order."""
        items, pairs = state
        order_file = (self.work / "order.txt").read_text(encoding="utf-8")
        rank = {i: n for n, i in enumerate(order_file.split())}
        order = sorted(range(len(items)), key=lambda k: rank[items[k].snippet_id])
        return [[pairs[k] for k in order]]

    def op(self, state, item):
        model = self.api["train"](item, eta=2, alpha=1.0)
        text = self.api["dump_model"](model)
        self.model_path.write_text(text, encoding="utf-8")
        return text, self.api["load_model"](self.model_path)

    def digests(self, result) -> tuple[str, str]:
        return digest(result[0]), "-"

    def check(self, item, result) -> str | None:
        text, loaded = result
        self.loaded = loaded
        if self.mods["stat"].dump_model(loaded) != text:
            return "dump of the loaded model differs from the first dump"
        if (digest(text), "-") != self.reference.get("-"):
            return "model dump differs from the reference"
        return None

    def snippets_per_op(self, state) -> int:
        return len(state[1])

    def quality(self, state) -> dict[str, float]:
        """Top-1 answers of the built model on its own training snippets,
        scored like `eval`: a changed model shows here as well as in the
        dump digest."""
        stat, plain = self.mods["stat"], self.mods["snippet"].plain
        p, r = [], []
        for snippet, truth in state[1]:
            aug = plain(snippet)
            top = [stat.predict_topk(self.loaded, aug, e, 1) for e in truth]
            answered = [t[0][0] for t in top if t]
            correct = sum(t[0][0] == fqn for t, fqn in zip(top, truth.values()) if t)
            if answered:
                p.append(correct / len(answered))
            r.append(correct / len(truth))
        return {"precision": statistics.fmean(p), "recall": statistics.fmean(r)}


class Runner:
    """Times set-up and operations; returns times scaled to the reference
    machine speed (see CAL_REF_S)."""

    def __init__(self, bench, tracer=None):
        self.bench = bench
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.scales: list[float] = []
        self.calibrate()

    def calibrate(self) -> None:
        self.scales.append(machine_scale())
        self.calibrated_at = time.perf_counter()

    def setup(self, repeats: int, seconds: float = 0.0):
        """Set up `repeats` times, and more (up to 200) until `seconds`
        have passed; returns the last state and every set-up time."""
        times, state = [], None
        deadline = time.perf_counter() + seconds
        for r in range(200):
            if r >= repeats and time.perf_counter() >= deadline:
                break
            state = None
            gc.collect()
            before = machine_scale()
            end = self.tracer.root("setup", -1 - r, "setup") if self.tracer else None
            t0 = time.perf_counter()
            try:
                state = self.bench.setup()
            finally:
                t1 = time.perf_counter()
                if end:
                    end()
            times.append((t1 - t0) * (before + machine_scale()) / 2)
        return state, times

    def one(self, state, item, op_id: int) -> tuple[float, int]:
        """Run and check one operation; returns its raw wall time and the
        index of the calibration taken before it."""
        if time.perf_counter() - self.calibrated_at >= CAL_EVERY_S:
            self.calibrate()
        end = self.tracer.root("op", op_id, "op") if self.tracer else None
        result, error = None, None
        t0 = time.perf_counter()
        try:
            result = self.bench.op(state, item)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            t1 = time.perf_counter()
            if end:
                end()
        self.attempted += 1
        if result is not None:
            error = self.bench.check(item, result)
        if error:
            self.failures.append(error)
        return t1 - t0, len(self.scales) - 1

    def passes(self, state, items, seconds: float, min_samples: int):
        """Scaled per-operation times of whole passes over `items`, until
        `seconds` of wall time have passed and `min_samples` operations were
        made. Each time is scaled by the mean of the calibrations taken just
        before and just after it."""
        timed: list[tuple[float, int]] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(timed) < min_samples:
            for item in items:
                timed.append(self.one(state, item, len(timed)))
        self.calibrate()
        s = self.scales
        return [raw * (s[k] + s[k + 1]) / 2 for raw, k in timed]


def end_to_end(runner, bench, state, items, seconds, setup_times) -> dict:
    for item in items[:WARMUP_OPS]:
        runner.one(state, item, -1)
    lat = runner.passes(state, items, seconds, MIN_SAMPLES)
    p95 = percentile(lat, 0.95)
    metrics = {
        "snippets_per_s": (len(lat) * bench.snippets_per_op(state) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p95_ms": (p95 * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "exact_frac": (1 - len(runner.failures) / runner.attempted, "ratio"),
    }
    metrics.update({k: (v, "ratio") for k, v in bench.quality(state).items()})
    return {"samples": len(lat), "metrics": metrics}


SELF_S = (
    "snippet.tokenize", "snippet.identify_api_elements", "snippet.augment",
    "constraint.extract_constraints", "constraint.solve",
    "kb.load_kb", "kb.reduce_kb", "kb.collect_candidate_types",
    "stat.load_model", "stat.predict_all", "stat.predict_topk",
    "stat.known_fqns_named", "stat.context_window", "stat.filter_against_kb",
    "stat.train", "stat.dump_model",
    "orchestrator.run", "scoring.load_corpus", "scoring.training_pairs",
    "scoring.score_snippet",
)
CALLS = (
    "constraint.solve.calls", "constraint.solve.repeat_calls",
    "stat.predict_all.calls", "stat.predict_all.repeat_calls",
    "stat.known_fqns_named.calls",
    "kb.reduce_kb.calls", "kb.reduce_kb.repeat_calls",
    "kb.supertype_closure.calls", "kb.method_in_knowledge.calls",
    "snippet.augment.calls", "orchestrator.run.calls",
)

RATIOS = (  # (metric, numerator counter, denominator counter, unit)
    ("constraint.solve.search_space_log10",
     "constraint.solve.search_space_log10", "constraint.solve.calls", "log10"),
    ("constraint.untyped_share", "constraint.solve.untyped", "constraint.solve.elements", "ratio"),
    ("stat.filter_kept_ratio",
     "stat.filter_against_kb.kept", "stat.filter_against_kb.returned", "ratio"),
    ("kb.reduced_size_mean", "kb.reduce_kb.size", "kb.reduce_kb.calls", "entries"),
    ("orchestrator.rounds_mean", "orchestrator.run.rounds", "orchestrator.run.calls", "rounds"),
    ("orchestrator.confirm_round_share",
     "orchestrator.run.confirm_rounds", "orchestrator.run.rounds", "ratio"),
)
BASES = (  # per-operation counts that ratios above are taken over
    ("constraint.solve.elements", "elements/op"),
    ("stat.filter_against_kb.returned", "fqns/op"),
)


def per_layer(tracer, ops: int, setups: int, overhead: float) -> dict:
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    by = defaultdict(float)  # (phase, span name) -> self seconds
    op_time = 0.0
    for i, s in enumerate(selfs):
        phase = "op" if tracer.op[i] >= 0 else "setup"
        name = tracer.names[tracer.name[i]]
        by[(phase, name)] += s
        if phase == "op" and tracer.parent[i] < 0:
            op_time += tracer.end[i] - tracer.start[i]
    counts = tracer.counts

    def per_unit(table, key):
        if ("op", key) in table:
            return table[("op", key)] / ops
        return table.get(("setup", key), 0.0) / setups

    def ratio(num, den):
        den = counts[("op", den)]
        return counts[("op", num)] / den if den else 0.0

    m = {}
    for f in SELF_S:
        m[f + ".self_s"] = (per_unit(by, f), "s")
    for f in CALLS:
        m[f] = (per_unit(counts, f), "calls/op")
    shares = defaultdict(float)
    for (phase, name), s in by.items():
        if phase == "op":
            shares[name.split(".")[0] if name != "op" else "unattributed"] += s
    for layer in LAYERS + ("unattributed",):
        m[layer + ".self_share"] = (shares[layer] / op_time, "ratio")
    for metric, num, den, unit in RATIOS:
        m[metric] = (ratio(num, den), unit)
    for counter, unit in BASES:
        m[counter] = (per_unit(counts, counter), unit)
    m["trace.op_s"] = (op_time / ops, "s")
    m["trace.overhead_frac"] = (overhead, "ratio")
    closure = sum(shares.values()) / op_time
    if abs(closure - 1) > 1e-6:
        raise SystemExit(f"self times add up to {closure:.9f} of the traced operation time")
    return m


def write_spans(tracer, path: Path) -> None:
    with path.open("w", encoding="utf-8") as out:
        out.write("name\tstart\tend\tparent\top\n")
        for i in range(len(tracer.start)):
            out.write(
                f"{tracer.names[tracer.name[i]]}\t{tracer.start[i]:.9f}\t"
                f"{tracer.end[i]:.9f}\t{tracer.parent[i]}\t{tracer.op[i]}\n"
            )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--dir", required=True, type=Path)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    mods = {m: importlib.import_module(f"fqninfer.{m}") for m in MODULES}
    plain = {fn: getattr(mods[mod], fn) for mod, fn in ENTRY}
    reference = load_reference(args.workload)
    kind = Build if args.workload == "build" else Inference

    if not args.trace:
        bench = kind(mods, plain, args.dir, reference)
        runner = Runner(bench)
        state, setup_times = runner.setup(SETUP_REPEATS, SETUP_SECONDS)
        items = bench.items(state)
        out = end_to_end(runner, bench, state, items, args.seconds, setup_times)
    else:
        tracer = Tracer()
        traced = tracer.entry_points(mods)
        bench = kind(mods, traced, args.dir, reference)
        runner = Runner(bench, tracer)
        state, _ = runner.setup(SETUP_REPEATS)
        items = bench.items(state)
        # untraced baseline for the tracing overhead, over whole passes
        bench.api = plain
        base = Runner(bench)
        baseline = base.passes(state, items, args.seconds / 2, 1)
        bench.api = traced
        tracer.install(mods)
        try:
            lat = runner.passes(state, items, args.seconds, 1)
        finally:
            tracer.uninstall()
        runner.attempted += base.attempted
        runner.failures += base.failures
        write_spans(tracer, args.dir / "spans.tsv")
        overhead = statistics.fmean(lat) / statistics.fmean(baseline) - 1
        metrics = per_layer(tracer, len(lat), SETUP_REPEATS, overhead)
        out = {"samples": len(lat), "metrics": metrics}

    for failure in sorted(set(runner.failures))[:10]:
        print("failed:", failure, file=sys.stderr)
    out.update(attempted=runner.attempted, failed=len(runner.failures))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
