"""Seeded input generator for the benchmark workloads.

Each generated workload has one fixed "universe": a KB, a training corpus
and a pool of evaluation snippets, generated from the workload name alone.
The run seed picks a sample of the pool and the order the snippets run in
(for build: the order of the training corpus). Inputs are thus a pure
function of the seed, while the reference digests of every pool snippet can
be recorded once (see record.py) and checked on every run, whatever seed it
uses. A fixed universe also keeps the KB and model, and with them the cost
profile, the same from seed to seed; only the sample varies.

Files are written in the repository's own formats: KB text, `<lib>/<id>.java`
plus `<id>.truth` corpora, and the tab-separated co-occurrence model. Truth
is planted by the generator, which knows which type each name it writes
stands for; `self_check` makes sure the program identifies exactly the
planted elements, so generator drift fails loudly.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

PREFIXES = (
    "Alpha Bravo Cobalt Delta Ember Falcon Garnet Harbor Indigo Juniper "
    "Krypton Lumen Magnet Nimbus Onyx Prism Quartz Raven Sierra Topaz Umber "
    "Vertex Willow Xenon Yonder Zephyr"
).split()
MIDDLES = "Core Net Data Text Time Page Node Task User File".split()
SUFFIXES = (
    "Panel Widget Store Reader Writer Builder Factory Session Handler Parser "
    "Buffer Client Server Stream Cache Queue Engine Filter Mapper Router"
).split()
VERBS = (
    "open close read write flush reset start stop apply build load save merge "
    "split parse render attach detach lookup resolve"
).split()
FIELDS = "size count name limit mode state".split()


@dataclass
class TypeSpec:
    fqn: str
    name: str
    lib: str
    kind: str
    methods: dict = field(default_factory=dict)  # (name, arity) -> (static, returns)
    fields: dict = field(default_factory=dict)  # name -> static
    supers: list = field(default_factory=list)


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload's universe. Fixed per workload, so every seed
    gives inputs of the same size and cost profile."""

    libs: int
    names: int
    realizations: tuple[int, ...]  # how many libraries define each name
    names_3part: bool  # draw names from the larger three-part name space
    train: int  # training snippets
    pool: int  # evaluation snippets in the universe
    sample: int  # evaluation snippets a seed runs
    elements: tuple[int, ...]  # element-count schedule of evaluation snippets
    train_elements: tuple[int, ...]
    unrelated_fqns: int = 0  # model FQNs outside the KB and the snippets


SHAPES = {
    "dense": Shape(
        libs=30, names=90, realizations=(2, 3, 3, 4), names_3part=False,
        train=120, pool=300, sample=200, elements=(12, 14, 16, 18),
        train_elements=(6, 8, 10),
    ),
    "wide": Shape(
        libs=240, names=2000, realizations=(1, 2, 2, 3), names_3part=True,
        train=200, pool=240, sample=180, elements=(3, 4, 5),
        train_elements=(4, 6), unrelated_fqns=24000,
    ),
    "build": Shape(
        libs=240, names=2000, realizations=(1, 2, 2, 3), names_3part=True,
        train=150, pool=0, sample=0, elements=(), train_elements=(3, 4),
    ),
}


# ---------------------------------------------------------------------------
# knowledge base

def _name_space(three_part: bool) -> list[str]:
    if three_part:
        return [p + m + s for p in PREFIXES for m in MIDDLES for s in SUFFIXES]
    return [p + s for p in PREFIXES for s in SUFFIXES]


def make_kb(rng: random.Random, shape: Shape) -> dict[str, TypeSpec]:
    """Types over `shape.libs` libraries. Each simple name is defined by a
    few libraries (the candidates the solver must choose between); the
    definitions share part of a per-name method family, so member calls
    sometimes tell candidates apart and sometimes do not."""
    libs = [f"lib{i:03d}" for i in range(shape.libs)]
    names = rng.sample(_name_space(shape.names_3part), shape.names)
    types: dict[str, TypeSpec] = {}
    by_lib: dict[str, list[TypeSpec]] = {lib: [] for lib in libs}
    for name in names:
        family = {(v, rng.randrange(3)) for v in rng.sample(VERBS, 4)}
        for lib in rng.sample(libs, rng.choice(shape.realizations)):
            kind = "class" if rng.random() < 0.8 else "interface"
            t = TypeSpec(f"org.{lib}.api.{name}", name, lib, kind)
            for sig in sorted(family):
                if rng.random() < 0.7:
                    t.methods[sig] = (False, None)
            for v in rng.sample(VERBS, 2):
                t.methods.setdefault((v, rng.randrange(3)), (False, None))
            if rng.random() < 0.5:
                t.methods[("getInstance", 0)] = (True, t.fqn)
            for f in rng.sample(FIELDS, rng.randrange(1, 3)):
                t.fields[f] = rng.random() < 0.2
            types[t.fqn] = t
            by_lib[lib].append(t)
    for members in by_lib.values():
        for i, t in enumerate(members):
            others = members[:i] + members[i + 1:]
            if i and rng.random() < 0.5:
                t.supers.append(rng.choice(members[:i]).fqn)
            for u in rng.sample(others, min(2, len(others))):
                t.methods[("to" + u.name, 0)] = (False, u.fqn)
    return types


def kb_text(types: dict[str, TypeSpec]) -> str:
    out = []
    for fqn in sorted(types):
        t = types[fqn]
        line = f"type {fqn} {t.kind} lib={t.lib}"
        if t.supers:
            line += " extends=" + ",".join(t.supers)
        out.append(line)
        for (m, arity), (static, ret) in sorted(t.methods.items()):
            out.append(
                f"method {fqn} {m}/{arity}" + (" static" if static else "")
                + f" returns={ret or '?'}"
            )
        for f, static in sorted(t.fields.items()):
            out.append(f"field {fqn} {f}" + (" static" if static else "") + " type=?")
    return "\n".join(out) + "\n"


def _closure(types: dict[str, TypeSpec], t: TypeSpec) -> list[TypeSpec]:
    seen, out, todo = {t.fqn}, [t], [t]
    while todo:
        for s in todo.pop().supers:
            if s not in seen:
                seen.add(s)
                out.append(types[s])
                todo.append(types[s])
    return out


def _members(types, t: TypeSpec):
    """Instance methods, factory methods and fields visible on t."""
    calls, factories, fields = set(), {}, set()
    for s in _closure(types, t):
        for (m, arity), (static, ret) in s.methods.items():
            if static:
                continue
            if ret is not None:
                factories.setdefault(m, ret)
            else:
                calls.add((m, arity))
        fields.update(f for f, static in s.fields.items() if not static)
    return sorted(calls), sorted(factories.items()), sorted(fields)


# ---------------------------------------------------------------------------
# snippets

def _args(rng: random.Random, arity: int) -> str:
    return ", ".join(rng.choice(("1", "2", '"a"', "true")) for _ in range(arity))


def make_snippet(
    rng: random.Random, types: dict[str, TypeSpec], by_lib, ident: str, target: int
) -> tuple[str, dict[str, str]]:
    """One Java snippet with about `target` API element occurrences drawn
    from one or two libraries, plus its planted truth (key -> FQN).

    Statements mix declarations with construction, static factories,
    member calls, field reads, declared assignments from factory methods,
    call chains and bare declarations of repeated names."""
    libs = [lib for lib, ts in by_lib.items() if len(ts) >= 3]
    pool = list(by_lib[rng.choice(libs)])
    if rng.random() < 0.5:
        pool += by_lib[rng.choice(libs)]
    classes = [t for t in pool if t.kind == "class"] or pool[:1]
    lines = [f"class Case{ident} {{", "    void body() {"]
    truth: dict[str, str] = {}
    variables: list[tuple[str, TypeSpec]] = []
    count = 0

    def emit(text: str, named: list[TypeSpec]) -> None:
        nonlocal count
        lines.append("        " + text)
        occ: dict[str, int] = {}
        for t in named:
            occ[t.name] = occ.get(t.name, 0) + 1
            truth[f"{t.name}[{len(lines)},{occ[t.name]}]"] = t.fqn
        count += len(named)

    while count < target:
        var = f"v{len(variables) + 1}"
        kind = rng.random()
        if not variables or kind < 0.3:
            t = rng.choice(classes)
            if t.kind == "class":
                emit(f"{t.name} {var} = new {t.name}({_args(rng, rng.randrange(3))});", [t, t])
            else:
                emit(f"{t.name} {var};", [t])
            variables.append((var, t))
            continue
        v, t = rng.choice(variables)
        calls, factories, fields = _members(types, t)
        if kind < 0.45:
            statics = [u for u in pool if ("getInstance", 0) in u.methods]
            if statics:
                u = rng.choice(statics)
                emit(f"{u.name} {var} = {u.name}.getInstance();", [u, u])
                variables.append((var, u))
                continue
        if kind < 0.65 and factories:
            m, ret = rng.choice(factories)
            u = types[ret]
            emit(f"{u.name} {var} = {v}.{m}();", [u])
            variables.append((var, u))
        elif kind < 0.75 and factories:
            m, _ = rng.choice(factories)
            emit(f"{v}.{m}().{rng.choice(VERBS)}();", [])
        elif kind < 0.85 and fields:
            emit(f"int {var} = {v}.{rng.choice(fields)};", [])
        elif calls:
            m, arity = rng.choice(calls)
            emit(f"{v}.{m}({_args(rng, arity)});", [])
        elif kind < 0.92:
            emit(f"{t.name} {var};", [t])
            variables.append((var, t))
    lines += ["    }", "}"]
    return "\n".join(lines) + "\n", truth


def truth_text(truth: dict[str, str]) -> str:
    return "".join(f"{k}\t{v}\n" for k, v in truth.items())


# ---------------------------------------------------------------------------
# model file

def model_text(counts: dict[tuple[str, str], int], fqns: set[str], alpha=1.0, eta=2) -> str:
    """The co-occurrence model format, written in one linear pass: the same
    bytes the program's dump would give for these counts."""
    lines = [f"cooccurrence\talpha={alpha!r}\teta={eta}"]
    counted = set()
    for (tok, fqn) in sorted(counts):
        lines.append(f"count\t{json.dumps(tok)}\t{fqn}\t{counts[(tok, fqn)]}")
        counted.add(fqn)
    lines += [f"fqn\t{f}" for f in sorted(fqns - counted)]
    return "\n".join(lines) + "\n"


def unrelated_counts(rng: random.Random, shape: Shape) -> dict[tuple[str, str], int]:
    """Model entries for FQNs of libraries the KB does not hold. Their simple
    names come from the same name space, so some share a name with a snippet
    element and are ranked, then dropped by the KB filter; most are never
    asked for and only make the model large."""
    space = _name_space(shape.names_3part)
    vocab = VERBS + [f"v{i}" for i in range(1, 9)] + [f"w{i}" for i in range(400)]
    counts: dict[tuple[str, str], int] = {}
    for _ in range(shape.unrelated_fqns):
        fqn = f"net.x{rng.randrange(10**6):06d}.impl.{rng.choice(space)}"
        for tok in rng.sample(vocab, 4):
            counts[(tok, fqn)] = rng.randrange(1, 4)
    return counts


# ---------------------------------------------------------------------------
# universes and seeds

@dataclass
class Universe:
    types: dict[str, TypeSpec]
    train: list[tuple[str, str, dict[str, str]]]  # (id, java text, truth)
    pool: list[tuple[str, str, dict[str, str]]]


def make_universe(workload: str) -> Universe:
    shape = SHAPES[workload]
    rng = random.Random(workload)
    types = make_kb(rng, shape)
    by_lib: dict[str, list[TypeSpec]] = {}
    for t in types.values():
        by_lib.setdefault(t.lib, []).append(t)

    def snippets(prefix: str, n: int, schedule: tuple[int, ...]):
        out = []
        for i in range(n):
            ident = f"{prefix}{i:04d}"
            text, truth = make_snippet(rng, types, by_lib, ident, schedule[i % len(schedule)])
            out.append((ident, text, truth))
        return out

    train = snippets("t", shape.train, shape.train_elements)
    pool = snippets("u", shape.pool, shape.elements)
    return Universe(types, train, pool)


def write_corpus(root: Path, items) -> None:
    for ident, text, truth in items:
        lib = "lib" + ident[-1]  # spread snippets over ten library directories
        (root / lib).mkdir(parents=True, exist_ok=True)
        (root / lib / f"{ident}.java").write_text(text, encoding="utf-8")
        (root / lib / f"{ident}.truth").write_text(truth_text(truth), encoding="utf-8")


def sample_ids(workload: str, seed: int, pool_ids: list[str]) -> list[str]:
    """The pool snippets a seed runs, in the seed's order: the same number
    from each step of the element-count schedule, so that every seed gets
    the same mix of small and large snippets."""
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}/{seed}")
    strata = len(shape.elements)
    chosen = []
    for k in range(strata):
        chosen += rng.sample(pool_ids[k::strata], shape.sample // strata)
    rng.shuffle(chosen)
    return chosen


def self_check(fq, kb_path: Path, corpus: Path) -> None:
    """Every planted key must be exactly an element the program identifies,
    and resolve through truth_elements; anything else is generator drift."""
    kb = fq.load_kb(kb_path)
    for item in fq.load_corpus(corpus):
        got = {e.key for e in fq.identify_api_elements(item.snippet, kb)}
        if got != set(item.truth.truth):
            raise SystemExit(
                f"generator drift in {item.java_path}: identified {sorted(got)}, "
                f"planted {sorted(item.truth.truth)}"
            )
        fq.truth_elements(item.snippet, item.truth, kb)


def write_order(out: Path, ids: list[str]) -> None:
    (out / "order.txt").write_text("\n".join(ids) + "\n", encoding="utf-8")


def generate(
    fq, workload: str, seed: int, out: Path, fixtures: Path, whole_pool: bool = False
) -> None:
    """Write the inputs of one run into `out`.

    Inference workloads get kb.kb, model.tsv, corpus/ and order.txt (the
    snippet ids in run order); build gets kb.kb, train/ and order.txt (the
    training snippets in the order they are fed to train). `fq` is the
    fqninfer package, used to train models and for the self-check.
    `whole_pool` writes every pool snippet, in pool order."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    rng = random.Random(f"{workload}/{seed}")
    if workload == "fixture":
        shutil.copy(fixtures / "kb" / "global.kb", out / "kb.kb")
        shutil.copytree(fixtures / "corpus", out / "corpus")
        pairs = fq.training_pairs(fq.load_corpus(fixtures / "train"))
        fq.save_model(fq.train(pairs, eta=2, alpha=1.0), out / "model.tsv")
        ids = sorted(p.stem for p in (out / "corpus").glob("*/*.java"))
        rng.shuffle(ids)
        write_order(out, ids)
        return
    shape = SHAPES[workload]
    uni = make_universe(workload)
    (out / "kb.kb").write_text(kb_text(uni.types), encoding="utf-8")
    write_corpus(out / "train", uni.train)
    self_check(fq, out / "kb.kb", out / "train")
    if workload == "build":
        ids = [ident for ident, _, _ in uni.train]
        rng.shuffle(ids)
        write_order(out, ids)
        return
    pool_ids = [ident for ident, _, _ in uni.pool]
    chosen = pool_ids if whole_pool else sample_ids(workload, seed, pool_ids)
    by_id = {ident: (ident, text, truth) for ident, text, truth in uni.pool}
    write_corpus(out / "corpus", [by_id[i] for i in chosen])
    write_order(out, chosen)
    self_check(fq, out / "kb.kb", out / "corpus")
    model = fq.train(fq.training_pairs(fq.load_corpus(out / "train")), eta=2, alpha=1.0)
    counts = dict(model.counts)
    fqns = set(model.fqn_totals)
    if shape.unrelated_fqns:
        extra = unrelated_counts(random.Random(f"{workload}/model"), shape)
        counts.update(extra)
        fqns.update(f for _, f in extra)
    (out / "model.tsv").write_text(model_text(counts, fqns), encoding="utf-8")
