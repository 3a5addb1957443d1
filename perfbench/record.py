"""Record the reference digests the exactness gate compares against.

    python3 perfbench/record.py

Runs every snippet of each workload's pool (and the fixture corpus, and
the model build) once through the same operation the benchmark times, and
writes `reference.tsv` beside this file: workload, snippet id, digest of
the `answers()` map, digest of `serialize_trace` (for build: id `-` and the
digest of the model dump). Record only at a commit whose
answers are the reference; a change that alters answers must say so.
"""

from __future__ import annotations

import importlib
import sys

import gen
import worker


def main() -> int:
    sys.path.insert(0, str(worker.ROOT / "src"))
    import fqninfer as fq

    mods = {m: importlib.import_module(f"fqninfer.{m}") for m in worker.MODULES}
    api = {fn: getattr(mods[mod], fn) for mod, fn in worker.ENTRY}
    work = worker.ROOT / ".perfbench_work" / "record"
    lines = []
    for workload in ("fixture", "dense", "wide", "build"):
        gen.generate(fq, workload, 0, work, worker.ROOT / "tests" / "fixtures", whole_pool=True)
        kind = worker.Build if workload == "build" else worker.Inference
        bench = kind(mods, api, work, {})
        state = bench.setup()
        for item in bench.items(state):
            a, t = bench.digests(bench.op(state, item))
            ident = "-" if workload == "build" else item.snippet_id
            lines.append(f"{workload}\t{ident}\t{a}\t{t}")
        print(workload, len(lines), file=sys.stderr)
    worker.REFERENCE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
