"""The repository benchmark: end-to-end and per-layer metrics of fqninfer.

    python3 perfbench/run.py --workload fixture|dense|wide|build|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. For each workload this generates the
inputs from the seed into `.perfbench_work/<workload>/`, then measures them
in a fresh worker process (worker.py) and prints one row per workload. The
last line of output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with `--trace 0`, per-layer with `--trace 1`).
Workloads, metrics and the layer each metric belongs to are described in
README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fixture", "dense", "wide", "build")
DEADLINE_S = 170  # every run must end within 180 s


def run_workload(fq, workload: str, seed: int, seconds: int, trace: int, started: float) -> dict:
    work = ROOT / ".perfbench_work" / workload
    gen.generate(fq, workload, seed, work, ROOT / "tests" / "fixtures")
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--dir", str(work),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    budget = DEADLINE_S - (time.monotonic() - started)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=max(budget, 1))
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def row(workload: str, result: dict) -> str:
    cells = [f"{workload:8}", f"samples={result['samples']}"]
    cells += [f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    return "  ".join(cells)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "fqninfer" / "__init__.py").is_file():
        print(f"no fqninfer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import fqninfer as fq

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in workloads:
        r = run_workload(fq, w, args.seed, args.seconds, args.trace, started)
        r["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in r["metrics"].items()}
        results[w] = r
        print(row(w, r), flush=True)

    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
