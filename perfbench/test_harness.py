"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import gen
import worker
from tracer import Tracer, self_times


def test_p95_needs_ten_samples_beyond_it():
    assert worker.percentile(range(199), 0.95) is None
    assert worker.percentile(range(1, 201), 0.95) == 190
    assert worker.percentile([], 0.5, min_beyond=0) is None


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    assert self_times(parent, start, end) == [3.0, 3.0, 2.0, 2.0]


def test_tracer_nests_spans_and_counts_calls():
    tr = Tracer()
    inner = tr.timed("x.inner", lambda: None)
    outer = tr.timed("x.outer", lambda: inner() or inner())
    end = tr.root("op", 0, "op")
    outer()
    end()
    names = [tr.names[i] for i in tr.name]
    assert names == ["op", "x.outer", "x.inner", "x.inner"]
    assert list(tr.parent) == [-1, 0, 1, 1]
    assert tr.counts[("op", "x.inner.calls")] == 2
    selfs = self_times(tr.parent, tr.start, tr.end)
    assert sum(selfs) == pytest.approx(tr.end[0] - tr.start[0])


GENERATE = """
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import fqninfer, gen
gen.generate(fqninfer, sys.argv[3], 3, Path(sys.argv[4]), Path(sys.argv[5]))
"""


@pytest.mark.parametrize("workload", ["fixture", "dense", "wide", "build"])
def test_generator_is_deterministic(workload):
    """Same seed, same bytes, also across processes with different string
    hashing."""
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a"), Path(tmp, "b")
        for out, hash_seed in ((a, "1"), (b, "2")):
            subprocess.run(
                [sys.executable, "-c", GENERATE, str(worker.ROOT / "src"),
                 str(Path(gen.__file__).parent), workload, str(out),
                 str(worker.ROOT / "tests" / "fixtures")],
                check=True, env={**os.environ, "PYTHONHASHSEED": hash_seed},
            )
        files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        for f in files:
            assert (a / f).read_bytes() == (b / f).read_bytes(), f


def test_sample_keeps_the_element_count_mix():
    pool = [f"u{i:04d}" for i in range(300)]
    a = gen.sample_ids("dense", 1, pool)
    b = gen.sample_ids("dense", 2, pool)
    assert a != b and len(a) == len(set(a)) == gen.SHAPES["dense"].sample
    strata = len(gen.SHAPES["dense"].elements)
    for ids in (a, b):
        per = [sum(pool.index(i) % strata == k for i in ids) for k in range(strata)]
        assert len(set(per)) == 1
