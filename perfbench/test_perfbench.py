"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

The smoke test runs every workload briefly, untraced and traced, and checks
that every metric BENCHMARK.json declares comes out as a number for each.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import absmeter  # noqa: E402


def test_smoke_prints_every_declared_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["end_to_end"] + spec["per_layer"]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    for workload in run.WORKLOADS:
        prefix = f"{workload}/"
        emitted = {k[len(prefix):] for k in result["metrics"] if k.startswith(prefix)}
        assert emitted == {m["name"] for m in declared}
        for metric in declared:
            got = result["metrics"][f"{workload}/{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], float) and math.isfinite(got["value"])
            # the human-readable table names each metric too
            assert any(line.split()[:1] == [metric["name"]] for line in lines)


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "barchart", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_barchart_pairs_match_the_known_repeat():
    # four stage evaluations, of which three (stage, prior) pairs differ
    pairs, evaluations = tracing.evaluated_pairs(absmeter.exemplar("barchart"))
    assert (len(pairs), evaluations) == (3, 4)


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    pct, value = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == 90.0


def test_import_times_counts_scipy_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:         5 |          5 |       scipy.sparse._csr",
        "import time:        15 |         20 |     scipy.sparse",
        "import time:       100 |        150 |   absmeter.channel",
        "import time:        50 |        200 | absmeter",
    ])
    assert run.import_times(stderr) == (0.2, 0.05)
