"""Pinned report bytes: every renderer's output on the fixtures and exemplars.

Each scenario is analyzed once in process and rendered in all three formats;
`absmeter axis` runs through `cli.main`. Besides the fixtures and exemplars,
the benchmark's seed-1 stochastic scenario (`perfbench/workloads.py`) pins
the stochastic loader at the 4096-letter limit. The expected bytes live in
`tests/golden/`. To rewrite them after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.

The bytes may not depend on the machine's threads: `python -m absmeter
analyze` reproduces the goldens under every OpenBLAS thread count tried.
Every Bayes distortion that `analyze` takes on these scenarios is also
checked against the 60-digit reference of `oracles.bayes_distortion_bits`.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import builders
import oracles
from absmeter import EXEMPLAR_NAMES, analyze, costbenefit, exemplar, load_scenario, loads_scenario
from absmeter.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
PERFBENCH = Path(__file__).parent.parent / "perfbench"
SUFFIX = {"json": "json", "csv": "csv", "table": "txt"}
GENERATED = {"stochastic-4096-seed1": 1}
SCENARIOS = (
    tuple(sorted(p.stem for p in FIXTURES.glob("*.json"))) + EXEMPLAR_NAMES + tuple(GENERATED)
)
AXIS_RUNS = {
    "molecular_axes.axis": [],
    "molecular_axes.axis-bond-structure": ["--axis", "bond-structure"],
}


def _declaration(name: str) -> str:
    """JSON text of an exemplar or of a generated scenario."""
    if name in GENERATED:
        if str(PERFBENCH) not in sys.path:
            sys.path.append(str(PERFBENCH))
        from workloads import stochastic_declaration

        return json.dumps(stochastic_declaration(GENERATED[name]))
    return exemplar(name).to_json()


def _load(name: str):
    if name in GENERATED:
        return loads_scenario(_declaration(name))
    path = FIXTURES / f"{name}.json"
    return load_scenario(path) if path.exists() else exemplar(name)


def rendered(name: str) -> dict[str, str]:
    report = analyze(_load(name))
    return {f"{name}.{SUFFIX[fmt]}": report.render(fmt) for fmt in SUFFIX}


def axis_output(args: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["axis", str(FIXTURES / "molecular_axes.json"), *args])
    assert code == 0
    return out.getvalue()


def _expected(filename: str) -> str:
    return (GOLDEN / filename).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", SCENARIOS)
def test_analyze_output_is_pinned(name):
    for filename, text in rendered(name).items():
        assert text == _expected(filename), filename


@pytest.mark.parametrize("name", SCENARIOS)
def test_every_bayes_distortion_agrees_with_the_decimal_reference(name, monkeypatch):
    # each Bayes stage evaluation of the analysis, under the pmf it was
    # given, to 13 significant digits; through a map or a quantizer the
    # distortion is exactly 0.0
    taken = []
    evaluate = costbenefit._evaluate

    def recorded(stage, prior):
        metrics, out = evaluate(stage, prior)
        if isinstance(stage.recon, str):
            taken.append((stage.forward, prior, metrics.potential_distortion))
        return metrics, out

    monkeypatch.setattr(costbenefit, "_evaluate", recorded)
    analyze(_load(name))
    for forward, prior, pd in taken:
        if forward.is_deterministic:
            assert pd == 0.0 and math.copysign(1.0, pd) == 1.0, forward.id
        else:
            want = oracles.bayes_distortion_bits(dict(prior.items()), builders.rows_dict(forward))
            assert abs(pd - want) <= 1e-13 * abs(want), forward.id


@pytest.mark.parametrize("threads", ["1", "2", "4"])
@pytest.mark.parametrize("name", ["barchart", "stochastic-4096-seed1"])
def test_cli_output_does_not_follow_the_blas_thread_count(name, threads, tmp_path):
    # the thread count is read when numpy loads, so it is set in the child only
    scenario = tmp_path / f"{name}.json"
    scenario.write_text(_declaration(name), encoding="utf-8")
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "absmeter", "analyze", str(scenario), "--format", "json"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == _expected(f"{name}.json")


@pytest.mark.parametrize("run", sorted(AXIS_RUNS))
def test_axis_output_is_pinned(run):
    assert axis_output(AXIS_RUNS[run]) == _expected(f"{run}.txt")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    files = {f"{run}.txt": axis_output(args) for run, args in AXIS_RUNS.items()}
    for name in SCENARIOS:
        files.update(rendered(name))
    for filename, text in sorted(files.items()):
        (GOLDEN / filename).write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / filename}")
