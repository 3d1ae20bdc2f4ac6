"""Pinned report bytes: every renderer's output on the fixtures and exemplars.

Each scenario is analyzed once in process and rendered in all three formats;
`absmeter axis` runs through `cli.main`. Besides the fixtures and exemplars,
the benchmark's seed-1 stochastic scenario (`perfbench/workloads.py`) pins
the stochastic loader at the 4096-letter limit. The expected bytes live in
`tests/golden/`. To rewrite them after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from absmeter import EXEMPLAR_NAMES, analyze, exemplar, load_scenario, loads_scenario
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


def _generated(seed: int):
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    from workloads import stochastic_declaration

    return loads_scenario(json.dumps(stochastic_declaration(seed)))


def _load(name: str):
    if name in GENERATED:
        return _generated(GENERATED[name])
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
