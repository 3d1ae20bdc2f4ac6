"""Workload inputs, operation lists and per-operation correctness checks.

Every workload is a fixed cycle of operations. Each operation is one
`absmeter` command line; the benchmark runs it as a subprocess and, in the
same process as the benchmark, as the equivalent library call. Inputs are
written under ``perfbench/out/`` at set-up; the program only ever sees the
written files.

Only the public API is used here (scenario attributes, `Stage.recon`, the
names exported by `absmeter`), so the benchmark keeps working while the
internals it measures are rewritten.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import absmeter
from absmeter import cli

# Tolerances of the acceptance suite: telescoping AC (criterion 7), PD
# nonnegative (criterion 4) and Bayes PD zero (criterion 6).
AC_TOLERANCE = 1e-9
PD_FLOOR = -1e-12
BAYES_PD_CEILING = 1e-9

# stochastic-4096 shape. 16 entries per blur row keeps the loader the
# dominant layer (its per-entry Python work grows with the row width while
# the CSR math stays small) and still leaves room for ~20 CLI calls in a run.
STOCHASTIC_LETTERS = 4096
BLUR_WIDTH = 16
BINS = 64
ZERO_MASS_SHARE = 1 / 8
RECALL_WIDTH = 8

BARCHART_LETTERS = 1_000_001


@dataclass
class Op:
    """One operation: the CLI arguments plus what the library call needs."""

    label: str
    args: list[str]
    kind: str  # "analyze", "exemplar" or "cli"
    path: Path | None = None
    fmt: str | None = None
    name: str | None = None
    text: str = ""
    declaration_stats: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    input_files: list[Path]
    # Library calls per CLI call. The small ops take milliseconds, so many
    # repeats cost little and give every op type enough samples that the
    # median and the tail of the mix do not jump between op types.
    lib_repeats: int = 1


def _analyze_op(path: Path, fmt: str, root: Path) -> Op:
    return Op(
        label=f"analyze {path.name} {fmt}",
        args=["analyze", str(path.relative_to(root)), "--format", fmt],
        kind="analyze",
        path=path,
        fmt=fmt,
    )


def _cli_op(label: str, args: list[str], path: Path | None = None) -> Op:
    return Op(label=label, args=args, kind="cli", path=path)


def _export_exemplar(name: str, out: Path) -> Path:
    path = out / f"{name}.json"
    path.write_text(absmeter.exemplar(name).to_json(), encoding="utf-8")
    return path


def stochastic_declaration(seed: int) -> dict:
    """Seeded scenario at the 4096-letter stochastic limit.

    readings (non-uniform prior, some letters with zero mass) are blurred
    onto 4096 positions, binned deterministically into 64 bins and judged
    stochastically into three verdicts. A direct stage from readings to
    verdicts reconstructs through an explicit channel that puts mass on a
    zero-mass reading, so its PD is +inf.
    """
    rng = random.Random(seed)
    n = STOCHASTIC_LETTERS
    readings = [f"r{i}" for i in range(n)]
    zero = set(rng.sample(range(n), int(n * ZERO_MASS_SHARE)))
    weights = [0.0 if i in zero else rng.paretovariate(1.5) for i in range(n)]
    total = math.fsum(weights)
    prior = [w / total for w in weights]

    def normalized(k: int) -> list[float]:
        w = [rng.random() + 0.05 for _ in range(k)]
        s = math.fsum(w)
        return [x / s for x in w]

    half = BLUR_WIDTH // 2
    blur = {}
    for i in range(n):
        cols = [str((i + d) % n) for d in range(-half, BLUR_WIDTH - half)]
        blur[readings[i]] = dict(zip(cols, normalized(BLUR_WIDTH)))
    per_bin = n // BINS
    binning = {str(j): j // per_bin for j in range(n)}
    verdicts = ["low", "mid", "high"]
    judge = {str(b): dict(zip(verdicts, normalized(3))) for b in range(BINS)}
    direct = {r: dict(zip(verdicts, normalized(3))) for r in readings}
    zero_target = readings[min(zero)]
    recall = {}
    for v in verdicts:
        picks = rng.sample([r for i, r in enumerate(readings) if i not in zero], RECALL_WIDTH - 1)
        recall[v] = dict(zip([zero_target, *picks], normalized(RECALL_WIDTH)))
    return {
        "meta": {"id": "stochastic-4096", "title": f"generated with seed {seed}"},
        "alphabets": [
            {
                "id": "readings",
                "letters": [{"id": r, "probability": p} for r, p in zip(readings, prior)],
            },
            {"id": "blurred", "uniform_count": n},
            {"id": "bins", "uniform_range": {"min": 0, "max": BINS - 1, "step": 1}},
            {"id": "verdicts", "letters": [{"id": v} for v in verdicts]},
        ],
        "channels": [
            {"id": "blur", "from": "readings", "to": "blurred", "stochastic": {"rows": blur}},
            {"id": "bin", "from": "blurred", "to": "bins", "deterministic": {"map": binning}},
            {"id": "judge", "from": "bins", "to": "verdicts", "stochastic": {"rows": judge}},
            {"id": "direct", "from": "readings", "to": "verdicts", "stochastic": {"rows": direct}},
            {"id": "recall", "from": "verdicts", "to": "readings", "stochastic": {"rows": recall}},
        ],
        "stages": [
            {"id": "blur-stage", "forward": "blur", "recon": "bayes", "cost": 1.0},
            {"id": "bin-stage", "forward": "bin", "recon": "bayes", "cost": 0.5},
            {"id": "judge-stage", "forward": "judge", "recon": "bayes", "cost": 1.0},
            {"id": "direct-stage", "forward": "direct", "recon": "recall", "cost": 3.0},
        ],
        "pipelines": [
            {"id": "blur-bin-judge", "stages": ["blur-stage", "bin-stage", "judge-stage"]}
        ],
        "direct_routes": [
            {"id": "direct-vs-staged", "stage": "direct-stage", "pipeline": "blur-bin-judge"}
        ],
    }


def build(name: str, seed: int, root: Path, out: Path) -> Workload:
    """Write the workload's inputs under ``out`` and return its op cycle.

    The seed fixes the generated scenario of stochastic-4096 and the op
    order of small-scenarios; the barchart input is the exemplar itself.
    """
    if name == "barchart":
        path = _export_exemplar("barchart", out)
        ops = [_analyze_op(path, "json", root)]
        workload = Workload(name, ops, [path])
    elif name == "stochastic-4096":
        path = out / f"stochastic-4096-seed{seed}.json"
        path.write_text(json.dumps(stochastic_declaration(seed)), encoding="utf-8")
        ops = [_analyze_op(path, "json", root)]
        workload = Workload(name, ops, [path])
    elif name == "small-scenarios":
        fixtures = sorted((root / "tests" / "fixtures").glob("*.json"))
        small = ["integer-plot", "random-plotter", "figure-scores"]
        exported = [_export_exemplar(e, out) for e in small]
        ops = []
        for path in fixtures:
            rel = str(path.relative_to(root))
            ops += [_analyze_op(path, fmt, root) for fmt in ("table", "json", "csv")]
            ops.append(_cli_op(f"validate {path.name}", ["validate", rel], path))
            if json.loads(path.read_text(encoding="utf-8")).get("axes"):
                ops.append(_cli_op(f"axis {path.name}", ["axis", rel], path))
        ops += [_analyze_op(path, "json", root) for path in exported]
        ops.append(_cli_op("score", ["score", "--condition-a", "yes", "--condition-b", "na"]))
        ops += [
            Op(label=f"exemplar {e}", args=["exemplar", e], kind="exemplar", name=e)
            for e in small
        ]
        random.Random(seed).shuffle(ops)
        workload = Workload(name, ops, fixtures + exported, lib_repeats=20)
    else:
        raise ValueError(f"unknown workload {name!r}")
    for op in workload.ops:
        if op.path is not None:
            op.text = op.path.read_text(encoding="utf-8")
            op.declaration_stats = declaration_stats(json.loads(op.text), op.text)
    return workload


def declaration_stats(decl: dict, text: str) -> dict:
    """Input size, letters and declared conditional entries of a scenario."""
    letters = {}
    for a in decl.get("alphabets", []):
        if "letters" in a:
            letters[a["id"]] = len(a["letters"])
        elif "uniform_count" in a:
            letters[a["id"]] = a["uniform_count"]
        elif "uniform_range" in a:
            r = a["uniform_range"]
            letters[a["id"]] = round((r["max"] - r["min"]) / r["step"]) + 1
    entries = {}
    for c in decl.get("channels", []):
        if "stochastic" in c:
            entries[c["id"]] = sum(len(row) for row in c["stochastic"]["rows"].values())
        else:
            entries[c["id"]] = letters.get(c["from"], 0)
    return {
        "input_bytes": len(text.encode("utf-8")),
        "letters": sum(letters.values()),
        "entries": sum(entries.values()),
        "channel_entries": entries,
    }


# ---- the library side of each operation -----------------------------------


def run_inprocess(op: Op):
    """The library call equivalent to the op's command line.

    Returns the text the CLI would print and, for analyze ops, the scenario
    and the report so the checks can read the numbers.
    """
    if op.kind == "analyze":
        scenario = absmeter.loads_scenario(op.text, name=op.path.stem)
        report = absmeter.analyze(scenario)
        return report.render(op.fmt), scenario, report
    if op.kind == "exemplar":
        return absmeter.exemplar(op.name).to_json(), None, None
    return run_cli_main(op.args), None, None


def run_cli_main(args: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    if code != 0:
        raise RuntimeError(f"cli.main({args}) returned {code}")
    return buf.getvalue()


# ---- correctness checks -----------------------------------------------------


def check_report(workload: str, scenario, report) -> list[str]:
    """Numeric checks on one analyze report; returns the problems found."""
    problems: list[str] = []
    body = report.body
    bayes = {sid: isinstance(s.recon, str) for sid, s in scenario.stages.items()}

    def stage_checks(where: str, s: dict) -> None:
        ac = s["alphabet_compression_bits"]
        drop = s["input_entropy_bits"] - s["output_entropy_bits"]
        if not abs(ac - drop) <= AC_TOLERANCE:
            problems.append(f"{where}: AC {ac!r} != H_in - H_out {drop!r}")
        pd = s["potential_distortion_bits"]
        if not pd >= PD_FLOOR:
            problems.append(f"{where}: PD {pd!r} < {PD_FLOOR}")
        if bayes.get(s["stage"]) and not pd <= BAYES_PD_CEILING:
            problems.append(f"{where}: Bayes PD {pd!r} > {BAYES_PD_CEILING}")

    for s in body.get("stages", []):
        stage_checks(f"stages[{s['stage']}]", s)
    for p in body.get("pipelines", []):
        for s in p["stages"]:
            stage_checks(f"pipelines[{p['id']}][{s['index']}]", s)
    for r in body.get("routes", []):
        for key in ("distortion_pipeline_bits", "distortion_direct_bits"):
            if not r[key] >= PD_FLOOR:
                problems.append(f"routes[{r['id']}].{key} = {r[key]!r} < {PD_FLOOR}")
        if bayes.get(r["direct_stage"]) and not r["distortion_direct_bits"] <= BAYES_PD_CEILING:
            problems.append(f"routes[{r['id']}]: Bayes direct PD {r['distortion_direct_bits']!r}")

    if workload == "barchart":
        problems += _check_barchart(body)
    if workload == "stochastic-4096":
        stages = {s["stage"]: s for s in body.get("stages", [])}
        routes = body.get("routes", [])
        if stages.get("direct-stage", {}).get("potential_distortion_bits") != math.inf:
            problems.append("direct-stage PD is not +inf")
        if not routes or routes[0]["distortion_direct_bits"] != math.inf:
            problems.append("direct route distortion is not +inf")
    return problems


def _barchart_closed_forms() -> dict[str, float]:
    # Reading i sits at 0.01 * i and lands on bar floor(i / 1000 + 1/2):
    # 500 readings on bar 0, 1000 on each of bars 1..999 and 501 on bar 1000.
    n = BARCHART_LETTERS
    counts = [500] + [1000] * 999 + [501]
    h_bars_pushed = -math.fsum(c / n * math.log2(c / n) for c in counts)
    return {
        "readings entropy": math.log2(n),
        "bars entropy": math.log2(1001),
        "plot-stage AC": math.log2(n) - h_bars_pushed,
    }


BARCHART_CLOSED_FORMS = _barchart_closed_forms()


def _check_barchart(body: dict) -> list[str]:
    alphabets = {a["id"]: a["entropy_bits"] for a in body.get("alphabets", [])}
    stages = {s["stage"]: s for s in body.get("stages", [])}
    got = {
        "readings entropy": alphabets.get("readings"),
        "bars entropy": alphabets.get("bars"),
        "plot-stage AC": stages.get("plot-stage", {}).get("alphabet_compression_bits"),
    }
    return [
        f"barchart {key} {got[key]!r} != closed form {want!r}"
        for key, want in BARCHART_CLOSED_FORMS.items()
        if got[key] is None or not abs(got[key] - want) <= AC_TOLERANCE
    ]
