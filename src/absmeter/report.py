"""Evaluate a scenario and render the result.

`analyze` walks a validated scenario in declaration order and produces a
plain nested structure: alphabet entropies, per-stage metrics (each declared
stage under its source alphabet's own distribution), chained pipeline
metrics, route comparisons, judgment scores, and axis transition
classifications. Sections with nothing to say are omitted. One evaluator
serves the stage, pipeline and route sections, so each (stage, input
distribution) pair is evaluated once per call, however many sections
report it.

Each section is described once: `_STAGE_FIELDS` names every stage metric
with its body/CSV key, table header and getter; `_FLAT` names the id and
metric keys of the flat sections; `_transition_text` and `_fork_text` spell
the axis lines. The JSON body, the CSV, the table and `absmeter axis` all
read those descriptions.

Rendering is deterministic byte for byte. The machine formats (json, csv)
carry full float precision and spell infinities "+inf"/"-inf"; the table
format rounds to four decimals for reading.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Iterable

from .alphabet import entropy
from .axis import AbstractionAxis, detect_fork
from .costbenefit import StageMetrics, _Evaluator
from .scenario import Scenario


@dataclass
class Report:
    """Evaluated scenario results plus renderers for each output format."""

    scenario_id: str
    body: dict

    def render(self, format: str = "table") -> str:
        to_text = _FORMATS.get(format)
        if to_text is None:
            raise ValueError(f"unknown format {format!r} (valid: {', '.join(_FORMATS)})")
        return to_text(self)

    def to_json(self) -> str:
        return json.dumps(_jsonable(self.body), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["section", "id", "metric", "value"])
        for section, rid, metric, value in _flatten(self.body):
            writer.writerow([section, rid, metric, _text(value, machine=True)])
        return out.getvalue()

    def to_table(self) -> str:
        return _render_table(self.body)


_FORMATS = {"table": Report.to_table, "json": Report.to_json, "csv": Report.to_csv}


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return _text(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _text(value, machine: bool = False) -> str:
    """One report value as text: full precision and true/false for the
    machine formats, four decimals and yes/no for the table."""
    if isinstance(value, bool):
        return ("true" if value else "false") if machine else ("yes" if value else "no")
    if isinstance(value, float):
        if math.isinf(value):
            return "+inf" if value > 0 else "-inf"
        return repr(value) if machine else f"{value:.4f}"
    return str(value)


# (body/CSV key, table header or None for CSV-only, getter); the getters
# also read a pipeline's totals, which share these attribute names
_STAGE_FIELDS = (
    ("input_entropy_bits", "H_in", lambda m: m.input_entropy),
    ("output_entropy_bits", "H_out", lambda m: m.output_entropy),
    ("alphabet_compression_bits", "AC", lambda m: m.alphabet_compression),
    ("potential_distortion_bits", "PD", lambda m: m.potential_distortion),
    ("benefit_bits", None, lambda m: m.benefit),
    ("cost", "cost", lambda m: m.cost),
    ("ratio", "ratio", lambda m: m.ratio),
)
_STAGE_KEYS = tuple(key for key, _, _ in _STAGE_FIELDS)
_STAGE_COLUMNS = tuple((header, key) for key, header, _ in _STAGE_FIELDS if header)
_PIPELINE_KEYS = ("input_entropy_bits", "output_entropy_bits", "benefit_bits", "cost", "ratio")

# section -> (id key, metric keys), for the sections with one CSV row per metric
_FLAT = {
    "alphabets": ("id", ("letters", "entropy_bits")),
    "stages": ("stage", _STAGE_KEYS),
    "judgments": ("id", ("condition_a", "condition_b", "score")),
}


def _stage_dict(m: StageMetrics) -> dict:
    out = {
        "stage": m.stage_id,
        "forward": m.forward_id,
        "from": m.input_alphabet,
        "to": m.output_alphabet,
    }
    for key, _, get in _STAGE_FIELDS:
        out[key] = get(m)
    return out


def _axis_sections(axes: Iterable[AbstractionAxis]) -> dict:
    """The axes section, plus a forks section when any two axes fork."""
    axes = list(axes)
    out: dict = {
        "axes": [
            {
                "id": axis.id,
                "nodes": len(axis.nodes),
                "transitions": [
                    {
                        "index": i,
                        "from": axis.nodes[i].id,
                        "to": axis.nodes[i + 1].id,
                        "kind": kind.value,
                    }
                    for i, kind in enumerate(axis.transitions())
                ],
            }
            for axis in axes
        ]
    }
    forks = detect_fork(axes)
    if forks:
        out["forks"] = [
            {
                "axis_a": f.axis_a,
                "axis_b": f.axis_b,
                "shared_prefix": list(f.shared_prefix),
                "fork_index": f.fork_index,
            }
            for f in forks
        ]
    return out


def _transition_text(t: dict) -> str:
    return f"{t['from']} -> {t['to']}: {t['kind']}"


def _fork_text(f: dict) -> str:
    return (
        f"{f['axis_a']} | {f['axis_b']}: shared "
        f"{'/'.join(f['shared_prefix'])}, diverge at index {f['fork_index']}"
    )


def analyze(scenario: Scenario, pipeline_id: str | None = None) -> Report:
    """Evaluate everything a scenario declares.

    With ``pipeline_id`` the pipeline and route sections are restricted to
    that pipeline; everything else is reported as usual.
    """
    if pipeline_id is not None and pipeline_id not in scenario.pipelines:
        raise ValueError(
            f"scenario '{scenario.id}' has no pipeline '{pipeline_id}'"
        )
    body: dict = {"scenario": scenario.id}
    evaluator = _Evaluator()

    if scenario.alphabets:
        body["alphabets"] = [
            {"id": a.id, "letters": a.n_letters, "entropy_bits": entropy(a)}
            for a in scenario.alphabets.values()
        ]

    if scenario.stages:
        body["stages"] = [
            _stage_dict(evaluator.stage(stage, stage.forward.source.pmf).stages[0])
            for stage in scenario.stages.values()
        ]

    selected = [
        p
        for p in scenario.pipelines.values()
        if pipeline_id is None or p.id == pipeline_id
    ]
    if selected:
        rows = []
        for pipeline in selected:
            report = evaluator.pipeline(pipeline)
            stages = [
                {**_stage_dict(m), "index": i} for i, m in enumerate(report.stages)
            ]
            totals = {key: get(report) for key, _, get in _STAGE_FIELDS if key in _PIPELINE_KEYS}
            rows.append({"id": pipeline.id, "stages": stages, **totals})
        body["pipelines"] = rows

    routes = [
        r
        for r in scenario.direct_routes.values()
        if pipeline_id is None or r.pipeline_id == pipeline_id
    ]
    if routes:
        rows = []
        for route in routes:
            cmp = evaluator.route(scenario.pipelines[route.pipeline_id], route.stage)
            row = {
                "id": route.id,
                "pipeline": cmp.pipeline_id,
                "direct_stage": cmp.direct_id,
                "compression_pipeline_bits": cmp.compression_pipeline,
                "compression_direct_bits": cmp.compression_direct,
                "compression_gap_bits": cmp.compression_gap,
                "compression_additive": cmp.compression_additive,
                "distortion_pipeline_bits": cmp.distortion_pipeline,
                "distortion_direct_bits": cmp.distortion_direct,
                "pipeline_cost": cmp.pipeline.cost,
                "direct_cost": cmp.direct.cost,
                "cost_premise_holds": cmp.cost_premise_holds,
                "distortion_premise_holds": cmp.distortion_premise_holds,
                "premises_satisfied": cmp.premises_satisfied,
                "pipeline_ratio": cmp.pipeline_ratio,
                "direct_ratio": cmp.direct_ratio,
                "pipeline_preferred": cmp.pipeline_preferred,
            }
            if not cmp.premises_satisfied:
                row["note"] = "premises not satisfied"
            rows.append(row)
        body["routes"] = rows

    if scenario.judgments:
        rows = []
        for j in scenario.judgments:
            row = {
                "id": j.id,
                "condition_a": j.condition_a,
                "condition_b": j.condition_b.value,
                "score": j.score,
            }
            if j.point_of_view is not None:
                pov = {
                    "action": j.point_of_view.action.value,
                    "target": j.point_of_view.target.value,
                }
                if j.point_of_view.refinement:
                    pov["refinement"] = j.point_of_view.refinement
                row["point_of_view"] = pov
            rows.append(row)
        body["judgments"] = rows

    if scenario.axes:
        body.update(_axis_sections(scenario.axes.values()))

    return Report(scenario_id=scenario.id, body=body)


# ---- flat and tabular rendering -----------------------------------------


def _flatten(body: dict):
    """Yield (section, id, metric, value) rows in body order."""
    for section, rows in body.items():
        if section == "scenario":
            yield section, "-", "id", rows
        elif section in _FLAT:
            id_key, keys = _FLAT[section]
            for row in rows:
                for key in keys:
                    yield section, row[id_key], key, row[key]
        elif section == "pipelines":
            for p in rows:
                for s in p["stages"]:
                    for key in _STAGE_KEYS:
                        yield section, f"{p['id']}[{s['index']}]", key, s[key]
                for key in _PIPELINE_KEYS:
                    yield section, p["id"], key, p[key]
        elif section == "routes":
            for r in rows:
                for key, value in r.items():
                    if key != "id":
                        yield section, r["id"], key, value
        elif section == "axes":
            for a in rows:
                for t in a["transitions"]:
                    yield section, f"{a['id']}[{t['index']}]", "transition", _transition_text(t)
        elif section == "forks":
            for f in rows:
                where = f"after {'/'.join(f['shared_prefix'])} at index {f['fork_index']}"
                yield section, f"{f['axis_a']}|{f['axis_b']}", "fork", where


def _format_columns(rows: list[list[str]], indent: str = "  ") -> list[str]:
    if not rows:
        return []
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return [
        indent + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]


def _grid(rows: list[dict], columns) -> list[str]:
    """Aligned table lines: a header row, then one row per dict; each column
    is a (header, key) pair."""
    cells = [[header for header, _ in columns]]
    cells += [[_text(row[key]) for _, key in columns] for row in rows]
    return _format_columns(cells)


def _render_table(body: dict) -> str:
    lines: list[str] = [f"scenario: {body['scenario']}"]
    for section, rows in body.items():
        if section in ("alphabets", "judgments"):
            lines += ["", section]
            lines += _grid(rows, [(key, key) for key in ("id", *_FLAT[section][1])])
        elif section == "stages":
            lines += ["", "stages (each under its source alphabet's own distribution)"]
            lines += _grid(rows, [("id", "stage"), ("from", "from"), ("to", "to"), *_STAGE_COLUMNS])
        elif section == "pipelines":
            for p in rows:
                lines += ["", f"pipeline {p['id']}"]
                columns = [("step", "index"), ("stage", "stage"), ("from", "from"), ("to", "to")]
                # steps leave out the stage entropies: columns from AC on
                lines += _grid(p["stages"], columns + list(_STAGE_COLUMNS[2:]))
                lines.append(
                    f"  combined: benefit {_text(p['benefit_bits'])} bits, "
                    f"cost {_text(p['cost'])}, ratio {_text(p['ratio'])}"
                )
        elif section == "routes":
            lines += ["", "route comparisons"]
            for r in rows:
                lines.append(
                    f"  {r['id']}: pipeline {r['pipeline']} ratio "
                    f"{_text(r['pipeline_ratio'])} vs direct {r['direct_stage']} ratio "
                    f"{_text(r['direct_ratio'])}"
                )
                premises = [
                    ["premise", "holds"],
                    ["direct costs more", _text(r["cost_premise_holds"])],
                    ["direct distorts more", _text(r["distortion_premise_holds"])],
                    ["compression additive", _text(r["compression_additive"])],
                ]
                lines += _format_columns(premises, indent="    ")
                verdict = (
                    "pipeline preferred" if r["pipeline_preferred"] else "direct preferred or tied"
                )
                if "note" in r:
                    verdict += f" ({r['note']})"
                lines.append(f"    {verdict}")
        elif section == "axes":
            lines += ["", "axes"]
            for a in rows:
                lines.append(f"  {a['id']} ({a['nodes']} nodes)")
                lines += [f"    [{t['index']}] {_transition_text(t)}" for t in a["transitions"]]
        elif section == "forks":
            lines += ["", "forks"]
            lines += [f"  {_fork_text(f)}" for f in rows]
    return "\n".join(lines) + "\n"
