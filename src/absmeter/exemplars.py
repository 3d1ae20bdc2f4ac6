"""Built-in scenarios covering the canonical compression cases.

Four are provided:

* ``barchart``: one bounded reading at two-decimal precision (1,000,001
  possible values) drawn as a bar on a canvas with 1001 distinguishable
  heights, then judged against a half-way threshold. Plotting compresses
  about 19.93 bits down to about 9.97.
* ``integer-plot``: an integer reading from 0..100 on the same canvas. The
  plot is injective, so compression is exactly zero.
* ``random-plotter``: a renderer that ignores its input and picks a bar
  height at random; compression is negative.
* ``figure-scores``: condition judgments for eight representation styles
  plus a raw-spreadsheet baseline.

Each exemplar is built as a declaration and run through the ordinary
scenario validation, so it behaves exactly like a loaded file.
"""

from __future__ import annotations

from .scenario import Scenario, _parse_owned

EXEMPLAR_NAMES = ("barchart", "integer-plot", "random-plotter", "figure-scores")

_CANVAS_LEVELS = 1001


def _barchart() -> dict:
    threshold = {
        str(v): ("below" if v < _CANVAS_LEVELS // 2 else "above")
        for v in range(_CANVAS_LEVELS)
    }
    return {
        "meta": {
            "id": "barchart",
            "title": "One bounded reading drawn as a bar, then a threshold call",
            "point_of_view": {"action": "analyze", "target": "data"},
        },
        "alphabets": [
            {"id": "readings", "uniform_range": {"min": 0.0, "max": 10000.0, "step": 0.01}},
            {"id": "bars", "uniform_range": {"min": 0, "max": _CANVAS_LEVELS - 1, "step": 1}},
            {"id": "verdicts", "letters": [{"id": "below"}, {"id": "above"}]},
        ],
        "channels": [
            {
                "id": "plot",
                "from": "readings",
                "to": "bars",
                "deterministic": {"quantizer": {"pixels": _CANVAS_LEVELS}},
            },
            {
                "id": "threshold",
                "from": "bars",
                "to": "verdicts",
                "deterministic": {"map": threshold},
            },
        ],
        "stages": [
            {"id": "plot-stage", "forward": "plot", "recon": "bayes", "cost": 1.0},
            {"id": "threshold-stage", "forward": "threshold", "recon": "bayes", "cost": 1.0},
        ],
        "pipelines": [
            {"id": "reading-to-verdict", "stages": ["plot-stage", "threshold-stage"]}
        ],
    }


def _integer_plot() -> dict:
    return {
        "meta": {
            "id": "integer-plot",
            "title": "An integer reading on the same canvas; nothing is lost",
            "point_of_view": {"action": "analyze", "target": "data"},
        },
        "alphabets": [
            {"id": "readings", "uniform_range": {"min": 0, "max": 100, "step": 1}},
            {"id": "bars", "uniform_range": {"min": 0, "max": _CANVAS_LEVELS - 1, "step": 1}},
        ],
        "channels": [
            {
                "id": "plot",
                "from": "readings",
                "to": "bars",
                "deterministic": {"quantizer": {"pixels": _CANVAS_LEVELS}},
            }
        ],
        "stages": [
            {"id": "plot-stage", "forward": "plot", "recon": "bayes", "cost": 1.0}
        ],
    }


def _random_plotter() -> dict:
    fanout = {str(v): 1.0 / _CANVAS_LEVELS for v in range(_CANVAS_LEVELS)}
    return {
        "meta": {
            "id": "random-plotter",
            "title": "A renderer that ignores its input; variation is invented",
            "point_of_view": {"action": "analyze", "target": "data"},
        },
        "alphabets": [
            {"id": "readings", "letters": [{"id": "reading"}]},
            {"id": "bars", "uniform_range": {"min": 0, "max": _CANVAS_LEVELS - 1, "step": 1}},
        ],
        "channels": [
            {
                "id": "random-plot",
                "from": "readings",
                "to": "bars",
                "stochastic": {"rows": {"reading": fanout}},
            }
        ],
        "stages": [
            {"id": "plot-stage", "forward": "random-plot", "recon": "bayes", "cost": 1.0}
        ],
    }


def _figure_scores() -> dict:
    judgments = []
    for jid in ("a", "b", "c", "d"):
        judgments.append(
            {"id": jid, "condition_a": True, "condition_b": "satisfied", "score": 3}
        )
    for jid in ("e", "f"):
        judgments.append(
            {"id": jid, "condition_a": True, "condition_b": "not_applicable", "score": 2}
        )
    for jid in ("g", "h"):
        judgments.append(
            {"id": jid, "condition_a": True, "condition_b": "negated", "score": 1}
        )
    judgments.append(
        {
            "id": "spreadsheet",
            "condition_a": False,
            "condition_b": "not_applicable",
            "score": 0,
        }
    )
    return {
        "meta": {
            "id": "figure-scores",
            "title": "Condition scores for eight depiction styles and a raw table",
        },
        "judgments": judgments,
    }


_BUILDERS = {
    "barchart": _barchart,
    "integer-plot": _integer_plot,
    "random-plotter": _random_plotter,
    "figure-scores": _figure_scores,
}


def exemplar(name: str) -> Scenario:
    """Build one of the named built-in scenarios."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown exemplar {name!r} (valid: {', '.join(EXEMPLAR_NAMES)})"
        ) from None
    return _parse_owned(builder(), name)
