"""Tests for report assembly and the three output formats."""

import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from absmeter import (
    Pmf,
    analyze,
    costbenefit,
    exemplar,
    load_scenario,
    loads_scenario,
    stage_cost_benefit,
)
from test_golden import _load as load_golden_scenario


def grid_pipeline(seed: int, shuffled: bool) -> str:
    """A pipeline over a 4096-letter grid through two quantizers, with a
    declared heavy-tailed prior whose keys come in letter order or shuffled."""
    rng = np.random.default_rng(seed)
    w = rng.pareto(1.5, 4096) + 1e-3
    probs = (w / w.sum()).tolist()
    keys = rng.permutation(4096).tolist() if shuffled else range(4096)
    return json.dumps(
        {
            "alphabets": [
                {"id": "g", "uniform_range": {"min": 0, "max": 4095, "step": 1}},
                {"id": "h", "uniform_range": {"min": 0, "max": 63, "step": 1}},
                {"id": "k", "uniform_range": {"min": 0, "max": 7, "step": 1}},
            ],
            "channels": [
                {"id": "fine", "from": "g", "to": "h", "deterministic": {"quantizer": {"pixels": 64}}},
                {"id": "coarse", "from": "h", "to": "k", "deterministic": {"quantizer": {"pixels": 8}}},
            ],
            "stages": [
                {"id": "s1", "forward": "fine", "cost": 1.0},
                {"id": "s2", "forward": "coarse", "cost": 1.0},
            ],
            "pipelines": [
                {"id": "p", "stages": ["s1", "s2"], "prior": {str(k): probs[k] for k in keys}}
            ],
        }
    )


@pytest.fixture(scope="module")
def route_report(request):
    fixtures = request.path.parent / "fixtures"
    return analyze(load_scenario(fixtures / "route_premises_hold.json"))


class TestBody:
    def test_sections_present(self, route_report):
        body = route_report.body
        assert body["scenario"] == "route-premises-hold"
        for section in ("alphabets", "stages", "pipelines", "routes"):
            assert section in body

    def test_empty_sections_omitted(self, route_report):
        assert "judgments" not in route_report.body
        assert "axes" not in route_report.body

    def test_pipeline_stage_metrics(self, route_report):
        pipeline = route_report.body["pipelines"][0]
        assert pipeline["id"] == "two-hop"
        assert pipeline["input_entropy_bits"] == pytest.approx(3.0, abs=1e-12)
        assert pipeline["output_entropy_bits"] == pytest.approx(1.0, abs=1e-12)
        assert pipeline["benefit_bits"] == pytest.approx(1.5, abs=1e-9)
        assert pipeline["cost"] == 5.0
        assert pipeline["ratio"] == pytest.approx(0.3, abs=1e-9)
        assert [s["index"] for s in pipeline["stages"]] == [0, 1]

    def test_route_comparison_fields(self, route_report):
        route = route_report.body["routes"][0]
        assert route["pipeline"] == "two-hop"
        assert route["direct_stage"] == "leap-stage"
        assert route["compression_additive"] is True
        assert route["cost_premise_holds"] is True
        assert route["distortion_premise_holds"] is True
        assert route["premises_satisfied"] is True
        assert route["pipeline_preferred"] is True
        assert route["pipeline_ratio"] == pytest.approx(0.3, abs=1e-9)
        assert route["direct_ratio"] == pytest.approx(0.0, abs=1e-9)

    def test_unknown_pipeline_rejected(self, request):
        fixtures = request.path.parent / "fixtures"
        scenario = load_scenario(fixtures / "route_premises_hold.json")
        with pytest.raises(ValueError, match="has no pipeline 'ghost'"):
            analyze(scenario, pipeline_id="ghost")

    def test_analyze_is_deterministic(self, request):
        fixtures = request.path.parent / "fixtures"
        scenario = load_scenario(fixtures / "route_premises_hold.json")
        assert analyze(scenario).to_json() == analyze(scenario).to_json()


class TestEvaluationMemo:
    """`analyze` evaluates each (stage, input pmf) pair once; every public
    call starts afresh."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        fresh = costbenefit._evaluate

        def counted(stage, prior):
            calls.append((stage.id, id(prior)))
            return fresh(stage, prior)

        monkeypatch.setattr(costbenefit, "_evaluate", counted)
        return calls

    @pytest.mark.parametrize(
        "name", ["route_premises_hold.json", "route_cost_premise_violated.json"]
    )
    def test_route_fixture_evaluates_each_pair_once(self, request, evaluations, name):
        scenario = load_scenario(request.path.parent / "fixtures" / name)
        analyze(scenario)
        assert len(evaluations) == 4
        assert len(set(evaluations)) == 4

    def test_barchart_evaluates_three_pairs(self, evaluations):
        analyze(exemplar("barchart"))
        assert len(evaluations) == 3

    def test_each_analyze_evaluates_afresh(self, request, evaluations):
        path = request.path.parent / "fixtures" / "route_premises_hold.json"
        scenario = load_scenario(path)
        first = analyze(scenario).to_json()
        assert len(evaluations) == 4
        assert analyze(scenario).to_json() == first
        assert len(evaluations) == 8

    def test_public_calls_do_not_share_evaluations(self, request, evaluations):
        path = request.path.parent / "fixtures" / "route_premises_hold.json"
        stage = next(iter(load_scenario(path).stages.values()))
        prior = stage.forward.source.pmf
        assert stage_cost_benefit(stage, prior) == stage_cost_benefit(stage, prior)
        assert len(evaluations) == 2


class TestNoIdLookup:
    """`analyze` looks no letter up by its id: every pmf it computes is over
    an alphabet's letters, whose ids the alphabet checked once when built."""

    @pytest.mark.parametrize("name", ["stochastic-4096-seed1", "route_premises_hold", "grid-prior"])
    def test_analyze_builds_no_id_index(self, monkeypatch, name):
        if name == "grid-prior":
            # a declared prior is over the first alphabet's own ids
            scenario = loads_scenario(grid_pipeline(0, shuffled=False))
        else:
            scenario = load_golden_scenario(name)
        built = []
        ensure_index = Pmf._ensure_index

        def counted(pmf):
            built.append(len(pmf))
            return ensure_index(pmf)

        monkeypatch.setattr(Pmf, "_ensure_index", counted)
        analyze(scenario)
        assert built == []


class TestDeclaredPrior:
    def test_key_order_does_not_reach_the_report(self):
        # a prior is summed in letter order, whatever order its keys come in;
        # summed in key order, this seed's entropy differs in the last bit
        in_order = analyze(loads_scenario(grid_pipeline(0, shuffled=False))).to_json()
        assert analyze(loads_scenario(grid_pipeline(0, shuffled=True))).to_json() == in_order


class TestMemory:
    def test_barchart_holds_under_1_mib_and_peaks_under_2_mib(self):
        # the op keeps nothing per letter of its 1,000,001: the plot channel
        # holds its 1,001 level counts and builds no image, the uniform
        # readings pmf is one value, and every other million-letter pass
        # works in blocks
        text = exemplar("barchart").to_json()
        tracemalloc.start()
        try:
            scenario = loads_scenario(text)
            held = tracemalloc.get_traced_memory()[0]
            analyze(scenario).render("json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held <= 1 * 2**20, f"held {held / 2**20:.1f} MiB after the load"
        assert peak <= 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestJsonFormat:
    def test_sorted_keys_and_trailing_newline(self, route_report):
        text = route_report.to_json()
        assert text.endswith("\n")
        reloaded = json.loads(text)
        assert text == json.dumps(reloaded, indent=2, sort_keys=True) + "\n"

    def test_floats_keep_full_precision(self, route_report):
        body = json.loads(route_report.to_json())
        ratio = body["pipelines"][0]["ratio"]
        assert ratio == 0.3  # repr round-trips exactly

    def test_render_dispatch(self, route_report):
        assert route_report.render("json") == route_report.to_json()
        with pytest.raises(ValueError, match="unknown format"):
            route_report.render("yaml")


class TestCsvFormat:
    def test_header_and_shape(self, route_report):
        rows = list(csv.reader(io.StringIO(route_report.to_csv())))
        assert rows[0] == ["section", "id", "metric", "value"]
        assert all(len(row) == 4 for row in rows)

    def test_machine_values_survive_parsing(self, route_report):
        rows = list(csv.reader(io.StringIO(route_report.to_csv())))
        values = {
            (r[0], r[1], r[2]): r[3] for r in rows[1:]
        }
        ratio = values[("pipelines", "two-hop", "ratio")]
        # at least 12 significant digits survive the text round trip
        assert float(ratio) == pytest.approx(0.3, abs=1e-12)
        assert values[("routes", "leap-vs-two-hop", "premises_satisfied")] == "true"

    def test_booleans_lowercase(self, route_report):
        text = route_report.to_csv()
        assert "True" not in text
        assert "False" not in text


class TestTableFormat:
    def test_pipeline_block_and_verdict(self, route_report):
        text = route_report.to_table()
        assert "combined:" in text
        assert "pipeline preferred" in text

    def test_floats_rounded_for_reading(self, route_report):
        assert "0.3000" in route_report.to_table()

    def test_judgments_render(self):
        report = analyze(exemplar("figure-scores"))
        text = report.to_table()
        assert "judgments" in text
        assert "spreadsheet" in text

    def test_infinities_render_inline(self):
        from absmeter import Report

        report = Report(
            scenario_id="toy",
            body={
                "scenario": "toy",
                "stages": [
                    {
                        "stage": "s",
                        "forward": "f",
                        "from": "a",
                        "to": "b",
                        "input_entropy_bits": 1.0,
                        "output_entropy_bits": 1.0,
                        "alphabet_compression_bits": 0.0,
                        "potential_distortion_bits": math.inf,
                        "benefit_bits": -math.inf,
                        "cost": 1.0,
                        "ratio": -math.inf,
                    }
                ],
            },
        )
        table = report.to_table()
        assert "+inf" in table
        assert "-inf" in table
        as_json = json.loads(report.to_json())
        assert as_json["stages"][0]["potential_distortion_bits"] == "+inf"
        assert as_json["stages"][0]["ratio"] == "-inf"
