"""Tests for scenario file parsing, validation, and round-tripping."""

import json
import math

import pytest

from absmeter import (
    EXEMPLAR_NAMES,
    OverlappingAttributesError,
    Pmf,
    ScenarioError,
    TransitionKind,
    analyze,
    classify_transition,
    combine_space,
    compare_routes,
    detect_fork,
    exemplar,
    load_scenario,
    loads_scenario,
    parse_scenario,
)


def minimal() -> dict:
    """Smallest declaration that parses: two alphabets, one channel."""
    return {
        "alphabets": [
            {"id": "src", "uniform_count": 4},
            {"id": "dst", "uniform_count": 2},
        ],
        "channels": [
            {
                "id": "halve",
                "from": "src",
                "to": "dst",
                "deterministic": {"map": {"0": "0", "1": "0", "2": "1", "3": "1"}},
            }
        ],
    }


def parse(data: dict):
    return loads_scenario(json.dumps(data), name="inline")


def err(data: dict) -> ScenarioError:
    with pytest.raises(ScenarioError) as exc_info:
        parse(data)
    return exc_info.value


class TestLoading:
    def test_fixture_files_parse(self, fixtures_dir):
        for name, scenario_id in [
            ("route_premises_hold.json", "route-premises-hold"),
            ("route_cost_premise_violated.json", "route-cost-premise-violated"),
            ("molecular_axes.json", "molecular-axes"),
        ]:
            scenario = load_scenario(fixtures_dir / name)
            assert scenario.id == scenario_id

    def test_name_is_fallback_id(self):
        scenario = loads_scenario(json.dumps(minimal()), name="fallback")
        assert scenario.id == "fallback"

    def test_meta_id_wins_over_name(self):
        data = minimal()
        data["meta"] = {"id": "declared"}
        scenario = loads_scenario(json.dumps(data), name="ignored")
        assert scenario.id == "declared"

    def test_load_scenario_uses_stem_as_name(self, tmp_path):
        path = tmp_path / "from-disk.json"
        path.write_text(json.dumps(minimal()), encoding="utf-8")
        assert load_scenario(path).id == "from-disk"

    def test_malformed_json_fails_at_root(self):
        with pytest.raises(ScenarioError) as exc_info:
            loads_scenario("{not json")
        assert exc_info.value.path == "$"
        assert "not valid JSON" in str(exc_info.value)

    def test_non_utf8_file_fails_at_root(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"meta": {"title": "caf\xe9"}}')
        with pytest.raises(ScenarioError) as exc_info:
            load_scenario(path)
        assert exc_info.value.path == "$"
        assert "not valid UTF-8" in str(exc_info.value)

    def test_non_object_root_rejected(self):
        with pytest.raises(ScenarioError):
            loads_scenario("[1, 2, 3]")


class TestRoundTrip:
    def test_fixtures_round_trip(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.json")):
            original = json.loads(path.read_text(encoding="utf-8"))
            scenario = load_scenario(path)
            assert json.loads(scenario.to_json()) == original

    def test_exemplars_round_trip(self):
        for name in EXEMPLAR_NAMES:
            scenario = exemplar(name)
            reparsed = loads_scenario(scenario.to_json(), name=name)
            assert reparsed.to_json() == scenario.to_json()

    def test_serialization_is_stable(self, fixtures_dir):
        path = fixtures_dir / "molecular_axes.json"
        first = load_scenario(path).to_json()
        second = loads_scenario(first).to_json()
        assert second == first

    def test_parse_scenario_keeps_its_own_copy(self):
        data = minimal()
        scenario = parse_scenario(data, name="inline")
        before = scenario.to_json()
        data["channels"][0]["deterministic"]["map"]["0"] = "1"
        data["alphabets"].append({"id": "late", "uniform_count": 2})
        data["meta"] = {"id": "renamed"}
        assert scenario.to_json() == before


class TestTopLevelValidation:
    def test_unknown_top_level_key(self):
        e = err({"bogus": 1})
        assert str(e) == "$.bogus: unknown top-level key"

    def test_empty_scenario_is_fine(self):
        scenario = parse({})
        assert scenario.alphabets == {}
        assert scenario.channels == {}

    def test_duplicate_alphabet_id(self):
        data = minimal()
        data["alphabets"].append({"id": "src", "uniform_count": 3})
        e = err(data)
        assert "duplicate alphabet id 'src'" in str(e)
        assert e.path == "alphabets[2].id"

    def test_duplicate_channel_id(self):
        data = minimal()
        data["channels"].append(dict(data["channels"][0]))
        assert "duplicate channel id 'halve'" in str(err(data))


class TestAlphabetValidation:
    def test_needs_exactly_one_source_of_letters(self):
        data = minimal()
        data["alphabets"][0] = {"id": "src"}
        assert "exactly one of 'letters', 'uniform_count', 'uniform_range'" in str(
            err(data)
        )

    def test_letters_and_uniform_count_conflict(self):
        data = minimal()
        data["alphabets"][0] = {
            "id": "src",
            "letters": [{"id": "a"}],
            "uniform_count": 2,
        }
        assert "exactly one" in str(err(data))

    def test_empty_letters_rejected(self):
        data = {"alphabets": [{"id": "empty", "letters": []}]}
        e = err(data)
        assert e.path == "alphabets[0].letters"
        assert "at least one letter" in str(e)

    def test_partial_probabilities_rejected(self):
        data = {
            "alphabets": [
                {
                    "id": "half",
                    "letters": [{"id": "a", "probability": 0.5}, {"id": "b"}],
                }
            ]
        }
        assert "either every letter carries a probability or none do" in str(err(data))

    def test_probabilities_must_sum_to_one(self):
        data = {
            "alphabets": [
                {
                    "id": "short",
                    "letters": [
                        {"id": "a", "probability": 0.5},
                        {"id": "b", "probability": 0.4},
                    ],
                }
            ]
        }
        assert "mass sums to" in str(err(data))

    def test_negative_probability_rejected(self):
        data = {
            "alphabets": [
                {
                    "id": "neg",
                    "letters": [
                        {"id": "a", "probability": 1.5},
                        {"id": "b", "probability": -0.5},
                    ],
                }
            ]
        }
        assert "negative mass" in str(err(data))

    def test_uniform_count_must_be_positive(self):
        data = {"alphabets": [{"id": "none", "uniform_count": 0}]}
        assert "uniform_count" in str(err(data))

    def test_uniform_range_builds_numeric_grid(self):
        data = {
            "alphabets": [
                {"id": "grid", "uniform_range": {"min": 0, "max": 4, "step": 2}}
            ]
        }
        grid = parse(data).alphabets["grid"]
        assert grid.n_letters == 3
        # numeric grids index their letters by integer position
        assert list(grid.letter_ids) == [0, 1, 2]

    def test_uniform_range_bad_step(self):
        data = {
            "alphabets": [
                {"id": "grid", "uniform_range": {"min": 0, "max": 4, "step": 0}}
            ]
        }
        e = err(data)
        assert "alphabets[0].uniform_range" in e.path

    def test_uniform_range_missing_key(self):
        data = {"alphabets": [{"id": "grid", "uniform_range": {"min": 0, "max": 4}}]}
        assert "missing required key 'step'" in str(err(data))

    def test_unknown_letter_key(self):
        data = {
            "alphabets": [{"id": "odd", "letters": [{"id": "a", "weight": 1.0}]}]
        }
        e = err(data)
        assert "unknown key" in str(e)
        assert "letters[0].weight" in e.path

    def test_letter_labels_survive(self):
        data = {
            "alphabets": [
                {"id": "named", "letters": [{"id": "a", "label": "first"}]}
            ]
        }
        declared = json.loads(parse(data).to_json())["alphabets"][0]
        assert declared["letters"][0]["label"] == "first"


class TestChannelValidation:
    def test_unknown_source_alphabet(self):
        data = minimal()
        data["channels"][0]["from"] = "X"
        e = err(data)
        assert str(e) == "channels[0].from: unknown alphabet 'X'"

    def test_unknown_target_alphabet(self):
        data = minimal()
        data["channels"][0]["to"] = "Y"
        assert str(err(data)) == "channels[0].to: unknown alphabet 'Y'"

    def test_needs_exactly_one_kind(self):
        data = minimal()
        data["channels"][0].pop("deterministic")
        assert "exactly one of 'deterministic' or 'stochastic'" in str(err(data))

    def test_both_kinds_rejected(self):
        data = minimal()
        data["channels"][0]["stochastic"] = {"rows": {}}
        assert "exactly one of 'deterministic' or 'stochastic'" in str(err(data))

    def test_deterministic_needs_map_or_quantizer(self):
        data = minimal()
        data["channels"][0]["deterministic"] = {}
        assert "exactly one of 'map' or 'quantizer'" in str(err(data))

    def test_non_total_map_rejected(self):
        data = minimal()
        data["channels"][0]["deterministic"]["map"].pop("3")
        assert "no image" in str(err(data))

    def test_unknown_map_output_rejected(self):
        data = minimal()
        data["channels"][0]["deterministic"]["map"]["3"] = "9"
        assert "channels[0]" in err(data).path

    def test_stochastic_rows_must_normalize(self):
        data = minimal()
        data["channels"][0].pop("deterministic")
        data["channels"][0]["stochastic"] = {
            "rows": {
                "0": {"0": 0.5, "1": 0.4},
                "1": {"0": 1.0},
                "2": {"1": 1.0},
                "3": {"1": 1.0},
            }
        }
        assert "sums to" in str(err(data))

    def test_quantizer_requires_numeric_grid_source(self):
        data = minimal()
        data["channels"][0]["deterministic"] = {"quantizer": {"pixels": 2}}
        assert "grid" in str(err(data))

    def test_quantizer_parses_on_grid_source(self):
        data = {
            "alphabets": [
                {"id": "vals", "uniform_range": {"min": 0, "max": 10, "step": 1}},
                {"id": "px", "uniform_count": 3},
            ],
            "channels": [
                {
                    "id": "plot",
                    "from": "vals",
                    "to": "px",
                    "deterministic": {"quantizer": {"pixels": 3}},
                }
            ],
        }
        channel = parse(data).channels["plot"]
        assert channel.image_of(0) == "0"
        assert channel.image_of(10) == "2"


class TestLetterKeyCoercion:
    def test_string_keys_match_integer_grid_letters(self):
        # JSON object keys are always strings; grid letters carry string ids
        # of integers, so this direction is the common one.
        data = {
            "alphabets": [
                {"id": "grid", "uniform_range": {"min": 0, "max": 1, "step": 1}},
                {"id": "out", "uniform_count": 1},
            ],
            "channels": [
                {
                    "id": "collapse",
                    "from": "grid",
                    "to": "out",
                    "deterministic": {"map": {"0": "0", "1": "0"}},
                }
            ],
        }
        assert parse(data).channels["collapse"].image_of(1) == "0"

    def test_integer_values_match_string_letters(self):
        data = minimal()
        data["channels"][0]["deterministic"]["map"] = {"0": 0, "1": 0, "2": 1, "3": 1}
        assert parse(data).channels["halve"].image_of("2") == "1"


class TestStageValidation:
    def staged(self) -> dict:
        data = minimal()
        data["stages"] = [{"id": "s", "forward": "halve", "cost": 1.0}]
        return data

    def test_stage_parses_with_bayes_default(self):
        scenario = parse(self.staged())
        stage = scenario.stages["s"]
        assert stage.cost == 1.0
        assert stage.forward.id == "halve"

    def test_unknown_forward_channel(self):
        data = self.staged()
        data["stages"][0]["forward"] = "missing"
        e = err(data)
        assert e.path == "stages[0].forward"
        assert "unknown channel 'missing'" in str(e)

    def test_unknown_recon_channel_mentions_bayes(self):
        data = self.staged()
        data["stages"][0]["recon"] = "missing"
        assert "unknown channel 'missing' (or 'bayes')" in str(err(data))

    def test_cost_is_required(self):
        data = self.staged()
        data["stages"][0].pop("cost")
        assert "missing required key 'cost'" in str(err(data))

    def test_negative_cost_rejected(self):
        data = self.staged()
        data["stages"][0]["cost"] = -2.0
        assert "stages[0]" in err(data).path

    def test_duplicate_stage_id(self):
        data = self.staged()
        data["stages"].append(dict(data["stages"][0]))
        assert "duplicate stage id 's'" in str(err(data))


class TestPipelineValidation:
    def piped(self) -> dict:
        data = {
            "alphabets": [
                {"id": "a8", "uniform_count": 8},
                {"id": "a4", "uniform_count": 4},
                {"id": "a2", "uniform_count": 2},
            ],
            "channels": [
                {
                    "id": "first",
                    "from": "a8",
                    "to": "a4",
                    "deterministic": {"map": {str(i): str(i // 2) for i in range(8)}},
                },
                {
                    "id": "second",
                    "from": "a4",
                    "to": "a2",
                    "deterministic": {"map": {str(i): str(i // 2) for i in range(4)}},
                },
            ],
            "stages": [
                {"id": "s1", "forward": "first", "cost": 1.0},
                {"id": "s2", "forward": "second", "cost": 1.0},
            ],
            "pipelines": [{"id": "p", "stages": ["s1", "s2"]}],
        }
        return data

    def test_pipeline_parses(self):
        pipeline = parse(self.piped()).pipelines["p"]
        assert [stage.id for stage in pipeline.stages] == ["s1", "s2"]

    def test_needs_at_least_two_stages(self):
        data = self.piped()
        data["pipelines"][0]["stages"] = ["s1"]
        e = err(data)
        assert e.path == "pipelines[0].stages"
        assert "a pipeline needs at least two stages" in str(e)

    def test_unknown_stage_reference(self):
        data = self.piped()
        data["pipelines"][0]["stages"] = ["s1", "ghost"]
        assert "unknown stage 'ghost'" in str(err(data))

    def test_broken_chain_rejected(self):
        data = self.piped()
        data["pipelines"][0]["stages"] = ["s2", "s1"]
        assert "pipelines[0]" in err(data).path

    def test_prior_must_cover_the_alphabet(self):
        data = self.piped()
        data["pipelines"][0]["prior"] = {"0": 0.5, "1": 0.5}
        e = err(data)
        assert "covers 2 of 8 letters of 'a8'" in str(e)
        assert e.path == "pipelines[0].prior"

    def test_prior_must_normalize(self):
        data = self.piped()
        data["pipelines"][0]["prior"] = {str(i): 0.2 for i in range(8)}
        assert "mass sums to" in str(err(data))

    def test_explicit_prior_accepted(self):
        data = self.piped()
        prior = {str(i): (0.5 if i == 0 else 0.5 / 7) for i in range(8)}
        data["pipelines"][0]["prior"] = prior
        pipeline = parse(data).pipelines["p"]
        assert pipeline.prior is not None
        assert pipeline.prior["0"] == 0.5

    def test_declared_pmfs_are_scanned_once(self, monkeypatch):
        data = self.piped()
        data["alphabets"][0] = {
            "id": "a8",
            "letters": [{"id": str(i), "probability": 0.125} for i in range(8)],
        }
        data["pipelines"][0]["prior"] = {str(i): 0.5 / 7 if i else 0.5 for i in range(8)}
        scenario = parse(data)
        declared = [scenario.alphabets["a8"].pmf, scenario.pipelines["p"].prior]
        scanned = []
        fresh = Pmf.violations

        def counted(pmf):
            scanned.append(pmf)
            return fresh(pmf)

        monkeypatch.setattr(Pmf, "violations", counted)
        analyze(scenario)
        assert scanned  # the pmfs analyze derives are still checked
        assert not [pmf for pmf in scanned if any(pmf is d for d in declared)]

    def test_duplicate_pipeline_id(self):
        data = self.piped()
        data["pipelines"].append(dict(data["pipelines"][0]))
        assert "duplicate pipeline id 'p'" in str(err(data))


class TestDirectRouteValidation:
    def routed(self) -> dict:
        data = TestPipelineValidation().piped()
        data["channels"].append(
            {
                "id": "leap",
                "from": "a8",
                "to": "a2",
                "deterministic": {"map": {str(i): str(i // 4) for i in range(8)}},
            }
        )
        data["stages"].append({"id": "leap-stage", "forward": "leap", "cost": 5.0})
        data["direct_routes"] = [
            {"id": "r", "stage": "leap-stage", "pipeline": "p"}
        ]
        return data

    def test_route_parses(self):
        route = parse(self.routed()).direct_routes["r"]
        assert route.stage.id == "leap-stage"
        assert route.pipeline_id == "p"

    def test_unknown_pipeline(self):
        data = self.routed()
        data["direct_routes"][0]["pipeline"] = "ghost"
        assert "unknown pipeline 'ghost'" in str(err(data))

    def test_unknown_stage(self):
        data = self.routed()
        data["direct_routes"][0]["stage"] = "ghost"
        assert "unknown stage 'ghost'" in str(err(data))

    def test_endpoint_mismatch_start(self):
        data = self.routed()
        data["direct_routes"][0]["stage"] = "s2"
        e = err(data)
        assert "stage 's2' starts from 'a4' but pipeline 'p' starts from 'a8'" in str(e)

    def test_endpoint_mismatch_end(self):
        data = self.routed()
        data["channels"].append(
            {
                "id": "wide",
                "from": "a8",
                "to": "a4",
                "deterministic": {"map": {str(i): str(i // 2) for i in range(8)}},
            }
        )
        data["stages"].append({"id": "wide-stage", "forward": "wide", "cost": 1.0})
        data["direct_routes"][0]["stage"] = "wide-stage"
        assert "ends in 'a4' but pipeline 'p' ends in 'a2'" in str(err(data))


class TestJudgmentValidation:
    def judged(self) -> dict:
        return {
            "judgments": [
                {"id": "j", "condition_a": True, "condition_b": "satisfied"}
            ]
        }

    def test_judgment_parses_and_scores(self):
        judgment = parse(self.judged()).judgments[0]
        assert judgment.score == 3

    def test_not_applicable_scores_two(self):
        data = self.judged()
        data["judgments"][0]["condition_b"] = "not_applicable"
        assert parse(data).judgments[0].score == 2

    def test_short_alias_is_for_the_cli_only(self):
        data = self.judged()
        data["judgments"][0]["condition_b"] = "na"
        assert "unknown value 'na'" in str(err(data))

    def test_unknown_condition_b(self):
        data = self.judged()
        data["judgments"][0]["condition_b"] = "sideways"
        assert (
            "unknown value 'sideways' (expected satisfied, not_applicable, or negated)"
            in str(err(data))
        )

    def test_declared_score_checked(self):
        data = self.judged()
        data["judgments"][0]["score"] = 1
        e = err(data)
        assert "1 is inconsistent with the conditions (expected 3)" in str(e)

    def test_matching_declared_score_passes(self):
        data = self.judged()
        data["judgments"][0]["score"] = 3
        assert parse(data).judgments[0].score == 3

    def test_point_of_view_parses(self):
        data = self.judged()
        data["judgments"][0]["point_of_view"] = {
            "action": "search",
            "target": "data",
            "refinement": "known reading",
        }
        pov = parse(data).judgments[0].point_of_view
        assert pov is not None
        assert pov.refinement == "known reading"

    def test_unknown_action_lists_valid_ones(self):
        data = self.judged()
        data["judgments"][0]["point_of_view"] = {
            "action": "ponder",
            "target": "data",
        }
        e = err(data)
        assert "unknown action 'ponder' (expected one of" in str(e)

    def test_unknown_target_rejected(self):
        data = self.judged()
        data["judgments"][0]["point_of_view"] = {
            "action": "search",
            "target": "nowhere",
        }
        assert "unknown target 'nowhere'" in str(err(data))

    def test_duplicate_judgment_id(self):
        data = self.judged()
        data["judgments"].append(dict(data["judgments"][0]))
        assert "duplicate judgment id 'j'" in str(err(data))


class TestAxisValidation:
    def axed(self) -> dict:
        return {
            "axes": [
                {
                    "id": "detail",
                    "nodes": [
                        {
                            "id": "fine",
                            "kind": "visual",
                            "information": 4.0,
                            "attributes": ["marks"],
                        },
                        {
                            "id": "coarse",
                            "kind": "visual",
                            "information": 2.0,
                            "attributes": ["marks"],
                        },
                    ],
                }
            ]
        }

    def test_axis_parses(self):
        axis = parse(self.axed()).axes["detail"]
        assert [node.id for node in axis.nodes] == ["fine", "coarse"]
        assert classify_transition(axis, 0) is TransitionKind.REMOVES

    def test_unknown_node_kind(self):
        data = self.axed()
        data["axes"][0]["nodes"][0]["kind"] = "sketch"
        assert "unknown kind 'sketch' (expected data or visual)" in str(err(data))

    def test_node_needs_information_or_alphabet(self):
        data = self.axed()
        data["axes"][0]["nodes"][0].pop("information")
        e = err(data)
        assert "needs 'information' or an 'alphabet' reference" in str(e)
        assert e.path == "axes[0].nodes[0]"

    def test_alphabet_reference_supplies_information(self):
        data = self.axed()
        data["alphabets"] = [{"id": "states", "uniform_count": 16}]
        data["axes"][0]["nodes"][0] = {
            "id": "fine",
            "kind": "data",
            "alphabet": "states",
            "attributes": ["marks"],
        }
        node = parse(data).axes["detail"].nodes[0]
        assert node.information == pytest.approx(4.0, abs=1e-12)

    def test_information_must_agree_with_alphabet(self):
        data = self.axed()
        data["alphabets"] = [{"id": "states", "uniform_count": 16}]
        data["axes"][0]["nodes"][0]["alphabet"] = "states"
        data["axes"][0]["nodes"][0]["information"] = 3.0
        e = err(data)
        assert "disagrees with the entropy" in str(e)
        assert e.path == "axes[0].nodes[0].information"

    def test_unknown_alphabet_reference(self):
        data = self.axed()
        data["axes"][0]["nodes"][0].pop("information")
        data["axes"][0]["nodes"][0]["alphabet"] = "ghost"
        assert "unknown alphabet 'ghost'" in str(err(data))

    def test_single_node_axis_rejected(self):
        data = self.axed()
        data["axes"][0]["nodes"] = data["axes"][0]["nodes"][:1]
        assert "axes[0]" in err(data).path

    def test_duplicate_axis_id(self):
        data = self.axed()
        data["axes"].append(dict(data["axes"][0]))
        assert "duplicate axis id 'detail'" in str(err(data))


class TestMolecularAxesFixture:
    @pytest.fixture()
    def scenario(self, fixtures_dir):
        return load_scenario(fixtures_dir / "molecular_axes.json")

    def test_bond_structure_transitions(self, scenario):
        axis = scenario.axes["bond-structure"]
        assert [classify_transition(axis, i) for i in range(len(axis.nodes) - 1)] == [
            TransitionKind.REMOVES_AND_ADDS,
            TransitionKind.REMOVES,
        ]

    def test_surface_probe_transitions(self, scenario):
        axis = scenario.axes["surface-probe"]
        assert [classify_transition(axis, i) for i in range(len(axis.nodes) - 1)] == [
            TransitionKind.ADDS,
            TransitionKind.REMOVES,
        ]

    def test_ten_node_axis_classifies_every_step(self, scenario):
        axis = scenario.axes["assembly-detail"]
        assert len(axis.nodes) == 10
        kinds = [classify_transition(axis, i) for i in range(9)]
        assert kinds == [
            TransitionKind.REMOVES,
            TransitionKind.REMOVES,
            TransitionKind.REMOVES_AND_ADDS,
            TransitionKind.ADDS,
            TransitionKind.PRESERVES,
            TransitionKind.REMOVES,
            TransitionKind.REMOVES_AND_ADDS,
            TransitionKind.PRESERVES,
            TransitionKind.REMOVES,
        ]

    def test_derived_information_from_alphabet(self, scenario):
        node = scenario.axes["derived-info"].nodes[0]
        assert node.information == pytest.approx(4.0, abs=1e-12)

    def test_exactly_one_fork(self, scenario):
        forks = detect_fork(list(scenario.axes.values()))
        assert len(forks) == 1
        fork = forks[0]
        assert {fork.axis_a, fork.axis_b} == {"bond-structure", "surface-probe"}
        assert fork.shared_prefix == ("vdw-surface",)
        assert fork.fork_index == 1

    def test_overlapping_axes_cannot_combine(self, scenario):
        with pytest.raises(OverlappingAttributesError) as exc_info:
            combine_space(
                [scenario.axes["bond-structure"], scenario.axes["surface-probe"]]
            )
        assert exc_info.value.tag == "atom-marks"

    def test_disjoint_axes_combine(self, scenario):
        space = combine_space(
            [scenario.axes["bond-structure"], scenario.axes["coloring"]]
        )
        assert space.shape == (3, 2)
        assert space.point_count == 6


class TestRouteFixtures:
    def compared(self, fixtures_dir, name):
        scenario = load_scenario(fixtures_dir / name)
        route = next(iter(scenario.direct_routes.values()))
        pipeline = scenario.pipelines[route.pipeline_id]
        return compare_routes(pipeline, route.stage)

    def test_premises_hold_fixture(self, fixtures_dir):
        comparison = self.compared(fixtures_dir, "route_premises_hold.json")
        assert comparison.cost_premise_holds
        assert comparison.distortion_premise_holds
        assert comparison.premises_satisfied
        assert comparison.pipeline.ratio == pytest.approx(0.3, abs=1e-9)
        assert comparison.direct.ratio == pytest.approx(0.0, abs=1e-9)
        assert comparison.pipeline_preferred

    def test_cost_premise_violated_fixture(self, fixtures_dir):
        comparison = self.compared(fixtures_dir, "route_cost_premise_violated.json")
        assert not comparison.cost_premise_holds
        assert comparison.distortion_premise_holds
        assert not comparison.premises_satisfied
        # the ratios are still reported even though the comparison is flagged
        assert comparison.pipeline.ratio == pytest.approx(0.3, abs=1e-9)
        assert comparison.direct.ratio == pytest.approx(0.0, abs=1e-9)


class TestExemplars:
    def test_names_are_stable(self):
        assert EXEMPLAR_NAMES == (
            "barchart",
            "integer-plot",
            "random-plotter",
            "figure-scores",
        )

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="barchart"):
            exemplar("nope")

    def test_barchart_shape(self):
        scenario = exemplar("barchart")
        assert scenario.alphabets["readings"].n_letters == 1000001
        assert scenario.alphabets["bars"].n_letters == 1001
        assert scenario.alphabets["verdicts"].n_letters == 2
        assert "reading-to-verdict" in scenario.pipelines

    def test_integer_plot_is_lossless(self):
        scenario = exemplar("integer-plot")
        stage = next(iter(scenario.stages.values()))
        n = stage.forward.source.n_letters
        images = {stage.forward.image_of(x) for x in stage.forward.source.letter_ids}
        assert len(images) == n

    def test_figure_scores_judgments(self):
        scenario = exemplar("figure-scores")
        scores = {j.id: j.score for j in scenario.judgments}
        assert [scores[k] for k in sorted(scores)] == [3, 3, 3, 3, 2, 2, 1, 1, 0]

    def test_exemplars_parse_through_validator(self):
        for name in EXEMPLAR_NAMES:
            scenario = exemplar(name)
            assert math.isfinite(sum(a.n_letters for a in scenario.alphabets.values()))
