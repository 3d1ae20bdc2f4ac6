import math

import numpy as np
import pytest

import builders
import oracles
from builders import identity, uniform
from absmeter import (
    AbstractionJudgment,
    Channel,
    ConditionB,
    Pipeline,
    Pmf,
    PointOfView,
    Stage,
    TaskAction,
    TaskTarget,
    abstraction_score,
    compare_routes,
    pipeline_cost_benefit,
    stage_cost_benefit,
)


def merge_by_pairs(src, dst, id="merge"):
    ids_in = list(src.letter_ids)
    ids_out = list(dst.letter_ids)
    return Channel.deterministic(
        id, src, dst, {x: ids_out[i // 2] for i, x in enumerate(ids_in)}
    )


@pytest.fixture
def route_setup():
    """Eight readings merge to four charts merge to two verdicts; a direct
    leap jumps readings to verdicts in one go. Dyadic masses throughout so
    every pushed probability is exact."""
    readings = uniform(8, "r")
    charts = uniform(4, "c")
    verdicts = uniform(2, "v")
    summarize = merge_by_pairs(readings, charts, "summarize")
    judge_ch = merge_by_pairs(charts, verdicts, "judge")
    leap = Channel.deterministic(
        "leap", readings, verdicts, {f"r{i}": f"v{i // 4}" for i in range(8)}
    )
    judge_guess = Channel.stochastic(
        "judge-guess", verdicts, charts, {"v0": {"c0": 1.0}, "v1": {"c2": 0.5, "c3": 0.5}}
    )
    recall_guess = Channel.deterministic(
        "recall-guess", verdicts, readings, {"v0": "r0", "v1": "r4"}
    )
    pipeline = Pipeline(
        "two-hop",
        (
            Stage(summarize, cost=2.0, id="summarize-stage"),
            Stage(judge_ch, judge_guess, cost=3.0, id="judge-stage"),
        ),
    )
    direct = Stage(leap, recall_guess, cost=10.0, id="leap-stage")
    return readings, charts, verdicts, pipeline, direct


class TestAbstractionScore:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (True, ConditionB.SATISFIED, 3),
            (True, ConditionB.NOT_APPLICABLE, 2),
            (True, ConditionB.NEGATED, 1),
            (False, ConditionB.SATISFIED, 1),
            (False, ConditionB.NOT_APPLICABLE, 0),
            (False, ConditionB.NEGATED, 0),  # raw -1 clamps to 0
        ],
    )
    def test_score_matrix(self, a, b, expected):
        assert abstraction_score(a, b) == expected

    def test_accepts_plain_strings(self):
        assert abstraction_score(True, "satisfied") == 3
        assert abstraction_score(True, "not_applicable") == 2

    def test_rejects_unknown_condition(self):
        with pytest.raises(ValueError):
            abstraction_score(True, "maybe")

    def test_judgment_rejects_inconsistent_score(self):
        with pytest.raises(ValueError, match="inconsistent"):
            AbstractionJudgment(condition_a=True, condition_b="satisfied", score=2)

    def test_judge_factory_fills_score(self):
        j = AbstractionJudgment(
            True, "negated", score=abstraction_score(True, "negated"), id="g"
        )
        assert j.score == 1
        assert j.condition_b is ConditionB.NEGATED


class TestPointOfView:
    def test_coerces_strings(self):
        pov = PointOfView("analyze", "data")
        assert pov.action is TaskAction.ANALYZE
        assert pov.target is TaskTarget.DATA
        assert pov.refinement is None

    def test_keeps_refinement(self):
        pov = PointOfView(TaskAction.SEARCH, TaskTarget.SPATIAL, "dense scatter")
        assert pov.refinement == "dense scatter"

    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            PointOfView("ponder", "data")


class TestStage:
    def test_rejects_bad_costs(self):
        f = identity(uniform(2, "a"))
        with pytest.raises(ValueError):
            Stage(f, cost=-1.0)
        with pytest.raises(ValueError):
            Stage(f, cost=math.inf)

    def test_rejects_unknown_recon_marker(self):
        f = identity(uniform(2, "a"))
        with pytest.raises(ValueError, match="bayes"):
            Stage(f, recon="guess")

    def test_rejects_misoriented_recon(self):
        a, b = uniform(4, "a"), uniform(2, "b")
        f = merge_by_pairs(a, b)
        with pytest.raises(ValueError, match="oriented"):
            Stage(f, recon=merge_by_pairs(a, b, "same-way"))

    def test_wraps_plain_channel_recon(self):
        a, b = uniform(2, "a"), uniform(2, "b")
        f = Channel.deterministic("f", a, b, {"a0": "b0", "a1": "b1"})
        back = Channel.deterministic("r", b, a, {"b0": "a0", "b1": "a1"})
        s = Stage(f, back)
        assert s.recon is back


class TestStageCostBenefit:
    def test_identity_stage_scores_zero(self):
        a = uniform(8, "a")
        report = stage_cost_benefit(Stage(identity(a), cost=5.0), a.pmf)
        m = report.stages[0]
        assert m.alphabet_compression == 0.0
        assert m.potential_distortion == 0.0
        assert report.ratio == 0.0

    def test_merge_stage_formula(self):
        a, b = uniform(4, "a"), uniform(2, "b")
        report = stage_cost_benefit(Stage(merge_by_pairs(a, b), cost=2.0), a.pmf)
        m = report.stages[0]
        assert abs(m.input_entropy - 2.0) <= 1e-12
        assert abs(m.output_entropy - 1.0) <= 1e-12
        assert abs(m.alphabet_compression - 1.0) <= 1e-12
        assert m.potential_distortion <= 1e-12
        assert abs(report.ratio - 0.5) <= 1e-12

    def test_zero_cost_positive_benefit_is_infinite(self):
        a, b = uniform(4, "a"), uniform(2, "b")
        report = stage_cost_benefit(Stage(merge_by_pairs(a, b), cost=0.0), a.pmf)
        assert report.ratio == math.inf

    def test_zero_cost_zero_benefit_is_zero(self):
        a = uniform(4, "a")
        report = stage_cost_benefit(Stage(identity(a), cost=0.0), a.pmf)
        assert report.ratio == 0.0

    def test_zero_cost_negative_benefit_is_negative_infinity(self):
        one, wide = uniform(1, "one"), uniform(4, "wide")
        fan = Channel.stochastic(
            "fan", one, wide, {"one0": {y: 0.25 for y in wide.letter_ids}}
        )
        report = stage_cost_benefit(Stage(fan, cost=0.0), one.pmf)
        assert report.ratio == -math.inf

    def test_infinite_distortion_sinks_the_ratio(self):
        a, b = uniform(2, "a"), uniform(1, "b")
        prior = Pmf({"a0": 1.0, "a1": 0.0})
        const = Channel.deterministic("k", a, b, {x: "b0" for x in a.letter_ids})
        wrong = Channel.deterministic("g", b, a, {"b0": "a1"})
        report = stage_cost_benefit(Stage(const, wrong, cost=3.0), prior)
        assert report.stages[0].potential_distortion == math.inf
        assert report.ratio == -math.inf

    def test_ratio_strictly_falls_as_cost_rises(self):
        a, b = uniform(4, "a"), uniform(2, "b")
        f = merge_by_pairs(a, b)
        ratios = [
            stage_cost_benefit(Stage(f, cost=c), a.pmf).ratio
            for c in (0.5, 1.0, 2.0, 4.0, 64.0)
        ]
        assert all(x > y for x, y in zip(ratios, ratios[1:]))


class TestPipelineCostBenefit:
    def test_two_identity_stages_yield_nothing(self):
        a = uniform(4, "a")
        p = Pipeline(
            "idle",
            (Stage(identity(a), cost=1.0), Stage(identity(a), cost=1.0)),
        )
        report = pipeline_cost_benefit(p)
        assert report.benefit == 0.0
        assert report.cost == 2.0
        assert report.ratio == 0.0

    def test_requires_two_stages(self):
        a = uniform(4, "a")
        with pytest.raises(ValueError, match="at least two stages"):
            Pipeline("short", (Stage(identity(a), cost=1.0),))

    def test_rejects_broken_chains(self):
        a, b = uniform(4, "a"), uniform(2, "b")
        with pytest.raises(ValueError, match="starts from"):
            Pipeline(
                "broken",
                (Stage(identity(a), cost=1.0), Stage(identity(b), cost=1.0)),
            )

    def test_later_stages_see_pushed_priors(self, route_setup):
        readings, charts, verdicts, pipeline, direct = route_setup
        report = pipeline_cost_benefit(pipeline)
        first, second = report.stages
        assert abs(first.output_entropy - second.input_entropy) <= 1e-12
        assert abs(first.input_entropy - 3.0) <= 1e-12
        assert abs(second.output_entropy - 1.0) <= 1e-12

    def test_benefit_decomposes_per_stage(self, route_setup):
        readings, charts, verdicts, pipeline, direct = route_setup
        report = pipeline_cost_benefit(pipeline)
        total_ac = sum(m.alphabet_compression for m in report.stages)
        total_pd = sum(m.potential_distortion for m in report.stages)
        assert abs(report.benefit - (total_ac - total_pd)) <= 1e-9
        assert abs(report.benefit - 1.5) <= 1e-12
        assert abs(report.ratio - 0.3) <= 1e-12

    def test_telescoping_and_bayes_exactness_on_random_pipelines(self):
        rng = np.random.default_rng(20260816)
        for trial in range(60):
            length = int(rng.integers(2, 6))
            sizes = [int(rng.integers(2, 17)) for _ in range(length + 1)]
            alphabets = [
                builders.random_alphabet(rng, n, f"z{i}") for i, n in enumerate(sizes)
            ]
            stages = []
            for i in range(length):
                ch, _ = builders.random_channel(rng, alphabets[i], alphabets[i + 1])
                stages.append(Stage(ch, cost=float(rng.random() + 0.1)))
            prior, _ = builders.random_prior(rng, alphabets[0])
            report = pipeline_cost_benefit(Pipeline(f"p{trial}", tuple(stages), prior))
            total_ac = sum(m.alphabet_compression for m in report.stages)
            assert abs(total_ac - (report.input_entropy - report.output_entropy)) <= 1e-9
            # Bayes reconstructions everywhere: distortion-free benefit
            assert all(m.potential_distortion <= 1e-9 for m in report.stages)
            assert abs(
                report.benefit - (report.input_entropy - report.output_entropy)
            ) <= 1e-9


class TestDirectCostBenefit:
    def test_defaults_to_source_distribution(self, route_setup):
        readings, charts, verdicts, pipeline, direct = route_setup
        report = stage_cost_benefit(direct, direct.forward.source.pmf)
        assert abs(report.input_entropy - 3.0) <= 1e-12
        assert abs(report.stages[0].potential_distortion - 2.0) <= 1e-12
        assert report.benefit == 0.0
        assert report.ratio == 0.0

    def test_lossless_stage_with_bayes_recon(self):
        a, b = uniform(4, "a"), uniform(2, "b")
        stage = Stage(merge_by_pairs(a, b), cost=2.0)
        report = stage_cost_benefit(stage, a.pmf)
        assert report.stages[0].potential_distortion <= 1e-12
        assert abs(report.benefit - 1.0) <= 1e-12

    def test_cost_rescales_ratio(self):
        a, b = uniform(4, "a"), uniform(2, "b")
        f = merge_by_pairs(a, b)
        r1 = stage_cost_benefit(Stage(f, cost=1.0), a.pmf).ratio
        r10 = stage_cost_benefit(Stage(f, cost=10.0), a.pmf).ratio
        assert abs(r1 - 10.0 * r10) <= 1e-12

    def test_explicit_prior_overrides_declared(self):
        a, b = uniform(4, "a"), uniform(2, "b")
        skew = Pmf({"a0": 0.97, "a1": 0.01, "a2": 0.01, "a3": 0.01})
        report = stage_cost_benefit(Stage(merge_by_pairs(a, b), cost=1.0), skew)
        assert report.input_entropy < 1.0


class TestCompareRoutes:
    def test_premises_hold_and_pipeline_wins(self, route_setup):
        readings, charts, verdicts, pipeline, direct = route_setup
        cmp = compare_routes(pipeline, direct)
        assert abs(cmp.compression_pipeline - 2.0) <= 1e-12
        assert abs(cmp.compression_direct - 2.0) <= 1e-12
        assert cmp.compression_gap <= 1e-9
        assert cmp.compression_additive
        assert abs(cmp.distortion_pipeline - 0.5) <= 1e-12
        assert abs(cmp.distortion_direct - 2.0) <= 1e-12
        assert cmp.cost_premise_holds
        assert cmp.distortion_premise_holds
        assert cmp.premises_satisfied
        assert abs(cmp.pipeline.ratio - 0.3) <= 1e-12
        assert cmp.direct.ratio == 0.0
        assert cmp.pipeline_preferred

    def test_cheap_direct_route_raises_cost_flag(self, route_setup):
        readings, charts, verdicts, pipeline, direct = route_setup
        cheap = Stage(direct.forward, direct.recon, cost=1.0, id="cheap-leap")
        cmp = compare_routes(pipeline, cheap)
        assert not cmp.cost_premise_holds
        assert cmp.distortion_premise_holds
        assert not cmp.premises_satisfied
        assert abs(cmp.pipeline.ratio - 0.3) <= 1e-12
        assert cmp.direct.ratio == 0.0
        assert cmp.pipeline_preferred  # conclusion still reported

    def test_identical_routes_produce_no_strict_winner(self, route_setup):
        readings, charts, verdicts, pipeline, direct = route_setup
        hops = [stage.forward for stage in pipeline.stages]
        rows = [{x: c.row(x) for x in c.source.letter_ids} for c in hops]
        fused = Channel.stochastic("fused", readings, verdicts, oracles.compose_rows(*rows))
        same = Stage(fused, cost=5.0, id="fused")
        tied = Pipeline(
            "tied-hops",
            (
                Stage(pipeline.stages[0].forward, cost=2.0),
                Stage(pipeline.stages[1].forward, cost=3.0),
            ),
        )
        cmp = compare_routes(tied, same)
        assert cmp.pipeline.ratio == cmp.direct.ratio
        assert not cmp.pipeline_preferred

    def test_rejects_mismatched_endpoints(self, route_setup):
        # in the words the scenario loader reports a direct route in
        readings, charts, verdicts, pipeline, direct = route_setup
        wrong_end = Stage(merge_by_pairs(readings, uniform(4, "q"), "w"), cost=1.0, id="w")
        with pytest.raises(ValueError) as e:
            compare_routes(pipeline, wrong_end)
        assert str(e.value) == "stage 'w' ends in 'q' but pipeline 'two-hop' ends in 'v'"
        wrong_start = Stage(pipeline.stages[1].forward, cost=1.0, id="judge-only")
        with pytest.raises(ValueError) as e:
            compare_routes(pipeline, wrong_start)
        assert str(e.value) == (
            "stage 'judge-only' starts from 'c' but pipeline 'two-hop' starts from 'r'"
        )

    def test_names_a_stage_without_id_by_its_channel(self, route_setup):
        readings, charts, verdicts, pipeline, direct = route_setup
        unnamed = Stage(merge_by_pairs(readings, uniform(4, "q"), "w"), cost=1.0)
        with pytest.raises(ValueError) as e:
            compare_routes(pipeline, unnamed)
        assert str(e.value) == (
            "stage over channel 'w' ends in 'q' but pipeline 'two-hop' ends in 'v'"
        )
        unnamed = Stage(pipeline.stages[1].forward, cost=1.0)
        with pytest.raises(ValueError) as e:
            compare_routes(pipeline, unnamed)
        assert str(e.value) == (
            "stage over channel 'judge' starts from 'c' but pipeline 'two-hop' starts from 'r'"
        )
