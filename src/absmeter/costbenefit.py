"""Cost-benefit accounting for abstraction stages and pipelines.

Each stage transforms one alphabet into the next at some cost. Its benefit
is the entropy it removes (alphabet compression) minus the divergence a
reconstructing observer suffers (potential distortion); the stage ratio is
benefit over cost. A pipeline chains stages, feeding each one the
distribution induced by everything before it, and its combined ratio is

    (sum_i AC_i - sum_i PD_i) / sum_i cost_i

which telescopes to (H(first) - H(last) - sum_i PD_i) / sum_i cost_i.

`compare_routes` puts a multi-stage pipeline side by side with a single
direct stage over the same endpoints and reports whether the premises that
favor the pipeline (higher direct cost, higher direct distortion, additive
compression) actually hold before comparing the two ratios.

A stage evaluation computes the output distribution and, for a Bayes
stage, the reconstructed one from one pass over the forward channel's
entries. The three public evaluators each start from nothing; `analyze`
shares one `_Evaluator` across its sections, so each (stage, input
distribution) pair it meets is evaluated once.

Scoring of whether a representation qualifies as an abstraction follows a
two-condition scheme: condition A (is it a representation produced by a
process that discards detail) is worth 2, condition B (is the mapping
between source and representation apparent) is worth 1 when satisfied,
0 when not applicable, and -1 when negated; totals clamp to 0..3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .alphabet import Pmf, entropy, kl_divergence
from .channel import (
    Channel,
    push_forward,
    _bayes_round_trip,
    _same_letters,
)

# Internal telescoping consistency must hold within this.
TELESCOPE_TOLERANCE = 1e-9

# Marker for "reconstruct by Bayes inversion of the forward channel".
BAYES = "bayes"


class TaskAction(str, Enum):
    ANALYZE = "analyze"
    SEARCH = "search"
    QUERY = "query"


class TaskTarget(str, Enum):
    DATA = "data"
    ATTRIBUTES = "attributes"
    NETWORKS = "networks"
    SPATIAL = "spatial"


@dataclass(frozen=True)
class PointOfView:
    """What the viewer is trying to do, and to what kind of thing."""

    action: TaskAction
    target: TaskTarget
    refinement: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "action", TaskAction(self.action))
        object.__setattr__(self, "target", TaskTarget(self.target))


class ConditionB(str, Enum):
    SATISFIED = "satisfied"
    NOT_APPLICABLE = "not_applicable"
    NEGATED = "negated"


_CONDITION_B_POINTS = {
    ConditionB.SATISFIED: 1,
    ConditionB.NOT_APPLICABLE: 0,
    ConditionB.NEGATED: -1,
}


def abstraction_score(condition_a: bool, condition_b: ConditionB | str) -> int:
    """Two-condition abstraction score, clamped to 0..3."""
    b = ConditionB(condition_b)
    raw = (2 if condition_a else 0) + _CONDITION_B_POINTS[b]
    return max(0, min(3, raw))


@dataclass(frozen=True)
class AbstractionJudgment:
    """A scored judgment of one candidate representation."""

    condition_a: bool
    condition_b: ConditionB
    score: int
    point_of_view: PointOfView | None = None
    id: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "condition_b", ConditionB(self.condition_b))
        expected = abstraction_score(self.condition_a, self.condition_b)
        if self.score != expected:
            raise ValueError(
                f"judgment{f' {self.id!r}' if self.id else ''}: score {self.score} "
                f"is inconsistent with conditions (expected {expected})"
            )


@dataclass(frozen=True)
class Stage:
    """One transformation step: forward channel, reconstruction, cost.

    ``recon`` is either an explicit reconstruction channel oriented from the
    forward channel's target back to its source, or the BAYES marker to
    reconstruct by posterior inversion under the stage's input distribution.
    """

    forward: Channel
    recon: Channel | str = BAYES
    cost: float = 1.0
    id: str | None = None

    def __post_init__(self):
        cost = float(self.cost)
        if not math.isfinite(cost) or cost < 0.0:
            raise ValueError(f"stage cost must be finite and >= 0, got {self.cost!r}")
        object.__setattr__(self, "cost", cost)
        recon = self.recon
        if isinstance(recon, str):
            if recon != BAYES:
                raise ValueError(
                    f"unknown reconstruction marker {recon!r} (expected {BAYES!r})"
                )
            return
        if not isinstance(recon, Channel):
            raise ValueError("recon must be a channel or the 'bayes' marker")
        if not _same_letters(recon.source, self.forward.target) or not _same_letters(
            recon.target, self.forward.source
        ):
            raise ValueError(
                f"reconstruction '{recon.id}' is not oriented from "
                f"'{self.forward.target.id}' back to '{self.forward.source.id}'"
            )


@dataclass(frozen=True)
class Pipeline:
    """Two or more chained stages; each stage's target feeds the next
    stage's source."""

    id: str
    stages: tuple[Stage, ...]
    prior: Pmf | None = None

    def __post_init__(self):
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        if len(stages) < 2:
            raise ValueError(
                f"pipeline '{self.id}' needs at least two stages (got {len(stages)})"
            )
        for i in range(len(stages) - 1):
            a, b = stages[i].forward.target, stages[i + 1].forward.source
            if not _same_letters(a, b):
                raise ValueError(
                    f"pipeline '{self.id}': stage {i} ends in '{a.id}' but stage "
                    f"{i + 1} starts from '{b.id}'"
                )

    @property
    def effective_prior(self) -> Pmf:
        if self.prior is not None:
            return self.prior
        return self.stages[0].forward.source.pmf


@dataclass(frozen=True)
class StageMetrics:
    """Evaluated quantities for one stage under one input distribution."""

    stage_id: str | None
    forward_id: str
    input_alphabet: str
    output_alphabet: str
    input_entropy: float
    output_entropy: float
    alphabet_compression: float
    potential_distortion: float
    benefit: float
    cost: float
    ratio: float


@dataclass(frozen=True)
class CostBenefitReport:
    """Stage metrics plus their combined benefit, cost, and ratio."""

    stages: tuple[StageMetrics, ...]
    benefit: float
    cost: float
    ratio: float
    input_entropy: float
    output_entropy: float


@dataclass(frozen=True)
class RouteComparison:
    """A pipeline and a direct stage over the same endpoints, side by side."""

    pipeline_id: str
    direct_id: str | None
    pipeline: CostBenefitReport
    direct: CostBenefitReport
    compression_pipeline: float
    compression_direct: float
    compression_gap: float
    compression_additive: bool
    distortion_pipeline: float
    distortion_direct: float
    cost_premise_holds: bool
    distortion_premise_holds: bool
    premises_satisfied: bool
    pipeline_preferred: bool


def _ratio(benefit: float, cost: float) -> float:
    """Benefit per unit cost; signed infinity when cost vanishes or the
    distortion is infinite, so comparisons stay total."""
    if cost > 0.0:
        return benefit / cost
    if benefit > 0.0:
        return math.inf
    if benefit < 0.0:
        return -math.inf
    return 0.0


def _evaluate(stage: Stage, prior: Pmf) -> tuple[StageMetrics, Pmf]:
    h_in = entropy(prior)
    if isinstance(stage.recon, str):
        out, back = _bayes_round_trip(prior, stage.forward)
    else:
        out = push_forward(prior, stage.forward)
        back = push_forward(out, stage.recon)
    h_out = entropy(out)
    ac = h_in - h_out
    pd = kl_divergence(back, prior)
    benefit = ac - pd
    metrics = StageMetrics(
        stage_id=stage.id,
        forward_id=stage.forward.id,
        input_alphabet=stage.forward.source.id,
        output_alphabet=stage.forward.target.id,
        input_entropy=h_in,
        output_entropy=h_out,
        alphabet_compression=ac,
        potential_distortion=pd,
        benefit=benefit,
        cost=stage.cost,
        ratio=_ratio(benefit, stage.cost),
    )
    return metrics, out


class _Evaluator:
    """Stage, pipeline and route evaluation that evaluates each (stage,
    input pmf) pair once.

    The memo is keyed by the stage and pmf objects themselves, so it keeps
    them alive and a later object cannot take over a key. A hit returns the
    same output pmf, so a pipeline walked a second time hits at every stage.
    The memo lives as long as the evaluator: one public call, or one
    `analyze`.
    """

    def __init__(self):
        self._done: dict[tuple[Stage, Pmf], tuple[StageMetrics, Pmf]] = {}

    def _evaluate_once(self, stage: Stage, prior: Pmf) -> tuple[StageMetrics, Pmf]:
        key = (stage, prior)
        done = self._done.get(key)
        if done is None:
            done = self._done[key] = _evaluate(stage, prior)
        return done

    def stage(self, stage: Stage, prior: Pmf) -> CostBenefitReport:
        metrics, _ = self._evaluate_once(stage, prior)
        return CostBenefitReport(
            stages=(metrics,),
            benefit=metrics.benefit,
            cost=metrics.cost,
            ratio=metrics.ratio,
            input_entropy=metrics.input_entropy,
            output_entropy=metrics.output_entropy,
        )

    def pipeline(self, pipeline: Pipeline) -> CostBenefitReport:
        collected: list[StageMetrics] = []
        current = pipeline.effective_prior
        for stage in pipeline.stages:
            metrics, current = self._evaluate_once(stage, current)
            collected.append(metrics)
        h_first = collected[0].input_entropy
        h_last = collected[-1].output_entropy
        ac_sum = sum(m.alphabet_compression for m in collected)
        pd_sum = sum(m.potential_distortion for m in collected)
        cost_sum = sum(m.cost for m in collected)
        gap = abs(ac_sum - (h_first - h_last))
        if not gap <= TELESCOPE_TOLERANCE:
            raise RuntimeError(
                f"pipeline '{pipeline.id}': stage compressions sum to {ac_sum!r} but "
                f"entropy drop is {h_first - h_last!r} (gap {gap!r})"
            )
        benefit = ac_sum - pd_sum
        return CostBenefitReport(
            stages=tuple(collected),
            benefit=benefit,
            cost=cost_sum,
            ratio=_ratio(benefit, cost_sum),
            input_entropy=h_first,
            output_entropy=h_last,
        )

    def route(self, via_stages: Pipeline, direct: Stage) -> RouteComparison:
        first = via_stages.stages[0].forward.source
        last = via_stages.stages[-1].forward.target
        if not _same_letters(first, direct.forward.source):
            raise ValueError(
                f"route comparison: pipeline starts from '{first.id}' but the direct "
                f"stage starts from '{direct.forward.source.id}'"
            )
        if not _same_letters(last, direct.forward.target):
            raise ValueError(
                f"route comparison: pipeline ends in '{last.id}' but the direct "
                f"stage ends in '{direct.forward.target.id}'"
            )
        prior = via_stages.effective_prior
        pipeline_report = self.pipeline(via_stages)
        direct_report = self.stage(direct, prior)
        ac_pipeline = sum(m.alphabet_compression for m in pipeline_report.stages)
        ac_direct = direct_report.stages[0].alphabet_compression
        gap = abs(ac_pipeline - ac_direct)
        pd_pipeline = sum(m.potential_distortion for m in pipeline_report.stages)
        pd_direct = direct_report.stages[0].potential_distortion
        cost_premise = direct.cost > pipeline_report.cost
        distortion_premise = pd_direct > pd_pipeline
        return RouteComparison(
            pipeline_id=via_stages.id,
            direct_id=direct.id,
            pipeline=pipeline_report,
            direct=direct_report,
            compression_pipeline=ac_pipeline,
            compression_direct=ac_direct,
            compression_gap=gap,
            compression_additive=gap <= TELESCOPE_TOLERANCE,
            distortion_pipeline=pd_pipeline,
            distortion_direct=pd_direct,
            cost_premise_holds=cost_premise,
            distortion_premise_holds=distortion_premise,
            premises_satisfied=cost_premise and distortion_premise,
            pipeline_preferred=pipeline_report.ratio > direct_report.ratio,
        )


def stage_cost_benefit(stage: Stage, prior: Pmf) -> CostBenefitReport:
    """Evaluate one stage under an explicit input distribution."""
    return _Evaluator().stage(stage, prior)


def pipeline_cost_benefit(pipeline: Pipeline) -> CostBenefitReport:
    """Evaluate a chained pipeline of two or more stages.

    Stage i sees the distribution induced by stages 0..i-1; the combined
    benefit is the sum of stage compressions minus the sum of stage
    distortions, which must telescope to H(first) - H(last) - sum PD.
    """
    return _Evaluator().pipeline(pipeline)


def compare_routes(via_stages: Pipeline, direct: Stage) -> RouteComparison:
    """Compare a staged route against a direct one over shared endpoints.

    Both routes are evaluated under the pipeline's prior. The comparison
    reports whether compression is additive across the routes, whether the
    direct route really costs more and distorts more, and which ratio wins.
    The ratio ordering is only a supported conclusion when the premises
    hold; `premises_satisfied` says so.
    """
    return _Evaluator().route(via_stages, direct)
