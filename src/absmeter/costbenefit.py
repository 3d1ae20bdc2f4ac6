"""Cost-benefit accounting for abstraction stages and pipelines.

Each stage transforms one alphabet into the next at some cost. Its benefit
is the entropy it removes (alphabet compression) minus the divergence a
reconstructing observer suffers (potential distortion); the stage ratio is
benefit over cost. A pipeline chains stages, feeding each one the
distribution induced by everything before it, and its combined ratio is

    (sum_i AC_i - sum_i PD_i) / sum_i cost_i

which telescopes to (H(first) - H(last) - sum_i PD_i) / sum_i cost_i.

`compare_routes` puts a multi-stage pipeline side by side with a single
direct stage over the same endpoints (the scenario loader refuses other
routes in the same words) and reports whether the premises that
favor the pipeline (higher direct cost, higher direct distortion, additive
compression) actually hold before comparing the two ratios.

A Bayes stage's potential distortion is taken from the forward channel's
rows, without building the inverse channel or the reconstruction. The
posterior reconstruction is q(x) = sum_y P(y) p(x) c(y|x) / P(y) = p(x) s(x),
where s(x) is the sum of row x (every y with p(x) c(y|x) > 0 has P(y) > 0),
so D(q || p) = sum_x p(x) s(x) log2 s(x): exactly 0 through a map or a
quantizer. With e = s - 1, the row's exact `Channel.deficit`, s ln s =
e + e^2/2 to within a relative e^2/6, below one ulp for |e| <= 1e-9, the
declared rows' tolerance. So the distortion is `_ordered_sum` of
p (e + e e / 2) times 1/ln 2, in `+` and `*` only, whose rounding no SIMD
dispatch changes. An explicit reconstruction takes `reconstructed_pmf`'s
round trip and `kl_divergence`. The three public
evaluators each start from nothing; `analyze` shares one `_Evaluator`
across its sections, so each (stage, input distribution) pair it meets is
evaluated once.

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

import numpy as np

from .alphabet import Pmf, _ordered_sum, entropy, kl_divergence
from .channel import Channel, _forward, _require_oriented, _round_trip, _same_letters

# Internal telescoping consistency must hold within this.
TELESCOPE_TOLERANCE = 1e-9

# Marker for "reconstruct by Bayes inversion of the forward channel".
BAYES = "bayes"

# 1 / ln 2: bits per nat, so that a Bayes distortion takes no logarithm.
_BITS_PER_NAT = 1.4426950408889634


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
                f"{self.score} is inconsistent with the conditions (expected {expected})"
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
        _require_oriented(self.forward, recon)


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


def _require_same_ends(pipeline: Pipeline, direct: Stage) -> None:
    """Refuse a ``direct`` stage that does not start and end where ``pipeline``
    does. A stage without an id is named by its forward channel."""
    for verb, ours, theirs in (
        ("starts from", direct.forward.source, pipeline.stages[0].forward.source),
        ("ends in", direct.forward.target, pipeline.stages[-1].forward.target),
    ):
        if not _same_letters(theirs, ours):
            name = (
                f"stage over channel '{direct.forward.id}'"
                if direct.id is None
                else f"stage '{direct.id}'"
            )
            raise ValueError(
                f"{name} {verb} '{ours.id}' but pipeline '{pipeline.id}' {verb} '{theirs.id}'"
            )


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
        pvec, _, out = _forward(prior, stage.forward)
        # when the pushed pmf is not a pmf, that is the first fault to report
        out.require_valid()
        e = stage.forward.deficit

        def terms(start: int, end: int) -> np.ndarray:
            eb = e[start:end]
            return pvec[start:end] * (eb + eb * eb / 2)

        pd = _ordered_sum(terms, pvec, e) * _BITS_PER_NAT
    else:
        out, back = _round_trip(prior, stage.forward, stage.recon)
        pd = kl_divergence(back, prior)
    h_out = entropy(out)
    ac = h_in - h_out
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
        _require_same_ends(via_stages, direct)
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
