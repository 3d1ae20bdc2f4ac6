"""Measure visual abstraction as information change across a pipeline.

A visualization pipeline is modeled as a chain of channels between finite
alphabets of states. Each step compresses the alphabet (entropy drop from
input to output) and risks distortion (divergence between what a viewer can
reconstruct and what was actually there). Weighing both against the cost of
the step gives a number that can be compared across designs, and whole
families of representations can be organized along axes of progressively
heavier abstraction.
"""

from .alphabet import (
    Alphabet,
    Pmf,
    entropy,
    kl_divergence,
    make_quantized_range,
)
from .axis import (
    AbstractionAxis,
    AbstractionSpace,
    ForkPoint,
    NodeKind,
    OverlappingAttributesError,
    RepresentationNode,
    TransitionKind,
    classify_transition,
    combine_space,
    detect_fork,
)
from .channel import (
    Channel,
    alphabet_compression,
    bayes_inverse,
    potential_distortion,
    push_forward,
    reconstructed_pmf,
)
from .costbenefit import (
    AbstractionJudgment,
    ConditionB,
    CostBenefitReport,
    Pipeline,
    PointOfView,
    RouteComparison,
    Stage,
    StageMetrics,
    TaskAction,
    TaskTarget,
    abstraction_score,
    compare_routes,
    pipeline_cost_benefit,
    stage_cost_benefit,
)
from .exemplars import EXEMPLAR_NAMES, exemplar
from .report import Report, analyze
from .scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    loads_scenario,
    parse_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "Pmf",
    "entropy",
    "kl_divergence",
    "make_quantized_range",
    "Channel",
    "alphabet_compression",
    "bayes_inverse",
    "potential_distortion",
    "push_forward",
    "reconstructed_pmf",
    "AbstractionJudgment",
    "ConditionB",
    "CostBenefitReport",
    "Pipeline",
    "PointOfView",
    "RouteComparison",
    "Stage",
    "StageMetrics",
    "TaskAction",
    "TaskTarget",
    "abstraction_score",
    "compare_routes",
    "pipeline_cost_benefit",
    "stage_cost_benefit",
    "AbstractionAxis",
    "AbstractionSpace",
    "ForkPoint",
    "NodeKind",
    "OverlappingAttributesError",
    "RepresentationNode",
    "TransitionKind",
    "classify_transition",
    "combine_space",
    "detect_fork",
    "EXEMPLAR_NAMES",
    "exemplar",
    "Report",
    "analyze",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "loads_scenario",
    "parse_scenario",
]
