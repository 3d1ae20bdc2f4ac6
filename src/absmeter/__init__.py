"""Measure visual abstraction as information change across a pipeline.

A visualization pipeline is modeled as a chain of channels between finite
alphabets of states. Each step compresses the alphabet (entropy drop from
input to output) and risks distortion (divergence between what a viewer can
reconstruct and what was actually there). Weighing both against the cost of
the step gives a number that can be compared across designs, and whole
families of representations can be organized along axes of progressively
heavier abstraction.

Each exported name loads the submodule that defines it on first use (PEP
562), so `import absmeter` costs no numpy until a name that needs it is
read. A name read once is stored here, and later reads are plain lookups.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it defines that the package exports
_EXPORTS = {
    "alphabet": ("Alphabet", "Pmf", "entropy", "kl_divergence", "make_quantized_range"),
    "channel": (
        "Channel",
        "alphabet_compression",
        "bayes_inverse",
        "potential_distortion",
        "push_forward",
        "reconstructed_pmf",
    ),
    "judgment": (
        "AbstractionJudgment",
        "ConditionB",
        "PointOfView",
        "TaskAction",
        "TaskTarget",
        "abstraction_score",
    ),
    "costbenefit": (
        "CostBenefitReport",
        "Pipeline",
        "RouteComparison",
        "Stage",
        "StageMetrics",
        "compare_routes",
        "pipeline_cost_benefit",
        "stage_cost_benefit",
    ),
    "axis": (
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
    ),
    "exemplars": ("EXEMPLAR_NAMES", "exemplar"),
    "report": ("Report", "analyze"),
    "scenario": ("Scenario", "ScenarioError", "load_scenario", "loads_scenario", "parse_scenario"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
