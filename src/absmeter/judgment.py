"""Quality judgment: does a representation qualify as an abstraction?

Scoring follows a two-condition scheme: condition A (is it a representation
produced by a process that discards detail) is worth 2, condition B (is the
mapping between source and representation apparent) is worth 1 when
satisfied, 0 when not applicable, and -1 when negated; totals clamp to 0..3.
A judgment may name the point of view it was made from: what the viewer is
trying to do, and to what kind of thing.

This is plain arithmetic on the two conditions: the module imports no
numpy, so `absmeter score` loads none.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


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
