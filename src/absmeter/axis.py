"""Abstraction axes: ordered progressions of representations.

A representation node is one way of depicting a subject, tagged with the
visual attributes it renders and the information (in bits) it carries. An
axis strings nodes into an ordered progression serving one purpose, such as
successive simplifications of a molecular surface. Axes that manipulate
disjoint attribute sets combine into a multi-dimensional abstraction space;
axes that share a leading run of nodes and then part ways form a fork.

Each step along an axis is classified by what it does to the rendered
attributes. A changed attribute set decides the classification outright;
only when the sets are identical does the scalar information carried by the
nodes break the tie.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

# Information comparisons along an axis treat changes at or below this as none.
INFORMATION_TOLERANCE = 1e-9


class NodeKind(str, Enum):
    DATA = "data"
    VISUAL = "visual"


class TransitionKind(str, Enum):
    REMOVES = "removes"
    ADDS = "adds"
    REMOVES_AND_ADDS = "removes_and_adds"
    PRESERVES = "preserves"


@dataclass(frozen=True)
class RepresentationNode:
    """One representation: id, kind, information in bits, attribute tags."""

    id: str
    kind: NodeKind
    information: float
    attributes: frozenset[str] = frozenset()
    alphabet: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", NodeKind(self.kind))
        object.__setattr__(self, "attributes", frozenset(self.attributes))
        info = float(self.information)
        if not math.isfinite(info) or info < 0.0:
            raise ValueError(
                f"node '{self.id}': information must be finite and >= 0, "
                f"got {self.information!r}"
            )
        object.__setattr__(self, "information", info)


@dataclass(frozen=True)
class AbstractionAxis:
    """Ordered progression of at least two uniquely-identified nodes."""

    id: str
    nodes: tuple[RepresentationNode, ...]
    purpose: str = ""

    def __post_init__(self):
        nodes = tuple(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < 2:
            raise ValueError(f"axis '{self.id}' needs at least two nodes")
        ids = [n.id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"axis '{self.id}' has duplicate node ids")

    @property
    def affected_attributes(self) -> frozenset[str]:
        """Union of the attribute tags this axis touches."""
        out: set[str] = set()
        for node in self.nodes:
            out |= node.attributes
        return frozenset(out)

    def transitions(self) -> list[TransitionKind]:
        return [classify_transition(self, i) for i in range(len(self.nodes) - 1)]


def build_axis(
    nodes: Iterable[RepresentationNode], purpose: str = "", id: str = "axis"
) -> AbstractionAxis:
    """Axis over the given nodes; needs two or more with unique ids."""
    return AbstractionAxis(id=id, nodes=tuple(nodes), purpose=purpose)


def classify_transition(axis: AbstractionAxis, index: int) -> TransitionKind:
    """What the step from node ``index`` to ``index + 1`` does.

    Attribute-set changes take precedence: tags dropped and none gained is
    REMOVES, gained and none dropped is ADDS, both is REMOVES_AND_ADDS.
    With identical attribute sets only a drop in carried information beyond
    INFORMATION_TOLERANCE still counts as REMOVES; anything else PRESERVES.
    Adding information without a new attribute tag does not register as a
    step along the axis.
    """
    if not 0 <= index < len(axis.nodes) - 1:
        raise IndexError(
            f"axis '{axis.id}' has no transition {index} "
            f"(valid: 0..{len(axis.nodes) - 2})"
        )
    a, b = axis.nodes[index], axis.nodes[index + 1]
    lost = a.attributes - b.attributes
    gained = b.attributes - a.attributes
    if lost and gained:
        return TransitionKind.REMOVES_AND_ADDS
    if lost:
        return TransitionKind.REMOVES
    if gained:
        return TransitionKind.ADDS
    if a.information - b.information > INFORMATION_TOLERANCE:
        return TransitionKind.REMOVES
    return TransitionKind.PRESERVES


class OverlappingAttributesError(ValueError):
    """Two axes meant to be independent touch the same attribute tag."""

    def __init__(self, tag: str, axis_a: str, axis_b: str):
        self.tag = tag
        self.axis_a = axis_a
        self.axis_b = axis_b
        super().__init__(
            f"axes '{axis_a}' and '{axis_b}' both affect attribute {tag!r}"
        )


@dataclass(frozen=True)
class AbstractionSpace:
    """Cartesian product of independent axes; points are node-index tuples."""

    axes: tuple[AbstractionAxis, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(axis.nodes) for axis in self.axes)

    @property
    def point_count(self) -> int:
        return math.prod(self.shape)


def combine_space(axes: Sequence[AbstractionAxis]) -> AbstractionSpace:
    """Combine two or more axes whose attribute sets are pairwise disjoint."""
    axes = tuple(axes)
    if len(axes) < 2:
        raise ValueError(f"a space needs at least two axes, got {len(axes)}")
    ids = [axis.id for axis in axes]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate axis ids in space")
    for a, b in itertools.combinations(axes, 2):
        overlap = a.affected_attributes & b.affected_attributes
        if overlap:
            raise OverlappingAttributesError(sorted(overlap)[0], a.id, b.id)
    return AbstractionSpace(axes=axes)


@dataclass(frozen=True)
class ForkPoint:
    """Two axes agreeing on a leading run of nodes, then parting ways."""

    axis_a: str
    axis_b: str
    shared_prefix: tuple[str, ...]
    fork_index: int


def detect_fork(axes: Sequence[AbstractionAxis]) -> list[ForkPoint]:
    """Maximal shared node-id prefixes after which two axes diverge.

    Pairs where one axis simply extends the other (or both are identical)
    do not fork; both must continue, differently, past the shared run.
    """
    forks: list[ForkPoint] = []
    for a, b in itertools.combinations(axes, 2):
        ids_a = [n.id for n in a.nodes]
        ids_b = [n.id for n in b.nodes]
        shared = 0
        for x, y in zip(ids_a, ids_b):
            if x != y:
                break
            shared += 1
        if shared >= 1 and shared < len(ids_a) and shared < len(ids_b):
            forks.append(
                ForkPoint(
                    axis_a=a.id,
                    axis_b=b.id,
                    shared_prefix=tuple(ids_a[:shared]),
                    fork_index=shared,
                )
            )
    return forks
