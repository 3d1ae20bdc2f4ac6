import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absmeter import (
    AbstractionSpace,
    NodeKind,
    OverlappingAttributesError,
    RepresentationNode,
    TransitionKind,
    build_axis,
    classify_transition,
    combine_space,
    detect_fork,
)


def node(id, info, attrs=(), kind="visual"):
    return RepresentationNode(
        id=id, kind=kind, information=info, attributes=frozenset(attrs)
    )


class TestNodes:
    def test_coerces_kind_and_attributes(self):
        n = RepresentationNode("x", "data", 3.0, ["a", "b"])
        assert n.kind is NodeKind.DATA
        assert n.attributes == frozenset({"a", "b"})

    def test_rejects_bad_information(self):
        with pytest.raises(ValueError):
            node("x", -1.0)
        with pytest.raises(ValueError):
            node("x", math.nan)
        with pytest.raises(ValueError):
            node("x", math.inf)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            RepresentationNode("x", "audible", 1.0)


class TestBuildAxis:
    def test_preserves_order(self):
        axis = build_axis([node("a", 3.0), node("b", 2.0), node("c", 1.0)], id="x")
        assert [n.id for n in axis.nodes] == ["a", "b", "c"]
        assert axis.id == "x"

    def test_ten_node_axis(self):
        axis = build_axis([node(f"n{i}", 10.0 - i) for i in range(10)], id="long")
        assert len(axis.nodes) == 10
        assert len(axis.transitions()) == 9

    def test_rejects_single_node(self):
        with pytest.raises(ValueError, match="at least two"):
            build_axis([node("a", 1.0)])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_axis([node("a", 1.0), node("a", 2.0)])

    def test_affected_attributes_union(self):
        axis = build_axis(
            [node("a", 3.0, {"x", "y"}), node("b", 2.0, {"y", "z"})], id="u"
        )
        assert axis.affected_attributes == frozenset({"x", "y", "z"})


class TestClassifyTransition:
    def test_attribute_loss_removes(self):
        axis = build_axis([node("a", 5.0, {"x", "y"}), node("b", 9.0, {"x"})])
        # information went up; the lost attribute still decides
        assert classify_transition(axis, 0) is TransitionKind.REMOVES

    def test_attribute_gain_adds(self):
        axis = build_axis([node("a", 5.0, {"x"}), node("b", 4.0, {"x", "y"})])
        assert classify_transition(axis, 0) is TransitionKind.ADDS

    def test_swap_removes_and_adds(self):
        axis = build_axis([node("a", 5.0, {"x"}), node("b", 5.0, {"y"})])
        assert classify_transition(axis, 0) is TransitionKind.REMOVES_AND_ADDS

    def test_same_attributes_information_drop_removes(self):
        axis = build_axis([node("a", 12.0, {"x"}), node("b", 8.0, {"x"})])
        assert classify_transition(axis, 0) is TransitionKind.REMOVES

    def test_identical_nodes_preserve(self):
        axis = build_axis([node("a", 5.0, {"x"}), node("b", 5.0, {"x"})])
        assert classify_transition(axis, 0) is TransitionKind.PRESERVES

    def test_information_gain_without_new_attributes_preserves(self):
        axis = build_axis([node("a", 5.0, {"x"}), node("b", 9.0, {"x"})])
        assert classify_transition(axis, 0) is TransitionKind.PRESERVES

    def test_tolerance_boundary(self):
        hair = build_axis([node("a", 1.0), node("b", 1.0 - 5e-10)])
        assert classify_transition(hair, 0) is TransitionKind.PRESERVES
        clear = build_axis([node("a", 1.0), node("b", 1.0 - 5e-9)])
        assert classify_transition(clear, 0) is TransitionKind.REMOVES

    def test_rejects_out_of_range_indices(self):
        axis = build_axis([node("a", 2.0), node("b", 1.0)])
        with pytest.raises(IndexError):
            classify_transition(axis, 1)
        with pytest.raises(IndexError):
            classify_transition(axis, -1)

    @given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=2, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_attribute_free_axes_classify_by_information_alone(self, infos):
        axis = build_axis([node(f"n{i}", v) for i, v in enumerate(infos)])
        for i, kind in enumerate(axis.transitions()):
            drop = infos[i] - infos[i + 1]
            if drop > 1e-9:
                assert kind is TransitionKind.REMOVES
            else:
                assert kind is TransitionKind.PRESERVES

    def test_all_removes_means_strictly_decreasing_information(self):
        axis = build_axis([node(f"n{i}", 10.0 - 2 * i) for i in range(5)])
        kinds = axis.transitions()
        assert all(k is TransitionKind.REMOVES for k in kinds)
        infos = [n.information for n in axis.nodes]
        assert all(x > y for x, y in zip(infos, infos[1:]))


class TestCombineSpace:
    def test_disjoint_axes_combine(self):
        a = build_axis([node("a1", 3.0, {"size"}), node("a2", 2.0, {"size"})], id="A")
        b = build_axis(
            [node("b1", 3.0, {"hue"}), node("b2", 2.0, {"hue"}), node("b3", 1.0, {"hue"})],
            id="B",
        )
        space = combine_space([a, b])
        assert isinstance(space, AbstractionSpace)
        assert space.shape == (2, 3)
        assert space.point_count == 6

    def test_three_axes_multiply(self):
        axes = [
            build_axis(
                [node(f"{tag}1", 2.0, {tag}), node(f"{tag}2", 1.0, {tag})], id=tag
            )
            for tag in ("alpha", "beta", "gamma")
        ]
        assert combine_space(axes).point_count == 8

    def test_shared_tag_is_rejected(self):
        a = build_axis([node("a1", 3.0, {"color"}), node("a2", 2.0, {"color"})], id="A")
        b = build_axis([node("b1", 3.0, {"color"}), node("b2", 2.0, {"color"})], id="B")
        with pytest.raises(OverlappingAttributesError) as exc:
            combine_space([a, b])
        assert exc.value.tag == "color"
        assert exc.value.axis_a == "A"
        assert exc.value.axis_b == "B"

    def test_needs_at_least_two_axes(self):
        a = build_axis([node("a1", 2.0), node("a2", 1.0)], id="A")
        with pytest.raises(ValueError, match="at least two"):
            combine_space([a])

    @given(st.integers(2, 5), st.integers(2, 5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_succeeds_exactly_when_tags_are_disjoint(self, n1, n2, share):
        tags_a = {f"t{i}" for i in range(n1)}
        tags_b = {f"u{i}" for i in range(n2)}
        if share:
            tags_b = tags_b | {"t0"}
        a = build_axis([node("a1", 2.0, tags_a), node("a2", 1.0, tags_a)], id="A")
        b = build_axis([node("b1", 2.0, tags_b), node("b2", 1.0, tags_b)], id="B")
        if share:
            with pytest.raises(OverlappingAttributesError):
                combine_space([a, b])
        else:
            assert combine_space([a, b]).point_count == 4


class TestDetectFork:
    def test_shared_prefix_then_divergence(self):
        a = build_axis([node("root", 5.0), node("left", 4.0), node("l2", 3.0)], id="A")
        b = build_axis([node("root", 5.0), node("right", 4.0)], id="B")
        forks = detect_fork([a, b])
        assert len(forks) == 1
        f = forks[0]
        assert (f.axis_a, f.axis_b) == ("A", "B")
        assert f.shared_prefix == ("root",)
        assert f.fork_index == 1

    def test_longer_shared_prefix(self):
        a = build_axis(
            [node("n1", 5.0), node("n2", 4.0), node("x", 3.0)], id="A"
        )
        b = build_axis(
            [node("n1", 5.0), node("n2", 4.0), node("y", 3.0)], id="B"
        )
        forks = detect_fork([a, b])
        assert forks[0].shared_prefix == ("n1", "n2")
        assert forks[0].fork_index == 2

    def test_disjoint_axes_never_fork(self):
        a = build_axis([node("a1", 2.0), node("a2", 1.0)], id="A")
        b = build_axis([node("b1", 2.0), node("b2", 1.0)], id="B")
        assert detect_fork([a, b]) == []

    def test_identical_axes_do_not_fork(self):
        nodes = [node("n1", 2.0), node("n2", 1.0)]
        a = build_axis(nodes, id="A")
        b = build_axis(nodes, id="B")
        assert detect_fork([a, b]) == []

    def test_pure_extension_is_not_a_fork(self):
        a = build_axis([node("n1", 3.0), node("n2", 2.0)], id="A")
        b = build_axis([node("n1", 3.0), node("n2", 2.0), node("n3", 1.0)], id="B")
        assert detect_fork([a, b]) == []

    def test_pairwise_over_three_axes(self):
        a = build_axis([node("root", 3.0), node("a2", 2.0)], id="A")
        b = build_axis([node("root", 3.0), node("b2", 2.0)], id="B")
        c = build_axis([node("other", 3.0), node("c2", 2.0)], id="C")
        forks = detect_fork([a, b, c])
        assert [(f.axis_a, f.axis_b) for f in forks] == [("A", "B")]
