import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from builders import bayes_stage, uniform
from absmeter import (
    Alphabet,
    Channel,
    Pmf,
    entropy,
    kl_divergence,
    make_quantized_range,
    push_forward,
)


class TestMakeUniform:
    """An alphabet built without a pmf is uniform over its letters."""

    def test_two_letters_split_evenly(self):
        a = uniform(2)
        assert a.pmf["x0"] == 0.5
        assert a.pmf["x1"] == 0.5
        assert abs(entropy(a) - 1.0) <= 1e-12

    def test_single_letter_is_certain(self):
        a = uniform(1)
        assert a.pmf["x0"] == 1.0
        h = entropy(a)
        assert h == 0.0
        assert math.copysign(1.0, h) == 1.0  # 0.0, never -0.0

    def test_1001_letters(self):
        a = uniform(1001)
        assert a.n_letters == 1001
        assert abs(entropy(a) - math.log2(1001)) <= 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet("x", [])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            Alphabet("x", ["a", "a"])


class TestQuantizedRange:
    def test_barchart_grid(self):
        a = make_quantized_range(0.0, 10000.0, 0.01)
        assert a.n_letters == 1_000_001
        assert a.values[0] == 0.0
        assert a.values[-1] == 10000.0
        assert a.values[1] == 0.01
        assert a.values[1_000_000] == 10000.0
        assert abs(a.pmf.mass() - 1.0) <= 1e-9

    def test_integer_grid(self):
        a = make_quantized_range(0, 100, 1)
        assert a.n_letters == 101
        assert a.values[100] == 100.0

    def test_half_step_grid(self):
        a = make_quantized_range(0, 1, 0.5)
        assert list(a.values) == [0.0, 0.5, 1.0]

    def test_single_point_grid(self):
        a = make_quantized_range(3.0, 3.0, 1.0)
        assert a.n_letters == 1
        assert a.values[0] == 3.0

    @pytest.mark.parametrize(
        "lo,hi,step",
        [
            (0.0, 1.0, 0.0),
            (0.0, 1.0, -0.5),
            (1.0, 0.0, 0.5),
            (0.0, 1.0, 0.3),
            (0.0, math.inf, 1.0),
            (math.nan, 1.0, 0.5),
        ],
    )
    def test_rejects_bad_grids(self, lo, hi, step):
        with pytest.raises(ValueError):
            make_quantized_range(lo, hi, step)

    def test_rejects_infinite_span(self):
        with pytest.raises(ValueError, match="finite count"):
            make_quantized_range(-1e308, 1e308, 1.0)

    def test_letter_budget_checked_before_building(self):
        assert make_quantized_range(0, 10, 1, max_letters=11).n_letters == 11
        with pytest.raises(ValueError, match="more than the 10 letters"):
            make_quantized_range(0, 10, 1, max_letters=10)
        with pytest.raises(ValueError, match="more than the 10 letters"):
            make_quantized_range(0, 1, 1e-300, max_letters=10)

    def test_grid_letter_lookup(self):
        a = make_quantized_range(0, 10, 1)
        assert 0 in a.pmf
        assert 10 in a.pmf
        assert 11 not in a.pmf
        assert "3" not in a.pmf
        assert a.index_of(4) == 4
        with pytest.raises(KeyError):
            a.index_of("4")


class TestPmf:
    def test_lookup_and_mass(self):
        p = Pmf({"a": 0.25, "b": 0.75})
        assert p["b"] == 0.75
        assert "a" in p and "z" not in p
        assert dict(p.items()) == {"a": 0.25, "b": 0.75}
        assert abs(p.mass() - 1.0) <= 1e-12

    def test_reports_negative_mass(self):
        p = Pmf({"a": -0.1, "b": 0.6})
        problems = p.violations()
        assert any("negative mass" in msg for msg in problems)
        assert any("'a'" in msg for msg in problems)
        with pytest.raises(ValueError):
            p.require_valid()

    def test_reports_wrong_total(self):
        problems = Pmf({"a": 0.45, "b": 0.45}).violations()
        assert any("mass sums to" in msg for msg in problems)

    def test_valid_pmf_has_no_violations(self):
        assert Pmf({"a": 0.5, "b": 0.5}).violations() == []

    @pytest.mark.parametrize(
        "d, problems",
        [
            (
                {"a": math.nan, "b": -0.25, "c": 0.5},
                ["letter 'b': negative mass -0.25", "mass sums to nan (expected 1 within 1e-09)"],
            ),
            ({"a": -0.0, "b": 1.0}, []),
            ({"a": 0.0, "b": -0.0}, ["mass sums to 0.0 (expected 1 within 1e-09)"]),
        ],
        ids=["nan-and-negative", "negative-zero", "all-zero"],
    )
    def test_violation_messages(self, d, problems):
        assert Pmf(d).violations() == problems

    def test_from_vector_refuses_repeated_ids(self):
        with pytest.raises(ValueError, match="duplicate letter ids in pmf"):
            Pmf.from_vector(("a", "a"), [0.5, 0.5])

    def test_aligned_to_reorders(self):
        p = Pmf({"a": 0.1, "b": 0.2, "c": 0.7})
        assert np.allclose(p.aligned_to(("c", "a", "b")), [0.7, 0.1, 0.2])

    def test_aligned_to_rejects_unknown_letters(self):
        p = Pmf({"a": 0.5, "b": 0.5})
        with pytest.raises(ValueError):
            p.aligned_to(("a", "z"))
        with pytest.raises(ValueError):
            p.aligned_to(("a",))


class TestEntropy:
    def test_fair_coin(self):
        assert abs(entropy(Pmf({"h": 0.5, "t": 0.5})) - 1.0) <= 1e-12

    def test_zero_mass_letters_contribute_nothing(self):
        h = entropy(Pmf({"a": 0.5, "b": 0.5, "c": 0.0}))
        assert abs(h - 1.0) <= 1e-12

    def test_matches_oracle_on_biased_pmf(self):
        d = {"a": 0.7, "b": 0.2, "c": 0.1}
        assert abs(entropy(Pmf(d)) - oracles.entropy_bits(d)) <= 1e-12

    def test_rejects_invalid_pmf(self):
        with pytest.raises(ValueError):
            entropy(Pmf({"a": 0.9}))


class TestKlDivergence:
    def test_identical_pmfs_diverge_by_zero(self):
        p = Pmf({"a": 0.3, "b": 0.7})
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_against_fair_coin_is_one_bit(self):
        q = Pmf({"a": 1.0, "b": 0.0})
        p = Pmf({"a": 0.5, "b": 0.5})
        assert abs(kl_divergence(q, p) - 1.0) <= 1e-12

    def test_support_violation_is_positive_infinity(self):
        q = Pmf({"a": 0.5, "b": 0.5})
        p = Pmf({"a": 1.0, "b": 0.0})
        d = kl_divergence(q, p)
        assert math.isinf(d) and d > 0

    def test_biased_three_letter_value(self):
        q = {"a": 0.5, "b": 0.25, "c": 0.25}
        p = {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}
        d = kl_divergence(Pmf(q), Pmf(p))
        assert abs(d - 0.08496250072115619) <= 1e-12
        assert abs(d - oracles.kl_bits(q, p)) <= 1e-12

    def test_letter_order_does_not_matter(self):
        q = Pmf({"b": 0.25, "a": 0.75})
        p = Pmf({"a": 0.5, "b": 0.5})
        expected = oracles.kl_bits(dict(q.items()), dict(p.items()))
        assert abs(kl_divergence(q, p) - expected) <= 1e-12

    def test_rejects_mismatched_letter_sets(self):
        with pytest.raises(ValueError):
            kl_divergence(Pmf({"a": 1.0}), Pmf({"b": 1.0}))


class TestAlphabet:
    def test_pmf_is_stored_in_letter_order(self):
        a = Alphabet("a", ("x", "y"), pmf=Pmf({"y": 0.75, "x": 0.25}))
        assert a.pmf.ids is a.letter_ids
        assert list(a.pmf.vec) == [0.25, 0.75]

    def test_position_misses_without_raising(self):
        assert Pmf({"a": 1.0}).position("b") is None
        grid = make_quantized_range(0, 10, 1).pmf
        assert grid.position(4) == 4
        assert grid.position("4") is None
        assert grid.position(True) is None


class TestCachingAndCopies:
    FULL = {"a": 0.5, "b": 0.3, "c": 0.2}
    PARTIAL = {"a": 0.5, "b": 0.0, "c": 0.5, "d": -0.0}

    @pytest.mark.parametrize("d", [FULL, PARTIAL], ids=["full", "partial"])
    def test_entropy_repeat_equals_fresh_pmf(self, d):
        p = Pmf(d)
        first = entropy(p)
        assert entropy(p) == first == entropy(Pmf(d))
        assert abs(first - oracles.entropy_bits(d)) <= 1e-12

    def test_invalid_pmf_is_refused_every_time(self):
        p = Pmf({"a": 0.9})
        for _ in range(2):
            with pytest.raises(ValueError):
                entropy(p)

    def test_invalid_pmf_is_refused_on_every_call(self):
        p = Pmf({"a": 0.9, "b": 0.0})
        fine = Pmf({"a": 0.5, "b": 0.5})
        for _ in range(3):
            assert p.violations()
            for call in (p.require_valid, lambda: entropy(p), lambda: kl_divergence(p, fine),
                         lambda: kl_divergence(fine, p)):
                with pytest.raises(ValueError, match="mass sums to"):
                    call()

    def test_clean_scan_is_not_repeated(self, monkeypatch):
        p = Pmf({"a": 0.25, "b": 0.75})
        assert p.violations() == []
        monkeypatch.setattr(Pmf, "violations", lambda self: pytest.fail("scanned again"))
        p.require_valid()
        assert entropy(p) > 0.0

    @pytest.mark.parametrize(
        "q, p",
        [
            (FULL, {"a": 0.2, "b": 0.2, "c": 0.6}),
            (PARTIAL, {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25}),
            ({"a": 0.5, "b": 0.0, "c": 0.5, "d": 0.0}, PARTIAL),
            (FULL, {"a": 0.5, "b": 0.5, "c": 0.0}),
        ],
        ids=["full", "partial-q", "partial-both", "off-support"],
    )
    def test_kl_matches_oracle(self, q, p):
        d = kl_divergence(Pmf(q), Pmf(p))
        expected = oracles.kl_bits(q, p)
        assert d == expected if math.isinf(expected) else abs(d - expected) <= 1e-12

    @pytest.mark.parametrize(
        "q, p, expected",
        [
            (PARTIAL, None, 1.0),
            ({"a": -0.0, "b": 1.0}, None, 0.0),
            ({"a": 0.2, "b": 0.0, "c": 0.8}, None, 0.7219280948873623),
            ({"a": 0.25, "b": 0.0, "c": 0.75}, {"a": 0.2, "b": -0.0, "c": 0.8}, 0.010649970428229405),
            ({"a": 0.2, "b": 0.0, "c": 0.8}, {"a": 0.25, "b": 0.5, "c": 0.25}, 1.278071905112638),
            (FULL, {"a": 0.5, "b": 0.5, "c": 0.0}, math.inf),
            ({"a": 0.5, "b": 0.5, "c": 0.0}, {"a": 0.2, "b": 0.0, "c": 0.8}, math.inf),
        ],
        ids=["H-partial", "H-certain", "H-zero", "kl-both-zero", "kl-q-zero", "kl-p-zero",
             "kl-off-support"],
    )
    def test_zero_mass_results_are_pinned(self, q, p, expected):
        # p None means H(q); the entropy of a certain pmf is +0.0
        got = entropy(Pmf(q)) if p is None else kl_divergence(Pmf(q), Pmf(p))
        assert got == expected and math.copysign(1.0, got) == 1.0

    def test_from_vector_copies_a_writeable_array(self):
        vec = np.array([0.25, 0.75])
        p = Pmf.from_vector(("a", "b"), vec)
        vec[0] = 0.75
        assert list(p.vec) == [0.25, 0.75]
        assert not p.vec.flags.writeable

    def test_package_made_vectors_are_read_only(self):
        a = Alphabet("a", ("a0", "a1", "a2", "a3"))
        b = Alphabet("b", ("b0", "b1"))
        f = Channel.deterministic("f", a, b, {"a0": "b0", "a1": "b0", "a2": "b1", "a3": "b1"})
        made = [a.pmf, b.pmf, make_quantized_range(0, 4, 1).pmf, push_forward(a.pmf, f)]
        made.append(bayes_stage(a.pmf, f)[0])
        for pmf in made:
            assert not pmf.vec.flags.writeable


class TestValidate:
    def test_clean_alphabet(self):
        assert uniform(4).pmf.violations() == []

    def test_reports_pmf_problems(self):
        a = Alphabet("bad", ("a", "b"), pmf=Pmf({"a": 0.4, "b": 0.5}))
        assert any("mass sums to" in msg for msg in a.pmf.violations())

    def test_reports_key_mismatch(self):
        with pytest.raises(ValueError, match="no letter 'b'"):
            Alphabet("bad", ("a", "b"), pmf=Pmf({"a": 0.5, "q": 0.5}))


@st.composite
def pmf_dicts(draw, min_size=2, max_size=64):
    n = draw(st.integers(min_size, max_size))
    weights = draw(
        st.lists(
            st.floats(0.0, 1000.0, allow_nan=False), min_size=n, max_size=n
        ).filter(lambda w: sum(w) > 0.0)
    )
    total = math.fsum(weights)
    return {f"x{i}": w / total for i, w in enumerate(weights)}


class TestDistributionProperties:
    @given(pmf_dicts())
    @settings(max_examples=200, deadline=None)
    def test_entropy_bounds(self, d):
        h = entropy(Pmf(d))
        assert -1e-12 <= h <= math.log2(len(d)) + 1e-12

    @given(pmf_dicts())
    @settings(max_examples=100, deadline=None)
    def test_entropy_is_permutation_invariant(self, d):
        flipped = dict(reversed(list(d.items())))
        assert abs(entropy(Pmf(d)) - entropy(Pmf(flipped))) <= 1e-12

    @given(pmf_dicts())
    @settings(max_examples=100, deadline=None)
    def test_uniform_maximizes_entropy(self, d):
        n = len(d)
        flat = Pmf({k: 1.0 / n for k in d})
        assert entropy(Pmf(d)) <= entropy(flat) + 1e-12

    @given(pmf_dicts(), pmf_dicts())
    @settings(max_examples=200, deadline=None)
    def test_gibbs_inequality(self, d1, d2):
        n = min(len(d1), len(d2))
        q = {f"x{i}": v for i, v in enumerate(_renorm(list(d1.values())[:n]))}
        p = {f"x{i}": v for i, v in enumerate(_renorm(list(d2.values())[:n]))}
        d = kl_divergence(Pmf(q), Pmf(p))
        assert d >= -1e-12
        assert abs(d - oracles.kl_bits(q, p)) <= 1e-9 or (
            math.isinf(d) and math.isinf(oracles.kl_bits(q, p))
        )

    @given(pmf_dicts())
    @settings(max_examples=100, deadline=None)
    def test_gibbs_equality_on_identical_pmfs(self, d):
        assert kl_divergence(Pmf(d), Pmf(dict(d))) <= 1e-12


def _renorm(weights):
    total = math.fsum(weights)
    if total <= 0.0:
        return [1.0 / len(weights)] * len(weights)
    return [w / total for w in weights]
