import json
import math
import tracemalloc

import numpy as np
import pytest

import builders
from builders import identity, uniform
import oracles
from absmeter import (
    Alphabet,
    Channel,
    Pmf,
    alphabet_compression,
    bayes_inverse,
    entropy,
    exemplar,
    kl_divergence,
    loads_scenario,
    make_quantized_range,
    potential_distortion,
    push_forward,
    reconstructed_pmf,
)
from absmeter.channel import (
    MAX_DERIVED_NONZEROS,
    MAX_DETERMINISTIC_LETTERS,
    MAX_STOCHASTIC_ENTRIES,
    MAX_STOCHASTIC_LETTERS,
    ROW_MASS_TOLERANCE,
)


def rows_of(channel):
    return {x: channel.row(x) for x in channel.source.letter_ids}


class TestConstruction:
    def test_deterministic_requires_total_map(self):
        a, b = uniform(3, "a"), uniform(2, "b")
        with pytest.raises(ValueError, match="no image"):
            Channel.deterministic("f", a, b, {"a0": "b0", "a1": "b1"})

    def test_a_row_sum_at_the_tolerance_is_decided_exactly(self):
        # rows scaled to 1 + 1e-9 whose sum, added up in entry order, falls
        # on the other side of the tolerance from their exact sum: the exact
        # sum decides, as it does for the deficit a distortion reads
        rng = np.random.default_rng(1)
        a, decided = uniform(1, "a"), set()
        for _ in range(2000):
            k = int(rng.integers(3, 40))
            w = rng.random(k)
            w = w / w.sum() * (1 + ROW_MASS_TOLERANCE)
            rounded = abs(np.add.accumulate(w)[-1] - 1.0) <= ROW_MASS_TOLERANCE
            exact = abs(math.fsum(w.tolist() + [-1.0])) <= ROW_MASS_TOLERANCE
            if rounded == exact:
                continue
            decided.add(exact)
            b = uniform(k, "b")
            rows = {"a0": dict(zip(b.letter_ids, w.tolist()))}
            if exact:
                assert abs(Channel.stochastic("s", a, b, rows).deficit[0]) <= ROW_MASS_TOLERANCE
            else:
                with pytest.raises(ValueError, match="row 'a0' sums to"):
                    Channel.stochastic("s", a, b, rows)
        assert decided == {True, False}

    def test_deterministic_rejects_unknown_letters(self):
        a, b = uniform(2, "a"), uniform(2, "b")
        with pytest.raises(ValueError, match="not a letter"):
            Channel.deterministic("f", a, b, {"a0": "b0", "a1": "b1", "zz": "b0"})
        with pytest.raises(ValueError, match="not a letter"):
            Channel.deterministic("f", a, b, {"a0": "b0", "a1": "zz"})

    def test_stochastic_rejects_bad_rows(self):
        a, b = uniform(2, "a"), uniform(2, "b")
        with pytest.raises(ValueError, match="sums to"):
            Channel.stochastic("s", a, b, {"a0": {"b0": 0.9}, "a1": {"b1": 1.0}})
        with pytest.raises(ValueError, match="negative"):
            Channel.stochastic(
                "s", a, b, {"a0": {"b0": 1.5, "b1": -0.5}, "a1": {"b1": 1.0}}
            )
        with pytest.raises(ValueError, match="no conditional row"):
            Channel.stochastic("s", a, b, {"a0": {"b0": 1.0}})

    # rows over a0..a2 -> b0, b1 with several faults each, and the one reported:
    # the earliest failing source, a negative entry before its row's sum
    MULTI_ERROR = {
        "negative-before-later-sum-and-missing-row": (
            {"a0": {"b0": 1.5, "b1": -0.5}, "a1": {"b0": 0.9}},
            "negative conditional probability -0.5 in row {a0}",
        ),
        "sum-before-later-negative-and-missing-row": (
            {"a0": {"b0": 0.9}, "a1": {"b0": 1.5, "b1": -0.5}},
            "row {a0} sums to 0.9 (expected 1 within 1e-09)",
        ),
        "missing-row-before-later-negative-and-sum": (
            {"a1": {"b0": 1.5, "b1": -0.5}, "a2": {"b0": 0.9}},
            "no conditional row for source letter {a0}",
        ),
        "source-order-not-declaration-order": (
            {"a2": {"b0": 0.9}, "a1": {"b0": 1.5, "b1": -0.5}, "a0": {"b0": 1.0}},
            "negative conditional probability -0.5 in row {a1}",
        ),
        "negative-before-own-row-sum": (
            {"a0": {"b0": 0.25, "b1": 0.75}, "a1": {"b0": 0.5, "b1": -0.7}},
            "negative conditional probability -0.7 in row {a1}",
        ),
        "empty-row-sums-to-zero": (
            {"a0": {}, "a1": {"b0": -1.0}},
            "row {a0} sums to 0.0 (expected 1 within 1e-09)",
        ),
    }

    @pytest.mark.parametrize("case", sorted(MULTI_ERROR))
    def test_stochastic_reports_first_failing_row(self, case):
        rows, expected = self.MULTI_ERROR[case]
        a, b = uniform(3, "a"), uniform(2, "b")
        with pytest.raises(ValueError) as api:
            Channel.stochastic("s", a, b, rows)
        assert str(api.value) == "channel 's': " + expected.format(
            a0="'a0'", a1="'a1'"
        )
        # the loader checks the same rows over the letters "0".."2" and "0", "1"
        declared = {
            key[1:]: {out[1:]: p for out, p in row.items()} for key, row in rows.items()
        }
        data = {
            "alphabets": [
                {"id": "a", "uniform_count": 3},
                {"id": "b", "uniform_count": 2},
            ],
            "channels": [
                {"id": "s", "from": "a", "to": "b", "stochastic": {"rows": declared}}
            ],
        }
        with pytest.raises(ValueError) as loaded:
            loads_scenario(json.dumps(data))
        assert str(loaded.value) == (
            "channels[0].stochastic.rows: channel 's': "
            + expected.format(a0="'0'", a1="'1'")
        )

    def test_stochastic_rejects_nan_rows(self):
        a, b = uniform(2, "a"), uniform(2, "b")
        with pytest.raises(ValueError, match="row 'a0' sums to nan"):
            Channel.stochastic("s", a, b, {"a0": {"b0": math.nan}, "a1": {"b1": 1.0}})

    def test_stochastic_entry_budget_checked_before_building(self):
        # one shared 257-entry row for each of 4096 sources: 2^20 + 4096 entries
        a, b = uniform(MAX_STOCHASTIC_LETTERS, "a"), uniform(257, "b")
        row = {lid: 0.0 for lid in b.letter_ids} | {"b0": 1.0}
        rows = dict.fromkeys(a.letter_ids, row)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="more than the 1048576 supported"):
                Channel.stochastic("s", a, b, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one entry array alone would take 8 MiB
        assert peak < 1 << 20
        assert MAX_STOCHASTIC_ENTRIES == 4096 * 256

    def test_deterministic_size_bound(self):
        big = make_quantized_range(0, MAX_DETERMINISTIC_LETTERS, 1, id="big")
        tiny = uniform(1, "t")
        with pytest.raises(ValueError, match="at most"):
            Channel.deterministic("f", big, tiny, {})

    def test_stochastic_size_bound(self):
        big = uniform(MAX_STOCHASTIC_LETTERS + 1, "big")
        tiny = uniform(1, "t")
        with pytest.raises(ValueError, match="at most"):
            Channel.stochastic("s", big, tiny, {})

    def test_row_and_conditional_lookup(self):
        a, b = uniform(2, "a"), uniform(3, "b")
        s = Channel.stochastic(
            "s", a, b, {"a0": {"b0": 0.25, "b2": 0.75}, "a1": {"b1": 1.0}}
        )
        assert s.row("a0") == {"b0": 0.25, "b2": 0.75}
        assert s.row("a0").get("b2", 0.0) == 0.75
        assert s.row("a0").get("b1", 0.0) == 0.0
        f = Channel.deterministic("f", a, b, {"a0": "b2", "a1": "b0"})
        assert f.image_of("a0") == "b2"
        assert f.row("a1") == {"b0": 1.0}
        with pytest.raises(ValueError, match="stochastic"):
            s.image_of("a0")


class TestPushForward:
    def test_identity_preserves_distribution(self):
        a = uniform(5, "a")
        prior = Pmf({"a0": 0.5, "a1": 0.1, "a2": 0.1, "a3": 0.1, "a4": 0.2})
        out = push_forward(prior, identity(a))
        assert np.allclose(out.aligned_to(prior.ids), prior.vec)

    def test_constant_channel_degenerates(self):
        a, b = uniform(4, "a"), uniform(3, "b")
        const = Channel.deterministic("k", a, b, {x: "b1" for x in a.letter_ids})
        out = push_forward(a.pmf, const)
        assert out["b1"] == pytest.approx(1.0, abs=1e-12)
        assert out["b0"] == 0.0

    def test_matches_oracle_on_random_channels(self):
        rng = np.random.default_rng(20260816)
        for trial in range(100):
            src = builders.random_alphabet(rng, int(rng.integers(2, 13)), "s")
            dst = builders.random_alphabet(rng, int(rng.integers(2, 13)), "d")
            ch, rows = builders.random_channel(rng, src, dst)
            prior, prior_d = builders.random_prior(rng, src)
            got = dict(push_forward(prior, ch).items())
            assert oracles.close(got, oracles.push(prior_d, rows))

    def test_conserves_mass(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            src = builders.random_alphabet(rng, int(rng.integers(2, 33)), "s")
            dst = builders.random_alphabet(rng, int(rng.integers(2, 33)), "d")
            ch, _ = builders.random_channel(rng, src, dst)
            prior, _ = builders.random_prior(rng, src)
            assert abs(push_forward(prior, ch).mass() - 1.0) <= 1e-9

    def test_rejects_foreign_prior(self):
        a, b = uniform(2, "a"), uniform(2, "b")
        ch = identity(a)
        with pytest.raises(ValueError):
            push_forward(b.pmf, ch)


class TestQuantizer:
    def test_barchart_bin_occupancy(self):
        readings = make_quantized_range(0.0, 10000.0, 0.01, id="readings")
        bars = make_quantized_range(0, 1000, 1, id="bars")
        q = Channel.quantizer("plot", readings, bars, pixels=1001)
        counts = np.bincount(q.cols, minlength=1001)
        assert counts[0] == 500
        assert counts[1000] == 501
        assert (counts[1:1000] == 1000).all()

    def test_float_path_equals_integer_arithmetic(self):
        readings = make_quantized_range(0.0, 10000.0, 0.01, id="readings")
        bars = make_quantized_range(0, 1000, 1, id="bars")
        q = Channel.quantizer("plot", readings, bars, pixels=1001)
        k = np.arange(1_000_001, dtype=np.int64)
        assert (q.cols == (k + 500) // 1000).all()

    def test_halfway_values_round_up(self):
        # grid 0, 0.5, .., 2 onto 3 levels scales each value to itself, so
        # 0.5 and 1.5 sit exactly between levels and must round upward
        src = make_quantized_range(0, 2, 0.5, id="vals")
        dst = uniform(3, "px")
        q = Channel.quantizer("q", src, dst, pixels=3)
        assert [q.image_of(v) for v in src.letter_ids] == [
            "px0", "px1", "px1", "px2", "px2"
        ]

    def test_image_of_reads_the_level_runs(self):
        # the last and first letter of runs at both ends and in the middle of
        # barchart's plot channel, against the image of a fresh channel; the
        # image is not built
        plot = loads_scenario(exemplar("barchart").to_json()).channels["plot"]
        fresh = Channel.quantizer("q", plot.source, plot.target, 1001)
        starts = np.cumsum(plot.counts)[[0, 1, 2, 499, 500, 997, 998, 999]]
        for i in np.concatenate(([0], starts - 1, starts, [plot.source.n_letters - 1])):
            want = plot.target.letter_ids[int(fresh.cols[i])]
            assert plot.image_of(plot.source.letter_ids[int(i)]) == want
        assert plot._cols is None

    def test_image_of_makes_no_per_letter_array(self):
        # is_deterministic reads the first entry of the zero-stride vals;
        # comparing all 1,000,001 of them with 1.0 makes a 0.95 MiB bool array
        plot = loads_scenario(exemplar("barchart").to_json()).channels["plot"]
        tracemalloc.start()
        try:
            plot.image_of(500_000)
            assert plot.is_deterministic and "deterministic" in repr(plot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_single_pixel_collapses_everything(self):
        src = make_quantized_range(0, 9, 1, id="vals")
        dst = uniform(1, "px")
        q = Channel.quantizer("q", src, dst, pixels=1)
        assert set(q.cols.tolist()) == {0}

    def test_requires_grid_source_and_matching_target(self):
        plain = uniform(4, "a")
        px = uniform(4, "px")
        with pytest.raises(ValueError, match="numeric grid"):
            Channel.quantizer("q", plain, px, pixels=4)
        grid = make_quantized_range(0, 3, 1)
        with pytest.raises(ValueError, match="pixels"):
            Channel.quantizer("q", grid, px, pixels=5)


class TestBayesInverse:
    def test_injective_channel_inverts_exactly(self):
        a, b = uniform(4, "a"), uniform(4, "b")
        f = Channel.deterministic(
            "f", a, b, {"a0": "b2", "a1": "b0", "a2": "b3", "a3": "b1"}
        )
        r = bayes_inverse(f, a.pmf)
        assert r.row("b2") == {"a0": 1.0}
        assert r.row("b0") == {"a1": 1.0}
        assert r.row("b3") == {"a2": 1.0}
        assert r.row("b1") == {"a3": 1.0}

    def test_constant_channel_posterior_is_prior(self):
        a, b = uniform(3, "a"), uniform(2, "b")
        prior = Pmf({"a0": 0.6, "a1": 0.3, "a2": 0.1})
        const = Channel.deterministic("k", a, b, {x: "b0" for x in a.letter_ids})
        r = bayes_inverse(const, prior)
        assert oracles.close(r.row("b0"), dict(prior.items()))
        # the unreachable output's row falls back to the prior as well
        assert oracles.close(r.row("b1"), dict(prior.items()))

    def test_quantizer_bin_posterior_is_uniform_over_members(self):
        readings = make_quantized_range(0.0, 10000.0, 0.01, id="readings")
        bars = make_quantized_range(0, 1000, 1, id="bars")
        q = Channel.quantizer("plot", readings, bars, pixels=1001)
        r = bayes_inverse(q, readings.pmf)
        row = r.row(7)
        assert len(row) == 1000
        assert all(abs(p - 1e-3) <= 1e-15 for p in row.values())
        edge = r.row(0)
        assert len(edge) == 500
        assert all(abs(p - 1 / 500) <= 1e-15 for p in edge.values())

    def test_matches_oracle_on_random_channels(self):
        rng = np.random.default_rng(17)
        for trial in range(60):
            src = builders.random_alphabet(rng, int(rng.integers(2, 11)), "s")
            dst = builders.random_alphabet(rng, int(rng.integers(2, 11)), "d")
            ch, rows = builders.random_channel(rng, src, dst)
            prior, prior_d = builders.random_prior(rng, src)
            got = rows_of(bayes_inverse(ch, prior))
            want = oracles.bayes_rows(rows, prior_d, list(dst.letter_ids))
            for y in dst.letter_ids:
                assert oracles.close(got[y], want[y]), f"trial {trial}, row {y!r}"

    def test_refuses_oversized_derivations(self):
        n = 10_000
        big = make_quantized_range(0, n - 1, 1, id="big")
        ch = Channel.deterministic("all-to-0", big, big, {i: 0 for i in range(n)})
        assert n * n > MAX_DERIVED_NONZEROS
        with pytest.raises(ValueError, match="conditional entries"):
            bayes_inverse(ch, big.pmf)


def reference_distortion(prior, c):
    return kl_divergence(reconstructed_pmf(prior, c, bayes_inverse(c, prior)), prior)


class TestReconstruction:
    def test_bayes_round_trip_restores_prior(self):
        rng = np.random.default_rng(23)
        for trial in range(60):
            src = builders.random_alphabet(rng, int(rng.integers(2, 11)), "s")
            dst = builders.random_alphabet(rng, int(rng.integers(2, 11)), "d")
            ch, _ = builders.random_channel(rng, src, dst)
            prior, _ = builders.random_prior(rng, src)
            q = reconstructed_pmf(prior, ch, bayes_inverse(ch, prior))
            assert np.allclose(
                q.aligned_to(prior.ids), prior.vec, atol=1e-12
            )

    def test_round_trip_without_inverse_is_bit_identical(self):
        # criterion 6's channel shapes, every third one composed through a
        # middle alphabet; odd trials keep every prior letter. The pushed pmf
        # has push_forward's bits, and the distortion is the 60-digit
        # reference's, 0.0 through a map
        rng = np.random.default_rng(0x5EED06)
        for trial in range(300):
            src = builders.random_alphabet(rng, int(rng.integers(2, 49)), "s")
            dst = builders.random_alphabet(rng, int(rng.integers(1, 49)), "t")
            if trial % 3 == 2:
                mid = builders.random_alphabet(rng, int(rng.integers(1, 49)), "m")
                _, first = builders.random_channel(rng, src, mid)
                _, second = builders.random_channel(rng, mid, dst)
                rows = oracles.compose_rows(first, second)
                ch = Channel.stochastic("c", src, dst, rows)
            else:
                ch, rows = builders.random_channel(rng, src, dst)
            prior, prior_d = builders.random_prior(rng, src, allow_zeros=trial % 2 == 0)
            pushed, pd = builders.bayes_stage(prior, ch)
            assert oracles.bayes_distortion_agrees(pd, prior_d, rows), trial
            assert pd == 0.0 or not ch.is_deterministic, trial
            assert np.array_equal(pushed.vec, push_forward(prior, ch).vec), trial

    @pytest.mark.parametrize("kind", ["quantizer", "map", "near-one"])
    def test_one_entry_per_source_round_trip_is_bit_identical(self, kind):
        # priors with zeros, half of them -0.0; signbit pins that the
        # pushed pmf keeps the signs push_forward gives
        rng = np.random.default_rng(0x1E5)
        for trial in range(40):
            n = int(rng.integers(2, 41))
            if kind == "quantizer":
                src = make_quantized_range(0.0, 0.5 * (n - 1), 0.5, id="g")
                dst = Alphabet("px", range(int(rng.integers(1, 9))))
                ch = Channel.quantizer("q", src, dst, dst.n_letters)
            else:
                src = builders.random_alphabet(rng, n, "s", uniform=True)
                dst = builders.random_alphabet(rng, int(rng.integers(1, 9)), "t")
                ch, image = builders.random_deterministic(rng, src, dst)
                if kind == "near-one":
                    rows = {x: {y: 1.0 - 5e-10} for x, y in image.items()}
                    ch = Channel.stochastic("s", src, dst, rows)
            assert len(ch.rows) == src.n_letters
            vec = builders.random_weights(rng, n)
            vec[(vec == 0.0) & (np.arange(n) % 2 == 0)] = -0.0
            prior = Pmf.from_vector(src.letter_ids, vec)
            pushed, pd = builders.bayes_stage(prior, ch)
            want = push_forward(prior, ch).vec
            assert np.array_equal(pushed.vec, want), trial
            assert np.array_equal(np.signbit(pushed.vec), np.signbit(want)), trial
            prior_d = dict(zip(src.letter_ids, vec.tolist()))
            assert oracles.bayes_distortion_agrees(pd, prior_d, builders.rows_dict(ch)), trial
            if kind == "near-one":
                # rows that sum below 1 carry back less than the prior
                assert pd < 0.0, trial
            else:
                assert pd == 0.0 and math.copysign(1.0, pd) == 1.0, trial

    @pytest.mark.parametrize(
        "n_src, rows, cols, vals, scale, row_words",
        [
            # pushed [2/3, 1/3] is a pmf; row s0 sums to -0.5
            (3, None, [0, 0, 1], [-0.5, 2.5, 1.0], 1.0, True),
            # pushed [1/4, 3/4] is a pmf; row s0 sums to -0.5
            (2, [0, 1, 1], [0, 0, 1], [-0.5, 1.0, 1.5], 1.0, True),
            # prior and rows 8e-10 heavy: the pushed mass is off, reported first
            (4, None, [0, 0, 1, 1], [1.0 + 8e-10] * 4, 1.0 + 8e-10, False),
            # pushed [1, -1/4] is refused, though the reconstruction [1, 0] is a pmf
            (2, None, [0, 1], [2.0, -0.5], 1.0, False),
        ],
        ids=["map-negative", "stochastic-negative", "pushed-mass", "pushed-negative"],
    )
    def test_round_trip_checks_what_it_carries_back(
        self, n_src, rows, cols, vals, scale, row_words
    ):
        # channels built around the declared-row checks. A pushed pmf that
        # is not a pmf is refused first, in the words of the reference
        # computation; a row outside the tolerance then, in `_from_rows`'
        src, dst = uniform(n_src, "s"), uniform(2, "d")
        rows = None if rows is None else np.array(rows)
        ch = Channel("c", src, dst, rows, np.array(cols), np.array(vals))
        prior = Pmf.from_vector(src.letter_ids, np.full(n_src, scale / n_src))
        with pytest.raises(ValueError) as got:
            builders.bayes_stage(prior, ch)
        if row_words:
            assert str(got.value) == (
                f"channel 'c': row 's0' sums to -0.5 (expected 1 within {ROW_MASS_TOLERANCE})"
            )
            return
        with pytest.raises(ValueError) as expected:
            reference_distortion(prior, ch)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith("invalid pmf: ")

    def test_fixed_guess_degenerates(self):
        # four letters so the uniform prior's quarters sum to exactly 1.0
        a, b = uniform(4, "a"), uniform(2, "b")
        const = Channel.deterministic("k", a, b, {x: "b0" for x in a.letter_ids})
        guess = Channel.deterministic(
            "g", b, a, {"b0": "a1", "b1": "a1"}
        )
        q = reconstructed_pmf(a.pmf, const, guess)
        assert dict(q.items()) == {"a0": 0.0, "a1": 1.0, "a2": 0.0, "a3": 0.0}

    def test_biased_reconstruction_three_letters(self):
        a, b = uniform(3, "a"), uniform(1, "b")
        const = Channel.deterministic("k", a, b, {x: "b0" for x in a.letter_ids})
        biased = Channel.stochastic(
            "biased", b, a, {"b0": {"a0": 0.5, "a1": 0.25, "a2": 0.25}}
        )
        q = reconstructed_pmf(a.pmf, const, biased)
        assert oracles.close(dict(q.items()), {"a0": 0.5, "a1": 0.25, "a2": 0.25})
        pd = potential_distortion(a.pmf, const, biased)
        assert abs(pd - 0.08496250072115619) <= 1e-12

    def test_distortion_is_infinite_off_prior_support(self):
        a, b = uniform(2, "a"), uniform(1, "b")
        prior = Pmf({"a0": 1.0, "a1": 0.0})
        const = Channel.deterministic("k", a, b, {x: "b0" for x in a.letter_ids})
        guess = Channel.deterministic("g", b, a, {"b0": "a1"})
        pd = potential_distortion(prior, const, guess)
        assert math.isinf(pd) and pd > 0

    def test_rejects_mismatched_chain(self):
        a, b, c = uniform(2, "a"), uniform(2, "b"), uniform(2, "c")
        f = identity(a)
        wrong = identity(c)
        with pytest.raises(ValueError) as e:
            reconstructed_pmf(a.pmf, f, wrong)
        # in the words a Stage refuses the same pair in
        assert str(e.value) == "reconstruction 'identity(c)' is not oriented from 'a' back to 'a'"
        backwards = Channel.deterministic(
            "r", b, c, {"b0": "c0", "b1": "c1"}
        )
        with pytest.raises(ValueError) as e:
            reconstructed_pmf(a.pmf, f, backwards)
        assert str(e.value) == "reconstruction 'r' is not oriented from 'a' back to 'a'"


class TestCompression:
    def test_identity_compresses_nothing(self):
        a = uniform(8, "a")
        assert alphabet_compression(a.pmf, identity(a)) == 0.0

    def test_merge_compresses_one_bit(self):
        a, b = uniform(4, "a"), uniform(2, "b")
        f = Channel.deterministic(
            "f", a, b, {"a0": "b0", "a1": "b0", "a2": "b1", "a3": "b1"}
        )
        assert abs(alphabet_compression(a.pmf, f) - 1.0) <= 1e-12

    def test_fanout_goes_negative(self):
        one = uniform(1, "one")
        wide = uniform(1001, "wide")
        fan = Channel.stochastic(
            "fan", one, wide, {"one0": {y: 1 / 1001 for y in wide.letter_ids}}
        )
        ac = alphabet_compression(one.pmf, fan)
        assert abs(ac + math.log2(1001)) <= 1e-9

    def test_deterministic_never_negative(self):
        rng = np.random.default_rng(55)
        for trial in range(100):
            src = builders.random_alphabet(rng, int(rng.integers(2, 33)), "s")
            dst = builders.random_alphabet(rng, int(rng.integers(2, 33)), "d")
            ch, _ = builders.random_deterministic(rng, src, dst)
            prior, _ = builders.random_prior(rng, src)
            assert alphabet_compression(prior, ch) >= -1e-12
