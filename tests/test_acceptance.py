"""Acceptance suite: the package's headline guarantees, one test per criterion.

Each criterion records a PASS/FAIL line; the conftest hook prints the
collected lines after the run so the gate is readable at a glance.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import builders
from absmeter import (
    OverlappingAttributesError,
    Pipeline,
    Stage,
    TransitionKind,
    alphabet_compression,
    analyze,
    bayes_inverse,
    classify_transition,
    combine_space,
    compare_routes,
    exemplar,
    kl_divergence,
    load_scenario,
    pipeline_cost_benefit,
    potential_distortion,
)
from absmeter.alphabet import Pmf

RESULTS: list[str] = []


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        RESULTS.append(f"criterion {number:2d} FAIL - {description}")
        raise
    RESULTS.append(f"criterion {number:2d} PASS - {description}")


def stage_rows(scenario):
    return analyze(scenario).body["stages"]


class TestAcceptance:
    def test_01_barchart_entropies_and_runtime(self):
        with criterion(
            1, "barchart exemplar: exact entropies, compression, under a second"
        ):
            scenario = exemplar("barchart")
            started = time.perf_counter()
            report = analyze(scenario)
            elapsed = time.perf_counter() - started

            assert scenario.alphabets["readings"].n_letters == 1_000_001
            by_id = {a["id"]: a for a in report.body["alphabets"]}
            assert by_id["readings"]["entropy_bits"] == pytest.approx(
                19.9316, abs=1e-3
            )
            assert by_id["bars"]["entropy_bits"] == pytest.approx(9.967, abs=1e-2)
            plot = next(
                s for s in report.body["stages"] if s["stage"] == "plot-stage"
            )
            assert plot["alphabet_compression_bits"] == pytest.approx(
                9.965, abs=1e-2
            )
            assert elapsed < 1.0

    def test_02_lossless_and_noisy_plotters(self):
        with criterion(
            2, "integer plot compresses nothing; a random plotter loses bits"
        ):
            lossless = stage_rows(exemplar("integer-plot"))[0]
            assert abs(lossless["alphabet_compression_bits"]) <= 1e-12

            noisy = stage_rows(exemplar("random-plotter"))[0]
            assert noisy["alphabet_compression_bits"] < 0.0

    def test_03_figure_scores(self):
        with criterion(3, "figure scores come out 3,3,3,3,2,2,1,1 and 0"):
            scores = {j.id: j.score for j in exemplar("figure-scores").judgments}
            assert [scores[k] for k in "abcdefgh"] == [3, 3, 3, 3, 2, 2, 1, 1]
            assert scores["spreadsheet"] == 0

    def test_04_divergence_is_nonnegative_and_separates(self):
        with criterion(
            4, "KL divergence nonnegative over 1100 pairs, zero only at equality"
        ):
            rng = np.random.default_rng(0x5EED04)
            checked = 0
            for trial in range(1100):
                n = int(rng.integers(2, 65))
                alphabet = builders.random_alphabet(rng, n, f"d{trial}")
                p, p_dict = builders.random_prior(rng, alphabet, allow_zeros=False)
                if trial % 11 in (0, 1):
                    q_dict = dict(p_dict)  # identical pair
                elif trial % 11 in (2, 3):
                    # nudge one coordinate; differences stay far above 1e-12
                    q_dict = dict(p_dict)
                    lid = list(q_dict)[int(rng.integers(n))]
                    q_dict[lid] = q_dict[lid] + 1e-4
                    total = math.fsum(q_dict.values())
                    q_dict = {k: v / total for k, v in q_dict.items()}
                else:
                    _, q_dict = builders.random_prior(
                        rng, alphabet, allow_zeros=False
                    )
                q = Pmf({x: q_dict[x] for x in alphabet.letter_ids})

                kl = kl_divergence(q, p)
                assert kl >= -1e-12
                equal = all(
                    abs(q_dict[x] - p_dict[x]) <= 1e-12
                    for x in alphabet.letter_ids
                )
                assert (kl < 1e-12) == equal
                checked += 1
            assert checked >= 1000

    def test_05_deterministic_channels_never_expand(self):
        with criterion(
            5, "600 random deterministic channels: compression never negative"
        ):
            rng = np.random.default_rng(0x5EED05)
            for trial in range(600):
                n_in = int(rng.integers(2, 65))
                n_out = int(rng.integers(1, n_in + 1))
                src = builders.random_alphabet(rng, n_in, f"s{trial}")
                dst = builders.random_alphabet(rng, n_out, f"t{trial}")
                channel, _ = builders.random_deterministic(rng, src, dst)
                prior, _ = builders.random_prior(rng, src)
                assert alphabet_compression(prior, channel) >= -1e-12

    def test_06_bayes_reconstruction_is_faithful(self):
        with criterion(
            6, "250 random channels: posterior-weighted guessing recovers the prior"
        ):
            rng = np.random.default_rng(0x5EED06)
            for trial in range(250):
                n_in = int(rng.integers(2, 49))
                n_out = int(rng.integers(1, 49))
                src = builders.random_alphabet(rng, n_in, f"s{trial}")
                dst = builders.random_alphabet(rng, n_out, f"t{trial}")
                channel, _ = builders.random_channel(rng, src, dst)
                prior, _ = builders.random_prior(rng, src)
                recon = bayes_inverse(channel, prior)
                pd = potential_distortion(prior, channel, recon)
                assert pd <= 1e-9

    def test_07_compression_telescopes_along_pipelines(self):
        with criterion(
            7, "250 random pipelines: stage compressions sum to the end-to-end drop"
        ):
            rng = np.random.default_rng(0x5EED07)
            for trial in range(250):
                length = int(rng.integers(2, 6))
                sizes = [int(rng.integers(2, 65)) for _ in range(length + 1)]
                alphabets = [
                    builders.random_alphabet(rng, size, f"a{trial}x{i}")
                    for i, size in enumerate(sizes)
                ]
                stages = []
                for i in range(length):
                    channel, _ = builders.random_channel(
                        rng, alphabets[i], alphabets[i + 1], id=f"c{trial}x{i}"
                    )
                    stages.append(Stage(forward=channel, cost=1.0))
                prior, _ = builders.random_prior(rng, alphabets[0])
                pipeline = Pipeline(
                    stages=tuple(stages), prior=prior, id=f"p{trial}"
                )
                report = pipeline_cost_benefit(pipeline)
                total_ac = math.fsum(
                    m.alphabet_compression for m in report.stages
                )
                drop = report.input_entropy - report.output_entropy
                assert abs(total_ac - drop) <= 1e-9

    def test_08_route_comparison_fixtures(self, fixtures_dir):
        with criterion(
            8, "route fixtures: staged route wins when premises hold, flagged when not"
        ):
            def compared(name):
                scenario = load_scenario(fixtures_dir / name)
                route = next(iter(scenario.direct_routes.values()))
                return compare_routes(
                    scenario.pipelines[route.pipeline_id], route.stage
                )

            sound = compared("route_premises_hold.json")
            assert sound.premises_satisfied
            assert sound.pipeline_ratio > sound.direct_ratio
            assert sound.pipeline_preferred

            flagged = compared("route_cost_premise_violated.json")
            assert not flagged.cost_premise_holds
            assert not flagged.premises_satisfied
            # both ratios are still reported alongside the flag
            assert math.isfinite(flagged.pipeline_ratio)
            assert math.isfinite(flagged.direct_ratio)

    def test_09_molecular_axes_fixture(self, fixtures_dir):
        with criterion(
            9, "molecule axes: transition kinds, overlap rejection, ten-node axis"
        ):
            scenario = load_scenario(fixtures_dir / "molecular_axes.json")

            bond = scenario.axes["bond-structure"]
            assert (
                classify_transition(bond, 0) is TransitionKind.REMOVES_AND_ADDS
            )

            with pytest.raises(OverlappingAttributesError):
                combine_space([bond, scenario.axes["surface-probe"]])

            long_axis = scenario.axes["assembly-detail"]
            assert len(long_axis.nodes) == 10
            kinds = [classify_transition(long_axis, i) for i in range(9)]
            assert all(isinstance(k, TransitionKind) for k in kinds)

    def test_10_reports_are_byte_stable(self, fixtures_dir):
        with criterion(10, "repeated JSON analyses of every fixture byte-identical"):
            for path in sorted(fixtures_dir.glob("*.json")):
                args = [
                    sys.executable,
                    "-m",
                    "absmeter",
                    "analyze",
                    str(path),
                    "--format",
                    "json",
                ]
                first = subprocess.run(args, capture_output=True, timeout=120)
                second = subprocess.run(args, capture_output=True, timeout=120)
                assert first.returncode == second.returncode == 0
                assert first.stdout == second.stdout
                json.loads(first.stdout)  # and it is well-formed
