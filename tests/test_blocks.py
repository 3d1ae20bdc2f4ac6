"""Blocked and strided kernels against whole-vector references, bit for bit.

Grid values, the one-entry-per-source Bayes round trip, entropy and the KL
divergence work through long vectors one block at a time; a quantizer finds
the first letter of each level by bracketing it between stride ends and
bisecting every bracket at once, stores its entries per target as the runs
those letters bound, and builds its image from the runs only when read.
Each is compared here with a whole-vector statement of what it computes, at
lengths around the block boundary and at the barchart's 1,000,001 letters,
with `np.array_equal` and equal sign bits. A sum's reference is the documented
order itself: every term first, then `np.add.reduce` over each `_BLOCK`
slice, the slice sums added in order from 0.0. A uniform prior whose round
trip carries one value back to every letter is summed in closed form; the
tests of that path also record which sums ran, so that a silent fall back to
the per-letter path cannot make a comparison vacuous.
"""

import math

import numpy as np
import pytest

import oracles
from absmeter import (
    Alphabet,
    Channel,
    Pmf,
    alphabet,
    analyze,
    bayes_inverse,
    channel,
    entropy,
    exemplar,
    kl_divergence,
    loads_scenario,
    make_quantized_range,
    push_forward,
)
from absmeter.alphabet import _BLOCK, _constant
from absmeter.channel import _bayes_round_trip, _tally

SIZES = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7, 1_000_001]

# (lo, step, decimals the grid rounds to); a step below 1e-9 rounds to whole
# numbers, so the last grid is all zeros
GRIDS = [(0.0, 0.01, 2), (-3.5, 0.25, 2), (7.0, 1.0, 0), (1e-3, 1e-7, 7), (0.0, 1e-12, 0)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def reference_values(lo, step, decimals, n):
    return np.round(np.arange(n, dtype=np.float64) * step + lo, decimals)


def grid(lo, step, n):
    return make_quantized_range(lo, lo + (n - 1) * step, step)


def prior_with_zeros(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.random(n)
    w[rng.random(n) < 0.2] = 0.0
    w[rng.random(n) < 0.1] = -0.0
    return w / w.sum()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("lo, step, decimals", GRIDS)
def test_grid_values(n, lo, step, decimals):
    values = grid(lo, step, n).values
    assert same_bits(values, reference_values(lo, step, decimals, n))
    assert not values.flags.writeable


# strides of 1 where n < 2 * pixels (every size at 1_000_001 pixels, the
# sizes around _BLOCK at 40_000): every letter is evaluated and nothing is
# bisected; of 2 to 512 letters otherwise, bisected in 1 to 9 rounds. The
# last stride is cut short unless the stride divides n - 1. The image is
# built from the counts, so both are compared with the formula's levels
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("lo, step, decimals", GRIDS)
@pytest.mark.parametrize("pixels", [1, 2, 3, 1001, 40_000, 1_000_001])
def test_quantizer_image(n, lo, step, decimals, pixels):
    source = grid(lo, step, n)
    target = make_quantized_range(0, pixels - 1, 1)
    c = Channel.quantizer("q", source, target, pixels)
    values = reference_values(lo, step, decimals, n)
    lo_v, hi_v = float(values[0]), float(values[-1])
    if pixels == 1 or hi_v == lo_v:
        expected = np.zeros(n, dtype=np.intp)
    else:
        scaled = (values - lo_v) * ((pixels - 1) / (hi_v - lo_v)) + 0.5
        expected = np.floor(scaled).astype(np.intp)
    assert c.cols.dtype == np.intp
    assert np.array_equal(c.cols, expected)
    # the runs that the first letters of the levels bound, in both special
    # branches too; a level that no letter takes (n < pixels) runs 0 letters
    assert np.array_equal(c.counts, np.bincount(expected, minlength=pixels))
    assert np.array_equal(c.rows, np.arange(n))
    # one entry per source: a read-only zero-stride view of 1.0
    assert c.vals.strides == (0,) and not c.vals.flags.writeable
    assert np.array_equal(c.vals, np.ones(n))


@pytest.mark.parametrize(
    "n, pixels", [(1_000_001, 1001), (3 * _BLOCK + 7, 3 * _BLOCK + 7)], ids=["barchart", "stride-1"]
)
def test_quantizer_level_evaluations(monkeypatch, n, pixels):
    # the level formula runs on the grid values of the positions it is given
    evaluated = []
    grid_values = channel._grid_values

    def counted(grid, k):
        evaluated.append(len(k))
        return grid_values(grid, k)

    monkeypatch.setattr(channel, "_grid_values", counted)
    Channel.quantizer("q", grid(0.0, 0.01, n), make_quantized_range(0, pixels - 1, 1), pixels)
    # the first call takes the grid's two ends, to find lo and hi
    assert evaluated[0] == 2
    levels = sum(evaluated[1:])
    # each letter once on a stride of 1; on the barchart, the 31,251 stride
    # ends and 5 rounds of 1,000 bisections
    assert levels == n if n < 2 * pixels else levels <= 40_000


def test_barchart_makes_no_long_bincount(monkeypatch):
    # the quantizer counts its level runs; only the 1,001-letter threshold
    # map is counted by np.bincount
    lengths = []
    bincount = np.bincount

    def counted(x, *args, **kwargs):
        lengths.append(len(x))
        return bincount(x, *args, **kwargs)

    text = exemplar("barchart").to_json()
    monkeypatch.setattr(np, "bincount", counted)
    analyze(loads_scenario(text))
    assert lengths and max(lengths) <= 2**16


@pytest.fixture
def blocks_visited(monkeypatch):
    """The length of every block of terms that a sum computes, in order; a
    sum over one value computes one term."""
    visited = []
    ordered_sum = alphabet._ordered_sum

    def counted(block, *vecs):
        def recorded(start, end):
            visited.append(end - start)
            return block(start, end)

        return ordered_sum(recorded, *vecs)

    monkeypatch.setattr(alphabet, "_ordered_sum", counted)
    return visited


def test_barchart_makes_no_per_letter_sum(blocks_visited):
    # the million-letter plot stage carries every letter back as one value,
    # so no sum of analyze visits a block of letters
    scenario = loads_scenario(exemplar("barchart").to_json())
    blocks_visited.clear()
    analyze(scenario)
    assert blocks_visited and max(blocks_visited) < _BLOCK


@pytest.mark.parametrize("n", SIZES)
def test_the_finest_grid_rounds_to_one_value(n):
    # so the quantizer test above reaches its hi == lo branch at every size
    assert np.ptp(grid(0.0, 1e-12, n).values) == 0.0


def reference_sum(terms):
    total = 0.0
    for start in range(0, len(terms), _BLOCK):
        total += float(np.add.reduce(terms[start : start + _BLOCK]))
    return total


def reference_entropy(v):
    terms = np.zeros(len(v))
    keep = v > 0.0
    terms[keep] = v[keep] * np.log2(v[keep])
    return -reference_sum(terms) + 0.0


def reference_kl(qv, pv):
    terms = np.zeros(len(qv))
    keep = qv > 0.0
    terms[keep] = qv[keep] * (np.log2(qv[keep]) - np.log2(pv[keep]))
    return reference_sum(terms)


def reference_round_trip(pvec, c):
    joint = pvec * np.ascontiguousarray(c.vals)
    marginal = np.bincount(c.cols, weights=joint, minlength=c.target.n_letters)
    m = marginal[c.cols]
    back = np.divide(joint, m, out=np.zeros_like(joint), where=m > 0.0)
    return marginal, back * m + 0.0


def quantizer_onto_1001(n, vals="ones-view"):
    source = make_quantized_range(0, n - 1, 1)
    target = make_quantized_range(0, 1000, 1)
    c = Channel.quantizer("q", source, target, 1001)
    if vals == "near-one":
        c = Channel("q", source, target, c.rows, c.cols, np.full(n, 1.0 - 2.0**-52))
    return c


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("vals", ["ones-view", "near-one"])
def test_one_entry_per_source_round_trip(n, vals):
    c = quantizer_onto_1001(n, vals)
    pvec = prior_with_zeros(n, seed=n)
    assert np.signbit(pvec[pvec == 0.0]).any()
    prior = Pmf.from_vector(c.source.letter_ids, pvec)
    out, pd = _bayes_round_trip(prior, c)
    marginal, q = reference_round_trip(pvec, c)
    assert same_bits(out.vec, marginal)
    assert same_bits(pd, kl_divergence(Pmf.from_vector(c.source.letter_ids, q), prior))


def pmf_pair(n, support):
    rng = np.random.default_rng(n)
    qv = rng.random(n) + (0.5 if support == "full" else 0.0)
    if support == "partial":
        qv[rng.random(n) < 0.3] = 0.0
        qv[rng.random(n) < 0.1] = -0.0
    qv /= qv.sum()
    pv = rng.random(n) + 1e-3
    pv /= pv.sum()
    return qv, pv


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("support", ["full", "partial"])
def test_kl_divergence(n, support):
    qv, pv = pmf_pair(n, support)
    ids = range(n)
    d = kl_divergence(Pmf.from_vector(ids, qv), Pmf.from_vector(ids, pv))
    assert same_bits(d, reference_kl(qv, pv))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("support", ["full", "partial"])
def test_entropy(n, support):
    qv, _ = pmf_pair(n, support)
    assert same_bits(entropy(Pmf.from_vector(range(n), qv)), reference_entropy(qv))


@pytest.mark.parametrize("n", [n for n in SIZES if n <= 3 * _BLOCK + 7])
@pytest.mark.parametrize("support", ["full", "partial"])
def test_sums_agree_with_the_oracles(n, support):
    qv, pv = pmf_pair(n, support)
    q, p = dict(enumerate(qv.tolist())), dict(enumerate(pv.tolist()))
    ids = range(n)
    qpmf, ppmf = Pmf.from_vector(ids, qv), Pmf.from_vector(ids, pv)
    assert abs(entropy(qpmf) - oracles.entropy_bits(q)) <= 1e-12
    assert abs(kl_divergence(qpmf, ppmf) - oracles.kl_bits(q, p)) <= 1e-12


# the per-target Bayes round trip takes log2 of one value once, where the
# per-letter path takes it of every letter of a block: it assumes that the
# bits of np.log2(x) do not depend on where x sits
LOG_LENGTHS = [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 1001, _BLOCK]
LOG_VALUES = [1.0, 0.5, 1 / 3, 1 / 1_000_001, 1 / 101, 1 - 2.0**-52, 1e-300, 5e-324, 0.7]


@pytest.mark.parametrize("length", LOG_LENGTHS)
def test_log2_of_a_value_does_not_depend_on_its_position(length):
    rng = np.random.default_rng(length)
    values = np.concatenate([LOG_VALUES, rng.random(32)])
    alone = [np.log2(np.array([x]))[0] for x in values]
    for x, bits in zip(values, alone):
        assert same_bits(np.log2(_constant(x, length)), np.full(length, bits))
        block = rng.random(length)
        for at in {0, 1 % length, length // 2, length - 1}:
            block[at] = x
            assert same_bits(np.log2(block)[at], bits)
            out = np.zeros(length)
            np.log2(block, out, where=block > 0.5 * x)
            assert same_bits(out[at], bits)


def one_entry_per_source(n, kind):
    """Deterministic channels from n letters: quantizers, and maps that leave
    targets unreached and reach the others in shuffled order."""
    source = make_quantized_range(0, n - 1, 1)
    if kind.startswith("quantizer-"):
        pixels = int(kind.split("-")[1])
        return Channel.quantizer("q", source, make_quantized_range(0, pixels - 1, 1), pixels)
    rng = np.random.default_rng(n)
    k = {"map-sparse": n // 2 + 5, "map-dense": 17}[kind]
    reached = rng.choice(k, size=min(k, max(1, n // 3)), replace=False)
    image = reached[rng.integers(0, len(reached), size=n)]
    target = make_quantized_range(0, k - 1, 1)
    return Channel._from_map("m", source, target, np.arange(n), image)


KINDS = ["quantizer-1", "quantizer-3", "quantizer-1001", "quantizer-40000", "map-sparse", "map-dense"]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", KINDS)
def test_counts(n, kind):
    c = one_entry_per_source(n, kind)
    assert same_bits(c.counts, np.bincount(c.cols, minlength=c.target.n_letters))


def test_an_empty_zero_stride_vector_sums_to_zero():
    empty = np.broadcast_to(0.5, 0)
    assert empty.strides == (0,)
    assert same_bits(Pmf.from_vector([], empty).mass(), 0.0)


@pytest.mark.parametrize("n", [101] + SIZES)
def test_uniform_pmf_is_one_value(blocks_visited, n):
    uniform = Alphabet("x", range(n)).pmf
    assert uniform.vec.strides == (0,) and not uniform.vec.flags.writeable
    dense = Pmf.from_vector(uniform.ids, np.full(n, 1 / n))
    assert same_bits(entropy(uniform), entropy(dense))
    assert same_bits(uniform.mass(), dense.mass())
    # one value against another: one term, summed without visiting a block
    # of letters. The value is far enough above 1/n for log2 to tell them
    # apart at every n, so the term is not 0.0
    value = (1 + 2.0**-40) / n
    q = Pmf.from_vector(uniform.ids, np.broadcast_to(value, n))
    dense_q = Pmf.from_vector(uniform.ids, np.full(n, value))
    assert q.vec.strides == (0,)
    blocks_visited.clear()
    d = kl_divergence(q, uniform)
    assert blocks_visited and set(blocks_visited) == {1}
    assert d != 0.0 and same_bits(d, kl_divergence(dense_q, dense))
    # one value against a dense prior: the per-letter path
    blocks_visited.clear()
    assert same_bits(kl_divergence(q, dense), d)
    assert max(blocks_visited) == min(n, _BLOCK)
    for kind in KINDS:
        c = one_entry_per_source(n, kind)
        assert same_bits(push_forward(uniform, c).vec, push_forward(dense, c).vec)
        (out, pd), (dense_out, dense_pd) = _bayes_round_trip(uniform, c), _bayes_round_trip(dense, c)
        assert same_bits(out.vec, dense_out.vec)
        assert same_bits(pd, dense_pd)
        # an unreached target gets the prior as its inverse row: keep those few
        unreached = c.target.n_letters - np.count_nonzero(out.vec)
        assert unreached > 0 or kind != "map-sparse"
        if n <= 3 * _BLOCK + 7 and unreached * n <= 2**16:
            inverse, dense_inverse = bayes_inverse(c, uniform), bayes_inverse(c, dense)
            for got, want in zip(
                (inverse.rows, inverse.cols, inverse.vals),
                (dense_inverse.rows, dense_inverse.cols, dense_inverse.vals),
            ):
                assert same_bits(got, want)


def nonzero_term_counts(n, most):
    """Entry counts j <= most for which an entry of the uniform prior 1/n,
    carried back through a target with j entries, gets a term other than 0.0."""
    w = 1 / n
    sums = np.add.accumulate(np.concatenate([[0.0], np.full(most, w)]))[1:]
    g = (w / sums) * sums
    return np.flatnonzero(g * (np.log2(g) - np.log2(np.array([w]))) != 0.0) + 1


@pytest.fixture
def sums_taken(monkeypatch):
    """The divergences the Bayes round trip takes, in order: ("closed", n)
    of a reconstruction that is one value at its n letters (a zero-stride
    vector), ("letters", n) of one that is summed letter by letter."""
    taken = []
    divergence = channel.kl_divergence

    def recorded(q, p):
        taken.append(("closed" if q.vec.strides == (0,) else "letters", len(p)))
        return divergence(q, p)

    monkeypatch.setattr(channel, "kl_divergence", recorded)
    return taken


def carried_back(n, counts):
    """The distinct masses that a uniform prior 1/n carries back through
    targets of the entry counts that occur in ``counts``."""
    w = 1 / n
    occurring = np.unique(counts[counts > 0])
    sums = np.add.accumulate(np.concatenate([[0.0], np.full(occurring.max(), w)]))[occurring]
    return set(((w / sums) * sums).tolist())


def uniform_and_dense(n):
    uniform = Alphabet("x", range(n)).pmf
    return uniform, Pmf.from_vector(uniform.ids, np.full(n, 1 / n))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", KINDS)
def test_uniform_round_trip_sums_one_value_in_closed_form(sums_taken, n, kind):
    # where every reached target carries back one value, the uniform prior's
    # reconstruction is that value at every letter, and its mass and
    # distortion are summed without visiting a letter; the dense prior's
    # per-letter result must have the same bits
    c = one_entry_per_source(n, kind)
    uniform, dense = uniform_and_dense(n)
    dense_out, dense_pd = _bayes_round_trip(dense, c)
    assert sums_taken == [("letters", n)]
    sums_taken.clear()
    out, pd = _bayes_round_trip(uniform, c)
    closed = len(carried_back(n, c.counts)) == 1
    # two shuffled maps onto 17 targets mix their values; the rest do not
    assert closed or kind == "map-dense"
    assert sums_taken == ([("closed", n)] if closed else [("letters", n)])
    assert same_bits(out.vec, dense_out.vec)
    assert same_bits(pd, dense_pd)


@pytest.mark.parametrize("start", [1000, _BLOCK + 1, 3 * _BLOCK])
def test_one_count_everywhere_carries_back_one_value_off_the_prior(sums_taken, start):
    # every target has the same entry count j, one that carries 1/n back as
    # a value one unit off it: the reconstruction is still one value, now
    # with a nonzero term at every letter
    n, j = next(
        (n, j) for n in range(start, start + 500) for j in nonzero_term_counts(n, 64) if n % j == 0
    )
    image = np.random.default_rng(n).permutation(np.repeat(np.arange(n // j), j))
    target = make_quantized_range(0, n // j - 1, 1)
    c = Channel._from_map("m", make_quantized_range(0, n - 1, 1), target, np.arange(n), image)
    uniform, dense = uniform_and_dense(n)
    (out, pd), (dense_out, dense_pd) = _bayes_round_trip(uniform, c), _bayes_round_trip(dense, c)
    assert sums_taken == [("closed", n), ("letters", n)]
    assert len(carried_back(n, c.counts)) == 1 and carried_back(n, c.counts) != {1 / n}
    assert pd != 0.0
    assert same_bits(out.vec, dense_out.vec)
    assert same_bits(pd, dense_pd)


@pytest.mark.parametrize("start", [1000, _BLOCK + 1, 3 * _BLOCK])
def test_uniform_round_trip_adds_its_terms_in_entry_order(sums_taken, start):
    # Through a deterministic channel a uniform prior comes back almost
    # exactly: most terms are 0.0, and the rest are tiny, from a target whose
    # entry count leaves (w / m) * m one unit off w. Targets whose counts mix
    # such counts with others, their entries shuffled, make the distortion's
    # bits follow the order in which its terms are added.
    n, hits = next((n, j) for n in range(start, start + 500) if len(j := nonzero_term_counts(n, 64)))
    uniform = Alphabet("x", range(n)).pmf
    dense = Pmf.from_vector(uniform.ids, np.full(n, 1 / n))
    for pattern in (list(hits[:3]) + [1], [hits[0], hits[0] - 1]):
        counts = np.resize(pattern, 2 * n)
        counts = counts[: np.searchsorted(np.cumsum(counts), n) + 1]
        counts[-1] -= counts.sum() - n
        image = np.random.default_rng(n).permutation(np.repeat(np.arange(len(counts)), counts))
        target = make_quantized_range(0, len(counts) - 1, 1)
        c = Channel._from_map("m", make_quantized_range(0, n - 1, 1), target, np.arange(n), image)
        sums_taken.clear()
        out, pd = _bayes_round_trip(uniform, c)
        # mixed values: no closed form, the uniform prior's distortion is
        # summed letter by letter as the dense prior's is
        assert sums_taken == [("letters", n)]
        dense_out, dense_pd = _bayes_round_trip(dense, c)
        assert pd != 0.0
        assert same_bits(out.vec, dense_out.vec)
        assert same_bits(pd, dense_pd)


@pytest.mark.parametrize("w", [1 / 3, 0.1, 1 / 1_000_001, 5e-324, 1e300, -0.0, -0.25, math.nan])
def test_equal_weights_add_up_as_add_at_adds(w):
    # counts of 0 to 5,000 entries per index, in shuffled entry order
    rng = np.random.default_rng(7)
    index = rng.permutation(np.repeat(np.arange(100), rng.integers(0, 5000, size=100)))
    expected = np.zeros(103)
    np.add.at(expected, index, np.full(len(index), w))
    got = _tally(np.bincount(index, None, 103), w)
    assert same_bits(got, expected) or (np.isnan(w) and np.array_equal(got, expected, equal_nan=True))
    assert not got.flags.writeable
