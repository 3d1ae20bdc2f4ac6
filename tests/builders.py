"""Alphabets, priors and channels that the tests build.

`uniform` and `identity` are the fixed alphabets and channels many tests
start from. The seeded random builders return the package object together
with the plain-dict form the oracles consume, so each check runs the same
instance down both routes.
"""

import numpy as np

from absmeter import Alphabet, Channel, Pmf, Stage
from absmeter.costbenefit import _evaluate


def uniform(n, tag="x"):
    """Alphabet ``tag`` over the letters tag0..tag{n-1}, uniform by default."""
    return Alphabet(tag, [f"{tag}{i}" for i in range(n)])


def identity(alphabet):
    """Deterministic channel that maps every letter of ``alphabet`` to itself."""
    ids = alphabet.letter_ids
    return Channel.deterministic(
        f"identity({alphabet.id})", alphabet, alphabet, dict(zip(ids, ids))
    )


def bayes_stage(prior, channel):
    """The pushed pmf and the potential distortion of a Bayes stage over
    ``channel`` under ``prior``, as `analyze` evaluates them."""
    metrics, out = _evaluate(Stage(channel), prior)
    return out, metrics.potential_distortion


def rows_dict(channel):
    """``channel``'s rows as the oracles' plain dicts, from its entries."""
    rows = {x: {} for x in channel.source.letter_ids}
    src, dst = channel.source.letter_ids, channel.target.letter_ids
    for i, j, v in zip(channel.rows.tolist(), channel.cols.tolist(), channel.vals.tolist()):
        rows[src[i]][dst[j]] = v
    return rows


def random_weights(rng, n, allow_zeros=True):
    w = rng.random(n) + 1e-3
    if allow_zeros and n > 1 and rng.random() < 0.5:
        kill = rng.random(n) < 0.3
        if kill.all():
            kill[int(rng.integers(n))] = False
        w[kill] = 0.0
    return w / w.sum()


def random_alphabet(rng, n, tag, uniform=False):
    ids = tuple(f"{tag}{i}" for i in range(n))
    if uniform:
        return Alphabet(tag, ids)
    probs = random_weights(rng, n)
    return Alphabet(tag, ids, pmf=Pmf({lid: float(p) for lid, p in zip(ids, probs)}))


def random_prior(rng, alphabet, allow_zeros=True):
    probs = random_weights(rng, alphabet.n_letters, allow_zeros=allow_zeros)
    d = {lid: float(p) for lid, p in zip(alphabet.letter_ids, probs)}
    return Pmf(d), d


def random_deterministic(rng, src, dst, id="f"):
    ids = list(dst.letter_ids)
    image = {x: ids[int(rng.integers(len(ids)))] for x in src.letter_ids}
    return Channel.deterministic(id, src, dst, image), image


def random_stochastic(rng, src, dst, id="s"):
    ids = list(dst.letter_ids)
    rows = {}
    for x in src.letter_ids:
        w = rng.random(len(ids))
        w[rng.random(len(ids)) < 0.4] = 0.0
        if w.sum() == 0.0:
            w[int(rng.integers(len(ids)))] = 1.0
        w = w / w.sum()
        rows[x] = {y: float(p) for y, p in zip(ids, w) if p > 0.0}
    return Channel.stochastic(id, src, dst, rows), rows


def random_channel(rng, src, dst, id="c"):
    if rng.random() < 0.5:
        ch, image = random_deterministic(rng, src, dst, id)
        return ch, {x: {y: 1.0} for x, y in image.items()}
    return random_stochastic(rng, src, dst, id)
