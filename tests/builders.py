"""Seeded random alphabets, priors, and channels for the property tests.

Builders return the package object together with the plain-dict form the
oracles consume, so each check runs the same instance down both routes.
"""

import numpy as np

from absmeter import Alphabet, Channel, Letter, Pmf


def make_letters(n, tag):
    return [Letter(f"{tag}{i}") for i in range(n)]


def random_weights(rng, n, allow_zeros=True):
    w = rng.random(n) + 1e-3
    if allow_zeros and n > 1 and rng.random() < 0.5:
        kill = rng.random(n) < 0.3
        if kill.all():
            kill[int(rng.integers(n))] = False
        w[kill] = 0.0
    return w / w.sum()


def random_alphabet(rng, n, tag, uniform=False):
    ids = tuple(l.id for l in make_letters(n, tag))
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
