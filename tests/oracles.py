"""Brute-force reference implementations the tests cross-check against.

Everything here works on plain dicts: a pmf is {letter: probability} and a
channel is {input_letter: {output_letter: probability}}. Plain loops and
math.fsum only; nothing is shared with the package under test.
"""

import math


def push(prior, rows):
    out = {}
    for x, px in prior.items():
        if px == 0.0:
            continue
        for y, pyx in rows[x].items():
            out[y] = out.get(y, 0.0) + px * pyx
    return out


def compose_rows(rows1, rows2):
    out = {}
    for x, row in rows1.items():
        acc = {}
        for m, pmx in row.items():
            for y, pym in rows2[m].items():
                acc[y] = acc.get(y, 0.0) + pmx * pym
        out[x] = acc
    return out


def bayes_rows(rows, prior, outputs):
    """Posterior rows {y: {x: P(x|y)}}; unreachable outputs fall back to
    the prior's support."""
    marginal = {y: 0.0 for y in outputs}
    joint = {y: {} for y in outputs}
    for x, px in prior.items():
        if px == 0.0:
            continue
        for y, pyx in rows[x].items():
            if pyx == 0.0:
                continue
            w = px * pyx
            marginal[y] += w
            joint[y][x] = joint[y].get(x, 0.0) + w
    out = {}
    fallback = {x: px for x, px in prior.items() if px > 0.0}
    for y in outputs:
        if marginal[y] > 0.0:
            out[y] = {x: w / marginal[y] for x, w in joint[y].items()}
        else:
            out[y] = dict(fallback)
    return out


def reconstructed(prior, forward_rows, recon_rows):
    return push(push(prior, forward_rows), recon_rows)


def entropy_bits(pmf):
    return -math.fsum(p * math.log2(p) for p in pmf.values() if p > 0.0)


def kl_bits(q, p):
    terms = []
    for letter, qv in q.items():
        if qv <= 0.0:
            continue
        pv = p.get(letter, 0.0)
        if pv <= 0.0:
            return math.inf
        # subtract logs; qv / pv overflows when pv is denormal
        terms.append(qv * (math.log2(qv) - math.log2(pv)))
    return math.fsum(terms)


def close(a, b, tol=1e-12):
    """Dict-of-floats comparison treating missing keys as zero."""
    for key in set(a) | set(b):
        if abs(a.get(key, 0.0) - b.get(key, 0.0)) > tol:
            return False
    return True
