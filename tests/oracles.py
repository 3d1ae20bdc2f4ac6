"""Brute-force reference implementations the tests cross-check against.

Everything here works on plain dicts: a pmf is {letter: probability} and a
channel is {input_letter: {output_letter: probability}}. Plain loops,
math.fsum, and exact fractions with 60-digit decimals; nothing is shared
with the package under test.
"""

import decimal
import math
from fractions import Fraction


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


def _bayes_terms(prior, rows):
    """The terms p s ln s / ln 2 of sum_x p(x) s(x) log2 s(x), s(x) the
    exact sum of row x (a Fraction), in 60-digit decimals, one term per
    distinct row with the prior mass of its letters added up first."""
    mass = {}
    for x, px in prior.items():
        if px != 0.0:
            key = tuple(rows[x].values())
            mass[key] = mass.get(key, 0) + decimal.Decimal(px)
    terms = []
    for key, p in mass.items():
        s = sum(map(Fraction, key), Fraction(0))
        s = decimal.Decimal(s.numerator) / decimal.Decimal(s.denominator)
        terms.append(p * s * s.ln() / decimal.Decimal(2).ln())
    return terms


def bayes_distortion_bits(prior, rows):
    """The Bayes reconstruction's divergence from ``prior``, in bits, from
    the floats as declared: sum_x p(x) s(x) ln s(x) / ln 2, s(x) the sum of
    row x. Each row's sum is exact; the logarithms and the sum are taken to
    60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return float(sum(_bayes_terms(prior, rows), decimal.Decimal(0)))


def bayes_distortion_agrees(got, prior, rows, digits=13):
    """Whether ``got`` is `bayes_distortion_bits` of ``prior`` and ``rows``
    to ``digits`` significant digits of the sum of the terms' absolute
    values: a float sum of terms of either sign is accurate to that, not to
    its own value's digits. A sum of zeros must be 0.0."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        terms = _bayes_terms(prior, rows)
        want = float(sum(terms, decimal.Decimal(0)))
        scale = float(sum(map(abs, terms), decimal.Decimal(0)))
    return abs(got - want) <= 10.0**-digits * scale


def close(a, b, tol=1e-12):
    """Dict-of-floats comparison treating missing keys as zero."""
    for key in set(a) | set(b):
        if abs(a.get(key, 0.0) - b.get(key, 0.0)) > tol:
            return False
    return True
