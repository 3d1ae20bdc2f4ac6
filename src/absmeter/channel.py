"""Transformation channels between alphabets and their information measures.

A forward channel carries a source alphabet onto a target alphabet, either
deterministically (a total letter-to-letter map) or stochastically (one
conditional pmf row per source letter). A reconstruction channel is the same
object oriented the other way: from observed outputs back to the inputs an
observer believes produced them.

Every channel, declared or derived, is stored as one sorted entry list: three
equal-length numpy arrays holding the source index (non-decreasing), the
target index (ascending within a source) and the conditional probability. A
deterministic channel is the case of one entry per source with value 1; its
``vals`` is a read-only zero-stride view of 1.0 (``np.broadcast_to``), so
callers must not assume ``vals`` is contiguous or writeable. With one entry
per source the entries are the sources in order: such a channel stores no
source index array, ``rows`` is built on first read, and the operations
skip the gather it would drive.
Declared channels are checked once, by one constructor per kind:
`_from_map` refuses a source left without an image, `quantizer` counts a
grid's level runs, and `_from_rows` checks on whole arrays that every
source has a row, no entry is negative and each row sums to one.
`Channel.deterministic`, `Channel.stochastic` and the scenario loader
resolve letters to positions in front of them.
Derived channels (Bayes inversions) may span alphabets far
larger than the declared-channel limits; listing only the entries a channel
can reach is what keeps the exact double summations tractable at that size.
The pmfs the operations return take their freshly computed vectors as they
are, marked read-only, without a copy, and their ids are an alphabet's
letters, which are not checked again. One forward pass, `_forward`, serves
`push_forward`, `bayes_inverse` and the Bayes round trip: its marginal is
added up by `np.add.at` into zeros, in entry order, and copies no input, so
a zero-stride prior or ``vals`` stays 8 bytes; over a constant joint (a
uniform prior through a deterministic channel) the marginal works per
entry count, from the channel's ``counts``, with the same bits. A
quantizer stores only ``counts``, the runs of its levels, and builds its
image ``cols`` from them on first read, which the closed form below never
makes; any other channel counts its ``cols`` on first read. When every
reached target of a constant joint carries back the same mass, the
reconstruction is one value at every letter, and the round trip sums its
mass and its potential distortion in closed form (`_constant_sum`, the
bits of the per-letter sums) without visiting a letter. Otherwise it
computes the reconstruction, 8 bytes per letter, and `kl_divergence` checks
it and takes its potential distortion, as it does for an explicit
reconstruction channel.

Measures:

    alphabet_compression(prior, c) = H(prior) - H(push_forward(prior, c))
    potential_distortion(prior, f, r) = D(reconstructed || prior)

both in bits; compression is signed and distortion may be +inf when the
reconstruction puts mass where the prior has none.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .alphabet import (
    _BLOCK,
    MASS_TOLERANCE,
    Alphabet,
    LetterId,
    Pmf,
    _constant,
    _constant_sum,
    _log2,
    _log_terms,
    _grid_values,
    entropy,
    kl_divergence,
)

# Declared channels keep exact summation desk-tractable within these bounds.
MAX_DETERMINISTIC_LETTERS = 2 ** 21
MAX_STOCHASTIC_LETTERS = 4096
# A declared stochastic channel lists at most this many entries (4096 x 256).
MAX_STOCHASTIC_ENTRIES = 2 ** 20

# Derived channels refuse to materialize beyond this many conditional entries.
MAX_DERIVED_NONZEROS = 2 ** 26

# A conditional row must sum to one within this.
ROW_MASS_TOLERANCE = 1e-9


def _same_letters(a: Alphabet, b: Alphabet) -> bool:
    if a is b:
        return True
    ia, ib = a.letter_ids, b.letter_ids
    if len(ia) != len(ib):
        return False
    if ia is ib or ia == ib:
        return True
    if type(ia) is not type(ib):
        return list(ia) == list(ib)
    return False


def _require_oriented(forward: Channel, recon: Channel) -> None:
    """Refuse ``recon`` unless it runs from ``forward``'s target back to its source."""
    if not _same_letters(recon.source, forward.target) or not _same_letters(
        recon.target, forward.source
    ):
        raise ValueError(
            f"reconstruction '{recon.id}' is not oriented from "
            f"'{forward.target.id}' back to '{forward.source.id}'"
        )


def _exact_positions(id: str, alphabet: Alphabet, letter_ids, what: str) -> list:
    """Positions of ``letter_ids`` in ``alphabet``; ``what`` names them when
    one is not a letter."""
    found = list(map(alphabet.pmf.position, letter_ids))
    if None in found:
        lid = list(letter_ids)[found.index(None)]
        raise ValueError(f"channel '{id}': {what} {lid!r} is not a letter of '{alphabet.id}'")
    return found


def _require_declared_size(
    id: str, kind: str, source: Alphabet, target: Alphabet, entries: int = 0
) -> None:
    """Refuse a declared channel beyond the letter limit of its ``kind``, or
    with more than `MAX_STOCHASTIC_ENTRIES` entries, before any array is built."""
    limit = MAX_STOCHASTIC_LETTERS if kind == "stochastic" else MAX_DETERMINISTIC_LETTERS
    if max(source.n_letters, target.n_letters) > limit:
        problem = f"{kind} channels allow at most {limit} letters per alphabet"
    elif entries > MAX_STOCHASTIC_ENTRIES:
        problem = f"{entries} conditional entries, more than the {MAX_STOCHASTIC_ENTRIES} supported"
    else:
        return
    raise ValueError(f"channel '{id}': {problem}")


class Channel:
    """Conditional distribution over target letters given a source letter.

    ``rows``, ``cols`` and ``vals`` are the entry list described in the
    module docstring; the constructor trusts them to be sorted and every
    source to have at least one entry. With one entry per source (``len(vals)
    == source.n_letters``) ``rows`` may be given as None: the entries are then
    the sources in order, and ``rows`` is built on first read. A channel is
    built from ``cols`` or, when each target's entries are one run (a
    quantizer's), from ``counts``, the number of entries of each target;
    the other is derived from it on first read.
    """

    __slots__ = ("id", "source", "target", "_rows", "_cols", "vals", "_counts")

    def __init__(
        self,
        id: str,
        source: Alphabet,
        target: Alphabet,
        rows: np.ndarray | None,
        cols: np.ndarray | None,
        vals: np.ndarray,
        counts: np.ndarray | None = None,
    ):
        self.id = id
        self.source = source
        self.target = target
        self._rows = rows
        self._cols = cols
        self.vals = vals
        self._counts = counts

    @property
    def rows(self) -> np.ndarray:
        """Source index of each entry."""
        if self._rows is None:
            self._rows = np.arange(len(self.vals), dtype=np.intp)
        return self._rows

    @property
    def cols(self) -> np.ndarray:
        """Target index of each entry."""
        if self._cols is None:
            self._cols = np.repeat(np.arange(self.target.n_letters, dtype=np.intp), self._counts)
        return self._cols

    @property
    def counts(self) -> np.ndarray:
        """Number of entries of each target."""
        if self._counts is None:
            self._counts = np.bincount(self._cols, None, self.target.n_letters)
        return self._counts

    # ---- constructors -------------------------------------------------

    @classmethod
    def _from_map(
        cls, id: str, source: Alphabet, target: Alphabet, sources, targets
    ) -> Channel:
        """Deterministic channel taking source position ``sources[j]`` to
        target position ``targets[j]``; the sources are distinct, and a
        source left out has no image."""
        _require_declared_size(id, "deterministic", source, target)
        n = source.n_letters
        if len(sources) < n:
            lid = source.letter_ids[int(np.setdiff1d(np.arange(n), sources)[0])]
            raise ValueError(f"channel '{id}': no image for source letter {lid!r}")
        image = np.empty(n, dtype=np.intp)
        image[sources] = targets
        return cls(id, source, target, None, image, _constant(1.0, n))

    @classmethod
    def _from_rows(
        cls, id: str, source: Alphabet, target: Alphabet, keys, sizes, cols, vals
    ) -> Channel:
        """Stochastic channel from declared rows: row r is source position
        ``keys[r]`` (distinct) and holds the next ``sizes[r]`` entries of
        ``cols`` (target positions, distinct within a row) and ``vals``.

        Every source needs a row, no probability may be negative and each row
        must sum to 1, checked on whole arrays. The first failing source is
        reported, a negative entry before its row's sum.
        """
        n_in, n_out = source.n_letters, target.n_letters
        rows = np.repeat(np.asarray(keys, dtype=np.intp), sizes)
        vals = np.array(vals, dtype=np.float64)
        sums = np.bincount(rows, weights=vals, minlength=n_in)
        declared = np.zeros(n_in, dtype=bool)
        declared[keys] = True
        bad = ~declared | ~(np.abs(sums - 1.0) <= ROW_MASS_TOLERANCE)
        bad[rows[vals < 0.0]] = True
        if bad.any():
            i = int(np.argmax(bad))
            lid = source.letter_ids[i]
            below = vals[(rows == i) & (vals < 0.0)]
            if not declared[i]:
                problem = f"no conditional row for source letter {lid!r}"
            elif len(below):
                problem = f"negative conditional probability {float(below[0])!r} in row {lid!r}"
            else:
                problem = (
                    f"row {lid!r} sums to {float(sums[i])!r} "
                    f"(expected 1 within {ROW_MASS_TOLERANCE})"
                )
            raise ValueError(f"channel '{id}': {problem}")
        key = rows * n_out + np.asarray(cols, dtype=np.intp)
        order = np.argsort(key)
        # + 0.0 turns a declared -0.0 into 0.0
        return cls(id, source, target, rows[order], key[order] % n_out, vals[order] + 0.0)

    @classmethod
    def deterministic(
        cls,
        id: str,
        source: Alphabet,
        target: Alphabet,
        mapping: Mapping[LetterId, LetterId],
    ) -> Channel:
        """Total letter-to-letter map; every source letter needs an image."""
        sources = _exact_positions(id, source, mapping, "map key")
        targets = _exact_positions(id, target, mapping.values(), "image")
        return cls._from_map(id, source, target, sources, targets)

    @classmethod
    def quantizer(cls, id: str, source: Alphabet, target: Alphabet, pixels: int) -> Channel:
        """Quantize a numeric grid source onto ``pixels`` discrete levels.

        Grid value v maps to level floor((v - lo) * (pixels - 1) / (hi - lo)
        + 1/2), i.e. proportional scaling with exact halves rounding up. The
        target alphabet must have exactly ``pixels`` letters; levels address
        its letters by position.
        """
        grid = source._grid
        if grid is None:
            raise ValueError(
                f"channel '{id}': quantizer needs a numeric grid source alphabet"
            )
        if pixels < 1:
            raise ValueError(f"channel '{id}': pixels must be >= 1, got {pixels}")
        if target.n_letters != pixels:
            raise ValueError(
                f"channel '{id}': target '{target.id}' has {target.n_letters} letters, "
                f"quantizer was declared with pixels={pixels}"
            )
        _require_declared_size(id, "deterministic", source, target)
        n = source.n_letters
        lo, hi = _grid_values(grid, np.array([0.0, n - 1.0])).tolist()
        if pixels == 1 or hi == lo:
            # every letter is at level 0
            at = np.full(pixels - 1, n, dtype=np.intp)
        else:
            scale = (pixels - 1) / (hi - lo)

            def level(k: np.ndarray) -> np.ndarray:
                v = _grid_values(grid, k.astype(np.float64))
                np.subtract(v, lo, out=v)
                np.multiply(v, scale, out=v)
                np.add(v, 0.5, out=v)
                return np.floor(v, out=v).astype(np.intp)

            # The level is monotone non-decreasing in the position: every
            # IEEE step of it (times step > 0, plus lo, rounding, minus lo,
            # times scale > 0, plus 0.5, floor) is. So each level's letters
            # are one run, which starts at the first letter at level l or
            # above. As level(0) = 0 < l and level(n - 1) = pixels - 1 >= l,
            # two stride ends bracket that letter, and log2(stride) rounds
            # bisect every bracket at once, keeping level(below) < l <=
            # level(at). Below n = 2 * pixels the stride, about
            # sqrt(n / pixels), is 1: every letter is evaluated once.
            stride = 1 << ((n // pixels).bit_length() // 2)
            ends = np.arange(0, n - 1 + stride, stride)
            ends[-1] = n - 1
            levels = np.arange(1, pixels)
            i = level(ends).searchsorted(levels)
            below, at = ends[i - 1], ends[i]
            for _ in range(stride.bit_length() - 1):
                mid = (below + at) // 2
                up = level(mid) >= levels
                np.copyto(at, mid, where=up)
                np.copyto(below, mid, where=~up)
        counts = np.diff(np.concatenate(([0], at, [n])))
        return cls(id, source, target, None, None, _constant(1.0, n), counts)

    @classmethod
    def stochastic(
        cls,
        id: str,
        source: Alphabet,
        target: Alphabet,
        rows: Mapping[LetterId, Mapping[LetterId, float]],
    ) -> Channel:
        """One conditional pmf row per source letter; unlisted targets get 0."""
        sizes = [len(row) for row in rows.values()]
        _require_declared_size(id, "stochastic", source, target, sum(sizes))
        keys = _exact_positions(id, source, rows, "row key")
        cols = []
        for lid, row in rows.items():
            cols += _exact_positions(id, target, row, f"row {lid!r}: target")
        vals = [p for row in rows.values() for p in row.values()]
        return cls._from_rows(id, source, target, keys, sizes, cols, vals)

    # ---- inspection ----------------------------------------------------

    @property
    def is_deterministic(self) -> bool:
        # every source has at least one entry, so n entries means one each
        return len(self.vals) == self.source.n_letters and bool(
            np.all(self.vals == 1.0)
        )

    def image_of(self, letter_id: LetterId) -> LetterId:
        if not self.is_deterministic:
            raise ValueError(f"channel '{self.id}' is stochastic")
        i = self.source.index_of(letter_id)
        return self.target.letter_ids[int(self.cols[i])]

    def row(self, letter_id: LetterId) -> dict[LetterId, float]:
        """Conditional distribution over target letters for one source letter."""
        i = self.source.index_of(letter_id)
        lo, hi = np.searchsorted(self.rows, (i, i + 1))
        out_ids = self.target.letter_ids
        return {
            out_ids[int(j)]: float(v)
            for j, v in zip(self.cols[lo:hi], self.vals[lo:hi])
        }

    def __repr__(self) -> str:
        kind = "deterministic" if self.is_deterministic else "stochastic"
        return (
            f"{type(self).__name__}({self.id!r}, {self.source.id!r} -> "
            f"{self.target.id!r}, {kind})"
        )


# ---- operations ---------------------------------------------------------


def _require_derived_size(total: int) -> None:
    if total > MAX_DERIVED_NONZEROS:
        raise ValueError(
            f"derived channel would need {total} conditional entries, "
            f"more than the {MAX_DERIVED_NONZEROS} supported"
        )


def _joint(pvec: np.ndarray, c: Channel) -> np.ndarray:
    """Joint mass ``pvec[c.rows] * c.vals`` of each entry of ``c``.

    With one entry per source and ``vals`` the zero-stride view of 1.0, the
    entries are the sources in order and the joint is ``pvec`` itself
    (x * 1.0 == x).
    """
    if len(c.vals) == c.source.n_letters and c.vals.strides == (0,) and c.vals[0] == 1.0:
        return pvec
    return pvec[c.rows] * c.vals


def _marginal(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Read-only sums of ``weights`` by ``index``, added in entry order from
    0.0, as `np.bincount` adds them but without its copy of the weights."""
    out = np.zeros(n)
    np.add.at(out, index, weights)
    out.flags.writeable = False
    return out


def _tally(counts: np.ndarray, w: float) -> tuple[np.ndarray, np.ndarray]:
    """The sums 0, w, w + w, ... up to the most of ``counts``, added left to
    right as `np.add.at` adds into zeros, and the read-only sum of ``counts[i]``
    entries of ``w`` for each i they give."""
    sums = np.empty(counts.max() + 1)
    sums.fill(w)
    sums[0] = 0.0
    sums = np.add.accumulate(sums)
    out = sums.take(counts)
    out.flags.writeable = False
    return sums, out


def _forward(prior: Pmf, c: Channel) -> tuple[np.ndarray, np.ndarray, Pmf, np.ndarray | None]:
    """The forward pass of a valid ``prior`` through ``c``: the prior's vector
    in source order, the joint mass of each entry, the pushed pmf and, for a
    zero-stride joint, the running sums of `_tally` (else None)."""
    prior.require_valid()
    pvec = prior.aligned_to(c.source.letter_ids)
    joint = _joint(pvec, c)
    if joint.strides == (0,):
        sums, marginal = _tally(c.counts, joint[0])
    else:
        sums, marginal = None, _marginal(c.cols, joint, c.target.n_letters)
    return pvec, joint, Pmf._of(c.target.letter_ids, marginal), sums


def push_forward(prior: Pmf, c: Channel) -> Pmf:
    """Distribution induced on the target by sending ``prior`` through ``c``.

    Mass is conserved exactly up to float rounding.
    """
    return _forward(prior, c)[2]


def bayes_inverse(c: Channel, prior: Pmf) -> Channel:
    """Posterior reconstruction channel of ``c`` under ``prior``.

    Row v carries P(d | v) = prior(d) c(v | d) / sum_d' prior(d') c(v | d').
    Target letters that receive no mass get the prior itself as their row,
    so the result is total over the target alphabet.
    """
    pvec, joint, pushed, _ = _forward(prior, c)
    reach = pushed.vec > 0.0
    keep = reach[c.cols]
    reached = c.cols[keep]
    support = np.flatnonzero(pvec > 0.0)
    unreached = np.flatnonzero(~reach)
    _require_derived_size(len(reached) + len(unreached) * len(support))
    rows = np.concatenate([reached, np.repeat(unreached, len(support))])
    cols = np.concatenate([c.rows[keep], np.tile(support, len(unreached))])
    vals = np.concatenate(
        [joint[keep] / pushed.vec[reached], np.tile(pvec[support], len(unreached))]
    )
    # a stable sort by target keeps each target's sources ascending
    by_row = np.argsort(rows, kind="stable")
    return Channel(
        f"bayes({c.id})", c.target, c.source, rows[by_row], cols[by_row], vals[by_row]
    )


def _bayes_round_trip(prior: Pmf, c: Channel) -> tuple[Pmf, float]:
    """``push_forward(prior, c)`` and the potential distortion
    ``kl_divergence(reconstructed_pmf(prior, c, bayes_inverse(c, prior)),
    prior)`` from one pass over the forward entries, without building the
    inverse.

    The joint masses and their marginal are computed once and serve both
    results. An entry carries back ``m * (joint / m)``, m its target's
    marginal, as the inverse's row does. Only reached targets carry observed
    mass back, so the inverse's prior rows for unreached targets contribute
    nothing; their entries here get weight zero, and adding zero changes at
    most the sign of a zero. The entries are added per source in ascending
    target order, as the inverse's rows add them, so the reconstruction is
    the same float for float, up to the sign of a zero, which reaches no
    sum.

    With one joint mass w for every entry (a uniform prior through a
    deterministic channel), an entry's carried-back mass follows from its
    target's entry count, and is computed once per count that occurs. When
    every such count gives one value v, the reconstruction is v at every
    letter: its sign check is ``v >= 0``, and its mass and divergence are n
    copies of v and of v's term, summed by `_constant_sum` in the order
    `_ordered_sum` sums the letters, so no letter is visited. This is the
    barchart's million-letter stage, where v is w and every term 0.0; its
    checks are those `kl_divergence` makes of a reconstruction it is given:
    no negative mass, and a total within `MASS_TOLERANCE` of one.
    Otherwise, and for every other channel, the carried-back masses are
    computed block by block into one array, 8 bytes per entry. With one
    entry per source (every deterministic channel) the entries are the
    sources in order and that array is the reconstruction; other channels
    add it up per source. `kl_divergence` checks the reconstruction and
    takes its divergence from the prior.
    """
    pvec, joint, pushed, sums = _forward(prior, c)
    # when the pushed pmf is not a pmf, that is the first fault to report
    pushed.require_valid()
    n = len(pvec)
    if sums is not None:
        # an entry of a target with j entries carries back v = (w / m) * m,
        # m = sums[j], by the ufuncs of the loop below: computed once for
        # each count j >= 1 that occurs. Distinct counts are few (k of them
        # add up to at least k(k+1)/2 letters): a set of their v is cheaper
        # than two reductions
        occurs = np.zeros(len(sums), dtype=bool)
        occurs[c.counts] = True
        occurs[0] = False
        mj = sums[occurs]
        v = np.multiply(np.divide(joint[:1], mj), mj)
        if len(set(v.tolist())) == 1:
            v = v[:1]
            if not (v[0] >= 0.0 and abs(_constant_sum(v, n) - 1.0) <= MASS_TOLERANCE):
                Pmf._of(c.source.letter_ids, _constant(float(v[0]), n)).require_valid()
            # the term of `kl_divergence`, v (log2 v - log2 w)
            return pushed, _constant_sum(_log_terms(v, np.empty(1), True, _log2(joint[:1])), n)
    # where m = 0 the division is skipped, and 0.0 times 0 is 0. cols index
    # the target, so "clip" clips nothing; it skips the copy "raise" makes
    back, m = np.zeros(len(joint)), np.empty(min(len(joint), _BLOCK))
    for start in range(0, len(joint), _BLOCK):
        out = back[start : start + _BLOCK]
        mb = pushed.vec.take(c.cols[start : start + len(out)], None, m[: len(out)], "clip")
        np.divide(joint[start : start + len(out)], mb, out, where=mb > 0.0)
        np.multiply(out, mb, out)
    # with one entry per source the entries are the sources in order
    q = back if len(c.vals) == n else _marginal(c.rows, back, n)
    return pushed, kl_divergence(Pmf._of(c.source.letter_ids, q), prior)


def reconstructed_pmf(prior: Pmf, forward: Channel, recon: Channel) -> Pmf:
    """Distribution an observer lands on after the round trip through
    ``forward`` and back through ``recon``:

        q(d) = sum_v [ sum_d' prior(d') forward(v | d') ] recon(d | v)

    defined over the forward channel's source letters.
    """
    _require_oriented(forward, recon)
    return _round_trip(prior, forward, recon)[1]


def _round_trip(prior: Pmf, forward: Channel, recon: Channel) -> tuple[Pmf, Pmf]:
    """``push_forward(prior, forward)`` and `reconstructed_pmf` of an
    oriented ``recon``, from one forward pass."""
    observed = push_forward(prior, forward)
    back = push_forward(observed, recon)
    return observed, Pmf._of(forward.source.letter_ids, back.vec)


def alphabet_compression(prior: Pmf, c: Channel) -> float:
    """Entropy removed by the channel: H(prior) - H(induced output), bits.

    Negative when the channel manufactures variation (for example a
    randomized renderer fanning one input out over many outputs).
    """
    return entropy(prior) - entropy(push_forward(prior, c))


def potential_distortion(
    prior: Pmf, forward: Channel, recon: Channel
) -> float:
    """Divergence of the reconstructed distribution from the prior, bits.

    +inf when reconstruction puts mass on letters the prior excludes.
    """
    return kl_divergence(reconstructed_pmf(prior, forward, recon), prior)
