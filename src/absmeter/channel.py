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
callers must not assume ``vals`` is contiguous or writeable.
Derived channels (Bayes inversions, compositions) may span alphabets far
larger than the declared-channel limits; listing only the entries a channel
can reach is what keeps the exact double summations tractable at that size.
The pmfs the operations return take their freshly computed vectors as they
are, marked read-only, without a copy.

Measures:

    alphabet_compression(prior, c) = H(prior) - H(push_forward(prior, c))
    potential_distortion(prior, f, r) = D(reconstructed || prior)

both in bits; compression is signed and distortion may be +inf when the
reconstruction puts mass where the prior has none.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .alphabet import _BLOCK, Alphabet, LetterId, Pmf, _grid_values, entropy, kl_divergence

# Declared channels keep exact summation desk-tractable within these bounds.
MAX_DETERMINISTIC_LETTERS = 2 ** 21
MAX_STOCHASTIC_LETTERS = 4096

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


def _require_same_letters(a: Alphabet, b: Alphabet, context: str) -> None:
    if not _same_letters(a, b):
        raise ValueError(
            f"{context}: alphabet '{a.id}' and alphabet '{b.id}' do not share letters"
        )


class Channel:
    """Conditional distribution over target letters given a source letter.

    ``rows``, ``cols`` and ``vals`` are the entry list described in the
    module docstring; the constructor trusts them to be sorted and every
    source to have at least one entry.
    """

    __slots__ = ("id", "source", "target", "rows", "cols", "vals")

    def __init__(
        self,
        id: str,
        source: Alphabet,
        target: Alphabet,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ):
        self.id = id
        self.source = source
        self.target = target
        self.rows = rows
        self.cols = cols
        self.vals = vals

    # ---- constructors -------------------------------------------------

    @classmethod
    def _from_targets(
        cls, id: str, source: Alphabet, target: Alphabet, targets: np.ndarray
    ) -> Channel:
        n = len(targets)
        sources = np.arange(n, dtype=np.intp)
        # what np.broadcast_to(1.0, n) gives, without its Python-level set-up
        ones = np.ndarray((n,), np.float64, np.ones(1), strides=(0,))
        ones.flags.writeable = False
        return cls(id, source, target, sources, targets, ones)

    @classmethod
    def deterministic(
        cls,
        id: str,
        source: Alphabet,
        target: Alphabet,
        mapping: Mapping[LetterId, LetterId],
    ) -> Channel:
        """Total letter-to-letter map; every source letter needs an image."""
        n_in, n_out = source.n_letters, target.n_letters
        if max(n_in, n_out) > MAX_DETERMINISTIC_LETTERS:
            raise ValueError(
                f"channel '{id}': deterministic channels allow at most "
                f"{MAX_DETERMINISTIC_LETTERS} letters per alphabet"
            )
        for key in mapping:
            if not source.has_letter(key):
                raise ValueError(
                    f"channel '{id}': map key {key!r} is not a letter of '{source.id}'"
                )
        image = np.empty(n_in, dtype=np.intp)
        position = target.pmf.position
        for i, lid in enumerate(source.letter_ids):
            try:
                out = mapping[lid]
            except KeyError:
                raise ValueError(
                    f"channel '{id}': no image for source letter {lid!r}"
                ) from None
            k = position(out)
            if k is None:
                raise ValueError(
                    f"channel '{id}': image {out!r} of {lid!r} is not a letter of "
                    f"'{target.id}'"
                )
            image[i] = k
        return cls._from_targets(id, source, target, image)

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
        if max(source.n_letters, pixels) > MAX_DETERMINISTIC_LETTERS:
            raise ValueError(
                f"channel '{id}': deterministic channels allow at most "
                f"{MAX_DETERMINISTIC_LETTERS} letters per alphabet"
            )
        n = source.n_letters
        lo, hi = _grid_values(grid, np.array([0.0, n - 1.0])).tolist()
        if pixels == 1 or hi == lo:
            image = np.zeros(n, dtype=np.intp)
        else:
            # floor((v - lo) * scale + 0.5), one block of grid values at a time
            image = np.empty(n, dtype=np.intp)
            scale = (pixels - 1) / (hi - lo)
            for start in range(0, n, _BLOCK):
                end = min(start + _BLOCK, n)
                scaled = _grid_values(grid, np.arange(start, end, dtype=np.float64))
                np.subtract(scaled, lo, out=scaled)
                np.multiply(scaled, scale, out=scaled)
                np.add(scaled, 0.5, out=scaled)
                np.floor(scaled, out=image[start:end], casting="unsafe")
        return cls._from_targets(id, source, target, image)

    @classmethod
    def stochastic(
        cls,
        id: str,
        source: Alphabet,
        target: Alphabet,
        rows: Mapping[LetterId, Mapping[LetterId, float]],
    ) -> Channel:
        """One conditional pmf row per source letter; unlisted targets get 0."""
        n_in, n_out = source.n_letters, target.n_letters
        if max(n_in, n_out) > MAX_STOCHASTIC_LETTERS:
            raise ValueError(
                f"channel '{id}': stochastic channels allow at most "
                f"{MAX_STOCHASTIC_LETTERS} letters per alphabet"
            )
        for key in rows:
            if not source.has_letter(key):
                raise ValueError(
                    f"channel '{id}': row key {key!r} is not a letter of '{source.id}'"
                )
        sizes = np.zeros(n_in, dtype=np.intp)
        col_chunks: list[np.ndarray] = []
        val_chunks: list[np.ndarray] = []
        position = target.pmf.position
        for i, lid in enumerate(source.letter_ids):
            try:
                row = rows[lid]
            except KeyError:
                raise ValueError(
                    f"channel '{id}': no conditional row for source letter {lid!r}"
                ) from None
            cols = np.empty(len(row), dtype=np.intp)
            vals = np.empty(len(row), dtype=np.float64)
            for j, (out, p) in enumerate(row.items()):
                k = position(out)
                if k is None:
                    raise ValueError(
                        f"channel '{id}': row {lid!r} refers to {out!r}, not a letter "
                        f"of '{target.id}'"
                    )
                cols[j] = k
                p = float(p)
                if p < 0.0:
                    raise ValueError(
                        f"channel '{id}': negative conditional probability {p!r} "
                        f"in row {lid!r}"
                    )
                vals[j] = p
            total = float(vals.sum())
            if abs(total - 1.0) > ROW_MASS_TOLERANCE:
                raise ValueError(
                    f"channel '{id}': row {lid!r} sums to {total!r} "
                    f"(expected 1 within {ROW_MASS_TOLERANCE})"
                )
            sizes[i] = len(row)
            col_chunks.append(cols)
            val_chunks.append(vals)
        return cls(
            id,
            source,
            target,
            *_merge_entries(
                n_out,
                np.repeat(np.arange(n_in, dtype=np.intp), sizes),
                np.concatenate(col_chunks),
                np.concatenate(val_chunks),
            ),
        )

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


def _merge_entries(
    n_cols: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort entries by (row, col) and add up entries on the same pair, in
    their given order."""
    keys, where = np.unique(rows * n_cols + cols, return_inverse=True)
    summed = np.bincount(where, weights=vals, minlength=len(keys))
    return keys // n_cols, keys % n_cols, summed


def push_forward(prior: Pmf, c: Channel) -> Pmf:
    """Distribution induced on the target by sending ``prior`` through ``c``.

    Mass is conserved exactly up to float rounding.
    """
    prior.require_valid()
    pvec = prior.aligned_to(c.source.letter_ids)
    weights = pvec[c.rows] * c.vals
    out = np.bincount(c.cols, weights=weights, minlength=c.target.n_letters)
    out.flags.writeable = False
    return Pmf.from_vector(c.target.letter_ids, out)


def compose(c1: Channel, c2: Channel) -> Channel:
    """Channel equivalent to applying ``c1`` then ``c2``.

    Deterministic composed with deterministic stays deterministic; otherwise
    the result is deterministic only where every source lands on one target
    with probability exactly 1.
    """
    _require_same_letters(c1.target, c2.source, "compose")
    # each entry (i, j) of c1 meets every entry (j, k) of c2
    counts = np.bincount(c2.rows, minlength=c2.source.n_letters)
    fan = counts[c1.cols]
    total = int(fan.sum())
    _require_derived_size(total)
    first_of_row = np.cumsum(counts) - counts
    first_of_entry = np.cumsum(fan) - fan
    pick = np.repeat(first_of_row[c1.cols] - first_of_entry, fan) + np.arange(
        total, dtype=np.intp
    )
    entries = _merge_entries(
        c2.target.n_letters,
        np.repeat(c1.rows, fan),
        c2.cols[pick],
        np.repeat(c1.vals, fan) * c2.vals[pick],
    )
    return Channel(f"{c1.id}*{c2.id}", c1.source, c2.target, *entries)


def bayes_inverse(c: Channel, prior: Pmf) -> Channel:
    """Posterior reconstruction channel of ``c`` under ``prior``.

    Row v carries P(d | v) = prior(d) c(v | d) / sum_d' prior(d') c(v | d').
    Target letters that receive no mass get the prior itself as their row,
    so the result is total over the target alphabet.
    """
    prior.require_valid()
    pvec = prior.aligned_to(c.source.letter_ids)
    joint = pvec[c.rows] * c.vals
    marginal = np.bincount(c.cols, weights=joint, minlength=c.target.n_letters)
    reach = marginal > 0.0
    keep = reach[c.cols]
    reached = c.cols[keep]
    support = np.flatnonzero(pvec > 0.0)
    unreached = np.flatnonzero(~reach)
    _require_derived_size(len(reached) + len(unreached) * len(support))
    rows = np.concatenate([reached, np.repeat(unreached, len(support))])
    cols = np.concatenate([c.rows[keep], np.tile(support, len(unreached))])
    vals = np.concatenate(
        [joint[keep] / marginal[reached], np.tile(pvec[support], len(unreached))]
    )
    # a stable sort by target keeps each target's sources ascending
    by_row = np.argsort(rows, kind="stable")
    return Channel(
        f"bayes({c.id})", c.target, c.source, rows[by_row], cols[by_row], vals[by_row]
    )


def _bayes_round_trip(prior: Pmf, c: Channel) -> tuple[Pmf, Pmf]:
    """``push_forward(prior, c)`` and ``reconstructed_pmf(prior, c,
    bayes_inverse(c, prior))`` from one pass over the forward entries,
    without building the inverse.

    The joint masses and their marginal are computed once and serve both
    results. Only reached targets carry observed mass back, so the inverse's
    prior rows for unreached targets contribute nothing; their entries here
    get weight zero, and adding zero leaves each non-negative sum as it was.
    The terms are added per source in ascending target order, as the
    inverse's rows add them, so both results are the same float for float.
    With one entry per source (every deterministic channel) the entries are
    the sources in order, so the gather and the per-source sum drop out, and
    with ``vals`` the zero-stride view of 1.0 the joint is the prior itself
    (x * 1.0 == x). ``+ 0.0`` turns a -0.0 into 0.0 as summing from zero
    does. The marginal is gathered back one block at a time.
    """
    prior.require_valid()
    pvec = prior.aligned_to(c.source.letter_ids)
    one_per_source = len(c.rows) == c.source.n_letters
    if one_per_source and c.vals.strides == (0,) and c.vals[0] == 1.0:
        joint = pvec
    else:
        joint = (pvec if one_per_source else pvec[c.rows]) * c.vals
    marginal = np.bincount(c.cols, weights=joint, minlength=c.target.n_letters)
    # m * (joint / m) rather than joint: the inverse stores joint / m
    back = np.zeros(len(joint))
    m = np.empty(min(len(joint), _BLOCK))
    for start in range(0, len(joint), _BLOCK):
        end = start + _BLOCK
        cols = c.cols[start:end]
        # cols index the target, so "clip" clips nothing; it skips the copy "raise" makes
        mb = np.take(marginal, cols, out=m[: len(cols)], mode="clip")
        out = back[start:end]
        np.divide(joint[start:end], mb, out=out, where=mb > 0.0)
        np.multiply(out, mb, out=out)
        np.add(out, 0.0, out=out)
    if one_per_source:
        q = back
    else:
        q = np.bincount(c.rows, weights=back, minlength=c.source.n_letters)
    marginal.flags.writeable = False
    q.flags.writeable = False
    return (
        Pmf.from_vector(c.target.letter_ids, marginal),
        Pmf.from_vector(c.source.letter_ids, q),
    )


def reconstructed_pmf(prior: Pmf, forward: Channel, recon: Channel) -> Pmf:
    """Distribution an observer lands on after the round trip through
    ``forward`` and back through ``recon``:

        q(d) = sum_v [ sum_d' prior(d') forward(v | d') ] recon(d | v)

    defined over the forward channel's source letters.
    """
    _require_same_letters(forward.target, recon.source, "reconstruction")
    _require_same_letters(forward.source, recon.target, "reconstruction")
    observed = push_forward(prior, forward)
    back = push_forward(observed, recon)
    return Pmf.from_vector(forward.source.letter_ids, back.vec)


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
