"""Finite alphabets, probability mass functions, entropy, and divergence.

An alphabet is a finite ordered collection of letters (datasets, rendered
images, task outcomes, ...) together with a probability mass function over
exactly those letters. All information quantities are measured in bits
(base-2 logarithm) with the convention 0 * log2(0) = 0. Divergence terms
with q > 0 against p = 0 yield positive infinity, which is an ordinary
result value here, not an error.

Alphabets built from a numeric grid (`make_quantized_range`) keep their grid
values in a dense array so that quantizing channels can be constructed
without touching per-letter objects; this is what keeps exact summation over
about a million letters fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

LetterId = Union[str, int]

# A pmf is accepted when its total mass is within this of one.
MASS_TOLERANCE = 1e-9

# Pointwise probability comparisons use this tolerance unless stated.
POINTWISE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Letter:
    """One element of an alphabet: an opaque id plus an optional label."""

    id: LetterId
    label: str | None = None


class Pmf:
    """Probability mass function over an ordered collection of letter ids.

    Probabilities are stored as a dense float64 vector aligned with ``ids``.
    Construction records whatever it is given; `violations` reports problems
    and the numeric operations refuse to run on an invalid pmf. Instances
    are treated as immutable after construction.
    """

    __slots__ = ("_ids", "_vec", "_index", "_checked")

    def __init__(self, probabilities: Mapping[LetterId, float]):
        ids = tuple(probabilities.keys())
        vec = np.fromiter(probabilities.values(), dtype=np.float64, count=len(ids))
        vec.flags.writeable = False
        self._ids: Sequence[LetterId] = ids
        self._vec = vec
        self._index: dict[LetterId, int] | None = None
        self._checked = False

    @classmethod
    def from_vector(cls, ids: Sequence[LetterId], vector: np.ndarray) -> Pmf:
        """Build a pmf from an id sequence and an aligned probability vector.

        The id sequence is kept by reference (it may be a range), so shared
        sequences let later alignment checks succeed by identity instead of
        by element-wise comparison.
        """
        if len(ids) != len(vector):
            raise ValueError(
                f"pmf vector has {len(vector)} entries for {len(ids)} letter ids"
            )
        self = cls.__new__(cls)
        vec = np.asarray(vector, dtype=np.float64)
        if vec.flags.writeable:
            vec = vec.copy()
            vec.flags.writeable = False
        self._ids = ids
        self._vec = vec
        self._index = None
        self._checked = False
        return self

    @property
    def ids(self) -> Sequence[LetterId]:
        return self._ids

    @property
    def vec(self) -> np.ndarray:
        """Read-only probability vector aligned with `ids`."""
        return self._vec

    def __len__(self) -> int:
        return len(self._ids)

    def _ensure_index(self) -> dict[LetterId, int]:
        if self._index is None:
            self._index = {lid: i for i, lid in enumerate(self._ids)}
        return self._index

    def __getitem__(self, letter_id: LetterId) -> float:
        return float(self._vec[self._ensure_index()[letter_id]])

    def __contains__(self, letter_id: LetterId) -> bool:
        return letter_id in self._ensure_index()

    def items(self) -> Iterator[tuple[LetterId, float]]:
        for lid, p in zip(self._ids, self._vec):
            yield lid, float(p)

    def as_dict(self) -> dict[LetterId, float]:
        return dict(self.items())

    def mass(self) -> float:
        return float(self._vec.sum())

    def violations(self) -> list[str]:
        """All ways this pmf fails to be a probability distribution."""
        problems: list[str] = []
        if len(self._ids) == 0:
            problems.append("pmf has no letters")
            return problems
        # ranges cannot repeat; only explicit id collections need the check
        if not isinstance(self._ids, range) and len(self._ensure_index()) != len(self._ids):
            problems.append("duplicate letter ids in pmf")
        neg = np.flatnonzero(self._vec < 0.0)
        for i in neg[:8]:
            problems.append(
                f"letter {self._ids[int(i)]!r}: negative mass {float(self._vec[int(i)])!r}"
            )
        if len(neg) > 8:
            problems.append(f"{len(neg) - 8} further letters with negative mass")
        total = self.mass()
        if not math.isfinite(total) or abs(total - 1.0) > MASS_TOLERANCE:
            problems.append(
                f"mass sums to {total!r} (expected 1 within {MASS_TOLERANCE})"
            )
        return problems

    def require_valid(self) -> None:
        if self._checked:
            return
        problems = self.violations()
        if problems:
            raise ValueError("invalid pmf: " + "; ".join(problems))
        self._checked = True

    def aligned_to(self, ids: Sequence[LetterId]) -> np.ndarray:
        """Probability vector reordered to follow ``ids``.

        Raises ValueError when the id collections are not the same set.
        """
        if ids is self._ids:
            return self._vec
        if len(ids) != len(self._ids):
            raise ValueError(
                f"pmf is over {len(self._ids)} letters, expected {len(ids)}"
            )
        if type(ids) is type(self._ids) and ids == self._ids:
            return self._vec
        index = self._ensure_index()
        try:
            perm = np.fromiter((index[lid] for lid in ids), dtype=np.intp, count=len(ids))
        except KeyError as missing:
            raise ValueError(f"pmf has no letter {missing.args[0]!r}") from None
        return self._vec[perm]

    def __repr__(self) -> str:
        return f"Pmf(letters={len(self)}, mass={self.mass():.6f})"


def _label_decimals(step: float) -> int:
    # smallest number of decimals that renders the grid step exactly
    s = step
    for d in range(13):
        if abs(s - round(s)) <= 1e-9 * max(1.0, abs(s)):
            return d
        s *= 10.0
    return 12


class Alphabet:
    """Ordered letters plus a pmf over exactly those letters.

    Two construction paths exist. Explicit letters go through ``__init__``;
    numeric grids go through `make_quantized_range`, which stores integer
    letter ids (0..n-1) plus a value array and formats per-letter labels
    lazily. Instances are treated as immutable after construction.
    """

    __slots__ = ("id", "_ids", "_values", "_labels", "_decimals", "pmf", "_index", "_letters")

    def __init__(self, id: str, letters: Iterable[Letter], pmf: Pmf | None = None):
        letters = tuple(letters)
        if not letters:
            raise ValueError(f"alphabet '{id}' has no letters")
        ids = tuple(letter.id for letter in letters)
        if len(set(ids)) != len(ids):
            raise ValueError(f"alphabet '{id}' has duplicate letter ids")
        self.id = id
        self._ids: Sequence[LetterId] = ids
        self._values: np.ndarray | None = None
        self._labels = {letter.id: letter.label for letter in letters if letter.label is not None}
        self._decimals: int | None = None
        self._letters: tuple[Letter, ...] | None = letters
        self._index: dict[LetterId, int] | None = None
        if pmf is None:
            pmf = Pmf.from_vector(ids, np.full(len(ids), 1.0 / len(ids)))
        self.pmf = pmf

    @classmethod
    def _from_grid(cls, id: str, values: np.ndarray, decimals: int) -> Alphabet:
        self = cls.__new__(cls)
        self.id = id
        self._ids = range(len(values))
        values = np.asarray(values, dtype=np.float64)
        values.flags.writeable = False
        self._values = values
        self._labels = {}
        self._decimals = decimals
        self._letters = None
        self._index = None
        n = len(values)
        self.pmf = Pmf.from_vector(self._ids, np.full(n, 1.0 / n))
        return self

    @property
    def n_letters(self) -> int:
        return len(self._ids)

    @property
    def letter_ids(self) -> Sequence[LetterId]:
        return self._ids

    @property
    def values(self) -> np.ndarray | None:
        """Grid values for quantized-range alphabets, else None."""
        return self._values

    @property
    def letters(self) -> tuple[Letter, ...]:
        if self._letters is None:
            self._letters = tuple(
                Letter(i, self.label_of(i)) for i in self._ids
            )
        return self._letters

    def label_of(self, letter_id: LetterId) -> str | None:
        if self._values is not None:
            i = self.index_of(letter_id)
            return f"{self._values[i]:.{self._decimals}f}"
        return self._labels.get(letter_id)

    def has_letter(self, letter_id: LetterId) -> bool:
        ids = self._ids
        if isinstance(ids, range):
            return isinstance(letter_id, int) and not isinstance(letter_id, bool) and letter_id in ids
        if self._index is None:
            self._index = {lid: i for i, lid in enumerate(ids)}
        return letter_id in self._index

    def index_of(self, letter_id: LetterId) -> int:
        ids = self._ids
        if isinstance(ids, range):
            if isinstance(letter_id, int) and not isinstance(letter_id, bool) and letter_id in ids:
                return ids.index(letter_id)
            raise KeyError(letter_id)
        if self._index is None:
            self._index = {lid: i for i, lid in enumerate(ids)}
        return self._index[letter_id]

    def __repr__(self) -> str:
        return f"Alphabet({self.id!r}, letters={self.n_letters})"


def make_uniform(letters: Iterable[Letter], id: str = "uniform") -> Alphabet:
    """Alphabet over the given letters with equal mass on each."""
    return Alphabet(id, letters)


def make_quantized_range(
    lo: float,
    hi: float,
    step: float,
    id: str = "range",
    max_letters: int | None = None,
) -> Alphabet:
    """Uniform alphabet over the numeric grid lo, lo+step, ..., hi.

    The span (hi - lo) must be an integer multiple of step to within a
    relative 1e-6; the letter count is round((hi - lo) / step) + 1 and, when
    ``max_letters`` is given, may not exceed it. Letter ids are the grid
    indices 0..n-1 and each letter's label is its value rendered at the
    grid's precision.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise ValueError("grid bounds and step must be finite")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step!r}")
    if hi < lo:
        raise ValueError(f"grid needs hi >= lo, got lo={lo!r} hi={hi!r}")
    ratio = (hi - lo) / step
    if not math.isfinite(ratio):
        raise ValueError(f"span {hi - lo!r} over step {step!r} is not a finite count")
    n_steps = round(ratio)
    if max_letters is not None and n_steps + 1 > max_letters:
        raise ValueError(f"grid has more than the {max_letters} letters supported")
    if abs(ratio - n_steps) > 1e-6 * max(1.0, abs(ratio)):
        raise ValueError(
            f"span {hi - lo!r} is not an integer multiple of step {step!r}"
        )
    decimals = _label_decimals(step)
    values = np.round(lo + step * np.arange(n_steps + 1), decimals)
    return Alphabet._from_grid(id, values, decimals)


def entropy(a: Alphabet | Pmf) -> float:
    """Shannon entropy in bits: -sum p * log2 p over letters with p > 0.

    Computed by direct summation over the full alphabet, never sampled.
    """
    pmf = a.pmf if isinstance(a, Alphabet) else a
    pmf.require_valid()
    v = pmf.vec
    v = v[v > 0.0]
    if len(v) == 0:
        return 0.0
    h = -float(np.dot(v, np.log2(v)))
    # a one-letter pmf gives -1*log2(1) = -0.0; normalize the sign
    return h + 0.0


def kl_divergence(q: Pmf, p: Pmf) -> float:
    """Kullback-Leibler divergence D(q || p) in bits.

    Terms with q = 0 contribute nothing; any letter with q > 0 while p = 0
    makes the divergence positive infinity. Both pmfs must be over the same
    letter-id set (order may differ).
    """
    q.require_valid()
    p.require_valid()
    qv = q.vec
    pv = p.aligned_to(q.ids)
    support = qv > 0.0
    if np.any(pv[support] == 0.0):
        return math.inf
    qs = qv[support]
    # log difference, not log of ratio: q/p can overflow when p is denormal
    return float(np.dot(qs, np.log2(qs) - np.log2(pv[support])))


def validate(a: Alphabet) -> list[str]:
    """Collect every violation of the alphabet contract; empty means valid.

    Checks letter-id uniqueness, pmf key agreement, non-negative mass, and
    total mass within MASS_TOLERANCE of one. Never raises on bad content.
    """
    problems = list(a.pmf.violations())
    pmf_ids = a.pmf.ids
    alpha_ids = a.letter_ids
    same = pmf_ids is alpha_ids
    if not same:
        if len(pmf_ids) != len(alpha_ids):
            problems.append(
                f"pmf covers {len(pmf_ids)} letters, alphabet has {len(alpha_ids)}"
            )
        else:
            alpha_set = set(alpha_ids)
            extra = [lid for lid in pmf_ids if lid not in alpha_set]
            for lid in extra[:8]:
                problems.append(f"pmf key {lid!r} is not a letter of alphabet '{a.id}'")
            if len(extra) > 8:
                problems.append(f"{len(extra) - 8} further pmf keys are not letters")
            if not extra and len(set(pmf_ids)) != len(alpha_set):
                problems.append("pmf keys repeat letter ids")
    return problems
