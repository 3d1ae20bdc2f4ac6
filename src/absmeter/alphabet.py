"""Finite alphabets, probability mass functions, entropy, and divergence.

An alphabet is a finite ordered sequence of letter ids (datasets, rendered
images, task outcomes, ...) together with a probability mass function over
exactly those ids. All information quantities are measured in bits
(base-2 logarithm) with the convention 0 * log2(0) = 0. Divergence terms
with q > 0 against p = 0 yield positive infinity, which is an ordinary
result value here, not an error.

No per-letter objects are kept. An alphabet's pmf shares its id sequence,
and the pmf holds the one id-to-position index. An alphabet built from a
numeric grid (`make_quantized_range`) has the ids ``range(n)`` and keeps
only the grid's ``(lo, step, decimals)``; its ``values`` array is computed
on first read, and quantizing channels compute only the values they need,
without ever building it. Nothing keeps per-letter state; this is what
keeps exact summation over about a million letters fast.

A pmf's vector is read-only. A vector the package has just computed over
an alphabet's letters is kept without a copy, and those ids, distinct by
construction, are not checked again (`Pmf._of`); `Pmf.from_vector` refuses
repeated ids and copies a writeable array from a caller, so later writes to
it cannot reach the pmf. A uniform default pmf is one value: its vector is
a read-only zero-stride view of 1/n. Being immutable, a pmf computes its
entropy once and caches it.

Every sum over a pmf's letters (mass, entropy, divergence) is taken in one
order that the program fixes, whatever the machine's threads: the terms in
consecutive blocks of `_BLOCK`, numpy's pairwise `np.add.reduce` within a
block, and the block sums added left to right from 0.0 (`_ordered_sum`).
The terms are computed one block at a time, so no letter-length temporary
is made, and no BLAS call is made. Where every vector of a sum is
zero-stride (one value, as a uniform pmf is) there is one term: its block
sum is taken once and added up once per block, without visiting a letter.
`_ordered_sum` is the one place that knows this case; mass, entropy and
divergence only hand it their vectors. Every logarithm is taken in `_log2`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

LetterId = Union[str, int]

# A pmf is accepted when its total mass is within this of one.
MASS_TOLERANCE = 1e-9

# Pointwise probability comparisons use this tolerance unless stated.
POINTWISE_TOLERANCE = 1e-12

# Long vectors are worked through in blocks of this many entries, so that a
# block's temporaries stay in cache and no full-length temporary is made.
_BLOCK = 1 << 15


def _constant(value: float, n: int) -> np.ndarray:
    """Read-only length-``n`` view of one ``value``: zero stride, 8 bytes.

    What ``np.broadcast_to(value, n)`` gives, without its Python-level
    set-up.
    """
    vec = np.ndarray((n,), np.float64, np.array([value]), strides=(0,))
    vec.flags.writeable = False
    return vec


def _ordered_sum(block: Callable[[int, int], np.ndarray], *vecs: np.ndarray) -> float:
    """Sum of the terms of the letters of ``vecs`` in the package's one
    summation order.

    ``block(start, end)`` gives the terms of letters ``start .. end - 1`` of
    each run of `_BLOCK` in turn; each run is summed by numpy's pairwise
    `np.add.reduce` and the run sums are added left to right from 0.0. The
    result follows from the terms alone, not from threads or BLAS. When
    every vector is zero-stride, one value, every term is ``block(0, 1)``,
    and the sum of a full run is taken once.
    """
    n = len(vecs[0])
    # an empty vector has no term to repeat
    if n and all(v.strides == (0,) for v in vecs):
        run = _constant(block(0, 1)[0], min(n, _BLOCK))
        full, total = float(np.add.reduce(run)), 0.0
        for start in range(0, n, _BLOCK):
            total += full if n - start >= len(run) else float(np.add.reduce(run[: n - start]))
        return total
    if n <= _BLOCK:
        # one block: the loop's set-up costs more than the sum of a few terms
        return 0.0 + float(np.add.reduce(block(0, n)))
    total = 0.0
    for start in range(0, n, _BLOCK):
        total += float(np.add.reduce(block(start, min(start + _BLOCK, n))))
    return total


def _log2(
    x: np.ndarray, out: np.ndarray | None = None, where: np.ndarray | bool = True
) -> np.ndarray:
    """``log2(x)`` into ``out`` where ``where`` holds. Every logarithm the
    package takes is taken here."""
    # out is passed by position: as a keyword it adds about a third to the
    # cost of a call on a few letters
    return np.log2(x, out, where=where)


def _log_terms(q: np.ndarray, positive: bool, log_p: np.ndarray | None = None) -> np.ndarray:
    """``q * log2(q)``, or ``q * (log2(q) - log_p)`` when ``log_p`` is
    given, of one block, in a new array; 0.0 where q is 0. ``positive`` says
    that no q is 0."""
    if positive:
        where, out = True, np.empty(len(q))
    else:
        where, out = q > 0.0, np.zeros(len(q))
    _log2(q, out, where)
    if log_p is not None:
        np.subtract(out, log_p, out, where=where)
    return np.multiply(out, q, out, where=where)


class Pmf:
    """Probability mass function over an ordered collection of letter ids.

    Probabilities are stored as a dense float64 vector aligned with ``ids``.
    Construction records whatever it is given; `violations` reports problems
    and the numeric operations refuse to run on an invalid pmf. Instances
    are treated as immutable after construction, so `violations` records
    whether a valid pmf is strictly positive, and `entropy` caches its
    result on the pmf once `require_valid` has passed.
    """

    __slots__ = ("_ids", "_vec", "_index", "_checked", "_positive", "_entropy")

    def __init__(self, probabilities: Mapping[LetterId, float]):
        ids = tuple(probabilities.keys())
        self._fill(ids, np.fromiter(probabilities.values(), dtype=np.float64, count=len(ids)))

    def _fill(self, ids: Sequence[LetterId], vec: np.ndarray) -> None:
        """Set every slot: ``ids`` and ``vec``, made read-only, unchecked."""
        vec.flags.writeable = False
        self._ids = ids
        self._vec = vec
        self._index: dict[LetterId, int] | None = None
        self._checked = False
        self._positive = False
        self._entropy: float | None = None

    @classmethod
    def _of(cls, ids: Sequence[LetterId], vec: np.ndarray) -> Pmf:
        """A pmf over distinct ``ids`` with the package's own vector ``vec``,
        kept without a copy and made read-only."""
        self = cls.__new__(cls)
        self._fill(ids, vec)
        return self

    @classmethod
    def from_vector(cls, ids: Sequence[LetterId], vector: np.ndarray) -> Pmf:
        """Build a pmf from an id sequence and an aligned probability vector.

        Refuses ids that repeat. The id sequence is kept by reference (it
        may be a range), so shared sequences let later alignment checks
        succeed by identity instead of by element-wise comparison; its index,
        built to find repeats, serves later lookups. A read-only vector is
        kept as it is; a writeable one is copied.
        """
        if len(ids) != len(vector):
            raise ValueError(
                f"pmf vector has {len(vector)} entries for {len(ids)} letter ids"
            )
        vec = np.asarray(vector, dtype=np.float64)
        self = cls._of(ids, vec.copy() if vec.flags.writeable else vec)
        # ranges cannot repeat; only explicit id collections need the check
        if not isinstance(ids, range) and len(self._ensure_index()) != len(ids):
            raise ValueError("duplicate letter ids in pmf")
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

    def position(self, letter_id: LetterId) -> int | None:
        """Position of ``letter_id`` in `ids`, or None when it is not one."""
        ids = self._ids
        if isinstance(ids, range):
            if isinstance(letter_id, int) and not isinstance(letter_id, bool) and letter_id in ids:
                return (letter_id - ids.start) // ids.step
            return None
        index = self._index
        if index is None:
            index = self._ensure_index()
        return index.get(letter_id)

    def __getitem__(self, letter_id: LetterId) -> float:
        i = self.position(letter_id)
        if i is None:
            raise KeyError(letter_id)
        return float(self._vec[i])

    def __contains__(self, letter_id: LetterId) -> bool:
        return self.position(letter_id) is not None

    def items(self) -> Iterator[tuple[LetterId, float]]:
        for lid, p in zip(self._ids, self._vec):
            yield lid, float(p)

    def mass(self) -> float:
        vec = self._vec
        return _ordered_sum(lambda start, end: vec[start:end], vec)

    def violations(self) -> list[str]:
        """All ways this pmf fails to be a probability distribution.

        Only the masses are checked: every way of building a pmf refuses
        repeated ids (a mapping's keys, `from_vector`, `Alphabet`).
        A pmf found without problems is marked checked, so `require_valid`
        does not scan it again, and marked positive when no mass is zero.
        """
        problems: list[str] = []
        if len(self._ids) == 0:
            problems.append("pmf has no letters")
            return problems
        low = np.minimum.reduce(self._vec[:1] if self._vec.strides == (0,) else self._vec)
        # a NaN minimum also lands here; the mass check below reports it
        if not low >= 0.0:
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
        self._checked = not problems
        self._positive = self._checked and bool(low > 0.0)
        return problems

    def require_valid(self) -> None:
        if self._checked:
            return
        problems = self.violations()
        if problems:
            raise ValueError("invalid pmf: " + "; ".join(problems))

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


def _step_decimals(step: float) -> int:
    # smallest number of decimals that renders the grid step exactly
    s = step
    for d in range(13):
        if abs(s - round(s)) <= 1e-9 * max(1.0, abs(s)):
            return d
        s *= 10.0
    return 12


class Alphabet:
    """Ordered letter ids plus a pmf over exactly those ids.

    ``letter_ids`` is a tuple, or ``range(n)`` for a grid; ``values`` holds
    a grid's values, computed on first read, and is None otherwise. A given
    pmf is stored reordered to ``letter_ids``, so ``pmf.ids is letter_ids``
    always holds; a pmf over other ids is refused. Instances are treated as
    immutable after construction.
    """

    __slots__ = ("id", "letter_ids", "pmf", "_grid", "_values")

    def __init__(self, id: str, letter_ids: Iterable[LetterId], pmf: Pmf | None = None):
        if not isinstance(letter_ids, range):
            letter_ids = tuple(letter_ids)
        n = len(letter_ids)
        if not n:
            raise ValueError(f"alphabet '{id}' has no letters")
        if not isinstance(letter_ids, range) and len(set(letter_ids)) != n:
            raise ValueError(f"alphabet '{id}' has duplicate letter ids")
        if pmf is None:
            pmf = Pmf._of(letter_ids, _constant(1.0 / n, n))
        elif pmf.ids is not letter_ids:
            pmf = Pmf._of(letter_ids, pmf.aligned_to(letter_ids))
        self.id = id
        self.letter_ids: Sequence[LetterId] = letter_ids
        self.pmf = pmf
        self._grid: tuple[float, float, int] | None = None
        self._values: np.ndarray | None = None

    @property
    def values(self) -> np.ndarray | None:
        """A grid's values (read-only), or None when this is not a grid."""
        if self._grid is not None and self._values is None:
            values = _grid_values(self._grid, np.arange(len(self.letter_ids), dtype=np.float64))
            values.flags.writeable = False
            self._values = values
        return self._values

    @property
    def n_letters(self) -> int:
        return len(self.letter_ids)

    def index_of(self, letter_id: LetterId) -> int:
        i = self.pmf.position(letter_id)
        if i is None:
            raise KeyError(letter_id)
        return i

    def __repr__(self) -> str:
        return f"Alphabet({self.id!r}, letters={self.n_letters})"


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
    indices 0..n-1; ``values`` holds the grid rounded to the step's decimals,
    computed on first read.
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
    grid = Alphabet(id, range(n_steps + 1))
    grid._grid = (lo, step, _step_decimals(step))
    return grid


def _grid_values(grid: tuple[float, float, int], k: np.ndarray) -> np.ndarray:
    """Values lo + step * k, rounded, of the grid letters at the float
    positions ``k``, computed in ``k`` itself."""
    lo, step, decimals = grid
    np.multiply(k, step, out=k)
    np.add(k, lo, out=k)
    return np.round(k, decimals, out=k)


def entropy(a: Alphabet | Pmf) -> float:
    """Shannon entropy in bits: -sum p * log2 p over letters with p > 0.

    Computed by direct summation over the full alphabet, never sampled, in
    the order of `_ordered_sum`, once per pmf: the result is cached on the
    (immutable) pmf.
    """
    pmf = a.pmf if isinstance(a, Alphabet) else a
    pmf.require_valid()
    if pmf._entropy is None:
        v = pmf.vec
        total = _ordered_sum(lambda start, end: _log_terms(v[start:end], pmf._positive), v)
        # a one-letter pmf gives -1*log2(1) = -0.0; normalize the sign
        pmf._entropy = -total + 0.0
    return pmf._entropy


def kl_divergence(q: Pmf, p: Pmf) -> float:
    """Kullback-Leibler divergence D(q || p) in bits.

    Terms with q = 0 contribute nothing; any letter with q > 0 while p = 0
    makes the divergence positive infinity. Both pmfs must be over the same
    letter-id set (order may differ). The terms q (log2 q - log2 p) are
    computed one `_BLOCK` run at a time and summed by `_ordered_sum`; where
    q > 0 and p = 0, log2 p is -inf and the term +inf.
    """
    q.require_valid()
    p.require_valid()
    qv, pv = q.vec, p.aligned_to(q.ids)

    def block(start: int, end: int) -> np.ndarray:
        pb = pv[start:end]
        lp = np.empty(end - start) if p._positive else np.full(end - start, -math.inf)
        _log2(pb, lp, p._positive or pb > 0.0)
        # log difference, not log of ratio: q/p can overflow when p is denormal
        return _log_terms(qv[start:end], q._positive, lp)

    return _ordered_sum(block, qv, pv)
