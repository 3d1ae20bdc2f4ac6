"""Scenario files: declarative JSON for a whole analysis.

A scenario declares alphabets, channels, stages, pipelines, direct routes,
judgments, and axes, and is fully validated at load time. Validation errors
carry the JSON path of the offending element ("channels[0].from") so files
can be fixed without reading a stack trace. Loaded scenarios keep their
normalized declaration, so serializing and reloading is the identity on the
validated structure.

One helper states each check: `_open` (object and keys), `_get` (typed
field), `_ref` (reference by id), `_one_of`, `_choice` (enum value) and `_at`
(a constructor's ValueError at a path); the `_build_*` functions combine them.
`_by_position` resolves the keys of a JSON object that name letters (map
keys, row keys, row entries, prior keys) and checks its values in bulk, with
`map`, `set` and `dict.get` over whole objects: `_positions` places the
keys, and `_numbers`, `_objects` or `_letters` checks the values. Values
that fail the bulk check are checked one at a time, by `_as_number` or
`_as_obj`, to report the first bad one in its words.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import add
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from .alphabet import Alphabet, LetterId, Pmf, entropy, make_quantized_range
from .axis import AbstractionAxis, NodeKind, RepresentationNode
from .channel import MAX_DETERMINISTIC_LETTERS, Channel, _require_declared_size
from .costbenefit import BAYES, Pipeline, Stage, _require_same_ends
from .judgment import (
    AbstractionJudgment,
    ConditionB,
    PointOfView,
    TaskAction,
    TaskTarget,
    abstraction_score,
)

# Grid-backed axis nodes must state information within this of the
# referenced alphabet's entropy.
NODE_INFORMATION_TOLERANCE = 1e-9

_TOP_KEYS = (
    "alphabets",
    "channels",
    "stages",
    "pipelines",
    "direct_routes",
    "judgments",
    "axes",
    "meta",
)


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate; `path` points at the
    offending JSON element."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _fail(path: str, message: str) -> None:
    raise ScenarioError(path, message)


def _as_obj(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {type(value).__name__}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, f"expected a non-empty string, got {value!r}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected true or false, got {value!r}")
    return value


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        number = math.inf
    if not math.isfinite(number):
        _fail(path, f"expected a finite number, got {value!r}")
    return number


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _open(decl: Any, path: str, required: tuple, optional: tuple = ()) -> dict:
    """``decl`` as an object with every ``required`` key and no keys but those and ``optional``."""
    decl = _as_obj(decl, path)
    for key in required:
        if key not in decl:
            _fail(path, f"missing required key '{key}'")
    for key in decl:
        if key not in required and key not in optional:
            _fail(f"{path}.{key}", "unknown key")
    return decl


def _get(decl: dict, key: str, path: str, as_type: Callable, default: Any = None) -> Any:
    """``as_type(decl[key], "path.key")``, or ``default`` when ``decl`` has no ``key``."""
    if key not in decl:
        return default
    return as_type(decl[key], f"{path}.{key}")


def _ref(decl: dict | list, key: str | int, path: str, table: dict, noun: str) -> Any:
    """The element of ``table`` whose id ``decl[key]`` names. The path is
    ``path.key``, or ``path[key]`` for a list index."""
    where = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"
    ref = _as_str(decl[key], where)
    if ref not in table:
        _fail(where, f"unknown {noun} '{ref}'")
    return table[ref]


def _one_of(decl: dict, path: str, keys: tuple) -> str:
    """The one key of ``keys`` that ``decl`` has."""
    present = [key for key in keys if key in decl]
    if len(present) != 1:
        names = (" or " if len(keys) == 2 else ", ").join(f"'{key}'" for key in keys)
        _fail(path, f"needs exactly one of {names}")
    return present[0]


def _choice(enum: type, decl: dict, key: str, path: str, noun: str, expected: str = "") -> Any:
    """The member of ``enum`` whose value ``decl[key]`` is. A failure lists
    ``expected``, by default every value of ``enum``."""
    value = _get(decl, key, path, _as_str)
    try:
        return enum(value)
    except ValueError:
        expected = expected or f"one of {', '.join(member.value for member in enum)}"
        _fail(f"{path}.{key}", f"unknown {noun} {value!r} (expected {expected})")


class _at:
    """Report a constructor's ValueError as a ScenarioError at ``path``."""

    def __init__(self, path: str):
        self.path = path

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind: type | None, error: BaseException | None, trace: Any) -> None:
        if isinstance(error, ValueError) and not isinstance(error, ScenarioError):
            _fail(self.path, str(error))


def _require_pmf(pmf: Pmf, path: str) -> None:
    """A declared ``pmf`` that is not a probability distribution fails at ``path``."""
    problems = pmf.violations()
    if problems:
        _fail(path, "; ".join(problems))


def _integer(key: Any) -> int | None:
    """``int(key)``, or None where ``int`` refuses ``key``."""
    try:
        return int(key)
    except (TypeError, ValueError):
        return None


def _not_a_letter(key: Any, alphabet: Alphabet) -> str:
    return f"{key!r} is not a letter of alphabet '{alphabet.id}'"


def _positions(alphabet: Alphabet, keys: list, types: set) -> list:
    """Position in ``alphabet`` of the letter each of ``keys`` (whose types
    are ``types``) names, or None.

    A string or integer key names a letter by its id or, as JSON object keys
    are strings even where an alphabet uses integer ids, by ``int`` of a
    string key or ``str`` of an integer one. A grid's ids are the integers of
    a range, so its keys are placed by arithmetic on their ``int``: when the
    range is ``range(n)`` and every key is in it, the position is the key.
    """
    if types - {str, int}:
        keys = [
            key if isinstance(key, (str, int)) and not isinstance(key, bool) else None
            for key in keys
        ]
    ids = alphabet.letter_ids
    if isinstance(ids, range):
        try:
            found = list(map(int, keys))
            if ids == range(len(ids)) and 0 <= min(found) and max(found) < len(ids):
                return found
        except (TypeError, ValueError):  # some key names no letter, or none is given
            pass
        numbers = map(_integer, keys)
        return [None if k is None or k not in ids else ids.index(k) for k in numbers]
    get = alphabet.pmf._ensure_index().get
    found = list(map(get, keys))
    if None in found:
        found = [
            get(str(key) if isinstance(key, int) else _integer(key)) if k is None else k
            for k, key in zip(found, keys)
        ]
    return found


def _numbers(values: list, where: Callable[[int], str]) -> list:
    """``values`` as floats; the first that is not a finite number fails at
    ``where(i)``."""
    if set(map(type, values)) <= {int, float}:
        try:
            numbers = list(map(float, values))
        except OverflowError:  # an integer beyond float range
            numbers = [math.inf]
        if all(map(math.isfinite, numbers)):
            return numbers
    return [_as_number(value, where(i)) for i, value in enumerate(values)]


def _objects(values: list, where: Callable[[int], str]) -> list:
    """``values``; the first that is not an object fails at ``where(i)``."""
    if set(map(type, values)) <= {dict}:
        return values
    return [_as_obj(value, where(i)) for i, value in enumerate(values)]


def _letters(alphabet: Alphabet) -> Callable[[list, Callable[[int], str]], list]:
    """``value_of`` for `_by_position` giving the positions in ``alphabet``
    of the letters that values name."""

    def positions(values: list, where: Callable[[int], str]) -> list:
        found = _positions(alphabet, values, set(map(type, values)))
        if None in found:
            i = found.index(None)
            _fail(where(i), _not_a_letter(values[i], alphabet))
        return found

    return positions


def _mixed_key(keys: list, sizes: list) -> tuple[int, Any]:
    """Index of the first of ``keys`` (objects of ``sizes`` keys, one after
    another) whose type is not its object's first key's, and that first key;
    ``(len(keys), None)`` where each object's keys share one type."""
    start = 0
    for size in sizes:
        for i in range(start + 1, start + size):
            if type(keys[i]) is not type(keys[start]):
                return i, keys[start]
        start += size
    return len(keys), None


def _by_position(
    alphabet: Alphabet, raw: dict, path: str, value_of: Callable, nested: bool = False
) -> tuple[list, list]:
    """Positions in ``alphabet`` of the keys of the JSON object ``raw``, and
    ``value_of(values, where)`` of its values, in the object's order; with
    ``nested``, of the entries of ``raw``'s values (objects), one after
    another. Two keys of one object that name one letter fail at the later
    one, and so does a key whose type is not the object's first key's (a
    Python-built object mixing ``int`` and ``str`` keys, which
    `Scenario.to_json` could not sort). The first failing entry fails at its path,
    ``path[key]`` (nested, ``path[row][key]``), a key's fault before its
    value's; ``value_of`` reports a value's at ``where(i)``, which formats
    the path of entry i."""
    if nested:
        objects = list(raw.values())
        keys = list(chain.from_iterable(objects))
        values = list(chain.from_iterable(map(dict.values, objects)))
    else:
        objects, keys, values = [raw], list(raw), list(raw.values())
    sizes = list(map(len, objects))
    types = set(map(type, keys))
    found = _positions(alphabet, keys, types)
    stop = found.index(None) if None in found else len(found)
    mixed, first_key = _mixed_key(keys, sizes) if {str, int} <= types else (len(keys), None)
    stop = min(stop, mixed)
    letters = found[:stop]
    if nested:
        # an entry of object r at position k counts as letter r * n + k, so
        # only keys of one object can repeat a letter
        n = alphabet.n_letters
        offsets = chain.from_iterable(map(repeat, range(0, n * len(sizes), n), sizes))
        letters = list(map(add, letters, offsets))
    if len(set(letters)) < stop:
        first = dict(zip(reversed(letters), range(stop - 1, -1, -1)))
        stop = next(i for i, letter in enumerate(letters) if first[letter] != i)
        repeated = keys[first[letters[stop]]]

    def where(i: int) -> str:
        if not nested:
            return f"{path}[{keys[i]!r}]"
        r = bisect_right(list(accumulate(sizes)), i)
        return f"{path}[{list(raw)[r]!r}][{keys[i]!r}]"

    converted = value_of(values if stop == len(values) else values[:stop], where)
    if stop < len(keys):
        key = keys[stop]
        if found[stop] is None:
            _fail(where(stop), _not_a_letter(key, alphabet))
        if stop == mixed:
            _fail(
                where(stop),
                f"key {key!r} is of type {type(key).__name__}, but the object's "
                f"first key {first_key!r} is of type {type(first_key).__name__}",
            )
        _fail(where(stop), f"{key!r} names the same letter as {repeated!r}")
    return found, converted


@dataclass
class DirectRoute:
    """A single data-to-outcome stage paired with the pipeline it rivals."""

    id: str
    stage: Stage
    pipeline_id: str


@dataclass
class Scenario:
    """A validated scenario: built objects plus the normalized declaration."""

    id: str
    alphabets: dict[str, Alphabet]
    channels: dict[str, Channel]
    stages: dict[str, Stage]
    pipelines: dict[str, Pipeline]
    direct_routes: dict[str, DirectRoute]
    judgments: tuple[AbstractionJudgment, ...]
    axes: dict[str, AbstractionAxis]
    declaration: dict

    def to_json(self) -> str:
        """Canonical serialization; stable byte-for-byte across runs."""
        return _dumps(self.declaration) + "\n"


_SCALARS = frozenset((str, int, float, bool, type(None)))
_INDENT = "  "


@functools.cache
def _flat_encoder(depth: int) -> Callable[[Any], str]:
    """One C-encoder call writing a container at ``depth`` that holds no
    container: its item separator carries the next line's indentation."""
    pad = _INDENT * (depth + 1)
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + pad, ": ")).encode


def _key(key: Any) -> str:
    """An object key as `json` spells it: a string, or the text of a number,
    true, false or null, as a string."""
    if isinstance(key, str):
        return json.dumps(key)
    if key is None or isinstance(key, (int, float)):
        return json.dumps(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _dumps(value: Any, depth: int = 0) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    With ``indent`` set, `json` before Python 3.13 encodes in Python, one
    generator frame per container. Here a container that holds no container
    is encoded in one call of the C encoder (`_flat_encoder`), and only a
    container of containers is joined in Python: its items sorted as `json`
    sorts them, ``sorted(dct.items())``.
    """
    if isinstance(value, dict):
        children, brackets = value.values(), "{}"
    elif isinstance(value, (list, tuple)):
        children, brackets = value, "[]"
    else:
        return json.dumps(value)
    if not value:
        return brackets
    pad = "\n" + _INDENT * depth
    if set(map(type, children)) <= _SCALARS:
        text = _flat_encoder(depth)(value)[1:-1]
    else:
        inner = depth + 1
        if brackets == "{}":
            items = [f"{_key(k)}: {_dumps(v, inner)}" for k, v in sorted(value.items())]
        else:
            items = [_dumps(v, inner) for v in value]
        text = (",\n" + _INDENT * inner).join(items)
    return f"{brackets[0]}{pad}{_INDENT}{text}{pad}{brackets[1]}"


def _build_alphabet(decl: Any, path: str) -> Alphabet:
    modes = ("letters", "uniform_count", "uniform_range")
    decl = _open(decl, path, ("id",), modes)
    aid = _get(decl, "id", path, _as_str)
    mode = _one_of(decl, path, modes)
    if mode == "uniform_count":
        n = _get(decl, "uniform_count", path, _as_int)
        if n < 1:
            _fail(f"{path}.uniform_count", f"must be >= 1, got {n}")
        if n > MAX_DETERMINISTIC_LETTERS:
            _fail(
                f"{path}.uniform_count",
                f"{n} letters is more than the {MAX_DETERMINISTIC_LETTERS} "
                "any channel accepts",
            )
        return Alphabet(aid, tuple(map(str, range(n))))
    if mode == "uniform_range":
        rpath = f"{path}.uniform_range"
        spec = _open(decl["uniform_range"], rpath, ("min", "max", "step"))
        lo, hi, step = (_get(spec, key, rpath, _as_number) for key in ("min", "max", "step"))
        with _at(rpath):
            return make_quantized_range(
                lo, hi, step, id=aid, max_letters=MAX_DETERMINISTIC_LETTERS
            )
    entries = _get(decl, "letters", path, _as_list)
    if not entries:
        _fail(f"{path}.letters", "alphabet needs at least one letter")
    ids: list[LetterId] = []
    probs: list[float | None] = []
    for i, entry in enumerate(entries):
        epath = f"{path}.letters[{i}]"
        entry = _open(entry, epath, ("id",), ("probability", "label"))
        lid = entry["id"]
        if isinstance(lid, bool) or not isinstance(lid, (str, int)):
            _fail(f"{epath}.id", f"letter id must be a string or integer, got {lid!r}")
        _get(entry, "label", epath, _as_str)  # kept in the declaration only
        ids.append(lid)
        probs.append(_get(entry, "probability", epath, _as_number))
    if probs.count(None) not in (0, len(probs)):
        _fail(
            f"{path}.letters",
            "either every letter carries a probability or none do",
        )
    ids = tuple(ids)
    with _at(path):
        # Alphabet refuses repeated ids, the pmf's too: it keeps these ids
        pmf = None if probs[0] is None else Pmf._of(ids, np.array(probs))
        built = Alphabet(aid, ids, pmf)
    _require_pmf(built.pmf, path)
    return built


def _build_channel(decl: Any, path: str, alphabets: dict[str, Alphabet]) -> Channel:
    kinds = ("deterministic", "stochastic")
    decl = _open(decl, path, ("id", "from", "to"), kinds)
    cid = _get(decl, "id", path, _as_str)
    source = _ref(decl, "from", path, alphabets, "alphabet")
    target = _ref(decl, "to", path, alphabets, "alphabet")
    if _one_of(decl, path, kinds) == "deterministic":
        dpath = f"{path}.deterministic"
        spec = _open(decl["deterministic"], dpath, (), ("map", "quantizer"))
        if _one_of(spec, dpath, ("map", "quantizer")) == "quantizer":
            qpath = f"{dpath}.quantizer"
            quantizer = _open(spec["quantizer"], qpath, ("pixels",))
            pixels = _get(quantizer, "pixels", qpath, _as_int)
            with _at(qpath):
                return Channel.quantizer(cid, source, target, pixels)
        mpath = f"{dpath}.map"
        raw_map = _get(spec, "map", dpath, _as_obj)
        sources, images = _by_position(source, raw_map, mpath, _letters(target))
        with _at(mpath):
            return Channel._from_map(cid, source, target, sources, images)
    spath = f"{path}.stochastic"
    rpath = f"{spath}.rows"
    spec = _open(decl["stochastic"], spath, ("rows",))
    raw_rows = _get(spec, "rows", spath, _as_obj)
    keys, rows = _by_position(source, raw_rows, rpath, _objects)
    sizes = [len(row) for row in rows]
    with _at(rpath):
        _require_declared_size(cid, "stochastic", source, target, sum(sizes))
    cols, vals = _by_position(target, raw_rows, rpath, _numbers, nested=True)
    with _at(rpath):
        return Channel._from_rows(cid, source, target, keys, sizes, cols, vals)


def _build_stage(decl: Any, path: str, channels: dict[str, Channel]) -> Stage:
    decl = _open(decl, path, ("id", "forward", "cost"), ("recon",))
    sid = _get(decl, "id", path, _as_str)
    forward = _ref(decl, "forward", path, channels, "channel")
    recon: Channel | str = _get(decl, "recon", path, _as_str, BAYES)
    if recon != BAYES:
        if recon not in channels:
            _fail(f"{path}.recon", f"unknown channel '{recon}' (or '{BAYES}')")
        recon = channels[recon]
    cost = _get(decl, "cost", path, _as_number)
    with _at(path):
        return Stage(forward=forward, recon=recon, cost=cost, id=sid)


def _build_pipeline(decl: Any, path: str, stages: dict[str, Stage]) -> Pipeline:
    decl = _open(decl, path, ("id", "stages"), ("prior",))
    pid = _get(decl, "id", path, _as_str)
    stage_ids = _get(decl, "stages", path, _as_list)
    # checked here as well as by Pipeline: the prior below reads resolved[0]
    if len(stage_ids) < 2:
        _fail(f"{path}.stages", "a pipeline needs at least two stages")
    resolved = [
        _ref(stage_ids, i, f"{path}.stages", stages, "stage") for i in range(len(stage_ids))
    ]
    prior = None
    if "prior" in decl:
        raw = _get(decl, "prior", path, _as_obj)
        first = resolved[0].forward.source
        found, probs = _by_position(first, raw, f"{path}.prior", _numbers)
        if len(found) != first.n_letters:
            covers = f"covers {len(found)} of {first.n_letters} letters of '{first.id}'"
            _fail(f"{path}.prior", covers)
        # over the alphabet's own ids, so its sums take letter order
        vec = np.empty(first.n_letters)
        vec[found] = probs
        prior = Pmf._of(first.letter_ids, vec)
        _require_pmf(prior, f"{path}.prior")
    with _at(path):
        return Pipeline(id=pid, stages=tuple(resolved), prior=prior)


def _build_route(
    decl: Any,
    path: str,
    stages: dict[str, Stage],
    pipelines: dict[str, Pipeline],
) -> DirectRoute:
    decl = _open(decl, path, ("id", "stage", "pipeline"))
    rid = _get(decl, "id", path, _as_str)
    stage = _ref(decl, "stage", path, stages, "stage")
    pipeline = _ref(decl, "pipeline", path, pipelines, "pipeline")
    with _at(path):
        _require_same_ends(pipeline, stage)
    return DirectRoute(id=rid, stage=stage, pipeline_id=pipeline.id)


def _build_point_of_view(decl: Any, path: str) -> PointOfView:
    decl = _open(decl, path, ("action", "target"), ("refinement",))
    return PointOfView(
        action=_choice(TaskAction, decl, "action", path, "action"),
        target=_choice(TaskTarget, decl, "target", path, "target"),
        refinement=_get(decl, "refinement", path, _as_str),
    )


def _build_judgment(decl: Any, path: str) -> AbstractionJudgment:
    decl = _open(
        decl, path, ("id", "condition_a", "condition_b"), ("score", "point_of_view")
    )
    jid = _get(decl, "id", path, _as_str)
    condition_a = _get(decl, "condition_a", path, _as_bool)
    condition_b = _choice(
        ConditionB, decl, "condition_b", path, "value",
        "satisfied, not_applicable, or negated",
    )
    score = _get(decl, "score", path, _as_int, abstraction_score(condition_a, condition_b))
    pov = _get(decl, "point_of_view", path, _build_point_of_view)
    with _at(f"{path}.score"):
        return AbstractionJudgment(
            condition_a=condition_a,
            condition_b=condition_b,
            score=score,
            point_of_view=pov,
            id=jid,
        )


def _build_axis(decl: Any, path: str, alphabets: dict[str, Alphabet]) -> AbstractionAxis:
    decl = _open(decl, path, ("id", "nodes"), ("purpose",))
    axid = _get(decl, "id", path, _as_str)
    purpose = _get(decl, "purpose", path, _as_str, "")
    entries = _get(decl, "nodes", path, _as_list)
    nodes: list[RepresentationNode] = []
    for i, entry in enumerate(entries):
        npath = f"{path}.nodes[{i}]"
        entry = _open(
            entry, npath, ("id", "kind"), ("information", "alphabet", "attributes")
        )
        nid = _get(entry, "id", npath, _as_str)
        kind = _choice(NodeKind, entry, "kind", npath, "kind", "data or visual")
        info = _get(entry, "information", npath, _as_number)
        if "alphabet" in entry:
            alphabet = _ref(entry, "alphabet", npath, alphabets, "alphabet")
            h = entropy(alphabet)
            if info is None:
                info = h
            elif abs(info - h) > NODE_INFORMATION_TOLERANCE:
                _fail(
                    f"{npath}.information",
                    f"{info!r} disagrees with the entropy {h!r} of alphabet '{alphabet.id}'",
                )
        if info is None:
            _fail(npath, "needs 'information' or an 'alphabet' reference")
        raw = _get(entry, "attributes", npath, _as_list, [])
        attributes = [_as_str(tag, f"{npath}.attributes[{j}]") for j, tag in enumerate(raw)]
        with _at(npath):
            nodes.append(
                RepresentationNode(
                    id=nid,
                    kind=kind,
                    information=info,
                    attributes=frozenset(attributes),
                    alphabet=entry.get("alphabet"),
                )
            )
    with _at(path):
        return AbstractionAxis(id=axid, nodes=tuple(nodes), purpose=purpose)


def parse_scenario(data: Mapping, name: str = "scenario") -> Scenario:
    """Validate a parsed JSON object and build every declared element.

    Raises ScenarioError naming the offending JSON path on any problem. The
    scenario keeps a copy of ``data``, so later changes to it do not reach
    the scenario.
    """
    scenario = _parse_owned(data, name)
    scenario.declaration = copy.deepcopy(scenario.declaration)
    return scenario


def _parse_owned(data: Mapping, name: str) -> Scenario:
    """`parse_scenario` for a caller that hands over ``data``: the scenario
    keeps it as its declaration, uncopied."""
    data = _as_obj(data, "$")
    for key in data:
        if key not in _TOP_KEYS:
            _fail(f"$.{key}", "unknown top-level key")

    meta = _open(data.get("meta", {}), "meta", (), ("id", "title", "point_of_view"))
    _get(meta, "id", "meta", _as_str)
    _get(meta, "title", "meta", _as_str)
    _get(meta, "point_of_view", "meta", _build_point_of_view)

    def section(key: str, noun: str, build, *tables: dict) -> dict:
        built_by_id: dict = {}
        for i, decl in enumerate(_as_list(data.get(key, []), key)):
            built = build(decl, f"{key}[{i}]", *tables)
            if built.id in built_by_id:
                _fail(f"{key}[{i}].id", f"duplicate {noun} id '{built.id}'")
            built_by_id[built.id] = built
        return built_by_id

    alphabets = section("alphabets", "alphabet", _build_alphabet)
    channels = section("channels", "channel", _build_channel, alphabets)
    stages = section("stages", "stage", _build_stage, channels)
    pipelines = section("pipelines", "pipeline", _build_pipeline, stages)
    direct_routes = section("direct_routes", "route", _build_route, stages, pipelines)
    judgments = section("judgments", "judgment", _build_judgment)
    axes = section("axes", "axis", _build_axis, alphabets)

    scenario_id = meta.get("id", name)
    return Scenario(
        id=scenario_id,
        alphabets=alphabets,
        channels=channels,
        stages=stages,
        pipelines=pipelines,
        direct_routes=direct_routes,
        judgments=tuple(judgments.values()),
        axes=axes,
        declaration=data,
    )


def loads_scenario(text: str, name: str = "scenario") -> Scenario:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:  # also over-long integers
        raise ScenarioError("$", f"not valid JSON: {e}") from None
    return _parse_owned(data, name)


def _read_utf8(read: Callable[[], str]) -> str:
    """The text ``read()`` returns; undecodable bytes fail at ``$``."""
    try:
        return read()
    except UnicodeDecodeError as e:
        raise ScenarioError("$", f"not valid UTF-8: {e}") from None


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file."""
    path = Path(path)
    text = _read_utf8(lambda: path.read_text(encoding="utf-8"))
    return loads_scenario(text, name=path.stem)
