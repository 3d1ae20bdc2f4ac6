"""Scenario files: declarative JSON for a whole analysis.

A scenario declares alphabets, channels, stages, pipelines, direct routes,
judgments, and axes, and is fully validated at load time. Validation errors
carry the JSON path of the offending element ("channels[0].from") so files
can be fixed without reading a stack trace. Loaded scenarios keep their
normalized declaration, so serializing and reloading is the identity on the
validated structure.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from .alphabet import Alphabet, LetterId, Pmf, entropy, make_quantized_range
from .axis import AbstractionAxis, NodeKind, RepresentationNode
from .channel import MAX_DETERMINISTIC_LETTERS, Channel, _require_declared_size, _same_letters
from .costbenefit import (
    BAYES,
    AbstractionJudgment,
    Pipeline,
    PointOfView,
    Stage,
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


def _check_keys(obj: dict, path: str, required: tuple, optional: tuple = ()) -> None:
    for key in required:
        if key not in obj:
            _fail(path, f"missing required key '{key}'")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown key")


def _letter_position(alphabet: Alphabet, key: Any, path: str) -> int:
    # JSON object keys are strings even when an alphabet uses integer ids
    if isinstance(key, (str, int)) and not isinstance(key, bool):
        position = alphabet.pmf.position
        k = position(key)
        if k is None:
            try:
                k = position(int(key) if isinstance(key, str) else str(key))
            except ValueError:
                pass
        if k is not None:
            return k
    _fail(path, f"{key!r} is not a letter of alphabet '{alphabet.id}'")


def _by_position(alphabet: Alphabet, raw: dict, path: str, value_of) -> tuple[list, list]:
    """Positions in ``alphabet`` of the keys of a JSON object, and
    ``value_of(value, path)`` of its values, in the object's order. Two keys
    naming one letter fail at the later one. An entry's own path,
    ``path[key]``, is formatted only when that entry fails."""
    seen: dict = {}  # position: key, in the object's order
    values = []
    for key, value in raw.items():
        try:
            k = _letter_position(alphabet, key, path)
            if k in seen:
                _fail(path, f"{key!r} names the same letter as {seen[k]!r}")
            seen[k] = key
            values.append(value_of(value, path))
        except ScenarioError as e:
            raise ScenarioError(f"{path}[{key!r}]", e.message) from None
    return list(seen), values


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
        return json.dumps(self.declaration, indent=2, sort_keys=True) + "\n"


def _build_alphabet(decl: Any, path: str) -> Alphabet:
    decl = _as_obj(decl, path)
    _check_keys(decl, path, ("id",), ("letters", "uniform_count", "uniform_range"))
    aid = _as_str(decl["id"], f"{path}.id")
    modes = [k for k in ("letters", "uniform_count", "uniform_range") if k in decl]
    if len(modes) != 1:
        _fail(
            path,
            "needs exactly one of 'letters', 'uniform_count', 'uniform_range'",
        )
    mode = modes[0]
    if mode == "uniform_count":
        n = _as_int(decl["uniform_count"], f"{path}.uniform_count")
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
        spec = _as_obj(decl["uniform_range"], f"{path}.uniform_range")
        _check_keys(spec, f"{path}.uniform_range", ("min", "max", "step"))
        lo = _as_number(spec["min"], f"{path}.uniform_range.min")
        hi = _as_number(spec["max"], f"{path}.uniform_range.max")
        step = _as_number(spec["step"], f"{path}.uniform_range.step")
        try:
            return make_quantized_range(
                lo, hi, step, id=aid, max_letters=MAX_DETERMINISTIC_LETTERS
            )
        except ValueError as e:
            _fail(f"{path}.uniform_range", str(e))
    entries = _as_list(decl["letters"], f"{path}.letters")
    if not entries:
        _fail(f"{path}.letters", "alphabet needs at least one letter")
    ids: list[LetterId] = []
    probs: list[float] = []
    for i, entry in enumerate(entries):
        epath = f"{path}.letters[{i}]"
        entry = _as_obj(entry, epath)
        _check_keys(entry, epath, ("id",), ("probability", "label"))
        lid = entry["id"]
        if isinstance(lid, bool) or not isinstance(lid, (str, int)):
            _fail(f"{epath}.id", f"letter id must be a string or integer, got {lid!r}")
        if "label" in entry:  # kept in the declaration only
            _as_str(entry["label"], f"{epath}.label")
        ids.append(lid)
        if "probability" in entry:
            probs.append(_as_number(entry["probability"], f"{epath}.probability"))
    if probs and len(probs) != len(entries):
        _fail(
            f"{path}.letters",
            "either every letter carries a probability or none do",
        )
    ids = tuple(ids)
    try:
        built = Alphabet(aid, ids, Pmf.from_vector(ids, probs) if probs else None)
    except ValueError as e:
        _fail(path, str(e))
    problems = built.pmf.violations()
    if problems:
        _fail(path, "; ".join(problems))
    return built


def _build_channel(decl: Any, path: str, alphabets: dict[str, Alphabet]) -> Channel:
    decl = _as_obj(decl, path)
    _check_keys(decl, path, ("id", "from", "to"), ("deterministic", "stochastic"))
    cid = _as_str(decl["id"], f"{path}.id")
    from_id = _as_str(decl["from"], f"{path}.from")
    to_id = _as_str(decl["to"], f"{path}.to")
    if from_id not in alphabets:
        _fail(f"{path}.from", f"unknown alphabet '{from_id}'")
    if to_id not in alphabets:
        _fail(f"{path}.to", f"unknown alphabet '{to_id}'")
    source, target = alphabets[from_id], alphabets[to_id]
    kinds = [k for k in ("deterministic", "stochastic") if k in decl]
    if len(kinds) != 1:
        _fail(path, "needs exactly one of 'deterministic' or 'stochastic'")
    if kinds[0] == "deterministic":
        spec = _as_obj(decl["deterministic"], f"{path}.deterministic")
        _check_keys(spec, f"{path}.deterministic", (), ("map", "quantizer"))
        inner = [k for k in ("map", "quantizer") if k in spec]
        if len(inner) != 1:
            _fail(
                f"{path}.deterministic",
                "needs exactly one of 'map' or 'quantizer'",
            )
        if inner[0] == "quantizer":
            q = _as_obj(spec["quantizer"], f"{path}.deterministic.quantizer")
            _check_keys(q, f"{path}.deterministic.quantizer", ("pixels",))
            pixels = _as_int(q["pixels"], f"{path}.deterministic.quantizer.pixels")
            try:
                return Channel.quantizer(cid, source, target, pixels)
            except ValueError as e:
                _fail(f"{path}.deterministic.quantizer", str(e))
        mpath = f"{path}.deterministic.map"
        sources, images = _by_position(
            source, _as_obj(spec["map"], mpath), mpath, lambda v, p: _letter_position(target, v, p)
        )
        try:
            return Channel._from_map(cid, source, target, sources, images)
        except ValueError as e:
            _fail(mpath, str(e))
    spec = _as_obj(decl["stochastic"], f"{path}.stochastic")
    _check_keys(spec, f"{path}.stochastic", ("rows",))
    rpath = f"{path}.stochastic.rows"
    raw_rows = _as_obj(spec["rows"], rpath)
    keys, rows = _by_position(source, raw_rows, rpath, _as_obj)
    sizes = [len(row) for row in rows]
    try:
        _require_declared_size(cid, "stochastic", source, target, sum(sizes))
    except ValueError as e:
        _fail(rpath, str(e))
    cols, vals = [], []
    for key, row in zip(raw_rows, rows):
        row_cols, row_vals = _by_position(target, row, f"{rpath}[{key!r}]", _as_number)
        cols += row_cols
        vals += row_vals
    try:
        return Channel._from_rows(cid, source, target, keys, sizes, cols, vals)
    except ValueError as e:
        _fail(rpath, str(e))


def _build_stage(decl: Any, path: str, channels: dict[str, Channel]) -> Stage:
    decl = _as_obj(decl, path)
    _check_keys(decl, path, ("id", "forward", "cost"), ("recon",))
    sid = _as_str(decl["id"], f"{path}.id")
    fwd_id = _as_str(decl["forward"], f"{path}.forward")
    if fwd_id not in channels:
        _fail(f"{path}.forward", f"unknown channel '{fwd_id}'")
    recon: Channel | str = BAYES
    if "recon" in decl:
        recon_id = _as_str(decl["recon"], f"{path}.recon")
        if recon_id != BAYES:
            if recon_id not in channels:
                _fail(f"{path}.recon", f"unknown channel '{recon_id}' (or '{BAYES}')")
            recon = channels[recon_id]
    cost = _as_number(decl["cost"], f"{path}.cost")
    try:
        return Stage(forward=channels[fwd_id], recon=recon, cost=cost, id=sid)
    except ValueError as e:
        _fail(path, str(e))


def _build_pipeline(decl: Any, path: str, stages: dict[str, Stage]) -> Pipeline:
    decl = _as_obj(decl, path)
    _check_keys(decl, path, ("id", "stages"), ("prior",))
    pid = _as_str(decl["id"], f"{path}.id")
    stage_ids = _as_list(decl["stages"], f"{path}.stages")
    if len(stage_ids) < 2:
        _fail(f"{path}.stages", "a pipeline needs at least two stages")
    resolved = []
    for i, sid in enumerate(stage_ids):
        sid = _as_str(sid, f"{path}.stages[{i}]")
        if sid not in stages:
            _fail(f"{path}.stages[{i}]", f"unknown stage '{sid}'")
        resolved.append(stages[sid])
    prior = None
    if "prior" in decl:
        raw = _as_obj(decl["prior"], f"{path}.prior")
        first = resolved[0].forward.source
        found, probs = _by_position(first, raw, f"{path}.prior", _as_number)
        if len(found) != first.n_letters:
            covers = f"covers {len(found)} of {first.n_letters} letters of '{first.id}'"
            _fail(f"{path}.prior", covers)
        prior = Pmf(dict(zip([first.letter_ids[k] for k in found], probs)))
        problems = prior.violations()
        if problems:
            _fail(f"{path}.prior", "; ".join(problems))
    try:
        return Pipeline(id=pid, stages=tuple(resolved), prior=prior)
    except ValueError as e:
        _fail(path, str(e))


def _build_route(
    decl: Any,
    path: str,
    stages: dict[str, Stage],
    pipelines: dict[str, Pipeline],
) -> DirectRoute:
    decl = _as_obj(decl, path)
    _check_keys(decl, path, ("id", "stage", "pipeline"))
    rid = _as_str(decl["id"], f"{path}.id")
    sid = _as_str(decl["stage"], f"{path}.stage")
    pid = _as_str(decl["pipeline"], f"{path}.pipeline")
    if sid not in stages:
        _fail(f"{path}.stage", f"unknown stage '{sid}'")
    if pid not in pipelines:
        _fail(f"{path}.pipeline", f"unknown pipeline '{pid}'")
    stage, pipeline = stages[sid], pipelines[pid]
    first = pipeline.stages[0].forward.source
    last = pipeline.stages[-1].forward.target
    if not _same_letters(first, stage.forward.source):
        _fail(
            path,
            f"stage '{sid}' starts from '{stage.forward.source.id}' but pipeline "
            f"'{pid}' starts from '{first.id}'",
        )
    if not _same_letters(last, stage.forward.target):
        _fail(
            path,
            f"stage '{sid}' ends in '{stage.forward.target.id}' but pipeline "
            f"'{pid}' ends in '{last.id}'",
        )
    return DirectRoute(id=rid, stage=stage, pipeline_id=pid)


def _build_point_of_view(decl: Any, path: str) -> PointOfView:
    decl = _as_obj(decl, path)
    _check_keys(decl, path, ("action", "target"), ("refinement",))
    action = _as_str(decl["action"], f"{path}.action")
    target = _as_str(decl["target"], f"{path}.target")
    try:
        action = TaskAction(action)
    except ValueError:
        _fail(
            f"{path}.action",
            f"unknown action {action!r} (expected one of "
            f"{', '.join(a.value for a in TaskAction)})",
        )
    try:
        target = TaskTarget(target)
    except ValueError:
        _fail(
            f"{path}.target",
            f"unknown target {target!r} (expected one of "
            f"{', '.join(t.value for t in TaskTarget)})",
        )
    refinement = None
    if "refinement" in decl:
        refinement = _as_str(decl["refinement"], f"{path}.refinement")
    return PointOfView(action=action, target=target, refinement=refinement)


def _build_judgment(decl: Any, path: str) -> AbstractionJudgment:
    decl = _as_obj(decl, path)
    _check_keys(
        decl, path, ("id", "condition_a", "condition_b"), ("score", "point_of_view")
    )
    jid = _as_str(decl["id"], f"{path}.id")
    condition_a = _as_bool(decl["condition_a"], f"{path}.condition_a")
    condition_b = _as_str(decl["condition_b"], f"{path}.condition_b")
    try:
        expected = abstraction_score(condition_a, condition_b)
    except ValueError:
        _fail(
            f"{path}.condition_b",
            f"unknown value {condition_b!r} (expected satisfied, "
            f"not_applicable, or negated)",
        )
    if "score" in decl:
        score = _as_int(decl["score"], f"{path}.score")
        if score != expected:
            _fail(
                f"{path}.score",
                f"{score} is inconsistent with the conditions (expected {expected})",
            )
    pov = None
    if "point_of_view" in decl:
        pov = _build_point_of_view(decl["point_of_view"], f"{path}.point_of_view")
    return AbstractionJudgment(
        condition_a=condition_a,
        condition_b=condition_b,
        score=expected,
        point_of_view=pov,
        id=jid,
    )


def _build_axis(decl: Any, path: str, alphabets: dict[str, Alphabet]) -> AbstractionAxis:
    decl = _as_obj(decl, path)
    _check_keys(decl, path, ("id", "nodes"), ("purpose",))
    axid = _as_str(decl["id"], f"{path}.id")
    purpose = ""
    if "purpose" in decl:
        purpose = _as_str(decl["purpose"], f"{path}.purpose")
    entries = _as_list(decl["nodes"], f"{path}.nodes")
    nodes: list[RepresentationNode] = []
    for i, entry in enumerate(entries):
        npath = f"{path}.nodes[{i}]"
        entry = _as_obj(entry, npath)
        _check_keys(
            entry, npath, ("id", "kind"), ("information", "alphabet", "attributes")
        )
        nid = _as_str(entry["id"], f"{npath}.id")
        kind = _as_str(entry["kind"], f"{npath}.kind")
        try:
            kind = NodeKind(kind)
        except ValueError:
            _fail(
                f"{npath}.kind",
                f"unknown kind {kind!r} (expected data or visual)",
            )
        info = None
        if "information" in entry:
            info = _as_number(entry["information"], f"{npath}.information")
        if "alphabet" in entry:
            ref = _as_str(entry["alphabet"], f"{npath}.alphabet")
            if ref not in alphabets:
                _fail(f"{npath}.alphabet", f"unknown alphabet '{ref}'")
            h = entropy(alphabets[ref])
            if info is None:
                info = h
            elif abs(info - h) > NODE_INFORMATION_TOLERANCE:
                _fail(
                    f"{npath}.information",
                    f"{info!r} disagrees with the entropy {h!r} of alphabet '{ref}'",
                )
        if info is None:
            _fail(npath, "needs 'information' or an 'alphabet' reference")
        attributes: list[str] = []
        if "attributes" in entry:
            raw = _as_list(entry["attributes"], f"{npath}.attributes")
            attributes = [
                _as_str(tag, f"{npath}.attributes[{j}]") for j, tag in enumerate(raw)
            ]
        try:
            nodes.append(
                RepresentationNode(
                    id=nid,
                    kind=kind,
                    information=info,
                    attributes=frozenset(attributes),
                    alphabet=entry.get("alphabet"),
                )
            )
        except ValueError as e:
            _fail(npath, str(e))
    try:
        return AbstractionAxis(id=axid, nodes=tuple(nodes), purpose=purpose)
    except ValueError as e:
        _fail(path, str(e))


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

    meta: dict = {}
    if "meta" in data:
        meta = _as_obj(data["meta"], "meta")
        _check_keys(meta, "meta", (), ("id", "title", "point_of_view"))
        if "id" in meta:
            _as_str(meta["id"], "meta.id")
        if "title" in meta:
            _as_str(meta["title"], "meta.title")
        if "point_of_view" in meta:
            _build_point_of_view(meta["point_of_view"], "meta.point_of_view")

    def section(key: str, noun: str, build) -> dict:
        built_by_id: dict = {}
        for i, decl in enumerate(_as_list(data.get(key, []), key)):
            built = build(decl, f"{key}[{i}]")
            if built.id in built_by_id:
                _fail(f"{key}[{i}].id", f"duplicate {noun} id '{built.id}'")
            built_by_id[built.id] = built
        return built_by_id

    alphabets = section("alphabets", "alphabet", _build_alphabet)
    channels = section(
        "channels", "channel", lambda d, path: _build_channel(d, path, alphabets)
    )
    stages = section("stages", "stage", lambda d, path: _build_stage(d, path, channels))
    pipelines = section(
        "pipelines", "pipeline", lambda d, path: _build_pipeline(d, path, stages)
    )
    direct_routes = section(
        "direct_routes",
        "route",
        lambda d, path: _build_route(d, path, stages, pipelines),
    )
    judgments = section("judgments", "judgment", _build_judgment)
    axes = section("axes", "axis", lambda d, path: _build_axis(d, path, alphabets))

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
