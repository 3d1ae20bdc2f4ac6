"""Tests for scenario file parsing, validation, and round-tripping."""

import copy
import json
import math
import random
import tracemalloc

import pytest

from absmeter import (
    EXEMPLAR_NAMES,
    Alphabet,
    OverlappingAttributesError,
    Pmf,
    ScenarioError,
    TransitionKind,
    analyze,
    classify_transition,
    combine_space,
    compare_routes,
    detect_fork,
    exemplar,
    load_scenario,
    loads_scenario,
    make_quantized_range,
    parse_scenario,
)
from absmeter.channel import MAX_STOCHASTIC_ENTRIES
from absmeter.cli import main
from absmeter.scenario import _as_number, _as_obj, _by_position, _letters, _numbers, _objects


def minimal() -> dict:
    """Smallest declaration that parses: two alphabets, one channel."""
    return {
        "alphabets": [
            {"id": "src", "uniform_count": 4},
            {"id": "dst", "uniform_count": 2},
        ],
        "channels": [
            {
                "id": "halve",
                "from": "src",
                "to": "dst",
                "deterministic": {"map": {"0": "0", "1": "0", "2": "1", "3": "1"}},
            }
        ],
    }


def parse(data: dict):
    return loads_scenario(json.dumps(data), name="inline")


def err(data: dict) -> ScenarioError:
    with pytest.raises(ScenarioError) as exc_info:
        parse(data)
    return exc_info.value


class TestLoading:
    def test_fixture_files_parse(self, fixtures_dir):
        for name, scenario_id in [
            ("route_premises_hold.json", "route-premises-hold"),
            ("route_cost_premise_violated.json", "route-cost-premise-violated"),
            ("molecular_axes.json", "molecular-axes"),
        ]:
            scenario = load_scenario(fixtures_dir / name)
            assert scenario.id == scenario_id

    def test_name_is_fallback_id(self):
        scenario = loads_scenario(json.dumps(minimal()), name="fallback")
        assert scenario.id == "fallback"

    def test_meta_id_wins_over_name(self):
        data = minimal()
        data["meta"] = {"id": "declared"}
        scenario = loads_scenario(json.dumps(data), name="ignored")
        assert scenario.id == "declared"

    def test_load_scenario_uses_stem_as_name(self, tmp_path):
        path = tmp_path / "from-disk.json"
        path.write_text(json.dumps(minimal()), encoding="utf-8")
        assert load_scenario(path).id == "from-disk"

    def test_malformed_json_fails_at_root(self):
        with pytest.raises(ScenarioError) as exc_info:
            loads_scenario("{not json")
        assert exc_info.value.path == "$"
        assert "not valid JSON" in str(exc_info.value)

    def test_non_utf8_file_fails_at_root(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"meta": {"title": "caf\xe9"}}')
        with pytest.raises(ScenarioError) as exc_info:
            load_scenario(path)
        assert exc_info.value.path == "$"
        assert "not valid UTF-8" in str(exc_info.value)

    def test_non_object_root_rejected(self):
        with pytest.raises(ScenarioError):
            loads_scenario("[1, 2, 3]")


class TestRoundTrip:
    def test_fixtures_round_trip(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.json")):
            original = json.loads(path.read_text(encoding="utf-8"))
            scenario = load_scenario(path)
            assert json.loads(scenario.to_json()) == original

    def test_exemplars_round_trip(self):
        for name in EXEMPLAR_NAMES:
            scenario = exemplar(name)
            reparsed = loads_scenario(scenario.to_json(), name=name)
            assert reparsed.to_json() == scenario.to_json()

    def test_serialization_is_stable(self, fixtures_dir):
        path = fixtures_dir / "molecular_axes.json"
        first = load_scenario(path).to_json()
        second = loads_scenario(first).to_json()
        assert second == first

    def test_parse_scenario_keeps_its_own_copy(self):
        data = minimal()
        scenario = parse_scenario(data, name="inline")
        before = scenario.to_json()
        data["channels"][0]["deterministic"]["map"]["0"] = "1"
        data["alphabets"].append({"id": "late", "uniform_count": 2})
        data["meta"] = {"id": "renamed"}
        assert scenario.to_json() == before


class TestTopLevelValidation:
    def test_unknown_top_level_key(self):
        e = err({"bogus": 1})
        assert str(e) == "$.bogus: unknown top-level key"

    def test_empty_scenario_is_fine(self):
        scenario = parse({})
        assert scenario.alphabets == {}
        assert scenario.channels == {}

    def test_duplicate_alphabet_id(self):
        data = minimal()
        data["alphabets"].append({"id": "src", "uniform_count": 3})
        e = err(data)
        assert "duplicate alphabet id 'src'" in str(e)
        assert e.path == "alphabets[2].id"

    def test_duplicate_channel_id(self):
        data = minimal()
        data["channels"].append(dict(data["channels"][0]))
        assert "duplicate channel id 'halve'" in str(err(data))


class TestAlphabetValidation:
    def test_needs_exactly_one_source_of_letters(self):
        data = minimal()
        data["alphabets"][0] = {"id": "src"}
        assert "exactly one of 'letters', 'uniform_count', 'uniform_range'" in str(
            err(data)
        )

    def test_letters_and_uniform_count_conflict(self):
        data = minimal()
        data["alphabets"][0] = {
            "id": "src",
            "letters": [{"id": "a"}],
            "uniform_count": 2,
        }
        assert "exactly one" in str(err(data))

    def test_empty_letters_rejected(self):
        data = {"alphabets": [{"id": "empty", "letters": []}]}
        e = err(data)
        assert e.path == "alphabets[0].letters"
        assert "at least one letter" in str(e)

    def test_partial_probabilities_rejected(self):
        data = {
            "alphabets": [
                {
                    "id": "half",
                    "letters": [{"id": "a", "probability": 0.5}, {"id": "b"}],
                }
            ]
        }
        assert "either every letter carries a probability or none do" in str(err(data))

    def test_probabilities_must_sum_to_one(self):
        data = {
            "alphabets": [
                {
                    "id": "short",
                    "letters": [
                        {"id": "a", "probability": 0.5},
                        {"id": "b", "probability": 0.4},
                    ],
                }
            ]
        }
        assert "mass sums to" in str(err(data))

    def test_negative_probability_rejected(self):
        data = {
            "alphabets": [
                {
                    "id": "neg",
                    "letters": [
                        {"id": "a", "probability": 1.5},
                        {"id": "b", "probability": -0.5},
                    ],
                }
            ]
        }
        assert "negative mass" in str(err(data))

    def test_uniform_count_must_be_positive(self):
        data = {"alphabets": [{"id": "none", "uniform_count": 0}]}
        assert "uniform_count" in str(err(data))

    def test_uniform_range_builds_numeric_grid(self):
        data = {
            "alphabets": [
                {"id": "grid", "uniform_range": {"min": 0, "max": 4, "step": 2}}
            ]
        }
        grid = parse(data).alphabets["grid"]
        assert grid.n_letters == 3
        # numeric grids index their letters by integer position
        assert list(grid.letter_ids) == [0, 1, 2]

    def test_uniform_range_bad_step(self):
        data = {
            "alphabets": [
                {"id": "grid", "uniform_range": {"min": 0, "max": 4, "step": 0}}
            ]
        }
        e = err(data)
        assert "alphabets[0].uniform_range" in e.path

    def test_uniform_range_missing_key(self):
        data = {"alphabets": [{"id": "grid", "uniform_range": {"min": 0, "max": 4}}]}
        assert "missing required key 'step'" in str(err(data))

    def test_unknown_letter_key(self):
        data = {
            "alphabets": [{"id": "odd", "letters": [{"id": "a", "weight": 1.0}]}]
        }
        e = err(data)
        assert "unknown key" in str(e)
        assert "letters[0].weight" in e.path

    def test_letter_labels_survive(self):
        data = {
            "alphabets": [
                {"id": "named", "letters": [{"id": "a", "label": "first"}]}
            ]
        }
        declared = json.loads(parse(data).to_json())["alphabets"][0]
        assert declared["letters"][0]["label"] == "first"


class TestChannelValidation:
    def test_unknown_source_alphabet(self):
        data = minimal()
        data["channels"][0]["from"] = "X"
        e = err(data)
        assert str(e) == "channels[0].from: unknown alphabet 'X'"

    def test_unknown_target_alphabet(self):
        data = minimal()
        data["channels"][0]["to"] = "Y"
        assert str(err(data)) == "channels[0].to: unknown alphabet 'Y'"

    def test_needs_exactly_one_kind(self):
        data = minimal()
        data["channels"][0].pop("deterministic")
        assert "exactly one of 'deterministic' or 'stochastic'" in str(err(data))

    def test_both_kinds_rejected(self):
        data = minimal()
        data["channels"][0]["stochastic"] = {"rows": {}}
        assert "exactly one of 'deterministic' or 'stochastic'" in str(err(data))

    def test_deterministic_needs_map_or_quantizer(self):
        data = minimal()
        data["channels"][0]["deterministic"] = {}
        assert "exactly one of 'map' or 'quantizer'" in str(err(data))

    def test_non_total_map_rejected(self):
        data = minimal()
        data["channels"][0]["deterministic"]["map"].pop("3")
        assert "no image" in str(err(data))

    def test_unknown_map_output_rejected(self):
        data = minimal()
        data["channels"][0]["deterministic"]["map"]["3"] = "9"
        assert "channels[0]" in err(data).path

    def test_stochastic_rows_must_normalize(self):
        data = minimal()
        data["channels"][0].pop("deterministic")
        data["channels"][0]["stochastic"] = {
            "rows": {
                "0": {"0": 0.5, "1": 0.4},
                "1": {"0": 1.0},
                "2": {"1": 1.0},
                "3": {"1": 1.0},
            }
        }
        assert "sums to" in str(err(data))

    def test_quantizer_requires_numeric_grid_source(self):
        data = minimal()
        data["channels"][0]["deterministic"] = {"quantizer": {"pixels": 2}}
        assert "grid" in str(err(data))

    def test_quantizer_parses_on_grid_source(self):
        data = {
            "alphabets": [
                {"id": "vals", "uniform_range": {"min": 0, "max": 10, "step": 1}},
                {"id": "px", "uniform_count": 3},
            ],
            "channels": [
                {
                    "id": "plot",
                    "from": "vals",
                    "to": "px",
                    "deterministic": {"quantizer": {"pixels": 3}},
                }
            ],
        }
        channel = parse(data).channels["plot"]
        assert channel.image_of(0) == "0"
        assert channel.image_of(10) == "2"


class TestLetterKeyCoercion:
    def test_string_keys_match_integer_grid_letters(self):
        # JSON object keys are always strings; grid letters carry string ids
        # of integers, so this direction is the common one.
        data = {
            "alphabets": [
                {"id": "grid", "uniform_range": {"min": 0, "max": 1, "step": 1}},
                {"id": "out", "uniform_count": 1},
            ],
            "channels": [
                {
                    "id": "collapse",
                    "from": "grid",
                    "to": "out",
                    "deterministic": {"map": {"0": "0", "1": "0"}},
                }
            ],
        }
        assert parse(data).channels["collapse"].image_of(1) == "0"

    def test_integer_values_match_string_letters(self):
        data = minimal()
        data["channels"][0]["deterministic"]["map"] = {"0": 0, "1": 0, "2": 1, "3": 1}
        assert parse(data).channels["halve"].image_of("2") == "1"


def grid(id: str, n: int) -> dict:
    """Alphabet over the integer letters 0..n-1."""
    return {"id": id, "uniform_range": {"min": 0, "max": n - 1, "step": 1}}


# Each declaration has two keys of one JSON object that name the same
# integer letter; both used to be accepted, the later key winning.
DUPLICATE_KEYS = {
    "map-key": (
        {
            "alphabets": [grid("a", 3), {"id": "b", "uniform_count": 2}],
            "channels": [
                {
                    "id": "f",
                    "from": "a",
                    "to": "b",
                    "deterministic": {"map": {"0": "0", "1": "0", "2": "0", "+2": "1"}},
                }
            ],
        },
        "channels[0].deterministic.map['+2']",
        "'+2' names the same letter as '2'",
    ),
    "row-key": (
        {
            "alphabets": [grid("a", 2), {"id": "b", "uniform_count": 1}],
            "channels": [
                {
                    "id": "s",
                    "from": "a",
                    "to": "b",
                    "stochastic": {
                        "rows": {"0": {"0": 1.0}, "1": {"0": 1.0}, "01": {"0": 1.0}}
                    },
                }
            ],
        },
        "channels[0].stochastic.rows['01']",
        "'01' names the same letter as '1'",
    ),
    "row-entry": (
        {
            "alphabets": [{"id": "a", "uniform_count": 1}, grid("b", 2)],
            "channels": [
                {
                    "id": "s",
                    "from": "a",
                    "to": "b",
                    "stochastic": {"rows": {"0": {"0": 0.5, "00": 0.5, "1": 0.5}}},
                }
            ],
        },
        "channels[0].stochastic.rows['0']['00']",
        "'00' names the same letter as '0'",
    ),
    "prior-key": (
        {
            "alphabets": [grid("a", 2), {"id": "b", "uniform_count": 1}],
            "channels": [
                {"id": "f", "from": "a", "to": "b", "deterministic": {"map": {"0": "0", "1": "0"}}},
                {"id": "g", "from": "b", "to": "b", "deterministic": {"map": {"0": "0"}}},
            ],
            "stages": [
                {"id": "s1", "forward": "f", "cost": 1.0},
                {"id": "s2", "forward": "g", "cost": 1.0},
            ],
            "pipelines": [
                {"id": "p", "stages": ["s1", "s2"], "prior": {"0": 0.5, "1": 0.25, "+1": 0.5}}
            ],
        },
        "pipelines[0].prior['+1']",
        "'+1' names the same letter as '1'",
    ),
}


class TestDuplicateLetterKeys:
    @pytest.mark.parametrize("case", sorted(DUPLICATE_KEYS))
    def test_two_keys_for_one_letter_fail_at_the_later(self, case, tmp_path, capsys):
        data, path, message = DUPLICATE_KEYS[case]
        e = err(data)
        assert e.path == path
        assert e.message == message
        target = tmp_path / "duplicate.json"
        target.write_text(json.dumps(data), encoding="utf-8")
        assert main(["validate", str(target)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_distinct_spellings_of_distinct_letters_still_load(self):
        data = copy.deepcopy(DUPLICATE_KEYS["map-key"][0])
        data["channels"][0]["deterministic"]["map"] = {"0": "0", "+1": "0", "02": "1"}
        channel = parse(data).channels["f"]
        assert [channel.image_of(i) for i in range(3)] == ["0", "0", "1"]


def rows_over(rows, to="b") -> dict:
    """A Python-built declaration: a stochastic channel from letters 0 and 1
    of "a" to alphabet ``to`` ("b" has the one letter "x"), with ``rows``."""
    return {
        "alphabets": [grid("a", 2), {"id": "b", "letters": [{"id": "x"}]}],
        "channels": [{"id": "s", "from": "a", "to": to, "stochastic": {"rows": rows}}],
    }


class TestMixedKeyTypes:
    """JSON gives only string keys; an object built in Python may mix `int`
    and `str` keys, which `Scenario.to_json` cannot sort, so it is refused."""

    @pytest.mark.parametrize(
        "rows, to, path",
        [
            ({0: {"x": 1.0}, "1": {"x": 1.0}}, "b", "channels[0].stochastic.rows['1']"),
            ({0: {0: 0.5, "1": 0.5}, 1: {1: 1.0}}, "a", "channels[0].stochastic.rows[0]['1']"),
        ],
        ids=["flat", "nested"],
    )
    def test_fails_at_the_first_key_of_another_type(self, rows, to, path):
        with pytest.raises(ScenarioError) as exc_info:
            parse_scenario(rows_over(rows, to))
        assert exc_info.value.path == path
        assert exc_info.value.message == (
            "key '1' is of type str, but the object's first key 0 is of type int"
        )

    def test_objects_of_one_key_type_each_load_and_write(self):
        scenario = parse_scenario(rows_over({0: {0: 1.0}, 1: {"1": 1.0}}, "a"))
        assert json.loads(scenario.to_json())["channels"][0]["stochastic"]["rows"] == {
            "0": {"0": 1.0},
            "1": {"1": 1.0},
        }


def named_position(ids, key):
    """Position of the letter a JSON key names, entry by entry: its id, else
    int of a string key or str of an integer one; None when it names none."""
    if isinstance(key, bool) or not isinstance(key, (str, int)):
        return None
    ids = list(ids)
    if key in ids:
        return ids.index(key)
    if isinstance(key, int):
        other = str(key)
    else:
        try:
            other = int(key)
        except ValueError:
            return None
    return ids.index(other) if other in ids else None


def entry_by_entry(alphabet, objects, value_check):
    """The loader's rule for (path, object) pairs spelled out one entry at a
    time: each entry in order, its key before its value, a key naming the
    letter of an earlier key of its object failing. Returns the positions and
    checked values, or the first failure's (path, message)."""
    positions, values = [], []
    for path, raw in objects:
        seen = {}
        for key, value in raw.items():
            where = f"{path}[{key!r}]"
            k = named_position(alphabet.letter_ids, key)
            if k is None:
                return where, f"{key!r} is not a letter of alphabet '{alphabet.id}'"
            if k in seen:
                return where, f"{key!r} names the same letter as {seen[k]!r}"
            seen[k] = key
            try:
                values.append(value_check(value, where))
            except ScenarioError as e:
                return e.path, e.message
            positions.append(k)
    return positions, values


def letter_check(alphabet):
    def check(value, where):
        k = named_position(alphabet.letter_ids, value)
        if k is None:
            raise ScenarioError(where, f"{value!r} is not a letter of alphabet '{alphabet.id}'")
        return k

    return check


class TestBulkKeysAgreeEntryByEntry:
    """Random objects over grid and explicit alphabets: `_by_position`
    resolves keys and checks values in bulk, and must give what the entry by
    entry rule gives, down to the first failure's path and message."""

    # each alphabet with keys that name its letters, some two of them one letter
    ALPHABETS = [
        (
            make_quantized_range(0, 11, 1, id="grid"),
            ["0", "1", "01", "+1", " 2", "2", "11", "1_1", "٣", "3", "10"],
        ),
        (Alphabet("counted", tuple(map(str, range(12)))), ["0", "1", "2", "3", "10", "11"]),
        (
            Alphabet("mixed", ("a", 1, "2", 30, "x y", -4)),
            ["a", "1", "01", "2", "30", "030", "x y", "-4", "-04"],
        ),
    ]
    # keys that name no letter of one alphabet or another
    STRAYS = ["12", "", "abc", "1.0", " 3", "9" * 5000]
    NUMBERS = [0.5, 1, 0, -0.0, 10**400, math.nan, math.inf, True, "0.5", None, [1]]
    LETTERS = [0, 1, 11, 30, -4, "1", "01", "a", 12, "b", True, 1.0, None, [1], {"0": 1}]

    def cases(self, seed):
        rng = random.Random(seed)
        alphabet, good = rng.choice(self.ALPHABETS)

        def obj(values, faults):
            keys = {
                rng.choice(good if rng.random() > faults else self.STRAYS)
                for _ in range(rng.randint(0, 8))
            }
            return {
                key: rng.choice(values[4:] if rng.random() < faults else values[:4])
                for key in rng.sample(sorted(keys), len(keys))
            }

        return rng, alphabet, obj

    @pytest.mark.parametrize("seed", range(200))
    def test_one_object(self, seed):
        rng, alphabet, obj = self.cases(seed)
        target = rng.choice(self.ALPHABETS)[0]
        check, bulk, values = rng.choice(
            [
                (_as_number, _numbers, self.NUMBERS),
                (_as_obj, _objects, [{}, {"x": 1}, {}, {"y": {}}, [], 0, None]),
                (letter_check(target), _letters(target), self.LETTERS),
            ]
        )
        raw = obj(values, 0.1)
        expected = entry_by_entry(alphabet, [("p", raw)], check)
        try:
            got = _by_position(alphabet, raw, "p", bulk)
        except ScenarioError as e:
            got = (e.path, e.message)
        assert got == expected

    @pytest.mark.parametrize("seed", range(200))
    def test_nested_rows(self, seed):
        rng, alphabet, obj = self.cases(seed)
        rows = {f"r{i}": obj(self.NUMBERS, 0.03) for i in range(rng.randint(1, 5))}
        objects = [(f"p[{k!r}]", row) for k, row in rows.items()]
        expected = entry_by_entry(alphabet, objects, _as_number)
        try:
            got = _by_position(alphabet, rows, "p", _numbers, nested=True)
        except ScenarioError as e:
            got = (e.path, e.message)
        assert got == expected


def full() -> dict:
    """One valid declaration that uses every section and every optional key."""
    return {
        "meta": {
            "id": "every-element",
            "title": "All sections",
            "point_of_view": {"action": "search", "target": "data"},
        },
        "alphabets": [
            {"id": "a8", "uniform_count": 8},
            {
                "id": "a4",
                "letters": [{"id": "w", "probability": 0.25, "label": "west"}]
                + [{"id": x, "probability": 0.25} for x in "xyz"],
            },
            {"id": "a2", "uniform_range": {"min": 0, "max": 1, "step": 1}},
            {"id": "g", "uniform_range": {"min": 0, "max": 7, "step": 1}},
        ],
        "channels": [
            {
                "id": "first",
                "from": "a8",
                "to": "a4",
                "deterministic": {"map": {str(i): "wxyz"[i // 2] for i in range(8)}},
            },
            {
                "id": "second",
                "from": "a4",
                "to": "a2",
                "stochastic": {
                    "rows": {
                        "w": {"0": 1.0},
                        "x": {"0": 0.5, "1": 0.5},
                        "y": {"1": 1.0},
                        "z": {"1": 1.0},
                    }
                },
            },
            {
                "id": "leap",
                "from": "a8",
                "to": "a2",
                "deterministic": {"map": {str(i): str(i // 4) for i in range(8)}},
            },
            {
                "id": "plot",
                "from": "g",
                "to": "a2",
                "deterministic": {"quantizer": {"pixels": 2}},
            },
        ],
        "stages": [
            {"id": "s1", "forward": "first", "cost": 1.0},
            {"id": "s2", "forward": "second", "cost": 1.0, "recon": "bayes"},
            {"id": "leap-stage", "forward": "leap", "cost": 5.0},
        ],
        "pipelines": [
            {"id": "p", "stages": ["s1", "s2"], "prior": {str(i): 0.125 for i in range(8)}}
        ],
        "direct_routes": [{"id": "r", "stage": "leap-stage", "pipeline": "p"}],
        "judgments": [
            {
                "id": "j",
                "condition_a": True,
                "condition_b": "satisfied",
                "score": 3,
                "point_of_view": {
                    "action": "search",
                    "target": "data",
                    "refinement": "known reading",
                },
            }
        ],
        "axes": [
            {
                "id": "detail",
                "purpose": "zoom",
                "nodes": [
                    {"id": "fine", "kind": "visual", "information": 2.0, "attributes": ["marks"]},
                    {"id": "coarse", "kind": "data", "alphabet": "a2", "attributes": ["marks"]},
                ],
            }
        ],
    }


DROP = object()


def edit(*keys, to=DROP, data=None) -> dict:
    """``data`` (by default `full()`) with the element at ``keys`` set to
    ``to``, or deleted when ``to`` is omitted."""
    data = full() if data is None else data
    *parents, last = keys
    obj = data
    for key in parents:
        obj = obj[key]
    if to is DROP:
        del obj[last]
    else:
        obj[last] = to
    return data


# One row per check in the loader: the declaration, the exact JSON path and
# the exact message. Checks that another test already pins exactly (unknown
# top-level key, unknown channel endpoints, duplicate letter keys, the
# stochastic entry budget) have no row here.
ERRORS = {
    "root-not-object": (
        [1, 2, 3],
        "$",
        "expected an object, got list",
    ),
    "section-not-list": (
        edit("alphabets", to={}),
        "alphabets",
        "expected a list, got dict",
    ),
    "duplicate-id": (
        edit("stages", 2, "id", to="s1"),
        "stages[2].id",
        "duplicate stage id 's1'",
    ),
    "meta-not-object": (
        edit("meta", to="m"),
        "meta",
        "expected an object, got str",
    ),
    "meta-unknown-key": (
        edit("meta", "author", to="x"),
        "meta.author",
        "unknown key",
    ),
    "meta-id": (
        edit("meta", "id", to=7),
        "meta.id",
        "expected a non-empty string, got 7",
    ),
    "meta-title": (
        edit("meta", "title", to=""),
        "meta.title",
        "expected a non-empty string, got ''",
    ),
    "meta-point-of-view": (
        edit("meta", "point_of_view", "action", to="ponder"),
        "meta.point_of_view.action",
        "unknown action 'ponder' (expected one of analyze, search, query)",
    ),
    "alphabet-not-object": (
        edit("alphabets", 0, to=8),
        "alphabets[0]",
        "expected an object, got int",
    ),
    "alphabet-missing-id": (
        edit("alphabets", 0, "id"),
        "alphabets[0]",
        "missing required key 'id'",
    ),
    "alphabet-unknown-key": (
        edit("alphabets", 0, "size", to=8),
        "alphabets[0].size",
        "unknown key",
    ),
    "alphabet-id": (
        edit("alphabets", 0, "id", to=None),
        "alphabets[0].id",
        "expected a non-empty string, got None",
    ),
    "alphabet-no-mode": (
        edit("alphabets", 0, "uniform_count"),
        "alphabets[0]",
        "needs exactly one of 'letters', 'uniform_count', 'uniform_range'",
    ),
    "alphabet-two-modes": (
        edit("alphabets", 0, "uniform_range", to={"min": 0, "max": 1, "step": 1}),
        "alphabets[0]",
        "needs exactly one of 'letters', 'uniform_count', 'uniform_range'",
    ),
    "uniform-count-type": (
        edit("alphabets", 0, "uniform_count", to=1.5),
        "alphabets[0].uniform_count",
        "expected an integer, got 1.5",
    ),
    "uniform-count-zero": (
        edit("alphabets", 0, "uniform_count", to=0),
        "alphabets[0].uniform_count",
        "must be >= 1, got 0",
    ),
    "uniform-count-over": (
        edit("alphabets", 0, "uniform_count", to=2**24),
        "alphabets[0].uniform_count",
        "16777216 letters is more than the 2097152 any channel accepts",
    ),
    "uniform-range-not-object": (
        edit("alphabets", 2, "uniform_range", to=[0, 1, 1]),
        "alphabets[2].uniform_range",
        "expected an object, got list",
    ),
    "uniform-range-missing": (
        edit("alphabets", 2, "uniform_range", "step"),
        "alphabets[2].uniform_range",
        "missing required key 'step'",
    ),
    "uniform-range-unknown-key": (
        edit("alphabets", 2, "uniform_range", "count", to=2),
        "alphabets[2].uniform_range.count",
        "unknown key",
    ),
    "uniform-range-min": (
        edit("alphabets", 2, "uniform_range", "min", to="0"),
        "alphabets[2].uniform_range.min",
        "expected a number, got '0'",
    ),
    "uniform-range-max": (
        edit("alphabets", 2, "uniform_range", "max", to=True),
        "alphabets[2].uniform_range.max",
        "expected a number, got True",
    ),
    "uniform-range-step-infinite": (
        edit("alphabets", 2, "uniform_range", "step", to=float("inf")),
        "alphabets[2].uniform_range.step",
        "expected a finite number, got inf",
    ),
    "uniform-range-step-huge-int": (
        edit("alphabets", 2, "uniform_range", "step", to=10**400),
        "alphabets[2].uniform_range.step",
        f"expected a finite number, got {10**400!r}",
    ),
    "uniform-range-step-zero": (
        edit("alphabets", 2, "uniform_range", "step", to=0),
        "alphabets[2].uniform_range",
        "grid step must be positive, got 0.0",
    ),
    "letters-not-list": (
        edit("alphabets", 1, "letters", to={"w": 1.0}),
        "alphabets[1].letters",
        "expected a list, got dict",
    ),
    "letters-empty": (
        edit("alphabets", 1, "letters", to=[]),
        "alphabets[1].letters",
        "alphabet needs at least one letter",
    ),
    "letter-not-object": (
        edit("alphabets", 1, "letters", 1, to="x"),
        "alphabets[1].letters[1]",
        "expected an object, got str",
    ),
    "letter-missing-id": (
        edit("alphabets", 1, "letters", 1, "id"),
        "alphabets[1].letters[1]",
        "missing required key 'id'",
    ),
    "letter-unknown-key": (
        edit("alphabets", 1, "letters", 1, "weight", to=1.0),
        "alphabets[1].letters[1].weight",
        "unknown key",
    ),
    "letter-id-type": (
        edit("alphabets", 1, "letters", 1, "id", to=True),
        "alphabets[1].letters[1].id",
        "letter id must be a string or integer, got True",
    ),
    "letter-label": (
        edit("alphabets", 1, "letters", 0, "label", to=3),
        "alphabets[1].letters[0].label",
        "expected a non-empty string, got 3",
    ),
    "letter-probability": (
        edit("alphabets", 1, "letters", 1, "probability", to=None),
        "alphabets[1].letters[1].probability",
        "expected a number, got None",
    ),
    "letter-probabilities-partial": (
        edit("alphabets", 1, "letters", 3, "probability"),
        "alphabets[1].letters",
        "either every letter carries a probability or none do",
    ),
    "letter-duplicate-id": (
        edit("alphabets", 1, "letters", 3, "id", to="w"),
        "alphabets[1]",
        "alphabet 'a4' has duplicate letter ids",
    ),
    "letter-probabilities-sum": (
        edit("alphabets", 1, "letters", 3, "probability", to=0.5),
        "alphabets[1]",
        "mass sums to 1.25 (expected 1 within 1e-09)",
    ),
    "letter-probability-negative": (
        edit("alphabets", 1, "letters", 3, "probability", to=-0.25),
        "alphabets[1]",
        "letter 'z': negative mass -0.25; mass sums to 0.5 (expected 1 within 1e-09)",
    ),
    "channel-not-object": (
        edit("channels", 0, to=None),
        "channels[0]",
        "expected an object, got NoneType",
    ),
    "channel-missing-to": (
        edit("channels", 0, "to"),
        "channels[0]",
        "missing required key 'to'",
    ),
    "channel-unknown-key": (
        edit("channels", 0, "note", to="n"),
        "channels[0].note",
        "unknown key",
    ),
    "channel-id": (
        edit("channels", 0, "id", to=""),
        "channels[0].id",
        "expected a non-empty string, got ''",
    ),
    "channel-from": (
        edit("channels", 0, "from", to=3),
        "channels[0].from",
        "expected a non-empty string, got 3",
    ),
    "channel-to": (
        edit("channels", 0, "to", to=["a4"]),
        "channels[0].to",
        "expected a non-empty string, got ['a4']",
    ),
    "channel-no-kind": (
        edit("channels", 0, "deterministic"),
        "channels[0]",
        "needs exactly one of 'deterministic' or 'stochastic'",
    ),
    "channel-two-kinds": (
        edit("channels", 0, "stochastic", to={"rows": {}}),
        "channels[0]",
        "needs exactly one of 'deterministic' or 'stochastic'",
    ),
    "deterministic-not-object": (
        edit("channels", 0, "deterministic", to=[]),
        "channels[0].deterministic",
        "expected an object, got list",
    ),
    "deterministic-unknown-key": (
        edit("channels", 0, "deterministic", "table", to={}),
        "channels[0].deterministic.table",
        "unknown key",
    ),
    "deterministic-no-mode": (
        edit("channels", 0, "deterministic", "map"),
        "channels[0].deterministic",
        "needs exactly one of 'map' or 'quantizer'",
    ),
    "quantizer-not-object": (
        edit("channels", 3, "deterministic", "quantizer", to=2),
        "channels[3].deterministic.quantizer",
        "expected an object, got int",
    ),
    "quantizer-missing-pixels": (
        edit("channels", 3, "deterministic", "quantizer", "pixels"),
        "channels[3].deterministic.quantizer",
        "missing required key 'pixels'",
    ),
    "quantizer-unknown-key": (
        edit("channels", 3, "deterministic", "quantizer", "bins", to=2),
        "channels[3].deterministic.quantizer.bins",
        "unknown key",
    ),
    "quantizer-pixels-type": (
        edit("channels", 3, "deterministic", "quantizer", "pixels", to=2.0),
        "channels[3].deterministic.quantizer.pixels",
        "expected an integer, got 2.0",
    ),
    "quantizer-pixels-mismatch": (
        edit("channels", 3, "deterministic", "quantizer", "pixels", to=3),
        "channels[3].deterministic.quantizer",
        "channel 'plot': target 'a2' has 2 letters, quantizer was declared with pixels=3",
    ),
    "quantizer-non-grid-source": (
        edit("channels", 3, "from", to="a8"),
        "channels[3].deterministic.quantizer",
        "channel 'plot': quantizer needs a numeric grid source alphabet",
    ),
    "map-not-object": (
        edit("channels", 0, "deterministic", "map", to=["w"]),
        "channels[0].deterministic.map",
        "expected an object, got list",
    ),
    "map-unknown-source": (
        edit("channels", 0, "deterministic", "map", "8", to="w"),
        "channels[0].deterministic.map['8']",
        "'8' is not a letter of alphabet 'a8'",
    ),
    "map-unknown-image": (
        edit("channels", 0, "deterministic", "map", "3", to="v"),
        "channels[0].deterministic.map['3']",
        "'v' is not a letter of alphabet 'a4'",
    ),
    "map-image-type": (
        edit("channels", 0, "deterministic", "map", "3", to=None),
        "channels[0].deterministic.map['3']",
        "None is not a letter of alphabet 'a4'",
    ),
    "map-not-total": (
        edit("channels", 0, "deterministic", "map", "7"),
        "channels[0].deterministic.map",
        "channel 'first': no image for source letter '7'",
    ),
    "stochastic-not-object": (
        edit("channels", 1, "stochastic", to=1),
        "channels[1].stochastic",
        "expected an object, got int",
    ),
    "stochastic-missing-rows": (
        edit("channels", 1, "stochastic", "rows"),
        "channels[1].stochastic",
        "missing required key 'rows'",
    ),
    "stochastic-unknown-key": (
        edit("channels", 1, "stochastic", "cols", to={}),
        "channels[1].stochastic.cols",
        "unknown key",
    ),
    "rows-not-object": (
        edit("channels", 1, "stochastic", "rows", to=[]),
        "channels[1].stochastic.rows",
        "expected an object, got list",
    ),
    "row-unknown-source": (
        edit("channels", 1, "stochastic", "rows", "v", to={"0": 1.0}),
        "channels[1].stochastic.rows['v']",
        "'v' is not a letter of alphabet 'a4'",
    ),
    "row-not-object": (
        edit("channels", 1, "stochastic", "rows", "x", to=[0.5, 0.5]),
        "channels[1].stochastic.rows['x']",
        "expected an object, got list",
    ),
    "row-unknown-target": (
        edit("channels", 1, "stochastic", "rows", "x", "2", to=0.0),
        "channels[1].stochastic.rows['x']['2']",
        "'2' is not a letter of alphabet 'a2'",
    ),
    "row-entry-type": (
        edit("channels", 1, "stochastic", "rows", "x", "1", to="0.5"),
        "channels[1].stochastic.rows['x']['1']",
        "expected a number, got '0.5'",
    ),
    "row-entry-infinite": (
        edit("channels", 1, "stochastic", "rows", "x", "1", to=float("inf")),
        "channels[1].stochastic.rows['x']['1']",
        "expected a finite number, got inf",
    ),
    "rows-not-normalized": (
        edit("channels", 1, "stochastic", "rows", "x", "1", to=0.25),
        "channels[1].stochastic.rows",
        "channel 'second': row 'x' sums to 0.75 (expected 1 within 1e-09)",
    ),
    "rows-not-total": (
        edit("channels", 1, "stochastic", "rows", "z"),
        "channels[1].stochastic.rows",
        "channel 'second': no conditional row for source letter 'z'",
    ),
    "stage-not-object": (
        edit("stages", 0, to="s1"),
        "stages[0]",
        "expected an object, got str",
    ),
    "stage-missing-cost": (
        edit("stages", 0, "cost"),
        "stages[0]",
        "missing required key 'cost'",
    ),
    "stage-unknown-key": (
        edit("stages", 0, "inverse", to="bayes"),
        "stages[0].inverse",
        "unknown key",
    ),
    "stage-id": (
        edit("stages", 0, "id", to=1),
        "stages[0].id",
        "expected a non-empty string, got 1",
    ),
    "stage-forward-type": (
        edit("stages", 0, "forward", to=None),
        "stages[0].forward",
        "expected a non-empty string, got None",
    ),
    "stage-forward-unknown": (
        edit("stages", 0, "forward", to="ghost"),
        "stages[0].forward",
        "unknown channel 'ghost'",
    ),
    "stage-recon-type": (
        edit("stages", 1, "recon", to=False),
        "stages[1].recon",
        "expected a non-empty string, got False",
    ),
    "stage-recon-unknown": (
        edit("stages", 1, "recon", to="ghost"),
        "stages[1].recon",
        "unknown channel 'ghost' (or 'bayes')",
    ),
    "stage-recon-mismatch": (
        edit("stages", 1, "recon", to="leap"),
        "stages[1]",
        "reconstruction 'leap' is not oriented from 'a2' back to 'a4'",
    ),
    "stage-cost-type": (
        edit("stages", 0, "cost", to="1"),
        "stages[0].cost",
        "expected a number, got '1'",
    ),
    "stage-cost-negative": (
        edit("stages", 0, "cost", to=-2.0),
        "stages[0]",
        "stage cost must be finite and >= 0, got -2.0",
    ),
    "pipeline-not-object": (
        edit("pipelines", 0, to=["s1", "s2"]),
        "pipelines[0]",
        "expected an object, got list",
    ),
    "pipeline-missing-stages": (
        edit("pipelines", 0, "stages"),
        "pipelines[0]",
        "missing required key 'stages'",
    ),
    "pipeline-unknown-key": (
        edit("pipelines", 0, "cost", to=1.0),
        "pipelines[0].cost",
        "unknown key",
    ),
    "pipeline-id": (
        edit("pipelines", 0, "id", to=0),
        "pipelines[0].id",
        "expected a non-empty string, got 0",
    ),
    "pipeline-stages-type": (
        edit("pipelines", 0, "stages", to="s1"),
        "pipelines[0].stages",
        "expected a list, got str",
    ),
    "pipeline-one-stage": (
        edit("pipelines", 0, "stages", to=["s1"]),
        "pipelines[0].stages",
        "a pipeline needs at least two stages",
    ),
    "pipeline-no-stages-with-prior": (
        edit("pipelines", 0, "stages", to=[]),
        "pipelines[0].stages",
        "a pipeline needs at least two stages",
    ),
    "pipeline-stage-type": (
        edit("pipelines", 0, "stages", to=["s1", 3]),
        "pipelines[0].stages[1]",
        "expected a non-empty string, got 3",
    ),
    "pipeline-stage-unknown": (
        edit("pipelines", 0, "stages", to=["s1", "ghost"]),
        "pipelines[0].stages[1]",
        "unknown stage 'ghost'",
    ),
    "pipeline-broken-chain": (
        edit("pipelines", 0, "stages", to=["s2", "s1"], data=edit("pipelines", 0, "prior")),
        "pipelines[0]",
        "pipeline 'p': stage 0 ends in 'a2' but stage 1 starts from 'a8'",
    ),
    "prior-not-object": (
        edit("pipelines", 0, "prior", to=[0.125] * 8),
        "pipelines[0].prior",
        "expected an object, got list",
    ),
    "prior-unknown-letter": (
        edit("pipelines", 0, "prior", "8", to=0.0),
        "pipelines[0].prior['8']",
        "'8' is not a letter of alphabet 'a8'",
    ),
    "prior-value-type": (
        edit("pipelines", 0, "prior", "3", to=None),
        "pipelines[0].prior['3']",
        "expected a number, got None",
    ),
    "prior-partial": (
        edit("pipelines", 0, "prior", "7"),
        "pipelines[0].prior",
        "covers 7 of 8 letters of 'a8'",
    ),
    "prior-not-normalized": (
        edit("pipelines", 0, "prior", "7", to=0.5),
        "pipelines[0].prior",
        "mass sums to 1.375 (expected 1 within 1e-09)",
    ),
    "route-not-object": (
        edit("direct_routes", 0, to=[]),
        "direct_routes[0]",
        "expected an object, got list",
    ),
    "route-missing-pipeline": (
        edit("direct_routes", 0, "pipeline"),
        "direct_routes[0]",
        "missing required key 'pipeline'",
    ),
    "route-unknown-key": (
        edit("direct_routes", 0, "cost", to=1),
        "direct_routes[0].cost",
        "unknown key",
    ),
    "route-id": (
        edit("direct_routes", 0, "id", to=""),
        "direct_routes[0].id",
        "expected a non-empty string, got ''",
    ),
    "route-stage-type": (
        edit("direct_routes", 0, "stage", to=2),
        "direct_routes[0].stage",
        "expected a non-empty string, got 2",
    ),
    "route-pipeline-type": (
        edit("direct_routes", 0, "pipeline", to={}),
        "direct_routes[0].pipeline",
        "expected a non-empty string, got {}",
    ),
    "route-stage-unknown": (
        edit("direct_routes", 0, "stage", to="ghost"),
        "direct_routes[0].stage",
        "unknown stage 'ghost'",
    ),
    "route-pipeline-unknown": (
        edit("direct_routes", 0, "pipeline", to="ghost"),
        "direct_routes[0].pipeline",
        "unknown pipeline 'ghost'",
    ),
    "route-start-mismatch": (
        edit("direct_routes", 0, "stage", to="s2"),
        "direct_routes[0]",
        "stage 's2' starts from 'a4' but pipeline 'p' starts from 'a8'",
    ),
    "route-end-mismatch": (
        edit("direct_routes", 0, "stage", to="s1"),
        "direct_routes[0]",
        "stage 's1' ends in 'a4' but pipeline 'p' ends in 'a2'",
    ),
    "judgment-not-object": (
        edit("judgments", 0, to=3),
        "judgments[0]",
        "expected an object, got int",
    ),
    "judgment-missing-condition": (
        edit("judgments", 0, "condition_b"),
        "judgments[0]",
        "missing required key 'condition_b'",
    ),
    "judgment-unknown-key": (
        edit("judgments", 0, "weight", to=1),
        "judgments[0].weight",
        "unknown key",
    ),
    "judgment-id": (
        edit("judgments", 0, "id", to=None),
        "judgments[0].id",
        "expected a non-empty string, got None",
    ),
    "judgment-condition-a": (
        edit("judgments", 0, "condition_a", to=1),
        "judgments[0].condition_a",
        "expected true or false, got 1",
    ),
    "judgment-condition-b-type": (
        edit("judgments", 0, "condition_b", to=True),
        "judgments[0].condition_b",
        "expected a non-empty string, got True",
    ),
    "judgment-condition-b-unknown": (
        edit("judgments", 0, "condition_b", to="sideways"),
        "judgments[0].condition_b",
        "unknown value 'sideways' (expected satisfied, not_applicable, or negated)",
    ),
    "judgment-score-type": (
        edit("judgments", 0, "score", to=3.0),
        "judgments[0].score",
        "expected an integer, got 3.0",
    ),
    "judgment-score-inconsistent": (
        edit("judgments", 0, "score", to=1),
        "judgments[0].score",
        "1 is inconsistent with the conditions (expected 3)",
    ),
    "view-not-object": (
        edit("judgments", 0, "point_of_view", to="search data"),
        "judgments[0].point_of_view",
        "expected an object, got str",
    ),
    "view-missing-target": (
        edit("judgments", 0, "point_of_view", "target"),
        "judgments[0].point_of_view",
        "missing required key 'target'",
    ),
    "view-unknown-key": (
        edit("judgments", 0, "point_of_view", "goal", to="x"),
        "judgments[0].point_of_view.goal",
        "unknown key",
    ),
    "view-action-type": (
        edit("judgments", 0, "point_of_view", "action", to=1),
        "judgments[0].point_of_view.action",
        "expected a non-empty string, got 1",
    ),
    "view-target-type": (
        edit("judgments", 0, "point_of_view", "target", to=""),
        "judgments[0].point_of_view.target",
        "expected a non-empty string, got ''",
    ),
    "view-action-unknown": (
        edit("judgments", 0, "point_of_view", "action", to="ponder"),
        "judgments[0].point_of_view.action",
        "unknown action 'ponder' (expected one of analyze, search, query)",
    ),
    "view-target-unknown": (
        edit("judgments", 0, "point_of_view", "target", to="nowhere"),
        "judgments[0].point_of_view.target",
        "unknown target 'nowhere' (expected one of data, attributes, networks, spatial)",
    ),
    "view-refinement": (
        edit("judgments", 0, "point_of_view", "refinement", to=[]),
        "judgments[0].point_of_view.refinement",
        "expected a non-empty string, got []",
    ),
    "axis-not-object": (
        edit("axes", 0, to="detail"),
        "axes[0]",
        "expected an object, got str",
    ),
    "axis-missing-nodes": (
        edit("axes", 0, "nodes"),
        "axes[0]",
        "missing required key 'nodes'",
    ),
    "axis-unknown-key": (
        edit("axes", 0, "kind", to="data"),
        "axes[0].kind",
        "unknown key",
    ),
    "axis-id": (
        edit("axes", 0, "id", to=5),
        "axes[0].id",
        "expected a non-empty string, got 5",
    ),
    "axis-purpose": (
        edit("axes", 0, "purpose", to=None),
        "axes[0].purpose",
        "expected a non-empty string, got None",
    ),
    "axis-nodes-type": (
        edit("axes", 0, "nodes", to={}),
        "axes[0].nodes",
        "expected a list, got dict",
    ),
    "axis-one-node": (
        edit("axes", 0, "nodes", 1),
        "axes[0]",
        "axis 'detail' needs at least two nodes",
    ),
    "axis-duplicate-node": (
        edit("axes", 0, "nodes", 1, "id", to="fine"),
        "axes[0]",
        "axis 'detail' has duplicate node ids",
    ),
    "node-not-object": (
        edit("axes", 0, "nodes", 1, to="coarse"),
        "axes[0].nodes[1]",
        "expected an object, got str",
    ),
    "node-missing-kind": (
        edit("axes", 0, "nodes", 1, "kind"),
        "axes[0].nodes[1]",
        "missing required key 'kind'",
    ),
    "node-unknown-key": (
        edit("axes", 0, "nodes", 1, "label", to="c"),
        "axes[0].nodes[1].label",
        "unknown key",
    ),
    "node-id": (
        edit("axes", 0, "nodes", 1, "id", to=""),
        "axes[0].nodes[1].id",
        "expected a non-empty string, got ''",
    ),
    "node-kind-type": (
        edit("axes", 0, "nodes", 1, "kind", to=0),
        "axes[0].nodes[1].kind",
        "expected a non-empty string, got 0",
    ),
    "node-kind-unknown": (
        edit("axes", 0, "nodes", 1, "kind", to="sketch"),
        "axes[0].nodes[1].kind",
        "unknown kind 'sketch' (expected data or visual)",
    ),
    "node-information-type": (
        edit("axes", 0, "nodes", 0, "information", to="2"),
        "axes[0].nodes[0].information",
        "expected a number, got '2'",
    ),
    "node-information-negative": (
        edit("axes", 0, "nodes", 0, "information", to=-1.0),
        "axes[0].nodes[0]",
        "node 'fine': information must be finite and >= 0, got -1.0",
    ),
    "node-alphabet-type": (
        edit("axes", 0, "nodes", 1, "alphabet", to=2),
        "axes[0].nodes[1].alphabet",
        "expected a non-empty string, got 2",
    ),
    "node-alphabet-unknown": (
        edit("axes", 0, "nodes", 1, "alphabet", to="ghost"),
        "axes[0].nodes[1].alphabet",
        "unknown alphabet 'ghost'",
    ),
    "node-information-disagrees": (
        edit("axes", 0, "nodes", 1, "information", to=2.0),
        "axes[0].nodes[1].information",
        "2.0 disagrees with the entropy 1.0 of alphabet 'a2'",
    ),
    "node-no-information": (
        edit("axes", 0, "nodes", 1, "alphabet"),
        "axes[0].nodes[1]",
        "needs 'information' or an 'alphabet' reference",
    ),
    "node-attributes-type": (
        edit("axes", 0, "nodes", 1, "attributes", to="marks"),
        "axes[0].nodes[1].attributes",
        "expected a list, got str",
    ),
    "node-attribute-type": (
        edit("axes", 0, "nodes", 1, "attributes", to=["marks", 1]),
        "axes[0].nodes[1].attributes[1]",
        "expected a non-empty string, got 1",
    ),
}


class TestEveryErrorPath:
    def test_full_declaration_parses(self):
        scenario = parse(full())
        assert len(scenario.channels) == 4
        assert scenario.judgments[0].point_of_view is not None
        assert scenario.axes["detail"].nodes[1].information == 1.0

    @pytest.mark.parametrize("case", sorted(ERRORS))
    def test_fails_at_its_path_with_exit_one(self, case, tmp_path, capsys):
        data, path, message = ERRORS[case]
        e = err(data)
        assert (e.path, e.message) == (path, message)
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(data), encoding="utf-8")
        assert main(["validate", str(target)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


class TestStochasticEntryBudget:
    def budget_probe(self) -> dict:
        """4096 rows of 257 entries each: 4096 entries over the budget."""
        row = {str(j): 0.0 for j in range(257)} | {"0": 1.0}
        return {
            "alphabets": [
                {"id": "a", "uniform_count": 4096},
                {"id": "b", "uniform_count": 257},
            ],
            "channels": [
                {
                    "id": "wide",
                    "from": "a",
                    "to": "b",
                    "stochastic": {"rows": {str(i): row for i in range(4096)}},
                }
            ],
        }

    def test_refused_at_rows_before_any_entry_array(self):
        data = self.budget_probe()  # every row is one shared object
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError) as exc_info:
                parse_scenario(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        e = exc_info.value
        assert e.path == "channels[0].stochastic.rows"
        assert e.message == (
            f"channel 'wide': {4096 * 257} conditional entries, more than the "
            f"{MAX_STOCHASTIC_ENTRIES} supported"
        )
        # two alphabets and the row keys; one entry array would take 8 MiB
        assert peak < 2 << 20

    def test_refused_with_exit_one(self, tmp_path, capsys):
        target = tmp_path / "wide.json"
        target.write_text(json.dumps(self.budget_probe()), encoding="utf-8")
        assert main(["validate", str(target)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: channels[0].stochastic.rows: channel 'wide': 1052672 conditional entries"
        )


class TestStageValidation:
    def staged(self) -> dict:
        data = minimal()
        data["stages"] = [{"id": "s", "forward": "halve", "cost": 1.0}]
        return data

    def test_stage_parses_with_bayes_default(self):
        scenario = parse(self.staged())
        stage = scenario.stages["s"]
        assert stage.cost == 1.0
        assert stage.forward.id == "halve"

    def test_unknown_forward_channel(self):
        data = self.staged()
        data["stages"][0]["forward"] = "missing"
        e = err(data)
        assert e.path == "stages[0].forward"
        assert "unknown channel 'missing'" in str(e)

    def test_unknown_recon_channel_mentions_bayes(self):
        data = self.staged()
        data["stages"][0]["recon"] = "missing"
        assert "unknown channel 'missing' (or 'bayes')" in str(err(data))

    def test_cost_is_required(self):
        data = self.staged()
        data["stages"][0].pop("cost")
        assert "missing required key 'cost'" in str(err(data))

    def test_negative_cost_rejected(self):
        data = self.staged()
        data["stages"][0]["cost"] = -2.0
        assert "stages[0]" in err(data).path

    def test_duplicate_stage_id(self):
        data = self.staged()
        data["stages"].append(dict(data["stages"][0]))
        assert "duplicate stage id 's'" in str(err(data))


class TestPipelineValidation:
    def piped(self) -> dict:
        data = {
            "alphabets": [
                {"id": "a8", "uniform_count": 8},
                {"id": "a4", "uniform_count": 4},
                {"id": "a2", "uniform_count": 2},
            ],
            "channels": [
                {
                    "id": "first",
                    "from": "a8",
                    "to": "a4",
                    "deterministic": {"map": {str(i): str(i // 2) for i in range(8)}},
                },
                {
                    "id": "second",
                    "from": "a4",
                    "to": "a2",
                    "deterministic": {"map": {str(i): str(i // 2) for i in range(4)}},
                },
            ],
            "stages": [
                {"id": "s1", "forward": "first", "cost": 1.0},
                {"id": "s2", "forward": "second", "cost": 1.0},
            ],
            "pipelines": [{"id": "p", "stages": ["s1", "s2"]}],
        }
        return data

    def test_pipeline_parses(self):
        pipeline = parse(self.piped()).pipelines["p"]
        assert [stage.id for stage in pipeline.stages] == ["s1", "s2"]

    def test_needs_at_least_two_stages(self):
        data = self.piped()
        data["pipelines"][0]["stages"] = ["s1"]
        e = err(data)
        assert e.path == "pipelines[0].stages"
        assert "a pipeline needs at least two stages" in str(e)

    def test_unknown_stage_reference(self):
        data = self.piped()
        data["pipelines"][0]["stages"] = ["s1", "ghost"]
        assert "unknown stage 'ghost'" in str(err(data))

    def test_broken_chain_rejected(self):
        data = self.piped()
        data["pipelines"][0]["stages"] = ["s2", "s1"]
        assert "pipelines[0]" in err(data).path

    def test_prior_must_cover_the_alphabet(self):
        data = self.piped()
        data["pipelines"][0]["prior"] = {"0": 0.5, "1": 0.5}
        e = err(data)
        assert "covers 2 of 8 letters of 'a8'" in str(e)
        assert e.path == "pipelines[0].prior"

    def test_prior_must_normalize(self):
        data = self.piped()
        data["pipelines"][0]["prior"] = {str(i): 0.2 for i in range(8)}
        assert "mass sums to" in str(err(data))

    def test_explicit_prior_accepted(self):
        data = self.piped()
        prior = {str(i): (0.5 if i == 0 else 0.5 / 7) for i in range(8)}
        data["pipelines"][0]["prior"] = prior
        pipeline = parse(data).pipelines["p"]
        assert pipeline.prior is not None
        assert pipeline.prior["0"] == 0.5

    def test_declared_pmfs_are_scanned_once(self, monkeypatch):
        data = self.piped()
        data["alphabets"][0] = {
            "id": "a8",
            "letters": [{"id": str(i), "probability": 0.125} for i in range(8)],
        }
        data["pipelines"][0]["prior"] = {str(i): 0.5 / 7 if i else 0.5 for i in range(8)}
        scenario = parse(data)
        declared = [scenario.alphabets["a8"].pmf, scenario.pipelines["p"].prior]
        scanned = []
        fresh = Pmf.violations

        def counted(pmf):
            scanned.append(pmf)
            return fresh(pmf)

        monkeypatch.setattr(Pmf, "violations", counted)
        analyze(scenario)
        assert scanned  # the pmfs analyze derives are still checked
        assert not [pmf for pmf in scanned if any(pmf is d for d in declared)]

    def test_duplicate_pipeline_id(self):
        data = self.piped()
        data["pipelines"].append(dict(data["pipelines"][0]))
        assert "duplicate pipeline id 'p'" in str(err(data))


class TestDirectRouteValidation:
    def routed(self) -> dict:
        data = TestPipelineValidation().piped()
        data["channels"].append(
            {
                "id": "leap",
                "from": "a8",
                "to": "a2",
                "deterministic": {"map": {str(i): str(i // 4) for i in range(8)}},
            }
        )
        data["stages"].append({"id": "leap-stage", "forward": "leap", "cost": 5.0})
        data["direct_routes"] = [
            {"id": "r", "stage": "leap-stage", "pipeline": "p"}
        ]
        return data

    def test_route_parses(self):
        route = parse(self.routed()).direct_routes["r"]
        assert route.stage.id == "leap-stage"
        assert route.pipeline_id == "p"

    def test_unknown_pipeline(self):
        data = self.routed()
        data["direct_routes"][0]["pipeline"] = "ghost"
        assert "unknown pipeline 'ghost'" in str(err(data))

    def test_unknown_stage(self):
        data = self.routed()
        data["direct_routes"][0]["stage"] = "ghost"
        assert "unknown stage 'ghost'" in str(err(data))

    def test_endpoint_mismatch_start(self):
        data = self.routed()
        data["direct_routes"][0]["stage"] = "s2"
        e = err(data)
        assert "stage 's2' starts from 'a4' but pipeline 'p' starts from 'a8'" in str(e)

    def test_endpoint_mismatch_end(self):
        data = self.routed()
        data["channels"].append(
            {
                "id": "wide",
                "from": "a8",
                "to": "a4",
                "deterministic": {"map": {str(i): str(i // 2) for i in range(8)}},
            }
        )
        data["stages"].append({"id": "wide-stage", "forward": "wide", "cost": 1.0})
        data["direct_routes"][0]["stage"] = "wide-stage"
        assert "ends in 'a4' but pipeline 'p' ends in 'a2'" in str(err(data))


class TestJudgmentValidation:
    def judged(self) -> dict:
        return {
            "judgments": [
                {"id": "j", "condition_a": True, "condition_b": "satisfied"}
            ]
        }

    def test_judgment_parses_and_scores(self):
        judgment = parse(self.judged()).judgments[0]
        assert judgment.score == 3

    def test_not_applicable_scores_two(self):
        data = self.judged()
        data["judgments"][0]["condition_b"] = "not_applicable"
        assert parse(data).judgments[0].score == 2

    def test_short_alias_is_for_the_cli_only(self):
        data = self.judged()
        data["judgments"][0]["condition_b"] = "na"
        assert "unknown value 'na'" in str(err(data))

    def test_unknown_condition_b(self):
        data = self.judged()
        data["judgments"][0]["condition_b"] = "sideways"
        assert (
            "unknown value 'sideways' (expected satisfied, not_applicable, or negated)"
            in str(err(data))
        )

    def test_declared_score_checked(self):
        data = self.judged()
        data["judgments"][0]["score"] = 1
        e = err(data)
        assert "1 is inconsistent with the conditions (expected 3)" in str(e)

    def test_matching_declared_score_passes(self):
        data = self.judged()
        data["judgments"][0]["score"] = 3
        assert parse(data).judgments[0].score == 3

    def test_point_of_view_parses(self):
        data = self.judged()
        data["judgments"][0]["point_of_view"] = {
            "action": "search",
            "target": "data",
            "refinement": "known reading",
        }
        pov = parse(data).judgments[0].point_of_view
        assert pov is not None
        assert pov.refinement == "known reading"

    def test_unknown_action_lists_valid_ones(self):
        data = self.judged()
        data["judgments"][0]["point_of_view"] = {
            "action": "ponder",
            "target": "data",
        }
        e = err(data)
        assert "unknown action 'ponder' (expected one of" in str(e)

    def test_unknown_target_rejected(self):
        data = self.judged()
        data["judgments"][0]["point_of_view"] = {
            "action": "search",
            "target": "nowhere",
        }
        assert "unknown target 'nowhere'" in str(err(data))

    def test_duplicate_judgment_id(self):
        data = self.judged()
        data["judgments"].append(dict(data["judgments"][0]))
        assert "duplicate judgment id 'j'" in str(err(data))


class TestAxisValidation:
    def axed(self) -> dict:
        return {
            "axes": [
                {
                    "id": "detail",
                    "nodes": [
                        {
                            "id": "fine",
                            "kind": "visual",
                            "information": 4.0,
                            "attributes": ["marks"],
                        },
                        {
                            "id": "coarse",
                            "kind": "visual",
                            "information": 2.0,
                            "attributes": ["marks"],
                        },
                    ],
                }
            ]
        }

    def test_axis_parses(self):
        axis = parse(self.axed()).axes["detail"]
        assert [node.id for node in axis.nodes] == ["fine", "coarse"]
        assert classify_transition(axis, 0) is TransitionKind.REMOVES

    def test_unknown_node_kind(self):
        data = self.axed()
        data["axes"][0]["nodes"][0]["kind"] = "sketch"
        assert "unknown kind 'sketch' (expected data or visual)" in str(err(data))

    def test_node_needs_information_or_alphabet(self):
        data = self.axed()
        data["axes"][0]["nodes"][0].pop("information")
        e = err(data)
        assert "needs 'information' or an 'alphabet' reference" in str(e)
        assert e.path == "axes[0].nodes[0]"

    def test_alphabet_reference_supplies_information(self):
        data = self.axed()
        data["alphabets"] = [{"id": "states", "uniform_count": 16}]
        data["axes"][0]["nodes"][0] = {
            "id": "fine",
            "kind": "data",
            "alphabet": "states",
            "attributes": ["marks"],
        }
        node = parse(data).axes["detail"].nodes[0]
        assert node.information == pytest.approx(4.0, abs=1e-12)

    def test_information_must_agree_with_alphabet(self):
        data = self.axed()
        data["alphabets"] = [{"id": "states", "uniform_count": 16}]
        data["axes"][0]["nodes"][0]["alphabet"] = "states"
        data["axes"][0]["nodes"][0]["information"] = 3.0
        e = err(data)
        assert "disagrees with the entropy" in str(e)
        assert e.path == "axes[0].nodes[0].information"

    def test_unknown_alphabet_reference(self):
        data = self.axed()
        data["axes"][0]["nodes"][0].pop("information")
        data["axes"][0]["nodes"][0]["alphabet"] = "ghost"
        assert "unknown alphabet 'ghost'" in str(err(data))

    def test_single_node_axis_rejected(self):
        data = self.axed()
        data["axes"][0]["nodes"] = data["axes"][0]["nodes"][:1]
        assert "axes[0]" in err(data).path

    def test_duplicate_axis_id(self):
        data = self.axed()
        data["axes"].append(dict(data["axes"][0]))
        assert "duplicate axis id 'detail'" in str(err(data))


class TestMolecularAxesFixture:
    @pytest.fixture()
    def scenario(self, fixtures_dir):
        return load_scenario(fixtures_dir / "molecular_axes.json")

    def test_bond_structure_transitions(self, scenario):
        axis = scenario.axes["bond-structure"]
        assert [classify_transition(axis, i) for i in range(len(axis.nodes) - 1)] == [
            TransitionKind.REMOVES_AND_ADDS,
            TransitionKind.REMOVES,
        ]

    def test_surface_probe_transitions(self, scenario):
        axis = scenario.axes["surface-probe"]
        assert [classify_transition(axis, i) for i in range(len(axis.nodes) - 1)] == [
            TransitionKind.ADDS,
            TransitionKind.REMOVES,
        ]

    def test_ten_node_axis_classifies_every_step(self, scenario):
        axis = scenario.axes["assembly-detail"]
        assert len(axis.nodes) == 10
        kinds = [classify_transition(axis, i) for i in range(9)]
        assert kinds == [
            TransitionKind.REMOVES,
            TransitionKind.REMOVES,
            TransitionKind.REMOVES_AND_ADDS,
            TransitionKind.ADDS,
            TransitionKind.PRESERVES,
            TransitionKind.REMOVES,
            TransitionKind.REMOVES_AND_ADDS,
            TransitionKind.PRESERVES,
            TransitionKind.REMOVES,
        ]

    def test_derived_information_from_alphabet(self, scenario):
        node = scenario.axes["derived-info"].nodes[0]
        assert node.information == pytest.approx(4.0, abs=1e-12)

    def test_exactly_one_fork(self, scenario):
        forks = detect_fork(list(scenario.axes.values()))
        assert len(forks) == 1
        fork = forks[0]
        assert {fork.axis_a, fork.axis_b} == {"bond-structure", "surface-probe"}
        assert fork.shared_prefix == ("vdw-surface",)
        assert fork.fork_index == 1

    def test_overlapping_axes_cannot_combine(self, scenario):
        with pytest.raises(OverlappingAttributesError) as exc_info:
            combine_space(
                [scenario.axes["bond-structure"], scenario.axes["surface-probe"]]
            )
        assert exc_info.value.tag == "atom-marks"

    def test_disjoint_axes_combine(self, scenario):
        space = combine_space(
            [scenario.axes["bond-structure"], scenario.axes["coloring"]]
        )
        assert space.shape == (3, 2)
        assert space.point_count == 6


class TestRouteFixtures:
    def compared(self, fixtures_dir, name):
        scenario = load_scenario(fixtures_dir / name)
        route = next(iter(scenario.direct_routes.values()))
        pipeline = scenario.pipelines[route.pipeline_id]
        return compare_routes(pipeline, route.stage)

    def test_premises_hold_fixture(self, fixtures_dir):
        comparison = self.compared(fixtures_dir, "route_premises_hold.json")
        assert comparison.cost_premise_holds
        assert comparison.distortion_premise_holds
        assert comparison.premises_satisfied
        assert comparison.pipeline.ratio == pytest.approx(0.3, abs=1e-9)
        assert comparison.direct.ratio == pytest.approx(0.0, abs=1e-9)
        assert comparison.pipeline_preferred

    def test_cost_premise_violated_fixture(self, fixtures_dir):
        comparison = self.compared(fixtures_dir, "route_cost_premise_violated.json")
        assert not comparison.cost_premise_holds
        assert comparison.distortion_premise_holds
        assert not comparison.premises_satisfied
        # the ratios are still reported even though the comparison is flagged
        assert comparison.pipeline.ratio == pytest.approx(0.3, abs=1e-9)
        assert comparison.direct.ratio == pytest.approx(0.0, abs=1e-9)


class TestExemplars:
    def test_names_are_stable(self):
        assert EXEMPLAR_NAMES == (
            "barchart",
            "integer-plot",
            "random-plotter",
            "figure-scores",
        )

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="barchart"):
            exemplar("nope")

    def test_barchart_shape(self):
        scenario = exemplar("barchart")
        assert scenario.alphabets["readings"].n_letters == 1000001
        assert scenario.alphabets["bars"].n_letters == 1001
        assert scenario.alphabets["verdicts"].n_letters == 2
        assert "reading-to-verdict" in scenario.pipelines

    def test_integer_plot_is_lossless(self):
        scenario = exemplar("integer-plot")
        stage = next(iter(scenario.stages.values()))
        n = stage.forward.source.n_letters
        images = {stage.forward.image_of(x) for x in stage.forward.source.letter_ids}
        assert len(images) == n

    def test_figure_scores_judgments(self):
        scenario = exemplar("figure-scores")
        scores = {j.id: j.score for j in scenario.judgments}
        assert [scores[k] for k in sorted(scores)] == [3, 3, 3, 3, 2, 2, 1, 1, 0]

    def test_exemplars_parse_through_validator(self):
        for name in EXEMPLAR_NAMES:
            scenario = exemplar(name)
            assert math.isfinite(sum(a.n_letters for a in scenario.alphabets.values()))
