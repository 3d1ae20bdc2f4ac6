"""Every JSON document absmeter writes, a report (`analyze --format json`)
or a declaration (`exemplar`, `Scenario.to_json`), is byte for byte
``json.dumps(value, indent=2, sort_keys=True)``, written by one function,
`scenario._dumps`, that hands every container of no container to the
standard library's C encoder."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absmeter import EXEMPLAR_NAMES, analyze, exemplar, load_scenario
from absmeter.report import _jsonable
from absmeter.scenario import _dumps
from test_golden import FIXTURES, GOLDEN, SCENARIOS, _load


def stdlib(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


EDGE_SCALARS = [
    -0.0,
    5e-324,
    1.7976931348623157e308,
    math.inf,
    -math.inf,
    math.nan,
    2**63,
    -(2**64) - 1,
    10**30,
    True,
    False,
    1,
    0,
    None,
    "",
    '"quoted"',
    "back\\slash",
    "\x00\x1f\n\t",
    "é€ \U0001f600",
]
EDGE_TEXT = ['"', "\\", "\x00", "\x7f", "\n", "é", "€", "\U0001f600", "\ud800"]

scalars = st.one_of(
    st.sampled_from(EDGE_SCALARS),
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(),
    st.text(st.sampled_from(EDGE_TEXT)),
)
# the keys of one object: stdlib sorts them, so they are of one orderable kind
key_kinds = st.sampled_from(
    [
        st.text(),
        st.text(st.sampled_from(EDGE_TEXT)),
        st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans()),
        st.none(),
    ]
)


def containers(children):
    lists = st.lists(children, max_size=6)
    objects = key_kinds.flatmap(lambda keys: st.dictionaries(keys, children, max_size=6))
    return st.one_of(lists, lists.map(tuple), objects)


values = st.recursive(scalars, containers, max_leaves=40)


class TestSameBytesAsTheStandardLibrary:
    @given(values)
    @settings(max_examples=500, deadline=None)
    def test_random_values(self, value):
        assert _dumps(value) == stdlib(value)

    @pytest.mark.parametrize("value", EDGE_SCALARS + [[], {}, (), [[]], {"a": {}}, [(), [{}]]])
    def test_edge_values(self, value):
        assert _dumps(value) == stdlib(value)
        assert _dumps([value, [value]]) == stdlib([value, [value]])
        assert _dumps({"k": value, "n": {"k": value}}) == stdlib({"k": value, "n": {"k": value}})

    @pytest.mark.parametrize(
        "value",
        [
            {1: 1, "a": 2},
            {1: [1], "a": [2]},
            {None: 0, "a": 1},
            {0: 0.5, "1": 0.5},
            {(1, 2): 1},
            {(1, 2): []},
            [object()],
            {"a": [object()]},
        ],
        ids=repr,
    )
    def test_what_the_standard_library_refuses_raises_type_error(self, value):
        with pytest.raises(TypeError):
            stdlib(value)
        with pytest.raises(TypeError):
            _dumps(value)

    @pytest.mark.parametrize("name", EXEMPLAR_NAMES)
    def test_every_exemplar_declaration(self, name):
        declared = exemplar(name)
        assert _dumps(declared.declaration) == stdlib(declared.declaration)
        assert declared.to_json() == stdlib(declared.declaration) + "\n"

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
    def test_every_fixture_declaration(self, path):
        raw = json.loads(path.read_text(encoding="utf-8"))
        assert _dumps(raw) == stdlib(raw)
        declared = load_scenario(path)
        assert declared.to_json() == stdlib(declared.declaration) + "\n"

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_every_golden_report_body(self, name):
        golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        assert _dumps(golden) == stdlib(golden)
        body = _jsonable(analyze(_load(name)).body)
        assert _dumps(body) == stdlib(body)


@pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="json has no C encoder here")
class TestWrittenByTheCEncoder:
    """With the pure-Python encoder that `json.dumps(..., indent=2)` takes
    before Python 3.13 made to raise, every document is still written."""

    @pytest.fixture(autouse=True)
    def no_python_encoder(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder was called")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refused)

    def test_exemplar_declaration(self):
        assert exemplar("random-plotter").to_json().startswith("{\n")

    @pytest.mark.parametrize("name", ["barchart", "route_premises_hold"])
    def test_report(self, name):
        assert analyze(_load(name)).to_json() == (GOLDEN / f"{name}.json").read_text(
            encoding="utf-8"
        )
