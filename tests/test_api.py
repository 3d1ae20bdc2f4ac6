"""The public API: what `absmeter` exports, and what the benchmark needs.

The benchmark in `perfbench/` reaches the package through `absmeter.<name>`
and `from absmeter import ...`. The unit suite does not run the benchmark,
so these tests read its sources instead: every name it references must
still resolve and, unless it is a submodule, be exported in `__all__`.
Each exported name loads its submodule on first use; the last tests pin
how that behaves.
"""

import ast
import importlib
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import absmeter

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_references() -> list[str]:
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "absmeter"
            ):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "absmeter":
                names.update(alias.name for alias in node.names)
    return sorted(names)


REFERENCES = perfbench_references()


def test_perfbench_references_were_found():
    assert "analyze" in REFERENCES


@pytest.mark.parametrize("name", REFERENCES)
def test_perfbench_reference_resolves_and_is_exported(name):
    # `from absmeter import cli` falls back to the submodule, as here
    try:
        value = getattr(absmeter, name)
    except AttributeError:
        value = importlib.import_module(f"absmeter.{name}")
    if not isinstance(value, types.ModuleType):
        assert name in absmeter.__all__


def test_every_export_resolves_exactly_once():
    repeated = [name for name, n in Counter(absmeter.__all__).items() if n > 1]
    assert repeated == []
    for name in absmeter.__all__:
        assert hasattr(absmeter, name), name


def test_every_export_is_the_object_its_module_defines():
    for module, names in absmeter._EXPORTS.items():
        defining = importlib.import_module(f"absmeter.{module}")
        for name in names:
            assert getattr(absmeter, name) is getattr(defining, name), name
            if hasattr(defining.__dict__[name], "__module__"):
                assert defining.__dict__[name].__module__ == defining.__name__, name
    assert set(absmeter.__all__) <= set(dir(absmeter))


def test_an_unknown_name_fails_as_on_any_module():
    with pytest.raises(AttributeError) as raised:
        absmeter.nope
    with pytest.raises(AttributeError) as stock:
        types.ModuleType("absmeter").nope
    assert str(raised.value) == str(stock.value) == "module 'absmeter' has no attribute 'nope'"


def test_from_absmeter_import_a_submodule_still_imports_it():
    probe = (
        "import sys, absmeter; assert 'absmeter.cli' not in sys.modules; "
        "from absmeter import cli; print(cli.__name__)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert (result.returncode, result.stdout) == (0, "absmeter.cli\n"), result.stderr


def test_a_name_read_once_is_then_a_plain_lookup(monkeypatch):
    calls = []
    load = absmeter.__getattr__

    def counted(name):
        calls.append(name)
        return load(name)

    monkeypatch.setattr(absmeter, "__getattr__", counted)
    monkeypatch.delitem(vars(absmeter), "entropy", raising=False)
    first = absmeter.entropy
    assert calls == ["entropy"]
    assert all(absmeter.entropy is first for _ in range(3))
    assert calls == ["entropy"]
