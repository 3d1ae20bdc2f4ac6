"""The public API: what `absmeter` exports, and what the benchmark needs.

The benchmark in `perfbench/` reaches the package through `absmeter.<name>`
and `from absmeter import ...`. The unit suite does not run the benchmark,
so these tests read its sources instead: every name it references must
still resolve and, unless it is a submodule, be exported in `__all__`.
"""

import ast
import importlib
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
