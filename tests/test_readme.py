"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_python_blocks_print_the_documented_values():
    blocks = python_blocks()
    assert blocks
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().split("\n") == ["1.0", "0.0", "0.5", "2.0 5.0 0.4", ""]
