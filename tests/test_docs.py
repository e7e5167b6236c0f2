"""The python examples in README.md and PAPER.md run as written."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["README.md", "PAPER.md"])
def test_python_example_runs(name):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / name).read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, name, "exec"), {})
