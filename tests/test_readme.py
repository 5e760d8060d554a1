"""The python code blocks of README.md run as written.

A ``print(...)`` line that ends in a comment documents its output; the
block must print exactly those comments, in order.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                    flags=re.S | re.M)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block):
    documented = re.findall(r"^print\(.*\)\s+#\s*(.+?)\s*$", block,
                            flags=re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == documented
