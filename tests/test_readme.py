"""Every ```python block of README.md runs in a fresh child, with `src` as
its PYTHONPATH, and exits 0: a name the library example calls cannot leave
the package while the README still calls it."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    child = subprocess.run([sys.executable, "-c", block], capture_output=True,
                           text=True, cwd=ROOT,
                           env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert child.returncode == 0, child.stderr
