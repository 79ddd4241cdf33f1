import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS, ids=lambda block: block.splitlines()[0])
def test_readme_python_block_runs(block):
    # A fresh namespace each, so a block that names a deleted function or
    # argument fails here.
    exec(compile(block, "README.md", "exec"), {})
