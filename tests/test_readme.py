"""README.md's python examples run as written against the package under
test, so an API change cannot leave them broken unnoticed."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    re.MULTILINE | re.DOTALL)


def test_the_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, child_env, tmp_path):
    proc = subprocess.run([sys.executable, "-c", BLOCKS[index]],
                          capture_output=True, text=True, env=child_env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
