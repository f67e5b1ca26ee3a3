"""Every script in demos/ and every Python example in README.md runs to
completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```$",
                             (ROOT / "README.md").read_text(), re.M | re.S)


def _run(argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    _run([str(demo)])


@pytest.mark.parametrize("code", README_EXAMPLES, ids=[
    f"example{i}" for i in range(1, len(README_EXAMPLES) + 1)])
def test_readme_example_runs(code):
    _run(["-c", code])
