"""Every script in demos/, every Python example in README.md and every
quick-start command of README.md that finishes in seconds runs to
completion, and each README example prints what its comments say."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
# the CLI quick start's commands, less the searches that take more than
# seconds
QUICK_START = [shlex.split(line, comments=True) for line in re.search(
    r"^## Quick start \(CLI\)\n\n```sh\n(.*?)^```$", README, re.M | re.S
).group(1).splitlines() if "--long" not in line and "--size 8" not in line]


def _run(argv, codes=(0,)):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=60)
    assert proc.returncode in codes, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    _run([str(demo)])


@pytest.mark.parametrize("code", README_EXAMPLES, ids=[
    f"example{i}" for i in range(1, len(README_EXAMPLES) + 1)])
def test_readme_example_runs(code):
    # each ``print(...)  # expected`` line prints the comment up to " — "
    expected = re.findall(r"^print\(.*\)\s+# (.*?)(?: — .*)?$", code, re.M)
    assert _run(["-c", code]).splitlines() == expected


@pytest.mark.parametrize("argv", QUICK_START,
                         ids=[" ".join(argv[1:]) for argv in QUICK_START])
def test_readme_quick_start_runs(argv):
    # a failed check exits 1 (check a2, check b9 --system s); a usage
    # error would exit 2
    assert argv[0] == "relalg"
    _run(["-m", "relalg.cli", *argv[1:]], codes=(0, 1))
