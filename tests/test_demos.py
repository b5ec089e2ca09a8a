"""Every script in demos/, README's quick start and README's command-line
examples run to completion from the repository root."""
import shlex
from pathlib import Path

import pytest

from conftest import run_fresh

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_zero(script):
    proc = run_fresh([str(script)], cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_fresh(["-c", code], cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_command_line_examples_run(tmp_path):
    # every `mbpm ...` line of README's sh blocks, its reports under tmp_path
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = [line for block in readme.split("```sh\n")[1:]
             for line in block.split("```", 1)[0].splitlines() if line.startswith("mbpm ")]
    assert lines
    for i, line in enumerate(lines):
        argv = ["-m", "mbpm.cli", *shlex.split(line)[1:], "--out", str(tmp_path / str(i))]
        proc = run_fresh(argv, cwd=ROOT, timeout=600)
        assert proc.returncode == 0, (line, proc.stderr[-2000:])
