"""Every script in demos/, and README's quick start, runs to completion from
the repository root."""
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
