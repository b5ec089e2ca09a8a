"""Every script in demos/ runs to completion from the repository root."""
from pathlib import Path

import pytest

from conftest import run_fresh

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_zero(script):
    proc = run_fresh([str(script)], cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
