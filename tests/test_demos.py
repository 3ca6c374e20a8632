"""Every demo script runs to completion against the current library API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        TMPDIR=str(tmp_path),
        PYTHONPATH=os.pathsep.join(p for p in pythonpath if p),
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("spamlab-demo-*")) == []
