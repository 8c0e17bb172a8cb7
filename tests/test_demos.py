"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import expwell

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo, tmp_path):
    # run from a temporary directory: a demo may write a figure there
    env = dict(os.environ)
    src = str(Path(expwell.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
