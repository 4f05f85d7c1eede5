"""Every demo script runs to completion against the in-tree package."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run(
        [sys.executable, script], cwd=tmp_path, capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
