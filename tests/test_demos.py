"""Smoke test: every numbered demo runs to completion.

The demos and the fixtures are copied into a temporary tree first,
because some demos write ``demos/out/`` next to themselves.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("[0-9]*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(tmp_path, demo):
    shutil.copytree(REPO / "fixtures", tmp_path / "fixtures")
    (tmp_path / "demos").mkdir()
    for script in (REPO / "demos").glob("*.py"):
        shutil.copy(script, tmp_path / "demos" / script.name)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "demos" / demo.name)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
