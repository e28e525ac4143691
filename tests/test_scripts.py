"""The scripts under scripts/ run end to end against the installed package."""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))


def test_case_study_script():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_case_study.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "selected: source3" in result.stdout.splitlines()
