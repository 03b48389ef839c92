"""The experiment scripts run end to end and exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cycloskew

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [["recipe_sweep.py", "300"], ["reproduce_tables.py"]])
def test_script_exits_zero(argv):
    src = str(Path(cycloskew.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
