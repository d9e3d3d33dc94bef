"""The narrated scripts in demos/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = [
    "01_set_algebra_tour.py",
    "02_collections_and_consistency.py",
    "03_generation_game.py",
    "04_adversarial_limits.py",
]


@pytest.mark.parametrize("script", SCRIPTS)
def test_narrated_demo_exits_0(script):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
