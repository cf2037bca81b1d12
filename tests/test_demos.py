"""Smoke test: every script under demos/ runs and prints its key result."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = {
    "01_two_cocycle_bases.py": "g1:2 rep:1 equals BN_4 ⊗ 1_2, as documented.",
    "02_three_dimensional_search.py": "improper hits: 64, proper hits: 0",
    "03_oracle_crosscheck.py": "model path and raw bar complex agree on every case.",
    "04_sampling_large_spans.py": "rerun with seed 1 reproduces the same counts:",
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name):
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env,
                          encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith(DEMOS[name]) for line in proc.stdout.splitlines())
