"""The scripts in demos/ run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_covered():
    assert [d.name for d in DEMOS] == [
        "01_methods_comparison.py",
        "02_cohort_pipeline.py",
        "03_surrogate_gap.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    argv = [sys.executable, str(demo)]
    if demo.name == "03_surrogate_gap.py":
        argv += ["--out-dir", str(tmp_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
