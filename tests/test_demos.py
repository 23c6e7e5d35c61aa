import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the two demos that build tables take a size; keep them small
ARGS = {"03_estimate_accuracy.py": ["2000"], "04_bound_audit.py": ["5000"]}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, src_env):
    proc = subprocess.run([sys.executable, str(demo), *ARGS.get(demo.name, [])],
                          env=src_env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
