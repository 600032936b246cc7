"""Every demo script runs to completion and prints its walkthrough.

Each demo runs in its own interpreter with `PYTHONPATH=src`, as the
README tells a reader to run it, and its output must match the digest
recorded in `fingerprints.json`. `overtake_styles.py` is left out: it
simulates the overtake scenario once per style, about 5 s, and the
closed loop it drives is covered by the acceptance tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import check_fingerprints

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("decision_matrix.py", "driver_step_response.py", "field_map.py",
         "merge_run.py", "plan_one_step.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    check_fingerprints({"demos": {name: done.stdout.encode()}})
