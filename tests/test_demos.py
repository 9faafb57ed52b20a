"""The fast demos run to completion against this checkout's package.

demos/04 and demos/05 train for minutes and stay out of this suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_DEMOS = ["01_autodiff_basics.py", "02_data_pipeline.py",
              "03_augmentations_and_corruption.py", "06_robustness_and_metrics.py"]


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, f"{demo} exited {proc.returncode}:\n{proc.stderr}"
