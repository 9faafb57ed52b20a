"""The demos run to completion against this checkout's package.

demos/04 and demos/05 train the model for up to a minute each and are
marked slow.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_DEMOS = ["01_autodiff_basics.py", "02_data_pipeline.py",
              "03_augmentations_and_corruption.py", "06_robustness_and_metrics.py"]
TRAINING_DEMOS = ["04_train_augmenter.py", "05_two_phase_training.py"]


def run_demo(demo, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, f"{demo} exited {proc.returncode}:\n{proc.stderr}"


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo):
    run_demo(demo, timeout=120)


@pytest.mark.slow
@pytest.mark.parametrize("demo", TRAINING_DEMOS)
def test_training_demo_runs(demo):
    run_demo(demo, timeout=600)
