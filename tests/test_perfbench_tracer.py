"""The benchmark's span tracer wraps package functions by name; a rename breaks it.

``perfbench/run.py --trace 1`` installs the tracer in each worker after
``import krawtchouk.cli``. This test does the same in a fresh interpreter, so
a renamed or deleted function that the tracer wraps fails here.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tracer_installs_on_the_package_names():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    result = subprocess.run(
        [sys.executable, "-c", "import krawtchouk.cli, spans; spans.install()"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
