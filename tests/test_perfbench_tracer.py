"""The benchmark's span tracer wraps package functions by name; a rename breaks it.

``perfbench/run.py --trace 1`` installs the tracer in each worker after
``import krawtchouk.cli`` and then runs the CLI through it. This test does the
same in a fresh interpreter, so a renamed or deleted function that the tracer
wraps, or a wrapper that breaks the traced path, fails here.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import contextlib, io, json
import krawtchouk.cli, spans
tracer = spans.install()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [krawtchouk.cli.main(["verify", "--suite", "all", "--max-n", "3", "--format", "json"]),
             krawtchouk.cli.main(["algebra", "--family", "T", "--n", "3", "--check",
                                  "--format", "json"])]
print(json.dumps({"codes": codes, "cases": tracer.counts["report.cases"],
                  "spans": sorted({span[0] for span in tracer.spans})}))
"""


def test_perfbench_tracer_installs_on_the_package_names():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    result = subprocess.run(
        [sys.executable, "-c", TRACED_RUN],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    traced = json.loads(result.stdout)
    assert traced["codes"] == [0, 0]
    assert traced["cases"] > 0
    assert "algebra.analyze_family" in traced["spans"]
