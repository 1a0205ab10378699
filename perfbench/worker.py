"""One benchmark iteration in a fresh process.

Usage: worker.py RESULT_PATH SPEC_JSON

Imports krawtchouk.cli first, so the parent can time set-up from process
start to IMPORTED, with the host's speed read just before and after. Then it
runs each argv list of the spec through ``krawtchouk.cli.main``, capturing
stdout, with the speed read on a timer or, in a traced iteration, under the
span tracer instead, and times standalone matrix builds. The result goes to
RESULT_PATH as JSON.
"""
import sys
import time

import speed

SPEED = speed.Sampler()
BEFORE_IMPORT = SPEED.measure(11)  # the first, cold, is timed out of set-up but not used

import krawtchouk.cli  # noqa: E402

IMPORTED = time.perf_counter()
WAITED_AT_IMPORT = speed.waited_s()
SETUP_SPEED = BEFORE_IMPORT[1:] + SPEED.measure(10)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402


def run_call(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = krawtchouk.cli.main(argv)
    except SystemExit as exc:  # argparse rejects an argument
        rc = exc.code
    except Exception:
        rc, error = None, traceback.format_exc()
    return {"argv": argv, "rc": rc, "error": error,
            "wall_s": time.perf_counter() - t0, "stdout": out.getvalue()}


def time_build(N: int, r: str) -> dict:
    from krawtchouk import build_matrix

    t0 = time.perf_counter()
    M = build_matrix(N, Fraction(r))
    seconds = time.perf_counter() - t0
    return {"N": N, "r": r, "seconds": seconds,
            "entries": [[str(v) for v in row] for row in M.entries]}


def cpu_time() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main() -> None:
    result_path, spec = sys.argv[1], json.loads(sys.argv[2])
    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.install()
    first = len(SPEED.samples)
    waited, cpu, t0 = speed.waited_s(), cpu_time(), time.perf_counter()
    if tracer is None:
        SPEED.start()
    try:
        calls = [run_call(argv) for argv in spec.get("calls", [])]
    finally:
        SPEED.stop()
    wall, cpu = time.perf_counter() - t0, cpu_time() - cpu
    waited = speed.waited_s() - waited
    ticks = SPEED.samples[first:]
    ticks_wall, ticks_cpu = speed.spent(ticks)
    result = {"imported": IMPORTED, "waited_at_import": WAITED_AT_IMPORT,
              "setup_ticks_s": speed.spent(BEFORE_IMPORT)[0],
              "setup_slowness": speed.slowness(SETUP_SPEED),
              "wall_s": wall - ticks_wall, "waited_s": waited, "cpu_s": cpu - ticks_cpu,
              "slowness": speed.slowness(ticks) if ticks else None,
              "calls": calls,
              "builds": [time_build(N, r) for N, r in spec.get("builds", [])]}
    if tracer is not None:
        result["spans"], result["counts"] = tracer.spans, tracer.counts
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
