"""Benchmark of the krawtchouk CLI, one fresh worker process per iteration.

Usage:
    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Closed loop, one client: the driver starts a worker process, waits for it
to exit, and only then starts the next. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
iterations and reports the per-layer metrics. Every CLI output is checked
against the oracles in workloads.py. Times are seconds at a reference speed
of the host (speed.py says why and how). The last line of stdout is one JSON
object; the run record and the spans are written under .bench_build/perfbench/.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_SPAWNS = 15  # set-up-only worker starts per run, besides one per iteration
RUN_LIMIT_S = 170.0  # a worker still running this long after the run started is killed
BUILD_SIZES = (10, 40, 80)
# printed and recorded with the end-to-end metrics, not declared: time as the host
# measured it, and the slowness it was divided by
INFORMATIONAL = {"host_wall_s": "s", "waited_s": "s", "slowness": "x"}


def run_worker(spec: dict, deadline: float) -> dict:
    """Run one worker process to its end and return its result and process metrics."""
    path = OUT / f"worker-{os.getpid()}.json"
    path.unlink(missing_ok=True)
    # bytecode is cached under OUT by the warm-up start, whatever the caller's settings
    env = {k: v for k, v in os.environ.items()
           if k not in ("KRAWTCHOUK_FORMAT", "PYTHONDONTWRITEBYTECODE")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    argv = [sys.executable, str(HERE / "worker.py"), str(path), json.dumps(spec)]
    quiet = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
             (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=quiet)
    status, usage = _wait(pid, deadline)
    try:
        result = json.loads(path.read_text()) if status == 0 else {}
    finally:
        path.unlink(missing_ok=True)
    # waits for a CPU come out of wall times, and every time is divided by the
    # host's slowness the worker read around it (speed.py)
    slow, setup = result.get("slowness"), None
    if result:
        setup = (result["imported"] - start - result["setup_ticks_s"]
                 - result["waited_at_import"]) / result["setup_slowness"]
    return {
        "exit_status": status,
        "setup_s": setup,
        "wall_s": (result["wall_s"] - result["waited_s"]) / slow if slow else None,
        "cpu_s": result["cpu_s"] / slow if slow else None,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "host_wall_s": result.get("wall_s"),
        "waited_s": result.get("waited_s"),
        "slowness": slow,
        "calls": result.get("calls", [{"argv": a, "rc": None, "stdout": ""}
                                      for a in spec.get("calls", [])]),
        "builds": result.get("builds", []),
        "spans": result.get("spans", []),
        "counts": result.get("counts", {}),
    }


def _wait(pid: int, deadline: float):
    """wait4 for the worker, killing it at the deadline; returns (exit status, rusage)."""
    try:
        while time.monotonic() < deadline:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                return os.waitstatus_to_exitcode(status), usage
            time.sleep(0.01)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage


class Run:
    """One benchmark run of one workload: its samples, checks and run record."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.calls = workloads.workload_calls(workload, seed)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.matrices = {}
        self.attempted = 0
        self.failures: list[str] = []  # one line per failed call or build
        self.errors: list[str] = []  # workers that did not exit cleanly, unsteady counts

    def oracles(self, builds: bool) -> None:
        """Oracle matrices for the workload's matrix calls and, if asked, the standalone builds."""
        pairs = {(workloads.MATRIX_N, r) for r in workloads.matrix_rs(self.seed)
                 if self.workload == "matrix-wide"}
        if builds:
            pairs |= {(N, workloads.matrix_rs(self.seed)[0]) for N in BUILD_SIZES}
        self.matrices = {(N, r): workloads.krawtchouk_matrix(N, r) for N, r in pairs}

    def spawn(self, spec: dict) -> dict:
        sample = run_worker(spec, self.deadline)
        if sample["exit_status"] != 0:
            self.errors.append(f"worker exited with status {sample['exit_status']}")
        for call in sample["calls"]:
            self.attempted += 1
            why = workloads.check_call(call["argv"], call["rc"], call["stdout"], self.matrices)
            if why:
                self.failures.append(f"{' '.join(call['argv'])}: {why}")
        for build in sample["builds"]:
            self.attempted += 1
            N, r = build["N"], Fraction(build["r"])
            why = workloads.check_matrix({"N": N, "entries": build["entries"]}, N,
                                         self.matrices[N, r])
            if why:
                self.failures.append(f"build_matrix({N}, {r}): {why}")
        return sample

    def iterate(self, specs: list[dict]) -> list[list[dict]]:
        """Spawn the given specs in turn, again and again, until the run's seconds are up."""
        rounds = []
        stop = time.monotonic() + self.seconds
        while not rounds or (time.monotonic() < stop and not (self.failures or self.errors)):
            rounds.append([self.spawn(spec) for spec in specs])
        return rounds

    def end_to_end(self) -> dict:
        self.oracles(builds=False)
        self.spawn({})  # warm-up: compiles bytecode into the cache, loads files
        setups = [self.spawn({})["setup_s"] for _ in range(SETUP_SPAWNS)]
        samples = [s for (s,) in self.iterate([{"calls": self.calls}])]
        setups += [s["setup_s"] for s in samples]
        metrics = {name: [s[name] for s in samples if s[name] is not None]
                   for name in ("wall_s", "cpu_s", "peak_rss_mb", *INFORMATIONAL)}
        metrics["setup_s"] = [s for s in setups if s is not None]
        return metrics

    def per_layer(self) -> dict:
        self.oracles(builds=True)
        self.spawn({})
        rounds = self.iterate([{"calls": self.calls}, {"calls": self.calls, "trace": True}])
        traced = [tracing for _, tracing in rounds]
        r = workloads.matrix_rs(self.seed)[0]
        probe = self.spawn({"calls": workloads.probe_calls(self.seed),
                            "builds": [[N, str(r)] for N in BUILD_SIZES]})
        self.write_spans(traced)

        per_iteration = [spans.layer_metrics(t["spans"], t["counts"]) for t in traced]
        metrics = {}
        for name in per_iteration[0]:
            values = [m[name] for m in per_iteration]
            timing = name.endswith("_s")
            if not timing and len(set(values)) > 1:
                self.errors.append(f"count {name} differs between traced iterations: {values}")
            metrics[name] = values if timing else values[:1]
        for suite, call in zip(workloads.SUITES, probe["calls"]):
            metrics[f"verify.{suite}.wall_s"] = [call["wall_s"]] if "wall_s" in call else []
        for N in BUILD_SIZES:
            metrics[f"matrices.build_N{N}_s"] = [b["seconds"] for b in probe["builds"] if b["N"] == N]
        untraced = [plain["host_wall_s"] for plain, _ in rounds if plain["host_wall_s"] is not None]
        traced_wall = [t["host_wall_s"] for t in traced if t["host_wall_s"] is not None]
        metrics["trace.overhead_s"] = ([statistics.median(traced_wall) - statistics.median(untraced)]
                                       if untraced and traced_wall else [])
        return metrics

    def write_spans(self, traced: list[dict]) -> None:
        """All spans of the run, parents as indices into the one list."""
        out = []
        for iteration, t in enumerate(traced):
            offset = len(out)
            out += [[n, a, b, None if p is None else p + offset, iteration, k]
                    for n, a, b, p, k in t["spans"]]
        path = OUT / f"{self.workload}-seed{self.seed}-spans.json"
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent",
                                               "iteration", "key"], "spans": out}))


def run_record(seed: int) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "git_revision": git_revision(), "seed": seed, "src_lines": src_lines}


def git_revision() -> str:
    """The checked-out commit; 'unknown' outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def benchmark(workload: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    """Run one workload; print its table and return its result object."""
    run = Run(workload, seed, seconds)
    samples = run.per_layer() if trace else run.end_to_end()
    shown = declared if trace else declared | INFORMATIONAL
    if set(samples) != set(shown):
        raise RuntimeError(f"metrics {sorted(set(samples) ^ set(shown))} "
                           "are not both measured and declared in BENCHMARK.json")
    failed = len(run.failures)
    record = run_record(seed) | {"workload": workload, "trace": trace, "seconds": seconds,
                                 "argv": run.calls, "samples": samples,
                                 "attempted": run.attempted, "failures": run.failures,
                                 "errors": run.errors}

    print(f"== {workload}  seed {seed}  python {record['python']}  nproc {record['nproc']}  "
          f"git {record['git_revision'][:12]}  src {record['src_lines']} lines")
    for argv in run.calls:
        print("   krawtchouk " + " ".join(argv))
    print(f"   {'metric':<34} {'median':>14} {'min':>12} {'max':>12} {'n':>4}  unit")
    metrics = {}
    for name, unit in shown.items():
        values = samples[name]
        if not values:  # every worker that should have measured it failed
            run.errors.append(f"no samples of {name}")
            print(f"   {name:<34} {'no samples':>14}")
            continue
        if name in declared:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"   {name:<34} {statistics.median(values):>14.6g} {min(values):>12.6g} "
              f"{max(values):>12.6g} {len(values):>4}  {unit}")
    print(f"   {'failed_share':<34} {failed / max(run.attempted, 1):>14.6g}"
          f"   ({failed} of {run.attempted} calls failed)")
    for why in (run.errors + run.failures)[:10]:
        print(f"   FAILED {why}")
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return {"correct": not failed and not run.errors, "attempted": run.attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "krawtchouk" / "cli.py").is_file():
        sys.stderr.write(f"no krawtchouk sources under {ROOT / 'src'}; "
                         "run from a checkout of the repository\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(parents=True, exist_ok=True)
    chosen = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: benchmark(w, args.seed, args.seconds, bool(args.trace), declared)
               for w in chosen}
    if args.workload != "all":
        result = results[args.workload]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
