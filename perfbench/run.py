"""The indgl2 benchmark: `indgl2 verify` wall time on two workloads.

Run from the root of a checkout:

    python3 perfbench/run.py                      # every workload in turn
    python3 perfbench/run.py --workload deep-trunc --seed 1 --seconds 60 --trace 0

Workloads (see workloads.py): `frontier-q25`, `deep-trunc`.

Load model: closed loop, one caller.  Every measured run of the workload is a
fresh process (worker.py), because users pay a cold start on every CLI call
and the module-level caches of indgl2 would otherwise carry state and memory
from one run to the next.  Each process takes the path `indgl2 verify`
takes: `cli.config_from_mapping`, `Config.build`, `cli.run`,
`cli.emit(..., "json")`, one configuration after another.

With `--trace 0` the benchmark starts measured processes one after another
while the next is expected to end within `--seconds` (at least one), with
SETUP_SAMPLES processes that stop after set-up around them, and reports
end-to-end metrics:
  setup_s      process start until every context is built (imports, config
               parsing, Config.build); median over all processes of the run
  verify_s     wall time of cli.run plus cli.emit, summed over the configs;
               median over the measured processes
  peak_rss_mb  the measured process's own ru_maxrss; median

With `--trace 1` it runs the workload once untraced and once with the span
tracer of tracing.py, times 400 x 400 kernels in a third process, and reports
per-layer metrics; `trace.overhead_s` is traced minus untraced verify_s.

Every report is checked: the verdict must be `pass` and the dims of every
record must equal those in expected.json.  A crash, a failed verdict or a
mismatch counts as failed; check_fail_ratio is failed / attempted.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The spans of a traced run are written under
`.bench_out/`.
"""

import argparse
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 10  # set-up is short, so one slow second of a shared machine moves a single sample a lot
DEADLINE_S = 170  # the whole run, including every child process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> tuple:
    """Environment for the workers: thread pools capped at nproc, default kernels."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.pop("INDGL2_BACKEND", None)
    for var in THREAD_VARS:
        cur = env.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= nproc):
            env[var] = str(nproc)
    return env, nproc


def environment_record(env: dict, nproc: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": nproc,
        **{var: env[var] for var in THREAD_VARS},
    }


class Runner:
    def __init__(self, workload: str, seed: int, env: dict):
        self.workload = workload
        self.seed = seed
        self.env = env
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def spawn(self, mode: str, trace_out: Path | None = None) -> dict | None:
        """Run one worker to completion; None if it crashed or timed out."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload, "--seed", str(self.seed), "--mode", mode]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["--spawned-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(self.deadline - time.monotonic(), 1),
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} worker timed out")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.problems.append(f"{mode} worker exited {proc.returncode}: {tail[0]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup(self) -> dict | None:
        """One process that stops after set-up; a crash counts as a failed check."""
        result = self.spawn("setup")
        self.attempted += 1
        self.failed += result is None
        return result

    def verify(self, trace_out: Path | None = None) -> dict | None:
        """One measured process of the workload, with its reports checked."""
        result = self.spawn("verify", trace_out)
        attempted, failed, problems = workloads.check(self.workload, result["reports"] if result else [])
        self.attempted += attempted
        self.failed += failed
        self.problems += problems
        return result


def measure(runner: Runner, seconds: int) -> dict:
    # half the set-up samples before the measured processes and half after, so
    # that one slow spell of a shared machine does not colour all of them
    setups = [runner.setup() for _ in range(SETUP_SAMPLES // 2)]
    results = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        result = runner.verify()
        if result:
            results.append(result)
        took = time.monotonic() - t0
        if result is None or time.monotonic() - start + took > seconds:
            break
    setups += [runner.setup() for _ in range(SETUP_SAMPLES // 2)]
    if not results:
        return {}
    setups = [r["setup_s"] for r in setups + results if r]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "verify_s": (statistics.median(r["verify_s"] for r in results), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }


def measure_traced(runner: Runner) -> dict:
    plain = runner.verify()
    OUT_DIR.mkdir(exist_ok=True)
    traced = runner.verify(OUT_DIR / f"spans-{runner.workload}-seed{runner.seed}.jsonl")
    kernels = runner.spawn("kernels")
    if not (plain and traced and kernels):
        return {}
    metrics = {name: tuple(v) for name, v in traced["metrics"].items()}
    metrics.update((name, tuple(v)) for name, v in kernels["metrics"].items())
    overhead = traced["verify_s"] - plain["verify_s"]
    metrics["trace.verify_s_untraced"] = (plain["verify_s"], "s")
    metrics["trace.verify_s_traced"] = (traced["verify_s"], "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / plain["verify_s"], "ratio")
    return metrics


def run_workload(workload: str, args, env: dict, nproc: int) -> dict | None:
    """Measure one workload and print its metrics; the result object, or None."""
    runner = Runner(workload, args.seed, env)
    if runner.spawn("setup") is None:  # warm-up: compiles bytecode, fills the page cache
        print("\n".join(runner.problems), file=sys.stderr)
        return None
    metrics = measure_traced(runner) if args.trace else measure(runner, args.seconds)
    for problem in runner.problems:
        print(f"check: {workload}: {problem}", file=sys.stderr)
    if not metrics:
        print(f"{workload}: no measured process completed", file=sys.stderr)
        return None

    print(json.dumps({"workload": workload, "seed": args.seed, "env": environment_record(env, nproc)}))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    ratio = runner.failed / max(runner.attempted, 1)
    print(f"{'check_fail_ratio':48s} {ratio:>16.6g} ratio ({runner.failed} of {runner.attempted} checks failed)")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=60, help="how long the measured processes may run, in total")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "indgl2" / "cli.py").is_file():
        print(f"no indgl2 sources under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    env, nproc = child_env()
    results = {}
    for workload in [args.workload] if args.workload else list(workloads.WORKLOADS):
        result = run_workload(workload, args, env, nproc)
        if result is None:
            return 1
        results[workload] = result
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:  # one object for all workloads, metrics prefixed with the workload name
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
