"""One fresh process of the indgl2 benchmark; `run.py` starts it.

Modes:
  setup    import indgl2, parse the workload's configs and build their contexts
  verify   setup, then `cli.run` and `cli.emit(..., "json")` for each config,
           in the order `indgl2 verify` takes them
  kernels  time 400 x 400 `_kernels.matmul` and `_kernels.rref` over F_3 and F_9

`--spawned-ns` is the parent's CLOCK_MONOTONIC reading just before it started
this process; setup time counts from there, so it includes interpreter start
and imports.  `--trace-out` turns on the span tracer and names the file the
spans are written to.  The result is one JSON object on the last line of
standard output.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
KERNEL_SIZE = 400
KERNEL_REPEATS = 3


def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    from indgl2 import cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "indgl2":
        raise ImportError(f"indgl2 was imported from {cli.__file__}, not from this checkout")
    return cli


def kernel_shapes(seed: int) -> dict:
    from indgl2 import _kernels
    from indgl2.gf import FieldCtx

    rng = np.random.default_rng(seed)
    out = {}
    for label, field in (("f3", FieldCtx(3, 1).fq), ("f9", FieldCtx(3, 2).fq)):
        A, B = rng.integers(0, field.order, size=(2, KERNEL_SIZE, KERNEL_SIZE)).astype(np.int32)
        for kernel, call in (("matmul", lambda: _kernels.matmul(A, B, field)), ("rref", lambda: _kernels.rref(A, field))):
            times = []
            for _ in range(KERNEL_REPEATS):
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            out[f"kernels.shape{KERNEL_SIZE}.{kernel}_{label}_ms"] = (statistics.median(times) * 1e3, "ms")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "verify", "kernels"))
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    cli = import_cli()
    if args.mode == "kernels":
        print(json.dumps({"metrics": kernel_shapes(args.seed)}))
        return 0

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    mappings = workloads.configs(args.workload, args.seed)
    cfgs = []
    for i, mapping in enumerate(mappings):
        if tracer:
            tracer.run_id = i
        cfg = cli.config_from_mapping(mapping, where=f"{args.workload}[{i}]")
        cfg.build()
        cfgs.append(cfg)
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.spawned_ns) / 1e9
    result = {"setup_s": setup_s}
    if args.mode == "verify":
        verify_s = 0.0
        reports = []
        for i, cfg in enumerate(cfgs):
            if tracer:
                tracer.run_id = i
            t0 = time.perf_counter()
            payload = cli.emit(cli.run(cfg), "json")
            verify_s += time.perf_counter() - t0
            reports.append(json.loads(payload))
        result["verify_s"] = verify_s
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["reports"] = reports
    if tracer:
        result["metrics"] = tracer.metrics(len(cfgs))
        tracer.dump(args.trace_out, [f"{args.workload}[{i}] seed={args.seed}" for i in range(len(cfgs))])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
