"""The scale ladder: verdict, wall time and peak RSS at the frontier.

Runs `indgl2 verify` on each rung below, each in a fresh process, and prints
one line per rung: the mainlemma suite on the main-lemma configurations, then
the truncation suite to depth N_max on the truncation ones, whose exact
dim L_N^U is the sparse elimination of analysis.fixed_space_system.  A child
takes the path `indgl2 verify --format json` takes (cli.config_from_mapping,
cli.run, cli.emit) on the indgl2 of this checkout; wall_s is that path's
time, imports excluded, peak_rss_mb the child's own ru_maxrss, and sha256 the
digest of the JSON report, so two checkouts can be compared report for
report.

Run from the root of a checkout:

    python3 benchmarks/ladder.py
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (p, f, e, r): frontier-q25 first, then the configurations with the largest dim V x q²D
# (V's basis would be that large embedded in R₂), then two D = q weights, whose products
# have operands below 1 % nonzero, then the largest q and the largest D = q reached in a minute
LADDER = [
    (5, 2, 1, (1, 1)),  # q = 25, D = 4
    (7, 2, 1, (3, 3)),  # q = 49, D = 16
    (2, 6, 1, (1, 1, 0, 0, 0, 0)),  # q = 64, D = 4
    (3, 4, 1, (1, 1, 0, 0)),  # q = 81, D = 4
    (3, 5, 1, (0, 0, 0, 0, 0)),  # q = 243, D = 1
    (2, 8, 1, (0, 0, 0, 0, 0, 0, 0, 0)),  # q = 256, D = 1
    (2, 5, 1, (1, 1, 1, 1, 1)),  # q = 32, D = 32
    (7, 2, 1, (6, 6)),  # q = 49, D = 49
    (3, 6, 1, (0, 0, 0, 0, 0, 0)),  # q = 729, D = 1
    (2, 6, 1, (1, 1, 1, 1, 1, 1)),  # q = 64, D = 64
]

# (p, f, e, r, N_max): the truncation suite, exact at every N up to N_max
TRUNCATION_LADDER = [
    (3, 1, 2, (1,), 5),  # ramified-r1: dim I^e = 132860 at N = 5
    (5, 1, 2, (2,), 3),  # q = 5, D = 3: dim I^e = 48828 at N = 3
]

CHILD = """
import hashlib, json, resource, sys, time
from indgl2 import cli
mapping = json.loads(sys.argv[1])
t0 = time.perf_counter()
report = cli.run(cli.config_from_mapping(mapping))
payload = cli.emit(report, "json")
wall = time.perf_counter() - t0
print(json.dumps({
    "verdict": report.verdict,
    "wall_s": round(wall, 2),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
    "sha256": hashlib.sha256(payload).hexdigest(),
}))
"""


def run_one(mapping: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(mapping)], env=env, capture_output=True, text=True, check=False
    )
    if done.returncode:
        return {"verdict": "crash", "error": done.stderr.strip().splitlines()[-1:]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def rungs():
    """(name, mapping) of every rung, main-lemma rungs first."""
    for p, f, e, r in LADDER:
        mapping = {"p": p, "f": f, "e": e, "r": list(r), "suites": ["mainlemma"]}
        yield f"({p},{f},{e},{tuple(r)}) q={p**f} D={math.prod(x + 1 for x in r)}", mapping
    for p, f, e, r, n_max in TRUNCATION_LADDER:
        mapping = {"p": p, "f": f, "e": e, "r": list(r), "suites": ["truncation"], "N_max": n_max}
        yield f"({p},{f},{e},{tuple(r)}) truncation N_max={n_max}", mapping


def main():
    for name, mapping in rungs():
        result = run_one(mapping)
        if result["verdict"] == "crash":
            print(f"{name:40s} crash  {result['error']}")
            continue
        print(
            f"{name:40s} {result['verdict']:5s} {result['wall_s']:7.2f} s {result['peak_rss_mb']:6d} MB  "
            f"sha256={result['sha256'][:16]}"
        )


if __name__ == "__main__":
    main()
