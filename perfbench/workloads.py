"""Workloads of the indgl2 benchmark and the invariants their reports must show.

A workload is a list of `indgl2 verify` configurations, written as the
mappings that `cli.config_from_mapping` accepts.  The run seed goes into
every configuration's `seed`.  The configurations are pinned here rather
than read from `cli.PRESETS`, so that a change to the presets cannot silently
change what the benchmark measures.

The two workloads stress different layers: `_kernels` dominates the first
and `localring` the second, so an optimisation of either layer has one
workload that runs it and one that mostly bypasses it.
"""

import json
from pathlib import Path

WORKLOADS = {
    # q = 25, D = 4: the quotient Q has dimension 2404; few generators on wide matrices
    "frontier-q25": [{"p": 5, "f": 2, "e": 1, "r": [1, 1], "suites": ["mainlemma"]}],
    # dense L_3 of dimension 1640 for ramified-r1; digit arithmetic and many narrow matrices
    "deep-trunc": [{"p": 3, "f": 1, "e": 2, "r": [1], "suites": ["truncation"], "N_max": 3}],
}

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def configs(workload: str, seed: int) -> list:
    return [dict(mapping, seed=seed) for mapping in WORKLOADS[workload]]


def check(workload: str, reports: list) -> tuple:
    """Compare one process's reports with the recorded invariants.

    `reports` holds one entry per configuration: the parsed JSON report, or
    None when the process crashed before producing it.  Each configuration
    contributes one check for its verdict and one per recorded record.
    Returns (attempted, failed, problems).
    """
    expected = json.loads(EXPECTED_PATH.read_text())[workload]
    attempted = failed = 0
    problems = []
    for i, want in enumerate(expected):
        report = reports[i] if i < len(reports) else None
        attempted += 1 + len(want)
        if report is None:
            failed += 1 + len(want)
            problems.append(f"config {i}: no report")
            continue
        if report.get("verdict") != "pass":
            failed += 1
            problems.append(f"config {i}: verdict {report.get('verdict')!r}")
        got = {rec["name"]: rec["dims"] for rec in report["records"]}
        for name, dims in want.items():
            if got.get(name) != dims:
                failed += 1
                problems.append(f"config {i}: {name} dims {got.get(name)!r}, expected {dims!r}")
    return attempted, failed, problems
