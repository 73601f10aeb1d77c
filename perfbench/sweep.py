"""Regenerate the squaring-chain baseline table from the benchmark's spans.

    python3 perfbench/sweep.py

Informational only, not a benchmark workload: one traced ``deep-chain`` pass
per gate count N = 401, 801 and 1601, printing the median inclusive wall
time of ``build_qap``, ``setup``, ``prove`` and ``verify`` over the pass's
calls, as the ROADMAP baseline table does.
"""

from __future__ import annotations

import dataclasses
import statistics
from collections import defaultdict

import run
import workloads as wl
from tracer import Tracer

SIZES = (401, 801, 1601)
SEED = 1
COLUMNS = (
    ("build_qap", "qap.build"),
    ("setup", "pinocchio.setup"),
    ("prove", "pinocchio.prove"),
    ("verify", "pinocchio.verify"),
)


def sweep_row(snarkpipe, n_gates: int) -> dict:
    workload = dataclasses.replace(
        wl.WORKLOADS["deep-chain"], name=f"sweep-{n_gates}", chain_links=(n_gates - 3) // 2
    )
    bench = run.Bench(workload, SEED, snarkpipe)
    tracer = bench.tracer = Tracer()
    try:
        with tracer.installed():
            bench.run_pass(0, defaultdict(list))
    finally:
        bench.close()
    if bench.failures:
        raise SystemExit(f"N={n_gates}: {bench.failures}")
    durations = defaultdict(list)
    for _, name, start, end, _, _ in tracer.spans:
        durations[name].append(end - start)
    return {label: statistics.median(durations[span]) for label, span in COLUMNS}


def main() -> None:
    snarkpipe = run.load_snarkpipe()
    print("| N | " + " | ".join(label for label, _ in COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    for n in SIZES:
        row = sweep_row(snarkpipe, n)
        cells = []
        for label, _ in COLUMNS:
            t = row[label]
            cells.append(f"{t:.2f} s" if t >= 0.1 else f"{t * 1000:.2f} ms")
        print(f"| {n} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
