"""snarkpipe benchmark: the CLI pipeline and the interactive baseline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload deep-chain --seed 1 --seconds 36 --trace 0

One client, closed loop, one process: every operation starts after the
previous one ended. Pipeline and interactive commands go through
``snarkpipe.cli.main(argv)`` in process against files in a scratch
directory, so argparse, JSON I/O and the QAP each command rebuilds are
measured and interpreter start is not; only ``verify_cold_s`` spawns
``python -m snarkpipe.cli verify``. Every verdict is checked against a
reference from outside the code under test (``perfbench/workloads.py``).

``--trace 0`` prints the end-to-end metrics: the fastest sample of each
timing, for set-up the median of the fastest set-up in each third of the
run, artifact sizes, and peak memory.
``--trace 1`` runs the same passes untraced and then traced, prints the
per-layer metrics plus the tracing overhead (traced minus untraced, per
timing), checks that both halves wrote byte-identical artifacts, and
writes the spans of the first traced pass as JSON lines. Per-layer ``_s``
metrics are summed self times per pass, averaged over the traced passes;
``_calls`` and the other counts are those of the first traced pass, so they
depend on the seed alone; ``cli.self_s`` is per command.
Run records (every sample, median, high percentile, digests, failures and
the machine) go to ``.bench_out/``. The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

# name -> (unit, how a run's samples become its value, see ``estimate``);
# the order is the order of the result line. Key and proof sizes are those
# of the first artifact of their kind, which depends on the seed alone, so
# they repeat exactly for a given seed. A transcript's size follows its
# session's random challenges, so transcript_bytes is the mean of the run's
# first 10 honest Hamiltonian-cycle transcripts, also fixed per seed.
END_TO_END = {
    "compile_s": ("s", "fastest"),
    "setup_s": ("s", "median of thirds"),
    "prove_s": ("s", "fastest"),
    "verify_s": ("s", "fastest"),
    "verify_cold_s": ("s", "fastest"),
    "hc_session_s": ("s", "fastest"),
    "sat_session_s": ("s", "fastest"),
    "ek_bytes": ("bytes", "first"),
    "proof_bytes": ("bytes", "first"),
    "transcript_bytes": ("bytes", "mean of first 10"),
    "peak_rss_mb": ("MB", "peak"),
}
# Passes per run at the least, and set-ups per pass.
MIN_PASSES = 3
SETUPS_PER_PASS = 3
TIMED = ("compile_s", "setup_s", "prove_s", "verify_s", "hc_session_s", "sat_session_s")
# Span names whose summed self time per pass is reported as <name>_s.
SELF_TIMES = (
    "frontend.parse",
    "circuit.flatten",
    "circuit.solve",
    "circuit.load",
    "circuit.dump",
    "qap.build",
    "qap.assemble",
    "polynomial.mul",
    "polynomial.divmod",
    "polynomial.eval",
    "polynomial.lagrange_basis",
    "groups.exp",
    "groups.pairing",
    "pinocchio.setup",
    "pinocchio.prove",
    "pinocchio.verify",
    "pinocchio.key_dump",
    "pinocchio.key_load",
    "cli.json_read",
    "cli.json_write",
    "interactive.cipher_round",
    "interactive.forge_round",
    "interactive.verify_round",
    "rng.draw",
)
# Span names whose call count in the first traced pass is <name>_calls.
CALL_COUNTS = (
    "qap.build",
    "polynomial.mul",
    "polynomial.divmod",
    "polynomial.eval",
    "groups.exp",
    "groups.mul",
    "groups.pairing",
    "rng.draw",
)
COMMANDS = ("compile", "setup", "prove", "verify", "interactive")
WITNESS_FIELDS = ("v", "w", "k", "h", "alpha_v", "alpha_w", "alpha_k", "z")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def estimate(name: str, samples: list):
    """A run's value for an end-to-end metric.

    On a shared machine whose speed switches between states for seconds at
    a time, a run's median follows the neighbours' load while its fastest
    sample follows the program's own cost, so timings report the minimum.
    Set-up time is a median, of the fastest set-up in each consecutive
    third of the run's set-ups, so that each third has fast moments to
    find and one lucky sample does not decide.
    """
    if not samples:
        return None
    how = END_TO_END[name][1]
    if how == "fastest":
        return min(samples)
    if how == "first":
        return samples[0]
    if how == "mean of first 10":
        return statistics.fmean(samples[:10])
    n = len(samples)
    return statistics.median(min(samples[i * n // 3:(i + 1) * n // 3] or samples)
                             for i in range(3))


def high_percentile(samples: list):
    """Highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    n = len(samples)
    top = None
    for q in (50, 90, 95, 99):
        if n * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
            top = {"q": q, "value": cut}
    return top


class Bench:
    """One benchmark process: a scratch directory, samples and failures."""

    def __init__(self, workload: wl.Workload, seed: int, snarkpipe):
        self.workload = workload
        self.seed = seed
        self.cli = snarkpipe.cli
        self.frontend = snarkpipe.frontend
        self.attempted = 0
        self.failures = []
        self.tracer = None
        self.operations = 0
        OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))

        rng = random.Random(f"inputs:{workload.name}:{seed}")
        source = wl.program_source(workload, rng, snarkpipe.bundled.load_bundled_text)
        self.program_path = self.dir / "program.zkp"
        self.program_path.write_text(source)
        self.program = self.frontend.parse_program(source)
        self.ctx = snarkpipe.field.FieldContext()
        self.problems = {}
        for kind, problem in (
            ("hc", wl.hamiltonian_problem(
                workload.hc_vertices, workload.hc_chord_rate, rng)),
            ("sat", wl.sat_problem(workload.sat_vars, workload.sat_clauses, rng)),
        ):
            if not wl.planted_solution_holds(problem):
                raise RuntimeError(f"generated {kind} problem lost its solution")
            path = self.dir / f"{kind}.json"
            path.write_text(json.dumps(problem))
            self.problems[kind] = path
        self.setup_seed = f"{seed:016x}"
        self.cheats = [0, 0]  # sessions, accepted

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    # --- operations -------------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def reference(self, inputs: dict):
        """Verdict and values of the tree-walking reference interpreter."""
        return self.frontend.eval_program(self.program, inputs, self.ctx)

    def command(self, argv: list, expect: int):
        """Run one CLI command in process; (seconds, stdout) or None on failure."""
        self.attempted += 1
        self.operations += 1
        out = io.StringIO()
        name = next(a for a in argv if a in COMMANDS)
        tracer = self.tracer
        if tracer is not None:
            tracer.operation = self.operations
        # Start every command from a collected heap, as a fresh CLI process
        # would, so garbage left by the previous command is not timed here.
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = tracer.run(f"cli.{name}", self.cli.main, argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a counted failure, not an abort
            self.fail(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        if tracer is not None and not self.spans_add_up(name):
            return None
        if rc != expect:
            tail = out.getvalue()[-300:].strip()
            self.fail(f"{' '.join(argv)}: exit {rc}, expected {expect}: {tail}")
            return None
        return elapsed, out.getvalue()

    def spans_add_up(self, name: str) -> bool:
        """The span stack is empty after a command, and the self times of
        its spans sum to the duration of its root span."""
        tracer = self.tracer
        op, tracer.operation = tracer.operation, None
        if tracer.open_spans():
            self.fail(f"{name}: {tracer.open_spans()} spans still open after the command")
            return False
        total, root = tracer.op_self[op], tracer.last_root
        if abs(total - root) > 1e-6:
            self.fail(f"{name}: span self times sum to {total:.6f} s, "
                      f"the command's root span lasted {root:.6f} s")
            return False
        return True

    def cold_verify(self, vk: Path, wk: Path):
        self.attempted += 1
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = [sys.executable, "-m", "snarkpipe.cli", "verify",
                "--verification-key", str(vk), "--witness-key", str(wk)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=self.dir, env=env, capture_output=True,
                                  timeout=60)
        except subprocess.TimeoutExpired:
            self.fail("cold verify timed out")
            return None
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            self.fail(f"cold verify: exit {proc.returncode}: {proc.stderr[-300:]!r}")
            return None
        return elapsed

    # --- one pass ---------------------------------------------------------------

    def run_pass(self, index: int, samples: dict) -> dict:
        """Compile, set up, prove, verify and run sessions once; returns the
        digests of the artifacts this pass wrote.

        The interactive sessions are spread between the pipeline commands so
        that each kind of operation samples the whole pass, not one stretch.
        """
        w = self.workload
        d = self.dir
        rng = random.Random(f"pass:{w.name}:{self.seed}:{index}")
        circuit, ek, vk = d / "circuit.json", d / "ek.json", d / "vk.json"
        digests = {}
        sessions = self.session_jobs(index, samples, digests)
        chunk = -(-len(sessions) // 4)

        def fill():
            for job in sessions[:chunk]:
                job()
            del sessions[:chunk]

        r = self.command(["compile", str(self.program_path), "-o", str(circuit)], 0)
        if r:
            samples["compile_s"].append(r[0])
        fill()
        # Back-to-back set-ups from one seed must write the same keys.
        setups, keys = [], None
        for _ in range(SETUPS_PER_PASS):
            r = self.command(["--seed", self.setup_seed, "setup", "--circuit", str(circuit),
                              "--evaluation-key", str(ek), "--verification-key", str(vk)], 0)
            if not r:
                continue
            setups.append(r[0])
            written = {"evaluation_key": sha256_file(ek), "verification_key": sha256_file(vk)}
            if keys is not None and written != keys:
                self.fail(f"pass {index}: a repeated set-up wrote other keys")
            keys = written
        fill()
        if not setups:
            return digests
        samples["setup_s"] += setups
        samples["ek_bytes"].append(ek.stat().st_size)
        digests.update(keys, circuit=sha256_file(circuit))

        def reference_out(inputs):
            return int(self.reference(inputs).values["out"])

        accepted = []
        for i, inputs in enumerate(wl.witness_stream(w, rng, w.witnesses, reference_out)):
            path = d / f"inputs{i}.json"
            path.write_text(json.dumps(inputs))
            ok = self.reference({k: int(v) for k, v in inputs.items()}).ok
            wk = d / f"wk{i}.json"
            r = self.command(["prove", "--circuit", str(circuit), "--evaluation-key", str(ek),
                              "--inputs", str(path), "-o", str(wk)], 0 if ok else 2)
            if not r or not ok:
                continue
            samples["prove_s"].append(r[0])
            samples["proof_bytes"].append(wk.stat().st_size)
            accepted.append(wk)
            r = self.command(["verify", "--verification-key", str(vk),
                              "--witness-key", str(wk)], 0)
            if r:
                samples["verify_s"].append(r[0])
        fill()
        if not accepted:
            self.fail(f"pass {index}: no witness was accepted")
            return digests
        digests["witness_key"] = sha256_file(accepted[0])

        for t in range(w.tampers):
            data = json.loads(accepted[t % len(accepted)].read_text())
            field = rng.choice(WITNESS_FIELDS)
            p = int(data["field"]["p"])
            data[field] = str((int(data[field]) + rng.randrange(1, p)) % p)
            bad = d / "tampered.json"
            bad.write_text(json.dumps(data))
            r = self.command(["verify", "--verification-key", str(vk),
                              "--witness-key", str(bad)], 2)
            if r:
                samples["verify_s"].append(r[0])
        fill()
        r = self.cold_verify(vk, accepted[0])
        if r:
            samples["verify_cold_s"].append(r)
        return digests

    def session_jobs(self, index: int, samples: dict, digests: dict) -> list:
        """Honest 20-round and cheating 1-round sessions, HC and SAT interleaved."""
        w = self.workload
        jobs = []

        def honest(kind: str, j: int):
            seed = f"{self.seed:08x}{index:06x}{j:02x}"
            transcript = self.dir / f"transcript-{kind}.json"
            r = self.command(["--seed", seed, "interactive", "--problem",
                              str(self.problems[kind]), "--rounds", str(wl.SESSION_ROUNDS),
                              "--transcript", str(transcript)], 0)
            if not r:
                return
            samples[f"{kind}_session_s"].append(r[0])
            if kind == "hc":
                samples["transcript_bytes"].append(transcript.stat().st_size)
                digests.setdefault("transcript", sha256_file(transcript))

        def cheat(kind: str):
            seed = f"{self.seed:08x}{index:06x}ff"
            r = self.command(["--seed", seed, "interactive", "--problem",
                              str(self.problems[kind]), "--cheat", "--rounds", "1",
                              "--repeat", str(w.cheat_sessions)], 0)
            match = r and re.search(r"sessions=(\d+) .* accepted=(\d+)", r[1])
            if match:
                self.cheats[0] += int(match.group(1))
                self.cheats[1] += int(match.group(2))
            elif r:
                self.fail(f"cheating sessions printed no count: {r[1]!r}")

        for j in range(w.honest_sessions):
            jobs += [lambda j=j: honest("hc", j), lambda j=j: honest("sat", j)]
        if w.cheat_sessions:
            jobs += [lambda: cheat("hc"), lambda: cheat("sat")]
        return jobs

    def run_passes(self, seconds: float, min_passes: int, samples: dict) -> list:
        """Run passes until the next one would overrun ``seconds``.

        When tracing, individual spans are kept for pass 0 only; the
        per-layer aggregates cover every pass.
        """
        start = time.perf_counter()
        longest = 0.0
        all_digests = []
        while True:
            begun = time.perf_counter()
            all_digests.append(self.run_pass(len(all_digests), samples))
            if self.tracer is not None:
                self.tracer.stop_recording()
            longest = max(longest, time.perf_counter() - begun)
            if len(all_digests) >= min_passes and (
                time.perf_counter() + longest > start + seconds
            ):
                return all_digests

    def check_digests(self, runs: list, label: str) -> None:
        """Keys and circuit repeat in every pass; everything repeats per pass index."""
        self.attempted += 1
        first = runs[0]
        for i, digests in enumerate(runs[1:], 1):
            for name in ("circuit", "evaluation_key", "verification_key"):
                if digests.get(name) != first.get(name):
                    self.fail(f"{label}: {name} of pass {i} differs from pass 0")
                    return

    def check_cheats(self) -> dict:
        self.attempted += 1
        n, hits = self.cheats
        lo, hi = wl.binomial_half_interval(n)
        if not lo <= hits <= hi:
            self.fail(f"cheating 1-round sessions: {hits}/{n} accepted, outside [{lo}, {hi}]")
        return {"sessions": n, "accepted": hits, "interval": [lo, hi]}


# --- metrics ------------------------------------------------------------------


def summarize(samples: dict) -> dict:
    return {
        name: {
            "n": len(values),
            "fastest": min(values) if values else None,
            "median": statistics.median(values) if values else None,
            "high": high_percentile(values),
            "values": values,
        }
        for name, values in samples.items()
    }


def end_to_end_metrics(samples: dict) -> dict:
    metrics = {}
    for name, (unit, how) in END_TO_END.items():
        if how == "peak":
            value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            value = estimate(name, samples.get(name))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def constraint_nnz(circuit: dict) -> int:
    """Nonzero (symbol, gate) entries of v/w/k, recomputed from the gates."""
    p = int(circuit["field"]["p"])
    wires = circuit["wires"]
    cols = {"v": defaultdict(int), "w": defaultdict(int), "k": {}}

    def add(col, wire_id, d):
        wire = wires[wire_id]
        if wire["kind"] == "const":
            cols[col][0, d] += int(wire["value"])
        else:
            cols[col][(0 if wire["kind"] == "one" else wire_id), d] += 1

    for gate in circuit["gates"]:
        d = gate["d"]
        add("v", gate["l"], d)
        if gate["op"] == "Times":
            add("w", gate["r"], d)
        else:
            add("v", gate["r"], d)
            cols["w"][0, d] = 1
        cols["k"][gate["o"], d] = 1
    return sum(1 for col in cols.values() for value in col.values() if value % p)


def import_seconds(repeats: int = 3) -> float:
    code = ("import time; t = time.perf_counter(); import snarkpipe.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def per_layer_metrics(bench: Bench, tracer: Tracer, passes: int, overhead: dict) -> dict:
    circuit = json.loads((bench.dir / "circuit.json").read_text())
    ek = json.loads((bench.dir / "ek.json").read_text())
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in SELF_TIMES:
        put(f"{name}_s", tracer.self_time.get(name, 0.0) / passes, "s")
    for name in CALL_COUNTS:
        put(f"{name}_calls", tracer.recorded_calls.get(name, 0), "count")
    roots = [f"cli.{command}" for command in COMMANDS]
    commands = sum(tracer.calls.get(root, 0) for root in roots)
    cli_self = sum(tracer.self_time.get(root, 0.0) for root in roots)
    put("cli.self_s", cli_self / max(commands, 1), "s")
    put("cli.import_s", import_seconds(), "s")
    put("circuit.gates", len(circuit["gates"]), "count")
    put("circuit.constraint_nnz", constraint_nnz(circuit), "count")
    put("qap.symbols", len(ek["symbols"]), "count")
    put("qap.deg_h", tracer.deg_h if tracer.deg_h is not None else -1, "count")
    put("interactive.commitments", tracer.recorded_commitments, "count")
    put("trace.spans", len(tracer.spans), "count")
    for name in TIMED:
        put(f"overhead.{name}", overhead.get(name), "s")
    return metrics


def machine_record() -> dict:
    p = (1 << 64) - (1 << 32) + 1
    times = []
    for _ in range(5):
        start = time.perf_counter()
        x = 3
        for _ in range(200_000):
            x = x * 0x9E3779B97F4A7C15 % p
        times.append((time.perf_counter() - start) * 1000)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "modmul_loop_ms": statistics.median(times),
    }


# --- entry point ----------------------------------------------------------------


def load_snarkpipe():
    """Import the package from the checkout's ``src``; exit 2 if it is absent."""
    if not (SRC / "snarkpipe" / "cli.py").is_file():
        print(f"snarkpipe sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import snarkpipe.bundled
    import snarkpipe.cli
    import snarkpipe.field
    import snarkpipe.frontend

    return snarkpipe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    snarkpipe = load_snarkpipe()
    workload = wl.WORKLOADS[args.workload]
    machine = machine_record()
    print("machine: " + json.dumps(machine))
    bench = Bench(workload, args.seed, snarkpipe)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine}
    try:
        samples = defaultdict(list)
        if not args.trace:
            digests = bench.run_passes(args.seconds, MIN_PASSES, samples)
            bench.check_digests(digests, "untraced")
            metrics = end_to_end_metrics(samples)
        else:
            half = args.seconds / 2
            digests = bench.run_passes(half, 1, samples)
            tracer = bench.tracer = Tracer()
            traced_samples = defaultdict(list)
            with tracer.installed():
                traced = bench.run_passes(half, 1, traced_samples)
            bench.tracer = None
            bench.check_digests(digests, "untraced")
            bench.check_digests(traced, "traced")
            bench.attempted += 1
            if traced[0] != digests[0]:
                bench.fail(f"traced artifacts differ: {traced[0]} vs {digests[0]}")
            overhead = {
                name: estimate(name, traced_samples[name]) - estimate(name, samples[name])
                for name in TIMED if samples.get(name) and traced_samples.get(name)
            }
            metrics = per_layer_metrics(bench, tracer, len(traced), overhead)
            spans_path = OUT / f"{workload.name}-seed{args.seed}.spans.jsonl"
            tracer.write_jsonl(spans_path)
            record.update(traced_passes=len(traced), spans=str(spans_path.relative_to(ROOT)),
                          traced_samples=summarize(traced_samples))
        record.update(
            passes=len(digests),
            digests=digests[0],
            cheats=bench.check_cheats(),
            samples=summarize(samples),
        )
    finally:
        bench.close()
    failed = len(bench.failures)
    record.update(attempted=bench.attempted, failed=failed,
                  error_rate=failed / bench.attempted, failures=bench.failures,
                  metrics=metrics)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for message in bench.failures[:20]:
        print(f"FAIL {message}")
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
