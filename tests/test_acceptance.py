"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict even
on success. Tolerances are pinned in the assertions themselves.
"""

import itertools
import json
import time
from fractions import Fraction

import pytest

from snarkpipe import (
    FieldContext,
    InvalidWitness,
    Polynomial,
    Sha256Rng,
    TransparentGroup,
    assemble,
    build_qap,
    check_solution,
    flatten,
    lagrange_basis,
    parse_program,
    prove,
    setup,
    solve,
    verify,
)
from snarkpipe.bundled import load_bundled_text
from snarkpipe.cli import main
from snarkpipe.field import inverse
from snarkpipe.interactive import HamiltonianCycleProblem, session_rounds
from snarkpipe.pinocchio import WitnessKey
from snarkpipe.rng import derive_seed

from conftest import BAD_COLORING, CORPUS, GOOD_COLORING, StreamRandom, derived, soundness_scan

GOOD_INPUTS_JSON = {k: str(v) for k, v in GOOD_COLORING.items()}
BAD_INPUTS_JSON = {k: str(v) for k, v in BAD_COLORING.items()}

K3 = HamiltonianCycleProblem(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
PATH4 = HamiltonianCycleProblem(
    ((0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 0))
)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_end_to_end_pipeline(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    started = time.perf_counter()
    assert main(["compile", "coloring5", "-o", "circuit.json"]) == 0
    assert main(["--seed", "0102", "setup", "--circuit", "circuit.json"]) == 0
    (tmp_path / "good.json").write_text(json.dumps(GOOD_INPUTS_JSON))
    assert main(["prove", "--circuit", "circuit.json", "--inputs", "good.json"]) == 0
    accept_code = main(["verify"])
    (tmp_path / "bad.json").write_text(json.dumps(BAD_INPUTS_JSON))
    reject_code = main(
        ["prove", "--circuit", "circuit.json", "--inputs", "bad.json",
         "-o", "bad_witness.json"]
    )
    elapsed = time.perf_counter() - started
    ok = accept_code == 0 and reject_code == 2 and elapsed < 5.0
    verdict(
        1,
        ok,
        f"compile/setup/prove/verify accepted witness (exit {accept_code}), "
        f"prove rejected bad witness (exit {reject_code}), {elapsed:.2f}s < 5s",
    )


def test_criterion_2_divisibility_iff_solution(coloring_circuit, coloring_qap, ctx):
    mismatches = 0
    tested = 0
    for colors in itertools.product((1, 2, 3), repeat=5):
        env = dict(zip(("c1", "c2", "c3", "c4", "c5"), colors))
        assignment = solve(coloring_circuit, env)
        tested += 1
        if check_solution(coloring_circuit, assignment) != assemble(
            coloring_qap, assignment
        ).divisible:
            mismatches += 1
    rng = StreamRandom(Sha256Rng(b"criterion-2"))
    for _ in range(100):
        env = {v: rng.randrange(ctx.p) for v in coloring_circuit.inputs}
        assignment = solve(coloring_circuit, env)
        tested += 1
        if check_solution(coloring_circuit, assignment) != assemble(
            coloring_qap, assignment
        ).divisible:
            mismatches += 1
    verdict(
        2,
        mismatches == 0 and tested == 343,
        f"{tested} assignments (243 exhaustive + 100 random), "
        f"{mismatches} mismatches between divisibility and circuit check",
    )


def test_criterion_3_structural_scan(corpus_programs, ctx):
    violations = 0
    scanned = 0
    for name in CORPUS:
        circuit = flatten(corpus_programs[name], ctx)
        qap = build_qap(circuit)
        gates = {g.index: g for g in circuit.gates}
        v, w, k = derived(qap).columns
        for d in range(1, qap.n_gates + 1):
            gate = gates[d]
            operands = set()
            for wire_id in (gate.left, gate.right):
                wire = circuit.wires[wire_id]
                operands.add(0 if wire.kind in ("const", "one") else wire_id)
            if gate.op == "Plus":
                operands.add(0)  # the one-wire is the Plus row's multiplier
            # the k row is the output's entry: a pinned constant's is the
            # one-wire with that constant, any other output's is itself with 1
            out = circuit.wires[gate.out]
            k_symbol, k_value = (0, out.value) if out.kind == "const" else (gate.out, 1)
            for i, wire in enumerate(qap.symbols):
                scanned += 1
                k_ok = k[i].get(d, 0) == (k_value if wire == k_symbol else 0)
                vw_ok = (v[i].get(d, 0) != 0 or w[i].get(d, 0) != 0) == (wire in operands)
                if not (k_ok and vw_ok):
                    violations += 1
    verdict(
        3,
        violations == 0,
        f"{scanned} (gate, symbol) pairs scanned across {len(CORPUS)} circuits, "
        f"{violations} violations",
    )


def test_criterion_4_soundness_bound_small_field():
    ctx101 = FieldContext(101)
    program = parse_program(load_bundled_text("cubic.zkp"))
    circuit = flatten(program, ctx101)
    qap = build_qap(circuit)
    assert 2 * qap.n_gates < 101
    forged = solve(circuit, {"x": 3, "y": 36})  # not a solution
    assert not check_solution(circuit, forged)
    fraction = soundness_scan(qap, forged)  # exhaustive over all 101 points
    hits = fraction.numerator * (101 // fraction.denominator)
    valid = solve(circuit, {"x": 3, "y": 35})
    complete = soundness_scan(qap, valid) == Fraction(1)
    verdict(
        4,
        hits <= 2 * qap.n_gates and complete,
        f"forged instance agrees on {hits} of 101 points, bound 2N = "
        f"{2 * qap.n_gates}; valid instance agrees everywhere: {complete}",
    )


def test_criterion_5_witness_tampering(coloring_circuit, coloring_qap, ctx):
    group = TransparentGroup(ctx)
    ek, vk = setup(coloring_qap, group, bytes([5]))
    wk = prove(ek, coloring_qap, solve(coloring_circuit, GOOD_COLORING))
    rng = StreamRandom(Sha256Rng(b"criterion-5"))
    rejections = 0
    for name in WitnessKey.FIELDS:
        for _ in range(20):
            replacement = group.generator() ** rng.randrange(1, ctx.p)
            tampered = WitnessKey(
                **{
                    f: replacement if f == name else getattr(wk, f)
                    for f in WitnessKey.FIELDS
                }
            )
            rejections += not verify(vk, tampered).accepted
    verdict(5, rejections == 160, f"{rejections}/160 tampered witness keys rejected")


def test_criterion_6_interactive_soundness_decay():
    sessions = 10**4

    def accepted(problem, solution, rounds, seed, cheat=False) -> bool:
        session = session_rounds(problem, solution, rounds, seed, cheat)
        return all(verdict for *_, verdict in session)

    honest = sum(
        accepted(K3, (0, 1, 2), 1, derive_seed(b"honest", f"s{i}")) for i in range(sessions)
    )

    def cheat_rate(rounds, label):
        return sum(
            accepted(PATH4, None, rounds, derive_seed(label, f"s{i}"), cheat=True)
            for i in range(sessions)
        )

    hits1 = cheat_rate(1, b"k1")
    hits5 = cheat_rate(5, b"k5")
    hits10 = cheat_rate(10, b"k10")

    rate1 = hits1 / sessions
    ok1 = abs(rate1 - 0.5) <= 0.02

    def within_3_sigma(hits, k):
        p = 2.0**-k
        expected = sessions * p
        sigma = (sessions * p * (1 - p)) ** 0.5
        return abs(hits - expected) <= 3 * sigma

    ok5 = within_3_sigma(hits5, 5)
    ok10 = within_3_sigma(hits10, 10)
    verdict(
        6,
        honest == sessions and ok1 and ok5 and ok10,
        f"honest {honest}/{sessions}; cheater rate {rate1:.4f} at 1 round "
        f"(|delta| <= 0.02); {hits5} hits at 5 rounds and {hits10} at 10 "
        f"rounds, both within 3 sigma of binomial",
    )


def test_criterion_7_kernel_properties(ctx):
    rng = StreamRandom(Sha256Rng(b"criterion-7"))
    group = TransparentGroup(ctx)
    g = group.generator()
    t = group.pairing(g, g)
    checks = 0
    failures = 0
    started = time.perf_counter()

    for _ in range(40000):  # Fermat inverses
        a = rng.randrange(1, ctx.p)
        checks += 1
        failures += inverse(a, ctx.p) * a % ctx.p != 1

    for _ in range(1000):  # division reconstruction
        num = Polynomial(ctx, [rng.randrange(ctx.p) for _ in range(rng.randrange(34))])
        den = Polynomial(
            ctx,
            [rng.randrange(ctx.p) for _ in range(rng.randrange(1, 9))]
            + [rng.randrange(1, ctx.p)],
        )
        q, r = divmod(num, den)
        checks += 2
        failures += q * den + r != num
        failures += not r.degree < den.degree

    for _ in range(200):  # interpolation round-trips
        size = rng.randrange(1, 65)
        xs = set()
        while len(xs) < size:
            xs.add(rng.randrange(ctx.p))
        points = [(x, rng.randrange(ctx.p)) for x in sorted(xs)]
        basis = lagrange_basis(ctx, [x for x, _ in points])
        poly = Polynomial.weighted_sum(ctx, zip((y for _, y in points), basis))
        checks += 1
        failures += not poly.degree < size
        for x, y in points:
            checks += 1
            failures += poly.eval_int(x) != y

    for _ in range(40000):  # pairing bilinearity
        a = rng.randrange(ctx.p)
        b = rng.randrange(ctx.p)
        checks += 1
        failures += group.pairing(g**a, g**b) != t ** (a * b % ctx.p)

    while checks < 100000:  # exponent laws top up the count
        a = rng.randrange(ctx.p)
        b = rng.randrange(ctx.p)
        checks += 1
        failures += (g**a) * (g**b) != g ** ((a + b) % ctx.p)

    elapsed = time.perf_counter() - started
    verdict(
        7,
        failures == 0 and checks >= 100000 and elapsed < 10.0,
        f"{checks} randomized kernel checks, {failures} failures, "
        f"{elapsed:.2f}s < 10s",
    )


def test_criterion_8_byte_identical_runs(tmp_path, monkeypatch):
    artifacts = (
        "circuit.json", "qap.json", "evaluation_key.json",
        "verification_key.json", "witness_key.json", "transcript.json",
    )
    results = []
    for run in ("one", "two"):
        workdir = tmp_path / run
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(["compile", "coloring5", "--emit-qap", "qap.json"]) == 0
        assert main(["--seed", "deadbeef", "setup"]) == 0
        (workdir / "inputs.json").write_text(json.dumps(GOOD_INPUTS_JSON))
        assert main(
            ["prove", "--circuit", "circuit.json", "--inputs", "inputs.json"]
        ) == 0
        assert main(["verify"]) == 0
        assert main(
            ["--seed", "deadbeef", "interactive", "--problem", "triangle",
             "--rounds", "5"]
        ) == 0
        results.append({name: (workdir / name).read_bytes() for name in artifacts})
    identical = results[0] == results[1]
    verdict(
        8,
        identical,
        f"two seeded runs produced byte-identical artifacts: "
        f"{sorted(artifacts)}",
    )


def test_invalid_witness_error_is_specific(coloring_circuit, coloring_qap, ctx):
    # Companion to criterion 1: the refusal is the dedicated error, not a
    # generic failure.
    group = TransparentGroup(ctx)
    ek, _ = setup(coloring_qap, group, bytes([9]))
    with pytest.raises(InvalidWitness):
        prove(ek, coloring_qap, solve(coloring_circuit, BAD_COLORING))
