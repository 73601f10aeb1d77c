"""Generated programs through the whole pipeline, every stage against the
reference interpreter.

For each random straight-line program and random inputs, at p = 97 (where
collisions are likely) and at the default modulus, these must agree: the
verdict of `eval_program`, `check_solution` on the assignment `solve` makes,
`assemble(...).divisible`, and `verify` accepting what `prove` returns (an
unsatisfied program is refused by `prove` instead, and a witness key with a
shifted quotient fails the divisibility check alone). The program must
survive `format_program` and `parse_program` unchanged, the parser's gate
count must equal the flattened circuit's, and every column of the emitted
QAP file must take its node values at 1..N, with the target vanishing there.

The QAP must also encode exactly the relation `check_solution` enforces.
The prover picks only the symbol wires; the circuit fixes the one-wire to 1
and every constant wire, a condition gate's pinned output included, to its
constant. So over assignments with free symbol wires, `assemble(...).divisible`
must equal `check_solution` on the same symbols with the fixed wires restored.
The assignments come from `solve`, from a prover that evaluates every gate
forward (each pinned output takes its gate's value), and from either with one
symbol other than the one-wire changed. Over arbitrary values on every wire
the two would differ for want of the fixed wires: an all-zero assignment, or
a changed constant that no gate reads, is divisible but no solution.

Budget: each field's run of each test must finish within BUDGET_S seconds.
"""

import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from snarkpipe import (  # noqa: E402
    FieldContext,
    InvalidWitness,
    Polynomial,
    TransparentGroup,
    assemble,
    build_qap,
    check_solution,
    eval_program,
    flatten,
    parse_program,
    prove,
    setup,
    solve,
    verify,
)
from snarkpipe.circuit import WIRE_ONE  # noqa: E402
from snarkpipe.frontend import _Parser, format_program  # noqa: E402

from conftest import CONSTANTS, derived, enters_a_gate, forward_assignment, programs  # noqa: E402

BUDGET_S = 10.0
EXAMPLES = 60
RELATION_EXAMPLES = 100


def emitted_columns_hold_their_node_values(qap) -> None:
    emitted = qap.to_json_dict()
    ctx, n = qap.ctx, qap.n_gates
    for family, columns in zip("vwk", derived(qap).columns):
        for col, coeffs in zip(columns, emitted[family], strict=True):
            poly = Polynomial(ctx, [int(c) for c in coeffs])
            assert len(poly.coeffs) == len(coeffs) <= n
            assert [poly.eval_int(d) for d in range(1, n + 1)] == [
                col.get(d, 0) for d in range(1, n + 1)
            ], family
    target = Polynomial(ctx, [int(c) for c in emitted["target"]])
    assert target.degree == n
    assert all(target.eval_int(d) == 0 for d in range(1, n + 1))


def check_program(ctx, source, values, public_a, seed) -> None:
    program = parse_program(source)
    assert parse_program(format_program(program)) == program
    parser = _Parser(source)
    parser.parse()
    circuit = flatten(program, ctx)
    assert parser.gates == circuit.n_gates
    assume(0 < circuit.n_gates and 2 * circuit.n_gates < ctx.p)

    inputs = dict(zip(program.inputs, values))
    verdict = eval_program(program, inputs, ctx).ok
    assignment = solve(circuit, inputs)
    assert check_solution(circuit, assignment) == verdict
    qap = build_qap(circuit)
    assert assemble(qap, assignment).divisible == verdict
    emitted_columns_hold_their_node_values(qap)

    if public_a and not enters_a_gate(qap, "a"):
        # no gate reads a, so a key with a public would accept any value of it
        with pytest.raises(ValueError, match="^public symbol 'a' enters no gate"):
            setup(qap, TransparentGroup(ctx), seed, ("one", "a"))
        public_a = False
    public = ("one", "a") if public_a else ("one",)
    public_inputs = {"a": inputs["a"]} if public_a else {}
    ek, vk = setup(qap, TransparentGroup(ctx), seed, public)
    if not verdict:
        with pytest.raises(InvalidWitness):
            prove(ek, qap, assignment)
        return
    wk = prove(ek, qap, assignment)
    assert verify(vk, wk, public_inputs).accepted
    shifted = wk._replace(h=wk.h * vk.g)
    assert tuple(verify(vk, shifted, public_inputs)) == (False, True, True)


@pytest.mark.filterwarnings("ignore:integer constant")  # constants at or above p
@pytest.mark.parametrize("modulus", [97, None], ids=["p97", "default"])
def test_generated_programs_agree_at_every_stage(modulus):
    ctx = FieldContext(modulus) if modulus else FieldContext()

    @settings(derandomize=True, deadline=None, max_examples=EXAMPLES, database=None)
    @given(
        source=programs(),
        values=st.lists(st.integers(0, 200) | CONSTANTS, min_size=3, max_size=3),
        public_a=st.booleans(),
        seed=st.binary(min_size=1, max_size=4),
    )
    def run(source, values, public_a, seed):
        check_program(ctx, source, values, public_a, seed)

    started = time.perf_counter()
    run()
    elapsed = time.perf_counter() - started
    assert elapsed < BUDGET_S, f"{EXAMPLES} programs took {elapsed:.1f} s"


@pytest.mark.filterwarnings("ignore:integer constant")  # constants at or above p
@pytest.mark.parametrize("modulus", [97, None], ids=["p97", "default"])
def test_divisibility_is_the_relation_over_free_symbols(modulus):
    ctx = FieldContext(modulus) if modulus else FieldContext()

    @settings(derandomize=True, deadline=None, max_examples=RELATION_EXAMPLES, database=None)
    @given(
        source=programs(),
        values=st.lists(st.integers(0, 200) | CONSTANTS, min_size=3, max_size=3),
        forward=st.booleans(),
        change=st.none() | st.tuples(st.integers(0, 2**16), st.integers(1, ctx.p - 1)),
    )
    def run(source, values, forward, change):
        program = parse_program(source)
        circuit = flatten(program, ctx)
        assume(0 < circuit.n_gates and 2 * circuit.n_gates < ctx.p)
        inputs = dict(zip(program.inputs, values))
        assignment = (forward_assignment if forward else solve)(circuit, inputs)
        qap = build_qap(circuit)
        if change is not None:
            index, delta = change
            wire = qap.symbols[1 + index % (len(qap.symbols) - 1)]  # not the one-wire
            assignment[wire] = (assignment[wire] + delta) % ctx.p
        fixed = {i: wire.value for i, wire in enumerate(circuit.wires) if wire.kind == "const"}
        fixed[WIRE_ONE] = 1
        assert assemble(qap, assignment).divisible == check_solution(
            circuit, {**assignment, **fixed}
        )

    started = time.perf_counter()
    run()
    elapsed = time.perf_counter() - started
    assert elapsed < BUDGET_S, f"{RELATION_EXAMPLES} assignments took {elapsed:.1f} s"
