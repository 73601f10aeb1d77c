import itertools
import json

import pytest

from snarkpipe import (
    Circuit,
    IncompleteAssignment,
    Relation,
    Sha256Rng,
    check_solution,
    eval_program,
    flatten,
    parse_program,
    solve,
)
from snarkpipe.circuit import PLUS, TIMES, WIRE_ONE, Gate, Wire
from snarkpipe.frontend import Add, Constant, Mul, Neg, Pow, Variable

from conftest import BAD_COLORING, GOOD_COLORING, StreamRandom


# --- independent gate-count oracle ---------------------------------------------


def count_binary_gates(expr):
    """Recursive node count of the binary-desugared expression tree."""
    if isinstance(expr, (Constant, Variable)):
        return 0
    if isinstance(expr, Neg):
        return count_binary_gates(expr.operand) + 1  # one Times by -1
    if isinstance(expr, Add):
        return sum(count_binary_gates(t) for t in expr.terms) + len(expr.terms) - 1
    if isinstance(expr, Mul):
        return sum(count_binary_gates(f) for f in expr.factors) + len(expr.factors) - 1
    if isinstance(expr, Pow):
        return count_binary_gates(expr.base) + expr.exponent - 1
    raise TypeError(expr)


def expected_gate_total(program):
    # Each assertion contributes exactly one condition gate.
    return sum(count_binary_gates(e) for _, e in program.definitions) + len(
        program.conditions
    )


# --- flattening -----------------------------------------------------------------


def test_single_times_gate(ctx):
    circuit = flatten(parse_program("inputs x, y; out := x*y; assert out == 0;"), ctx)
    arithmetic = [g for g in circuit.gates if circuit.wires[g.out].kind == "gate"]
    assert len(arithmetic) == 1
    assert arithmetic[0].op == TIMES
    assert circuit.n_gates == 2  # plus the condition gate


def test_square_plus_constant_shape(ctx):
    circuit = flatten(parse_program("inputs x; out := x*x + 3; assert out == 0;"), ctx)
    arithmetic = [g for g in circuit.gates if circuit.wires[g.out].kind == "gate"]
    assert [g.op for g in arithmetic] == [TIMES, PLUS]
    times, plus = arithmetic
    x = circuit.names["x"]
    assert (times.left, times.right) == (x, x)
    assert circuit.wires[plus.right].kind == "const"
    assert circuit.wires[plus.right].value == 3
    assert plus.left == times.out


def test_coloring_gate_count_matches_oracle(coloring_program, coloring_circuit):
    assert coloring_circuit.n_gates == expected_gate_total(coloring_program)
    # f1 alone: 8 binary difference chains (Neg + Plus each) plus 7 products.
    f1 = dict(coloring_program.definitions)["f1"]
    assert count_binary_gates(f1) == 8 * 2 + 7


@pytest.mark.parametrize("name", ["coloring5.zkp", "cubic.zkp", "product.zkp"])
def test_corpus_gate_counts(name, corpus_programs, ctx):
    program = corpus_programs[name]
    assert flatten(program, ctx).n_gates == expected_gate_total(program)


def test_wire_zero_is_one(coloring_circuit):
    assert coloring_circuit.wires[WIRE_ONE].kind == "one"
    assert all(g.out != WIRE_ONE for g in coloring_circuit.gates)


def test_gate_indices_topological(coloring_circuit):
    indices = [g.index for g in coloring_circuit.gates]
    assert indices == list(range(1, coloring_circuit.n_gates + 1))
    for gate in coloring_circuit.gates:
        assert gate.left < gate.out
        assert gate.right < gate.out


def test_outputs_recorded_with_relations(coloring_circuit):
    relations = [rel for _, rel in coloring_circuit.outputs]
    assert relations == [Relation.NOT_EQUAL_ZERO, Relation.EQUAL_ZERO]
    f1_wire, _ = coloring_circuit.outputs[0]
    assert f1_wire == coloring_circuit.names["f1"]


def test_constants_deduplicated(ctx):
    circuit = flatten(
        parse_program("inputs x; a := x + 3; b := x*3 + 3; assert b == 0;"), ctx
    )
    const_threes = [
        w
        for g in circuit.gates
        for w in (g.left, g.right)
        if circuit.wires[w].kind == "const" and circuit.wires[w].value == 3
    ]
    assert len(set(const_threes)) == 1


def test_flattening_deterministic(coloring_program, ctx):
    a = flatten(coloring_program, ctx).to_json_bytes()
    b = flatten(coloring_program, ctx).to_json_bytes()
    assert a == b


@pytest.mark.parametrize(
    "record,field",
    [
        (Wire(kind="one"), "kind"),
        (Wire(kind="const", value=3), "value"),
        (Wire(kind="inverse", of=1), "of"),
        (Gate(TIMES, 1, 2, 3, 1), "out"),
        (Gate(PLUS, 1, 2, 3, 1), "op"),
    ],
)
def test_wires_and_gates_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)


def test_circuit_json_round_trip(coloring_circuit):
    data = coloring_circuit.to_json_dict()
    again = Circuit.from_json_dict(data)
    assert again.to_json_bytes() == coloring_circuit.to_json_bytes()
    assert again.ctx == coloring_circuit.ctx


# --- solving --------------------------------------------------------------------


def test_solve_single_gate(ctx):
    circuit = flatten(parse_program("inputs x, y; out := x*y; assert out != 0;"), ctx)
    assignment = solve(circuit, {"x": 2, "y": 3})
    assert assignment[circuit.names["out"]] == 6


def test_solve_coloring_outputs(coloring_circuit, ctx):
    assignment = solve(coloring_circuit, GOOD_COLORING)
    assert assignment[coloring_circuit.names["f1"]] == ctx.p - 4
    assert assignment[coloring_circuit.names["f2"]] == 0
    assert all(type(v) is int and 0 <= v < ctx.p for v in assignment.values())


def test_solve_matches_eval_on_all_color_vectors(
    coloring_program, coloring_circuit, ctx
):
    # Exhaustive cross-check of the compiled form against tree evaluation.
    for colors in itertools.product((1, 2, 3), repeat=5):
        env = dict(zip(("c1", "c2", "c3", "c4", "c5"), colors))
        assignment = solve(coloring_circuit, env)
        evaluated = eval_program(coloring_program, env, ctx)
        for name in ("f1", "f2"):
            assert assignment[coloring_circuit.names[name]] == evaluated.values[name]
        assert check_solution(coloring_circuit, assignment) == evaluated.ok


def test_solve_requires_exact_input_names(coloring_circuit):
    with pytest.raises(ValueError):
        solve(coloring_circuit, {"c1": 1})
    with pytest.raises(ValueError):
        solve(coloring_circuit, {**GOOD_COLORING, "c9": 0})


def test_solve_is_total_even_when_conditions_fail(coloring_circuit):
    assignment = solve(coloring_circuit, BAD_COLORING)
    assert len(assignment) == len(coloring_circuit.wires)
    assert not check_solution(coloring_circuit, assignment)


# --- checking -------------------------------------------------------------------


def test_check_accepts_solver_output(coloring_circuit):
    assert check_solution(coloring_circuit, solve(coloring_circuit, GOOD_COLORING))


def test_check_rejects_forced_zero_output(coloring_circuit):
    assignment = solve(coloring_circuit, GOOD_COLORING)
    f1 = coloring_circuit.names["f1"]
    tampered = dict(assignment)
    tampered[f1] = 0
    assert not check_solution(coloring_circuit, tampered)


def test_check_rejects_gate_value_off_by_one(coloring_circuit):
    assignment = solve(coloring_circuit, GOOD_COLORING)
    internal = next(
        g.out
        for g in coloring_circuit.gates
        if coloring_circuit.wires[g.out].kind == "gate"
    )
    tampered = dict(assignment)
    tampered[internal] = tampered[internal] + 1
    assert not check_solution(coloring_circuit, tampered)


def test_check_rejects_tampered_constant(coloring_circuit):
    assignment = solve(coloring_circuit, GOOD_COLORING)
    const_wire = next(
        i for i, w in enumerate(coloring_circuit.wires) if w.kind == "const"
    )
    tampered = dict(assignment)
    tampered[const_wire] = tampered[const_wire] + 1
    assert not check_solution(coloring_circuit, tampered)


def test_check_requires_total_assignment(coloring_circuit):
    assignment = solve(coloring_circuit, GOOD_COLORING)
    del assignment[coloring_circuit.names["f1"]]
    with pytest.raises(IncompleteAssignment):
        check_solution(coloring_circuit, assignment)


def test_random_inputs_cross_check(corpus_programs, ctx):
    rng = StreamRandom(Sha256Rng(b"circuit-cross-check"))
    for name, program in corpus_programs.items():
        circuit = flatten(program, ctx)
        for _ in range(100):
            env = {v: rng.randrange(ctx.p) for v in program.inputs}
            assignment = solve(circuit, env)
            assert check_solution(circuit, assignment) == eval_program(
                program, env, ctx
            ).ok


def test_flattened_circuits_pass_load_validation(corpus_programs, ctx):
    chain = "inputs a; f0 := a*a;\n" + "".join(
        f"f{i} := f{i - 1}*f{i - 1} + a - 7;\n" for i in range(1, 40)
    ) + "assert f39 != 0;\n"
    programs = [*corpus_programs.values(), parse_program(chain)]
    for program in programs:
        circuit = flatten(program, ctx)
        again = Circuit.from_json_dict(json.loads(circuit.to_json_bytes()))
        assert again.to_json_bytes() == circuit.to_json_bytes()
