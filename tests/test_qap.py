import itertools
from fractions import Fraction

import pytest

from snarkpipe import (
    FieldTooSmall,
    IncompleteAssignment,
    Polynomial,
    Sha256Rng,
    assemble,
    build_qap,
    check_solution,
    flatten,
    parse_program,
    solve,
)
from snarkpipe.circuit import Circuit, Gate, Wire

from conftest import GOOD_COLORING, chain_program, soundness_scan


def hand_circuit_single_times(ctx):
    """a * b = c with no conditions, built directly."""
    wires = [
        Wire(kind="one"),
        Wire(kind="input", name="a"),
        Wire(kind="input", name="b"),
        Wire(kind="gate"),
    ]
    gates = [Gate("Times", 1, 2, 3, 1)]
    return Circuit(
        ctx=ctx, wires=wires, gates=gates, outputs=[], inputs=["a", "b"],
        names={"a": 1, "b": 2, "c": 3},
    )


def hand_circuit_single_plus(ctx):
    wires = [
        Wire(kind="one"),
        Wire(kind="input", name="a"),
        Wire(kind="input", name="b"),
        Wire(kind="gate"),
    ]
    gates = [Gate("Plus", 1, 2, 3, 1)]
    return Circuit(
        ctx=ctx, wires=wires, gates=gates, outputs=[], inputs=["a", "b"],
        names={"a": 1, "b": 2, "c": 3},
    )


def gate_operand_symbols(circuit, gate):
    """Which symbols feed this gate, with constants attributed to the
    one-wire. Plus gates multiply their sum by the constant 1, so the
    one-wire is an operand of every Plus row by construction. Independent
    of the polynomial construction."""
    symbols = set()
    for operand in (gate.left, gate.right):
        wire = circuit.wires[operand]
        if wire.kind in ("const", "one"):
            symbols.add(0)
        else:
            symbols.add(operand)
    if gate.op == "Plus":
        symbols.add(0)
    return symbols


# --- construction ---------------------------------------------------------------


def test_single_times_gate_rows(ctx17):
    qap = build_qap(hand_circuit_single_times(ctx17))
    assert qap.n_gates == 1
    assert qap.symbols == (0, 1, 2, 3)
    by_name = dict(zip(qap.symbol_names, range(len(qap.symbols))))
    assert qap.v[by_name["a"]] == {1: 1}
    assert qap.w[by_name["b"]] == {1: 1}
    assert qap.k[by_name["c"]] == {1: 1}
    assert qap.target == Polynomial(ctx17, [-1, 1])  # x - 1
    # every other entry is the zero polynomial
    assert qap.v[by_name["one"]] == {}
    assert qap.w[by_name["a"]] == {}
    emitted = qap.to_json_dict()
    assert emitted["v"][by_name["a"]] == ["1"]  # the constant polynomial 1
    assert emitted["v"][by_name["one"]] == []


def test_single_plus_gate_rows(ctx17):
    qap = build_qap(hand_circuit_single_plus(ctx17))
    by_name = dict(zip(qap.symbol_names, range(len(qap.symbols))))
    assert qap.v[by_name["a"]] == {1: 1}
    assert qap.v[by_name["b"]] == {1: 1}
    assert qap.w[by_name["one"]] == {1: 1}
    assert qap.k[by_name["c"]] == {1: 1}
    # (t_a + t_b) * 1 = t_c at the single node
    t = {0: 1, 1: 4, 2: 5, 3: 9}
    assert assemble(qap, t).divisible


def test_field_too_small(coloring_program, ctx101):
    # The coloring circuit has N = 69 gates and 101 <= 2N.
    circuit = flatten(coloring_program, ctx101)
    with pytest.raises(FieldTooSmall):
        build_qap(circuit)


def test_degree_bounds(coloring_qap):
    n = coloring_qap.n_gates
    for columns in (coloring_qap.v, coloring_qap.w, coloring_qap.k):
        assert all(1 <= d <= n for col in columns for d in col)
    emitted = coloring_qap.to_json_dict()
    for family in ("v", "w", "k"):
        assert all(len(coeffs) <= n for coeffs in emitted[family])
    assert coloring_qap.target.degree == n
    assert coloring_qap.target.coeffs[-1] == 1


def test_emitted_coefficients_interpolate_the_columns(coloring_qap):
    emitted = coloring_qap.to_json_dict()
    for family in ("v", "w", "k"):
        columns = getattr(coloring_qap, family)
        for coeffs, col in zip(emitted[family], columns):
            poly = Polynomial(coloring_qap.ctx, [int(c) for c in coeffs])
            for d in range(1, coloring_qap.n_gates + 1):
                assert poly.eval_int(d) == col.get(d, 0)


def test_target_vanishes_on_every_node(coloring_qap):
    assert all(
        coloring_qap.target.eval_int(d) == 0
        for d in range(1, coloring_qap.n_gates + 1)
    )
    assert coloring_qap.target.eval_int(coloring_qap.n_gates + 1) != 0


# --- structural properties (exhaustive scans) ------------------------------------


@pytest.mark.parametrize("name", ["coloring5.zkp", "cubic.zkp", "product.zkp"])
def test_output_rows_select_exactly_the_gate_output(name, corpus_programs, ctx):
    circuit = flatten(corpus_programs[name], ctx)
    qap = build_qap(circuit)
    out_by_index = {g.index: g.out for g in circuit.gates}
    for d in range(1, qap.n_gates + 1):
        # the output's entry: its own symbol with 1, or, for a condition
        # gate's pinned output, the one-wire with the pinned constant
        out = circuit.wires[out_by_index[d]]
        symbol, value = (0, out.value) if out.kind == "const" else (out_by_index[d], 1)
        for i, wire in enumerate(qap.symbols):
            expected = value if wire == symbol else 0
            assert qap.k[i].get(d, 0) == expected


@pytest.mark.parametrize("name", ["coloring5.zkp", "cubic.zkp", "product.zkp"])
def test_operand_rows_nonzero_exactly_for_gate_inputs(name, corpus_programs, ctx):
    circuit = flatten(corpus_programs[name], ctx)
    qap = build_qap(circuit)
    gates = {g.index: g for g in circuit.gates}
    for d in range(1, qap.n_gates + 1):
        operands = gate_operand_symbols(circuit, gates[d])
        for i, wire in enumerate(qap.symbols):
            touched = qap.v[i].get(d, 0) != 0 or qap.w[i].get(d, 0) != 0
            assert touched == (wire in operands)


# --- assembling -------------------------------------------------------------------


def test_assemble_valid_solution(coloring_circuit, coloring_qap):
    instance = assemble(coloring_qap, solve(coloring_circuit, GOOD_COLORING))
    assert instance.divisible
    assert instance.h is not None
    assert instance.h * coloring_qap.target == instance.f
    assert instance.f == instance.v * instance.w - instance.k


def test_assemble_tampered_solution(coloring_circuit, coloring_qap):
    assignment = solve(coloring_circuit, GOOD_COLORING)
    internal = next(
        g.out
        for g in coloring_circuit.gates
        if coloring_circuit.wires[g.out].kind == "gate"
    )
    assignment[internal] = assignment[internal] + 1
    instance = assemble(coloring_qap, assignment)
    assert not instance.divisible
    assert instance.h is None


def test_assemble_single_gate_zero_f(ctx17):
    qap = build_qap(hand_circuit_single_times(ctx17))
    t = {0: 1, 1: 2, 2: 3, 3: 6}
    instance = assemble(qap, t)
    assert instance.f.eval_int(1) == 0
    assert instance.divisible
    # 2*3 - 6 = 0 identically: F is the zero polynomial here
    assert instance.f.is_zero()
    assert instance.h.is_zero()


@pytest.mark.parametrize("name", ["coloring5.zkp", "cubic.zkp", "product.zkp"])
@pytest.mark.parametrize("tampered", [False, True], ids=["valid", "tampered"])
def test_assembled_polynomials_take_the_weighted_column_sums_at_every_node(
    name, tampered, corpus_programs, ctx
):
    circuit = flatten(corpus_programs[name], ctx)
    qap = build_qap(circuit)
    inputs = GOOD_COLORING if name == "coloring5.zkp" else {"x": 3, "y": 35}
    assignment = solve(circuit, inputs)
    if tampered:
        assignment[circuit.gates[0].out] += 1
    weights = [assignment[wire] for wire in qap.symbols]
    instance = assemble(qap, assignment)
    for poly, columns in ((instance.v, qap.v), (instance.w, qap.w), (instance.k, qap.k)):
        assert poly.degree < qap.n_gates
        for d in range(1, qap.n_gates + 1):
            expected = sum(t * col.get(d, 0) for t, col in zip(weights, columns)) % ctx.p
            assert poly.eval_int(d) == expected


def test_zero_gate_qap_assembles_to_zero_polynomials(ctx):
    circuit = Circuit(
        ctx=ctx, wires=[Wire(kind="one"), Wire(kind="input", name="a")], gates=[],
        outputs=[], inputs=["a"], names={"a": 1},
    )
    qap = build_qap(circuit)
    assert (qap.n_gates, qap.v, qap.w, qap.k) == (0, [{}, {}], [{}, {}], [{}, {}])
    instance = assemble(qap, {0: 1, 1: 5})
    assert instance.divisible
    for poly in (instance.v, instance.w, instance.k, instance.f, instance.h):
        assert poly.is_zero()


def test_assemble_requires_every_symbol(coloring_qap, coloring_circuit):
    assignment = solve(coloring_circuit, GOOD_COLORING)
    del assignment[coloring_qap.symbols[-1]]
    with pytest.raises(IncompleteAssignment):
        assemble(coloring_qap, assignment)


# --- the central equivalence ------------------------------------------------------


def test_divisibility_iff_solution_exhaustive(coloring_program, coloring_circuit, coloring_qap):
    mismatches = 0
    for colors in itertools.product((1, 2, 3), repeat=5):
        env = dict(zip(("c1", "c2", "c3", "c4", "c5"), colors))
        assignment = solve(coloring_circuit, env)
        if check_solution(coloring_circuit, assignment) != assemble(
            coloring_qap, assignment
        ).divisible:
            mismatches += 1
    assert mismatches == 0


@pytest.mark.parametrize("name", ["cubic.zkp", "product.zkp"])
def test_divisibility_iff_solution_random(name, corpus_programs, ctx):
    circuit = flatten(corpus_programs[name], ctx)
    qap = build_qap(circuit)
    rng = Sha256Rng(b"qap-equivalence")
    for _ in range(100):
        env = {v: rng.randrange(ctx.p) for v in circuit.inputs}
        assignment = solve(circuit, env)
        assert check_solution(circuit, assignment) == assemble(qap, assignment).divisible


def test_divisibility_iff_solution_under_wire_tampering(
    coloring_circuit, coloring_qap
):
    rng = Sha256Rng(b"tamper-equivalence")
    base = solve(coloring_circuit, GOOD_COLORING)
    symbol_wires = list(coloring_qap.symbols)
    for _ in range(50):
        assignment = dict(base)
        wire = symbol_wires[rng.randrange(len(symbol_wires))]
        assignment[wire] = assignment[wire] + rng.randrange(1, 100)
        assert check_solution(coloring_circuit, assignment) == assemble(
            coloring_qap, assignment
        ).divisible


# --- soundness scans ---------------------------------------------------------------


def small_field_qap(ctx101):
    program = parse_program(
        "inputs x, y; out := x^3 + x + 5 - y; assert out == 0;"
    )
    circuit = flatten(program, ctx101)
    return circuit, build_qap(circuit)


def test_scan_valid_solution_hits_everywhere(ctx101):
    circuit, qap = small_field_qap(ctx101)
    assignment = solve(circuit, {"x": 3, "y": 35})
    assert soundness_scan(qap, assignment) == Fraction(1)


def test_scan_forged_solution_bounded_by_2n(ctx101):
    circuit, qap = small_field_qap(ctx101)
    assignment = solve(circuit, {"x": 3, "y": 36})  # off by one: not a solution
    fraction = soundness_scan(qap, assignment)
    hits = fraction.numerator * 101 // fraction.denominator
    assert fraction.denominator in (1, 101)
    assert hits <= 2 * qap.n_gates
    assert fraction < 1


def test_scan_statistical_on_large_field(coloring_circuit, coloring_qap):
    assignment = solve(coloring_circuit, {**GOOD_COLORING, "c1": 1})
    fraction = soundness_scan(coloring_qap, assignment, trials=10000, seed=b"mc")
    # bound is 2N/p ~ 7.5e-18; seeing even one hit would be astronomical
    assert fraction == 0


def test_scan_trial_sampling_is_seeded(ctx101):
    circuit, qap = small_field_qap(ctx101)
    assignment = solve(circuit, {"x": 4, "y": 0})
    a = soundness_scan(qap, assignment, trials=500, seed=b"fixed")
    b = soundness_scan(qap, assignment, trials=500, seed=b"fixed")
    assert a == b


# --- the rows against the columns they replaced -----------------------------------


def columns_oracle(circuit):
    """(v, w, k) per-symbol columns {d: value}, the way build_qap made them
    before it stored the rows of the constraint matrices, with the gate
    output's k entry made as an operand's (a pinned output on the one-wire)."""
    p = circuit.ctx.p
    symbols = circuit.symbol_wires()
    position = {wire: idx for idx, wire in enumerate(symbols)}
    one_pos = position[0]
    cols_v = [{} for _ in symbols]
    cols_w = [{} for _ in symbols]
    cols_k = [{} for _ in symbols]

    def contribute(cols, wire_id, d):
        wire = circuit.wires[wire_id]
        if wire.kind == "const":
            col = cols[one_pos]
            col[d] = (col.get(d, 0) + wire.value) % p
        elif wire.kind == "one":
            col = cols[one_pos]
            col[d] = (col.get(d, 0) + 1) % p
        else:
            col = cols[position[wire_id]]
            col[d] = (col.get(d, 0) + 1) % p

    for gate in circuit.gates:
        d = gate.index
        if gate.op == "Times":
            contribute(cols_v, gate.left, d)
            contribute(cols_w, gate.right, d)
        else:
            contribute(cols_v, gate.left, d)
            contribute(cols_v, gate.right, d)
            cols_w[one_pos][d] = 1
        contribute(cols_k, gate.out, d)
    return cols_v, cols_w, cols_k


def assert_columns_match_oracle(circuit):
    qap = build_qap(circuit)
    assert len(qap.rows) == qap.n_gates
    assert (qap.v, qap.w, qap.k) == columns_oracle(circuit)


def test_columns_match_oracle_on_coloring5(coloring_circuit):
    assert_columns_match_oracle(coloring_circuit)


@pytest.mark.parametrize("links", [1, 2, 5, 22, 99, 399])
def test_columns_match_oracle_on_squaring_chains(links, ctx, ctx97):
    assert_columns_match_oracle(flatten(chain_program(links), ctx))
    if 2 * (2 * links + 3) < 97:
        assert_columns_match_oracle(flatten(chain_program(links), ctx97))


def test_columns_keep_zero_and_doubled_plus_entries(ctx17):
    # 5 + 12 = 0 on the one-wire, and a + a = 2a: one entry each
    wires = [
        Wire(kind="one"),
        Wire(kind="input", name="a"),
        Wire(kind="const", value=5),
        Wire(kind="const", value=12),
        Wire(kind="gate"),
        Wire(kind="gate"),
    ]
    gates = [Gate("Plus", 2, 3, 4, 1), Gate("Plus", 1, 1, 5, 2)]
    circuit = Circuit(
        ctx=ctx17, wires=wires, gates=gates, outputs=[], inputs=["a"], names={"a": 1},
    )
    assert build_qap(circuit).rows == [
        (((0, 0),), ((0, 1),), ((2, 1),)),
        (((1, 2),), ((0, 1),), ((3, 1),)),
    ]
    assert_columns_match_oracle(circuit)


try:
    from hypothesis import given, settings

    from conftest import programs
except ImportError:  # hypothesis is a test extra; the drawn programs skip
    given = None

if given is not None:

    @pytest.mark.filterwarnings("ignore:integer constant")  # constants at or above p
    @settings(derandomize=True, deadline=None, max_examples=80, database=None)
    @given(source=programs())
    def test_columns_match_oracle_on_generated_programs(ctx, ctx97, source):
        program = parse_program(source)
        assert_columns_match_oracle(flatten(program, ctx))
        circuit = flatten(program, ctx97)
        if 2 * circuit.n_gates < 97:
            assert_columns_match_oracle(circuit)
