import itertools

import pytest

from snarkpipe import (
    FieldContext,
    ParseError,
    Relation,
    eval_program,
    flatten,
    format_program,
    parse_program,
)
from snarkpipe import field
from snarkpipe.circuit import Circuit
from snarkpipe.frontend import (
    MAX_GATES,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    Add,
    Constant,
    FieldReductionWarning,
    Mul,
    Neg,
    Pow,
    Variable,
)

from conftest import COLORING_EDGES, GOOD_COLORING

DEEP_SOURCE = "inputs x; y := " + "(" * 3000 + "x" + ")" * 3000 + "; assert y == 0;"
# x^MAX_GATES is MAX_GATES - 1 gates; two conditions make it one too many.
OVER_BUDGET_SOURCE = f"inputs x; y := x^{MAX_GATES}; assert y == 0; assert y != 0;"


# --- independent oracles ------------------------------------------------------


def eval_over_integers(expr, env):
    """Plain integer tree evaluation, no modular reduction anywhere."""
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, Variable):
        return env[expr.name]
    if isinstance(expr, Neg):
        return -eval_over_integers(expr.operand, env)
    if isinstance(expr, Add):
        return sum(eval_over_integers(t, env) for t in expr.terms)
    if isinstance(expr, Mul):
        out = 1
        for f in expr.factors:
            out *= eval_over_integers(f, env)
        return out
    if isinstance(expr, Pow):
        return eval_over_integers(expr.base, env) ** expr.exponent
    raise TypeError(expr)


def is_proper_coloring(colors):
    """Adjacency-scan oracle for the bundled 5-vertex graph."""
    if any(c not in (1, 2, 3) for c in colors):
        return False
    return all(colors[u - 1] != colors[v - 1] for u, v in COLORING_EDGES)


# --- parsing ------------------------------------------------------------------


def test_minimal_program():
    program = parse_program("inputs x, y; out := x*y; assert out == 0;")
    assert program.inputs == ("x", "y")
    assert len(program.definitions) == 1
    assert program.conditions == (("out", Relation.EQUAL_ZERO),)


def test_coloring_program_shape(coloring_program):
    assert coloring_program.inputs == ("c1", "c2", "c3", "c4", "c5")
    assert [name for name, _ in coloring_program.definitions] == ["f1", "f2"]
    assert coloring_program.conditions == (
        ("f1", Relation.NOT_EQUAL_ZERO),
        ("f2", Relation.EQUAL_ZERO),
    )
    # f1 is the 8-factor edge product, f2 the 5-term color-range sum
    f1 = dict(coloring_program.definitions)["f1"]
    f2 = dict(coloring_program.definitions)["f2"]
    assert isinstance(f1, Mul) and len(f1.factors) == 8
    assert isinstance(f2, Add) and len(f2.terms) == 5


def test_desugaring_shapes():
    program = parse_program("inputs x; a := x - 3; b := -x; c := x^3; assert a == 0;")
    defs = dict(program.definitions)
    assert defs["a"] == Add((Variable("x"), Neg(Constant(3))))
    assert defs["b"] == Neg(Variable("x"))
    assert defs["c"] == Pow(Variable("x"), 3)


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_program("inputs x; y := x + ; assert y == 0;")
    assert err.value.code == "syntax"
    assert err.value.line == 1
    assert err.value.col == 20  # the ';' right after the dangling '+'


@pytest.mark.parametrize(
    "source,message",
    [
        ("inputs x;\ny := x", "line 2, col 7: expected ';', found end of input"),
        ("inputs x;\ny := (", "line 2, col 7: expected a value, found end of input"),
        ("inputs x;\ny := (x)", "line 2, col 9: expected ';', found end of input"),
        ("inputs x;", "line 1, col 10: program needs at least one assertion"),
        # a trailing comment counts its columns too
        ("inputs x; # no assertions", "line 1, col 26: program needs at least one assertion"),
        ("inputs x;\ny := x # c", "line 2, col 11: expected ';', found end of input"),
    ],
)
def test_end_of_input_is_one_column_past_the_last_character(source, message):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert str(err.value) == message


def test_duplicate_input_is_reported_where_it_repeats():
    with pytest.raises(ParseError) as err:
        parse_program("inputs x, y, x; z := x; assert z == 0;")
    assert str(err.value) == "line 1, col 14: duplicate input 'x'"
    assert err.value.code == "duplicate-name"
    # as a second definition is
    with pytest.raises(ParseError) as err:
        parse_program("inputs x; y := x;\n  y := x; assert y == 0;")
    assert str(err.value) == "line 2, col 3: 'y' is already defined"


@pytest.mark.parametrize(
    "source,message",
    [
        # a third definition is not where the name first repeats
        (
            "inputs x; y := x; y := x;\ny := x; assert y == 0;",
            "line 1, col 19: 'y' is already defined",
        ),
        # an unknown target asserted twice, at its first assert
        (
            "inputs x; y := x; assert z == 0;\nassert z != 0;",
            "line 1, col 26: unknown identifier 'z'",
        ),
        (
            "inputs x; y := x; assert x == 0;\nassert x != 0;",
            "line 1, col 26: assertion target 'x' is an input, not a definition",
        ),
        # the first of several bad names in one definition, in source order
        ("inputs x; y := a + b; assert y == 0;", "line 1, col 16: unknown identifier 'a'"),
        ("inputs x; y := (a * c) + b; assert y == 0;", "line 1, col 17: unknown identifier 'a'"),
        (
            "inputs x; y := b - a; a := x; b := x; assert y == 0;",
            "line 1, col 16: 'b' is used before its definition",
        ),
        # the end of input after an assertion target
        (
            "inputs x; y := x; assert y",
            "line 1, col 27: expected '==' or '!=', found end of input",
        ),
    ],
)
def test_diagnostics_point_at_the_first_fault(source, message):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "source,code",
    [
        ("inputs x; y := z + 1; assert y == 0;", "unknown-identifier"),
        ("inputs x; a := b; b := x; assert a == 0;", "forward-reference"),
        ("inputs x; y := x^0; assert y == 0;", "bad-exponent"),
        ("inputs x; y := x^-2; assert y == 0;", "bad-exponent"),
        ("inputs x, x; y := x; assert y == 0;", "duplicate-name"),
        ("inputs x; y := x; y := x; assert y == 0;", "duplicate-name"),
        ("inputs one; y := one; assert y == 0;", "reserved-name"),
        ("inputs x; assert x == 0;", "bad-assertion-target"),
        ("inputs x; y := x; assert z == 0;", "unknown-identifier"),
        pytest.param(DEEP_SOURCE, "too-deep", id="3000-nested-parentheses"),
        pytest.param(
            "inputs x; y := x^100000000; assert y == 0;", "too-many-gates", id="huge-exponent"
        ),
        pytest.param(OVER_BUDGET_SOURCE, "too-many-gates", id="one-gate-over-budget"),
        pytest.param("inputs x; y := x^\u0663; assert y == 0;", "syntax", id="arabic-digit"),
        pytest.param("inputs x; y := x + \u00b2; assert y == 0;", "syntax", id="superscript-two"),
        pytest.param(
            f"inputs x; y := x + {'7' * 5000}; assert y == 0;", "too-long", id="5000-digits"
        ),
        pytest.param(
            f"inputs x; y := x^{'0' * 5000}2; assert y == 0;", "too-long", id="5001-digit-power"
        ),
    ],
)
def test_distinct_diagnostics(source, code):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert err.value.code == code


def test_bounds_admit_programs_at_the_limit():
    nested = "-(" * MAX_NESTING + "x" + "*x + x)^2" * MAX_NESTING
    program = parse_program(f"inputs x; y := {nested}; assert y == 0;")
    assert parse_program(format_program(program)) == program
    at_budget = parse_program(OVER_BUDGET_SOURCE.removesuffix(" assert y != 0;"))
    circuit = flatten(at_budget, FieldContext())
    # one bound for programs, circuit files and evaluation keys
    assert MAX_GATES is field.MAX_GATES
    assert circuit.n_gates == MAX_GATES
    assert Circuit.from_json_dict(circuit.to_json_dict()).n_gates == MAX_GATES
    longest = parse_program(f"inputs x; y := x + {'9' * MAX_LITERAL_DIGITS}; assert y == 0;")
    assert dict(longest.definitions)["y"].terms[1] == Constant(int("9" * MAX_LITERAL_DIGITS))


def test_too_long_literal_names_its_position():
    with pytest.raises(ParseError) as err:
        parse_program(f"inputs x;\ny := x\n  * {'1' * (MAX_LITERAL_DIGITS + 1)};\nassert y == 0;")
    assert (err.value.code, err.value.line, err.value.col) == ("too-long", 3, 5)


def test_assertion_requires_literal_zero():
    with pytest.raises(ParseError):
        parse_program("inputs x; y := x; assert y == 1;")


def test_definitions_cannot_follow_assertions():
    with pytest.raises(ParseError):
        parse_program("inputs x; a := x; assert a == 0; b := x;")


def test_program_needs_an_assertion():
    with pytest.raises(ParseError):
        parse_program("inputs x; y := x;")


def test_comments_and_whitespace():
    program = parse_program(
        "# heading\ninputs x;  # trailing\n\nout := x * 2;\nassert out != 0;\n"
    )
    assert [name for name, _ in program.definitions] == ["out"]


def test_parse_is_deterministic(coloring_program):
    from snarkpipe.bundled import load_bundled_text

    again = parse_program(load_bundled_text("coloring5.zkp"))
    assert again == coloring_program


# --- pretty printer -----------------------------------------------------------


@pytest.mark.parametrize("name", ["coloring5.zkp", "cubic.zkp", "product.zkp"])
def test_round_trip_bundled(name, corpus_programs):
    program = corpus_programs[name]
    assert parse_program(format_program(program)) == program


@pytest.mark.parametrize(
    "source",
    [
        "inputs x; y := -(x + 1)*(x - 2)^3; assert y == 0;",
        "inputs x; y := x*(-x); assert y != 0;",
        "inputs x; y := 1 + (2 + x); assert y == 0;",
        "inputs x; y := ((x))^2 - -3; assert y == 0;",
        "inputs x; y := (-x)^3; assert y == 0;",
        "inputs x; y := ((x)^2)^3 + (x^2)^1; assert y == 0;",
        "inputs x; y := -(-x) - -(-x)^2; assert y == 0;",
    ],
)
def test_round_trip_tricky_nesting(source):
    program = parse_program(source)
    assert parse_program(format_program(program)) == program


def test_round_trip_equality_sees_node_types():
    plus = parse_program("inputs x, y; z := x + y; assert z == 0;")
    times = parse_program("inputs x, y; z := x * y; assert z == 0;")
    assert plus != times and hash(plus) != hash(times)
    assert parse_program(format_program(times)) == times != plus


# --- expression nodes ---------------------------------------------------------


def test_nodes_of_different_types_with_equal_fields_differ():
    x, y = Variable("x"), Variable("y")
    assert Add((x, y)) != Mul((x, y))
    assert not Add((x, y)) == Mul((x, y))
    assert hash(Add((x, y))) != hash(Mul((x, y)))
    one_field = [Constant("x"), Variable("x"), Neg("x"), ("x",)]
    for a, b in itertools.combinations(one_field, 2):
        assert a != b and b != a
    assert len({hash(node) for node in one_field}) == len(one_field)
    assert Add((x, y)) == Add((Variable("x"), Variable("y")))
    assert hash(Add((x, y))) == hash(Add((Variable("x"), Variable("y"))))


@pytest.mark.parametrize(
    "node,field",
    [
        (Constant(3), "value"),
        (Variable("x"), "name"),
        (Add((Variable("x"), Constant(1))), "terms"),
        (Mul((Variable("x"), Constant(2))), "factors"),
        (Neg(Variable("x")), "operand"),
        (Pow(Variable("x"), 2), "base"),
        (Pow(Variable("x"), 2), "exponent"),
    ],
)
def test_nodes_are_immutable(node, field):
    with pytest.raises(AttributeError):
        setattr(node, field, Constant(0))


# --- evaluation ---------------------------------------------------------------


def test_eval_good_coloring(coloring_program, ctx):
    result = eval_program(coloring_program, GOOD_COLORING, ctx)
    assert result.values["f1"] == ctx.p - 4  # -4 in the field
    assert result.values["f2"] == 0
    assert all(type(v) is int and 0 <= v < ctx.p for v in result.values.values())
    assert result.ok


def test_eval_repeated_color_kills_f1(coloring_program, ctx):
    result = eval_program(coloring_program, {**GOOD_COLORING, "c1": 1}, ctx)
    assert result.values["f1"] == 0
    checks = {c.name: c.holds for c in result.conditions}
    assert not checks["f1"] and checks["f2"]


def test_eval_out_of_range_color_kills_f2(coloring_program, ctx):
    result = eval_program(coloring_program, {**GOOD_COLORING, "c1": 4}, ctx)
    # (1-4)(2-4)(3-4) = -6, every other term 0
    assert result.values["f2"] == ctx.p - 6
    checks = {c.name: c.holds for c in result.conditions}
    assert checks["f1"] and not checks["f2"]


def test_eval_rejects_wrong_input_names(coloring_program, ctx):
    with pytest.raises(ValueError):
        eval_program(coloring_program, {"c1": 1}, ctx)
    with pytest.raises(ValueError):
        eval_program(coloring_program, {**GOOD_COLORING, "c6": 1}, ctx)


def test_big_constant_warns(ctx17):
    program = parse_program("inputs x; y := x + 100; assert y == 0;")
    with pytest.warns(FieldReductionWarning):
        result = eval_program(program, {"x": 0}, ctx17)
    assert result.values["y"] == 100 % 17


def test_field_eval_matches_integer_eval_on_all_color_vectors(coloring_program, ctx):
    # Intermediate magnitudes stay far below p, so plain integer evaluation
    # must agree with field evaluation after reduction.
    defs = dict(coloring_program.definitions)
    for colors in itertools.product((1, 2, 3), repeat=5):
        env = dict(zip(("c1", "c2", "c3", "c4", "c5"), colors))
        result = eval_program(coloring_program, env, ctx)
        for name in ("f1", "f2"):
            over_z = eval_over_integers(defs[name], dict(env))
            assert result.values[name] == over_z % ctx.p


def test_condition_semantics_match_adjacency_oracle(coloring_program, ctx):
    for colors in itertools.product((1, 2, 3), repeat=5):
        env = dict(zip(("c1", "c2", "c3", "c4", "c5"), colors))
        result = eval_program(coloring_program, env, ctx)
        assert result.ok == is_proper_coloring(colors)
