"""`assemble` against the body it replaced.

The oracle below is what `assemble` did before it checked the nodes: it
interpolated all three families, formed F = V*W - K and divided F by the
target with its remainder. The node check and the quotient of V*W by T must
give exactly its verdict and its H, and the first failing gate must be the
first node where F does not vanish.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from snarkpipe import (  # noqa: E402
    QAP,
    InvalidWitness,
    TransparentGroup,
    assemble,
    build_qap,
    eval_program,
    flatten,
    prove,
    setup,
    solve,
)
from snarkpipe.circuit import Circuit, Wire  # noqa: E402
from snarkpipe.polynomial import Polynomial, SubproductTree, pays  # noqa: E402

from conftest import (  # noqa: E402
    BAD_COLORING,
    GOOD_COLORING,
    chain_program,
    derived,
    interpolate,
    target,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=80, database=None)


def assemble_oracle(qap, assignment):
    """(divisible, H or None, F) the way assemble computed them before."""
    p = qap.ctx.p
    weights = [assignment[wire] % p for wire in qap.symbols]

    def at_nodes(columns) -> list:
        values = [0] * qap.n_gates
        for weight, col in zip(weights, columns):
            if weight:
                for d, value in col.items():
                    values[d - 1] += weight * value
        return [value % p for value in values]

    v, w, k = (interpolate(qap, at_nodes(cols)) for cols in derived(qap).columns)
    f = Polynomial.weighted_sum(qap.ctx, ((1, v * w), (-1, k)))
    quotient, remainder = divmod(f, target(qap))
    divisible = not remainder.coeffs
    return divisible, quotient if divisible else None, f


def assert_matches_oracle(qap, assignment):
    divisible, h, f = assemble_oracle(qap, assignment)
    instance = assemble(qap, assignment)
    assert instance.divisible == divisible
    assert (instance.h and instance.h.coeffs) == (h and h.coeffs)  # or both None
    failing = next((d for d in range(1, qap.n_gates + 1) if f.eval_int(d)), None)
    assert instance.failing_gate == failing
    assert derived(qap, instance).f.coeffs == f.coeffs
    return instance


# --- every coloring, chains, tamperings, the empty program ----------------------


def test_every_coloring_matches_oracle(coloring_circuit, coloring_qap):
    verdicts = set()
    for colors in itertools.product((1, 2, 3), repeat=5):
        env = dict(zip(("c1", "c2", "c3", "c4", "c5"), colors))
        instance = assert_matches_oracle(coloring_qap, solve(coloring_circuit, env))
        verdicts.add(instance.divisible)
    assert verdicts == {True, False}


@pytest.mark.parametrize("links", list(range(1, 20)) + [99], ids=lambda n: f"N{2 * n + 3}")
def test_squaring_chains_match_oracle(links, ctx):
    program = chain_program(links)
    circuit = flatten(program, ctx)
    qap = build_qap(circuit)
    assert qap.n_gates == 2 * links + 3
    a = 123456789 + links
    y = eval_program(program, {"a": a, "y": 0}, ctx).values["out"]
    honest = assert_matches_oracle(qap, solve(circuit, {"a": a, "y": y}))
    assert honest.divisible and honest.h.degree == qap.n_gates - 2
    refused = assert_matches_oracle(qap, solve(circuit, {"a": a, "y": y + 1}))
    assert refused.failing_gate == qap.n_gates  # the assertion is the last gate


def test_single_wire_tamperings_match_oracle(coloring_circuit, coloring_qap):
    base = solve(coloring_circuit, GOOD_COLORING)
    for wire in coloring_qap.symbols:
        for delta in (1, coloring_qap.ctx.p - 1):
            assignment = {**base, wire: base[wire] + delta}
            assert not assert_matches_oracle(coloring_qap, assignment).divisible


def test_zero_gate_qap_matches_oracle(ctx):
    circuit = Circuit(
        ctx=ctx, wires=[Wire(kind="one"), Wire(kind="input", name="a")], gates=[],
        outputs=[], inputs=["a"], names={"a": 1},
    )
    instance = assert_matches_oracle(build_qap(circuit), {0: 1, 1: 5})
    assert instance.divisible and instance.h.coeffs == ()


# --- drawn assignments where collisions are likely -------------------------------


@pytest.fixture(scope="module")
def small_field_instances(ctx97, corpus_programs):
    programs = {
        "cubic": corpus_programs["cubic.zkp"],
        "product": corpus_programs["product.zkp"],
        "chain": chain_program(10),  # N = 23: 97 > 2N
    }
    circuits = {name: flatten(program, ctx97) for name, program in programs.items()}
    return {name: (circuit, build_qap(circuit)) for name, circuit in circuits.items()}


@SETTINGS
@given(data=st.data())
def test_drawn_assignments_match_oracle_at_p97(small_field_instances, data):
    name = data.draw(st.sampled_from(sorted(small_field_instances)))
    circuit, qap = small_field_instances[name]
    residue = st.integers(0, 96)
    inputs = {v: data.draw(residue) for v in circuit.inputs}
    assignment = solve(circuit, inputs)
    overrides = data.draw(st.dictionaries(st.sampled_from(qap.symbols), residue, max_size=3))
    assert_matches_oracle(qap, {**assignment, **overrides})


# --- what the prover computes --------------------------------------------------------


@pytest.fixture()
def fresh_coloring(coloring_circuit, ctx):
    """A QAP with nothing cached, and keys for it."""
    qap = build_qap(coloring_circuit)
    ek, _ = setup(build_qap(coloring_circuit), TransparentGroup(ctx), bytes([3]))
    return qap, ek


def test_refused_prove_builds_no_tree_and_interpolates_nothing(
    fresh_coloring, coloring_circuit, monkeypatch
):
    qap, ek = fresh_coloring

    def refuse(*args):
        raise AssertionError("a refused prove must not interpolate")

    monkeypatch.setattr(SubproductTree, "__init__", refuse)
    for name in ("__mul__", "__divmod__", "eval_int"):
        monkeypatch.setattr(Polynomial, name, refuse)
    with pytest.raises(InvalidWitness, match=r"^gate \d+ does not hold"):
        prove(ek, qap, solve(coloring_circuit, BAD_COLORING))


def test_honest_prove_interpolates_two_families_and_divides_once(
    fresh_coloring, coloring_circuit, ctx, monkeypatch
):
    # V and W go from their node values to H packed: one quotient, one pass
    # up the tree that carries both combinations, and no coefficient list,
    # product, remainder or F in between. coloring5 (N = 69) takes the one-point form, a
    # 201-gate squaring chain the two-point form.
    qap, ek = fresh_coloring
    assignment = solve(coloring_circuit, GOOD_COLORING)
    assert_one_quotient(qap, ek, assignment, 1, monkeypatch)
    program = chain_program(99)
    circuit = flatten(program, ctx)
    y = eval_program(program, {"a": 5, "y": 0}, ctx).values["out"]
    ek, _ = setup(build_qap(circuit), TransparentGroup(ctx), bytes([3]))
    assignment = solve(circuit, {"a": 5, "y": y})
    assert_one_quotient(build_qap(circuit), ek, assignment, 2, monkeypatch)


def assert_one_quotient(qap, ek, assignment, points, monkeypatch):
    """An honest prove makes one quotient from the node values of V and W
    and one pass up a tree at that many Kronecker points, which carries the
    scales of both."""
    assert pays(qap.ctx.p, qap.n_gates) == (points == 2)
    quotients, passes = [], []
    quotient, one_pass = QAP.quotient, SubproductTree._pass

    def counting_quotient(self, at_v, at_w):
        quotients.append((at_v, at_w))
        return quotient(self, at_v, at_w)

    def counting_pass(self, *families):
        passes.append((len(self.form.points), families))
        return one_pass(self, *families)

    def refuse(*args):
        raise AssertionError("prove needs no remainder, no F and no coefficient list")

    at_v, at_w, _ = assemble(qap, assignment).nodes
    with monkeypatch.context() as patch:
        patch.setattr(QAP, "quotient", counting_quotient)
        patch.setattr(SubproductTree, "_pass", counting_pass)
        for name in ("__mul__", "__divmod__", "eval_int"):
            patch.setattr(Polynomial, name, refuse)
        prove(ek, qap, assignment)
    assert quotients == [(at_v, at_w)]
    scales = tuple([v * w for v, w in zip(at, qap.weights)] for at in (at_v, at_w))
    assert passes == [(points, scales)]
