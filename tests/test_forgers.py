"""Forgers that build witness keys from evaluation-key entries and the public
statement alone, one per verifier check, and one against the relation itself.

Each forger folds key entries with weights it picks, as `prove` does, but
never asks `prove` and never sees the trapdoor: its group elements are
products of powers of evaluation-key entries (Pinocchio: Parno, Howell,
Gentry and Raykova, IEEE S&P 2013). It may compute from the public program,
as anyone can. Each forger must fail exactly the checks listed for it:

    relation       the forward-evaluated coloring5 assignment for an improper
                   coloring, in which every condition gate's pinned output
                   takes the value its gate computes, with H = V*W // T: the
                   QAP holds the pinned outputs to their constants, so only
                   the divisibility check fails; likewise for
                   out := x*y - 6; assert out == 0; at x=2, y=4
    divisibility   an honest fold with a random H
    span           v and alpha_v folded from the w-family entries, and w and
                   alpha_w from the v family
    coefficients   mix and match: x weighs 1 in the v family and 5 in the w
                   family, so that x*x - y = 0 holds with y = 5 public at
                   p = 97, where 5 is no square

So a verifier without one check accepts exactly the forgers aimed at it.
"""

import pytest

from snarkpipe import (
    FieldContext,
    InvalidWitness,
    TransparentGroup,
    VerifyResult,
    WitnessKey,
    assemble,
    build_qap,
    check_solution,
    flatten,
    parse_program,
    prove,
    setup,
    solve,
    verify,
)
from snarkpipe.bundled import load_bundled_text

from conftest import BAD_COLORING, GOOD_COLORING, forward_assignment

SEED = b"forgers"
MERSENNE_61 = 2**61 - 1
CHECKS = VerifyResult._fields  # divisibility, span, coefficients
COLORING5 = load_bundled_text("coloring5.zkp")


def keyed(source: str, p: int | None, public=("one",)):
    """The program's circuit, QAP and key pair: the public statement."""
    ctx = FieldContext(p) if p else FieldContext()
    circuit = flatten(parse_program(source), ctx)
    qap = build_qap(circuit)
    return circuit, qap, *setup(qap, TransparentGroup(ctx), SEED, public)


def fold(ek, weights, h_coeffs, swap=False) -> WitnessKey:
    """A witness key from key entries only. `weights` gives each family
    ("v", "w", "k" and "z", the beta entries') a weight per symbol in QAP
    order, public symbols skipped as prove skips them; h folds the powers
    of s with `h_coeffs`. With `swap`, v and its alpha come from the w
    family's entries and w and its alpha from the v family's."""
    private = ek.private_indices()

    def msm(entries, family):
        scalars = weights[family]
        return ek.group.msm([entries[i] for i in private], [scalars[i] for i in private])

    v, w = ("w", "v") if swap else ("v", "w")
    return WitnessKey(
        v=msm(getattr(ek, v), "v"),
        w=msm(getattr(ek, w), "w"),
        k=msm(ek.k, "k"),
        h=ek.group.msm(ek.powers_of_s, h_coeffs),
        alpha_v=msm(getattr(ek, f"alpha_{v}"), "v"),
        alpha_w=msm(getattr(ek, f"alpha_{w}"), "w"),
        alpha_k=msm(ek.alpha_k, "k"),
        z=msm(ek.beta, "z"),
    )


def quotient(qap, v_assignment, w_assignment) -> list:
    """The coefficients of V*W // T for the weights the forger gives the v
    and the w family, computed from the public program."""
    v, w = assemble(qap, v_assignment).v, assemble(qap, w_assignment).w
    return ((v * w) // qap.target).coeffs


def same_weights(qap, assignment) -> dict:
    weights = [assignment[wire] % qap.ctx.p for wire in qap.symbols]
    return dict.fromkeys(("v", "w", "k", "z"), weights)


# --- the forgers ------------------------------------------------------------------


def forge_relation(p, source=COLORING5, inputs=BAD_COLORING):
    circuit, qap, ek, vk = keyed(source, p)
    forged = forward_assignment(circuit, inputs)
    assert not check_solution(circuit, forged)
    wk = fold(ek, same_weights(qap, forged), quotient(qap, forged, forged))
    return verify(vk, wk)


def forge_relation_zero(p):
    # coloring5's failing condition pins a 1; this one pins a 0, and at
    # x=2, y=4 its gate computes 2
    return forge_relation(p, "inputs x, y; out := x*y - 6; assert out == 0;", {"x": 2, "y": 4})


def forge_divisibility(p):
    circuit, qap, ek, vk = keyed(COLORING5, p)
    assignment = solve(circuit, GOOD_COLORING)
    h_coeffs = [(31337 * i + 7) % qap.ctx.p for i in range(qap.n_gates)]
    return verify(vk, fold(ek, same_weights(qap, assignment), h_coeffs))


def forge_span(p):
    # the one-wire has no v or w entry here, so the verifier's public fold
    # leaves the swapped v and w as they are and V*W keeps its value
    circuit, qap, ek, vk = keyed("inputs x, y; out := x*y; assert out != 0;", p)
    assignment = solve(circuit, {"x": 3, "y": 4})
    weights = same_weights(qap, assignment)
    return verify(vk, fold(ek, weights, quotient(qap, assignment, assignment), swap=True))


def forge_coefficients(p):
    circuit, qap, ek, vk = keyed("inputs x, y; out := x*x - y; assert out == 0;", p, ("y",))
    assert all(x * x % p != 5 for x in range(p))  # no honest prover exists
    # each gate output takes V(d) * W(d): x*x = 1 * 5, then 5 - 5 = 0
    v_side = solve(circuit, {"x": 1, "y": 5})
    v_side.update({circuit.gates[0].out: 5, circuit.names["out"]: 0})
    w_side = {**v_side, circuit.names["x"]: 5}
    weights = same_weights(qap, v_side)  # k and z take the v weights
    weights["w"] = same_weights(qap, w_side)["w"]
    wk = fold(ek, weights, quotient(qap, v_side, w_side))
    return verify(vk, wk, {"y": 5})


def forge_nothing(p):
    circuit, qap, ek, vk = keyed(COLORING5, p)
    assignment = solve(circuit, GOOD_COLORING)
    wk = fold(ek, same_weights(qap, assignment), quotient(qap, assignment, assignment))
    assert wk == prove(ek, qap, assignment)
    return verify(vk, wk)


# forger, the moduli it runs at, and the checks it must fail
FORGERS = {
    "honest": (forge_nothing, (None, MERSENNE_61), ()),
    "relation": (forge_relation, (None, MERSENNE_61), ("divisibility",)),
    "relation_zero": (forge_relation_zero, (None, MERSENNE_61), ("divisibility",)),
    "divisibility": (forge_divisibility, (None, MERSENNE_61), ("divisibility",)),
    "span": (forge_span, (None, MERSENNE_61), ("span",)),
    "coefficients": (forge_coefficients, (97,), ("coefficients",)),
}


@pytest.mark.parametrize(
    "name, p",
    [(name, p) for name, (_, moduli, _) in FORGERS.items() for p in moduli],
    ids=lambda value: {None: "default", MERSENNE_61: "2^61-1"}.get(value, str(value)),
)
def test_forger_fails_exactly_its_checks(name, p):
    forge, _, fails = FORGERS[name]
    result = forge(p)
    assert [check for check in CHECKS if not getattr(result, check)] == list(fails)


def test_each_check_alone_stops_its_forgers():
    """With one check dropped, the verifier accepts exactly the forgers aimed
    at that check, so each of the three is needed."""
    results = {name: forge(moduli[0]) for name, (forge, moduli, _) in FORGERS.items()}
    for dropped in CHECKS:
        accepted = {
            name for name, result in results.items()
            if all(getattr(result, check) for check in CHECKS if check != dropped)
        }
        aimed = {name for name, (_, _, fails) in FORGERS.items() if fails == (dropped,)}
        assert accepted == aimed | {"honest"}, dropped


@pytest.mark.parametrize("p", [None, MERSENNE_61], ids=["default", "2^61-1"])
def test_prove_refuses_the_forward_evaluated_coloring_at_gate_68(p):
    circuit, qap, ek, _ = keyed(COLORING5, p)
    with pytest.raises(InvalidWitness, match="^gate 68 does not hold"):
        prove(ek, qap, forward_assignment(circuit, BAD_COLORING))
