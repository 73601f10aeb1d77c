import pytest

from snarkpipe import (
    FieldContext,
    InvalidWitness,
    MalformedKey,
    Sha256Rng,
    TransparentGroup,
    build_qap,
    flatten,
    parse_program,
    prove,
    setup,
    solve,
    verify,
)
from snarkpipe.field import json_bytes
from snarkpipe.pinocchio import (
    EvaluationKey,
    Trapdoor,
    WitnessKey,
    evaluation_key_to_dict,
    load_evaluation_key,
    load_verification_key,
    load_witness_key,
    verification_key_to_dict,
    witness_key_to_dict,
)

from conftest import BAD_COLORING, GOOD_COLORING

SEED = bytes([1])


@pytest.fixture(scope="module")
def group(ctx):
    return TransparentGroup(ctx)


@pytest.fixture(scope="module")
def minimal(ctx):
    program = parse_program("inputs a, b; c := a*b; assert c != 0;")
    circuit = flatten(program, ctx)
    return circuit, build_qap(circuit)


@pytest.fixture(scope="module")
def coloring_keys(coloring_qap, group):
    return setup(coloring_qap, group, SEED)


@pytest.fixture(scope="module")
def coloring_witness_key(coloring_keys, coloring_qap, coloring_circuit):
    ek, _ = coloring_keys
    assignment = solve(coloring_circuit, GOOD_COLORING)
    return prove(ek, coloring_qap, assignment)


# --- setup -----------------------------------------------------------------------


def test_key_structure_minimal(minimal, group):
    circuit, qap = minimal
    ek, vk = setup(qap, group, SEED)
    # N = 2 (product gate + condition gate): powers run d = 0..N
    assert len(ek.powers_of_s) == qap.n_gates + 1
    for entries in (ek.v, ek.w, ek.k, ek.alpha_v, ek.alpha_w, ek.alpha_k, ek.beta):
        assert len(entries) == len(qap.symbols)
    assert ek.public == ("one",)
    assert [name for name, *_ in vk.public_entries] == ["one"]


def test_key_structure_bare_single_gate(ctx, group):
    # One unconditioned a*b=c gate: powers d=0..1 and four symbols.
    from snarkpipe.circuit import Circuit, Gate, Wire

    circuit = Circuit(
        ctx=ctx,
        wires=[
            Wire(kind="one"),
            Wire(kind="input", name="a"),
            Wire(kind="input", name="b"),
            Wire(kind="gate"),
        ],
        gates=[Gate("Times", 1, 2, 3, 1)],
        outputs=[],
        inputs=["a", "b"],
        names={"a": 1, "b": 2, "c": 3},
    )
    qap = build_qap(circuit)
    ek, _ = setup(qap, group, bytes([1]))
    assert len(ek.powers_of_s) == 2
    assert len(ek.v) == 4
    assert ek.symbols == ("one", "a", "b", "c")


def test_setup_deterministic(coloring_qap, group):
    ek1, vk1 = setup(coloring_qap, group, SEED)
    ek2, vk2 = setup(coloring_qap, group, SEED)
    assert json_bytes(evaluation_key_to_dict(ek1)) == json_bytes(
        evaluation_key_to_dict(ek2)
    )
    assert json_bytes(verification_key_to_dict(vk1)) == json_bytes(
        verification_key_to_dict(vk2)
    )
    ek3, _ = setup(coloring_qap, group, bytes([2]))
    assert json_bytes(evaluation_key_to_dict(ek3)) != json_bytes(
        evaluation_key_to_dict(ek1)
    )


def test_setup_rejects_unknown_public_symbol(coloring_qap, group):
    with pytest.raises(ValueError):
        setup(coloring_qap, group, SEED, public=("nope",))


def test_target_term_consistent(coloring_qap, coloring_keys, group):
    # Transparent-backend introspection: re-derive the trapdoor from the
    # seed and confirm the committed T(s) exponent.
    _, vk = coloring_keys
    rng = Sha256Rng(SEED, label=b"trusted-setup")
    td = Trapdoor.sample(rng, group.ctx.p, coloring_qap.n_gates)
    t_at_s = coloring_qap.target.eval_int(td.s)
    g = group.generator()
    assert vk.target_at_s.pair(g) == (g**td.r_k).pair(g) ** t_at_s


def test_trapdoor_sampling_constraints(ctx):
    rng = Sha256Rng(b"trapdoor-check")
    for _ in range(50):
        td = Trapdoor.sample(rng, ctx.p, 10**6)
        assert td.s > 10**6
        assert td.r_k == td.r_v * td.r_w % ctx.p
        assert all(
            x != 0
            for x in (td.r_v, td.r_w, td.s, td.alpha_v, td.alpha_w, td.alpha_k,
                      td.beta, td.gamma)
        )


# --- prove -----------------------------------------------------------------------


def test_minimal_completeness(minimal, group):
    circuit, qap = minimal
    ek, vk = setup(qap, group, SEED)
    wk = prove(ek, qap, solve(circuit, {"a": 2, "b": 3}))
    result = verify(vk, wk)
    assert result.accepted
    assert (result.divisibility, result.span, result.coefficients) == (True,) * 3


def test_coloring_completeness(coloring_keys, coloring_witness_key):
    _, vk = coloring_keys
    assert verify(vk, coloring_witness_key).accepted


def test_prove_refuses_invalid_witness(coloring_keys, coloring_qap, coloring_circuit):
    ek, _ = coloring_keys
    with pytest.raises(InvalidWitness):
        prove(ek, coloring_qap, solve(coloring_circuit, BAD_COLORING))


def test_prove_rejects_mismatched_program(coloring_keys, minimal):
    ek, _ = coloring_keys
    _, other_qap = minimal
    with pytest.raises(MalformedKey):
        prove(ek, other_qap, {})


def test_witness_key_exponents_match_recomputation(
    coloring_keys, coloring_witness_key, coloring_qap, coloring_circuit, group
):
    # The discrete logs of the witness key must equal the trapdoor-scaled
    # private sums, recomputed here from scratch.
    p = group.ctx.p
    rng = Sha256Rng(SEED, label=b"trusted-setup")
    td = Trapdoor.sample(rng, p, coloring_qap.n_gates)
    ek, _ = coloring_keys
    assignment = solve(coloring_circuit, GOOD_COLORING)
    weights = [int(assignment[w]) for w in coloring_qap.symbols]
    private = ek.private_indices()

    def lagrange_at_s(d):
        # L_d(s) = prod over the other nodes j of (s - j) / (d - j)
        num = den = 1
        for j in range(1, coloring_qap.n_gates + 1):
            if j != d:
                num = num * (td.s - j) % p
                den = den * (d - j) % p
        return num * pow(den, p - 2, p) % p

    lagrange = {d: lagrange_at_s(d) for d in range(1, coloring_qap.n_gates + 1)}

    def private_sum(columns):
        return sum(
            weights[i] * value * lagrange[d]
            for i in private
            for d, value in columns[i].items()
        ) % p

    wk = coloring_witness_key
    v_s, w_s, k_s = (private_sum(x) for x in (coloring_qap.v, coloring_qap.w,
                                              coloring_qap.k))
    assert wk.v.value == td.r_v * v_s % p
    assert wk.w.value == td.r_w * w_s % p
    assert wk.k.value == td.r_k * k_s % p
    assert wk.alpha_v.value == td.r_v * td.alpha_v * v_s % p
    assert wk.z.value == td.beta * (
        td.r_v * v_s + td.r_w * w_s + td.r_k * k_s
    ) % p


def test_prove_uses_only_key_material(coloring_keys, coloring_qap, coloring_circuit):
    # Same witness, same evaluation key, loaded through JSON (which strips
    # everything but public material): the proof must be identical.
    ek, _ = coloring_keys
    reloaded = load_evaluation_key(evaluation_key_to_dict(ek))
    assignment = solve(coloring_circuit, GOOD_COLORING)
    wk1 = prove(ek, coloring_qap, assignment)
    wk2 = prove(reloaded, coloring_qap, assignment)
    assert witness_key_to_dict(wk1) == witness_key_to_dict(wk2)


# --- verify ----------------------------------------------------------------------


def test_tampering_every_element_rejects(coloring_keys, coloring_witness_key, group):
    _, vk = coloring_keys
    rng = Sha256Rng(b"tamper")
    rejections = 0
    trials = 0
    for name in WitnessKey.FIELDS:
        for _ in range(20):
            replacement = group.generator() ** rng.randrange(1, group.ctx.p)
            tampered = WitnessKey(
                **{
                    f: replacement if f == name else getattr(coloring_witness_key, f)
                    for f in WitnessKey.FIELDS
                }
            )
            trials += 1
            rejections += not verify(vk, tampered).accepted
    assert trials == 160
    assert rejections == 160


def test_tampered_h_fails_only_divisibility(coloring_keys, coloring_witness_key, group):
    _, vk = coloring_keys
    wk = coloring_witness_key
    tampered = WitnessKey(
        **{
            f: group.generator() ** 424242 if f == "h" else getattr(wk, f)
            for f in WitnessKey.FIELDS
        }
    )
    result = verify(vk, tampered)
    assert not result.divisibility
    assert result.span and result.coefficients


def test_out_of_span_forgery_fails_span_check(
    coloring_keys, coloring_qap, coloring_circuit, group
):
    # Forge gv^(v'(s)) for a v' outside the committed span by writing a raw
    # exponent directly (only possible because the backend is transparent).
    ek, vk = coloring_keys
    wk = prove(ek, coloring_qap, solve(coloring_circuit, GOOD_COLORING))
    forged = WitnessKey(
        **{
            f: (getattr(wk, f) * group.generator() ** 123457 if f == "v"
                else getattr(wk, f))
            for f in WitnessKey.FIELDS
        }
    )
    result = verify(vk, forged)
    assert not result.span
    assert not result.accepted


def test_verify_report_format(coloring_keys, coloring_witness_key):
    _, vk = coloring_keys
    assert verify(vk, coloring_witness_key).report() == (
        "checks: div=pass span=pass coeff=pass"
    )


def test_public_symbol_folding(ctx, group):
    # Make the asserted output public: the verifier itself folds the claimed
    # value into the checks, and a wrong claim must fail.
    program = parse_program("inputs x, y; out := x*y - 6; assert out == 0;")
    circuit = flatten(program, ctx)
    qap = build_qap(circuit)
    ek, vk = setup(qap, group, SEED, public=("out",))
    assignment = solve(circuit, {"x": 2, "y": 3})
    wk = prove(ek, qap, assignment)
    assert verify(vk, wk, {"out": 0}).accepted
    assert not verify(vk, wk, {"out": 1}).accepted
    with pytest.raises(ValueError):
        verify(vk, wk, {})  # claimed values must cover the public symbols
    with pytest.raises(ValueError):
        verify(vk, wk, {"out": 0, "extra": 1})


def test_setup_rejects_empty_program(ctx, group):
    from snarkpipe.qap import QAP

    empty = QAP(
        ctx=ctx, n_gates=0, symbols=(0,), symbol_names=("one",), rows=[],
    )
    with pytest.raises(ValueError):
        setup(empty, group, SEED)


def test_completeness_over_fifty_seeded_runs(corpus_programs, ctx, group):
    # Every corpus program with a valid witness verifies under 50 distinct
    # setup seeds.
    witnesses = {
        "coloring5.zkp": GOOD_COLORING,
        "cubic.zkp": {"x": 3, "y": 35},
        "product.zkp": {"x": 0, "y": 5},
    }
    compiled = {}
    for name, program in corpus_programs.items():
        circuit = flatten(program, ctx)
        compiled[name] = (circuit, build_qap(circuit), solve(circuit, witnesses[name]))
    names = sorted(compiled)
    accepted = 0
    for seed_byte in range(50):
        circuit, qap, assignment = compiled[names[seed_byte % len(names)]]
        ek, vk = setup(qap, group, bytes([seed_byte]))
        accepted += verify(vk, prove(ek, qap, assignment)).accepted
    assert accepted == 50


# --- serialization -----------------------------------------------------------------


def test_key_json_round_trip(coloring_keys, coloring_witness_key):
    ek, vk = coloring_keys
    ek2 = load_evaluation_key(evaluation_key_to_dict(ek))
    vk2 = load_verification_key(verification_key_to_dict(vk))
    wk2 = load_witness_key(witness_key_to_dict(coloring_witness_key))
    assert verify(vk2, wk2).accepted
    assert evaluation_key_to_dict(ek2) == evaluation_key_to_dict(ek)


def test_one_pass_decode_matches_per_entry_decode(coloring_keys, ctx, group):
    chain = ["inputs a, y;", "f1 := a*a + 7;"]
    chain += [f"f{i} := f{i - 1}*f{i - 1} + a;" for i in range(2, 40)]
    chain += ["out := f39 - y;", "assert out == 0;"]
    chain_ek, _ = setup(build_qap(flatten(parse_program("\n".join(chain)), ctx)), group, SEED)
    for ek in (coloring_keys[0], chain_ek):
        data = evaluation_key_to_dict(ek)
        loaded = load_evaluation_key(data)
        for name in EvaluationKey.LISTS:
            per_entry = [group.decode(text).value for text in data[name]]
            assert group.decode_all(data[name]) == per_entry == getattr(loaded, name)


def test_loading_refuses_backend_mismatch(coloring_witness_key):
    data = {**witness_key_to_dict(coloring_witness_key), "backend": "modular"}
    with pytest.raises(MalformedKey, match="modular"):
        load_witness_key(data)


def test_loading_refuses_wrong_format(coloring_keys):
    ek, _ = coloring_keys
    data = evaluation_key_to_dict(ek)
    with pytest.raises(MalformedKey):
        load_verification_key(data)


def test_loading_rejects_truncated_key(coloring_keys):
    ek, _ = coloring_keys
    data = evaluation_key_to_dict(ek)
    data["v"] = data["v"][:-1]
    with pytest.raises(MalformedKey):
        load_evaluation_key(data)


def test_verify_rejects_cross_field_keys(coloring_keys, coloring_witness_key):
    _, vk = coloring_keys
    other = TransparentGroup(FieldContext(101))
    alien = WitnessKey(
        **{
            f: other.generator() if f == "v"
            else getattr(coloring_witness_key, f)
            for f in WitnessKey.FIELDS
        }
    )
    with pytest.raises(MalformedKey) as exc:
        verify(vk, alien)
    assert f"witness key (p=101) and verification key (p={vk.group.ctx.p})" in str(exc.value)


def test_setup_mismatch_names_both_moduli(coloring_qap):
    with pytest.raises(ValueError) as exc:
        setup(coloring_qap, TransparentGroup(FieldContext(101)), b"seed")
    assert f"group (p=101) and QAP (p={coloring_qap.ctx.p})" in str(exc.value)
