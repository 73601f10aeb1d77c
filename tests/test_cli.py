import hashlib
import json
import os

import pytest

from snarkpipe.bundled import load_bundled_text
from snarkpipe.cli import _parse_input_map, main

GOOD_INPUTS = {"c1": "3", "c2": "1", "c3": "2", "c4": "1", "c5": "2"}
BAD_INPUTS = {"c1": "1", "c2": "1", "c3": "2", "c4": "1", "c5": "2"}


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_pipeline(workdir, inputs, seed="0102"):
    assert main(["compile", "coloring5", "-o", "circuit.json"]) == 0
    assert main(["--seed", seed, "setup", "--circuit", "circuit.json"]) == 0
    inputs_path = write_json(workdir / "inputs.json", inputs)
    return main(["prove", "--circuit", "circuit.json", "--inputs", inputs_path])


def test_full_pipeline_accepts(workdir, capsys):
    assert run_pipeline(workdir, GOOD_INPUTS) == 0
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "checks: div=pass span=pass coeff=pass" in out
    assert "accept" in out


def test_pipeline_rejects_bad_witness_at_prove(workdir, capsys):
    assert run_pipeline(workdir, BAD_INPUTS) == 2
    err = capsys.readouterr().err
    assert "invalid witness" in err


def test_verify_rejects_tampered_witness_file(workdir, capsys):
    assert run_pipeline(workdir, GOOD_INPUTS) == 0
    data = json.loads((workdir / "witness_key.json").read_text())
    data["z"] = str(int(data["z"]) ^ 1)
    write_json(workdir / "witness_key.json", data)
    assert main(["verify"]) == 2
    assert "reject" in capsys.readouterr().out


def test_compile_prints_sizes(workdir, capsys):
    assert main(["compile", "coloring5"]) == 0
    out = capsys.readouterr().out
    assert "N=69" in out
    assert "symbols=76" in out


def test_compile_emit_qap(workdir):
    assert main(["compile", "cubic", "--emit-qap", "qap.json"]) == 0
    data = json.loads((workdir / "qap.json").read_text())
    assert data["n_gates"] == 7
    assert len(data["v"]) == len(data["symbols"])
    assert len(data["target"]) == data["n_gates"] + 1


def test_compile_minimal_gate_count(workdir, capsys):
    source = workdir / "tiny.zkp"
    source.write_text("inputs x, y; out := x*y; assert out == 0;\n")
    assert main(["compile", str(source)]) == 0
    # one product gate plus one condition gate
    assert "N=2" in capsys.readouterr().out


def test_compile_reports_syntax_errors(workdir, capsys):
    source = workdir / "broken.zkp"
    source.write_text("inputs x; y := x + ; assert y == 0;\n")
    assert main(["compile", str(source)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err


@pytest.mark.parametrize(
    "source, name",
    [
        ("inputs x; y := " + "(" * 3000 + "x" + ")" * 3000 + "; assert y == 0;", "nest"),
        ("inputs x; y := x^100000000; assert y == 0;", "gates"),
        (f"inputs x; y := x + {'7' * 5000}; assert y == 0;", "5000 digits"),
        ("inputs x; y := x^\u0663; assert y == 0;", "unexpected character"),
        ("inputs x; y := x + \u00b2; assert y == 0;", "unexpected character"),
    ],
    ids=["deep_nesting", "huge_exponent", "5000_digit_constant", "arabic_indic_digit",
         "superscript_digit"],
)
def test_compile_refuses_unbounded_source(workdir, capsys, source, name):
    (workdir / "big.zkp").write_text(source, encoding="utf-8")
    assert_usage_error(main(["compile", "big.zkp"]), capsys, "parse error", name)
    assert not (workdir / "circuit.json").exists()


def test_compile_over_custom_field(workdir, capsys):
    assert main(["--field", "101", "compile", "cubic"]) == 0
    data = json.loads((workdir / "circuit.json").read_text())
    assert data["field"]["p"] == "101"


def test_outputs_in_circuit_json(workdir):
    assert main(["compile", "coloring5"]) == 0
    data = json.loads((workdir / "circuit.json").read_text())
    assert [o["rel"] for o in data["outputs"]] == ["neq0", "eq0"]


def test_missing_artifact_is_usage_error(workdir, capsys):
    assert main(["verify", "--witness-key", "nope.json"]) == 1


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Circuit, keys and an accepted witness key for coloring5, made once."""
    root = tmp_path_factory.mktemp("artifacts")
    paths = {name: str(root / f"{name}.json") for name in ("circuit", "ek", "vk", "wk")}
    assert main(["compile", "coloring5", "-o", paths["circuit"]]) == 0
    assert main([
        "--seed", "0102", "setup", "--circuit", paths["circuit"],
        "--evaluation-key", paths["ek"], "--verification-key", paths["vk"],
    ]) == 0
    inputs = write_json(root / "inputs.json", GOOD_INPUTS)
    assert main([
        "prove", "--circuit", paths["circuit"], "--evaluation-key", paths["ek"],
        "--inputs", inputs, "-o", paths["wk"],
    ]) == 0
    return {name: (path, json.loads(open(path).read())) for name, path in paths.items()}


def assert_usage_error(code, capsys, *needles):
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err


def verify_with(artifacts, tmp_path, vk=None, wk=None):
    vk_path = write_json(tmp_path / "vk.json", vk) if vk else artifacts["vk"][0]
    wk_path = write_json(tmp_path / "wk.json", wk) if wk else artifacts["wk"][0]
    return main(["verify", "--verification-key", vk_path, "--witness-key", wk_path])


NON_CANONICAL = {
    "plus_p": lambda text, p: str(int(text) + p),
    "leading_zero": lambda text, p: "0" + text,
    "leading_space": lambda text, p: " " + text,
    "leading_plus": lambda text, p: "+" + text,
    "underscore": lambda text, p: text[0] + "_" + text[1:],
}
WITNESS_FIELDS = ("v", "w", "k", "h", "alpha_v", "alpha_w", "alpha_k", "z")


@pytest.mark.parametrize("encoding", sorted(NON_CANONICAL))
@pytest.mark.parametrize("field", WITNESS_FIELDS)
def test_verify_refuses_non_canonical_witness_entry(
    artifacts, tmp_path, capsys, field, encoding
):
    wk = dict(artifacts["wk"][1])
    wk[field] = NON_CANONICAL[encoding](wk[field], int(wk["field"]["p"]))
    code = verify_with(artifacts, tmp_path, wk=wk)
    assert_usage_error(code, capsys, "malformed key", repr(field))


def test_verify_refuses_non_canonical_verification_entry(artifacts, tmp_path, capsys):
    vk = dict(artifacts["vk"][1])
    vk["target_at_s"] = str(int(vk["target_at_s"]) + int(vk["field"]["p"]))
    code = verify_with(artifacts, tmp_path, vk=vk)
    assert_usage_error(code, capsys, "malformed key", "target_at_s")


def test_prove_refuses_non_canonical_evaluation_entry(artifacts, tmp_path, capsys):
    ek = dict(artifacts["ek"][1])
    ek["powers_of_s"] = list(ek["powers_of_s"])
    ek["powers_of_s"][1] = str(int(ek["powers_of_s"][1]) + int(ek["field"]["p"]))
    code = main([
        "prove", "--circuit", artifacts["circuit"][0],
        "--evaluation-key", write_json(tmp_path / "ek.json", ek),
        "--inputs", write_json(tmp_path / "inputs.json", GOOD_INPUTS),
        "-o", str(tmp_path / "wk.json"),
    ])
    assert_usage_error(code, capsys, "malformed key", "powers_of_s[1]")


def public_name(value):
    def change(vk):
        vk["public"][0]["name"] = value
    return change


KEY_EDITS = {
    "n_gates_string": ("ek", lambda k: k.update(n_gates="69"), "'n_gates'"),
    "n_gates_float": ("ek", lambda k: k.update(n_gates=69.0), "'n_gates'"),
    "n_gates_bool": ("ek", lambda k: k.update(n_gates=True), "'n_gates'"),
    "symbols_number": ("ek", lambda k: k["symbols"].__setitem__(0, 0), "'symbols'"),
    "symbols_string": ("ek", lambda k: k.update(symbols="one"), "'symbols'"),
    "public_number": ("ek", lambda k: k.update(public=[1]), "'public'"),
    "vk_public_name_number": ("vk", public_name(1), "public[0].name"),
    "vk_public_name_null": ("vk", public_name(None), "public[0].name"),
}


@pytest.mark.parametrize("edit", sorted(KEY_EDITS))
def test_refuses_malformed_key_scalar(artifacts, tmp_path, capsys, edit):
    key, change, name = KEY_EDITS[edit]
    data = json.loads(json.dumps(artifacts[key][1]))
    change(data)
    if key == "vk":
        code = verify_with(artifacts, tmp_path, vk=data)
    else:
        code = main([
            "prove", "--circuit", artifacts["circuit"][0],
            "--evaluation-key", write_json(tmp_path / "ek.json", data),
            "--inputs", write_json(tmp_path / "inputs.json", GOOD_INPUTS),
            "-o", str(tmp_path / "wk.json"),
        ])
        assert not (tmp_path / "wk.json").exists()
    assert_usage_error(code, capsys, "malformed key", name)


@pytest.mark.parametrize("key", ["vk", "wk"])
def test_verify_refuses_other_backend(artifacts, tmp_path, capsys, key):
    data = {**artifacts[key][1], "backend": "modular"}
    code = verify_with(artifacts, tmp_path, **{key: data})
    assert_usage_error(code, capsys, "malformed key", "'modular'")


@pytest.mark.parametrize(
    "inputs, name",
    [
        (["3", "1", "2", "1", "2"], "JSON object"),
        ({**GOOD_INPUTS, "c1": 3.0}, "'c1'"),
        ({**GOOD_INPUTS, "c2": True}, "'c2'"),
        ({**GOOD_INPUTS, "c3": "2.9"}, "'c3'"),
        ({**GOOD_INPUTS, "c4": " 1"}, "'c4'"),
        ({**GOOD_INPUTS, "c5": None}, "'c5'"),
    ],
    ids=["array", "float", "bool", "decimal_point", "space", "null"],
)
def test_prove_refuses_malformed_inputs(artifacts, tmp_path, capsys, inputs, name):
    code = main([
        "prove", "--circuit", artifacts["circuit"][0],
        "--evaluation-key", artifacts["ek"][0],
        "--inputs", write_json(tmp_path / "inputs.json", inputs),
        "-o", str(tmp_path / "wk.json"),
    ])
    assert_usage_error(code, capsys, name)
    assert not (tmp_path / "wk.json").exists()


def test_input_map_accepts_integers_and_decimal_strings():
    data = {"a": 3, "b": -4, "c": "-5", "d": "007", "e": "12345678901234567890123"}
    assert _parse_input_map(data) == {
        "a": 3, "b": -4, "c": -5, "d": 7, "e": 12345678901234567890123,
    }


def test_verify_refuses_malformed_public_inputs(artifacts, tmp_path, capsys):
    claims = write_json(tmp_path / "public.json", ["0"])
    code = main([
        "verify", "--verification-key", artifacts["vk"][0],
        "--witness-key", artifacts["wk"][0], "--public-inputs", claims,
    ])
    assert_usage_error(code, capsys, "JSON object")


def test_determinism_byte_identical(workdir):
    first = {}
    second = {}
    for run in (first, second):
        for name in (
            "circuit.json", "qap.json", "evaluation_key.json",
            "verification_key.json", "witness_key.json", "transcript.json",
        ):
            if os.path.exists(name):
                os.unlink(name)
        assert main(["compile", "coloring5", "--emit-qap", "qap.json"]) == 0
        assert main(["--seed", "c0ffee", "setup"]) == 0
        inputs_path = write_json(workdir / "inputs.json", GOOD_INPUTS)
        assert main(["prove", "--circuit", "circuit.json", "--inputs", inputs_path]) == 0
        assert main([
            "--seed", "c0ffee", "interactive", "--problem", "triangle",
            "--rounds", "4",
        ]) == 0
        for name in (
            "circuit.json", "qap.json", "evaluation_key.json",
            "verification_key.json", "witness_key.json", "transcript.json",
        ):
            run[name] = (workdir / name).read_bytes()
    assert first == second


# SHA-256 of every Pinocchio artifact the CLI writes at seed 5eed, recorded
# before field values became plain ints end to end: circuits, QAPs and keys
# must stay byte for byte the same.
PINNED_ARTIFACTS = {
    "coloring5": (GOOD_INPUTS, {
        "circuit": "700c495423862398412f8481a8ea66aee69f4c8e5343a94495fd244ed1540cda",
        "qap": "8ba09067579a34efc2b23ba6eb19f757e18152beb0ec6b92e9e5ec2a40438fbd",
        "ek": "b4bd1d374c75cc88c3923cb555f7bd6841d47cbabc88d82fa2b8e440df8fdec4",
        "vk": "d20f15e2ea4ca18d62d4eda38a76dcc0cad79e9ba95a8ab63f9bfeed9a7c3fc9",
        "wk": "92b544e8f411cf9ea0d2b43bab4fcfb93eb23fd168dc3ff379342caa6235df4c",
    }),
    "cubic": ({"x": "3", "y": "35"}, {
        "circuit": "7181c83b1abb888a913e4e3187b5a3221a8149ec574954b32b15867bc52ee1eb",
        "qap": "a011e3732db51ebfb1e3f9a15d595aeb679f57a6b8a3d843d2d4404bdc5eb312",
        "ek": "00e2b263bb810069fa451424b5983cc7ee41cd4a47793e62bb9fc8fa0a379784",
        "vk": "3d00ad25c2cc6f301e789220ba061d31e9899455d167ed49c6d73c5ef97b3143",
        "wk": "30d366c50cb3d3c2cd2a12b585d38837351f43d4a1b02436fbe18cb11f672c41",
    }),
    "product": ({"x": "0", "y": "5"}, {
        "circuit": "7af1fc7474fe646966009470cde150065ef00033506c1df98b1c76f28d8e2242",
        "qap": "d48a6ded16f35a6e750acf347266e9fc26859bb5cdb10947119d9cd0d812e73c",
        "ek": "7f0515150fbf46aa9203e6884c06a6b3b5e2ccb41b3e5884c2fa47a08eeaabfd",
        "vk": "5b9fd07987c45b8dfe89427e1944dec87a3e9eeb2999fb51c33ddc95c69145c8",
        "wk": "df973494d252daf2d6e379c0b92c0d2ed75c20887cb95b640e018166be5ed0c3",
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
def test_pipeline_artifact_bytes_pinned(workdir, name):
    inputs, digests = PINNED_ARTIFACTS[name]
    assert main(["compile", name, "-o", "circuit.json", "--emit-qap", "qap.json"]) == 0
    assert main([
        "--seed", "5eed", "setup", "--circuit", "circuit.json",
        "--evaluation-key", "ek.json", "--verification-key", "vk.json",
    ]) == 0
    assert main([
        "prove", "--circuit", "circuit.json", "--evaluation-key", "ek.json",
        "--inputs", write_json(workdir / "inputs.json", inputs), "-o", "wk.json",
    ]) == 0
    assert {
        artifact: hashlib.sha256((workdir / f"{artifact}.json").read_bytes()).hexdigest()
        for artifact in digests
    } == digests


def test_interactive_honest_accepts(workdir, capsys):
    code = main([
        "--seed", "0a", "interactive", "--problem", "triangle", "--rounds", "10",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "accept" in out
    transcript = json.loads((workdir / "transcript.json").read_text())
    assert transcript["accepted"] is True
    assert len(transcript["rounds"]) == 10


def test_interactive_cheat_repeat_rate(workdir, capsys):
    code = main([
        "--seed", "0b", "interactive", "--problem", "path4", "--cheat",
        "--rounds", "1", "--repeat", "3000",
    ])
    out = capsys.readouterr().out
    assert code == 0
    rate = float(out.strip().rsplit("rate=", 1)[1])
    assert abs(rate - 0.5) < 0.05


def test_interactive_requires_solution_unless_cheating(workdir, capsys):
    assert main(["--seed", "01", "interactive", "--problem", "path4"]) == 1
    assert "solution" in capsys.readouterr().err


def test_interactive_rejects_malformed_problem(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text('{"type": "sudoku"}')
    assert main(["--seed", "01", "interactive", "--problem", str(bad)]) == 1


def test_bad_seed_is_usage_error(workdir, capsys):
    assert main(["--seed", "zz", "setup", "--circuit", "nope.json"]) == 1


def test_public_symbol_pipeline(workdir, capsys):
    source = workdir / "pub.zkp"
    source.write_text("inputs x, y; out := x*y - 6; assert out == 0;\n")
    assert main(["compile", str(source)]) == 0
    assert main(["--seed", "02", "setup", "--public", "one,out"]) == 0
    inputs_path = write_json(workdir / "inputs.json", {"x": "2", "y": "3"})
    assert main(["prove", "--circuit", "circuit.json", "--inputs", inputs_path]) == 0
    claims = write_json(workdir / "public.json", {"out": "0"})
    assert main(["verify", "--public-inputs", claims]) == 0
    wrong = write_json(workdir / "wrong.json", {"out": "1"})
    assert main(["verify", "--public-inputs", wrong]) == 2


def test_selftest(workdir, capsys):
    assert main(["--seed", "ff", "selftest"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out


def test_console_entrypoint_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "snarkpipe.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "compile" in proc.stdout


# --- problem, circuit and header refusals ---------------------------------------

TRIANGLE = {"type": "hamiltonian-cycle", "adjacency": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            "cycle": [0, 1, 2]}
SAT_DEMO = {"type": "sat3", "variables": 3, "clauses": [[1, 2, -3], [-1, 2, 3]],
            "assignment": [True, True, True]}


@pytest.mark.parametrize(
    "problem, name",
    [
        ([TRIANGLE], "JSON object"),
        ({**SAT_DEMO, "assignment": ["false", "false", "false"]}, "assignment"),
        ({**SAT_DEMO, "assignment": [1, 1, 1]}, "assignment"),
        ({**TRIANGLE, "cycle": [0, 1, 2.7]}, "cycle"),
        ({**TRIANGLE, "adjacency": [[0, True, 1], [1, 0, 1], [1, 1, 0]]}, "adjacency row 0"),
        ({**TRIANGLE, "adjacency": [[0, "1", 1], [1, 0, 1], [1, 1, 0]]}, "adjacency row 0"),
        ({**TRIANGLE, "adjacency": [[0, 2, 1], [2, 0, 1], [1, 1, 0]]}, "0 or 1"),
        ({**TRIANGLE, "adjacency": [[0, 1, 1], [1, 0, 1], [1]]}, "square"),
        ({**TRIANGLE, "adjacency": "011101110"}, "adjacency"),
        ({**SAT_DEMO, "variables": 3.0}, "variables"),
        ({**SAT_DEMO, "clauses": [[1, 2, -3.0]]}, "clause 0"),
        ({"type": "sat3", "variables": 10**6, "clauses": [[1, 2, 3]]}, "variables"),
    ],
    ids=[
        "array", "assignment_strings", "assignment_ints", "cycle_float",
        "adjacency_bool", "adjacency_string", "adjacency_two", "adjacency_ragged",
        "adjacency_not_array", "variables_float", "literal_float", "variables_million",
    ],
)
def test_interactive_refuses_malformed_problem(workdir, capsys, problem, name):
    path = write_json(workdir / "problem.json", problem)
    code = main(["--seed", "01", "interactive", "--problem", path])
    assert_usage_error(code, capsys, name)
    assert not (workdir / "transcript.json").exists()


def test_interactive_refuses_transcript_with_repeat(workdir, capsys):
    code = main([
        "--seed", "01", "interactive", "--problem", "triangle", "--repeat", "2",
        "--transcript", "t.json",
    ])
    assert_usage_error(code, capsys, "--transcript")
    assert not (workdir / "t.json").exists()


def mutate_circuit(data, edit):
    """Apply an edit to a deep copy; an edit may also return a replacement."""
    data = json.loads(json.dumps(data))
    replaced = edit(data)
    return data if replaced is None else replaced


def first_const(data):
    return next(i for i, w in enumerate(data["wires"]) if w["kind"] == "const")


def first_inverse(data):
    return next(i for i, w in enumerate(data["wires"]) if w["kind"] == "inverse")


def drive_twice(data):
    """Gate 2 repeats gate 1's operands and output wire."""
    data["gates"][1] = {**data["gates"][0], "d": 2}


def swap_first_gates(data):
    """Gates 1 and 2 trade places but keep their positions as d."""
    first, second = data["gates"][:2]
    data["gates"][:2] = [{**second, "d": 1}, {**first, "d": 2}]


CIRCUIT_EDITS = {
    "not_object": (lambda d: [d], "JSON object"),
    "format": (lambda d: d.update(format="snarkpipe-circuit/2"), "format"),
    "left_out_of_range": (lambda d: d["gates"][0].update(l=99999), "gate 1 'l'"),
    "right_not_earlier": (
        lambda d: d["gates"][0].update(r=d["gates"][0]["o"]), "gate 1 'r'"
    ),
    "left_float": (lambda d: d["gates"][0].update(l=float(d["gates"][0]["l"])), "gate 1 'l'"),
    "out_of_range": (lambda d: d["gates"][0].update(o=len(d["wires"])), "gate 1 'o'"),
    "minus": (lambda d: d["gates"][0].update(op="Minus"), "'Minus'"),
    "repeated_d": (lambda d: d["gates"][7].update(d=7), "gate 8"),
    "driven_twice": (drive_twice, "gate 2 drives wire"),
    "outputs_decreasing": (swap_first_gates, "gate 2 drives wire"),
    "wire_kind": (lambda d: d["wires"][1].update(kind="hint"), "'hint'"),
    "const_plus": (
        lambda d: d["wires"][first_const(d)].update(value="+1"), "value '+1'"
    ),
    "const_not_below_p": (
        lambda d: d["wires"][first_const(d)].update(value=d["field"]["p"]), "value"
    ),
    "const_number": (lambda d: d["wires"][first_const(d)].update(value=1), "value 1"),
    "of_out_of_range": (lambda d: d["wires"][first_inverse(d)].update(of=-1), "'of'"),
    "output_out_of_range": (lambda d: d["outputs"][0].update(wire=99999), "output 0"),
    "name_out_of_range": (lambda d: d["names"].update(c1=99999), "name 'c1'"),
    "names_array": (lambda d: d.update(names=[]), "'names'"),
    "gate_array": (lambda d: d["gates"].append([1, 2, 3]), "'gates'"),
    "gate_wire_undriven": (
        lambda d: d["wires"][1].update(kind="gate"), "wire 1 has kind 'gate' but no gate"
    ),
    "input_undeclared": (
        lambda d: d.update(inputs=d["inputs"][1:]), "wire 1 is an input wire"
    ),
    "input_names_swapped": (
        lambda d: d["names"].update(c1=d["names"]["c2"], c2=d["names"]["c1"]),
        "input 'c1' names wire 2",
    ),
}


@pytest.mark.parametrize("edit", sorted(CIRCUIT_EDITS))
def test_setup_refuses_malformed_circuit(artifacts, tmp_path, capsys, edit):
    change, name = CIRCUIT_EDITS[edit]
    data = mutate_circuit(artifacts["circuit"][1], change)
    code = main([
        "--seed", "01", "setup", "--circuit", write_json(tmp_path / "c.json", data),
        "--evaluation-key", str(tmp_path / "ek.json"),
        "--verification-key", str(tmp_path / "vk.json"),
    ])
    assert_usage_error(code, capsys, name)
    assert not (tmp_path / "ek.json").exists()


NON_CANONICAL_HEADER = {
    "leading_plus": lambda text: "+" + text,
    "leading_zero": lambda text: "0" + text,
    "space": lambda text: " " + text,
    "underscore": lambda text: text[0] + "_" + text[1:],
    "json_number": int,
}


@pytest.mark.parametrize("encoding", sorted(NON_CANONICAL_HEADER))
@pytest.mark.parametrize("entry", ["p", "generator"])
def test_verify_refuses_non_canonical_key_header(
    artifacts, tmp_path, capsys, entry, encoding
):
    vk = json.loads(json.dumps(artifacts["vk"][1]))
    vk["field"][entry] = NON_CANONICAL_HEADER[encoding](vk["field"][entry])
    code = verify_with(artifacts, tmp_path, vk=vk)
    assert_usage_error(code, capsys, "malformed key", f"field {entry}")


@pytest.mark.parametrize("encoding", sorted(NON_CANONICAL_HEADER))
@pytest.mark.parametrize("entry", ["p", "generator"])
def test_setup_refuses_non_canonical_circuit_header(
    artifacts, tmp_path, capsys, entry, encoding
):
    data = json.loads(json.dumps(artifacts["circuit"][1]))
    data["field"][entry] = NON_CANONICAL_HEADER[encoding](data["field"][entry])
    code = main([
        "--seed", "01", "setup", "--circuit", write_json(tmp_path / "c.json", data),
        "--evaluation-key", str(tmp_path / "ek.json"),
        "--verification-key", str(tmp_path / "vk.json"),
    ])
    assert_usage_error(code, capsys, f"field {entry}")


def test_verify_refuses_generator_not_below_p(artifacts, tmp_path, capsys):
    vk = json.loads(json.dumps(artifacts["vk"][1]))
    p = int(vk["field"]["p"])
    vk["field"]["generator"] = str(p + int(vk["field"]["generator"]))
    code = verify_with(artifacts, tmp_path, vk=vk)
    assert_usage_error(code, capsys, "malformed key", "field generator", f"below {p}")


# --- unusable paths ---------------------------------------------------------------

# Every flag that names a file the CLI reads, with "{f}" for the file under
# test, "{o}" for a scratch directory and "{circuit}" and so on for the valid
# coloring5 artifacts, plus the valid content the unusable variants start from.
INPUT_FLAGS = {
    "compile_source": (["compile", "{f}", "-o", "{o}/circuit.json"], "cubic.zkp"),
    "setup_circuit": (["setup", "--circuit", "{f}", "--evaluation-key", "{o}/ek.json",
                       "--verification-key", "{o}/vk.json"], "circuit"),
    "prove_circuit": (["prove", "--circuit", "{f}", "--evaluation-key", "{ek}",
                       "--inputs", "{inputs}", "-o", "{o}/wk.json"], "circuit"),
    "prove_evaluation_key": (["prove", "--circuit", "{circuit}", "--evaluation-key", "{f}",
                              "--inputs", "{inputs}", "-o", "{o}/wk.json"], "ek"),
    "prove_inputs": (["prove", "--circuit", "{circuit}", "--evaluation-key", "{ek}",
                      "--inputs", "{f}", "-o", "{o}/wk.json"], "inputs"),
    "verify_verification_key": (["verify", "--verification-key", "{f}",
                                 "--witness-key", "{wk}"], "vk"),
    "verify_witness_key": (["verify", "--verification-key", "{vk}",
                            "--witness-key", "{f}"], "wk"),
    "verify_public_inputs": (["verify", "--verification-key", "{vk}", "--witness-key", "{wk}",
                              "--public-inputs", "{f}"], "public"),
    "interactive_problem": (["interactive", "--problem", "{f}", "--rounds", "1",
                             "--transcript", "{o}/transcript.json"], "triangle.json"),
}
UNUSABLE = {
    "directory": lambda path, valid: path.mkdir(),
    "empty": lambda path, valid: path.write_bytes(b""),
    "non_utf8": lambda path, valid: path.write_bytes(b"\xff" + valid),
    "truncated": lambda path, valid: path.write_bytes(valid[: len(valid) // 2]),
}
# Every flag that names a file the CLI writes.
OUTPUT_FLAGS = {
    "compile_output": ["compile", "cubic", "-o", "{f}"],
    "compile_emit_qap": ["compile", "cubic", "-o", "{o}/circuit.json", "--emit-qap", "{f}"],
    "setup_evaluation_key": ["setup", "--circuit", "{circuit}", "--evaluation-key", "{f}",
                             "--verification-key", "{o}/vk.json"],
    "setup_verification_key": ["setup", "--circuit", "{circuit}", "--evaluation-key",
                               "{o}/ek.json", "--verification-key", "{f}"],
    "prove_output": ["prove", "--circuit", "{circuit}", "--evaluation-key", "{ek}",
                     "--inputs", "{inputs}", "-o", "{f}"],
    "interactive_transcript": ["interactive", "--problem", "triangle", "--rounds", "1",
                               "--transcript", "{f}"],
}


def valid_bytes(artifacts, name: str) -> bytes:
    if name in artifacts:
        return open(artifacts[name][0], "rb").read()
    if name == "inputs":
        return json.dumps(GOOD_INPUTS).encode()
    if name == "public":
        return b"{}"
    return load_bundled_text(name).encode()


def fill(argv, artifacts, root, target):
    paths = {name: path for name, (path, _) in artifacts.items()}
    paths["inputs"] = write_json(root / "inputs.json", GOOD_INPUTS)
    return ["--seed", "01"] + [arg.format(f=target, o=root, **paths) for arg in argv]


@pytest.mark.parametrize("kind", sorted(UNUSABLE))
@pytest.mark.parametrize("flag", sorted(INPUT_FLAGS))
def test_unusable_input_path_is_named(artifacts, tmp_path, capsys, flag, kind):
    argv, content = INPUT_FLAGS[flag]
    target = tmp_path / "unusable"
    UNUSABLE[kind](target, valid_bytes(artifacts, content))
    code = main(fill(argv, artifacts, tmp_path, target))
    assert_usage_error(code, capsys, str(target))


@pytest.mark.parametrize("flag", sorted(OUTPUT_FLAGS))
def test_directory_output_path_is_named(artifacts, tmp_path, capsys, flag):
    target = tmp_path / "adir"
    target.mkdir()
    code = main(fill(OUTPUT_FLAGS[flag], artifacts, tmp_path, target))
    assert_usage_error(code, capsys, str(target))
