import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from snarkpipe import bundled, cli, field, frontend, interactive, pinocchio, usage
from snarkpipe.bundled import load_bundled_text
from snarkpipe.circuit import Circuit, solve
from snarkpipe.cli import _parse_input_map, main, parse_args
from snarkpipe.field import MAX_GATES
from snarkpipe.interactive import MAX_ROUND_ENTRIES, MAX_VERTICES
from snarkpipe.pinocchio import EvaluationKey
from snarkpipe.rng import parse_seed

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


def first_failing_gate(circuit, assignment):
    """The index of the first gate whose equation the assignment breaks,
    read off the circuit's gates alone."""
    p = circuit.ctx.p
    for gate in sorted(circuit.gates, key=lambda gate: gate.index):
        left, right, out = (assignment[wire] for wire in (gate.left, gate.right, gate.out))
        if ((left * right if gate.op == "Times" else left + right) - out) % p:
            return gate.index
    return None


def test_refused_prove_names_the_first_failing_gate(workdir, capsys):
    assert run_pipeline(workdir, BAD_INPUTS) == 2
    circuit = Circuit.from_json_dict(json.loads((workdir / "circuit.json").read_text()))
    d = first_failing_gate(circuit, solve(circuit, _parse_input_map(BAD_INPUTS)))
    assert d is not None
    assert capsys.readouterr().err == (
        f"invalid witness: gate {d} does not hold (v\u00b7w != k at node {d});"
        " refusing to prove it\n"
    )
    assert not (workdir / "witness_key.json").exists()


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
    assert "symbols=74" in out


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
    assert data["field"] == {"p": "101"}


def test_compile_too_small_field_creates_no_output(workdir, capsys):
    code = main(["--field", "101", "compile", "coloring5", "-o", "c.json", "--emit-qap", "q.json"])
    assert_usage_error(code, capsys, "modulus 101 must exceed 2N = 138")
    assert sorted(os.listdir(workdir)) == []


def test_compile_checks_the_field_without_building_the_qap(workdir, capsys, monkeypatch):
    monkeypatch.setattr("snarkpipe.qap.build_qap", None)  # a plain compile never calls it
    code = main(["--field", "101", "compile", "coloring5", "-o", "c.json"])
    assert_usage_error(code, capsys, "modulus 101 must exceed 2N = 138")
    assert sorted(os.listdir(workdir)) == []
    assert main(["compile", "coloring5", "-o", "c.json"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "N=69 symbols=74"


def test_compile_too_small_field_keeps_existing_output(workdir, capsys):
    (workdir / "c.json").write_bytes(b"earlier circuit\n")
    (workdir / "q.json").write_bytes(b"earlier qap\n")
    code = main(["--field", "101", "compile", "coloring5", "-o", "c.json", "--emit-qap", "q.json"])
    assert_usage_error(code, capsys, "modulus 101 must exceed 2N = 138")
    assert (workdir / "c.json").read_bytes() == b"earlier circuit\n"
    assert (workdir / "q.json").read_bytes() == b"earlier qap\n"


def test_compile_unusable_emit_qap_path_writes_no_circuit(workdir, capsys):
    (workdir / "adir").mkdir()
    code = main(["compile", "cubic", "-o", "c.json", "--emit-qap", "adir"])
    assert_usage_error(code, capsys, "adir")
    assert not (workdir / "c.json").exists()


def test_compile_unusable_output_path_writes_no_qap(workdir, capsys):
    (workdir / "adir").mkdir()
    code = main(["compile", "cubic", "-o", "adir", "--emit-qap", "q.json"])
    assert_usage_error(code, capsys, "Is a directory", "adir")
    assert sorted(os.listdir(workdir)) == ["adir"]
    assert os.listdir(workdir / "adir") == []


def test_compile_unusable_output_path_keeps_existing_qap(workdir, capsys):
    (workdir / "adir").mkdir()
    (workdir / "q.json").write_bytes(b"earlier qap\n")
    code = main(["compile", "cubic", "-o", "adir", "--emit-qap", "q.json"])
    assert_usage_error(code, capsys, "adir")
    assert (workdir / "q.json").read_bytes() == b"earlier qap\n"
    assert sorted(os.listdir(workdir)) == ["adir", "q.json"]


# Two outputs of one command that name one file, spelled alike or not: the
# refusal names both flags, and nothing is written.
ONE_FILE_TWICE = {
    "compile": (["compile", "cubic", "-o", "{a}", "--emit-qap", "{b}"], "--output", "--emit-qap"),
    "setup": (["--seed", "01", "setup", "--evaluation-key", "{a}", "--verification-key", "{b}"],
              "--evaluation-key", "--verification-key"),
}


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("second", ["x.json", "./x.json", "{dir}/sub/../x.json"],
                         ids=["alike", "dot_slash", "through_sub"])
@pytest.mark.parametrize("command", sorted(ONE_FILE_TWICE))
def test_two_outputs_naming_one_file_are_refused(workdir, capsys, command, second, existing):
    if command == "setup":
        assert main(["compile", "cubic"]) == 0
    (workdir / "sub").mkdir()
    old = b"an earlier file\n"
    if existing:
        (workdir / "x.json").write_bytes(old)
    before = {name: (workdir / name).read_bytes() for name in os.listdir(workdir)
              if (workdir / name).is_file()}
    template, flag, other_flag = ONE_FILE_TWICE[command]
    argv = [arg.format(a="x.json", b=second.format(dir=workdir)) for arg in template]
    code = main(argv)
    assert_usage_error(code, capsys, f"error: {flag} 'x.json' and {other_flag} ")
    after = {name: (workdir / name).read_bytes() for name in os.listdir(workdir)
             if (workdir / name).is_file()}
    assert after == before
    assert os.listdir(workdir / "sub") == []


# An output that names one of its command's input files, the default
# transcript path included: the refusal names both flags, and the input keeps
# its bytes. {i} is the path as given, {o} the path spelled another way (the
# default transcript path is the output that is not given).
OUTPUT_OVER_INPUT = {
    "compile": (["compile", "{i}", "-o", "{o}"], "my.zkp", "source", "--output"),
    "compile_qap": (["compile", "{i}", "--emit-qap", "{o}"], "my.zkp", "source", "--emit-qap"),
    "setup_ek": (["--seed", "01", "setup", "--circuit", "{i}", "--evaluation-key", "{o}"],
                 "c.json", "--circuit", "--evaluation-key"),
    "setup_vk": (["--seed", "01", "setup", "--circuit", "{i}", "--verification-key", "{o}"],
                 "c.json", "--circuit", "--verification-key"),
    "prove_inputs": (["prove", "--inputs", "{i}", "-o", "{o}"], "in.json", "--inputs", "--output"),
    "prove_circuit": (["prove", "--circuit", "{i}", "--inputs", "in.json", "-o", "{o}"],
                      "c.json", "--circuit", "--output"),
    "prove_ek": (["prove", "--circuit", "c.json", "--evaluation-key", "{i}", "--inputs",
                  "in.json", "-o", "{o}"], "evaluation_key.json", "--evaluation-key", "--output"),
    "interactive": (["--seed", "01", "interactive", "--problem", "{i}", "--transcript", "{o}"],
                    "tri.json", "--problem", "--transcript"),
    "interactive_default": (["--seed", "01", "interactive", "--problem", "{o}"],
                            "transcript.json", "--problem", "--transcript"),
}


@pytest.mark.parametrize("spelling", ["{i}", "./{i}", "{dir}/sub/../{i}"],
                         ids=["alike", "dot_slash", "through_sub"])
@pytest.mark.parametrize("case", sorted(OUTPUT_OVER_INPUT))
def test_output_naming_an_input_is_refused(workdir, capsys, case, spelling):
    (workdir / "my.zkp").write_text(load_bundled_text("cubic.zkp"))
    (workdir / "tri.json").write_text(load_bundled_text("triangle.json"))
    (workdir / "transcript.json").write_text(load_bundled_text("triangle.json"))
    write_json(workdir / "in.json", {"x": "3", "y": "35"})
    assert main(["compile", "cubic", "-o", "c.json"]) == 0
    assert main(["--seed", "01", "setup", "--circuit", "c.json"]) == 0
    (workdir / "sub").mkdir()
    capsys.readouterr()
    before = {path: path.read_bytes() for path in workdir.iterdir() if path.is_file()}
    template, given, in_flag, out_flag = OUTPUT_OVER_INPUT[case]
    output = spelling.format(i=given, dir=workdir)
    argv = [arg.format(i=given, o=output) for arg in template]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {in_flag} ") and err.endswith(" name one file\n")
    assert f" and {out_flag} " in err
    assert {path: path.read_bytes() for path in workdir.iterdir() if path.is_file()} == before
    assert os.listdir(workdir / "sub") == []


def test_bundled_name_is_no_input_file(workdir, capsys):
    # No file named "cubic" is on disk, so the source is the bundled copy
    # and "-o cubic" replaces nothing.
    assert main(["compile", "cubic", "-o", "cubic"]) == 0
    assert Circuit.from_json_dict(json.loads((workdir / "cubic").read_text())).n_gates == 7


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("unusable", ["directory", "missing_parent"])
def test_setup_writes_both_keys_or_neither(workdir, capsys, unusable, existing):
    assert main(["compile", "cubic"]) == 0
    vk_path = "vdir" if unusable == "directory" else "nodir/vk.json"
    if unusable == "directory":
        os.mkdir("vdir")
    old = b"an older evaluation key\n"
    if existing:
        (workdir / "evaluation_key.json").write_bytes(old)
    code = main(["--seed", "01", "setup", "--verification-key", vk_path])
    assert_usage_error(code, capsys, "unusable file" if unusable == "directory" else "missing file")
    left = set(os.listdir(workdir)) - {"circuit.json", "vdir"}
    assert left == ({"evaluation_key.json"} if existing else set())
    if existing:
        assert (workdir / "evaluation_key.json").read_bytes() == old


@pytest.mark.parametrize(
    "argv", [["--generator", "5", "compile", "cubic"], ["compile", "cubic", "--generator", "5"]]
)
def test_generator_flag_is_unknown(workdir, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "snarkpipe: error:" in capsys.readouterr().err
    assert not (workdir / "circuit.json").exists()


def test_full_pipeline_over_a_safe_prime(workdir, capsys):
    # p - 1 = 2q with q prime: nothing about p - 1 needs factoring.
    p = "9223372036854778487"
    assert main(["--field", p, "compile", "cubic"]) == 0
    assert main(["--seed", "01", "setup"]) == 0
    inputs = write_json(workdir / "inputs.json", {"x": "3", "y": "35"})
    assert main(["prove", "--inputs", inputs]) == 0
    assert main(["verify"]) == 0
    assert "accept" in capsys.readouterr().out
    for name in ("circuit", "evaluation_key", "verification_key", "witness_key"):
        assert json.loads((workdir / f"{name}.json").read_text())["field"] == {"p": p}


@pytest.mark.parametrize(
    "modulus",
    # strong pseudoprimes to every prime base up to 37 and up to 41
    ["318665857834031151167461", "3317044064679887385961981"],
    ids=["psi12", "psi13"],
)
def test_composite_modulus_is_refused_by_flag_and_by_circuit_header(workdir, capsys, modulus):
    assert main(["--field", modulus, "compile", "cubic"]) == 1
    assert capsys.readouterr().err == f"error: modulus {modulus} is not prime\n"
    assert not (workdir / "circuit.json").exists()
    assert main(["compile", "cubic"]) == 0
    circuit = json.loads((workdir / "circuit.json").read_text())
    circuit["field"]["p"] = modulus
    write_json(workdir / "circuit.json", circuit)
    capsys.readouterr()
    assert main(["--seed", "01", "setup"]) == 1
    assert capsys.readouterr().err == f"error: modulus {modulus} is not prime\n"
    assert not (workdir / "evaluation_key.json").exists()
    assert not (workdir / "verification_key.json").exists()


def small_field_pipeline(root):
    """cubic over p = 101: circuit, keys and witness key under root."""
    assert main(["--field", "101", "compile", "cubic", "-o", f"{root}/c101.json"]) == 0
    assert main([
        "--seed", "01", "setup", "--circuit", f"{root}/c101.json",
        "--evaluation-key", f"{root}/ek101.json", "--verification-key", f"{root}/vk101.json",
    ]) == 0
    assert main([
        "prove", "--circuit", f"{root}/c101.json", "--evaluation-key", f"{root}/ek101.json",
        "--inputs", write_json(root / "in101.json", {"x": "3", "y": "35"}),
        "-o", f"{root}/wk101.json",
    ]) == 0


def test_prove_mismatch_names_both_moduli(artifacts, tmp_path, capsys):
    small_field_pipeline(tmp_path)
    code = main([
        "prove", "--circuit", str(tmp_path / "c101.json"), "--evaluation-key", artifacts["ek"][0],
        "--inputs", str(tmp_path / "in101.json"), "-o", str(tmp_path / "wk.json"),
    ])
    p = artifacts["ek"][1]["field"]["p"]
    assert_usage_error(
        code, capsys, f"evaluation key (p={p}) and circuit (p=101) use different fields"
    )
    assert not (tmp_path / "wk.json").exists()


def test_verify_mismatch_names_both_moduli(artifacts, tmp_path, capsys):
    small_field_pipeline(tmp_path)
    code = main([
        "verify", "--verification-key", artifacts["vk"][0],
        "--witness-key", str(tmp_path / "wk101.json"),
    ])
    p = artifacts["vk"][1]["field"]["p"]
    assert_usage_error(
        code, capsys, f"witness key (p=101) and verification key (p={p}) use different fields"
    )


def test_outputs_in_circuit_json(workdir):
    assert main(["compile", "coloring5"]) == 0
    data = json.loads((workdir / "circuit.json").read_text())
    assert [o["rel"] for o in data["outputs"]] == ["neq0", "eq0"]


def test_missing_artifact_is_usage_error(workdir, capsys):
    assert main(["verify", "--witness-key", "nope.json"]) == 1



@pytest.mark.parametrize(
    "argv, path",
    [
        (["--seed", "01", "setup", "--verification-key", "nodir/vk.json"], "nodir/vk.json"),
        (["compile", "cubic", "-o", "nodir/c.json"], "nodir/c.json"),
        (["compile", "cubic", "-o", "nodir/c.json", "--emit-qap", "q.json"], "nodir/c.json"),
    ],
    ids=["setup", "compile", "compile_with_qap"],
)
def test_failed_write_names_the_path_given(workdir, capsys, argv, path):
    assert main(["compile", "cubic"]) == 0
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines()[-1] == f"missing file: [Errno 2] No such file or directory: {path!r}"
    assert os.listdir(workdir) == ["circuit.json"]  # no temporary file is left


def test_stale_temporary_file_is_named(workdir, capsys):
    stale = f"c.json.{os.getpid()}.tmp"
    (workdir / stale).write_bytes(b"left by an earlier run\n")
    code = main(["compile", "cubic", "-o", "c.json"])
    assert_usage_error(code, capsys, f"File exists: {stale!r}")
    assert sorted(os.listdir(workdir)) == [stale]


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


def test_long_refused_entry_is_quoted_in_part(artifacts, tmp_path, capsys):
    wk = {**artifacts["wk"][1], "h": "1" * 4301}
    code = verify_with(artifacts, tmp_path, wk=wk)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("malformed key: witness-key entry 'h'")
    assert "(4301 characters)" in err
    assert err.count("\n") == 1 and len(err) < 200


def test_verify_refuses_non_canonical_verification_entry(artifacts, tmp_path, capsys):
    vk = dict(artifacts["vk"][1])
    vk["target_at_s"] = str(int(vk["target_at_s"]) + int(vk["field"]["p"]))
    code = verify_with(artifacts, tmp_path, vk=vk)
    assert_usage_error(code, capsys, "malformed key", "target_at_s")


HOSTILE_ENTRIES = {
    **NON_CANONICAL,
    "negative": lambda text, p: "-5",
    "non_ascii_digit": lambda text, p: "\u0663",
    "over_4300_digits": lambda text, p: "1" * 4301,
    "json_integer": lambda text, p: 5,
    "json_float": lambda text, p: 5.0,
    "json_true": lambda text, p: True,
    "json_null": lambda text, p: None,
    "json_array": lambda text, p: [],
    "json_infinity": lambda text, p: float("inf"),
}


@pytest.mark.parametrize("encoding", sorted(HOSTILE_ENTRIES))
@pytest.mark.parametrize("position", ["first", "last"])
@pytest.mark.parametrize("name", EvaluationKey.LISTS)
def test_prove_refuses_non_canonical_evaluation_entry(
    artifacts, tmp_path, capsys, name, position, encoding
):
    ek = dict(artifacts["ek"][1])
    ek[name] = list(ek[name])
    i = 0 if position == "first" else len(ek[name]) - 1
    ek[name][i] = HOSTILE_ENTRIES[encoding](ek[name][i], int(ek["field"]["p"]))
    code = main([
        "prove", "--circuit", artifacts["circuit"][0],
        "--evaluation-key", write_json(tmp_path / "ek.json", ek),
        "--inputs", write_json(tmp_path / "inputs.json", GOOD_INPUTS),
        "-o", str(tmp_path / "wk.json"),
    ])
    assert_usage_error(code, capsys, f"malformed key: evaluation-key entry {name}[{i}]: ")
    assert not (tmp_path / "wk.json").exists()


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
    "public_empty": (
        "ek", lambda k: k.update(public=[]),
        "evaluation-key entry 'public' must list 'one' first, not nothing",
    ),
    "public_one_not_first": (
        "ek", lambda k: k.update(public=["c1", "one"]),
        "evaluation-key entry 'public' must list 'one' first, not 'c1'",
    ),
    "public_unknown_name": (
        "ek", lambda k: k.update(public=["one", "nosuch"]),
        "evaluation-key entry 'public' names 'nosuch', which is not a symbol",
    ),
    "public_repeated_name": (
        "ek", lambda k: k.update(public=["one", "one"]),
        "evaluation-key entry 'public' lists 'one' twice",
    ),
    "vk_public_empty": (
        "vk", lambda k: k.update(public=[]),
        "verification-key entry 'public' must list 'one' first, not nothing",
    ),
    "vk_public_one_not_first": (
        "vk", lambda k: k["public"].insert(0, {**k["public"][0], "name": "c1"}),
        "verification-key entry 'public' must list 'one' first, not 'c1'",
    ),
    "vk_public_repeated_name": (
        "vk", lambda k: k["public"].append(dict(k["public"][0])),
        "verification-key entry 'public' lists 'one' twice",
    ),
    "vk_public_name_number": ("vk", public_name(1), "public[0].name"),
    "vk_public_name_null": ("vk", public_name(None), "public[0].name"),
    # each key file takes exactly the keys its writer writes
    "ek_stray_key": (
        "ek", lambda k: k.update(note="x"), "evaluation-key file takes no key 'note'"
    ),
    "ek_stray_key_before_lists": (
        "ek", lambda k: k.update(note="x", v="not a list"),
        "evaluation-key file takes no key 'note'",
    ),
    "vk_stray_key": (
        "vk", lambda k: k.update(note="x"), "verification-key file takes no key 'note'"
    ),
    "vk_public_stray_key": (
        "vk", lambda k: k["public"][0].update(note="x"), "public[0] takes no key 'note'"
    ),
    "wk_stray_key": (
        "wk", lambda k: k.update(note="x"), "witness-key file takes no key 'note'"
    ),
    # n_gates is bounded before any list is decoded
    "n_gates_over_bound": (
        "ek", lambda k: k.update(n_gates=MAX_GATES + 1, v="not a list"),
        f"'n_gates' must be a JSON integer from 0 to {MAX_GATES}, not {MAX_GATES + 1}",
    ),
    "n_gates_at_bound": (
        "ek", lambda k: k.update(n_gates=MAX_GATES),
        f"'powers_of_s' must list {MAX_GATES + 1} elements",
    ),
}


@pytest.mark.parametrize("edit", sorted(KEY_EDITS))
def test_refuses_malformed_key_scalar(artifacts, tmp_path, capsys, edit):
    key, change, name = KEY_EDITS[edit]
    data = json.loads(json.dumps(artifacts[key][1]))
    change(data)
    if key in ("vk", "wk"):
        code = verify_with(artifacts, tmp_path, **{key: data})
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
# at format version 3, when a condition gate's pinned output stopped being a
# symbol and its k entry moved onto the one-wire. Against version 2 a
# circuit changes only its "format"; the QAP and the evaluation key lose the
# pinned symbols; and a verification or witness key changes beyond its header
# only where a pinned 1 (an `!=` assertion) now counts in the one-wire's k.
# Circuits, QAPs and keys must otherwise stay byte for byte the same.
PINNED_ARTIFACTS = {
    "coloring5": (GOOD_INPUTS, {
        "circuit": "6eeb05328e608565e49cdcc69453a6de36d3b21505fe4622d75b8a4f4552f7cf",
        "qap": "fe79782fab6563b6753559ad4801a1ae594c3569d2c70d07a99c3e333a994cdb",
        "ek": "e32a1e2d96bd1fafe5b3fe8538de6e2a9c5c8e999623dc5256b1d60f1e2447c4",
        "vk": "34dbe6175a6f12feed2e0be9cea765b04724348fa9d6dcdb1393560370a36406",
        "wk": "0d063ee89157badfae404da3cd59d2648111757de27adbaf734eb4032c12f8ef",
    }),
    "cubic": ({"x": "3", "y": "35"}, {
        "circuit": "a585c68fae7320112e505f7bb3eb46033513f143ecf7bd83016813196bfa3f41",
        "qap": "4d1341e6c51049ddb636f2a738589c4a8e236352a440c749c0deeea2fd4b8294",
        "ek": "d07e463d37e302f283028bd8dff69afee2d559967ddd776bfcce798d068e1c09",
        "vk": "07f77b1f41049afc2cc98feb4dc10c4c66dcedf72bc79b38934e991f43ccc327",
        "wk": "927c52a2587aeec59c75339a1612ec83e74749786cacfde907026af739fdc3dc",
    }),
    "product": ({"x": "0", "y": "5"}, {
        "circuit": "c5d1c4c7a71299692f869c5b886ba5f4193f422159b3ab98c0525d9b3dad488f",
        "qap": "fad3f2c3c6498307a823c719059bc1dae5d99cdfff29082cccf6c08d0df24ecc",
        "ek": "2e9f8201d0d0e44be41b237196c5ff5578d5e47b09b3e3a998ff85265a6125ad",
        "vk": "cad9ebfe68f5252e9778898d95c94a825cdec57a5aabb82d7408e3b500758876",
        "wk": "58f36651c4f9f535530ef4af6e62507fefa8b0aa60dfdf3d9faa36fac5582b3f",
    }),
}


# The same digests for a 201-gate squaring chain, recorded before the two
# forms of the product tree were merged into one class. At the default
# modulus the tree over 201 nodes takes the two-point form, so these pin the
# prover's quotient and --emit-qap's target and Lagrange basis in that form.
PINNED_CHAIN_ARTIFACTS = {
    "circuit": "c51c2dc6711f6439aeed1a388b3fe50f21ff3886c7543135dcd3f856d829c039",
    "qap": "575a20bccf011b2b024400c309086e0ee222a0349875d55ab56c732223099136",
    "ek": "d53ed364bb2663e2786bbfcd7ed50d864c2f97b5d9f91fe7e56d284f8415abd4",
    "vk": "08f79fa79f099480c99fc7337e9fba3533388c3e3ed2e28396a7765e621f6244",
    "wk": "e4a4f686467189b251fb49cf665103fa1af8195c5bff26edecb5e427ea1cb3c4",
}


def assert_artifacts_pinned(workdir, program, inputs, digests):
    assert main(["compile", program, "-o", "circuit.json", "--emit-qap", "qap.json"]) == 0
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


@pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
def test_pipeline_artifact_bytes_pinned(workdir, name):
    inputs, digests = PINNED_ARTIFACTS[name]
    assert_artifacts_pinned(workdir, name, inputs, digests)


def test_pipeline_artifact_bytes_pinned_above_the_two_point_cutoff(workdir):
    links, a, p = 99, 5, field.DEFAULT_MODULUS  # N = 2 * links + 3 = 201 gates
    lines = ["inputs a, y;", "f1 := a*a + 7;"]
    lines += [f"f{i} := f{i - 1}*f{i - 1} + a;" for i in range(2, links + 1)]
    lines += [f"out := f{links} - y;", "assert out == 0;"]
    (workdir / "chain.zkp").write_text("\n".join(lines) + "\n")
    y = a * a + 7
    for _ in range(2, links + 1):
        y = (y * y + a) % p
    assert_artifacts_pinned(
        workdir, "chain.zkp", {"a": str(a), "y": str(y)}, PINNED_CHAIN_ARTIFACTS
    )


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


def test_interactive_repeat_is_bounded_before_the_first_session(workdir, capsys, monkeypatch):
    # path4's rounds send 20 entries, so 50000 rounds are 10^6 entries a
    # session: 16 sessions fit in MAX_REPEAT_ENTRIES = 2^24 and 17 do not. A
    # cheater is caught within a few rounds, so the sessions that run are cheap.
    argv = ["--seed", "01", "interactive", "--problem", "path4", "--cheat",
            "--rounds", "50000", "--repeat"]
    assert main([*argv, "16"]) == 0
    assert capsys.readouterr().out == "sessions=16 rounds=50000 accepted=0 rate=0.0000\n"
    # a session past its own bound is refused by that bound, as with one session
    assert main([*argv[:-3], "--rounds", "60000", "--repeat", "14"]) == 1
    assert capsys.readouterr().err.startswith("error: a session sends at most 1048576 entries")

    def no_session(*args):
        raise AssertionError("a session ran")

    monkeypatch.setattr(interactive, "session_rounds", no_session)
    assert main([*argv, "17"]) == 1
    assert capsys.readouterr().err == (
        "error: --repeat sends at most 16777216 entries in all, and 17 sessions of"
        " 1000000 send 17000000; at most --repeat 16 fits\n"
    )
    # a run that went on until it was killed
    code = main(["--seed", "01", "interactive", "--problem", "triangle", "--cheat",
                 "--rounds", "1", "--repeat", "100000000"])
    assert_usage_error(code, capsys, "100000000 sessions of 12 send 1200000000",
                       "at most --repeat 1398101 fits")


def test_interactive_requires_solution_unless_cheating(workdir, capsys):
    assert main(["--seed", "01", "interactive", "--problem", "path4"]) == 1
    assert "solution" in capsys.readouterr().err


def test_interactive_rejects_malformed_problem(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text('{"type": "sudoku"}')
    assert main(["--seed", "01", "interactive", "--problem", str(bad)]) == 1


def test_bad_seed_is_usage_error(workdir, capsys):
    # The seed is parsed before any file is read, so the refusal names the
    # seed, not the missing file.
    for argv in [["setup", "--circuit", "nope.json"], ["interactive", "--problem", "nope.json"]]:
        code = main(["--seed", "zz", *argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: seed must be hexadecimal, got 'zz'\n", argv


# An unset variable in `--seed "$SEED"` gives "", which decodes to no bytes:
# every randomized step would draw the one stream anyone can derive.
@pytest.mark.parametrize("seed", ["", " "], ids=["empty", "space"])
@pytest.mark.parametrize("argv", [
    ["setup"],
    ["interactive", "--problem", "triangle"],
    ["selftest"],
], ids=["setup", "interactive", "selftest"])
def test_seed_of_no_bytes_is_refused_by_name(workdir, capsys, argv, seed):
    if argv[0] == "setup":
        assert main(["compile", "cubic"]) == 0
    before = sorted(os.listdir(workdir))
    code = main(["--seed", seed, *argv])
    assert_usage_error(code, capsys, f"error: seed must hold at least one byte, got {seed!r}")
    assert sorted(os.listdir(workdir)) == before


def test_documented_seeds_parse():
    """Every --seed the README's and the CI workflow's snarkpipe command
    lines pass names some bytes (perfbench's --seed is an integer), but the
    one the CI passes to check that a bad seed is refused."""
    root = Path(__file__).resolve().parents[1]
    lines = [
        line
        for path in ("README.md", ".github/workflows/tests.yml")
        for line in (root / path).read_text().splitlines()
        if "snarkpipe " in line and "perfbench" not in line
    ]
    seeds = {seed for line in lines for seed in re.findall(r"--seed[ =]([0-9A-Za-z]+)", line)}
    assert {"0102", "0a", "0b", "ff", "01", "zz"} <= seeds
    for seed in seeds - {"zz"}:
        assert len(parse_seed(seed)) >= 1, seed


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


@pytest.mark.parametrize("public, refusal", [
    ("c1,c1", "--public names 'c1' twice"),
    ("one,out,one", "--public names 'one' twice"),
    (",one,,c1", "--public ',one,,c1' holds an empty name"),
    ("out,", "--public 'out,' holds an empty name"),
    ("", "--public '' holds an empty name"),
], ids=["repeated", "repeated_one", "empty_inside", "empty_last", "empty"])
def test_setup_refuses_empty_and_repeated_public_names(workdir, capsys, public, refusal):
    assert main(["compile", "coloring5"]) == 0
    before = sorted(os.listdir(workdir))
    for argv in (["--public", public], [f"--public={public}"]):  # reader and argparse
        code = main(["--seed", "01", "setup", *argv])
        assert_usage_error(code, capsys, f"error: {refusal}")
        assert sorted(os.listdir(workdir)) == before


def test_setup_refuses_a_public_symbol_that_enters_no_gate(workdir, capsys, monkeypatch):
    # y is an input no gate reads: its v, w and k are zero, so a key that made
    # it public would accept a witness key for any claimed y
    source = workdir / "unused.zkp"
    source.write_text("inputs x, y; z := x*x; assert z != 0;\n")
    assert main(["compile", str(source)]) == 0
    capsys.readouterr()
    before = sorted(os.listdir(workdir))

    def refuse(*args):
        raise AssertionError("the trapdoor is drawn only for a statement that binds its names")

    with monkeypatch.context() as patch:
        patch.setattr(pinocchio.Trapdoor, "sample", refuse)
        for public in ("y", "x,y", "one,y"):
            code = main(["--seed", "01", "setup", "--public", public])
            assert_usage_error(
                code,
                capsys,
                "error: public symbol 'y' enters no gate, so any value of it would verify",
            )
            assert sorted(os.listdir(workdir)) == before
    assert main(["--seed", "01", "setup", "--public", "x"]) == 0


def test_emit_qap_past_the_budget_is_refused_before_the_qap_is_built(workdir, capsys, monkeypatch):
    # 294 links: N = 591 gates and S = 593 symbols, 3 * S * N = 1051389 > 2^20
    links = 294
    lines = ["inputs a, y;", "f1 := a*a + 7;"]
    lines += [f"f{i} := f{i - 1}*f{i - 1} + a;" for i in range(2, links + 1)]
    lines += [f"out := f{links} - y;", "assert out == 0;"]
    source = workdir / "chain.zkp"
    source.write_text("\n".join(lines) + "\n")

    def refuse(*args):
        raise AssertionError("the QAP is not built past the budget")

    monkeypatch.setattr(cli, "build_qap", refuse)
    code = main(["compile", str(source), "-o", "c.json", "--emit-qap", "q.json"])
    assert_usage_error(
        code,
        capsys,
        "error: an emitted QAP holds 3 * S * N = 1051389 coefficients for S=593 symbols"
        " over N=591 gates; at most 1048576 are written",
    )
    assert sorted(os.listdir(workdir)) == ["chain.zkp"]
    # without --emit-qap the same chain compiles
    assert main(["compile", str(source), "-o", "c.json"]) == 0
    assert "N=591 symbols=593" in capsys.readouterr().out


SELFTEST_CHECKS = (
    "field inverse identity (500 samples)",
    "polynomial division reconstructs (100 samples)",
    "pairing bilinearity (200 samples)",
    "bundled pipeline accepts a valid coloring",
    "prover refuses an invalid coloring",
    "verifier rejects a tampered witness key",
    "interactive honest session accepts",
    "interactive cheater lands near 1/2 per round",
)


def test_selftest(workdir, capsys):
    for argv in [], ["--seed", "ff"], ["--field", "2305843009213693951"]:
        assert main([*argv, "selftest"]) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[:-1] == [f"[PASS] {name}" for name in SELFTEST_CHECKS], argv
        assert re.fullmatch(r"selftest finished in \d+\.\d\ds", lines[-1])
        assert err == ""
        assert os.listdir(workdir) == []


def test_selftest_runs_the_commands_it_checks(workdir, capsys, monkeypatch):
    ran = []
    for name, (handler, summary, flags) in cli._COMMANDS.items():
        def recording(args, handler=handler, name=name):
            ran.append(name)
            return handler(args)

        monkeypatch.setitem(cli._COMMANDS, name, (recording, summary, flags))
    assert main(["selftest"]) == 0
    assert ran == ["selftest", "compile", "setup", "prove", "verify", "prove", "verify",
                   "interactive", "interactive"]


def test_selftest_reports_a_failed_check(workdir, capsys, monkeypatch):
    # A verifier that accepts everything passes the pipeline check and
    # fails the tampered-key one; the remaining checks still run.
    accepting = cli.pinocchio.VerifyResult(True, True, True)
    monkeypatch.setattr(cli.pinocchio, "verify", lambda *args: accepting)
    assert main(["selftest"]) == 1
    out, err = capsys.readouterr()
    assert [line for line in out.splitlines() if line.startswith("[")] == [
        f"[{'FAIL' if 'tampered' in name else 'PASS'}] {name}" for name in SELFTEST_CHECKS
    ]
    assert err == "1 check(s) failed\n"


def test_selftest_stops_at_a_command_that_fails(workdir, capsys):
    # The field is too small for the bundled 69-gate circuit: compile
    # refuses it, and selftest stops there with compile's own error.
    assert main(["--field", "101", "selftest"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"[PASS] {name}" for name in SELFTEST_CHECKS[:3]]
    assert err == "error: modulus 101 must exceed 2N = 138 for a 69-gate circuit\n"
    assert os.listdir(workdir) == []


def test_console_entrypoint_runs():
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
        # a file holds exactly the keys of its type
        ({**SAT_DEMO, "cycle": [0, 1, 2]}, "sat3 problem file takes no key 'cycle'"),
        ({**SAT_DEMO, "note": "x"}, "sat3 problem file takes no key 'note'"),
        ({**TRIANGLE, "assignment": [True] * 3},
         "hamiltonian-cycle problem file takes no key 'assignment'"),
        ({**TRIANGLE, "variables": 3}, "hamiltonian-cycle problem file takes no key 'variables'"),
        # a round commits at most 2^16 entries, refused before validation
        ({**SAT_DEMO, "clauses": [[1, 1, 1]] * (MAX_ROUND_ENTRIES + 1)},
         f"clauses must hold at most {MAX_ROUND_ENTRIES}, not {MAX_ROUND_ENTRIES + 1}"),
        ({**TRIANGLE, "adjacency": [[0]] * (MAX_VERTICES + 1)},
         f"adjacency must have at most {MAX_VERTICES} rows, not {MAX_VERTICES + 1}"),
    ],
    ids=[
        "array", "assignment_strings", "assignment_ints", "cycle_float",
        "adjacency_bool", "adjacency_string", "adjacency_two", "adjacency_ragged",
        "adjacency_not_array", "variables_float", "literal_float", "variables_million",
        "sat_cycle", "sat_note", "hc_assignment", "hc_variables",
        "clauses_over_bound", "vertices_over_bound",
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


def test_interactive_refuses_an_empty_transcript_path(workdir, capsys, monkeypatch):
    def no_round(*args):
        raise AssertionError("a round ran")

    monkeypatch.setattr(interactive, "cipher_round", no_round)
    code = main(["--seed", "01", "interactive", "--problem", "triangle", "--transcript", ""])
    assert_usage_error(code, capsys, "--transcript needs a path")
    assert os.listdir(workdir) == []


# Each way a write can fail before any path is replaced: the path names a
# directory, its directory is missing, or a temporary from an earlier run of
# this process id is in the way (named as itself).
WRITE_FAILURES = {
    "directory": ("adir", "adir"),
    "missing_parent": ("nodir/out.json", "nodir/out.json"),
    "stale_temporary": ("out.json", f"out.json.{os.getpid()}.tmp"),
}


def prepare_write_failure(workdir, failure):
    path, named = WRITE_FAILURES[failure]
    if failure == "directory":
        (workdir / path).mkdir()
    elif failure == "stale_temporary":
        (workdir / named).write_bytes(b"left by an earlier run\n")
    return path, named, sorted(os.listdir(workdir))


PAYLOADS = {"bytes": b'{"a":[1,2]}\n', "chunks": [b'{"a":', b"[1", b",", b"2]", b"}\n"]}


@pytest.mark.parametrize("form", PAYLOADS)
def test_write_files_takes_bytes_or_chunks(workdir, form):
    cli._write_files({"one.json": PAYLOADS[form], "two.json": iter(PAYLOADS["chunks"])})
    assert (workdir / "one.json").read_bytes() == (workdir / "two.json").read_bytes()
    assert (workdir / "one.json").read_bytes() == b'{"a":[1,2]}\n'
    assert sorted(os.listdir(workdir)) == ["one.json", "two.json"]


@pytest.mark.parametrize("form", PAYLOADS)
@pytest.mark.parametrize("failure", WRITE_FAILURES)
def test_write_files_writes_nothing_on_failure(workdir, failure, form):
    path, named, before = prepare_write_failure(workdir, failure)
    with pytest.raises(OSError) as exc:
        cli._write_files({"first.json": PAYLOADS[form], path: PAYLOADS[form]})
    assert exc.value.filename == named
    assert sorted(os.listdir(workdir)) == before


@pytest.mark.parametrize("failure", WRITE_FAILURES)
def test_interactive_failed_transcript_write_writes_nothing(workdir, capsys, failure):
    path, named, before = prepare_write_failure(workdir, failure)
    code = main(["--seed", "01", "interactive", "--problem", "sat_demo", "--transcript", path])
    assert_usage_error(code, capsys, repr(named))
    assert sorted(os.listdir(workdir)) == before


def mutate_circuit(data, edit):
    """Apply an edit to a deep copy; an edit may also return a replacement."""
    data = json.loads(json.dumps(data))
    replaced = edit(data)
    return data if replaced is None else replaced


def first_const(data):
    return next(i for i, w in enumerate(data["wires"]) if w["kind"] == "const")


def first_gate(data):
    return next(i for i, w in enumerate(data["wires"]) if w["kind"] == "gate")


def first_inverse(data):
    return next(i for i, w in enumerate(data["wires"]) if w["kind"] == "inverse")


def drive_input(data):
    """Gate 1's output wire becomes a declared input, which gate 1 drives."""
    out = data["gates"][0]["o"]
    data["wires"][out] = {"kind": "input", "name": "zzz"}
    data["inputs"].append("zzz")
    data["names"]["zzz"] = out


def inverse_of_hint(data):
    """The wire after the inverse hint becomes a second hint that inverts it."""
    first = first_inverse(data)
    data["wires"][first + 1] = {"kind": "inverse", "of": first}


def drive_twice(data):
    """Gate 2 repeats gate 1's operands and output wire."""
    data["gates"][1] = {**data["gates"][0], "d": 2}


def swap_first_gates(data):
    """Gates 1 and 2 trade places but keep their positions as d."""
    first, second = data["gates"][:2]
    data["gates"][:2] = [{**second, "d": 1}, {**first, "d": 2}]


CIRCUIT_EDITS = {
    "not_object": (lambda d: [d], "JSON object"),
    "format": (
        lambda d: d.update(format="snarkpipe-circuit/1"),
        "format='snarkpipe-circuit/1'; this version reads 'snarkpipe-circuit/3'",
    ),
    "inverse_of_itself": (
        lambda d: d["wires"][first_inverse(d)].update(of=first_inverse(d)),
        "is an inverse hint of wire",
    ),
    "inverse_of_later_wire": (
        lambda d: d["wires"][first_inverse(d)].update(of=first_inverse(d) + 1),
        "is an inverse hint of wire",
    ),
    "inverse_of_hint": (inverse_of_hint, "which is not an earlier input or gate wire"),
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
    # build_qap takes wire 0 as the one-wire and every other wire by its kind
    "no_wires": (lambda d: d.update(wires=[]), "'wires' must start with the one-wire"),
    "wire_0_const": (
        lambda d: d["wires"][0].update(kind="const", value="1"),
        "wire 0 has kind 'const'; only wire 0 is the one-wire",
    ),
    "second_one_wire": (
        lambda d: d["wires"].append({"kind": "one"}), "has kind 'one'; only wire 0"
    ),
    "top_level_key": (lambda d: d.update(note="x"), "circuit file takes no key 'note'"),
    # the gate count is bounded before any gate is read
    "too_many_gates": (
        lambda d: d["gates"].extend([{}] * (MAX_GATES + 1 - len(d["gates"]))),
        f"circuit 'gates' must list at most {MAX_GATES} gates, not {MAX_GATES + 1}",
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


def field_header_refusal(kind, entry):
    """What a loader names: p in a non-canonical encoding, or the stray entry."""
    return "field entry 'p'" if entry == "p" else f"{kind} field takes no key {entry!r}"


def edit_field_header(header, entry, encoding):
    """p in a non-canonical encoding, or an entry beside p (the field header
    holds only p, so any other entry is refused whatever its encoding)."""
    header = json.loads(json.dumps(header))
    header["field"][entry] = NON_CANONICAL_HEADER[encoding](header["field"].get(entry, "7"))
    return header


@pytest.mark.parametrize("encoding", sorted(NON_CANONICAL_HEADER))
@pytest.mark.parametrize("entry", ["p", "generator"])
def test_verify_refuses_non_canonical_key_header(
    artifacts, tmp_path, capsys, entry, encoding
):
    vk = edit_field_header(artifacts["vk"][1], entry, encoding)
    code = verify_with(artifacts, tmp_path, vk=vk)
    assert_usage_error(
        code, capsys, "malformed key", field_header_refusal("verification-key", entry)
    )


@pytest.mark.parametrize("encoding", sorted(NON_CANONICAL_HEADER))
@pytest.mark.parametrize("entry", ["p", "generator"])
def test_setup_refuses_non_canonical_circuit_header(
    artifacts, tmp_path, capsys, entry, encoding
):
    data = edit_field_header(artifacts["circuit"][1], entry, encoding)
    code = main([
        "--seed", "01", "setup", "--circuit", write_json(tmp_path / "c.json", data),
        "--evaluation-key", str(tmp_path / "ek.json"),
        "--verification-key", str(tmp_path / "vk.json"),
    ])
    assert_usage_error(code, capsys, field_header_refusal("circuit", entry))


# A file of an earlier format version, and the command that reads it.
OLD_FORMAT = {
    "circuit": ("circuit", ["setup", "--circuit", "{f}", "--evaluation-key", "{o}/ek.json",
                            "--verification-key", "{o}/vk.json"]),
    "ek": ("evaluation-key", ["prove", "--circuit", "{circuit}", "--evaluation-key", "{f}",
                              "--inputs", "{inputs}", "-o", "{o}/wk.json"]),
    "vk": ("verification-key", ["verify", "--verification-key", "{f}", "--witness-key", "{wk}"]),
    "wk": ("witness-key", ["verify", "--verification-key", "{vk}", "--witness-key", "{f}"]),
}


@pytest.mark.parametrize("name", sorted(OLD_FORMAT))
def test_refuses_previous_format_version_by_name(artifacts, tmp_path, capsys, name):
    kind, argv = OLD_FORMAT[name]
    # Version 1 also put a generator in 'field'. Version 2 keys gave each
    # condition gate's pinned output a private symbol that nothing tied to
    # its constant, so they encode a weaker relation than version 3's.
    for version, field in ((1, {"generator": "7"}), (2, {})):
        old = {
            **artifacts[name][1],
            "format": f"snarkpipe-{kind}/{version}",
            "field": {**artifacts[name][1]["field"], **field},
        }
        target = write_json(tmp_path / "old.json", old)
        code = main(fill(argv, artifacts, tmp_path, target))
        assert_usage_error(
            code, capsys,
            f"not a {kind} file (format='snarkpipe-{kind}/{version}';"
            f" this version reads 'snarkpipe-{kind}/3')",
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inputs.json", "old.json"]


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


# --- command-line parsing ---------------------------------------------------------

DEFAULT_P = 18446744069414584321

# argv -> vars(namespace), recorded from the single argparse parser with one
# subparser per command that the two-stage parse replaced. Only `field`
# differs: it is now the parsed int rather than its decimal string.
NAMESPACES = [
    (["compile", "coloring5"],
     {"field": DEFAULT_P, "seed": None, "command": "compile", "source": "coloring5",
      "output": "circuit.json", "emit_qap": None}),
    (["compile", "src.zkp", "-o", "c.json", "--emit-qap"],
     {"field": DEFAULT_P, "seed": None, "command": "compile", "source": "src.zkp",
      "output": "c.json", "emit_qap": "qap.json"}),
    (["compile", "src.zkp", "--emit-qap", "-o", "c.json"],
     {"field": DEFAULT_P, "seed": None, "command": "compile", "source": "src.zkp",
      "output": "c.json", "emit_qap": "qap.json"}),
    (["compile", "src.zkp", "--emit-qap", "q.json", "--output", "c.json"],
     {"field": DEFAULT_P, "seed": None, "command": "compile", "source": "src.zkp",
      "output": "c.json", "emit_qap": "q.json"}),
    (["compile", "--", "-x.zkp"],
     {"field": DEFAULT_P, "seed": None, "command": "compile", "source": "-x.zkp",
      "output": "circuit.json", "emit_qap": None}),
    (["setup"],
     {"field": DEFAULT_P, "seed": None, "command": "setup", "circuit": "circuit.json",
      "public": "one", "evaluation_key": "evaluation_key.json",
      "verification_key": "verification_key.json"}),
    (["--seed", "01", "setup", "--circuit", "c.json", "--public", "one,out",
      "--evaluation-key", "ek.json", "--verification-key", "vk.json"],
     {"field": DEFAULT_P, "seed": "01", "command": "setup", "circuit": "c.json",
      "public": "one,out", "evaluation_key": "ek.json", "verification_key": "vk.json"}),
    (["prove", "--inputs", "in.json"],
     {"field": DEFAULT_P, "seed": None, "command": "prove", "circuit": "circuit.json",
      "evaluation_key": "evaluation_key.json", "inputs": "in.json",
      "output": "witness_key.json"}),
    (["prove", "--circuit", "c.json", "--evaluation-key", "ek.json", "--inputs", "in.json",
      "-o", "wk.json"],
     {"field": DEFAULT_P, "seed": None, "command": "prove", "circuit": "c.json",
      "evaluation_key": "ek.json", "inputs": "in.json", "output": "wk.json"}),
    (["verify"],
     {"field": DEFAULT_P, "seed": None, "command": "verify",
      "verification_key": "verification_key.json", "witness_key": "witness_key.json",
      "public_inputs": None}),
    (["verify", "--verification-key", "vk.json", "--witness-key", "wk.json",
      "--public-inputs", "pub.json"],
     {"field": DEFAULT_P, "seed": None, "command": "verify", "verification_key": "vk.json",
      "witness_key": "wk.json", "public_inputs": "pub.json"}),
    (["interactive", "--problem", "triangle"],
     {"field": DEFAULT_P, "seed": None, "command": "interactive", "problem": "triangle",
      "rounds": 10, "cheat": False, "repeat": 1, "transcript": None}),
    (["interactive", "--problem", "p.json", "--rounds", "3", "--cheat", "--repeat", "40"],
     {"field": DEFAULT_P, "seed": None, "command": "interactive", "problem": "p.json",
      "rounds": 3, "cheat": True, "repeat": 40, "transcript": None}),
    (["interactive", "--problem", "p.json", "--transcript", "t.json"],
     {"field": DEFAULT_P, "seed": None, "command": "interactive", "problem": "p.json",
      "rounds": 10, "cheat": False, "repeat": 1, "transcript": "t.json"}),
    (["selftest"],
     {"field": DEFAULT_P, "seed": None, "command": "selftest"}),
    (["--field", "101", "--seed", "0a", "selftest"],
     {"field": 101, "seed": "0a", "command": "selftest"}),
    (["--field", "101", "compile", "cubic"],
     {"field": 101, "seed": None, "command": "compile", "source": "cubic",
      "output": "circuit.json", "emit_qap": None}),
    (["compile", "cubic", "--field", "101", "--seed", "0b"],
     {"field": 101, "seed": "0b", "command": "compile", "source": "cubic",
      "output": "circuit.json", "emit_qap": None}),
    (["--field", "101", "--seed", "01", "verify", "--field", "103", "--seed", "02"],
     {"field": 103, "seed": "02", "command": "verify",
      "verification_key": "verification_key.json", "witness_key": "witness_key.json",
      "public_inputs": None}),
    (["--seed", "01", "--field", "97", "prove", "--inputs", "i.json", "--seed", "02"],
     {"field": 97, "seed": "02", "command": "prove", "circuit": "circuit.json",
      "evaluation_key": "evaluation_key.json", "inputs": "i.json",
      "output": "witness_key.json"}),
    (["--seed", "01", "interactive", "--seed", "02", "--problem", "triangle"],
     {"field": DEFAULT_P, "seed": "02", "command": "interactive", "problem": "triangle",
      "rounds": 10, "cheat": False, "repeat": 1, "transcript": None}),
    (["--field=97", "setup", "--seed=ff"],
     {"field": 97, "seed": "ff", "command": "setup", "circuit": "circuit.json",
      "public": "one", "evaluation_key": "evaluation_key.json",
      "verification_key": "verification_key.json"}),
]


@pytest.mark.parametrize(
    "argv, expected", NAMESPACES, ids=[" ".join(argv) for argv, _ in NAMESPACES]
)
def test_parse_args_namespace(argv, expected):
    assert vars(parse_args(argv)) == expected


# The smallest argv each command accepts.
MINIMAL_ARGV = {
    "compile": ["compile", "cubic"],
    "setup": ["setup"],
    "prove": ["prove", "--inputs", "in.json"],
    "verify": ["verify"],
    "interactive": ["interactive", "--problem", "triangle"],
    "selftest": ["selftest"],
}


def test_each_run_builds_only_the_parsers_it_reads(monkeypatch):
    assert sorted(MINIMAL_ARGV) == sorted(cli._COMMANDS)
    built = []

    class CountingParser(usage.Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(usage, "Parser", CountingParser)
    for name, argv in MINIMAL_ARGV.items():
        _, summary, flags = cli._COMMANDS[name]
        monkeypatch.setitem(cli._COMMANDS, name, (lambda args: 0, summary, flags))
        # The reader takes a plain line, global flags before the command
        # included, and builds no parser. An "=" form is argparse's: the
        # top-level parser reads the global flags and the command name, then
        # the command's parser reads the rest.
        for line, progs in [
            (argv, []),
            (["--seed", "01", *argv], []),
            ([*argv, "--seed=01"], ["snarkpipe", f"snarkpipe {name}"]),
            (["--seed=01", *argv], ["snarkpipe", f"snarkpipe {name}"]),
        ]:
            for _ in range(2):  # nothing built is kept for the next run
                built.clear()
                assert main(line) == 0
                assert [parser.prog for parser in built] == progs
                assert sum(len(parser._actions) for parser in built) <= 13


def two_stage_parse(argv):
    """The parse of every command line before the top-level parser was
    skipped: that parser first, then the command's, whatever comes first."""
    parser = cli.build_parser()
    args, extras = parser.parse_known_args(argv)
    args.command, *rest = args.command
    args, more = cli._command_parser(args.command).parse_known_args(rest, args)
    if extras or more:
        parser.error(f"unrecognized arguments: {' '.join(extras + more)}")
    return args


def parse_outcome(parse, argv, capsys):
    """The namespace or exit code of one parse, with what it printed."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


COMMAND_FIRST_ARGV = [
    *([name] for name in sorted(cli._COMMANDS)),
    *([name, "-h"] for name in sorted(cli._COMMANDS)),
    ["verify", "--help", "--bogus"],
    ["verify", "--witness-key", "wk.json", "--seed", "01", "--field", "97"],
    ["setup", "--field=97"],
    ["setup", "--fi", "97", "--se", "0a"],
    ["setup", "--field", "abc"],
    ["compile", "--", "-x.zkp"],
    ["compile", "cubic", "--", "--field"],
    ["compile", "cubic", "--emit-qap", "--", "-o"],
    ["verify", "--bogus"],
    ["verify", "--bogus", "x", "--seed", "01"],
    ["compile", "cubic", "extra"],
    ["compile", "cubic", "--", "--bogus"],
    ["interactive", "--problem"],
    ["interactive", "--problem", "triangle", "--rounds", "x"],
    ["prove", "--inputs", "in.json", "-o"],
    ["selftest", "--field", "101", "--seed", "0b"],
    ["selftest", "--seed", "-1"],
]


@pytest.mark.parametrize("argv", COMMAND_FIRST_ARGV, ids=" ".join)
def test_command_first_parse_matches_the_two_stage_parse(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert parse_outcome(parse_args, argv, capsys) == parse_outcome(
        two_stage_parse, argv, capsys
    )


# --- the reader against argparse ---------------------------------------------

# Every option string of the table, and strings argparse reads but the reader
# leaves to it: help, "--", abbreviations, "=" forms, attached values and
# unknown options.
TABLE_OPTIONS = sorted(
    {option for flag in cli._GLOBAL_FLAGS for option in flag.options}
    | {option for _, _, flags in cli._COMMANDS.values() for f in flags for option in f.options}
)
ARGPARSE_OPTIONS = [
    "-h", "--help", "--", "--fi", "--se", "--out", "--emit", "--verif", "--wit", "--pub",
    "--ch", "--rep", "--rou", "--tr", "--prob", "--inp", "--circ", "--eval",
    "--seed=0a", "--field=97", "--rounds=3", "-oc.json", "--emit-qap=q.json", "--bogus", "-x",
]
# Values: plain ones, decimals canonical or not, "-"-prefixed and negative
# ones, empty strings and command names.
VALUES = [
    "01", "97", "3", "c.json", "cubic", "0a", "0101", "+101", "1_01", " 1", "", " ",
    "-1", "-x.zkp", "-", *cli._COMMANDS,
]


# What each command needs besides its defaults.
REQUIRED = {"compile": ["cubic"], "prove": ["--inputs", "in.json"],
            "interactive": ["--problem", "triangle"]}


def edited(argv, edits):
    """argv with each (kind, position, string) edit applied in turn."""
    argv = list(argv)
    for kind, at, string in edits:
        at %= len(argv) + 1
        if kind == "insert":
            argv.insert(at, string)
        elif at < len(argv):
            if kind == "replace":
                argv[at] = string
            else:
                del argv[at]
    return argv


def command_lines(st):
    """(plain, argv): a plain line, which the reader must read, or one with
    one to three strings inserted, replaced or deleted, which it may leave
    to argparse. A plain line has global flag pairs, the command, what it
    requires, then its own options and the global ones, each with a value
    of its kind, and its switches."""

    def plain(name):
        _, _, flags = cli._COMMANDS[name]
        decimal = st.sampled_from(["1", "3", "97", "101"])
        text = st.sampled_from(["01", "97", "c.json", "triangle", "cubic", "", " "])

        def given(flag):
            if flag.kind == cli.SWITCH:
                return st.just(flag.options[-1:])
            return st.tuples(st.sampled_from(flag.options),
                             decimal if flag.kind == cli.DECIMAL else text)

        before = st.one_of([given(flag) for flag in cli._GLOBAL_FLAGS])
        after = st.one_of([given(f) for f in cli._GLOBAL_FLAGS + flags
                           if f.options and f.kind != cli.OPTIONAL])
        return st.builds(
            lambda pairs, rest: [s for pair in pairs for s in pair] + [name]
            + REQUIRED.get(name, []) + [s for item in rest for s in item],
            st.lists(before, max_size=2), st.lists(after, max_size=4),
        )

    noise = st.one_of([st.sampled_from(TABLE_OPTIONS), st.sampled_from(ARGPARSE_OPTIONS),
                       st.sampled_from(VALUES)])
    edit = st.tuples(st.sampled_from(["insert", "replace", "delete"]), st.integers(0, 15), noise)
    lines = [plain(name) for name in sorted(cli._COMMANDS)]
    return st.one_of(
        [line.map(lambda argv: (True, argv)) for line in lines]
        + [st.builds(lambda argv, edits: (False, edited(argv, edits)),
                     line, st.lists(edit, min_size=1, max_size=3)) for line in lines]
    )


def quiet_two_stage_parse(argv):
    """vars() of the two-stage argparse parse, or its exit code; its help and
    usage texts go nowhere."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(two_stage_parse(argv))
        except SystemExit as exc:
            return exc.code


def test_reader_returns_nothing_or_the_argparse_namespace():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=1000, database=None)
    @hypothesis.given(line=command_lines(st))
    # a bare --emit-qap before compile's one positional, and "-"-prefixed values
    @hypothesis.example(line=(False, ["compile", "--emit-qap", "cubic"]))
    @hypothesis.example(line=(False, ["--seed", "-x", "verify"]))
    @hypothesis.example(line=(False, ["verify", "--witness-key", "-o"]))
    def check(line):
        plain, argv = line
        args = cli._read_command_line(list(argv))
        assert args is not None or not plain
        if args is not None:
            assert vars(args) == quiet_two_stage_parse(argv)

    check()


def readme_command_lines():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    return [
        shlex.split(line.split(" #")[0])[1:] for line in lines if line.startswith("snarkpipe ")
    ]


def test_readme_command_lines_are_read_by_the_reader():
    argvs = readme_command_lines()
    assert len(argvs) >= 9
    for argv in argvs:
        if "--emit-qap" in argv:  # an optional value is argparse's to read
            assert cli._read_command_line(argv) is None
            continue
        assert vars(cli._read_command_line(argv)) == quiet_two_stage_parse(argv), argv


def test_benchmark_command_lines_are_read_by_the_reader(tmp_path, monkeypatch):
    """One pass of perfbench's coloring5 workload, each command line taken
    as perfbench passes it, the cold verify's included."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts perfbench first
    spec = importlib.util.spec_from_file_location("perfbench_run", perfbench / "run.py")
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
    finally:  # the names run.py imports its neighbours under
        for name in ("workloads", "tracer"):
            sys.modules.pop(name, None)
    monkeypatch.setattr(run, "OUT", tmp_path)

    lines = []

    def recording_main(argv):
        lines.append(list(argv))
        return main(argv)

    def recording_run(argv, **kwargs):
        lines.append(argv[3:])  # python -m snarkpipe.cli ...
        return real_run(argv, **kwargs)

    real_run = subprocess.run
    monkeypatch.setattr(run.subprocess, "run", recording_run)
    package = SimpleNamespace(cli=SimpleNamespace(main=recording_main), bundled=bundled,
                              field=field, frontend=frontend)
    bench = run.Bench(run.wl.WORKLOADS["coloring5"], 1, package)
    try:
        bench.run_pass(0, defaultdict(list))
    finally:
        bench.close()
    assert bench.failures == []
    commands = {next(arg for arg in argv if arg in cli._COMMANDS) for argv in lines}
    assert commands == {"compile", "setup", "prove", "verify", "interactive"}
    for argv in lines:
        args = cli._read_command_line(argv)
        assert args is not None and vars(args) == quiet_two_stage_parse(argv), argv


USAGE_ERRORS = {
    "no_command": ([], "snarkpipe: error: the following arguments are required: command"),
    "unknown_command": (["bogus"], "snarkpipe: error: argument command: invalid choice: 'bogus'"),
    "prove_without_inputs": (
        ["prove"], "snarkpipe prove: error: the following arguments are required: --inputs"
    ),
    "unknown_flag_before": (
        ["--bogus", "verify"], "snarkpipe: error: unrecognized arguments: --bogus"
    ),
    "unknown_flag_after": (
        ["verify", "--bogus"], "snarkpipe: error: unrecognized arguments: --bogus"
    ),
    "unknown_arguments_both_sides": (
        ["--bogus", "verify", "--zap", "x"],
        "snarkpipe: error: unrecognized arguments: --bogus --zap x",
    ),
    "rounds_not_an_int": (
        ["interactive", "--problem", "triangle", "--rounds", "x"],
        "snarkpipe interactive: error: argument --rounds: not a canonical decimal: 'x'",
    ),
    "field_not_a_decimal": (
        ["--field", "abc", "verify"],
        "snarkpipe: error: argument --field: not a canonical decimal: 'abc'",
    ),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_names_its_parser(workdir, capsys, case):
    argv, message = USAGE_ERRORS[case]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    lines = capsys.readouterr().err.splitlines()
    prog = message.split(": error:")[0]
    assert lines[0].startswith(f"usage: {prog} [-h]")
    assert lines[-1].startswith(message)
    assert os.listdir(workdir) == []


@pytest.mark.parametrize("where", ["before", "after"])
@pytest.mark.parametrize("spelling", ["1_01", " 101", "+101", "0101", "abc"])
def test_field_takes_one_canonical_decimal(workdir, capsys, spelling, where):
    flag = ["--field", spelling]
    argv = flag + ["compile", "cubic"] if where == "before" else ["compile", "cubic"] + flag
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    prog = "snarkpipe" if where == "before" else "snarkpipe compile"
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"{prog}: error: argument --field: ")
    assert last.endswith(repr(spelling))
    assert os.listdir(workdir) == []


@pytest.mark.parametrize("flag", ["--rounds", "--repeat"])
@pytest.mark.parametrize("spelling", ["1_0", "+10", " 10", "010", "10.0", "-1", ""])
def test_session_counts_take_one_canonical_decimal(workdir, capsys, flag, spelling):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "01", "interactive", "--problem", "triangle", flag, spelling])
    assert exc.value.code == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == (
        f"snarkpipe interactive: error: argument {flag}: not a canonical decimal: {spelling!r}"
    )
    assert os.listdir(workdir) == []


@pytest.mark.parametrize("flag", ["--rounds", "--repeat"])
def test_session_counts_below_one_are_refused_after_parsing(workdir, capsys, flag):
    code = main(["--seed", "01", "interactive", "--problem", "triangle", flag, "0"])
    assert_usage_error(code, capsys, f"error: {flag} must be at least 1")
    assert os.listdir(workdir) == []


def test_field_is_not_checked_for_primality_while_parsing():
    assert parse_args(["--field", "100", "verify"]).field == 100


COMMAND_HELP = {
    "compile": "compile a .zkp source file into a circuit",
    "setup": "run the trusted setup for a circuit",
    "prove": "produce a witness key from inputs",
    "verify": "check a witness key",
    "interactive": "run the commit-and-reveal protocol",
    "selftest": "run the bundled pipeline and quick checks",
}


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: snarkpipe [-h] [--field DECIMAL] [--seed HEX]")
    for name, summary in COMMAND_HELP.items():
        assert re.search(rf"^  {name} +{re.escape(summary)}$", out, re.MULTILINE), name


VERIFY_HELP = """\
usage: snarkpipe verify [-h] [--field DECIMAL] [--seed HEX]
                        [--verification-key VERIFICATION_KEY]
                        [--witness-key WITNESS_KEY]
                        [--public-inputs PUBLIC_INPUTS]

options:
  -h, --help            show this help message and exit
  --field DECIMAL       prime modulus (decimal); default 2^64 - 2^32 + 1
  --seed HEX            hex seed for all randomized steps (default: fresh
                        entropy)
  --verification-key VERIFICATION_KEY
  --witness-key WITNESS_KEY
  --public-inputs PUBLIC_INPUTS
                        JSON file mapping public symbol names to decimals
"""


def test_command_help_shows_only_its_own_arguments(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--witness-key" in out
    assert "--inputs" not in out
    # Python 3.10 titles the section "optional arguments".
    assert out.replace("optional arguments:", "options:") == VERIFY_HELP


def test_cold_command_help_is_argparse_text(tmp_path):
    # A fresh interpreter loads argparse only on this route; the text is the
    # same as in process.
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "snarkpipe.cli", "verify", "--help"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, COLUMNS="80", PYTHONPATH=str(Path(cli.__file__).parents[1])),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.replace("optional arguments:", "options:") == VERIFY_HELP


# --- hostile values are quoted in part ------------------------------------------

LONG = "y" * 5000


def assert_one_short_line(code, capsys, name):
    """Exit 1 with one stderr line under 200 characters naming the entry."""
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and len(err) < 200, err[:300]
    assert name in err


def prove_with_inputs(artifacts, tmp_path, inputs):
    return main([
        "prove", "--circuit", artifacts["circuit"][0],
        "--evaluation-key", artifacts["ek"][0],
        "--inputs", write_json(tmp_path / "inputs.json", inputs),
        "-o", str(tmp_path / "wk.json"),
    ])


@pytest.mark.parametrize(
    "inputs, name",
    [
        ({**GOOD_INPUTS, "c1": LONG}, "input 'c1' must be an integer"),
        ({**GOOD_INPUTS, LONG: 3.0}, "input 'yyyy"),
        ({**GOOD_INPUTS, LONG: "1"}, "unexpected inputs: 'yyyy"),
        ({**GOOD_INPUTS, **{f"{LONG}{i}": "1" for i in range(3)}}, "unexpected inputs: "),
    ],
    ids=["value", "name", "unexpected_name", "unexpected_names"],
)
def test_prove_quotes_hostile_inputs(artifacts, tmp_path, capsys, inputs, name):
    code = prove_with_inputs(artifacts, tmp_path, inputs)
    assert_one_short_line(code, capsys, name)
    assert not (tmp_path / "wk.json").exists()


DIGITS = "1" * 5000  # past the interpreter's 4300-digit limit on int(str)
DIGIT_LIMIT = "Exceeds the limit (4300"  # 3.10 omits the word "digits"
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this interpreter has no digit limit"
)


def with_integer(data, key) -> str:
    """The JSON text of data with DIGITS, a bare JSON integer, at key."""
    return json.dumps({**data, key: "@"}).replace('"@"', DIGITS)


@needs_digit_limit
@pytest.mark.parametrize("case", ["inputs_integer", "inputs_string", "problem", "witness_key"])
def test_integer_past_the_digit_limit_is_refused_by_name(artifacts, workdir, capsys, case):
    # A JSON integer fails in the JSON parser and names the file; a decimal
    # string fails in the inputs map and names the input.
    prove = ["prove", "--circuit", artifacts["circuit"][0],
             "--evaluation-key", artifacts["ek"][0], "--inputs", "in.json", "-o", "wk.json"]
    if case == "inputs_integer":
        (workdir / "in.json").write_text(with_integer(GOOD_INPUTS, "c1"))
        argv, name = prove, f"bad JSON input: in.json: {DIGIT_LIMIT}"
    elif case == "inputs_string":
        write_json(workdir / "in.json", {**GOOD_INPUTS, "c1": DIGITS})
        argv, name = prove, f"error: input 'c1': {DIGIT_LIMIT}"
    elif case == "problem":
        (workdir / "p.json").write_text(with_integer(SAT_DEMO, "variables"))
        argv, name = ["interactive", "--problem", "p.json"], f"bad JSON input: p.json: {DIGIT_LIMIT}"
    else:
        (workdir / "wk.json").write_text(with_integer(artifacts["wk"][1], "h"))
        argv = ["verify", "--verification-key", artifacts["vk"][0], "--witness-key", "wk.json"]
        name = f"bad JSON input: wk.json: {DIGIT_LIMIT}"
    before = sorted(os.listdir(workdir))
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith(name) and err.count("\n") == 1 and len(err) < 200, err[:300]
    assert sorted(os.listdir(workdir)) == before


def test_short_input_lists_are_named_whole(artifacts, tmp_path, capsys):
    inputs = {**GOOD_INPUTS, "zz": "1"}
    del inputs["c2"]
    code = prove_with_inputs(artifacts, tmp_path, inputs)
    assert_one_short_line(code, capsys, "error: missing inputs: 'c2'; unexpected inputs: 'zz'")


def test_numeric_flag_quotes_a_hostile_value(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--field", LONG, "verify"])
    assert exc.value.code == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1].startswith("snarkpipe: error: argument --field: not a canonical decimal")
    assert "(5000 characters)" in lines[-1]
    assert max(map(len, lines)) < 200


def test_seed_quotes_a_hostile_value(workdir, capsys):
    # The seed is parsed before anything is read, so no circuit or problem
    # is needed.
    for argv in [["setup"], ["interactive", "--problem", "triangle"], ["selftest"]]:
        code = main(["--seed", LONG, *argv])
        assert_one_short_line(code, capsys, "error: seed must be hexadecimal, got 'yyyy")
    assert os.listdir(workdir) == []


def test_public_quotes_a_hostile_name(workdir, capsys):
    assert main(["compile", "cubic"]) == 0
    capsys.readouterr()
    code = main(["--seed", "01", "setup", "--public", LONG])
    assert_one_short_line(code, capsys, "error: public symbol 'yyyy")


HOSTILE_CIRCUIT_EDITS = {
    "wire_kind": (lambda d: d["wires"][1].update(kind=LONG), "wire 1 has unknown kind"),
    "gate_op": (lambda d: d["gates"][0].update(op=LONG), "gate 1 has unknown op"),
    "gate_index": (lambda d: d["gates"][0].update(d=LONG), "gate 1 must have d=1"),
    "gate_out": (lambda d: d["gates"][0].update(o=LONG), "gate 1 'o' must be a wire id"),
    "output_wire": (lambda d: d["outputs"][0].update(wire=LONG), "output 0 must be a wire id"),
    "output_rel": (lambda d: d["outputs"][0].update(rel=LONG), "output 0 'rel' must be one of"),
    "output_rel_array": (lambda d: d["outputs"][0].update(rel=[LONG]), "output 0 'rel'"),
    "name": (lambda d: d["names"].update({LONG: LONG}), "name 'yyyy"),
    "input": (lambda d: d["inputs"].append(LONG), "input 'yyyy"),
    # each wire kind takes only its own keys, gates and outputs only theirs
    "gate_wire_value": (
        lambda d: d["wires"][first_gate(d)].update(value="5"), "takes no key 'value'"
    ),
    "gate_wire_name": (
        lambda d: d["wires"][first_gate(d)].update(name="zzz"), "takes no key 'name'"
    ),
    "gate_wire_of": (lambda d: d["wires"][first_gate(d)].update(of=1), "takes no key 'of'"),
    "input_wire_value": (lambda d: d["wires"][1].update(value="7"), "wire 1 of kind 'input'"),
    "const_wire_name": (
        lambda d: d["wires"][first_const(d)].update(name="zzz"), "takes no key 'name'"
    ),
    "wire_key": (lambda d: d["wires"][0].update({LONG: 1}), "wire 0 of kind 'one' takes no key"),
    "gate_key": (lambda d: d["gates"][0].update({LONG: 1}), "gate 1 takes no key 'yyyy"),
    "output_key": (lambda d: d["outputs"][0].update({LONG: 1}), "output 0 takes no key 'yyyy"),
    # a gate drives a gate wire or a pinned constant, nothing else
    "gate_drives_input": (drive_input, "gate 1 drives wire 7 of kind 'input'"),
    "gate_drives_inverse": (
        lambda d: d["wires"].__setitem__(d["gates"][0]["o"], {"kind": "inverse", "of": 1}),
        "gate 1 drives wire 7 of kind 'inverse'",
    ),
    "top_level_key": (lambda d: d.update({LONG: 1}), "circuit file takes no key 'yyyy"),
}


@pytest.mark.parametrize("edit", sorted(HOSTILE_CIRCUIT_EDITS))
def test_setup_quotes_hostile_circuit_values(artifacts, tmp_path, capsys, edit):
    change, name = HOSTILE_CIRCUIT_EDITS[edit]
    data = mutate_circuit(artifacts["circuit"][1], change)
    code = main([
        "--seed", "01", "setup", "--circuit", write_json(tmp_path / "c.json", data),
        "--evaluation-key", str(tmp_path / "ek.json"),
        "--verification-key", str(tmp_path / "vk.json"),
    ])
    assert_one_short_line(code, capsys, name)
    assert not (tmp_path / "ek.json").exists()


@pytest.mark.parametrize(
    "problem, name",
    [
        ({"type": LONG}, "unknown problem type 'yyyy"),
        ({**TRIANGLE, "adjacency": LONG}, "adjacency must be an array"),
        ({**TRIANGLE, "adjacency": [[LONG]]}, "adjacency row 0 must be an array"),
        ({**TRIANGLE, "cycle": [LONG]}, "cycle must be an array"),
        ({**SAT_DEMO, "variables": LONG}, "variables must be a JSON integer"),
        ({**SAT_DEMO, "clauses": [[1, 2, LONG]]}, "clause 0 must be an array"),
        ({**TRIANGLE, LONG: 1}, "hamiltonian-cycle problem file takes no key 'yyyy"),
    ],
    ids=["type", "adjacency", "adjacency_row", "cycle", "variables", "clause", "key"],
)
def test_interactive_quotes_hostile_problem_values(workdir, capsys, problem, name):
    path = write_json(workdir / "problem.json", problem)
    code = main(["--seed", "01", "interactive", "--problem", path])
    assert_one_short_line(code, capsys, name)
    assert not (workdir / "transcript.json").exists()


# A composite modulus in each artifact header, and the command that reads it.
COMPOSITE_HEADER = {
    "circuit": ["setup", "--circuit", "{f}", "--evaluation-key", "{o}/ek.json",
                "--verification-key", "{o}/vk.json"],
    "ek": ["prove", "--circuit", "{circuit}", "--evaluation-key", "{f}",
           "--inputs", "{inputs}", "-o", "{o}/wk.json"],
    "vk": ["verify", "--verification-key", "{f}", "--witness-key", "{wk}"],
    "wk": ["verify", "--verification-key", "{vk}", "--witness-key", "{f}"],
}


@pytest.mark.parametrize("p", [2**61 + 1, (2**61 - 1) * 3, 2**64 - 2**32 + 3])
@pytest.mark.parametrize("name", sorted(COMPOSITE_HEADER))
def test_composite_modulus_in_a_header_is_refused(artifacts, tmp_path, capsys, name, p):
    data = {**artifacts[name][1], "field": {"p": str(p)}}
    target = write_json(tmp_path / "composite.json", data)
    code = main(fill(COMPOSITE_HEADER[name], artifacts, tmp_path, target))
    assert_one_short_line(code, capsys, f"modulus {p} is not prime")
    assert sorted(os.listdir(tmp_path)) == ["composite.json", "inputs.json"]
