"""The benchmark tracer wraps program functions by name from outside the
package; renaming one of them must fail here rather than in a benchmark run."""

import importlib
import importlib.util
import json
from pathlib import Path

from snarkpipe.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    # installed() raises MissingTarget when a wrapped name no longer exists.
    with load_tracer().Tracer().installed():
        pass


# The pipeline stages the tracer wraps in the CLI's and the prover's module
# globals; a command that imported its own copy would skip the span silently.
STAGE_CALL_SITES = (
    ("snarkpipe.cli", "parse_program"),
    ("snarkpipe.cli", "flatten"),
    ("snarkpipe.cli", "solve"),
    ("snarkpipe.cli", "build_qap"),
    ("snarkpipe.pinocchio", "assemble"),
)


def test_commands_call_stages_through_module_globals(tmp_path, monkeypatch):
    called = set()

    def recording(key, fn):
        def wrapper(*args, **kwargs):
            called.add(key)
            return fn(*args, **kwargs)

        return wrapper

    for module_name, attr in STAGE_CALL_SITES:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, recording(f"{module_name}.{attr}", vars(module)[attr]))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(json.dumps({"c1": 3, "c2": 1, "c3": 2, "c4": 1, "c5": 2}))
    assert main(["compile", "coloring5"]) == 0
    assert main(["--seed", "01", "setup"]) == 0
    assert main(["prove", "--inputs", "in.json"]) == 0
    assert called == {f"{m}.{a}" for m, a in STAGE_CALL_SITES}


def test_emit_qap_builds_its_basis_through_qap_module_global(tmp_path, monkeypatch):
    # The tracer's polynomial.lagrange_basis span wraps the name in qap's
    # globals; the emitted file must build its one basis through it.
    qap_module = importlib.import_module("snarkpipe.qap")
    calls = []
    original = vars(qap_module)["lagrange_basis"]

    def recording(ctx, nodes):
        calls.append(list(nodes))
        return original(ctx, nodes)

    monkeypatch.setattr(qap_module, "lagrange_basis", recording)
    monkeypatch.chdir(tmp_path)
    assert main(["compile", "coloring5", "--emit-qap", "q.json"]) == 0
    assert calls == [list(range(1, 70))]
    assert json.loads((tmp_path / "q.json").read_text())["n_gates"] == 69


def test_traced_prove_records_the_quotient_degree(tmp_path, monkeypatch):
    # The tracer's "quotient" mode reads .divisible and .h.degree from what
    # assemble returns; coloring5's H has degree N - 2 = 67.
    tracer = load_tracer().Tracer()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(json.dumps({"c1": 3, "c2": 1, "c3": 2, "c4": 1, "c5": 2}))
    with tracer.installed():
        assert main(["compile", "coloring5"]) == 0
        assert main(["--seed", "01", "setup"]) == 0
        assert main(["prove", "--inputs", "in.json"]) == 0
    assert tracer.deg_h == 67
    assert tracer.calls["qap.assemble"] == 1
