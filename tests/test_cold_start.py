"""Each command imports only what it runs: a cold verify loads the field,
group and key code and nothing of the compiler, prover or interactive
baseline, and the package facade imports a submodule only on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import snarkpipe
from snarkpipe.bundled import load_bundled_text
from snarkpipe.cli import main

SRC = str(Path(snarkpipe.__file__).resolve().parents[1])

# A plain command line is read from the CLI's flag table: argparse, with its
# gettext and locale lookups, is loaded only for help and usage errors.
NO_PARSER = ("argparse", "gettext", "locale", "snarkpipe.usage")

# Modules a verify has no use for; each cost a measurable share of a cold start.
NOT_ON_VERIFY_PATH = (
    "snarkpipe.frontend",
    "snarkpipe.circuit",
    "snarkpipe.qap",
    "snarkpipe.polynomial",
    "snarkpipe.interactive",
    "snarkpipe.rng",
    "dataclasses",
    "hashlib",
    "fractions",
    "importlib.resources",
    # argparse's own help formatter imports shutil for the terminal width
    "shutil",
    "zlib",
    "bz2",
    "lzma",
    "fnmatch",
    *NO_PARSER,
)


def run_clean(code: str, cwd) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter without ``site``, so that no
    ``.pth`` file imports anything before the program does."""
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=60,
    )


@pytest.fixture(scope="module")
def keys(tmp_path_factory):
    root = tmp_path_factory.mktemp("keys")
    paths = {name: str(root / f"{name}.json") for name in ("circuit", "ek", "vk", "wk", "in")}
    Path(paths["in"]).write_text(json.dumps({"c1": 3, "c2": 1, "c3": 2, "c4": 1, "c5": 2}))
    assert main(["compile", "coloring5", "-o", paths["circuit"]]) == 0
    assert main(["--seed", "0102", "setup", "--circuit", paths["circuit"],
                 "--evaluation-key", paths["ek"], "--verification-key", paths["vk"]]) == 0
    assert main(["prove", "--circuit", paths["circuit"], "--evaluation-key", paths["ek"],
                 "--inputs", paths["in"], "-o", paths["wk"]]) == 0
    return paths


def test_cold_verify_loads_only_field_group_and_key_code(keys, tmp_path):
    argv = ["verify", "--verification-key", keys["vk"], "--witness-key", keys["wk"]]
    proc = run_clean(
        "import json, sys\n"
        "from snarkpipe import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["checks: div=pass span=pass coeff=pass", "accept"]
    code, modules = json.loads(lines[-1])
    assert code == 0
    assert [name for name in NOT_ON_VERIFY_PATH if name in modules] == []
    assert {"snarkpipe.field", "snarkpipe.groups", "snarkpipe.pinocchio"} <= set(modules)


def cold_modules(argv, cwd) -> list:
    """The modules a fresh interpreter has loaded after ``cli.main(argv)``."""
    proc = run_clean(
        "import json, sys\n"
        "from snarkpipe import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n",
        cwd,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    return modules


# Loaded only for dataclass records, which no pipeline command has, or to
# parse a command line that is not plain.
NOT_ON_ANY_PIPELINE_PATH = ("dataclasses", "inspect", *NO_PARSER)
# Drawn on only by setup's trapdoor and the interactive baseline.
NOT_ON_COMPILE_OR_PROVE_PATH = ("fractions", "snarkpipe.rng", "hashlib")


def test_cold_compile_loads_no_dataclasses_or_rng(tmp_path):
    # A source file on disk; the bundled name's path is checked below.
    Path(tmp_path, "coloring5.zkp").write_text(load_bundled_text("coloring5.zkp"))
    modules = cold_modules(["compile", "coloring5.zkp", "-o", "circuit.json"], tmp_path)
    unwanted = NOT_ON_ANY_PIPELINE_PATH + NOT_ON_COMPILE_OR_PROVE_PATH
    assert [name for name in unwanted if name in modules] == []
    assert "snarkpipe.frontend" in modules and "snarkpipe.circuit" in modules


# importlib.resources pulls in pathlib, tempfile, zipfile and typing, and on
# Python 3.12 and later inspect; a bundled name is a file beside the package.
NOT_ON_BUNDLED_PATH = ("importlib.resources", "inspect", "zipfile", "tempfile")


@pytest.mark.parametrize("argv", [
    ["compile", "coloring5", "-o", "circuit.json"],
    ["--seed", "01", "interactive", "--problem", "triangle"],
], ids=["compile-coloring5", "interactive-triangle"])
def test_cold_bundled_name_loads_no_resource_machinery(argv, tmp_path):
    modules = cold_modules(argv, tmp_path)
    unwanted = NOT_ON_BUNDLED_PATH + NO_PARSER
    assert [name for name in unwanted if name in modules] == []
    assert "snarkpipe.bundled" in modules


def test_cold_setup_loads_no_dataclasses(keys, tmp_path):
    modules = cold_modules(
        ["--seed", "0102", "setup", "--circuit", keys["circuit"],
         "--evaluation-key", "ek.json", "--verification-key", "vk.json"],
        tmp_path,
    )
    assert [name for name in NOT_ON_ANY_PIPELINE_PATH if name in modules] == []
    assert Path(tmp_path, "ek.json").read_bytes() == Path(keys["ek"]).read_bytes()


def test_cold_prove_loads_no_dataclasses_or_rng(keys, tmp_path):
    modules = cold_modules(
        ["prove", "--circuit", keys["circuit"], "--evaluation-key", keys["ek"],
         "--inputs", keys["in"], "-o", "wk.json"],
        tmp_path,
    )
    unwanted = NOT_ON_ANY_PIPELINE_PATH + NOT_ON_COMPILE_OR_PROVE_PATH
    assert [name for name in unwanted if name in modules] == []
    assert Path(tmp_path, "wk.json").read_bytes() == Path(keys["wk"]).read_bytes()


def test_cold_argparse_route_still_parses(keys, tmp_path):
    # The "=" form is argparse's: it loads argparse and writes the same key.
    modules = cold_modules(
        ["setup", "--seed=0102", "--circuit", keys["circuit"],
         "--evaluation-key", "ek.json", "--verification-key", "vk.json"],
        tmp_path,
    )
    assert {"argparse", "snarkpipe.usage"} <= set(modules)
    assert Path(tmp_path, "ek.json").read_bytes() == Path(keys["ek"]).read_bytes()


def test_bare_package_import_loads_no_submodule(tmp_path):
    proc = run_clean(
        "import sys\n"
        "import snarkpipe\n"
        "print(sorted(m for m in sys.modules if m.startswith('snarkpipe.')))\n",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", snarkpipe.__all__)
def test_public_name_is_the_defining_modules_object(name):
    module = importlib.import_module(f"snarkpipe.{snarkpipe._EXPORTS[name]}")
    value = getattr(snarkpipe, name)
    assert value is vars(module)[name]
    assert getattr(value, "__module__", module.__name__) == module.__name__
    assert name in dir(snarkpipe)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        snarkpipe.no_such_name  # noqa: B018
    assert not hasattr(snarkpipe, "_no_such_private")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from snarkpipe import *", namespace)
    assert set(snarkpipe.__all__) <= set(namespace)
    assert namespace["verify"] is snarkpipe.pinocchio.verify


def test_polynomial_names_left_the_package_api():
    # Only --emit-qap and the prover's H still use these, through their
    # module, where they stay importable.
    from snarkpipe import polynomial

    for name in ("DuplicateNode", "Polynomial", "lagrange_basis"):
        assert name not in snarkpipe.__all__ and not hasattr(snarkpipe, name)
        assert name in polynomial.__all__ and hasattr(polynomial, name)
