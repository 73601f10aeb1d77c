"""Mutated artifacts never crash the CLI.

Every artifact a user hands the CLI is hostile input. Starting from valid
files (the bundled cubic circuit, both keys, a witness key, an inputs file
and the bundled problems), each example replaces one node with another JSON
value, deletes it, or re-encodes it under another JSON type, and runs the
command that reads the file. The run must end in exit 0, 1 or 2 and print
no traceback. An example that inserts a key into one JSON object must end
in exit 1, refused by name: each loader takes exactly its writer's keys.
"""

import contextlib
import copy
import io
import json
from functools import reduce

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from snarkpipe import pinocchio
from snarkpipe.bundled import load_bundled_text
from snarkpipe.circuit import Circuit
from snarkpipe.cli import main
from snarkpipe.field import _quote
from snarkpipe.interactive import HamiltonianCycleProblem, load_problem

VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)

# Each artifact and the command that reads it; {m} is the mutated file, {d}
# the directory of valid artifacts and {o} a scratch directory for outputs.
COMMANDS = {
    "circuit": ["setup", "--circuit", "{m}", "--evaluation-key", "{o}/ek.json",
                "--verification-key", "{o}/vk.json"],
    "ek": ["prove", "--circuit", "{d}/circuit.json", "--evaluation-key", "{m}",
           "--inputs", "{d}/inputs.json", "-o", "{o}/wk.json"],
    "vk": ["verify", "--verification-key", "{m}", "--witness-key", "{d}/wk.json"],
    "wk": ["verify", "--verification-key", "{d}/vk.json", "--witness-key", "{m}"],
    "inputs": ["prove", "--circuit", "{d}/circuit.json", "--evaluation-key",
               "{d}/ek.json", "--inputs", "{m}", "-o", "{o}/wk.json"],
    "sat_demo": ["interactive", "--problem", "{m}", "--rounds", "2",
                 "--transcript", "{o}/transcript.json"],
    "triangle": ["interactive", "--problem", "{m}", "--rounds", "2",
                 "--transcript", "{o}/transcript.json"],
}


def problem_to_dict(loaded) -> dict:
    """The one JSON form of a loaded problem and its solution. Problem files
    have no writer in the program, so this dump stands in for one."""
    problem, solution = loaded
    if isinstance(problem, HamiltonianCycleProblem):
        doc = {"type": "hamiltonian-cycle", "adjacency": [list(row) for row in problem.adjacency]}
        solution_key = "cycle"
    else:
        doc = {"type": "sat3", "variables": problem.n_vars,
               "clauses": [list(clause) for clause in problem.clauses]}
        solution_key = "assignment"
    if solution is not None:
        doc[solution_key] = list(solution)
    return doc


# Each artifact and its loader and dump (the writer's, or for a problem file
# the one above). An accepted file must be the one JSON value its loaded
# object dumps to, so that one object has exactly one accepted form.
ROUND_TRIPS = {
    "circuit": (Circuit.from_json_dict, Circuit.to_json_dict),
    "ek": (pinocchio.load_evaluation_key, pinocchio.evaluation_key_to_dict),
    "vk": (pinocchio.load_verification_key, pinocchio.verification_key_to_dict),
    "wk": (pinocchio.load_witness_key, pinocchio.witness_key_to_dict),
    "sat_demo": (load_problem, problem_to_dict),
    "triangle": (load_problem, problem_to_dict),
}


def assert_canonical(name, text) -> None:
    """If the loader of artifact `name` accepts the JSON text, dumping what it
    loaded gives back the same JSON value: true is not 1, 1.0 is not 1, and
    only the order of an object's keys may differ."""
    if name not in ROUND_TRIPS:
        return
    load, dump = ROUND_TRIPS[name]
    data = json.loads(text)
    try:
        loaded = load(data)
    except (KeyError, TypeError, ValueError):  # refused, as the CLI reports it
        return
    assert json.dumps(dump(loaded), sort_keys=True) == json.dumps(data, sort_keys=True)


def run_quietly(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Valid artifacts on disk and parsed, plus every node path of each."""
    d = tmp_path_factory.mktemp("valid")
    (d / "inputs.json").write_text('{"x": "3", "y": "35"}')
    (d / "sat_demo.json").write_text(load_bundled_text("sat_demo.json"))
    (d / "triangle.json").write_text(load_bundled_text("triangle.json"))
    steps = (
        ["compile", "cubic", "-o", f"{d}/circuit.json"],
        ["--seed", "5eed", "setup", "--circuit", f"{d}/circuit.json",
         "--evaluation-key", f"{d}/ek.json", "--verification-key", f"{d}/vk.json"],
        ["prove", "--circuit", f"{d}/circuit.json", "--evaluation-key", f"{d}/ek.json",
         "--inputs", f"{d}/inputs.json", "-o", f"{d}/wk.json"],
    )
    for argv in steps:
        assert run_quietly(argv)[0] == 0
    docs = {name: json.loads((d / f"{name}.json").read_text()) for name in COMMANDS}
    return d, tmp_path_factory.mktemp("out"), {
        name: (doc, list(node_paths(doc))) for name, doc in docs.items()
    }


def node_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from node_paths(child, prefix + (key,))


def node_at(doc, path):
    return reduce(lambda node, key: node[key], path, doc)


def retyped(node) -> list:
    """The node's content under other JSON types."""
    out = [[node], {"value": node}, json.dumps(node)]
    if isinstance(node, str) and node.removeprefix("-").isdigit():
        out.append(int(node))
    if type(node) is int:
        out.append(float(node))
    if type(node) is bool:
        out.append(int(node))
    return out


def mutate(doc, path, kind: str, value, choice):
    """doc with the node at path replaced by value, deleted, retyped (the
    choice-th other form), or, for an object, given value under the new key
    choice."""
    if kind == "insert":
        doc = copy.deepcopy(doc)
        node = node_at(doc, path)
        assert choice not in node
        node[choice] = value
        return doc
    if not path:
        return value if kind != "retype" else retyped(doc)[choice % 3]
    doc = copy.deepcopy(doc)
    parent = node_at(doc, path[:-1])
    key = path[-1]
    if kind == "delete":
        del parent[key]
    elif kind == "replace":
        parent[key] = value
    else:
        options = retyped(parent[key])
        parent[key] = options[choice % len(options)]
    return doc


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(data=st.data())
def test_mutated_artifact_ends_in_an_exit_code(artifacts, name, data):
    valid_dir, out_dir, docs = artifacts
    doc, paths = docs[name]
    mutated = mutate(
        doc,
        data.draw(st.sampled_from(paths), label="path"),
        data.draw(st.sampled_from(("replace", "delete", "retype")), label="kind"),
        # An arbitrary value, or another node of the same file: that one is
        # often well formed, so some files are accepted and must round-trip.
        data.draw(VALUES | st.sampled_from(paths).map(lambda p: node_at(doc, p)), label="value"),
        data.draw(st.integers(0, 4), label="choice"),
    )
    path = out_dir / f"mutated_{name}.json"
    path.write_text(json.dumps(mutated))
    assert_canonical(name, path.read_text())
    argv = ["--seed", "5eed"] + [
        arg.format(m=path, d=valid_dir, o=out_dir) for arg in COMMANDS[name]
    ]
    code, err = run_quietly(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# Objects whose keys are data, not a writer's: the circuit's map of source
# names to wires, where a new name may be legal, and an inputs file, where
# it is refused by its name, as an unexpected input or for its value.
DATA_KEYED = {"circuit": {("names",)}, "inputs": {()}}


def object_kind(path) -> tuple:
    """The path with each list index as "*": every gate of a circuit, say,
    is one kind of object, and its root, its field and its names others."""
    return tuple("*" if isinstance(key, int) else key for key in path)


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(data=st.data())
def test_inserted_key_is_refused_by_name(artifacts, name, data):
    valid_dir, out_dir, docs = artifacts
    doc, paths = docs[name]
    # Draw the kind of object first, then one object of that kind, so that
    # the few outputs of a circuit are drawn as often as its many wires.
    objects = [path for path in paths if isinstance(node_at(doc, path), dict)]
    kind = data.draw(st.sampled_from(sorted({object_kind(p) for p in objects})), label="kind")
    path = data.draw(
        st.sampled_from([p for p in objects if object_kind(p) == kind]), label="path"
    )
    node = node_at(doc, path)
    key = data.draw(st.text(max_size=4).filter(lambda key: key not in node), label="key")
    mutated = mutate(doc, path, "insert", data.draw(VALUES, label="value"), key)
    out = out_dir / f"inserted_{name}.json"
    out.write_text(json.dumps(mutated))
    assert_canonical(name, out.read_text())
    argv = ["--seed", "5eed"] + [
        arg.format(m=out, d=valid_dir, o=out_dir) for arg in COMMANDS[name]
    ]
    code, err = run_quietly(argv)
    assert "Traceback" not in err
    if name == "inputs":
        assert code == 1 and _quote(key) in err, err
    elif path in DATA_KEYED.get(name, ()):
        assert code in (0, 1, 2)
    else:
        assert code == 1, err
        assert f"takes no key {_quote(key)}" in err, err
