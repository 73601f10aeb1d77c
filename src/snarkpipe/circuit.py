"""Flatten programs into binary Plus/Times gate circuits and solve them.

Wires come in five kinds: the distinguished constant-one wire (always id 0),
named inputs, deduplicated constants, gate outputs, and inverse hints. Each
assertion becomes one extra Times gate whose output wire is a fresh pinned
constant, so that a wire assignment satisfies every gate equation if and
only if it also satisfies every asserted output condition:

    assert f != 0   ->   f * inv(f) = 1   (inv is a hint wire, solved as
                                           f^(p-2), which is 0 when f is 0)
    assert f == 0   ->   f * 1      = 0

A pinned output is a constant wire like any other: it carries no witness
value, so the QAP holds it to its constant through the one-wire.

Gate indices d run 1..N in topological order and count Plus and Times gates
alike, condition gates included.
"""

from __future__ import annotations

from collections import namedtuple

from .field import (
    MAX_GATES,
    FieldContext,
    _quote,
    json_bytes,
    parse_decimal,
    read_header,
    stray_key,
    write_header,
)
from .frontend import (
    Add,
    Constant,
    Expression,
    Mul,
    Neg,
    Pow,
    Program,
    Relation,
    Variable,
    reduce_constant,
    require_inputs,
)

__all__ = [
    "Circuit",
    "Gate",
    "IncompleteAssignment",
    "PLUS",
    "TIMES",
    "Wire",
    "WIRE_ONE",
    "check_solution",
    "flatten",
    "solve",
]

WIRE_ONE = 0
PLUS = "Plus"
TIMES = "Times"
# The keys a circuit file's entries take: a wire's depend on its kind.
WIRE_KEYS = {
    "one": frozenset({"kind"}),
    "input": frozenset({"kind", "name"}),
    "const": frozenset({"kind", "value"}),
    "gate": frozenset({"kind"}),
    "inverse": frozenset({"kind", "of"}),
}
CIRCUIT_KEYS = frozenset({"format", "field", "inputs", "names", "wires", "gates", "outputs"})
GATE_KEYS = frozenset({"op", "l", "r", "o", "d"})
OUTPUT_KEYS = frozenset({"wire", "rel"})
RELATIONS = {relation.value: relation for relation in Relation}  # by file spelling


class IncompleteAssignment(ValueError):
    """The assignment does not cover every wire of the circuit."""


Wire = namedtuple(
    "Wire",
    (
        "kind",  # one of the WIRE_KEYS
        "name",  # inputs only
        "value",  # consts only
        "of",  # inverse hints: the wire being inverted
    ),
    defaults=(None, None, None),
)

Gate = namedtuple(
    "Gate",
    (
        "op",  # PLUS or TIMES
        "left",
        "right",
        "out",
        "index",  # 1-based constraint index d
    ),
)


class Circuit:
    def __init__(
        self,
        ctx: FieldContext,
        wires: list,
        gates: list,
        outputs: list,
        inputs: list,
        names: dict | None = None,
    ):
        self.ctx = ctx
        self.wires = wires
        self.gates = gates
        self.outputs = outputs  # of (wire id, Relation)
        self.inputs = inputs  # declared input names, in order
        self.names = {} if names is None else names  # name -> wire id

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    def symbol_wires(self) -> list:
        """Wires that carry witness values, in id order: every wire but the
        constants. A constant wire, an operand or a condition gate's pinned
        output alike, folds onto the one-wire with its value."""
        return [i for i, wire in enumerate(self.wires) if wire.kind != "const"]

    def wire_labels(self, wire_ids) -> list:
        """Stable human-readable symbol names, one per wire id: the first
        name bound to the wire, or '@<id>', the '@' keeping synthesized
        labels out of the identifier namespace."""
        first_name: dict = {}
        for name, target in self.names.items():
            first_name.setdefault(target, name)
        labels = []
        for wire_id in wire_ids:
            wire = self.wires[wire_id]
            if wire.kind == "one":
                labels.append("one")
            elif wire.kind == "input":
                labels.append(wire.name)
            else:
                labels.append(first_name.get(wire_id, f"@{wire_id}"))
        return labels

    def to_json_dict(self) -> dict:
        wires = []
        for w in self.wires:
            entry: dict = {"kind": w.kind}
            if w.name is not None:
                entry["name"] = w.name
            if w.value is not None:
                entry["value"] = str(w.value)
            if w.of is not None:
                entry["of"] = w.of
            wires.append(entry)
        return {
            **write_header("circuit", self.ctx),
            "inputs": list(self.inputs),
            "names": dict(self.names),
            "wires": wires,
            "gates": [
                {"op": g.op, "l": g.left, "r": g.right, "o": g.out, "d": g.index}
                for g in self.gates
            ],
            "outputs": [
                {"wire": wire_id, "rel": rel.value} for wire_id, rel in self.outputs
            ],
        }

    @classmethod
    def from_json_dict(cls, data) -> "Circuit":
        """Load a circuit file, refusing with a ValueError that names the
        entry any structure flatten cannot produce: a bad header (see
        read_header), a key that the file or the entry's kind does not take,
        more than MAX_GATES gates, an unknown wire kind or op, a wire 0 that
        is not the one-wire or a one-wire elsewhere, a wire id out of range,
        an inverse hint whose 'of' is not an earlier input or gate wire, a
        gate that drives an input, inverse or one wire, an operand that is
        not an earlier wire than its gate's output, gate outputs that do not
        increase with d (so no wire is two gates' output), a gate index d
        other than the gate's 1-based position, a constant that is not a
        canonical decimal below p, a gate wire that no gate drives, or input
        wires other than the ones 'names' gives the declared inputs. Error
        text is built only for the check that fails."""
        ctx = read_header(data, "circuit")
        if not data.keys() <= CIRCUIT_KEYS:
            raise stray_key("circuit file", data, CIRCUIT_KEYS)
        entries = _objects(data, "wires")
        count = len(entries)
        if not count:
            raise ValueError("circuit 'wires' must start with the one-wire")

        wires = []
        for i, entry in enumerate(entries):
            kind = entry.get("kind")
            if not isinstance(kind, str) or kind not in WIRE_KEYS:
                raise ValueError(f"wire {i} has unknown kind {_quote(kind)}")
            if (kind == "one") != (i == WIRE_ONE):
                raise ValueError(f"wire {i} has kind {kind!r}; only wire 0 is the one-wire")
            if kind == "const":
                try:
                    value = parse_decimal(entry.get("value"), ctx.p)
                except ValueError as exc:  # "value ... is not a canonical decimal"
                    raise ValueError(f"wire {i} {exc}") from None
                wires.append(Wire(kind, None, value))
            elif kind == "input":
                wires.append(Wire(kind, entry.get("name")))
            elif kind == "inverse":
                of = entry.get("of")
                if type(of) is not int or not 0 <= of < count:
                    raise _not_wire_id(f"wire {i} 'of'", of, count)
                if of >= i or wires[of].kind not in ("input", "gate"):
                    # solve reads the value of 'of' before any gate uses the hint
                    raise ValueError(
                        f"wire {i} is an inverse hint of wire {of},"
                        " which is not an earlier input or gate wire"
                    )
                wires.append(Wire(kind, None, None, of))
            else:
                wires.append(Wire(kind))

        gate_entries = _objects(data, "gates")
        if len(gate_entries) > MAX_GATES:
            raise ValueError(
                f"circuit 'gates' must list at most {MAX_GATES} gates, not {len(gate_entries)}"
            )
        gates = []
        last = -1  # the previous gate's output wire
        for d, e in enumerate(gate_entries, 1):
            if not e.keys() <= GATE_KEYS:
                raise stray_key(f"gate {d}", e, GATE_KEYS)
            op, left, right, out = e.get("op"), e.get("l"), e.get("r"), e.get("o")
            if op not in (PLUS, TIMES):
                raise ValueError(f"gate {d} has unknown op {_quote(op)}")
            if type(e.get("d")) is not int or e["d"] != d:
                raise ValueError(f"gate {d} must have d={d}, not {_quote(e.get('d'))}")
            if type(out) is not int or not 0 <= out < count:
                raise _not_wire_id(f"gate {d} 'o'", out, count)
            if wires[out].kind not in ("gate", "const"):
                raise ValueError(
                    f"gate {d} drives wire {out} of kind {wires[out].kind!r};"
                    " a gate drives only a 'gate' or 'const' wire"
                )
            if type(left) is not int or not 0 <= left < out:
                raise _not_wire_id(f"gate {d} 'l'", left, out)
            if type(right) is not int or not 0 <= right < out:
                raise _not_wire_id(f"gate {d} 'r'", right, out)
            if out <= last:
                raise ValueError(f"gate {d} drives wire {out}, not one after gate {d - 1}'s")
            last = out
            gates.append(Gate(op, left, right, out, d))

        outputs = []
        for i, e in enumerate(_objects(data, "outputs")):
            if not e.keys() <= OUTPUT_KEYS:
                raise stray_key(f"output {i}", e, OUTPUT_KEYS)
            wire, rel = e.get("wire"), e.get("rel")
            if type(wire) is not int or not 0 <= wire < count:
                raise _not_wire_id(f"output {i}", wire, count)
            if not isinstance(rel, str) or rel not in RELATIONS:
                raise ValueError(
                    f"output {i} 'rel' must be one of {', '.join(RELATIONS)}, not {_quote(rel)}"
                )
            outputs.append((wire, RELATIONS[rel]))

        inputs, names = data["inputs"], data["names"]
        if not isinstance(inputs, list) or not all(isinstance(n, str) for n in inputs):
            raise ValueError("circuit 'inputs' must be an array of names")
        if not isinstance(names, dict):
            raise ValueError("circuit 'names' must be a JSON object")
        for name, wire in names.items():
            if type(wire) is not int or not 0 <= wire < count:
                raise _not_wire_id(f"name {_quote(name)}", wire, count)
        driven = {gate.out for gate in gates}
        input_wires = {names.get(name) for name in inputs}
        for i, (wire, entry) in enumerate(zip(wires, entries)):
            if wire.kind == "gate" and i not in driven:
                raise ValueError(f"wire {i} has kind 'gate' but no gate drives it")
            if wire.kind == "input" and i not in input_wires:
                raise ValueError(f"wire {i} is an input wire that no declared input names")
            if not entry.keys() <= WIRE_KEYS[wire.kind]:
                raise stray_key(f"wire {i} of kind {wire.kind!r}", entry, WIRE_KEYS[wire.kind])
        for name in inputs:
            i = names.get(name)
            if i is None or wires[i].kind != "input" or wires[i].name != name:
                raise ValueError(
                    f"input {_quote(name)} names wire {i}, not an input wire of that name"
                )
        return cls(ctx, wires, gates, outputs, inputs, dict(names))

    def to_json_bytes(self) -> bytes:
        return json_bytes(self.to_json_dict())


def _not_wire_id(where: str, value, below: int) -> ValueError:
    return ValueError(f"{where} must be a wire id below {below}, not {_quote(value)}")


def _objects(data: dict, key: str) -> list:
    items = data[key]
    if not isinstance(items, list) or not all(isinstance(e, dict) for e in items):
        raise ValueError(f"circuit {key!r} must be an array of JSON objects")
    return items


class _Builder:
    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self.wires = [Wire(kind="one")]
        self.gates: list = []
        self.const_cache: dict = {}
        self.warned: set = set()

    def new_wire(self, wire: Wire) -> int:
        self.wires.append(wire)
        return len(self.wires) - 1

    def const_wire(self, value: int) -> int:
        value %= self.ctx.p
        if value not in self.const_cache:
            self.const_cache[value] = self.new_wire(Wire(kind="const", value=value))
        return self.const_cache[value]

    def add_gate(self, op: str, left: int, right: int, pinned: int | None = None) -> int:
        # A condition gate pins its output to a fresh constant wire, created
        # here so that wire ids stay topological.
        out = self.new_wire(Wire("gate") if pinned is None else Wire("const", value=pinned))
        self.gates.append(Gate(op, left, right, out, len(self.gates) + 1))
        return out

    def lower(self, expr: Expression, env: dict) -> int:
        if isinstance(expr, Constant):
            return self.const_wire(reduce_constant(expr.value, self.ctx, self.warned))
        if isinstance(expr, Variable):
            return env[expr.name]
        if isinstance(expr, Neg):
            inner = self.lower(expr.operand, env)
            minus_one = self.const_wire(self.ctx.p - 1)
            return self.add_gate(TIMES, minus_one, inner)
        if isinstance(expr, Add):
            acc = self.lower(expr.terms[0], env)
            for term in expr.terms[1:]:
                acc = self.add_gate(PLUS, acc, self.lower(term, env))
            return acc
        if isinstance(expr, Mul):
            acc = self.lower(expr.factors[0], env)
            for factor in expr.factors[1:]:
                acc = self.add_gate(TIMES, acc, self.lower(factor, env))
            return acc
        if isinstance(expr, Pow):
            base = self.lower(expr.base, env)
            acc = base
            for _ in range(expr.exponent - 1):
                acc = self.add_gate(TIMES, acc, base)
            return acc
        raise TypeError(f"not an expression node: {expr!r}")


def flatten(program: Program, ctx: FieldContext) -> Circuit:
    """Deterministically lower a program to binary gates.

    N-ary sums and products associate left; Neg(x) becomes (p-1)*x; x^k
    becomes a chain of k-1 multiplications; assertions become condition
    gates as described in the module docstring.
    """
    builder = _Builder(ctx)
    env: dict = {}
    for name in program.inputs:
        env[name] = builder.new_wire(Wire(kind="input", name=name))
    names = dict(env)
    for name, expr in program.definitions:
        wire = builder.lower(expr, env)
        if builder.wires[wire].kind in ("const", "one"):
            # Keep every named output a gate output.
            wire = builder.add_gate(TIMES, wire, WIRE_ONE)
        env[name] = wire
        names[name] = wire
    outputs = []
    for name, relation in program.conditions:
        target = env[name]
        if relation is Relation.NOT_EQUAL_ZERO:
            inv = builder.new_wire(Wire(kind="inverse", of=target))
            builder.add_gate(TIMES, target, inv, pinned=1)
        else:
            builder.add_gate(TIMES, target, WIRE_ONE, pinned=0)
        outputs.append((target, relation))
    return Circuit(
        ctx=ctx,
        wires=builder.wires,
        gates=builder.gates,
        outputs=outputs,
        inputs=list(program.inputs),
        names=names,
    )


def _gate_value(gate: Gate, values: dict, p: int) -> int:
    """The value a gate's equation demands on its output wire."""
    if gate.op == TIMES:
        return values[gate.left] * values[gate.right] % p
    return (values[gate.left] + values[gate.right]) % p


def solve(circuit: Circuit, inputs: dict) -> dict:
    """Forward-evaluate the gates; returns a total wire -> residue map.

    Inverse hints are filled with source^(p-2), so an assignment always
    exists even when a condition fails; the corresponding condition gate is
    then simply unsatisfied.
    """
    p = circuit.ctx.p
    require_inputs(circuit.inputs, inputs)
    values: dict = {}
    for i, wire in enumerate(circuit.wires):
        if wire.kind == "one":
            values[i] = 1
        elif wire.kind == "const":
            values[i] = wire.value % p
        elif wire.kind == "input":
            values[i] = inputs[wire.name] % p
    for gate in circuit.gates:
        for operand in (gate.left, gate.right):
            wire = circuit.wires[operand]
            if wire.kind == "inverse" and operand not in values:
                values[operand] = pow(values[wire.of], p - 2, p)
        if circuit.wires[gate.out].kind == "gate":
            values[gate.out] = _gate_value(gate, values, p)
    return values


def check_solution(circuit: Circuit, assignment: dict) -> bool:
    """True iff every gate equation and every output relation holds.

    Also enforces the fixed values: the one-wire carries 1 and every
    constant wire carries its constant.
    """
    p = circuit.ctx.p
    missing = [i for i in range(len(circuit.wires)) if i not in assignment]
    if missing:
        raise IncompleteAssignment(
            f"assignment misses {len(missing)} wire(s), first: {missing[0]}"
        )
    values = {i: assignment[i] % p for i in range(len(circuit.wires))}
    for i, wire in enumerate(circuit.wires):
        if wire.kind == "one" and values[i] != 1:
            return False
        if wire.kind == "const" and values[i] != wire.value % p:
            return False
    for gate in circuit.gates:
        if values[gate.out] != _gate_value(gate, values, p):
            return False
    for wire_id, relation in circuit.outputs:
        if not relation.holds(values[wire_id]):
            return False
    return True
