"""Turn a gate circuit into a quadratic program over interpolation nodes 1..N.

Every witness-carrying wire (the one-wire, each input, each hint, each gate
output) gets a triple of polynomials, kept as their values at the nodes: one
sparse column {d: value} per symbol and family, the constraint matrices of
the gates. At node d the triple encodes gate d:

    Times gate  l * r = o:  left operand adds to its v column, right operand
                            to its w column, and the output owns k(d) = 1.
    Plus gate   l + r = o:  both operands add to their v columns, the
                            one-wire's w column gets 1, the output owns
                            k(d) = 1, so (t_l + t_r) * 1 = t_o.

Constant operands contribute value-many units to the one-wire's column
instead of owning symbols. An assignment t then satisfies every gate exactly
when the combined polynomial

    F = (sum_i t_i v_i) * (sum_i t_i w_i) - (sum_i t_i k_i)

vanishes on 1..N, i.e. when the target product T(x) = prod(x - d) divides F.
Since T has the N distinct roots 1..N, that is one test per gate on the
weighted column sums: V(d) * W(d) = K(d). Coefficient form is derived from
the columns only where it is needed: for the emitted QAP file, and for the
prover's V and W, whose product's quotient by T is the quotient H of F.
"""

from __future__ import annotations

from functools import cached_property

from .circuit import TIMES, Circuit, IncompleteAssignment
from .field import FieldContext, inverse, write_header
from .polynomial import Polynomial, SubproductTree, divide_out_root
from .polynomial import lagrange_basis  # noqa: F401  re-export: perfbench's tracer wraps it here

__all__ = [
    "QAP",
    "AssembledInstance",
    "FieldTooSmall",
    "assemble",
    "build_qap",
    "check_field",
]


class FieldTooSmall(ValueError):
    """The modulus must exceed twice the gate count."""


class QAP:
    def __init__(
        self,
        ctx: FieldContext,
        n_gates: int,
        symbols: tuple,
        symbol_names: tuple,
        v: list,
        w: list,
        k: list,
    ):
        self.ctx = ctx
        self.n_gates = n_gates
        self.symbols = symbols  # wire ids, ordered: one, inputs, then remaining by id
        self.symbol_names = symbol_names
        self.v = v  # per-symbol column {node d: value}; absent nodes hold 0
        self.w = w
        self.k = k

    @cached_property
    def tree(self) -> SubproductTree:
        """Subproduct tree of the factors (x - d) over the nodes 1..N."""
        return SubproductTree(self.ctx, range(1, self.n_gates + 1))

    @cached_property
    def target(self) -> Polynomial:
        """T(x) = prod(x - d) over the nodes, the root of the tree."""
        return Polynomial(self.ctx, self.tree.root())

    @cached_property
    def weights(self) -> list:
        """Barycentric weights: weights[d - 1] = 1 / prod_{j != d}(d - j).

        On the nodes 1..N that product is (d-1)! * (-1)^(N-d) * (N-d)!, so
        every weight comes from one table of inverse factorials, itself one
        field inversion.
        """
        p, n = self.ctx.p, self.n_gates
        fact = 1
        for i in range(2, n + 1):
            fact = fact * i % p
        inv_fact = [1] * (n + 1)  # inv_fact[i] = 1 / i!, nonzero since p > N
        inv_fact[n] = inverse(fact, p)
        for i in range(n, 1, -1):
            inv_fact[i - 1] = inv_fact[i] * i % p
        return [
            (-1) ** (n - d) * inv_fact[d - 1] * inv_fact[n - d] % p for d in range(1, n + 1)
        ]

    def interpolate(self, column: dict) -> Polynomial:
        """Coefficient form of the polynomial taking column[d] at each node d,
        combined up the tree from the leaves column[d] * weights[d - 1]."""
        scales = [0] * self.n_gates
        weights = self.weights
        for d, value in column.items():
            scales[d - 1] = value * weights[d - 1]
        return Polynomial(self.ctx, self.tree.combine(scales))

    def lagrange_at(self, s: int) -> tuple:
        """(T(s), [L_1(s), ..., L_N(s)]) without any coefficient list.

        L_d(s) = weights[d - 1] * prod_{j != d}(s - j), the product taken from
        running prefix and suffix products of the (s - j).
        """
        p, n = self.ctx.p, self.n_gates
        suffix = [1] * (n + 1)  # suffix[d] = prod_{j > d}(s - j)
        for d in range(n, 0, -1):
            suffix[d - 1] = suffix[d] * (s - d) % p
        values = []
        prefix = 1  # prod_{j < d}(s - j)
        for d, weight in enumerate(self.weights, start=1):
            values.append(weight * prefix % p * suffix[d] % p)
            prefix = prefix * (s - d) % p
        return suffix[0], values

    def interpolate_columns(self, columns) -> list:
        """Coefficient form of many sparse columns at once.

        A column is sum_d column[d] * weights[d - 1] * T(x) / (x - d). Each
        row T(x) / (x - d) is divided out of T once, by synthetic division,
        and added into every column with an entry at d: O(N) per node and
        per entry, in proportion to the N coefficients each column emits,
        where a tree pass per column would cost a full-size product.
        """
        p = self.ctx.p
        by_node: dict = {}
        for i, col in enumerate(columns):
            for d, value in col.items():
                by_node.setdefault(d, []).append((i, value))
        sums: list = [() for _ in columns]
        target = self.target.coeffs
        for d, entries in by_node.items():
            row = divide_out_root(target, d, p)
            weight = self.weights[d - 1]
            for i, value in entries:
                scale = value * weight % p
                acc = sums[i] or [0] * len(row)
                sums[i] = [a + scale * c for a, c in zip(acc, row)]
        return [Polynomial(self.ctx, coeffs) for coeffs in sums]

    def to_json_dict(self) -> dict:
        n = len(self.symbols)
        coeffs = [
            [str(c) for c in poly.coeffs]
            for poly in self.interpolate_columns(self.v + self.w + self.k)
        ]
        return {
            **write_header("qap", self.ctx),
            "n_gates": self.n_gates,
            "symbols": list(self.symbol_names),
            "v": coeffs[:n],
            "w": coeffs[n : 2 * n],
            "k": coeffs[2 * n :],
            "target": [str(c) for c in self.target.coeffs],
        }


class AssembledInstance:
    """An assignment's weighted sums over a QAP, with the verdict eager and
    the coefficient forms of V, W, K and F made from the node values on
    first use."""

    def __init__(self, qap: QAP, weights: list, nodes: tuple):
        self.qap = qap
        self.weights = weights  # the assignment's residue per symbol, in QAP order
        self.nodes = nodes  # V, W and K at the nodes, each {d: residue}
        p = qap.ctx.p
        at_v, at_w, at_k = nodes
        self.failing_gate = next(  # the first node d where V(d) * W(d) != K(d)
            (
                d
                for d in range(1, qap.n_gates + 1)
                if (at_v.get(d, 0) * at_w.get(d, 0) - at_k.get(d, 0)) % p
            ),
            None,
        )
        self.divisible = self.failing_gate is None
        # deg K < N = deg T, so K is the remainder of V*W by T and H its quotient
        self.h = (self.v * self.w) // qap.target if self.divisible else None

    @cached_property
    def v(self) -> Polynomial:
        return self.qap.interpolate(self.nodes[0])

    @cached_property
    def w(self) -> Polynomial:
        return self.qap.interpolate(self.nodes[1])

    @cached_property
    def k(self) -> Polynomial:
        return self.qap.interpolate(self.nodes[2])

    @cached_property
    def f(self) -> Polynomial:
        """v*w - k"""
        return self.v * self.w - self.k


def check_field(circuit: Circuit) -> None:
    """Refuse a circuit whose modulus does not exceed twice its gate count."""
    p, n = circuit.ctx.p, circuit.n_gates
    if p <= 2 * n:
        raise FieldTooSmall(f"modulus {p} must exceed 2N = {2 * n} for a {n}-gate circuit")


def build_qap(circuit: Circuit) -> QAP:
    check_field(circuit)
    ctx = circuit.ctx
    n = circuit.n_gates
    symbols = tuple(circuit.symbol_wires())
    position = {wire: idx for idx, wire in enumerate(symbols)}
    one_pos = position[0]

    cols_v: list = [{} for _ in symbols]
    cols_w: list = [{} for _ in symbols]
    cols_k: list = [{} for _ in symbols]

    def contribute(cols, wire_id: int, d: int) -> None:
        wire = circuit.wires[wire_id]
        if wire.kind == "const":
            col = cols[one_pos]
            col[d] = (col.get(d, 0) + wire.value) % ctx.p
        elif wire.kind == "one":
            col = cols[one_pos]
            col[d] = (col.get(d, 0) + 1) % ctx.p
        else:
            col = cols[position[wire_id]]
            col[d] = (col.get(d, 0) + 1) % ctx.p

    for gate in circuit.gates:
        d = gate.index
        if gate.op == TIMES:
            contribute(cols_v, gate.left, d)
            contribute(cols_w, gate.right, d)
        else:
            contribute(cols_v, gate.left, d)
            contribute(cols_v, gate.right, d)
            cols_w[one_pos][d] = 1
        cols_k[position[gate.out]][d] = 1

    return QAP(
        ctx=ctx,
        n_gates=n,
        symbols=symbols,
        symbol_names=tuple(circuit.wire_labels(symbols)),
        v=cols_v,
        w=cols_w,
        k=cols_k,
    )


def _weights(qap: QAP, assignment: dict) -> list:
    missing = [wire for wire in qap.symbols if wire not in assignment]
    if missing:
        raise IncompleteAssignment(
            f"assignment misses {len(missing)} symbol wire(s), first: {missing[0]}"
        )
    p = qap.ctx.p
    return [assignment[wire] % p for wire in qap.symbols]


def assemble(qap: QAP, assignment: dict) -> AssembledInstance:
    """Form the weighted sums at the nodes, A(d) = sum_i t_i a_i(d), and test
    divisibility by the target gate by gate. Only a divisible instance
    interpolates, and only V and W: H is the quotient of V*W by T.
    """
    p = qap.ctx.p
    weights = _weights(qap, assignment)

    def at_nodes(columns) -> dict:
        values: dict = {}
        for weight, col in zip(weights, columns):
            if weight:
                for d, value in col.items():
                    values[d] = values.get(d, 0) + weight * value
        return {d: value % p for d, value in values.items()}

    return AssembledInstance(qap, weights, (at_nodes(qap.v), at_nodes(qap.w), at_nodes(qap.k)))
