"""Turn a gate circuit into a quadratic program over interpolation nodes 1..N.

Every wire that is not a constant (the one-wire, each input, each hint and
each unpinned gate output) is a symbol with a triple of polynomials, kept as
their values at the nodes. The QAP stores them as the rows of the constraint
matrices: per gate d, the (symbol, coefficient) entries of v, w and k at
node d, which encode gate d:

    Times gate  l * r = o:  the left operand's v entry, the right operand's
                            w entry, and the output's k entry.
    Plus gate   l + r = o:  both operands' v entries, the one-wire's w
                            entry 1, the output's k entry, so
                            (t_l + t_r) * 1 = t_o.

A symbol's entry is itself with coefficient 1; a constant wire's, operand or
pinned output alike, is the one-wire with the constant. An assignment t with
t_one = 1 then satisfies every gate exactly when the combined polynomial

    F = (sum_i t_i v_i) * (sum_i t_i w_i) - (sum_i t_i k_i)

vanishes on 1..N, i.e. when the target product T(x) = prod(x - d) divides F.
Since T has the N distinct roots 1..N, that is one test per gate on the
weighted row sums: V(d) * W(d) = K(d). Coefficient form is derived only where
it is needed: for the emitted QAP file, from the per-symbol columns {d: value}
of the rows, and for the prover's V and W, whose product's quotient by T is
the quotient H of F.
"""

from __future__ import annotations

from functools import cached_property

from .circuit import TIMES, WIRE_ONE, Circuit, IncompleteAssignment
from .field import FieldContext, inverse, write_header
from .polynomial import Polynomial, SubproductTree, lagrange_basis

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
        rows: list,
    ):
        self.ctx = ctx
        self.n_gates = n_gates
        self.symbols = symbols  # wire ids in increasing order, the one-wire first
        self.symbol_names = symbol_names
        # rows[d - 1] = (v, w, k) at node d, each a tuple of (symbol index,
        # coefficient); a symbol absent from an entry tuple holds 0 there
        self.rows = rows

    def _columns(self, family: int) -> list:
        columns: list = [{} for _ in self.symbols]
        for d, row in enumerate(self.rows, 1):
            for i, value in row[family]:
                columns[i][d] = value
        return columns

    @cached_property
    def v(self) -> list:
        """Per-symbol columns {node d: value}, absent nodes holding 0: the
        emitted QAP file's view of the rows (and w, k likewise)."""
        return self._columns(0)

    @cached_property
    def w(self) -> list:
        return self._columns(1)

    @cached_property
    def k(self) -> list:
        return self._columns(2)

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

    def to_json_dict(self) -> dict:
        """The QAP in coefficient form: a column is sum_d column[d] * L_d(x),
        over one Lagrange basis of the nodes built for every column."""
        basis = lagrange_basis(self.ctx, range(1, self.n_gates + 1))
        # basis[0] is T / (x - 1) times its leading coefficient, so T needs no
        # second product of the (x - d)
        target = Polynomial(self.ctx, [1])
        if basis:
            quotient = basis[0].coeffs
            scale = inverse(quotient[-1], self.ctx.p)
            target = Polynomial(
                self.ctx, [(a - b) * scale for a, b in zip((0, *quotient), (*quotient, 0))]
            )

        def coeffs(col) -> list:
            terms = ((value, basis[d - 1]) for d, value in col.items())
            return [str(c) for c in Polynomial.weighted_sum(self.ctx, terms).coeffs]

        return {
            **write_header("qap", self.ctx),
            "n_gates": self.n_gates,
            "symbols": list(self.symbol_names),
            **{family: [coeffs(col) for col in getattr(self, family)] for family in "vwk"},
            "target": [str(c) for c in target.coeffs],
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
            (d for d in at_v if (at_v[d] * at_w[d] - at_k[d]) % p), None
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
    p = circuit.ctx.p
    symbols = tuple(circuit.symbol_wires())
    position = {wire: i for i, wire in enumerate(symbols)}
    one = (position[WIRE_ONE], 1)
    # a wire's (symbol, coefficient) entry: constants count on the one-wire
    entry = {wire: (i, 1) for wire, i in position.items()}
    for wire_id, wire in enumerate(circuit.wires):
        if wire.kind == "const":
            entry[wire_id] = (one[0], wire.value % p)

    rows = []
    for gate in circuit.gates:
        left, right = entry[gate.left], entry[gate.right]
        k = (entry[gate.out],)
        if gate.op == TIMES:
            rows.append(((left,), (right,), k))
        elif left[0] == right[0]:  # one symbol, or two constants
            rows.append((((left[0], (left[1] + right[1]) % p),), (one,), k))
        else:
            rows.append(((left, right), (one,), k))

    return QAP(
        ctx=circuit.ctx,
        n_gates=circuit.n_gates,
        symbols=symbols,
        symbol_names=tuple(circuit.wire_labels(symbols)),
        rows=rows,
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
    """Form the weighted sums at the nodes, A(d) = sum_i t_i a_i(d), one row
    at a time, and test divisibility by the target gate by gate. Only a
    divisible instance interpolates, and only V and W: H is the quotient of
    V*W by T.
    """
    p = qap.ctx.p
    t = _weights(qap, assignment)
    at_v: dict = {}
    at_w: dict = {}
    at_k: dict = {}
    for d, (v, w, k) in enumerate(qap.rows, 1):
        total = 0
        for i, c in v:
            total += t[i] * c
        at_v[d] = total % p
        total = 0
        for i, c in w:
            total += t[i] * c
        at_w[d] = total % p
        total = 0
        for i, c in k:
            total += t[i] * c
        at_k[d] = total % p
    return AssembledInstance(qap, t, (at_v, at_w, at_k))
