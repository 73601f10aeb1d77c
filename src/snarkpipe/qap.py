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
weighted row sums: V(d) * W(d) = K(d). Node data, rows and values alike, are
lists indexed d - 1. Coefficient form is derived only where it is needed: for
the emitted QAP file, each symbol's sum of value * L_d gathered from the rows,
and for the prover's V and W, whose product's quotient by T is the quotient H
of F. The QAP keeps no polynomial of its own: setup takes T(s) and every
L_d(s) in closed form (`lagrange_at`), the prover takes H from one pass up
the product tree (`quotient`), and the emitted file takes T from its basis.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .circuit import TIMES, WIRE_ONE, Circuit, IncompleteAssignment
from .field import FieldContext, inverse, write_header
from .polynomial import Polynomial, SubproductTree, lagrange_basis

__all__ = [
    "QAP",
    "AssembledInstance",
    "FieldTooSmall",
    "MAX_EMITTED_COEFFICIENTS",
    "QAPTooLarge",
    "assemble",
    "build_qap",
    "check_emit_size",
    "check_field",
]

# The most coefficients an emitted QAP file holds, v, w and k for each of S
# symbols over N gates, 3 * S * N of them; and the most the Lagrange basis
# that forms it holds, N polynomials of N coefficients whatever S is. A
# 589-gate squaring chain fits both.
MAX_EMITTED_COEFFICIENTS = 1 << 20


class FieldTooSmall(ValueError):
    """The modulus must exceed twice the gate count."""


class QAPTooLarge(ValueError):
    """The coefficient form of the QAP, or the basis that forms it,
    exceeds MAX_EMITTED_COEFFICIENTS."""


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

    def quotient(self, at_v: list, at_w: list) -> Polynomial:
        """V*W // T for V and W given by their node values. Each value times
        its node's weight is a scale of the tree's combination (see
        `SubproductTree.combine`), so V and W are interpolated, multiplied
        and divided in packed form, with no coefficient list in between, in
        one pass up the tree over the nodes, in whichever form pays at this
        size."""
        tree = SubproductTree(self.ctx, range(1, self.n_gates + 1))
        a, b = ([v * weight for v, weight in zip(at, self.weights)] for at in (at_v, at_w))
        return Polynomial(self.ctx, tree.quotient_of_product(a, b))

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
        """The QAP in coefficient form: a symbol's polynomial in each family
        is sum_d value * L_d(x) over its entries in the rows, with one
        Lagrange basis of the nodes built for every symbol. T is formed once:
        L_N is T / (x - N) times its leading coefficient."""
        basis = lagrange_basis(self.ctx, range(1, self.n_gates + 1))
        last = basis[-1].coeffs
        scale = inverse(last[-1], self.ctx.p)
        target = [scale * (a - self.n_gates * b) for a, b in zip((0,) + last, last + (0,))]
        # terms[family][i]: symbol i's (value, L_d) pairs in that family
        terms: dict = {family: [[] for _ in self.symbols] for family in "vwk"}
        for l_d, row in zip(basis, self.rows):
            for family, entries in zip("vwk", row):
                for i, value in entries:
                    terms[family][i].append((value, l_d))

        def coeffs(pairs) -> list:
            return [str(c) for c in Polynomial.weighted_sum(self.ctx, pairs).coeffs]

        return {
            **write_header("qap", self.ctx),
            "n_gates": self.n_gates,
            "symbols": list(self.symbol_names),
            **{family: [coeffs(pairs) for pairs in terms[family]] for family in "vwk"},
            "target": [str(c) for c in Polynomial(self.ctx, target).coeffs],
        }


class AssembledInstance(namedtuple("AssembledInstance", "weights nodes failing_gate h")):
    """An assignment over a QAP: its residue per symbol in QAP order (the
    weights), V, W and K at the nodes (each a list indexed d - 1), the
    first node d where V(d) * W(d) != K(d) or None, and, when there is
    none, the quotient H of V*W by T."""

    __slots__ = ()

    @property
    def divisible(self) -> bool:
        return self.failing_gate is None


def check_field(circuit: Circuit) -> None:
    """Refuse a circuit whose modulus does not exceed twice its gate count."""
    p, n = circuit.ctx.p, circuit.n_gates
    if p <= 2 * n:
        raise FieldTooSmall(f"modulus {p} must exceed 2N = {2 * n} for a {n}-gate circuit")


def check_emit_size(circuit: Circuit) -> None:
    """Refuse, before anything is built, a QAP whose coefficient form, or
    the Lagrange basis that forms it, would exceed MAX_EMITTED_COEFFICIENTS."""
    n, s = circuit.n_gates, len(circuit.symbol_wires())
    if 3 * s * n > MAX_EMITTED_COEFFICIENTS:
        raise QAPTooLarge(
            f"an emitted QAP holds 3 * S * N = {3 * s * n} coefficients for S={s} symbols"
            f" over N={n} gates; at most {MAX_EMITTED_COEFFICIENTS} are written"
        )
    if n * n > MAX_EMITTED_COEFFICIENTS:
        raise QAPTooLarge(
            f"emitting a QAP over N={n} gates builds a Lagrange basis of N * N = {n * n}"
            f" coefficients; at most {MAX_EMITTED_COEFFICIENTS} are held"
        )


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
    at_v, at_w, at_k = [], [], []
    for v, w, k in qap.rows:
        total = 0
        for i, c in v:
            total += t[i] * c
        at_v.append(total % p)
        total = 0
        for i, c in w:
            total += t[i] * c
        at_w.append(total % p)
        total = 0
        for i, c in k:
            total += t[i] * c
        at_k.append(total % p)
    failing_gate = next(
        (d for d, (a, b, c) in enumerate(zip(at_v, at_w, at_k), 1) if (a * b - c) % p), None
    )
    h = None
    if failing_gate is None:
        # deg K < N = deg T, so K is the remainder of V*W by T and H its quotient
        h = qap.quotient(at_v, at_w)
    return AssembledInstance(t, (at_v, at_w, at_k), failing_gate, h)
