"""Dense univariate polynomials over a prime field, lowest degree first.

Coefficients are stored as plain residues with the field context alongside;
the canonical form carries no trailing zeros and the zero polynomial is the
empty tuple, so equality is plain coefficient-list equality. The constructor
is the one place that reduces mod p: the operators and `weighted_sum` hand it
raw integer sums.
"""

from __future__ import annotations

from .field import DivisionByZero, FieldContext, inverse

__all__ = ["DuplicateNode", "Polynomial", "lagrange_basis"]


class DuplicateNode(ValueError):
    """Interpolation nodes must be pairwise distinct."""


class Polynomial:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldContext, coeffs=()):
        p = ctx.p
        reduced = [c % p for c in coeffs]
        while reduced and reduced[-1] == 0:
            reduced.pop()
        self.ctx = ctx
        self.coeffs = tuple(reduced)

    @classmethod
    def zero(cls, ctx: FieldContext) -> "Polynomial":
        return cls(ctx, ())

    @classmethod
    def from_roots(cls, ctx: FieldContext, roots) -> "Polynomial":
        """Monic product of (x - r) over the given roots."""
        p = ctx.p
        coeffs = [1]
        for r in roots:
            coeffs.append(0)
            for i in range(len(coeffs) - 1, 0, -1):
                coeffs[i] = (coeffs[i - 1] - r * coeffs[i]) % p
            coeffs[0] = (-r * coeffs[0]) % p
        return cls(ctx, coeffs)

    @classmethod
    def weighted_sum(cls, ctx: FieldContext, terms) -> "Polynomial":
        """sum(weight * poly) over the (weight, poly) pairs; no pairs give 0."""
        acc = []
        for weight, poly in terms:
            if weight == 0:
                continue
            coeffs = poly.coeffs
            if len(acc) < len(coeffs):
                acc.extend([0] * (len(coeffs) - len(acc)))
            for i, c in enumerate(coeffs):
                acc[i] += weight * c
        return cls(ctx, acc)

    @classmethod
    def interpolate(cls, ctx: FieldContext, points) -> "Polynomial":
        """Lagrange interpolation; the result has degree < len(points) and
        passes through every (x, y) pair."""
        points = list(points)
        basis = lagrange_basis(ctx, [x for x, _ in points])
        return cls.weighted_sum(ctx, zip((y for _, y in points), basis))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def _operand(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            raise TypeError(f"polynomial operand must be a Polynomial, not {type(other).__name__}")
        if other.ctx.p != self.ctx.p:
            raise ValueError("polynomials over different fields")
        return other

    def __add__(self, other):
        return Polynomial.weighted_sum(self.ctx, ((1, self), (1, self._operand(other))))

    def __sub__(self, other):
        return Polynomial.weighted_sum(self.ctx, ((1, self), (-1, self._operand(other))))

    def __mul__(self, other):
        rhs = self._operand(other).coeffs
        out = [0] * (len(self.coeffs) + len(rhs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(rhs):
                out[i + j] += a * b
        return Polynomial(self.ctx, out)

    def __divmod__(self, divisor: "Polynomial"):
        den = self._operand(divisor).coeffs
        if not den:
            raise DivisionByZero("polynomial division by zero")
        p = self.ctx.p
        num = list(self.coeffs)
        if len(num) < len(den):
            return Polynomial.zero(self.ctx), Polynomial(self.ctx, num)
        lead_inv = inverse(den[-1], p)
        quot = [0] * (len(num) - len(den) + 1)
        for shift in range(len(quot) - 1, -1, -1):
            q = num[shift + len(den) - 1] * lead_inv % p
            if q:
                quot[shift] = q
                for i, d in enumerate(den):
                    num[shift + i] = (num[shift + i] - q * d) % p
        return Polynomial(self.ctx, quot), Polynomial(self.ctx, num[: len(den) - 1])

    def eval_int(self, x: int) -> int:
        p = self.ctx.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ctx.p == other.ctx.p and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.p, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}x" if c != 1 else "x")
            else:
                terms.append(f"{c}x^{i}" if c != 1 else f"x^{i}")
        return f"Polynomial({' + '.join(terms)} mod {self.ctx.p})"


def _divide_out_root(coeffs, root: int, p: int) -> list[int]:
    """Exact synthetic division of a polynomial by (x - root)."""
    n = len(coeffs) - 1
    quot = [0] * n
    quot[n - 1] = coeffs[n]
    for i in range(n - 1, 0, -1):
        quot[i - 1] = (coeffs[i] + root * quot[i]) % p
    return quot


def lagrange_basis(ctx: FieldContext, nodes) -> list[Polynomial]:
    """Normalized Lagrange basis over the nodes: basis[i](nodes[j]) = [i == j].

    Built once from the master product prod(x - node): basis[i] is the master
    with its root nodes[i] divided out, scaled by the inverse of that
    quotient's value at nodes[i], prod(nodes[i] - other).
    """
    p = ctx.p
    xs = [x % p for x in nodes]
    if len(set(xs)) != len(xs):
        raise DuplicateNode("repeated node in basis construction")
    master = Polynomial.from_roots(ctx, xs).coeffs
    basis = []
    for x in xs:
        den = 1
        for other in xs:
            if other != x:
                den = den * (x - other) % p
        den_inv = inverse(den, p)
        basis.append(Polynomial(ctx, [c * den_inv for c in _divide_out_root(master, x, p)]))
    return basis
