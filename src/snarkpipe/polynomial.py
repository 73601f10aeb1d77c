"""Dense univariate polynomials over a prime field, lowest degree first.

Coefficients are stored as plain residues with the field context alongside;
the canonical form carries no trailing zeros and the zero polynomial is the
empty tuple, so equality is plain coefficient-list equality.
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
    def interpolate(cls, ctx: FieldContext, points) -> "Polynomial":
        """Lagrange interpolation; the result has degree < len(points) and
        passes through every (x, y) pair."""
        p = ctx.p
        xs = [x % p for x, _ in points]
        ys = [y % p for _, y in points]
        if len(set(xs)) != len(xs):
            raise DuplicateNode("repeated x-coordinate in interpolation nodes")
        if not xs:
            return cls.zero(ctx)
        master = cls.from_roots(ctx, xs).coeffs
        acc = [0] * len(xs)
        for x, y in zip(xs, ys):
            num = _divide_out_root(master, x, p)
            scale = y * inverse(_node_denominator(xs, x, p), p) % p
            for i, c in enumerate(num):
                acc[i] = (acc[i] + c * scale) % p
        return cls(ctx, acc)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def _operand(self, other):
        if isinstance(other, Polynomial):
            if other.ctx.p != self.ctx.p:
                raise ValueError("polynomials over different fields")
            return other.coeffs
        return None

    def __add__(self, other):
        rhs = self._operand(other)
        if rhs is None:
            return NotImplemented
        p = self.ctx.p
        a, b = self.coeffs, rhs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return Polynomial(self.ctx, out)

    def __sub__(self, other):
        rhs = self._operand(other)
        if rhs is None:
            return NotImplemented
        p = self.ctx.p
        out = list(self.coeffs) + [0] * max(0, len(rhs) - len(self.coeffs))
        for i, c in enumerate(rhs):
            out[i] = (out[i] - c) % p
        return Polynomial(self.ctx, out)

    def __mul__(self, other):
        rhs = self._operand(other)
        if rhs is None:
            return NotImplemented
        if not self.coeffs or not rhs:
            return Polynomial.zero(self.ctx)
        p = self.ctx.p
        out = [0] * (len(self.coeffs) + len(rhs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(rhs):
                out[i + j] = (out[i + j] + a * b) % p
        return Polynomial(self.ctx, out)

    def __divmod__(self, divisor: "Polynomial"):
        den = self._operand(divisor)
        if den is None:
            return NotImplemented
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


def _node_denominator(xs, x: int, p: int) -> int:
    """prod(x - other) over the other nodes: the master product with (x - x)
    divided out, evaluated at x."""
    den = 1
    for other in xs:
        if other != x:
            den = den * (x - other) % p
    return den


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

    Built once from the master product so that a batch of interpolations over
    the same nodes costs one synthetic division per node instead of a full
    interpolation per target.
    """
    p = ctx.p
    xs = [x % p for x in nodes]
    if len(set(xs)) != len(xs):
        raise DuplicateNode("repeated node in basis construction")
    master = Polynomial.from_roots(ctx, xs).coeffs
    basis = []
    for x in xs:
        num = _divide_out_root(master, x, p)
        den_inv = inverse(_node_denominator(xs, x, p), p)
        basis.append(Polynomial(ctx, [c * den_inv % p for c in num]))
    return basis
