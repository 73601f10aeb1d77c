"""Dense univariate polynomials over a prime field, lowest degree first.

Coefficients are stored as plain residues with the field context alongside;
the canonical form carries no trailing zeros and the zero polynomial is the
empty tuple, so equality is plain coefficient-list equality. The constructor
reduces mod p and strips, so `weighted_sum` hands it raw integer sums.

Products go through Kronecker substitution (one big-integer product each),
division through Newton inversion of the reversed divisor, and products of
many linear factors through a subproduct tree. Each gives exactly the
residues of the schoolbook loops, which the tests keep as their oracle, at
the cost of a few big-integer products instead of a double loop over
coefficients.
"""

from __future__ import annotations

from .field import DivisionByZero, FieldContext, inverse

__all__ = [
    "DuplicateNode",
    "Polynomial",
    "SubproductTree",
    "lagrange_basis",
]


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
        return cls(ctx, SubproductTree(ctx, roots).root())

    @classmethod
    def weighted_sum(cls, ctx: FieldContext, terms) -> "Polynomial":
        """sum(weight * poly) over the (weight, poly) pairs; no pairs give 0."""
        acc = []
        for weight, poly in terms:
            if weight == 0:
                continue
            coeffs = poly.coeffs
            if not acc:  # nothing to add to yet
                acc = [weight * c for c in coeffs]
                continue
            n = len(coeffs)
            if len(acc) < n:
                acc.extend([0] * (n - len(acc)))
            acc[:n] = [a + weight * c for a, c in zip(acc, coeffs)]
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
        return Polynomial(self.ctx, _product(self.coeffs, self._operand(other).coeffs, self.ctx.p))

    def __floordiv__(self, divisor: "Polynomial"):
        """The quotient alone: divmod without the remainder's product."""
        den = self._operand(divisor).coeffs
        return Polynomial(self.ctx, _quotient(self.coeffs, den, self.ctx.p))

    def __divmod__(self, divisor: "Polynomial"):
        """Quotient and remainder; the remainder only needs the low deg d
        coefficients of f - q*d."""
        den = self._operand(divisor).coeffs
        num, p = self.coeffs, self.ctx.p
        quot = _quotient(num, den, p)
        if not quot:  # deg f < deg d
            return Polynomial.zero(self.ctx), self
        low = len(den) - 1
        fitted = _product(quot[:low], den[:low], p)
        rem = [a - b for a, b in zip(num[:low], fitted)]
        return Polynomial(self.ctx, quot), Polynomial(self.ctx, rem)

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


# Kronecker substitution. A coefficient list becomes one integer whose digits
# in base 2^(8 * width) are the coefficients. For residues mod p and slots of
# 2 * bitlen(p) + bitlen(terms) bits, the product of two packed lists holds
# every coefficient of the polynomial product, a sum of at most `terms`
# residue products, in its own slot with no carry into the next. CPython
# multiplies the integers in C (Karatsuba), so one big-integer product stands
# in for the double loop over coefficients; packing, slicing out a run of
# slots and the reduction mod p are linear.


def _slot_width(p: int, terms: int) -> int:
    """Bytes per slot that hold a sum of `terms` products of residues."""
    return (2 * p.bit_length() + terms.bit_length() + 7) // 8


def _pack(coeffs, width: int) -> int:
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in coeffs]), "little")


def _low(value: int, width: int, length: int) -> int:
    """The packed value truncated to its first `length` slots (mod x^length)."""
    return value & ((1 << 8 * width * length) - 1)


def _unpack(value: int, width: int, length: int, p: int) -> list[int]:
    """The `length` slots of a packed value as residues mod p."""
    data = value.to_bytes(width * length, "little")
    from_bytes = int.from_bytes
    return [from_bytes(data[i : i + width], "little") % p for i in range(0, len(data), width)]


def _reduce(value: int, width: int, length: int, p: int, sign: int = 1) -> int:
    """The packed value with each of its `length` slots c replaced by the
    residue of sign * c: _pack(_unpack(...)) without the list in between."""
    data = value.to_bytes(width * length, "little")
    from_bytes = int.from_bytes
    return from_bytes(
        b"".join(
            [
                (sign * from_bytes(data[i : i + width], "little") % p).to_bytes(width, "little")
                for i in range(0, len(data), width)
            ]
        ),
        "little",
    )


def _product(a, b, p: int) -> list[int]:
    """Residues of the product of two residue lists, trailing zeros kept."""
    if not a or not b:
        return []
    width = _slot_width(p, min(len(a), len(b)))
    return _unpack(_pack(a, width) * _pack(b, width), width, len(a) + len(b) - 1, p)


def _inverse_series(h, size: int, p: int, width: int) -> int:
    """The first `size` coefficients of 1/h as a power series, packed in
    slots of `width` bytes (wide enough for sums of `size` products); h[0]
    must be nonzero.

    Newton iteration doubles the precision each step: if h*g = 1 mod x^l,
    then h*g = 1 + x^l*e mod x^2l and g - x^l*(g*e) is the inverse mod x^2l.
    """
    packed_h = _pack(h[:size], width)
    steps = []  # the precisions to reach, largest first
    while size > 1:
        steps.append(size)
        size = (size + 1) // 2
    bits = 8 * width
    g, known = inverse(h[0], p), 1
    for target in reversed(steps):
        gained = target - known
        error = _low(_low(packed_h, width, target) * g >> bits * known, width, gained)
        error = _reduce(error, width, gained, p, sign=-1)
        fix = _low(_low(g, width, gained) * error, width, gained)
        g += _reduce(fix, width, gained, p) << bits * known
        known = target
    return g


def _quotient(num, den, p: int) -> list[int]:
    """Residues of the quotient of num by den, by Newton inversion of the
    reversed divisor; den's last coefficient must be nonzero.

    With f = q*d + r and deg r < deg d, reversing the coefficient order
    turns the quotient into a power-series product: rev(q) = rev(f) *
    rev(d)^-1 mod x^(deg q + 1). Only the top deg q + 1 coefficients of f
    enter it.
    """
    if not den:
        raise DivisionByZero("polynomial division by zero")
    size = len(num) - len(den) + 1  # coefficients of the quotient
    if size <= 0:
        return []
    width = _slot_width(p, size)
    inv = _inverse_series(den[::-1], size, p, width)
    rev_quot = _low(_pack(num[: -size - 1 : -1], width) * inv, width, size)
    return _unpack(rev_quot, width, size, p)[::-1]


class SubproductTree:
    """The product tree of the linear factors (x - r), Kronecker-packed.

    A node holds U(y) = prod(y + r) over its roots r mod p, whose
    coefficients are all non-negative; T(x) = prod(x - r) is (-1)^m U(-x)
    for m roots, so `root` and `combine` negate alternate coefficients once
    at the end. levels[0] holds the factors; each further level multiplies
    neighbours pairwise, an odd one out moving up unchanged, so the last
    level holds the one root. A node is (packed coefficients, number of
    roots under it); every node uses the tree's one slot width, which holds
    the sum of two products of residues of the tree's largest size.

    Nothing cancels in a product of non-negative coefficients: a node's
    coefficients sum to U(1), and U(1) of a product is the product of its
    factors' U(1). bounds[k] bounds U(1) on level k, and a level's products
    are reduced only once that bound reaches p. Over the nodes 1..N the lower
    levels are products of small integers and need no reduction at all.
    """

    def __init__(self, ctx: FieldContext, roots):
        p = ctx.p
        roots = [r % p for r in roots]
        self.p, self.size = p, len(roots)
        self.width = width = _slot_width(p, 2 * len(roots) + 2)
        nodes = [(_pack([r, 1], width), 1) for r in roots]
        bound = 1 + max(roots, default=0)  # U(1) = 1 + r of a leaf, at most
        self.levels, self.bounds = [nodes], [bound]
        while len(nodes) > 1:
            bound *= bound
            paired = zip(nodes[::2], nodes[1::2])
            if bound < p:
                products = [(t_l * t_r, m_l + m_r) for (t_l, m_l), (t_r, m_r) in paired]
            else:
                products = [
                    (_reduce(t_l * t_r, width, m_l + m_r + 1, p), m_l + m_r)
                    for (t_l, m_l), (t_r, m_r) in paired
                ]
                # U(1) on this level k: at most 2^k + 1 coefficients, each below p
                bound = ((1 << len(self.levels)) + 1) * (p - 1)
            nodes = products + nodes[len(nodes) & ~1 :]
            self.levels.append(nodes)
            self.bounds.append(bound)

    def root(self) -> list[int]:
        """Coefficients of prod(x - r); no roots give the constant 1."""
        n = self.size
        coeffs = _unpack(self.levels[-1][0][0], self.width, n + 1, self.p) if n else [1]
        # T(x) = (-1)^n U(-x): the coefficient of x^i changes sign when n - i is odd
        coeffs[(n + 1) % 2 :: 2] = [-c % self.p for c in coeffs[(n + 1) % 2 :: 2]]
        return coeffs

    def combine(self, scales) -> list[int]:
        """Coefficients of sum(scales[i] * root / (x - r_i)).

        A node's numerator is num_left * U_right + num_right * U_left with U
        the products its children hold, so the sum comes out as (-1)^(n-1)
        times sum(scales[i] * U_i(-x)), U_i the product without y + r_i.
        A coefficient of num * U is at most max(num) * U(1), and the
        numerators are reduced only when the next level's could overflow a
        slot. With scales[i] = y_i / prod_{j != i} (r_i - r_j) this is the
        polynomial of degree < len(roots) through every (r_i, y_i).
        """
        p, width, n = self.p, self.width, self.size
        limit = 1 << 8 * width  # every slot value stays below this
        nums, bound = [c % p for c in scales], p - 1  # bound: on every coefficient
        for nodes, node_bound in zip(self.levels[:-1], self.bounds):
            if 2 * bound * node_bound >= limit:
                nums = [_reduce(num, width, m, p) for num, (_, m) in zip(nums, nodes)]
                bound = p - 1
            bound *= 2 * node_bound
            paired = zip(nums[::2], nums[1::2], nodes[::2], nodes[1::2])
            nums = [
                n_l * t_r + n_r * t_l for n_l, n_r, (t_l, _), (t_r, _) in paired
            ] + nums[len(nums) & ~1 :]
        if not nums:
            return []
        coeffs = _unpack(nums[0], width, n, p)
        # the coefficient of x^j changes sign when n - 1 - j is odd
        coeffs[n % 2 :: 2] = [-c % p for c in coeffs[n % 2 :: 2]]
        return coeffs


def lagrange_basis(ctx: FieldContext, nodes) -> list[Polynomial]:
    """Normalized Lagrange basis over the nodes: basis[i](nodes[j]) = [i == j].

    Built once from the master product prod(x - node): basis[i] is the master
    with its root nodes[i] divided out, scaled by the inverse of that
    quotient's value at nodes[i], prod(nodes[i] - other). Synthetic division
    is linear, so the scale is applied inside it, one coefficient at a time.
    """
    p = ctx.p
    xs = [x % p for x in nodes]
    if len(set(xs)) != len(xs):
        raise DuplicateNode("repeated node in basis construction")
    top = Polynomial.from_roots(ctx, xs).coeffs[:0:-1]  # master's x^N down to x^1
    basis = []
    for i, x in enumerate(xs):
        den = 1
        for other in xs[:i]:
            den = den * (x - other) % p
        for other in xs[i + 1 :]:
            den = den * (x - other) % p
        scale = inverse(den, p)
        acc, row = 0, []  # row[k] is the coefficient of x^(N-1-k)
        for c in top:
            acc = (c * scale + x * acc) % p
            row.append(acc)
        basis.append(Polynomial(ctx, row[::-1]))
    return basis
