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
coefficients. The one tree holds every packed polynomial at one Kronecker
point or, once the tree is large enough to gain from it, at two, so that
each of its products is two of half the size; its level loop, its
combinations, its quotient and the one Newton inverse, which division
shares, are written once over the primitives of the two forms.
"""

from __future__ import annotations

from .field import DivisionByZero, FieldContext, inverse

__all__ = [
    "DuplicateNode",
    "Polynomial",
    "SubproductTree",
    "TWO_POINT_CUTOFF",
    "lagrange_basis",
    "pays",
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


# Barrett reduction (Barrett, CRYPTO 1986) of every slot at once. A slot of
# B = 8 * width bits holds some c <= top, at first 2^B - 1. A round with
# shifts s, r and the reciprocal m = floor(2^(s+r) / p) estimates each slot's
# quotient as q = floor(h * m / 2^r) from its top bits h = floor(c / 2^s),
# at most H = floor(top / 2^s), and subtracts q * p:
#   - r is the largest shift with H * m < 2^B, so h * m stays in its slot:
#     the packed h times m, shifted right by r and masked to each slot's low
#     B - r bits, is the packed q, with no carry between slots;
#   - q <= h * 2^s / p <= c / p, so q * p <= c and nothing borrows from the
#     next slot;
#   - with c = h * 2^s + l, q * p > h * 2^s - h * (p - 1) / 2^r - p, so
#     c - q * p <= 2^s - 1 + p + floor(H * (p - 1) / 2^r), the next top.
# s = max(0, bitlen(top) - B // 2) balances the two error terms, and since
# B >= 2 * bitlen(p) + 1 the first round leaves about B / 2 bits and the
# second a top below 2p; rounds run until top < 2p. Then each conditional
# subtraction takes c <= top to at most max(p - 1, top - p): c + 2^(B-1) - p
# is below 2^B, as c < 2p <= 2^(B-1) + p, and has bit B - 1 set exactly when
# c >= p, so that bit of every slot is the packed flag to subtract p by.


class _SlotReducer:
    """Every slot of a packed value, of at most `length` slots of `width`
    bytes, reduced mod p by a few whole-integer operations (see above).

    The masks repeat one pattern per slot, so they are built once by the
    object that owns the computation, a tree or one polynomial operation,
    and go with it.
    """

    __slots__ = ("p", "width", "length", "rounds", "closing", "ones", "offset")

    def __init__(self, p: int, width: int, length: int):
        bits = 8 * width
        ones = int.from_bytes((b"\1" + bytes(width - 1)) * length, "little")
        k = p.bit_length()
        rounds, top = [], (1 << bits) - 1
        while top >= 2 * p:
            s = max(0, top.bit_length() - bits // 2)
            high = top >> s
            r = bits - high.bit_length() - s + k - 1  # H * m < 2^B holds here
            while high * ((2 << s + r) // p) >> bits == 0:
                r += 1
            low_s = ((1 << bits - s) - 1) * ones if s else None
            rounds.append((s, low_s, (1 << s + r) // p, r, ((1 << bits - r) - 1) * ones))
            top = (1 << s) - 1 + p + (high * (p - 1) >> r)
        self.p, self.width, self.length = p, width, length
        self.rounds, self.closing = rounds, top // p
        self.ones, self.offset = ones, ((1 << bits - 1) - p) * ones

    def reduce(self, value: int, negate: bool = False) -> int:
        """The packed value with each slot c replaced by the residue of c,
        or of -c when negating."""
        p, bits = self.p, 8 * self.width
        slots = -(-value.bit_length() // bits)
        cut = bits * (self.length - slots)  # the masks' slots past the value's
        for s, low_s, m, r, low_r in self.rounds:
            high = (value >> s) & low_s if s else value
            value -= ((high * m >> r) & low_r) * p
        closing = self.closing
        if negate:  # (closing + 1) * p exceeds every c: no slot borrows
            closing += 1
            value = (self.ones >> cut) * (closing * p) - value
        offset, top_bit = self.offset >> cut, bits - 1
        for _ in range(closing):
            value -= (((value + offset) >> top_bit) & self.ones) * p
        return value

    def reduce_each(self, values, lengths) -> list[int]:
        """Each value, of lengths[i] slots, reduced: one `reduce` of their
        concatenation."""
        sizes = [self.width * n for n in lengths]
        joined = b"".join([v.to_bytes(size, "little") for v, size in zip(values, sizes)])
        data = self.reduce(int.from_bytes(joined, "little")).to_bytes(len(joined), "little")
        from_bytes, out, end = int.from_bytes, [], 0
        for size in sizes:
            out.append(from_bytes(data[end : end + size], "little"))
            end += size
        return out


def _product(a, b, p: int) -> list[int]:
    """Residues of the product of two residue lists, trailing zeros kept."""
    if not a or not b:
        return []
    width = _slot_width(p, min(len(a), len(b)))
    return _unpack(_pack(a, width) * _pack(b, width), width, len(a) + len(b) - 1, p)


# Two-point Kronecker substitution (Harvey, "Faster polynomial multiplication
# via multipoint Kronecker substitution", J. Symbolic Comput. 44, 2009). A
# packed slot holds a sum of products of residues, so about half of every
# operand is headroom. With b half a slot, P = E(y^2) + y * O(y^2) takes the
# values P(2^b) = E + (O << b) and P(-2^b) = E - (O << b) at y = +-2^b, E and
# O its even- and odd-indexed coefficients packed in whole slots. Products
# and sums act on each value alone, (P * Q)(+-2^b) = P(+-2^b) * Q(+-2^b), so
# one product of n slots becomes two of about n / 2 slots. The halves come
# back exactly as E = (P+ + P-) >> 1 and O = (P+ - P-) >> (b + 1); a bound
# that keeps the slots of a packed product apart keeps the slots of its
# halves apart, since they are the same coefficients.
#
# The halved products pay for the conversions between values and halves
# only once they are large against the per-node work of a level. A sweep of
# tree-plus-quotient time over the nodes 1..N at five moduli (README, "Where
# prove spends its time") crossed over below N * width^2 = 40,000 at each,
# width the slot in bytes, and not far below it: the two-point form is used
# from N = 127 at the default modulus, 37 at 2^127 - 1 and 1112 at 2^16 + 1.
TWO_POINT_CUTOFF = 40_000


def pays(p: int, n: int) -> bool:
    """Whether a tree over n roots mod p is faster in two-point form:
    n * width^2 reaches TWO_POINT_CUTOFF."""
    return n * _slot_width(p, 2 * n + 2) ** 2 >= TWO_POINT_CUTOFF


class _OnePoint:
    """Polynomials Kronecker-packed at the one point y = 2^(8 * width).

    A polynomial has two forms here: its values, one big integer per point,
    which products and sums act on; and its packed coefficients, which cuts
    mod y^k, shifts by y^k, reductions and unpacking act on. At one point
    both are the one packed integer. `slots` reduces up to `length` slots
    of `width` bytes.
    """

    __slots__ = ("p", "width", "slots", "points")

    def __init__(self, p: int, width: int, length: int):
        self.p, self.width = p, width
        self.slots = _SlotReducer(p, width, length)
        self.points = (1 << 8 * width,)

    def packed(self, values):
        return values[0]

    def values(self, packed) -> tuple:
        return (packed,)

    def constant(self, c: int):
        return self.packed([c] * len(self.points))

    def cut(self, a, length: int):
        """a mod y^length."""
        return _low(a, self.width, length)

    def shift(self, a, k: int):
        """a times y^k, or divided by y^-k (rounding down) for k < 0."""
        bits = 8 * self.width * k
        return a << bits if k >= 0 else a >> -bits

    def add(self, a, b):
        return a + b

    def times(self, a, b):
        return a * b

    def reduced(self, a, length: int, negate: bool = False):
        """a cut to `length` coefficients, each replaced by its residue (of
        its negation, if asked): one `reduce`."""
        return self.slots.reduce(_low(a, self.width, length), negate)

    def reduced_values(self, columns, lengths) -> list:
        """The values of polynomials of lengths[i] coefficients, one column
        per point, with every coefficient reduced: one `reduce_each`."""
        return [self.slots.reduce_each(columns[0], lengths)]

    def unpack(self, a, length: int) -> list[int]:
        """The first `length` coefficients of a as residues."""
        return _unpack(a, self.width, length, self.p)


class _TwoPoint(_OnePoint):
    """Polynomials at the two points y = +-2^b, b half a slot (see above):
    the values are (P(2^b), P(-2^b)) and the packed coefficients the halves
    (E, O), which a reduction lays side by side in one run, E first."""

    __slots__ = ("half",)

    def __init__(self, p: int, width: int, length: int):
        super().__init__(p, width, length)
        self.half = 4 * width
        self.points = (1 << self.half, -1 << self.half)

    def packed(self, values):
        plus, minus = values
        return (plus + minus) >> 1, (plus - minus) >> self.half + 1

    def values(self, packed) -> tuple:
        even, odd = packed
        odd <<= self.half
        return even + odd, even - odd

    def cut(self, a, length: int):
        width = self.width
        return _low(a[0], width, (length + 1) // 2), _low(a[1], width, length // 2)

    def shift(self, a, k: int):
        # an odd k swaps the halves' roles
        even, odd = a
        if k % 2:
            even, odd = odd, even
            k_even, k_odd = (k + 1) // 2, (k - 1) // 2
        else:
            k_even = k_odd = k // 2
        bits = 8 * self.width
        if k >= 0:
            return even << bits * k_even, odd << bits * k_odd
        return even >> -bits * k_even, odd >> -bits * k_odd

    def add(self, a, b):
        return a[0] + b[0], a[1] + b[1]

    def times(self, a, b):
        a_plus, a_minus = self.values(a)
        b_plus, b_minus = self.values(b)
        return self.packed((a_plus * b_plus, a_minus * b_minus))

    def reduced(self, a, length: int, negate: bool = False):
        even, odd = self.cut(a, length)
        low = 8 * self.width * ((length + 1) // 2)
        run = self.slots.reduce(even | odd << low, negate)
        return run & (1 << low) - 1, run >> low

    def reduced_values(self, columns, lengths) -> list:
        half, bits = self.half, 8 * self.width
        runs = [
            (plus + minus) >> 1 | ((plus - minus) >> half + 1) << bits * ((m + 1) // 2)
            for plus, minus, m in zip(*columns, lengths)
        ]
        plus, minus = [], []
        for run, m in zip(self.slots.reduce_each(runs, lengths), lengths):
            low = bits * ((m + 1) // 2)
            even, odd = run & (1 << low) - 1, run >> low << half
            plus.append(even + odd)
            minus.append(even - odd)
        return [plus, minus]

    def unpack(self, a, length: int) -> list[int]:
        coeffs = [0] * length
        coeffs[::2] = _unpack(a[0], self.width, (length + 1) // 2, self.p)
        coeffs[1::2] = _unpack(a[1], self.width, length // 2, self.p)
        return coeffs


def _inverse_series(form: _OnePoint, h, size: int):
    """The first `size` coefficients of 1/h as a power series, packed in the
    form's slots (wide enough for sums of `size` products); h is packed
    residues whose first one must be nonzero.

    Newton iteration doubles the precision each step: if h*g = 1 mod x^l,
    then h*g = 1 + x^l*e mod x^2l and g - x^l*(g*e) is the inverse mod x^2l.
    """
    steps = []  # the precisions to reach, largest first
    while size > 1:
        steps.append(size)
        size = (size + 1) // 2
    g, known = form.constant(inverse(form.unpack(form.cut(h, 1), 1)[0], form.p)), 1
    for target in reversed(steps):
        gained = target - known
        error = form.shift(form.times(form.cut(h, target), g), -known)
        error = form.reduced(error, gained, negate=True)
        fix = form.reduced(form.times(form.cut(g, gained), error), gained)
        g, known = form.add(g, form.shift(fix, known)), target
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
    inv = _inverse_series(_OnePoint(p, width, size), _pack(den[: -size - 1 : -1], width), size)
    rev_quot = _low(_pack(num[: -size - 1 : -1], width) * inv, width, size)
    return _unpack(rev_quot, width, size, p)[::-1]


class SubproductTree:
    """The product tree of the linear factors (x - r), Kronecker-packed at
    one point or, once that pays (`pays`), at two (see above).

    A node holds U(y) = prod(y + r) over its roots r mod p, whose
    coefficients are all non-negative; T(x) = prod(x - r) is (-1)^m U(-x)
    for m roots, so `root` and `combine` negate alternate coefficients once
    at the end. Every node is packed in reverse, highest coefficient first
    (a leaf y + r as 1, r): the reversal of a product is the product of the
    reversals, so the root holds rev(U), whose power-series inverse gives
    quotients by T (see `quotient_of_product`), and `combine` comes out
    reversed as well. levels[k] holds a level's
    nodes as (one column of values per point, the number of roots under
    each node); levels[0] holds the factors, each further level multiplies
    neighbours pairwise, an odd one out moving up unchanged, and the last
    level holds the one root. Every node uses the tree's one slot width,
    which holds the sum of two products of residues of the tree's largest
    size.

    Nothing cancels in a product of non-negative coefficients: a node's
    coefficients sum to U(1), and U(1) of a product is the product of its
    factors' U(1). bounds[k] bounds U(1) on level k, and a level's products
    are reduced only once that bound reaches p, all in one call of the
    form's reducer. Over the nodes 1..N the lower levels are products of
    small integers and need no reduction at all.
    """

    def __init__(self, ctx: FieldContext, roots):
        p = ctx.p
        roots = [r % p for r in roots]
        n = len(roots)
        self.p, self.size = p, n
        # a level's products hold at most 3 slots per 2 roots
        form = _TwoPoint if pays(p, n) else _OnePoint
        self.form = form = form(p, _slot_width(p, 2 * n + 2), n + n // 2 + 1)
        # a leaf y + r packed in reverse takes the value 1 + r * y at each point
        nodes, sizes = [[1 + r * y for r in roots] for y in form.points], [1] * n
        bound = 1 + max(roots, default=0)  # U(1) = 1 + r of a leaf, at most
        self.levels, self.bounds = [(nodes, sizes)], [bound]
        while len(sizes) > 1:
            bound *= bound
            rest = len(sizes) & ~1
            products = [[a * b for a, b in zip(c[::2], c[1::2])] for c in nodes]
            merged = [a + b for a, b in zip(sizes[::2], sizes[1::2])]
            if bound >= p:
                products = form.reduced_values(products, [m + 1 for m in merged])
                # U(1) on this level k: at most 2^k + 1 coefficients, each below p
                bound = ((1 << len(self.levels)) + 1) * (p - 1)
            nodes = [c_next + c[rest:] for c_next, c in zip(products, nodes)]
            sizes = merged + sizes[rest:]
            self.levels.append((nodes, sizes))
            self.bounds.append(bound)

    def _top(self):
        """The root's packed coefficients, residues (the last level is
        reduced, or its bound is below p)."""
        return self.form.packed([c[0] for c in self.levels[-1][0]])

    def root(self) -> list[int]:
        """Coefficients of prod(x - r); no roots give the constant 1."""
        n = self.size
        coeffs = self.form.unpack(self._top(), n + 1)[::-1] if n else [1]
        # T(x) = (-1)^n U(-x): the coefficient of x^i changes sign when n - i is odd
        coeffs[(n + 1) % 2 :: 2] = [-c % self.p for c in coeffs[(n + 1) % 2 :: 2]]
        return coeffs

    def _combined(self, scales):
        """sum(scales[i] * U_i) packed in reverse (n reduced coefficients),
        U_i the product of all the factors but y + r_i.

        A node's numerator is num_left * U_right + num_right * U_left with U
        the products its children hold. A coefficient of num * U is at most
        max(num) * U(1), and a level's numerators are reduced, in one call,
        only when the next level's could overflow a slot.
        """
        p, form = self.p, self.form
        if not self.size:
            return form.constant(0)
        limit = 1 << 8 * form.width  # every slot value stays below this
        nums = [c % p for c in scales]  # constants: every value is c
        columns, bound = [nums] * len(form.points), p - 1  # bound: on every coefficient
        for (nodes, sizes), node_bound in zip(self.levels[:-1], self.bounds):
            if 2 * bound * node_bound >= limit:
                columns = form.reduced_values(columns, sizes)
                bound = p - 1
            bound *= 2 * node_bound
            rest = len(sizes) & ~1
            columns = [
                [a * d + b * c for a, b, c, d in zip(num[::2], num[1::2], t[::2], t[1::2])]
                + num[rest:]
                for num, t in zip(columns, nodes)
            ]
        return form.reduced(form.packed([c[0] for c in columns]), self.size)

    def combine(self, scales) -> list[int]:
        """Coefficients of sum(scales[i] * root / (x - r_i)).

        The sum is (-1)^(n-1) times sum(scales[i] * U_i(-x)) (see
        `_combined`). With scales[i] = y_i / prod_{j != i} (r_i - r_j) this
        is the polynomial of degree < len(roots) through every (r_i, y_i).
        """
        n = self.size
        coeffs = self.form.unpack(self._combined(scales), n)[::-1]
        # the coefficient of x^j changes sign when n - 1 - j is odd
        coeffs[n % 2 :: 2] = [-c % self.p for c in coeffs[n % 2 :: 2]]
        return coeffs

    def quotient_of_product(self, a_scales, b_scales) -> list[int]:
        """Coefficients of (A * B) // root, A and B the combinations of the
        two scale lists (see `combine`), kept packed from the tree to the
        quotient.

        With A(x) = (-1)^(n-1) a(-x), B likewise and root = (-1)^n U(-x),
        A * B = g(-x) for g = a * b, and the quotient is (-1)^n q(-x) for
        q = g // U. Reversed, rev(q) = rev(g) * rev(U)^-1 mod x^(n-1): f,
        the low n - 1 coefficients of the product of the two reversed
        combinations, times the inverse series of the root.

        The last Newton step and the product by the inverse are folded
        into one (Karp and Markstein, ACM TOMS 23, 1997). With g the
        inverse of rev(U) to half the quotient's precision, q = f * g to
        that precision, and the rest of the quotient is g times the part of
        f - rev(U) * q above it, so no product has two operands of the
        quotient's length.
        """
        n, p, form = self.size, self.p, self.form
        size = n - 1  # deg (A * B) <= 2n - 2 and deg root = n
        if size <= 0:
            return []
        f = form.reduced(form.times(self._combined(a_scales), self._combined(b_scales)), size)
        h = self._top()
        known = (size + 1) // 2
        g = _inverse_series(form, h, known)
        q = form.reduced(form.times(form.cut(f, known), g), known)
        rest = size - known
        if rest:
            error = form.shift(form.times(form.cut(h, size), q), -known)
            error = form.reduced(error, rest, negate=True)
            top = form.cut(form.shift(f, -known), rest)
            error = form.add(error, top)  # slots below 2p
            fix = form.cut(form.times(form.cut(g, rest), error), rest)
            q = form.add(q, form.shift(fix, known))
        coeffs = form.unpack(q, size)[::-1]
        # the coefficient of x^j changes sign when n + j is odd
        coeffs[(n + 1) % 2 :: 2] = [-c % p for c in coeffs[(n + 1) % 2 :: 2]]
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
    top = SubproductTree(ctx, xs).root()[:0:-1]  # master's x^N down to x^1
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
