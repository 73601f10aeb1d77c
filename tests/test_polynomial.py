import pytest

from snarkpipe import (
    QAP,
    DivisionByZero,
    DuplicateNode,
    FieldContext,
    Polynomial,
    Sha256Rng,
    lagrange_basis,
)
from snarkpipe import polynomial
from snarkpipe.polynomial import SubproductTree, _pack, _reduce, _slot_width, _unpack


def rand_poly(ctx, rng, max_degree):
    return Polynomial(ctx, [rng.randrange(ctx.p) for _ in range(rng.randrange(max_degree + 2))])


def test_canonical_form_strips_trailing_zeros(ctx17):
    assert Polynomial(ctx17, [1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial(ctx17, [0, 0]).coeffs == ()
    assert Polynomial(ctx17, [17, 34]).is_zero()


def test_degree_convention(ctx17):
    assert Polynomial.zero(ctx17).degree == -1
    assert Polynomial(ctx17, [5]).degree == 0
    assert Polynomial(ctx17, [0, 0, 3]).degree == 2


def test_degree_of_product_adds(ctx17):
    rng = Sha256Rng(b"degrees")
    for _ in range(50):
        a = rand_poly(ctx17, rng, 6)
        b = rand_poly(ctx17, rng, 6)
        if a.is_zero() or b.is_zero():
            assert (a * b).is_zero()
        else:
            assert (a * b).degree == a.degree + b.degree


def test_divmod_known_factorization(ctx17):
    q, r = divmod(Polynomial(ctx17, [-1, 0, 1]), Polynomial(ctx17, [-1, 1]))
    assert q.coeffs == (1, 1)  # x + 1
    assert r.is_zero()


def test_divmod_with_remainder(ctx17):
    numerator = Polynomial(ctx17, [1, 0, 1])  # x^2 + 1
    denominator = Polynomial(ctx17, [-1, 1])  # x - 1
    q, r = divmod(numerator, denominator)
    assert q.coeffs == (1, 1)
    assert r.coeffs == (2,)
    assert q * denominator + r == numerator


def test_divmod_zero_numerator(ctx17):
    q, r = divmod(Polynomial.zero(ctx17), Polynomial(ctx17, [-3, 1]))
    assert q.is_zero() and r.is_zero()


def test_divmod_zero_denominator(ctx17):
    with pytest.raises(DivisionByZero):
        divmod(Polynomial(ctx17, [1, 1]), Polynomial.zero(ctx17))


def test_divmod_reconstruction_property(ctx):
    rng = Sha256Rng(b"divmod-property")
    for _ in range(300):
        numerator = rand_poly(ctx, rng, 32)
        denominator = Polynomial(
            ctx,
            [rng.randrange(ctx.p) for _ in range(rng.randrange(1, 9))]
            + [rng.randrange(1, ctx.p)],
        )
        q, r = divmod(numerator, denominator)
        assert q * denominator + r == numerator
        assert r.degree < denominator.degree


def test_interpolate_constant(ctx17):
    assert Polynomial.interpolate(ctx17, [(1, 5), (2, 5)]).coeffs == (5,)


def test_interpolate_line(ctx17):
    poly = Polynomial.interpolate(ctx17, [(1, 2), (2, 4), (3, 6)])
    assert poly.coeffs == (0, 2)  # 2x
    for x, y in [(1, 2), (2, 4), (3, 6)]:
        assert poly.eval_int(x) == y


def test_interpolate_selector_shape(ctx17):
    # One at the first node, zero at the second: the selector shape used per
    # gate output.
    poly = Polynomial.interpolate(ctx17, [(1, 1), (2, 0)])
    assert poly.eval_int(1) == 1
    assert poly.eval_int(2) == 0


def test_interpolate_duplicate_node(ctx17):
    with pytest.raises(DuplicateNode):
        Polynomial.interpolate(ctx17, [(1, 5), (1, 6)])


def test_interpolation_round_trip_up_to_128_nodes(ctx):
    rng = Sha256Rng(b"interp-roundtrip")
    for size in (1, 2, 3, 17, 64, 128):
        xs = set()
        while len(xs) < size:
            xs.add(rng.randrange(ctx.p))
        xs = sorted(xs)
        ys = [rng.randrange(ctx.p) for _ in range(size)]
        poly = Polynomial.interpolate(ctx, list(zip(xs, ys)))
        assert poly.degree < size
        for x, y in zip(xs, ys):
            assert poly.eval_int(x) == y


def test_weighted_sum(ctx17):
    a = Polynomial(ctx17, [1, 2, 3])
    b = Polynomial(ctx17, [5, 16])
    assert Polynomial.weighted_sum(ctx17, []) == Polynomial.zero(ctx17)
    assert Polynomial.weighted_sum(ctx17, [(0, a)]) == Polynomial.zero(ctx17)
    total = Polynomial.weighted_sum(ctx17, [(3, a), (-2, b), (20, a)])
    assert total.coeffs == ((23 - 10) % 17, (46 - 32) % 17, 69 % 17)
    # cancelling leading terms leave no trailing zero
    assert Polynomial.weighted_sum(ctx17, [(1, a), (16, a), (1, b)]) == b


def test_lagrange_basis_is_indicator(ctx17):
    nodes = [1, 2, 3, 4, 5]
    basis = lagrange_basis(ctx17, nodes)
    for i, poly in enumerate(basis):
        for j, x in enumerate(nodes):
            assert poly.eval_int(x) == (1 if i == j else 0)


def test_from_roots_vanishes_exactly_there(ctx17):
    poly = Polynomial.from_roots(ctx17, [1, 2, 3])
    assert poly.degree == 3
    assert poly.coeffs[-1] == 1  # monic
    roots = {x for x in range(17) if poly.eval_int(x) == 0}
    assert roots == {1, 2, 3}


def test_operator_algebra(ctx17):
    a = Polynomial(ctx17, [1, 2])
    b = Polynomial(ctx17, [3, 0, 4])
    assert a + b == Polynomial(ctx17, [4, 2, 4])
    assert b - a == Polynomial(ctx17, [2, 15, 4])
    assert a - b == Polynomial(ctx17, [15, 2, 13])
    assert a + Polynomial.zero(ctx17) == a
    assert a * b == Polynomial(ctx17, [3, 6, 4, 8])


def test_eval_matches_naive_sum(ctx17):
    rng = Sha256Rng(b"horner")
    for _ in range(50):
        poly = rand_poly(ctx17, rng, 8)
        x = rng.randrange(17)
        naive = sum(c * x**i for i, c in enumerate(poly.coeffs)) % 17
        assert poly.eval_int(x) == naive


def test_mixed_moduli_rejected(ctx17, ctx101):
    with pytest.raises(ValueError):
        Polynomial(ctx17, [1]) + Polynomial(ctx101, [1])
    with pytest.raises(ValueError):
        divmod(Polynomial(ctx17, [1, 1]), Polynomial(ctx101, [1]))


# --- the fast kernels against the schoolbook oracle -----------------------------
#
# These are the quadratic bodies that __mul__, __divmod__ and from_roots had
# before Kronecker substitution, Newton division and the product tree took
# their place; every fast kernel must give exactly their residues. The whole
# section runs in about 3 s.

MODULI = (17, 97, None)  # None: the default 64-bit modulus


def schoolbook_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


def schoolbook_divmod(num, den, p):
    num = list(num)
    if len(num) < len(den):
        return [], num
    lead_inv = pow(den[-1], p - 2, p)
    quot = [0] * (len(num) - len(den) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        q = num[shift + len(den) - 1] * lead_inv % p
        quot[shift] = q
        for i, d in enumerate(den):
            num[shift + i] = (num[shift + i] - q * d) % p
    return quot, num[: len(den) - 1]


def schoolbook_from_roots(roots, p):
    coeffs = [1]
    for r in roots:
        coeffs.append(0)
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] = (coeffs[i - 1] - r * coeffs[i]) % p
        coeffs[0] = (-r * coeffs[0]) % p
    return coeffs


def field_for(p):
    return FieldContext() if p is None else FieldContext(p)


def random_coeffs(rng, p, length, nonzero_lead=False):
    coeffs = [rng.randrange(p) for _ in range(length)]
    if nonzero_lead and coeffs:
        coeffs[-1] = rng.randrange(1, p)
    return coeffs


def random_length(rng):
    # Mostly short, sometimes up to 300 coefficients.
    return rng.randrange(301) if rng.randrange(4) == 0 else rng.randrange(12)


@pytest.mark.parametrize("modulus", MODULI, ids=["p17", "p97", "default"])
def test_product_matches_schoolbook(modulus):
    ctx = field_for(modulus)
    p = ctx.p
    rng = Sha256Rng(b"kronecker-product", label=str(p).encode())
    cases = [([], []), ([], [1, 2]), ([p - 1] * 300, [p - 1] * 300)]
    cases += [
        (random_coeffs(rng, p, random_length(rng)), random_coeffs(rng, p, random_length(rng)))
        for _ in range(150)
    ]
    for a, b in cases:
        product = Polynomial(ctx, a) * Polynomial(ctx, b)
        assert product == Polynomial(ctx, schoolbook_mul(a, b, p)), (a, b)


@pytest.mark.parametrize("modulus", MODULI, ids=["p17", "p97", "default"])
def test_divmod_matches_schoolbook(modulus):
    ctx = field_for(modulus)
    p = ctx.p
    rng = Sha256Rng(b"newton-division", label=str(p).encode())
    cases = [([], [3]), ([1, 2, 3], [5]), ([1, 2], [1, 2, 3, 4]), ([p - 1] * 300, [p - 1] * 150)]
    for _ in range(150):
        num = random_coeffs(rng, p, random_length(rng))
        # non-monic divisors, longer than the dividend about half the time
        den = random_coeffs(rng, p, 1 + random_length(rng), nonzero_lead=True)
        cases.append((num, den))
    for num, den in cases:
        quot, rem = divmod(Polynomial(ctx, num), Polynomial(ctx, den))
        want_quot, want_rem = schoolbook_divmod(Polynomial(ctx, num).coeffs, den, p)
        assert quot == Polynomial(ctx, want_quot), (num, den)
        assert rem == Polynomial(ctx, want_rem), (num, den)


@pytest.mark.parametrize("modulus", MODULI, ids=["p17", "p97", "default"])
def test_from_roots_matches_schoolbook(modulus):
    ctx = field_for(modulus)
    p = ctx.p
    rng = Sha256Rng(b"product-tree", label=str(p).encode())
    cases = [[], [0], [p], [5] * 9, list(range(1, 301)), [p + 1, 2 * p + 1, 1]]
    for _ in range(100):
        # roots at or above p, and repeats once they outnumber the field
        cases.append([rng.randrange(3 * p) for _ in range(random_length(rng))])
    for roots in cases:
        assert Polynomial.from_roots(ctx, roots).coeffs == tuple(
            schoolbook_from_roots(roots, p)
        ), roots


def node_qap(ctx, n):
    """A QAP over the nodes 1..n with no symbols: only its node state is used."""
    return QAP(ctx=ctx, n_gates=n, symbols=(), symbol_names=(), rows=[((), (), ())] * n)


def basis_interpolation(ctx, values):
    basis = lagrange_basis(ctx, range(1, len(values) + 1))
    return Polynomial.weighted_sum(ctx, zip(values, basis))


@pytest.mark.parametrize("modulus,sizes", [
    (97, range(1, 49)),  # every N the field admits: 97 > 2N
    # every N to 64, then every 7th to 300: the oracle is quadratic per size
    (None, list(range(1, 65)) + list(range(65, 301, 7)) + [300]),
], ids=["p97", "default"])
def test_tree_interpolation_matches_lagrange_basis(modulus, sizes):
    ctx = field_for(modulus)
    p = ctx.p
    rng = Sha256Rng(b"tree-interpolation", label=str(p).encode())
    for n in sizes:
        qap = node_qap(ctx, n)
        values = random_coeffs(rng, p, n)
        values[rng.randrange(n)] = 0  # absent nodes hold 0
        column = {d: y for d, y in enumerate(values, start=1) if y}
        assert qap.interpolate(column) == basis_interpolation(ctx, values), n
        assert qap.target.coeffs == tuple(schoolbook_from_roots(range(1, n + 1), p))


def test_sparse_columns_match_lagrange_basis(ctx):
    # The emitted file's columns against the tree (QAP.interpolate) and a
    # basis interpolation of the dense node values.
    rng = Sha256Rng(b"sparse-columns")
    for n in (1, 2, 7, 69, 150):
        columns = [{}]
        for _ in range(12):
            nodes = {rng.randrange(1, n + 1) for _ in range(rng.randrange(1, 4))}
            columns.append({d: rng.randrange(ctx.p) for d in nodes})
        families = {"v": columns, "w": columns[1:] + columns[:1], "k": columns[::-1]}
        names = tuple(f"s{i}" for i in range(len(columns)))
        rows = [
            tuple(
                tuple((i, col[d]) for i, col in enumerate(families[family]) if d in col)
                for family in "vwk"
            )
            for d in range(1, n + 1)
        ]
        qap = QAP(ctx=ctx, n_gates=n, symbols=names, symbol_names=names, rows=rows)
        emitted = qap.to_json_dict()
        for family, cols in families.items():
            for col, coeffs in zip(cols, emitted[family], strict=True):
                poly = Polynomial(ctx, [int(c) for c in coeffs])
                assert [str(c) for c in poly.coeffs] == coeffs  # canonical, no trailing zero
                values = [col.get(d, 0) for d in range(1, n + 1)]
                assert poly == basis_interpolation(ctx, values) == qap.interpolate(col)


@pytest.mark.parametrize("modulus", (97, None), ids=["p97", "default"])
def test_closed_form_lagrange_values_match_horner(modulus):
    ctx = field_for(modulus)
    p = ctx.p
    rng = Sha256Rng(b"lagrange-at-s", label=str(p).encode())
    for n in list(range(1, 49)) + ([100, 201] if modulus is None else []):
        s = rng.randrange(n + 1, p)  # setup's trapdoor rule: s > N
        qap = node_qap(ctx, n)
        target_at_s, values = qap.lagrange_at(s)
        assert values == [poly.eval_int(s) for poly in lagrange_basis(ctx, range(1, n + 1))]
        assert target_at_s == qap.target.eval_int(s)


def test_subproduct_tree_combines_over_arbitrary_roots(ctx97):
    rng = Sha256Rng(b"tree-any-roots")
    for size in (1, 2, 3, 5, 16, 33):
        roots = rng.sample(range(97), size)
        tree = SubproductTree(ctx97, roots)
        assert Polynomial(ctx97, tree.root()) == Polynomial.from_roots(ctx97, roots)
        ys = [rng.randrange(97) for _ in roots]
        scales = []
        for r, y in zip(roots, ys):
            den = 1
            for other in roots:
                if other != r:
                    den = den * (r - other) % 97
            scales.append(y * pow(den, 95, 97))
        assert Polynomial(ctx97, tree.combine(scales)) == Polynomial.interpolate(
            ctx97, zip(roots, ys)
        )


# --- the product tree against the body it replaced ---------------------------------


class ReducingSubproductTree:
    """`SubproductTree` before its nodes held prod(y + r): every node holds
    prod(x - r) as residues, and every product and every numerator is reduced
    as soon as it is formed."""

    def __init__(self, ctx, roots):
        p = ctx.p
        roots = list(roots)
        self.p, self.size = p, len(roots)
        self.width = width = _slot_width(p, 2 * len(roots) + 2)
        nodes = [(_pack([-r % p, 1], width), 1) for r in roots]
        self.levels = [nodes]
        while len(nodes) > 1:
            nodes = [
                (_reduce(t_l * t_r, width, m_l + m_r + 1, p), m_l + m_r)
                for (t_l, m_l), (t_r, m_r) in zip(nodes[::2], nodes[1::2])
            ] + nodes[len(nodes) & ~1 :]
            self.levels.append(nodes)

    def root(self):
        if not self.size:
            return [1]
        return _unpack(self.levels[-1][0][0], self.width, self.size + 1, self.p)

    def combine(self, scales):
        p, width = self.p, self.width
        nums = [c % p for c in scales]
        for nodes in self.levels[:-1]:
            paired = zip(nums[::2], nums[1::2], nodes[::2], nodes[1::2])
            nums = [
                _reduce(n_l * t_r + n_r * t_l, width, m_l + m_r, p)
                for n_l, n_r, (t_l, m_l), (t_r, m_r) in paired
            ] + nums[len(nums) & ~1 :]
        return _unpack(nums[0], width, self.size, p) if nums else []


# Sizes 0-3, and 2^k - 1, 2^k and 2^k + 1, around which the first level that
# needs a reduction moves, at the test field, the default and 2^61 - 1.
TREE_SIZES = [0, 1, 2, 3] + [m for k in range(2, 9) for m in (2**k - 1, 2**k, 2**k + 1)]


@pytest.mark.parametrize("modulus", (97, None, 2**61 - 1), ids=["p97", "default", "m61"])
def test_subproduct_tree_matches_the_reducing_tree(modulus):
    ctx = field_for(modulus)
    p = ctx.p
    rng = Sha256Rng(b"tree-bounds", label=str(p).encode())
    for n in TREE_SIZES:
        root_lists = [
            list(range(1, n + 1)),  # the QAP's nodes, repeating mod 97 past 96
            [rng.choice((0, p - 1, p - 2)) for _ in range(n)],  # the largest U(1)
            [rng.randrange(p) for _ in range(n)],
        ]
        for roots in root_lists:
            tree, oracle = SubproductTree(ctx, roots), ReducingSubproductTree(ctx, roots)
            assert tree.root() == oracle.root() == schoolbook_from_roots(roots, p), (n, roots)
            for scales in ([0] * n, [p - 1] * n, random_coeffs(rng, p, n)):
                combined = tree.combine(scales)
                assert combined == oracle.combine(scales), (n, roots, scales)
                if n <= 17:
                    want = [0] * n
                    for i, scale in enumerate(scales):
                        others = schoolbook_from_roots(roots[:i] + roots[i + 1 :], p)
                        want = [a + scale * b for a, b in zip(want, others)]
                    assert combined == [c % p for c in want], (n, roots, scales)


def test_tree_over_the_nodes_reduces_only_levels_whose_bound_reaches_p(monkeypatch):
    # Over the nodes 1..201 a node on level k has U(1) <= 202^(2^k), below the
    # default p up to level 3, so only the products of levels 4-8 are reduced:
    # 13 + 6 + 3 + 2 + 1 of them, where reducing every product takes 200.
    ctx = FieldContext()
    calls = []
    monkeypatch.setattr(polynomial, "_reduce", lambda *args: calls.append(args) or _reduce(*args))
    tree = SubproductTree(ctx, range(1, 202))
    assert tree.bounds[3] == 202**8 < ctx.p <= tree.bounds[4]
    assert len(calls) == 25
    assert tree.root() == ReducingSubproductTree(ctx, range(1, 202)).root()
