"""Each form of `SubproductTree`, one Kronecker point or two, against
arithmetic that shares no code with the tree.

A form is forced by moving `TWO_POINT_CUTOFF` while the tree is built. The
oracle is the schoolbook product, division and product of linear factors
(conftest) with barycentric interpolation, and `Polynomial`'s `*` and `//`
where a size makes the schoolbook loops slow. Every form must give the
oracle's target, combinations and quotients over the prover's nodes 1..N
and over roots whose products are the largest a level can hold, on both
sides of the cutoff at which a tree changes its form by itself.
"""

from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from snarkpipe import QAP, FieldContext, Polynomial, Sha256Rng, polynomial  # noqa: E402
from snarkpipe.field import DEFAULT_MODULUS  # noqa: E402
from snarkpipe.polynomial import SubproductTree, pays  # noqa: E402

from conftest import (  # noqa: E402
    StreamRandom,
    schoolbook_divmod,
    schoolbook_from_roots,
    schoolbook_mul,
)

PRIMES = (1009, 2**61 - 1, DEFAULT_MODULUS, 2**127 - 1)
PRIME_IDS = ["p1009", "m61", "default", "m127"]
FORMS = ("one_point", "two_point")  # a tree's form has 1 + the index points
SCHOOLBOOK_MAX = 200  # above this many roots the oracle multiplies with Polynomial
DENSE_MAX = 402  # above this many roots the oracle's scales are a constant with a few changes


def cutoff(p: int) -> int:
    """The fewest roots at which a tree mod p is built in two-point form."""
    return next(n for n in range(1, 1 << 17) if pays(p, n))


def sizes(p: int) -> list:
    c = cutoff(p)
    return list(range(1, 41)) + [c - 1, c, c + 1, 201, 402]


def node_qap(ctx, n):
    """A QAP over the nodes 1..n with no symbols: only its node state is used."""
    return QAP(ctx=ctx, n_gates=n, symbols=(), symbol_names=(), rows=[((), (), ())] * n)


def tree_in(form: str, ctx, roots) -> SubproductTree:
    """The tree over the roots, forced into the form by the cutoff it is
    built under."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polynomial, "TWO_POINT_CUTOFF", 0 if form == "two_point" else 1 << 64)
        tree = SubproductTree(ctx, roots)
    assert len(tree.form.points) == FORMS.index(form) + 1
    return tree


class Oracle:
    """T = prod(x - r), the combinations sum(scales[i] * T / (x - r_i)) and
    quotients by T over the roots, with no code of the tree."""

    def __init__(self, ctx, roots):
        self.ctx, self.p, self.roots = ctx, ctx.p, [r % ctx.p for r in roots]
        if len(self.roots) <= SCHOOLBOOK_MAX:
            self.target = schoolbook_from_roots(self.roots, self.p)
        else:
            factors = [Polynomial(ctx, [-r, 1]) for r in self.roots]
            while len(factors) > 1:
                factors = [
                    a * b for a, b in zip(factors[::2], factors[1::2])
                ] + factors[len(factors) & ~1 :]
            self.target = list(factors[0].coeffs)

    def combination(self, scales) -> list:
        """The barycentric sum: c * T' for the commonest scale c, plus each
        other scale's difference from c times T / (x - r), that quotient by
        synthetic division."""
        p, t = self.p, self.target
        if not scales:
            return []
        common = Counter(scales).most_common(1)[0][0]
        acc = [common * i * c for i, c in enumerate(t)][1:]
        for r, scale in zip(self.roots, scales):
            if scale != common:
                cofactor, carry = [], 0  # top coefficient first
                for c in t[:0:-1]:
                    carry = (c + r * carry) % p
                    cofactor.append(carry)
                acc = [a + (scale - common) * c for a, c in zip(acc, cofactor[::-1])]
        return [a % p for a in acc]

    def quotient(self, a_scales, b_scales) -> Polynomial:
        p, ctx = self.p, self.ctx
        a, b = self.combination(a_scales), self.combination(b_scales)
        if len(self.roots) <= SCHOOLBOOK_MAX:
            return Polynomial(ctx, schoolbook_divmod(schoolbook_mul(a, b, p), self.target, p)[0])
        return (Polynomial(ctx, a) * Polynomial(ctx, b)) // Polynomial(ctx, self.target)


def assert_tree_matches(tree, oracle, a, b):
    ctx = oracle.ctx
    assert Polynomial(ctx, tree.root()) == Polynomial(ctx, oracle.target)
    assert len(tree.root()) == len(oracle.roots) + 1
    assert Polynomial(ctx, tree.combine(a)) == Polynomial(ctx, oracle.combination(a))
    assert Polynomial(ctx, tree.quotient_of_product(a, b)) == oracle.quotient(a, b)


def test_cutoff_falls_where_the_sweep_put_it():
    # 127 nodes at the default modulus, 37 at 2^127 - 1 (README, "Where prove
    # spends its time"); p = 1009 admits no QAP that large (p > 2N).
    assert cutoff(DEFAULT_MODULUS) == 127
    assert cutoff(2**127 - 1) == 37
    assert cutoff(1009) > 1009 // 2


@st.composite
def scale_lists(draw, p: int, n: int, dense: bool = True) -> list:
    """n scales: all 0, all p - 1 or, if dense, a seeded stream of residues,
    with up to 8 drawn entries written over them."""
    fill = draw(st.sampled_from([0, p - 1] + [None] * dense))
    if fill is None:
        rng = StreamRandom(Sha256Rng(draw(st.binary(min_size=1, max_size=4))))
        scales = [rng.randrange(p) for _ in range(n)]
    else:
        scales = [fill] * n
    if n:
        for i, value in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, p - 1)),
                                      max_size=8)):
            scales[i] = value
    return scales


@pytest.mark.parametrize("p", PRIMES, ids=PRIME_IDS)
@settings(derandomize=True, deadline=None, max_examples=4, database=None)
@given(data=st.data())
def test_each_form_matches_the_oracle_over_the_nodes(p, data):
    ctx = FieldContext(p)
    for n in sizes(p):
        roots = range(1, n + 1)
        a, b = (data.draw(scale_lists(p, n, n <= DENSE_MAX)) for _ in "ab")
        oracle = Oracle(ctx, roots)
        for form in FORMS:
            assert_tree_matches(tree_in(form, ctx, roots), oracle, a, b)


def edge_roots(p: int, label: bytes):
    """Per size, the nodes and roots near p, whose nodes have the largest
    U(1) and so reach every reduction bound."""
    rng = StreamRandom(Sha256Rng(label, label=str(p).encode()))
    for n in sizes(p):
        yield n, range(1, n + 1)
        yield n, [rng.choice((0, p - 1, p - 2)) for _ in range(n)]


@pytest.mark.parametrize("p", PRIMES, ids=PRIME_IDS)
def test_each_form_matches_the_oracle_at_the_edges(p):
    ctx = FieldContext(p)
    for n, roots in edge_roots(p, b"two-point-oracle-edges"):
        oracle = Oracle(ctx, roots)
        for form in FORMS:
            tree = tree_in(form, ctx, roots)
            for a, b in (([0] * n, [p - 1] * n), ([p - 1] * n, [p - 1] * n)):
                assert_tree_matches(tree, oracle, a, b)


# The two forms must also return the same lists, leading zeros of a
# quotient included, wherever the cutoff puts a tree.


@pytest.mark.parametrize("p", PRIMES, ids=PRIME_IDS)
@settings(derandomize=True, deadline=None, max_examples=6, database=None)
@given(data=st.data())
def test_quotient_matches_the_one_point_tree_over_the_nodes(p, data):
    ctx = FieldContext(p)
    for n in sizes(p):
        roots = range(1, n + 1)
        a, b = data.draw(scale_lists(p, n)), data.draw(scale_lists(p, n))
        got = tree_in("two_point", ctx, roots).quotient_of_product(a, b)
        assert got == tree_in("one_point", ctx, roots).quotient_of_product(a, b), (n, a, b)


@pytest.mark.parametrize("p", PRIMES, ids=PRIME_IDS)
def test_quotient_matches_the_one_point_tree_at_the_edges(p):
    # All-zero and all-(p - 1) scales, over the nodes and over roots near p.
    ctx = FieldContext(p)
    for n, roots in edge_roots(p, b"two-point-edges"):
        one, two = tree_in("one_point", ctx, roots), tree_in("two_point", ctx, roots)
        assert two.root() == one.root()
        for a, b in (([0] * n, [p - 1] * n), ([p - 1] * n, [p - 1] * n)):
            assert two.combine(a) == one.combine(a), (n, roots)
            assert two.quotient_of_product(a, b) == one.quotient_of_product(a, b), (n, roots)


def test_empty_and_single_root_trees_have_no_quotient():
    ctx = FieldContext()
    for form in FORMS:
        for n in (0, 1):
            tree = tree_in(form, ctx, range(1, n + 1))
            assert tree.quotient_of_product([5] * n, [7] * n) == []
            assert tree.root() == [[1], [ctx.p - 1, 1]][n]
            assert tree.combine([5] * n) == [5] * n


@pytest.mark.parametrize("p", [DEFAULT_MODULUS, 2**127 - 1], ids=["default", "m127"])
def test_qap_quotient_switches_trees_at_the_cutoff(p, monkeypatch):
    ctx = FieldContext(p)
    rng = StreamRandom(Sha256Rng(b"two-point-switch", label=str(p).encode()))
    built = []
    init = SubproductTree.__init__

    def recording(self, ctx, roots):
        init(self, ctx, roots)
        built.append(FORMS[len(self.form.points) - 1])

    monkeypatch.setattr(SubproductTree, "__init__", recording)
    c = cutoff(p)
    for n, want in ((c - 1, "one_point"), (c, "two_point"), (c + 1, "two_point")):
        built.clear()
        qap = node_qap(ctx, n)
        at_v, at_w = ([rng.randrange(p) for _ in range(n)] for _ in "vw")
        h = qap.quotient(at_v, at_w)
        # one tree, built for the call alone in the form its size takes
        assert built == [want], n
        assert "tree" not in qap.__dict__
        assert h.degree == n - 2
        assert h == Oracle(ctx, range(1, n + 1)).quotient(qap._scales(at_v), qap._scales(at_w))
