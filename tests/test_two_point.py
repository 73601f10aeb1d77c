"""`TwoPointTree` against `SubproductTree`, the one-point tree it stands in
for on large trees.

Both must give the quotient of A * B by the root coefficient for
coefficient, over the prover's nodes 1..N and over roots whose products are
the largest a level can hold, on both sides of the cutoff at which
`QAP.quotient` switches from one to the other.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from snarkpipe import QAP, FieldContext, Polynomial, Sha256Rng  # noqa: E402
from snarkpipe.field import DEFAULT_MODULUS  # noqa: E402
from snarkpipe.polynomial import SubproductTree, TwoPointTree  # noqa: E402

from conftest import StreamRandom  # noqa: E402

PRIMES = (1009, 2**61 - 1, DEFAULT_MODULUS, 2**127 - 1)
PRIME_IDS = ["p1009", "m61", "default", "m127"]


def cutoff(p: int) -> int:
    """The fewest roots at which a tree mod p is built in two-point form."""
    return next(n for n in range(1, 1 << 17) if TwoPointTree.pays(p, n))


def sizes(p: int) -> list:
    c = cutoff(p)
    return list(range(1, 41)) + [c - 1, c, 201, 402]


def node_qap(ctx, n):
    """A QAP over the nodes 1..n with no symbols: only its node state is used."""
    return QAP(ctx=ctx, n_gates=n, symbols=(), symbol_names=(), rows=[((), (), ())] * n)


def test_cutoff_falls_where_the_sweep_put_it():
    # 127 nodes at the default modulus, 37 at 2^127 - 1 (README, "Where prove
    # spends its time"); p = 1009 admits no QAP that large (p > 2N).
    assert cutoff(DEFAULT_MODULUS) == 127
    assert cutoff(2**127 - 1) == 37
    assert cutoff(1009) > 1009 // 2


@st.composite
def scale_lists(draw, p: int, n: int) -> list:
    """n scales: all 0, all p - 1 or a seeded stream of residues, with up to
    8 drawn entries written over them."""
    fill = draw(st.sampled_from([0, p - 1, None]))
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
@settings(derandomize=True, deadline=None, max_examples=6, database=None)
@given(data=st.data())
def test_quotient_matches_the_one_point_tree_over_the_nodes(p, data):
    ctx = FieldContext(p)
    for n in sizes(p):
        roots = range(1, n + 1)
        a, b = data.draw(scale_lists(p, n)), data.draw(scale_lists(p, n))
        got = TwoPointTree(ctx, roots).quotient_of_product(a, b)
        assert got == SubproductTree(ctx, roots).quotient_of_product(a, b), (n, a, b)


@pytest.mark.parametrize("p", PRIMES, ids=PRIME_IDS)
def test_quotient_matches_the_one_point_tree_at_the_edges(p):
    # All-zero and all-(p - 1) scales, over the nodes and over roots near p,
    # whose nodes have the largest U(1) and so reach every reduction bound.
    ctx = FieldContext(p)
    rng = StreamRandom(Sha256Rng(b"two-point-edges", label=str(p).encode()))
    for n in sizes(p):
        for roots in (range(1, n + 1), [rng.choice((0, p - 1, p - 2)) for _ in range(n)]):
            one, two = SubproductTree(ctx, roots), TwoPointTree(ctx, roots)
            for a, b in (([0] * n, [p - 1] * n), ([p - 1] * n, [p - 1] * n)):
                assert two.quotient_of_product(a, b) == one.quotient_of_product(a, b), (n, roots)


def test_empty_and_single_root_trees_have_no_quotient():
    ctx = FieldContext()
    for n in (0, 1):
        assert TwoPointTree(ctx, range(1, n + 1)).quotient_of_product([5] * n, [7] * n) == []


@pytest.mark.parametrize("p", [DEFAULT_MODULUS, 2**127 - 1], ids=["default", "m127"])
def test_qap_quotient_switches_trees_at_the_cutoff(p, monkeypatch):
    ctx = FieldContext(p)
    rng = StreamRandom(Sha256Rng(b"two-point-switch", label=str(p).encode()))
    built = []
    for cls in (SubproductTree, TwoPointTree):
        init = cls.__init__

        def recording(self, ctx, roots, cls=cls, init=init):
            built.append(cls)
            init(self, ctx, roots)

        monkeypatch.setattr(cls, "__init__", recording)
    c = cutoff(p)
    for n, want in ((c - 1, SubproductTree), (c, TwoPointTree), (c + 1, TwoPointTree)):
        built.clear()
        qap = node_qap(ctx, n)
        at_v, at_w = ([rng.randrange(p) for _ in range(n)] for _ in "vw")
        h = qap.quotient(at_v, at_w)
        assert built == [want], n
        assert ("tree" in qap.__dict__) == (want is SubproductTree)
        assert h.degree == n - 2
        # the one-point tree over the same nodes gives the same H
        tree = SubproductTree(ctx, range(1, n + 1))
        assert h == Polynomial(ctx, tree.quotient_of_product(qap._scales(at_v), qap._scales(at_w)))
