"""Barrett reduction of packed slots against the per-slot loop it replaced.

`_SlotReducer.reduce` must give, for every prime, slot width and slot value,
and for both signs, exactly what `slot_reduce` (conftest) gives one slot at a
time. Small primes in wide slots are the hard case: there the first round
removes most of a slot's bits, and a bound off by one shows at once.
"""

import gc

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from snarkpipe import QAP, FieldContext  # noqa: E402
from snarkpipe.field import DEFAULT_MODULUS, is_probable_prime  # noqa: E402
from snarkpipe import polynomial  # noqa: E402
from snarkpipe.polynomial import (  # noqa: E402
    Polynomial,
    SubproductTree,
    _pack,
    _slot_width,
    _SlotReducer,
)

from conftest import slot_reduce  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300, database=None)


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


PRIMES = (
    97,
    101,
    131,
    65537,
    2**61 - 1,
    DEFAULT_MODULUS,
    next_prime(2**64),
    2**127 - 1,
)
MAX_TERMS = 65537


def widths(p: int) -> list:
    """Every slot width `_slot_width(p, terms)` takes for terms 1..65537."""
    terms = [1 << j for j in range(MAX_TERMS.bit_length())] + [MAX_TERMS]
    return sorted({_slot_width(p, t) for t in terms})


def special_slots(p: int, width: int) -> list:
    top = 1 << 8 * width
    return [0, p - 1, p, 2 * p - 1, top - 1, top - p]


def assert_matches_loop(p: int, width: int, slots: list, spare: int = 0) -> None:
    """Both signs, with a reducer built for `spare` more slots than used."""
    reducer = _SlotReducer(p, width, len(slots) + spare)
    value = _pack(slots, width)
    for sign in (1, -1):
        want = slot_reduce(value, width, len(slots), p, sign)
        assert reducer.reduce(value, negate=sign < 0) == want, (p, width, slots, sign)


@pytest.mark.parametrize("p", PRIMES)
def test_every_width_reduces_the_edge_slots_as_the_loop(p):
    for width in widths(p):
        special = special_slots(p, width)
        for slot in special:
            assert_matches_loop(p, width, [slot])
            assert_matches_loop(p, width, [slot, 0, slot], spare=5)
        assert_matches_loop(p, width, special + special[::-1], spare=1)


@st.composite
def primes(draw):
    fixed = st.sampled_from(PRIMES)
    drawn = st.integers(5, 200).flatmap(lambda b: st.integers(1 << b - 1, (1 << b) - 1))
    return draw(st.one_of(fixed, drawn.map(next_prime)))


@SETTINGS
@given(p=primes(), terms=st.integers(1, MAX_TERMS), data=st.data())
def test_reduction_matches_the_per_slot_loop(p, terms, data):
    width = _slot_width(p, terms)
    special = special_slots(p, width)
    slot = st.one_of(st.sampled_from(special), st.integers(0, (1 << 8 * width) - 1))
    slots = data.draw(st.lists(slot, max_size=40))
    spare = data.draw(st.integers(0, 3))
    assert_matches_loop(p, width, slots, spare)
    # reduce_each: the same slots cut into runs, reduced by one call
    cuts = sorted(data.draw(st.lists(st.integers(0, len(slots)), max_size=4)))
    runs = [slots[i:j] for i, j in zip([0] + cuts, cuts + [len(slots)])]
    lengths = [len(run) for run in runs]
    reducer = _SlotReducer(p, width, len(slots) + spare)
    got = reducer.reduce_each([_pack(run, width) for run in runs], lengths)
    assert got == [slot_reduce(_pack(run, width), width, len(run), p) for run in runs]


def test_no_reducer_outlives_the_tree_or_operation_that_built_it(monkeypatch):
    def live() -> int:
        gc.collect()
        return sum(isinstance(o, _SlotReducer) for o in gc.get_objects())

    ctx = FieldContext()
    before = live()
    scales = list(range(201))
    for cutoff in (1 << 64, 0):  # the one-point form, then the two-point one
        monkeypatch.setattr(polynomial, "TWO_POINT_CUTOFF", cutoff)
        tree = SubproductTree(ctx, range(1, 202))
        tree.quotient_of_product(scales, scales[::-1])
        assert live() == before + 1  # the tree's own
        f = Polynomial(ctx, range(1, 60))
        divmod(f, Polynomial(ctx, range(2, 30)))
        del tree
        assert live() == before
        # a QAP's quotient builds a tree for the call alone, in either form
        qap = QAP(ctx=ctx, n_gates=201, symbols=(), symbol_names=(), rows=[((), (), ())] * 201)
        qap.quotient(scales, scales[::-1])
        assert live() == before
        assert not any(isinstance(v, SubproductTree) for v in vars(qap).values())
