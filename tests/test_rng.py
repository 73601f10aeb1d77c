import hashlib

import pytest

from snarkpipe.rng import Sha256Rng, derive_seed, parse_seed


def test_same_seed_same_stream():
    a = Sha256Rng(b"seed")
    b = Sha256Rng(b"seed")
    assert [a.randrange(1000) for _ in range(20)] == [
        b.randrange(1000) for _ in range(20)
    ]
    assert a.randbytes(32) == b.randbytes(32)


def test_label_separates_streams():
    a = Sha256Rng(b"seed", label=b"prover")
    b = Sha256Rng(b"seed", label=b"verifier")
    assert a.randbytes(16) != b.randbytes(16)


def test_different_seeds_differ():
    assert Sha256Rng(b"a").randbytes(16) != Sha256Rng(b"b").randbytes(16)


def test_shuffle_is_deterministic():
    a, b = list(range(30)), list(range(30))
    Sha256Rng(b"shuffle").shuffle(a)
    Sha256Rng(b"shuffle").shuffle(b)
    assert a == b
    assert sorted(a) == list(range(30))


def test_getrandbits_width():
    rng = Sha256Rng(b"bits")
    for k in (1, 7, 8, 9, 53, 64, 257):
        for _ in range(20):
            assert 0 <= rng.getrandbits(k) < 2**k
    assert rng.getrandbits(0) == 0


def test_coin_is_roughly_fair():
    rng = Sha256Rng(b"coin")
    heads = sum(rng.getrandbits(1) for _ in range(10000))
    assert 4800 <= heads <= 5200


def test_parse_seed():
    assert parse_seed("00ff") == b"\x00\xff"
    with pytest.raises(ValueError):
        parse_seed("zz")


def test_derive_seed_is_stable_and_labelled():
    base = b"\x01\x02"
    assert derive_seed(base, "x") == derive_seed(base, "x")
    assert derive_seed(base, "x") != derive_seed(base, "y")


def test_state_export_unsupported():
    rng = Sha256Rng(b"s")
    with pytest.raises(NotImplementedError):
        rng.getstate()


# --- seeds and labels are bytes ----------------------------------------------------


@pytest.mark.parametrize("seed", ["seed", 1, None, bytearray(b"seed")],
                         ids=["str", "int", "None", "bytearray"])
def test_non_bytes_seed_is_refused_by_type(seed):
    with pytest.raises(TypeError, match=f"seed must be bytes, not {type(seed).__name__}$"):
        Sha256Rng(seed)


def test_missing_seed_is_refused():
    with pytest.raises(TypeError, match="seed"):
        Sha256Rng()
    rng = Sha256Rng(b"s")
    with pytest.raises(TypeError, match="seed must be bytes, not NoneType"):
        rng.seed()  # random.Random's reseed-from-the-clock form


@pytest.mark.parametrize("label", ["label", 7], ids=["str", "int"])
def test_non_bytes_label_is_refused_by_type(label):
    with pytest.raises(TypeError, match=f"label must be bytes, not {type(label).__name__}$"):
        Sha256Rng(b"seed", label=label)


# SHA-256 of 100 random bytes, a 77-bit draw and 20 randrange(256) draws,
# recorded while the seed and label still accepted other types.
PINNED_STREAMS = (
    (b"seed", b"", "2150ffc3390d484e32da3d77ced41143a2d0fb6f9d4300f4d308acb8ebee9ec4"),
    (b"seed", b"label", "a91dcadd4aa06cada5abecea2a89db5e51382606ee669c6c441fd345b9bdf0ce"),
    (b"", b"trusted-setup", "9e858cd07e29114bd30c16990c9efb3c50042223adc6889b49bdc71fec77c60d"),
    (b"\x01", b"selftest", "c1e81a9a7cd1cf77c62f88e4666a103dabf75a5288616c3d0a89607d4a40bbb5"),
)


@pytest.mark.parametrize("seed,label,digest", PINNED_STREAMS)
def test_byte_streams_are_pinned(seed, label, digest):
    rng = Sha256Rng(seed, label=label)
    data = rng.randbytes(100) + rng.getrandbits(77).to_bytes(10, "little")
    data += bytes([rng.randrange(256) for _ in range(20)])
    assert hashlib.sha256(data).hexdigest() == digest


# --- bulk draws ------------------------------------------------------------------


class BlockAtATimeRng(Sha256Rng):
    """The stream as it was first written: the pool grows one counter block
    per loop turn. The reference for Sha256Rng._take."""

    def _take(self, n: int) -> bytes:
        while len(self._pool) < n:
            block = hashlib.sha256(self._key + self._counter.to_bytes(8, "little")).digest()
            self._counter += 1
            self._pool += block
        out, self._pool = self._pool[:n], self._pool[n:]
        return out


# Sizes on either side of the 32-byte block, and offsets into the pool that
# cover every position within two blocks.
BOUNDARY_SIZES = (0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 9216)
OFFSETS = range(66)


def test_stream_is_counter_mode_sha256():
    key = hashlib.sha256(b"label\x00seed").digest()
    blocks = b"".join(
        hashlib.sha256(key + i.to_bytes(8, "little")).digest() for i in range(4)
    )
    assert Sha256Rng(b"seed", label=b"label").randbytes(128) == blocks


@pytest.mark.parametrize("a", BOUNDARY_SIZES)
def test_consecutive_draws_concatenate(a):
    for b in BOUNDARY_SIZES:
        for offset in OFFSETS:
            one, two = Sha256Rng(b"concat"), Sha256Rng(b"concat")
            assert one.randbytes(offset) == two.randbytes(offset)
            assert one.randbytes(a) + one.randbytes(b) == two.randbytes(a + b)
            assert one.randbytes(40) == two.randbytes(40)  # the streams stay level


def test_one_bit_is_the_top_bit_of_one_byte():
    for offset in OFFSETS:
        one, two = Sha256Rng(b"coin"), Sha256Rng(b"coin")
        one.randbytes(offset), two.randbytes(offset)
        assert [one.getrandbits(1) for _ in range(70)] == [b >> 7 for b in two.randbytes(70)]


def test_bulk_take_matches_block_at_a_time():
    fast, slow = Sha256Rng(b"mixed", label=b"x"), BlockAtATimeRng(b"mixed", label=b"x")
    for size in BOUNDARY_SIZES * 3:
        assert fast.randbytes(size) == slow.randbytes(size)
        assert fast.getrandbits(size % 70) == slow.getrandbits(size % 70)
        a, b = list(range(size % 50)), list(range(size % 50))
        fast.shuffle(a)
        slow.shuffle(b)
        assert a == b
    assert fast.random() == slow.random()
