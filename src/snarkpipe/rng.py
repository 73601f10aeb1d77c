"""Seedable deterministic randomness: SHA-256 in counter mode.

The generator hashes label || seed into a key and then streams
SHA-256(key || counter) blocks, each hashed from a copy of one SHA-256
state already fed the key. Identical seed and label always reproduce
the identical stream, which makes randomized protocol runs replayable, and
the output is as unpredictable as SHA-256 for anyone without the seed.
Subclassing random.Random keeps randrange, sample and the rest available,
each drawing through getrandbits. shuffle and randbytes are overridden to
read the stream in bulk: randbytes is one slice of it, and shuffle reads
every position of its permutation from one draw, consuming exactly the
bytes random.Random.shuffle's getrandbits calls would, so both give the
same results and leave the stream at the same point.
"""

from __future__ import annotations

import hashlib
import random

from .field import _quote

__all__ = ["Sha256Rng", "derive_seed", "parse_seed"]


def parse_seed(text: str) -> bytes:
    """Hex string to seed bytes; raises ValueError on bad hex, and on a seed
    of no bytes ("" or spaces, as an unset variable gives), which would
    seed every run with the one stream anyone can derive."""
    try:
        seed = bytes.fromhex(text)
    except ValueError:
        raise ValueError(f"seed must be hexadecimal, got {_quote(text)}") from None
    if not seed:
        raise ValueError(f"seed must hold at least one byte, got {_quote(text)}")
    return seed


def derive_seed(seed: bytes, label: str) -> bytes:
    """Independent sub-seed for a named role within one run."""
    return hashlib.sha256(label.encode() + b"\x00" + seed).digest()


def _require_bytes(role: str, value) -> bytes:
    if not isinstance(value, bytes):
        raise TypeError(f"{role} must be bytes, not {type(value).__name__}")
    return value


class Sha256Rng(random.Random):
    def __new__(cls, *args, **kwargs):
        # random.Random.__new__ would seed from the arguments, and on Python
        # 3.10 it hashes a seed it cannot take (a bytearray) before seed()
        # can refuse it by type. __init__ seeds through seed() alone.
        return super().__new__(cls)

    def __init__(self, seed: bytes, label: bytes = b""):
        self._label = _require_bytes("label", label)
        super().__init__(seed)

    def seed(self, a=None, version=2):
        self._key = hashlib.sha256(self._label + b"\x00" + _require_bytes("seed", a)).digest()
        # A copy of a state already fed the key costs less than a new hash
        # object, and hashing the counter into it gives SHA-256(key || counter).
        self._keyed = hashlib.sha256(self._key)
        self._counter = 0
        self._pool = b""

    def _take(self, n: int) -> bytes:
        pool = self._pool
        if len(pool) < n:
            # Exactly the 32-byte counter blocks the shortfall needs, in order.
            start, copy, blocks = self._counter, self._keyed.copy, [pool]
            self._counter = start + (n - len(pool) + 31) // 32
            for i in range(start, self._counter):
                block = copy()
                block.update(i.to_bytes(8, "little"))
                blocks.append(block.digest())
            pool = b"".join(blocks)
        self._pool = pool[n:]
        return pool[:n]

    def getrandbits(self, k: int) -> int:
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        if k == 0:
            return 0
        nbytes = (k + 7) // 8
        value = int.from_bytes(self._take(nbytes), "little")
        return value >> (nbytes * 8 - k)

    def randbytes(self, n: int) -> bytes:
        return self._take(n)

    def shuffle(self, x) -> None:
        """random.Random.shuffle from one draw. Position i swaps with
        randbelow(i + 1): a k-bit getrandbits, k = (i + 1).bit_length(),
        is ceil(k/8) bytes little-endian shifted right to k bits, drawn
        again while it is at least i + 1. The bytes left over go back to
        the front of the pool."""
        n = len(x)
        # Two draws per position: rejection needs fewer on average.
        width = (n.bit_length() + 7) // 8
        drawn, pos = self._take(2 * width * n), 0
        for i in reversed(range(1, n)):
            k = (i + 1).bit_length()
            nbytes = (k + 7) // 8
            shift = nbytes * 8 - k
            while True:
                end = pos + nbytes
                if end > len(drawn):  # rejections outran the draw
                    drawn, pos = drawn[pos:] + self._take(2 * nbytes * (i + 1)), 0
                    end = nbytes
                if nbytes == 1:
                    j = drawn[pos] >> shift
                else:
                    j = int.from_bytes(drawn[pos:end], "little") >> shift
                pos = end
                if j <= i:
                    break
            x[i], x[j] = x[j], x[i]
        self._pool = drawn[pos:] + self._pool

    def random(self) -> float:
        return self.getrandbits(53) * (2.0**-53)

    def getstate(self):
        raise NotImplementedError("stream state is not exportable")

    def setstate(self, state):
        raise NotImplementedError("stream state is not exportable")
