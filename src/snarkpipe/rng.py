"""Seedable deterministic randomness: SHA-256 in counter mode.

The generator hashes label || seed into a key and then streams
SHA-256(key || counter) blocks, each hashed from a copy of one SHA-256
state already fed the key. Identical seed and label always reproduce
the identical stream, which makes randomized protocol runs replayable, and
the output is as unpredictable as SHA-256 for anyone without the seed.
Every draw is defined here, not by the random module: getrandbits(k) is
the next ceil(k/8) bytes, little-endian, shifted right to k bits;
randbelow(n) draws bitlen(n) bits until the value is below n; randbytes
is one slice of the stream; and shuffle swaps position i with
randbelow(i + 1), reading every position of its permutation from one draw.
(These are the draws random.Random's randrange and shuffle make from a
getrandbits on Python 3.10-3.13, so the streams are the same as theirs.)
"""

from __future__ import annotations

import hashlib

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


class Sha256Rng:
    def __init__(self, seed: bytes, label: bytes = b""):
        label, seed = _require_bytes("label", label), _require_bytes("seed", seed)
        self._key = hashlib.sha256(label + b"\x00" + seed).digest()
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

    def randbelow(self, n: int) -> int:
        """Uniform in 0..n-1: bitlen(n) bits, drawn again while they are at
        least n."""
        if n < 1:
            raise ValueError(f"randbelow needs n >= 1, got {n}")
        k = n.bit_length()
        value = self.getrandbits(k)
        while value >= n:
            value = self.getrandbits(k)
        return value

    def randbytes(self, n: int) -> bytes:
        return self._take(n)

    def shuffle(self, x) -> None:
        """Fisher-Yates from one draw. Position i, from the last down to 1,
        swaps with randbelow(i + 1): with k = (i + 1).bit_length(), ceil(k/8)
        bytes little-endian shifted right to k bits, drawn again while they
        are at least i + 1. The bytes left over go back to the front of
        the pool."""
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
