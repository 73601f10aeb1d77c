"""Seedable deterministic randomness: SHA-256 in counter mode.

The generator hashes label || seed into a key and then streams
SHA-256(key || counter) blocks. Identical seed and label always reproduce
the identical stream, which makes randomized protocol runs replayable, and
the output is as unpredictable as SHA-256 for anyone without the seed.
Subclassing random.Random keeps shuffle/randrange/randbytes available.
"""

from __future__ import annotations

import hashlib
import os
import random

__all__ = ["Sha256Rng", "derive_seed", "parse_seed"]


def parse_seed(text: str) -> bytes:
    """Hex string to seed bytes; raises ValueError on bad hex."""
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise ValueError(f"seed must be hexadecimal, got {text!r}") from None


def derive_seed(seed: bytes, label: str) -> bytes:
    """Independent sub-seed for a named role within one run."""
    return hashlib.sha256(label.encode() + b"\x00" + seed).digest()


def _normalize(seed) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, bytearray):
        return bytes(seed)
    if isinstance(seed, str):
        return seed.encode()
    if isinstance(seed, int):
        length = max(1, (seed.bit_length() + 7) // 8)
        return seed.to_bytes(length, "little")
    if seed is None:
        return os.urandom(32)
    raise TypeError(f"unsupported seed type {type(seed)!r}")


class Sha256Rng(random.Random):
    def __init__(self, seed=None, label: bytes = b""):
        self._label = label if isinstance(label, bytes) else str(label).encode()
        super().__init__(seed)

    def seed(self, a=None, version=2):
        key_material = getattr(self, "_label", b"") + b"\x00" + _normalize(a)
        self._key = hashlib.sha256(key_material).digest()
        self._counter = 0
        self._pool = b""

    def _take(self, n: int) -> bytes:
        pool = self._pool
        if len(pool) < n:
            # Exactly the 32-byte counter blocks the shortfall needs, in order.
            start, key, sha256 = self._counter, self._key, hashlib.sha256
            self._counter = start + (n - len(pool) + 31) // 32
            pool += b"".join(
                sha256(key + i.to_bytes(8, "little")).digest()
                for i in range(start, self._counter)
            )
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

    def random(self) -> float:
        return self.getrandbits(53) * (2.0**-53)

    def getstate(self):
        raise NotImplementedError("stream state is not exportable")

    def setstate(self, state):
        raise NotImplementedError("stream state is not exportable")
