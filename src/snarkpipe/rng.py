"""Seedable deterministic randomness: SHA-256 in counter mode.

The generator hashes label || seed into a key and then streams
SHA-256(key || counter) blocks. Identical seed and label always reproduce
the identical stream, which makes randomized protocol runs replayable, and
the output is as unpredictable as SHA-256 for anyone without the seed.
Subclassing random.Random keeps shuffle/randrange/randbytes available.
"""

from __future__ import annotations

import hashlib
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


def _require_bytes(role: str, value) -> bytes:
    if not isinstance(value, bytes):
        raise TypeError(f"{role} must be bytes, not {type(value).__name__}")
    return value


class Sha256Rng(random.Random):
    def __init__(self, seed: bytes, label: bytes = b""):
        self._label = _require_bytes("label", label)
        super().__init__(seed)

    def seed(self, a=None, version=2):
        self._key = hashlib.sha256(self._label + b"\x00" + _require_bytes("seed", a)).digest()
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
