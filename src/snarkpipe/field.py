"""Exact arithmetic over a prime field, and the artifact encoding.

A field is its prime modulus p and nothing else. Every artifact file starts
with the same header, written by write_header and checked by read_header:

    {"format": "snarkpipe-<kind>/3", "field": {"p": "<p as a decimal>"}, ...}
"""

from __future__ import annotations

import json

__all__ = [
    "DEFAULT_MODULUS",
    "DivisionByZero",
    "FieldContext",
    "inverse",
    "is_probable_prime",
    "json_bytes",
    "parse_decimal",
    "read_header",
    "write_header",
]

# 2^64 - 2^32 + 1: every residue fits in 64 bits, and a forged assignment
# survives the random evaluation point with probability at most 2N/p.
DEFAULT_MODULUS = 2**64 - 2**32 + 1

# Deterministic Miller-Rabin witness set, sound for every n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The one versioned artifact format; a change to any file's layout bumps it.
_FORMAT = "snarkpipe-{kind}/3"


# json.dumps(data, separators=(",", ":")) builds an encoder on every call;
# a transcript encodes each of its rounds, so the encoder is built once.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def json_bytes(data, end: str = "\n") -> bytes:
    """Encode an artifact: compact JSON in insertion order plus a newline.

    Every file the pipeline writes goes through here, so equal artifacts are
    equal bytes. Field and group values inside are canonical decimal
    strings (see parse_decimal). A file written in pieces encodes each
    piece with end="".
    """
    return (_encode_json(data) + end).encode()


def parse_decimal(text, below: int | None = None, what: str = "value") -> int:
    """Parse the one accepted encoding of a field or group value: a string
    of ASCII digits with no sign, padding, leading zero or digit separator,
    and below `below` when a bound is given. `what` names the value in the
    error."""
    # A value below `below` has no more digits than it, so a longer string is
    # refused before int() sees it (and its limit on digits).
    if (
        isinstance(text, str)
        and text.isascii()
        and text.isdigit()
        and (below is None or len(text) <= len(str(below)))
    ):
        value = int(text)
        if text == str(value) and (below is None or value < below):
            return value
    bound = "" if below is None else f" below {below}"
    raise ValueError(f"{what} {_quote(text)} is not a canonical decimal{bound}")


def _quote(value) -> str:
    """repr(value), cut to 40 characters so that a refusal stays one short
    line; a cut string also gives its length."""
    text = repr(value)
    if len(text) <= 40:
        return text
    size = f" ({len(value)} characters)" if isinstance(value, str) else ""
    return f"{text[:40]}...{size}"


class DivisionByZero(ZeroDivisionError):
    """Division by the additive identity of the field."""


def inverse(a: int, p: int) -> int:
    """The multiplicative inverse of a mod the prime p, by Fermat."""
    if a % p == 0:
        raise DivisionByZero("zero has no multiplicative inverse")
    return pow(a, p - 2, p)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldContext:
    """A validated prime modulus p.

    DEFAULT_MODULUS is a known prime (tests pin it); any other p is tested
    once per context."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_MODULUS):
        if not isinstance(p, int) or p < 3:
            raise ValueError("modulus must be an odd prime")
        if p != DEFAULT_MODULUS and not is_probable_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other):
        if isinstance(other, FieldContext):
            return self.p == other.p
        return NotImplemented

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return f"FieldContext(p={self.p})"


def write_header(kind: str, ctx: FieldContext) -> dict:
    """The entries every artifact file starts with: its format and its field,
    p as a decimal string so that 64-bit values survive JSON consumers."""
    return {"format": _FORMAT.format(kind=kind), "field": {"p": str(ctx.p)}}


def read_header(data, kind: str) -> FieldContext:
    """Check the header write_header made for a `kind` file and return its
    field. Refuses, with a ValueError that names the entry, anything but a
    JSON object of this format version whose field holds exactly p as a
    canonical decimal prime; files of another version are refused by name."""
    if not isinstance(data, dict):
        raise ValueError(f"a {kind} file holds a JSON object, not {type(data).__name__}")
    expected = _FORMAT.format(kind=kind)
    if data.get("format") != expected:
        raise ValueError(
            f"not a {kind} file (format={data.get('format')!r}; this version reads {expected!r})"
        )
    field = data.get("field")
    if not isinstance(field, dict):
        raise ValueError(f"{kind} 'field' must be a JSON object, not {type(field).__name__}")
    for entry in field:
        if entry != "p":
            raise ValueError(f"field entry {entry!r} is not allowed; the field holds only 'p'")
    return FieldContext(parse_decimal(field.get("p"), what="field entry 'p'"))
