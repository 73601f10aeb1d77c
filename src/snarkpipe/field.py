"""Exact arithmetic over a prime field, and the artifact encoding."""

from __future__ import annotations

import json

__all__ = [
    "DEFAULT_GENERATOR",
    "DEFAULT_MODULUS",
    "DivisionByZero",
    "FieldContext",
    "inverse",
    "is_probable_prime",
    "json_bytes",
    "parse_decimal",
]

# 2^64 - 2^32 + 1: reduction stays within machine words and
# p - 1 = 2^32 * 3 * 5 * 17 * 257 * 65537 factors completely, so the
# default generator can be verified exactly at construction time.
DEFAULT_MODULUS = 2**64 - 2**32 + 1
DEFAULT_GENERATOR = 7
_DEFAULT_ORDER_FACTORS = (2, 3, 5, 17, 257, 65537)

# Deterministic Miller-Rabin witness set, sound for every n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Give up factoring p - 1 past this many trial divisors; callers must then
# supply the generator themselves.
_FACTOR_BUDGET = 1_000_000


def json_bytes(data) -> bytes:
    """Encode an artifact: compact JSON in insertion order plus a newline.

    Every file the pipeline writes goes through here, so equal artifacts are
    equal bytes. Field and group values inside are decimal strings (see
    FieldContext.to_json_dict).
    """
    return (json.dumps(data, separators=(",", ":")) + "\n").encode()


def parse_decimal(text, below: int | None = None, what: str = "value") -> int:
    """Parse the one accepted encoding of a field or group value: a string
    of ASCII digits with no sign, padding, leading zero or digit separator,
    and below `below` when a bound is given. `what` names the value in the
    error."""
    if isinstance(text, str) and text.isascii() and text.isdigit():
        value = int(text)
        if text == str(value) and (below is None or value < below):
            return value
    bound = "" if below is None else f" below {below}"
    raise ValueError(f"{what} {text!r} is not a canonical decimal{bound}")


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


def _distinct_prime_factors(n: int) -> list[int] | None:
    """Distinct prime factors of n by trial division, or None if n resists
    the division budget (a large cofactor would need real factoring)."""
    factors = []
    if n % 2 == 0:
        factors.append(2)
        while n % 2 == 0:
            n //= 2
    candidate = 3
    steps = 0
    while candidate * candidate <= n:
        if steps > _FACTOR_BUDGET:
            return None
        if n % candidate == 0:
            factors.append(candidate)
            while n % candidate == 0:
                n //= candidate
        candidate += 2
        steps += 1
    if n > 1:
        factors.append(n)
    return factors


def _generates_group(g: int, p: int, order_factors) -> bool:
    return all(pow(g, (p - 1) // q, p) != 1 for q in order_factors)


class FieldContext:
    """A prime modulus plus a generator of its multiplicative group.

    The default modulus ships with generator 7, which is checked against the
    known factorization of p - 1. For other moduli the generator is found by
    factoring p - 1 when that is cheap, and otherwise must be supplied and is
    trusted as configured.
    """

    __slots__ = ("p", "generator_value")

    def __init__(self, p: int = DEFAULT_MODULUS, generator: int | None = None):
        if not isinstance(p, int) or p < 3:
            raise ValueError("modulus must be an odd prime")
        if not is_probable_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        if generator is not None:
            g = generator % p
            if g in (0, 1):
                raise ValueError("generator must not be 0 or 1")
            if p == DEFAULT_MODULUS:
                if not _generates_group(g, p, _DEFAULT_ORDER_FACTORS):
                    raise ValueError(f"{g} does not generate the group mod {p}")
            self.generator_value = g
        elif p == DEFAULT_MODULUS:
            if not _generates_group(DEFAULT_GENERATOR, p, _DEFAULT_ORDER_FACTORS):
                raise ValueError("default generator failed its order check")
            self.generator_value = DEFAULT_GENERATOR
        else:
            factors = _distinct_prime_factors(p - 1)
            if factors is None:
                raise ValueError(
                    f"cannot factor {p} - 1 cheaply; pass an explicit generator"
                )
            for g in range(2, p):
                if _generates_group(g, p, factors):
                    self.generator_value = g
                    break
            else:  # pragma: no cover - every prime field has a generator
                raise ValueError(f"no generator found for modulus {p}")

    def __eq__(self, other):
        if isinstance(other, FieldContext):
            return self.p == other.p and self.generator_value == other.generator_value
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.generator_value))

    def __repr__(self):
        return f"FieldContext(p={self.p}, generator={self.generator_value})"

    def to_json_dict(self) -> dict:
        # Decimal strings keep 64-bit values intact for JSON consumers.
        return {"p": str(self.p), "generator": str(self.generator_value)}

    @classmethod
    def from_json_dict(cls, data) -> "FieldContext":
        """Parse a header written by to_json_dict: p and the generator are
        canonical decimals, the generator below p."""
        if not isinstance(data, dict):
            raise ValueError(f"a field header is a JSON object, not {type(data).__name__}")
        p = parse_decimal(data["p"], what="field p")
        return cls(p, parse_decimal(data["generator"], p, what="field generator"))
