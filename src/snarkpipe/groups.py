"""The transparent pairing group the Pinocchio protocol runs on.

``TransparentGroup`` models an idealized cyclic group whose order equals the
field modulus p. Elements simply store their discrete log, the group law
adds logs, and the pairing multiplies them into a target group. Exponent
algebra therefore matches field algebra exactly, which is what lets every
key equation be executed and tested bit for bit at desk scale.

The group is deliberately insecure: anyone can read the exponents straight
out of the elements. It exists for demonstrations and tests, never for
protecting secrets.
"""

from __future__ import annotations

from operator import mul

from .field import FieldContext, parse_decimal

__all__ = ["GroupElement", "TargetGroupElement", "TransparentGroup"]


def _common_modulus(a, b) -> int:
    p = a.group.ctx.p
    if b.group.ctx.p != p:
        raise ValueError(f"elements from different fields: {p} vs {b.group.ctx.p}")
    return p


class GroupElement:
    """An element g^a, stored as its discrete log a in [0, p)."""

    __slots__ = ("group", "value")

    def __init__(self, group: "TransparentGroup", value: int):
        self.group = group
        self.value = value

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        p = _common_modulus(self, other)
        return GroupElement(self.group, (self.value + other.value) % p)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        return GroupElement(self.group, self.value * exponent % self.group.ctx.p)

    def pair(self, other: "GroupElement") -> "TargetGroupElement":
        return self.group.pairing(self, other)

    def __eq__(self, other):
        if isinstance(other, GroupElement):
            return self.group.ctx.p == other.group.ctx.p and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.group.ctx.p, self.value))

    def __repr__(self):
        return f"GroupElement({self.value} mod {self.group.ctx.p})"


class TargetGroupElement:
    """Output of the pairing; a multiplicative group in its own right."""

    __slots__ = ("group", "value")

    def __init__(self, group: "TransparentGroup", value: int):
        self.group = group
        self.value = value

    def __mul__(self, other):
        if not isinstance(other, TargetGroupElement):
            return NotImplemented
        p = _common_modulus(self, other)
        return TargetGroupElement(self.group, (self.value + other.value) % p)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        return TargetGroupElement(self.group, self.value * exponent % self.group.ctx.p)

    def __eq__(self, other):
        if isinstance(other, TargetGroupElement):
            return self.group.ctx.p == other.group.ctx.p and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash(("target", self.group.ctx.p, self.value))

    def __repr__(self):
        return f"TargetGroupElement({self.value} mod {self.group.ctx.p})"


class TransparentGroup:
    """Idealized order-p cyclic group whose elements expose their discrete log.

    Insecure by design: GroupElement.value IS the exponent of the generator.
    """

    name = "transparent"  # recorded in every key header

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx

    def generator(self) -> GroupElement:
        return GroupElement(self, 1)

    def msm(self, bases, scalars) -> GroupElement:
        """Product of the elements whose discrete logs are ``bases`` (residues
        mod p), each raised to its scalar, up to the shorter sequence.

        With the discrete logs in the clear this is one dot product mod p; a
        real pairing group would use a bucket method such as Pippenger's.
        """
        return GroupElement(self, sum(map(mul, bases, scalars)) % self.ctx.p)

    def pairing(self, a: GroupElement, b: GroupElement) -> TargetGroupElement:
        p = _common_modulus(a, b)
        return TargetGroupElement(a.group, a.value * b.value % p)

    def decode(self, text) -> GroupElement:
        """Parse the canonical encoding: a decimal string in [0, p) with no
        sign, padding, leading zero or digit separator."""
        return GroupElement(self, parse_decimal(text, self.ctx.p))

    def decode_all(self, texts: list) -> list | None:
        """The discrete logs ``decode`` would give for a whole list, as ints,
        in one pass, or None if any entry is not canonical (``decode`` then
        names it).

        A string is canonical exactly when str(int(text)) gives it back and
        its value lies in [0, p): the round trip rules out signs, padding,
        leading zeros, separators, non-ASCII digits and non-strings.
        """
        try:
            values = list(map(int, texts))
        except (TypeError, ValueError, OverflowError):  # OverflowError: JSON's Infinity
            return None
        if list(map(str, values)) != texts or values and not (
            0 <= min(values) and max(values) < self.ctx.p
        ):
            return None
        return values
