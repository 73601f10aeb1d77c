import pytest

from snarkpipe import (
    DEFAULT_GENERATOR,
    DEFAULT_MODULUS,
    DivisionByZero,
    FieldContext,
    Sha256Rng,
)
from snarkpipe.field import inverse, is_probable_prime


def brute_force_inverse(a: int, p: int) -> int:
    """Independent oracle: search for x with a*x = 1 mod p."""
    for x in range(1, p):
        if a * x % p == 1:
            return x
    raise AssertionError(f"{a} has no inverse mod {p}")


def test_div_matches_brute_force():
    assert inverse(5, 17) == brute_force_inverse(5, 17) == 7


def test_div_by_zero():
    with pytest.raises(DivisionByZero):
        inverse(0, 17)
    with pytest.raises(DivisionByZero):
        inverse(17, 17)


def test_all_small_field_inverses_match_search():
    for a in range(1, 17):
        assert inverse(a, 17) == brute_force_inverse(a, 17)


def test_fermat_inverse_property(ctx):
    rng = Sha256Rng(b"inverse-property")
    for _ in range(1000):
        a = rng.randrange(1, ctx.p)
        assert inverse(a, ctx.p) * a % ctx.p == 1


def test_default_context_constants(ctx):
    assert ctx.p == DEFAULT_MODULUS == 2**64 - 2**32 + 1
    assert ctx.generator_value == DEFAULT_GENERATOR == 7
    # p - 1 really is 2^32 * (2^32 - 1).
    assert ctx.p - 1 == 2**32 * (2**32 - 1)


def test_default_generator_spans_group(ctx):
    # Order of 7 must not divide (p-1)/q for any prime q | p-1.
    for q in (2, 3, 5, 17, 257, 65537):
        assert pow(7, (ctx.p - 1) // q, ctx.p) != 1


def test_small_field_generator_has_full_order(ctx17):
    g = ctx17.generator_value
    seen = set()
    x = 1
    for _ in range(16):
        x = x * g % 17
        seen.add(x)
    assert len(seen) == 16


def test_bad_generator_for_default_modulus_rejected():
    # 4 is a square, so it lands in the index-2 subgroup and fails the check.
    with pytest.raises(ValueError):
        FieldContext(DEFAULT_MODULUS, generator=4)


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        FieldContext(15)
    with pytest.raises(ValueError):
        FieldContext(2**64 - 2**32)  # even


def test_is_probable_prime_small_cases():
    primes = {2, 3, 5, 7, 11, 13, 17, 101, 2**31 - 1, DEFAULT_MODULUS}
    for n in primes:
        assert is_probable_prime(n)
    for n in (0, 1, 4, 9, 15, 21, 2**31, DEFAULT_MODULUS + 2):
        assert not is_probable_prime(n)


def test_context_json_round_trip(ctx, ctx101):
    for c in (ctx, ctx101):
        again = FieldContext.from_json_dict(c.to_json_dict())
        assert again == c
    # decimal strings, not numbers, so 64-bit values survive JSON consumers
    assert ctx.to_json_dict() == {"p": str(ctx.p), "generator": "7"}
