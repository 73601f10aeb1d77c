import re

import pytest

from snarkpipe import DEFAULT_MODULUS, DivisionByZero, FieldContext, Sha256Rng, field
from snarkpipe.field import inverse, is_probable_prime, read_header, write_header


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
    assert ctx == FieldContext(DEFAULT_MODULUS)
    assert ctx != FieldContext(101)
    assert hash(ctx) == hash(FieldContext(DEFAULT_MODULUS))
    assert repr(ctx) == f"FieldContext(p={DEFAULT_MODULUS})"


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


def test_default_modulus_is_prime():
    # FieldContext takes DEFAULT_MODULUS as a known prime; this pins why.
    assert is_probable_prime(DEFAULT_MODULUS)
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(DEFAULT_MODULUS - 2)


@pytest.fixture()
def prime_tests(monkeypatch):
    """Every modulus FieldContext hands to is_probable_prime."""
    tested = []

    def counting(n):
        tested.append(n)
        return is_probable_prime(n)

    monkeypatch.setattr(field, "is_probable_prime", counting)
    return tested


def test_default_modulus_is_not_tested_again(prime_tests):
    header = write_header("witness-key", FieldContext())
    assert read_header(header, "witness-key").p == DEFAULT_MODULUS
    assert FieldContext(DEFAULT_MODULUS).p == DEFAULT_MODULUS
    assert prime_tests == []


def test_other_modulus_is_tested_once_per_context(prime_tests):
    p = 2**61 - 1
    header = write_header("evaluation-key", FieldContext(p))
    assert prime_tests == [p]
    for count in (2, 3):
        assert read_header(header, "evaluation-key").p == p
        assert prime_tests == [p] * count


def test_context_json_round_trip(ctx, ctx101):
    for c in (ctx, ctx101):
        assert read_header(write_header("circuit", c), "circuit") == c
    # decimal strings, not numbers, so 64-bit values survive JSON consumers
    assert write_header("qap", ctx) == {"format": "snarkpipe-qap/3", "field": {"p": str(ctx.p)}}


@pytest.mark.parametrize(
    "header, needle",
    [
        ([], "JSON object, not list"),
        ({"format": "snarkpipe-qap/3", "field": {"p": "101"}}, "not a circuit file"),
        ({"format": "snarkpipe-circuit/1", "field": {"p": "101"}}, "this version reads"),
        ({"format": "snarkpipe-circuit/3"}, "'field' must be a JSON object"),
        ({"format": "snarkpipe-circuit/3", "field": "101"}, "'field' must be a JSON object"),
        ({"format": "snarkpipe-circuit/3", "field": {}}, "field entry 'p'"),
        ({"format": "snarkpipe-circuit/3", "field": {"p": "0101"}}, "canonical decimal"),
        ({"format": "snarkpipe-circuit/3", "field": {"p": "15"}}, "not prime"),
        ({"format": "snarkpipe-circuit/3", "field": {"p": "101", "g": "2"}}, "field entry 'g'"),
    ],
)
def test_read_header_refuses_by_name(header, needle):
    with pytest.raises(ValueError, match=re.escape(needle)):
        read_header(header, "circuit")
