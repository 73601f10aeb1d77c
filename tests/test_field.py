import re

import pytest

from snarkpipe import DEFAULT_MODULUS, DivisionByZero, FieldContext, Sha256Rng, field
from snarkpipe.field import (
    _is_strong_lucas_probable_prime,
    inverse,
    is_probable_prime,
    read_header,
    write_header,
)

from conftest import StreamRandom


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
    rng = StreamRandom(Sha256Rng(b"inverse-property"))
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


# psi_12, the least strong pseudoprime to every prime base up to 37, and
# psi_13, the least to every prime base up to 41 (Sorenson and Webster 2017).
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981
STRONG_PSEUDOPRIMES = (PSI_12, PSI_13)
LARGE_PRIMES = (DEFAULT_MODULUS, 2**61 - 1, 2**127 - 1, 2**521 - 1)


def test_strong_pseudoprimes_to_the_small_bases_are_composite_and_refused():
    assert PSI_12 == 399165290221 * 798330580441
    assert PSI_13 == 1287836182261 * 2575672364521
    for n in STRONG_PSEUDOPRIMES:
        assert not is_probable_prime(n)
        with pytest.raises(ValueError, match=f"^modulus {n} is not prime$"):
            FieldContext(n)
        header = {"format": "snarkpipe-circuit/3", "field": {"p": str(n)}}
        with pytest.raises(ValueError, match=f"^modulus {n} is not prime$"):
            read_header(header, "circuit")
    # psi_13 passes every Miller-Rabin base; only the Lucas test refuses it
    assert not _is_strong_lucas_probable_prime(PSI_13)


def test_large_primes_are_accepted():
    for p in LARGE_PRIMES:
        assert is_probable_prime(p)
        assert _is_strong_lucas_probable_prime(p)
        assert FieldContext(p).p == p


def test_is_probable_prime_agrees_with_trial_division_below_10_5():
    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    assert [n for n in range(limit) if is_probable_prime(n)] == [
        n for n in range(limit) if sieve[n]
    ]


def test_strong_lucas_test_passes_primes_and_only_the_known_pseudoprimes():
    # Below 10^5 the composites passing the strong Lucas test with
    # Selfridge's parameters are exactly these (OEIS A217255); none of them
    # is a strong probable prime to base 2.
    pseudoprimes = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
                    75077, 97439]
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    passing = []
    for n in range(43, 10**5, 2):
        if all(n % q for q in small):
            prime = all(n % q for q in range(43, int(n**0.5) + 1, 2))
            lucas = _is_strong_lucas_probable_prime(n)
            assert lucas or not prime, n  # every prime passes
            if lucas and not prime:
                passing.append(n)
    assert passing == pseudoprimes
    assert not any(is_probable_prime(n) for n in pseudoprimes)


def test_strong_lucas_test_refuses_squares_at_once():
    # No D has (D / q^2) = -1, so the search for one must not start.
    for q in (43, 1009, 2**61 - 1, 2**127 - 1):
        assert not _is_strong_lucas_probable_prime(q * q)
        assert not is_probable_prime(q * q)


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
        ({"format": "snarkpipe-circuit/3", "field": {"p": "101", "g": "2"}}, "circuit field takes no key 'g'"),
    ],
)
def test_read_header_refuses_by_name(header, needle):
    with pytest.raises(ValueError, match=re.escape(needle)):
        read_header(header, "circuit")
