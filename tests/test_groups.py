import pytest

from snarkpipe import (
    FieldContext,
    MalformedKey,
    Sha256Rng,
    TransparentGroup,
)
from snarkpipe.field import write_header
from snarkpipe.pinocchio import load_verification_key


def test_exp_zero_gives_identity(ctx17):
    g = TransparentGroup(ctx17).generator()
    assert (g**0) * (g**5) == g**5


def test_exponent_law(ctx17):
    g = TransparentGroup(ctx17).generator()
    assert (g**2) ** 3 == g**6
    assert (g**2) * (g**3) == g**5


def test_exponent_reduced_modulo_group_order(ctx17):
    h = TransparentGroup(ctx17).generator()
    assert h**17 == h**0  # the transparent group has order p
    assert h**18 == h**1


def test_inverse(ctx17):
    g = TransparentGroup(ctx17).generator()
    assert (g**5) * (g**5) ** -1 == g**0


def test_exponent_must_be_int(ctx17):
    g = TransparentGroup(ctx17).generator()
    for exponent in (6.0, "6", None):
        with pytest.raises(TypeError):
            g**exponent
        with pytest.raises(TypeError):
            g.pair(g) ** exponent


def test_msm_matches_exponent_products(ctx):
    # The bases are discrete logs, the form evaluation-key entries take.
    group = TransparentGroup(ctx)
    g = group.generator()
    rng = Sha256Rng(b"msm")
    bases = [rng.randrange(ctx.p) for _ in range(30)]
    scalars = [rng.randrange(ctx.p) for _ in range(30)]
    expected = g**0
    for base, scalar in zip(bases, scalars):
        expected = expected * ((g**base) ** scalar)
    assert group.msm(bases, scalars) == expected
    assert group.msm(bases, scalars[:10]) == group.msm(bases[:10], scalars)
    assert group.msm([], []) == g**0


def test_pairing_examples(ctx17):
    g = TransparentGroup(ctx17).generator()
    t = g.pair(g)
    assert (g**2).pair(g**3) == t**6
    assert (g**0).pair(g**5) == t**0
    assert (g**2).pair(g**3) * (g**2).pair(g**4) == (g**2).pair(g**7)


def test_pairing_nondegenerate(ctx17):
    g = TransparentGroup(ctx17).generator()
    assert g.pair(g) != g.pair(g) ** 0


def test_pairing_bilinearity_property(ctx):
    g = TransparentGroup(ctx).generator()
    t = g.pair(g)
    rng = Sha256Rng(b"bilinearity")
    for _ in range(1000):
        a = rng.randrange(ctx.p)
        b = rng.randrange(ctx.p)
        assert (g**a).pair(g**b) == t ** (a * b % ctx.p)


def test_mixed_context_rejected(ctx17, ctx101):
    g17 = TransparentGroup(ctx17).generator()
    g101 = TransparentGroup(ctx101).generator()
    with pytest.raises(ValueError):
        g17 * g101
    with pytest.raises(ValueError):
        g17.pair(g101)


@pytest.mark.parametrize("text", ["0", "5", "16"])
def test_decode_accepts_canonical_decimals(ctx17, text):
    assert TransparentGroup(ctx17).decode(text).value == int(text)


@pytest.mark.parametrize(
    "text",
    ["17", "22", "05", "00", " 5", "5 ", "+5", "-5", "-0", "5_0", "", "٣", 5, None]
    + [5.0, True, [], float("inf"), float("nan"), pytest.param("1" * 4301, id="4301_digits")],
)
def test_decode_refuses_non_canonical(ctx17, text):
    group = TransparentGroup(ctx17)
    with pytest.raises(ValueError):
        group.decode(text)
    assert group.decode_all([text, "3"]) is None
    assert group.decode_all(["3", "0", text]) is None


def test_decode_all_matches_decode_on_canonical_lists(ctx17):
    group = TransparentGroup(ctx17)
    for texts in ([], ["0"], [str(v) for v in range(17)], ["16", "0", "16"]):
        assert group.decode_all(texts) == [group.decode(text).value for text in texts]


def test_unknown_backend():
    # The transparent group is the only one; a key naming another is refused.
    header = {**write_header("verification-key", FieldContext(17)), "backend": "elliptic"}
    with pytest.raises(MalformedKey, match="elliptic"):
        load_verification_key(header)
