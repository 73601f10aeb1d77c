"""`setup` against the body it replaced.

The oracle in conftest raised group elements: g^(s^d), g_v^(v_i(s)),
g_v^(alpha_v * v_i(s)) and so on, with three exponentiations and two
products per `beta` entry. `setup` now computes the same exponents as
residues by field arithmetic. Both key files must be equal entry for entry.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from snarkpipe import (  # noqa: E402
    TransparentGroup,
    build_qap,
    flatten,
    parse_program,
    setup,
)
from snarkpipe.pinocchio import (  # noqa: E402
    evaluation_key_to_dict,
    verification_key_to_dict,
)

from conftest import chain_program, programs, setup_oracle  # noqa: E402

SEEDS = (bytes([1]), b"setup-oracle", bytes.fromhex("5eed0102"))


def assert_matches_oracle(qap, seed, public):
    group = TransparentGroup(qap.ctx)
    ek, vk = setup(qap, group, seed, public)
    ek_dict, vk_dict = setup_oracle(qap, group, seed, public)
    assert evaluation_key_to_dict(ek) == ek_dict
    assert verification_key_to_dict(vk) == vk_dict


def publics(first_input: str) -> list:
    return [("one",), ("one", first_input)]


@pytest.mark.parametrize("seed", SEEDS, ids=["byte", "text", "hex"])
def test_coloring5_matches_oracle(coloring_qap, seed):
    for public in publics("c1"):
        assert_matches_oracle(coloring_qap, seed, public)


@pytest.mark.parametrize("links", list(range(1, 20)) + [99], ids=lambda n: f"N{2 * n + 3}")
def test_squaring_chains_match_oracle(links, ctx):
    qap = build_qap(flatten(chain_program(links), ctx))
    assert qap.n_gates == 2 * links + 3
    for seed in SEEDS:
        for public in publics("a"):
            assert_matches_oracle(qap, seed, public)


# --- generated programs where collisions are likely ------------------------------


@pytest.mark.filterwarnings("ignore:integer constant")  # constants at or above p
@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(source=programs(), seed=st.sampled_from(SEEDS), public_a=st.booleans())
def test_generated_programs_match_oracle_at_p97(ctx97, source, seed, public_a):
    qap = build_qap(flatten(parse_program(source), ctx97))
    assume(0 < qap.n_gates and 2 * qap.n_gates < 97)
    assert_matches_oracle(qap, seed, ("one", "a") if public_a else ("one",))
