"""The session fast paths against the per-entry code they replaced.

Each oracle below is the body the fast path replaced: salts drawn one
`randbytes(16)` at a time, coins one `getrandbits(1)` at a time, literals
mapped and tested one call each, clause entries packed one literal at a
time, stream blocks and commitments hashed one-shot, and transcript rounds
built as dicts of hex strings and encoded by `json.dumps`. Hypothesis
generates the problems; every comparison is exact.
"""

import hashlib
import json
import struct

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from snarkpipe import (  # noqa: E402
    Challenge,
    HamiltonianCycleProblem,
    SatProblem,
    Sha256Rng,
    cipher_round,
    forge_round,
    run_session,
    verify_round,
)
from snarkpipe.interactive import encode_round, session_rounds  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60, database=None)


# --- oracles ------------------------------------------------------------------


def lit_holds(lit, assignment) -> bool:
    value = bool(assignment[abs(lit) - 1])
    return value if lit > 0 else not value


def is_solution(problem, assignment) -> bool:
    if len(assignment) != problem.n_vars:
        return False
    return all(any(lit_holds(lit, assignment) for lit in clause) for clause in problem.clauses)


def transform(problem, perm, flips) -> tuple:
    def map_lit(lit):
        i = abs(lit) - 1
        sign = 1 if lit > 0 else -1
        if flips[i]:
            sign = -sign
        return sign * (perm[i] + 1)

    return tuple(tuple(sorted(map_lit(lit) for lit in clause)) for clause in problem.clauses)


def validate(problem) -> None:
    if problem.n_vars < 1:
        raise ValueError("need at least one variable")
    for clause in problem.clauses:
        if len(clause) != 3:
            raise ValueError("every clause must hold exactly 3 literals")
        for lit in clause:
            if lit == 0 or abs(lit) > problem.n_vars:
                raise ValueError(f"literal {lit} out of range")


def clause_entry(clause) -> bytes:
    return b"".join(struct.pack("<i", lit) for lit in sorted(clause))


def matrix_entry(bit) -> bytes:
    return bytes([bit & 1])


def relabel(problem, perm) -> tuple:
    n = problem.n
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = problem.adjacency[i][j]
    return tuple(tuple(row) for row in out)


def salts(rng, count) -> tuple:
    return tuple(rng.randbytes(16) for _ in range(count))


def coins(rng, count) -> tuple:
    return tuple(rng.getrandbits(1) for _ in range(count))


def shuffled(rng, n) -> tuple:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def commit(entries, salts_) -> tuple:
    return tuple(hashlib.sha256(e + s).digest() for e, s in zip(entries, salts_))


def round_record(commitment, challenge, response, verdict) -> dict:
    """A round's transcript entry, every digest and salt hexed on its own."""
    fields = {"challenge": response.challenge.value}
    if response.permutation is not None:
        fields["permutation"] = list(response.permutation)
    if response.flips is not None:
        fields["flips"] = [int(b) for b in response.flips]
    if response.salts is not None:
        fields["salts"] = [salt.hex() for salt in response.salts]
    if response.cycle is not None:
        fields["cycle"] = list(response.cycle)
    if response.clauses is not None:
        fields["clauses"] = [list(clause) for clause in response.clauses]
    if response.assignment is not None:
        fields["assignment"] = [bool(b) for b in response.assignment]
    return {
        "commitments": [digest.hex() for digest in commitment.digests],
        "challenge": challenge.value,
        "response": fields,
        "verdict": verdict,
    }


def compact(data) -> bytes:
    return json.dumps(data, separators=(",", ":")).encode()


def honest_sat_round(problem, assignment, rng):
    """(digests, cipher response fields, solution response fields)."""
    perm = shuffled(rng, problem.n_vars)
    flips = coins(rng, problem.n_vars)
    instance = transform(problem, perm, flips)
    moved = problem.image(assignment, perm, flips)
    drawn = salts(rng, len(instance))
    digests = commit([clause_entry(c) for c in instance], drawn)
    return digests, (perm, flips, drawn), (instance, moved, drawn)


def forged_sat_round(problem, rng):
    doctor = rng.getrandbits(1) == 1
    perm = shuffled(rng, problem.n_vars)
    flips = coins(rng, problem.n_vars)
    instance = transform(problem, perm, flips)
    claimed = tuple(bool(c) for c in coins(rng, problem.n_vars))
    if doctor:
        instance = tuple(
            clause if any(lit_holds(lit, claimed) for lit in clause)
            else tuple(sorted((-clause[0],) + clause[1:]))
            for clause in instance
        )
    drawn = salts(rng, len(instance))
    digests = commit([clause_entry(c) for c in instance], drawn)
    return digests, (perm, flips, drawn), (instance, claimed, drawn)


def honest_hc_round(problem, rng):
    perm = shuffled(rng, problem.n)
    matrix = relabel(problem, perm)
    drawn = salts(rng, problem.n * problem.n)
    return commit([matrix_entry(bit) for row in matrix for bit in row], drawn), perm, drawn


# --- strategies -----------------------------------------------------------------


@st.composite
def sat_problems(draw, max_vars=12, max_clauses=30):
    n = draw(st.integers(1, max_vars))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.tuples(literal, literal, literal), max_size=max_clauses))
    return SatProblem(n, tuple(clauses))


@st.composite
def hc_problems(draw, max_vertices=9):
    n = draw(st.integers(3, max_vertices))
    bits = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            rows[a][b] = rows[b][a] = bits[a * n + b]
    return HamiltonianCycleProblem(tuple(map(tuple, rows)))


def assignments(n):
    return st.lists(st.booleans(), min_size=n, max_size=n).map(tuple)


def sat_with(draw, problem):
    n = problem.n_vars
    perm = draw(st.permutations(range(n)))
    flips = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return tuple(perm), tuple(flips), draw(assignments(n))


# --- literal tables ---------------------------------------------------------------


@SETTINGS
@given(data=st.data())
def test_transform_and_is_solution_match_oracle(data):
    problem = data.draw(sat_problems())
    perm, flips, assignment = sat_with(data.draw, problem)
    moved_problem = SatProblem(problem.n_vars, problem.transform(perm, flips))
    assert moved_problem.clauses == transform(problem, perm, flips)
    assert problem.is_solution(assignment) == is_solution(problem, assignment)
    moved = problem.image(assignment, perm, flips)
    assert moved_problem.is_solution(moved) == is_solution(moved_problem, moved)
    assert moved_problem.is_solution(moved) == problem.is_solution(assignment)
    short = assignment[:-1]
    assert problem.is_solution(short) is is_solution(problem, short) is False


SALT = st.binary(min_size=16, max_size=16)


@SETTINGS
@given(
    clauses_and_salts=st.lists(
        st.tuples(st.lists(st.integers(-2**31, 2**31 - 1), min_size=3, max_size=3).map(sorted),
                  SALT)
    )
)
def test_clause_entries_match_oracle(clauses_and_salts):
    # SatProblem.digests packs literals in the order given: the prover's
    # clauses come sorted from transform, and the verifier sorts the ones it
    # opens
    clauses, drawn = [c for c, _ in clauses_and_salts], [s for _, s in clauses_and_salts]
    assert SatProblem.digests(clauses, drawn) == list(
        commit([clause_entry(c) for c in clauses], drawn)
    )


def test_matrix_entries_match_oracle():
    matrix = ((0, 1, 1), (1, 0, 0), (1, 0, 0))
    drawn = [bytes([i]) * 16 for i in range(9)]
    bits = [bit for row in matrix for bit in row]
    assert HamiltonianCycleProblem.digests(bits, drawn) == list(
        commit([matrix_entry(bit) for row in matrix for bit in row], drawn)
    )


@st.composite
def malformed_sat_problems(draw):
    """Mostly 3-literal clauses over -(n+1)..n+1: each may have a wrong
    length, a literal 0 or one past either end."""
    n = draw(st.integers(1, 6))
    literal = st.integers(-(n + 1), n + 1)
    clause = st.sampled_from((3, 3, 3, 2, 4)).flatmap(
        lambda size: st.lists(literal, min_size=size, max_size=size).map(tuple)
    )
    return SatProblem(n, tuple(draw(st.lists(clause, max_size=6))))


@SETTINGS
@given(problem=malformed_sat_problems())
def test_validate_matches_oracle_on_malformed_clauses(problem):
    """Wrong lengths, literal 0 and literals beyond n: the same error, or none."""
    try:
        validate(problem)
        expected = None
    except ValueError as exc:
        expected = str(exc)
    try:
        problem.validate()
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == expected


@pytest.mark.parametrize(
    "clause",
    [(1, 2), (1, 2, 3, -1), (0, 1, 2), (1, -2, 4), (-4, 1, 2), (1, 2, 2**40)],
    ids=["short", "long", "zero", "above", "below", "beyond_int32"],
)
def test_malformed_opened_clause_is_rejected(clause):
    problem = SatProblem(3, ((1, 2, -3), (-1, 2, 3)))
    for check in (validate, SatProblem.validate):
        with pytest.raises(ValueError):
            check(SatProblem(3, (clause,)))
    commitment, state = cipher_round(problem, (True, True, False), Sha256Rng(b"malformed"))
    response = state.respond(Challenge.REVEAL_SOLUTION)
    forged = response._replace(clauses=(clause,) + response.clauses[1:])
    assert not verify_round(problem, commitment, Challenge.REVEAL_SOLUTION, forged)


# --- whole rounds -------------------------------------------------------------------


@SETTINGS
@given(data=st.data(), seed=st.binary(max_size=8))
def test_honest_sat_round_matches_oracle(data, seed):
    problem = data.draw(sat_problems())
    assignment = data.draw(assignments(problem.n_vars))
    if not is_solution(problem, assignment):
        with pytest.raises(ValueError):
            cipher_round(problem, assignment, Sha256Rng(seed))
        return
    commitment, state = cipher_round(problem, assignment, Sha256Rng(seed))
    digests, cipher, solution = honest_sat_round(problem, assignment, Sha256Rng(seed))
    assert commitment.digests == digests
    challenge = data.draw(st.sampled_from(list(Challenge)))
    response = state.respond(challenge)
    if challenge is Challenge.REVEAL_CIPHER:
        assert (response.permutation, response.flips, response.salts) == cipher
    else:
        assert (response.clauses, response.assignment, response.salts) == solution
    assert verify_round(problem, commitment, challenge, response)


@SETTINGS
@given(data=st.data(), seed=st.binary(max_size=8))
def test_forged_sat_round_matches_oracle(data, seed):
    problem = data.draw(sat_problems())
    commitment, state = forge_round(problem, Sha256Rng(seed))
    digests, cipher, solution = forged_sat_round(problem, Sha256Rng(seed))
    assert commitment.digests == digests
    challenge = data.draw(st.sampled_from(list(Challenge)))
    response = state.respond(challenge)
    if challenge is Challenge.REVEAL_CIPHER:
        assert (response.permutation, response.flips, response.salts) == cipher
    else:
        assert (response.clauses, response.assignment, response.salts) == solution


@SETTINGS
@given(data=st.data(), seed=st.binary(max_size=8))
def test_relabel_and_hc_round_match_oracle(data, seed):
    problem = data.draw(hc_problems())
    perm = tuple(data.draw(st.permutations(range(problem.n))))
    assert problem.relabel(perm) == relabel(problem, perm)
    # Plant a cycle through the vertices in a drawn order, then run a round.
    order = tuple(data.draw(st.permutations(range(problem.n))))
    rows = [list(row) for row in problem.adjacency]
    for t in range(problem.n):
        a, b = order[t], order[(t + 1) % problem.n]
        rows[a][b] = rows[b][a] = 1
    planted = HamiltonianCycleProblem(tuple(map(tuple, rows)))
    commitment, state = cipher_round(planted, order, Sha256Rng(seed))
    digests, perm, drawn = honest_hc_round(planted, Sha256Rng(seed))
    assert commitment.digests == digests
    response = state.respond(Challenge.REVEAL_CIPHER)
    assert (response.permutation, response.salts) == (perm, drawn)


# --- the stream ---------------------------------------------------------------------


def test_stream_blocks_across_pool_refills_are_one_shot_hashes():
    key = hashlib.sha256(b"refill\x00seed").digest()
    blocks = b"".join(hashlib.sha256(key + i.to_bytes(8, "little")).digest() for i in range(12))
    rng, pos = Sha256Rng(b"seed", label=b"refill"), 0
    # 20 leaves 12 bytes pooled; 50 refills across two blocks; 1 and 31
    # end at a block edge, 0 draws nothing, 200 refills seven blocks.
    for size in (20, 50, 1, 31, 0, 200, 64):
        assert rng.randbytes(size) == blocks[pos : pos + size]
        pos += size


# --- transcript rounds ----------------------------------------------------------------

GRAPH = HamiltonianCycleProblem(((0, 1, 1, 1), (1, 0, 1, 0), (1, 1, 0, 1), (1, 0, 1, 0)))
GRAPH_CYCLE = (0, 1, 2, 3)
PATH = HamiltonianCycleProblem(((0, 1, 0), (1, 0, 1), (0, 1, 0)))
CLAUSES = SatProblem(3, ((1, 2, -3), (-1, 2, 3), (1, -2, -3)))
CLAUSES_ASSIGNMENT = (True, True, False)
# One clause, so a solution response opens exactly one salt.
ONE_CLAUSE = SatProblem(2, ((1, -2, 2),))
UNSAT = SatProblem(1, ((1, 1, 1), (-1, -1, -1)))

# (problem, solution or None to forge) for each kind, honest and cheating.
ROUND_CASES = {
    "hc-honest": (GRAPH, GRAPH_CYCLE),
    "hc-cheat": (PATH, None),
    "sat-honest": (CLAUSES, CLAUSES_ASSIGNMENT),
    "sat-one-salt": (ONE_CLAUSE, (True, False)),
    "sat-no-clauses": (SatProblem(2, ()), (False, True)),
    "sat-cheat": (UNSAT, None),
}


def played_round(problem, solution, challenge, seed):
    rng = Sha256Rng(seed)
    if solution is None:
        commitment, state = forge_round(problem, rng)
    else:
        commitment, state = cipher_round(problem, solution, rng)
    response = state.respond(challenge)
    return commitment, challenge, response, verify_round(problem, commitment, challenge, response)


@pytest.mark.parametrize("challenge", list(Challenge), ids=[c.value for c in Challenge])
@pytest.mark.parametrize("case", list(ROUND_CASES))
def test_encoded_round_is_the_compact_json_of_its_record(case, challenge):
    problem, solution = ROUND_CASES[case]
    verdicts = set()
    for i in range(8):  # a forger's guess differs between seeds
        played = played_round(problem, solution, challenge, b"encode-%d" % i)
        assert encode_round(*played) == compact(round_record(*played))
        verdicts.add(played[-1])
    # an honest round is accepted; a forger is caught on some seeds, not all
    assert verdicts == ({True} if solution is not None else {True, False})


def test_round_cases_open_one_salt_and_none():
    for case, opened in (("sat-one-salt", 1), ("sat-no-clauses", 0)):
        problem, solution = ROUND_CASES[case]
        played = played_round(problem, solution, Challenge.REVEAL_SOLUTION, b"open")
        assert len(played[2].salts) == opened and played[-1] is True


@pytest.mark.parametrize("case", list(ROUND_CASES))
def test_session_chunks_are_the_compact_json_of_the_session(case):
    problem, solution = ROUND_CASES[case]
    cheat = solution is None
    for seed in (b"chunks-0", b"chunks-1", b"chunks-2"):
        records = [round_record(*played) for played in
                   session_rounds(problem, solution, rounds=6, seed=seed, cheat=cheat)]
        result = run_session(problem, solution, rounds=6, seed=seed, cheat=cheat)
        session = {"accepted": records[-1]["verdict"], "rounds_run": len(records),
                   "rounds": records}
        assert b"".join(result.chunks()) == compact(session) + b"\n"
