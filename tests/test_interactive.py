import hashlib
import importlib.util
import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from snarkpipe import (
    Challenge,
    HamiltonianCycleProblem,
    RoundConsumed,
    SatProblem,
    Sha256Rng,
    cipher_round,
    forge_round,
    run_session,
    verify_round,
)
from snarkpipe.bundled import load_bundled_text
from snarkpipe.cli import main
from snarkpipe.interactive import (
    MAX_REPEAT_ENTRIES,
    MAX_ROUND_ENTRIES,
    MAX_SESSION_ENTRIES,
    MAX_VARIABLES,
    MAX_VERTICES,
    PROBLEM_TYPES,
    RoundCommitment,
    load_problem,
    session_rounds,
)
from snarkpipe.rng import derive_seed

K3 = HamiltonianCycleProblem(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
K3_CYCLE = (0, 1, 2)

# 4-vertex path: no Hamiltonian cycle exists.
PATH4 = HamiltonianCycleProblem(
    ((0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 0))
)

SAT1 = SatProblem(3, ((1, 2, -3),))
SAT1_ASSIGNMENT = (True, False, False)

UNSAT = SatProblem(
    3,
    (
        (1, 2, 3), (1, 2, -3), (1, -2, 3), (1, -2, -3),
        (-1, 2, 3), (-1, 2, -3), (-1, -2, 3), (-1, -2, -3),
    ),
)


class IdentityRng(Sha256Rng):
    """Leaves every permutation alone and never flips a sign; salts still
    come from the underlying stream."""

    def shuffle(self, seq):
        pass

    def getrandbits(self, k):
        if k == 1:
            return 0
        return super().getrandbits(k)


# --- problems -----------------------------------------------------------------


def test_problem_validation():
    K3.validate()
    PATH4.validate()
    SAT1.validate()
    with pytest.raises(ValueError):
        HamiltonianCycleProblem(((0, 1), (1, 0))).validate()  # too small
    with pytest.raises(ValueError):
        HamiltonianCycleProblem(((0, 1, 1), (0, 0, 1), (1, 1, 0))).validate()
    with pytest.raises(ValueError):
        SatProblem(2, ((1, 2, 3),)).validate()  # literal out of range


def test_solution_checks():
    assert K3.is_solution(K3_CYCLE)
    assert K3.is_solution((2, 0, 1))
    assert not K3.is_solution((0, 1))  # not a full tour
    assert not K3.is_solution((0, 1, 1))
    assert not PATH4.is_solution((0, 1, 2, 3))  # missing wrap-around edge
    assert SAT1.is_solution(SAT1_ASSIGNMENT)
    assert not SAT1.is_solution((False, False, True))
    assert not any(
        UNSAT.is_solution(tuple(bool(m >> i & 1) for i in range(3)))
        for m in range(8)
    )


def test_sat_transform_preserves_satisfaction():
    # Hand example: rename 1->2, 2->3, 3->1 and flip variable 1's polarity.
    perm = (1, 2, 0)
    flips = (1, 0, 0)
    transformed = SAT1.transform(perm, flips)
    assert transformed == ((-2, -1, 3),)
    moved = SAT1.image(SAT1_ASSIGNMENT, perm, flips)
    carrier = SatProblem(3, transformed)
    assert carrier.is_solution(moved)


def test_sat_transform_round_trip_many(ctx17):
    rng = Sha256Rng(b"sat-transforms")
    for _ in range(100):
        perm = list(range(3))
        rng.shuffle(perm)
        flips = tuple(rng.getrandbits(1) for _ in range(3))
        carrier = SatProblem(3, SAT1.transform(tuple(perm), flips))
        moved = SAT1.image(SAT1_ASSIGNMENT, tuple(perm), flips)
        assert carrier.is_solution(moved)


# --- rounds -------------------------------------------------------------------


@pytest.mark.parametrize("challenge", list(Challenge))
def test_honest_round_passes_both_branches(challenge):
    commitment, state = cipher_round(K3, K3_CYCLE, Sha256Rng(b"round"))
    response = state.respond(challenge)
    assert verify_round(K3, commitment, challenge, response)


@pytest.mark.parametrize("challenge", list(Challenge))
def test_honest_sat_round_passes_both_branches(challenge):
    commitment, state = cipher_round(SAT1, SAT1_ASSIGNMENT, Sha256Rng(b"round"))
    response = state.respond(challenge)
    assert verify_round(SAT1, commitment, challenge, response)


def test_identity_permutation_is_degenerate_but_legal():
    commitment, state = cipher_round(K3, K3_CYCLE, IdentityRng(b"id"))
    response = state.respond(Challenge.REVEAL_CIPHER)
    assert response.permutation == (0, 1, 2)
    # ciphered instance equals the original: recompute digests directly
    n = K3.n
    for i in range(n):
        for j in range(n):
            entry = bytes([K3.adjacency[i][j]])
            salt = response.salts[i * n + j]
            assert hashlib.sha256(entry + salt).digest() == commitment.digests[i * n + j]
    assert verify_round(K3, commitment, Challenge.REVEAL_CIPHER, response)


def test_round_is_consumed_by_first_response():
    _, state = cipher_round(K3, K3_CYCLE, Sha256Rng(b"consume"))
    state.respond(Challenge.REVEAL_CIPHER)
    with pytest.raises(RoundConsumed):
        state.respond(Challenge.REVEAL_SOLUTION)


def test_honest_api_refuses_invalid_solution():
    with pytest.raises(ValueError):
        cipher_round(K3, (0, 2, 1, 1), Sha256Rng(b"x"))
    with pytest.raises(ValueError):
        cipher_round(PATH4, (0, 1, 2, 3), Sha256Rng(b"x"))


def test_solution_branch_opens_exactly_v_salts():
    # Structural zero-knowledge: |V| salts for |V| cycle edges, nothing else.
    commitment, state = cipher_round(K3, K3_CYCLE, Sha256Rng(b"zk"))
    response = state.respond(Challenge.REVEAL_SOLUTION)
    assert len(response.salts) == K3.n
    assert response.permutation is None


def test_commitment_binding():
    # Altering any committed digest makes both branches fail.
    for challenge in Challenge:
        commitment, state = cipher_round(K3, K3_CYCLE, Sha256Rng(b"bind"))
        digests = list(commitment.digests)
        digests[4] = bytes(32)
        broken = RoundCommitment(tuple(digests))
        response = state.respond(challenge)
        if challenge is Challenge.REVEAL_CIPHER:
            assert not verify_round(K3, broken, challenge, response)
        else:
            # position 4 = entry (1,1): not a cycle edge opening, so flip one
            # that is opened
            opened_positions = {
                response.cycle[t] * K3.n + response.cycle[(t + 1) % K3.n]
                for t in range(K3.n)
            }
            digests = list(commitment.digests)
            digests[next(iter(opened_positions))] = bytes(32)
            broken = RoundCommitment(tuple(digests))
            assert not verify_round(K3, broken, challenge, response)


def test_wrong_challenge_response_pairing_rejected():
    commitment, state = cipher_round(K3, K3_CYCLE, Sha256Rng(b"mix"))
    response = state.respond(Challenge.REVEAL_CIPHER)
    assert not verify_round(K3, commitment, Challenge.REVEAL_SOLUTION, response)


# --- forged rounds --------------------------------------------------------------


def forged_round_with_guess(problem, want_solution_guess, seed_base=b"forge"):
    for i in range(1000):
        rng = Sha256Rng(derive_seed(seed_base, f"try{i}"))
        probe = Sha256Rng(derive_seed(seed_base, f"try{i}"))
        guess_solution = probe.getrandbits(1) == 1
        if guess_solution == want_solution_guess:
            return forge_round(problem, rng)
    raise AssertionError("coin never landed on the wanted side")


def test_forged_solution_branch_survives_solution_challenge():
    commitment, state = forged_round_with_guess(PATH4, want_solution_guess=True)
    response = state.respond(Challenge.REVEAL_SOLUTION)
    assert verify_round(PATH4, commitment, Challenge.REVEAL_SOLUTION, response)


def test_forged_solution_branch_fails_cipher_challenge():
    commitment, state = forged_round_with_guess(PATH4, want_solution_guess=True)
    response = state.respond(Challenge.REVEAL_CIPHER)
    assert not verify_round(PATH4, commitment, Challenge.REVEAL_CIPHER, response)


def test_forged_cipher_branch_fails_solution_challenge():
    commitment, state = forged_round_with_guess(PATH4, want_solution_guess=False)
    response = state.respond(Challenge.REVEAL_SOLUTION)
    assert not verify_round(PATH4, commitment, Challenge.REVEAL_SOLUTION, response)


def test_forged_cipher_branch_survives_cipher_challenge():
    commitment, state = forged_round_with_guess(PATH4, want_solution_guess=False)
    response = state.respond(Challenge.REVEAL_CIPHER)
    assert verify_round(PATH4, commitment, Challenge.REVEAL_CIPHER, response)


def test_sat_forgery_mirrors_graph_forgery():
    com, state = forged_round_with_guess(UNSAT, want_solution_guess=True, seed_base=b"satf")
    assert verify_round(UNSAT, com, Challenge.REVEAL_SOLUTION,
                        state.respond(Challenge.REVEAL_SOLUTION))
    com, state = forged_round_with_guess(UNSAT, want_solution_guess=True, seed_base=b"satf2")
    assert not verify_round(UNSAT, com, Challenge.REVEAL_CIPHER,
                            state.respond(Challenge.REVEAL_CIPHER))


# --- sessions ---------------------------------------------------------------------


@pytest.mark.parametrize("rounds", list(range(1, 21)))
def test_honest_sessions_accept_all_round_counts(rounds):
    for seed in (b"a", b"b", b"c"):
        assert run_session(K3, K3_CYCLE, rounds=rounds, seed=seed).accepted


def test_honest_sat_sessions_accept():
    for rounds in (1, 5, 10):
        assert run_session(SAT1, SAT1_ASSIGNMENT, rounds=rounds, seed=b"s").accepted


def test_session_transcript_shape():
    result = run_session(K3, K3_CYCLE, rounds=3, seed=b"t")
    assert result.accepted and result.rounds_run == 3
    assert len(result.transcript) == 3
    for entry in map(json.loads, result.transcript):
        assert set(entry) == {"commitments", "challenge", "response", "verdict"}
        assert entry["verdict"] is True
        assert len(entry["commitments"]) == K3.n * K3.n
    # the chunks are the transcript file's JSON
    rounds = json.loads(b"".join(result.chunks()))["rounds"]
    assert rounds == list(map(json.loads, result.transcript))


def test_sessions_are_reproducible():
    a = run_session(K3, K3_CYCLE, rounds=5, seed=b"repro")
    b = run_session(K3, K3_CYCLE, rounds=5, seed=b"repro")
    assert a.chunks() == b.chunks()


def accepted(problem, solution, rounds, seed, cheat=False) -> bool:
    """A session's verdict, read off its rounds without encoding them."""
    return all(verdict for *_, verdict in session_rounds(problem, solution, rounds, seed, cheat))


@pytest.mark.parametrize(
    "problem, solution, cheat",
    [
        (K3, K3_CYCLE, False), (PATH4, None, True),
        (SAT1, SAT1_ASSIGNMENT, False), (UNSAT, None, True),
    ],
    ids=["hc-honest", "hc-cheat", "sat-honest", "sat-cheat"],
)
def test_session_verdict_agrees_with_run_session(problem, solution, cheat):
    # The verdict-only path (--repeat, selftest) and the transcript path
    # (run_session, --transcript) run the same rounds to the same verdict.
    verdicts = set()
    for i in range(40):
        seed = derive_seed(b"agree", f"s{i}")
        result = run_session(problem, solution, rounds=3, seed=seed, cheat=cheat)
        assert accepted(problem, solution, 3, seed, cheat) == result.accepted
        verdicts.add(result.accepted)
    # a cheater on an unsolvable problem meets both verdicts
    assert verdicts == ({True, False} if cheat else {True})


def test_cheater_single_round_rate_near_half():
    trials = 10000
    hits = sum(
        accepted(PATH4, None, 1, derive_seed(b"rate", f"s{i}"), cheat=True)
        for i in range(trials)
    )
    assert abs(hits / trials - 0.5) <= 0.02


def test_cheater_decay_with_rounds():
    trials = 2000
    hits = sum(
        accepted(PATH4, None, 5, derive_seed(b"decay", f"s{i}"), cheat=True)
        for i in range(trials)
    )
    expected = trials / 32
    sigma = (trials * (1 / 32) * (31 / 32)) ** 0.5
    assert abs(hits - expected) <= 3 * sigma


def test_session_argument_validation():
    with pytest.raises(ValueError):
        run_session(K3, K3_CYCLE, rounds=0, seed=b"")
    with pytest.raises(ValueError):
        run_session(K3, None, rounds=1, seed=b"")  # honest needs a solution


# --- problem files ----------------------------------------------------------------


def test_load_bundled_problems():
    tri, cycle = load_problem(json.loads(load_bundled_text("triangle.json")))
    assert tri == K3 and cycle == K3_CYCLE
    path4, nothing = load_problem(json.loads(load_bundled_text("path4.json")))
    assert path4 == PATH4 and nothing is None
    sat, assignment = load_problem(json.loads(load_bundled_text("sat_demo.json")))
    assert sat.is_solution(assignment)
    unsat, _ = load_problem(json.loads(load_bundled_text("sat_unsat.json")))
    assert unsat == UNSAT


def test_load_problem_rejects_bad_data():
    with pytest.raises(ValueError):
        load_problem({"type": "sudoku"})
    with pytest.raises(ValueError):
        load_problem(
            {"type": "hamiltonian-cycle", "adjacency": [[0, 1], [1, 0]],
             "cycle": [0, 1]}
        )
    with pytest.raises(ValueError):
        load_problem(
            {"type": "sat3", "variables": 1, "clauses": [[1, 1, 1]],
             "assignment": [False]}
        )


def test_load_problem_refuses_a_null_solution():
    # Absent is the one form of "no solution": a null would be a second
    # accepted form of the same file.
    for name, field in (("triangle.json", "cycle"), ("sat_demo.json", "assignment")):
        data = json.loads(load_bundled_text(name))
        with pytest.raises(ValueError, match=f"{field} must be an array of JSON"):
            load_problem({**data, field: None})
        del data[field]
        assert load_problem(data)[1] is None


def test_load_problem_bounds_variables():
    sat = {"type": "sat3", "clauses": [[1, 2, -3]]}
    problem, _ = load_problem({**sat, "variables": MAX_VARIABLES})
    assert problem.n_vars == MAX_VARIABLES
    with pytest.raises(ValueError, match="variables"):
        load_problem({**sat, "variables": MAX_VARIABLES + 1})


def test_load_problem_bounds_the_entries_of_a_round():
    assert MAX_VERTICES**2 == MAX_ROUND_ENTRIES == 1 << 16
    sat = {"type": "sat3", "variables": 3}
    problem, _ = load_problem({**sat, "clauses": [[1, 2, -3]] * MAX_ROUND_ENTRIES})
    assert len(problem.clauses) == MAX_ROUND_ENTRIES
    with pytest.raises(ValueError, match="^clauses must hold at most 65536, not 65537$"):
        load_problem({**sat, "clauses": [[1, 2, -3]] * (MAX_ROUND_ENTRIES + 1)})
    n = MAX_VERTICES
    ring = [[int((i - j) % n in (1, n - 1)) for j in range(n)] for i in range(n)]
    graph = {"type": "hamiltonian-cycle", "adjacency": ring, "cycle": list(range(n))}
    problem, cycle = load_problem(graph)
    assert problem.n == n and cycle == tuple(range(n))
    # one row too many is refused before the matrix is checked for squareness
    with pytest.raises(ValueError, match="^adjacency must have at most 256 rows, not 257$"):
        load_problem({**graph, "adjacency": ring + [[0] * n]})


# A SAT problem whose rounds send 8 entries: 5 clauses and 3 variables.
SAT8 = SatProblem(3, ((1, 2, 3), (1, -2, 3), (1, 2, -3), (-1, 2, 3), (1, -2, -3)))
SAT8_ASSIGNMENT = (True, True, True)


def test_session_rounds_are_bounded_before_the_first_round():
    assert MAX_SESSION_ENTRIES == 1 << 20
    at_limit = MAX_SESSION_ENTRIES // 8
    assert at_limit * 8 == MAX_SESSION_ENTRIES
    rounds = session_rounds(SAT8, SAT8_ASSIGNMENT, rounds=at_limit, seed=b"bound")
    assert next(rounds)[-1] is True
    for cheat in (False, True):
        with pytest.raises(ValueError) as refused:
            session_rounds(SAT8, SAT8_ASSIGNMENT, rounds=at_limit + 1, cheat=cheat)
        assert str(refused.value) == (
            "a session sends at most 1048576 entries, and 131073 rounds of 8 send"
            " 1048584; at most 131072 rounds fit"
        )
    # A round of one variable and no clause sends one entry: the bound is
    # exact to the entry.
    one = SatProblem(1, ())
    session_rounds(one, (True,), rounds=MAX_SESSION_ENTRIES)
    with pytest.raises(ValueError, match="send 1048577; at most 1048576 rounds fit$"):
        session_rounds(one, (True,), rounds=MAX_SESSION_ENTRIES + 1)
    # A round of a 256-vertex graph sends 65536 commitments and 256 vertices.
    n = MAX_VERTICES
    ring = HamiltonianCycleProblem(
        tuple(tuple(int((i - j) % n in (1, n - 1)) for j in range(n)) for i in range(n))
    )
    session_rounds(ring, tuple(range(n)), rounds=15)
    with pytest.raises(ValueError, match="at most 15 rounds fit$"):
        session_rounds(ring, tuple(range(n)), rounds=16)


def test_cli_refuses_a_session_past_the_bound(tmp_path, capsys):
    # triangle's rounds send 12 entries: 9 commitments and 3 vertices
    path = tmp_path / "t.json"
    argv = ["--seed", "01", "interactive", "--problem", "triangle", "--transcript", str(path)]
    assert main([*argv, "--rounds", "87382"]) == 1
    assert capsys.readouterr().err == (
        "error: a session sends at most 1048576 entries, and 87382 rounds of 12 send"
        " 1048584; at most 87381 rounds fit\n"
    )
    assert not path.exists()


BENCHMARK_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def benchmark_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCHMARK_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks the module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def test_session_bound_admits_the_benchmark_and_readme_sessions():
    workloads = benchmark_workloads()
    rng = random.Random(1)
    for workload in workloads.WORKLOADS.values():
        for problem in (
            workloads.hamiltonian_problem(workload.hc_vertices, workload.hc_chord_rate, rng),
            workloads.sat_problem(workload.sat_vars, workload.sat_clauses, rng),
        ):
            problem, solution = load_problem(problem)
            session_rounds(problem, solution, rounds=workloads.SESSION_ROUNDS)
            # its cheating sessions, one round each, run through --repeat
            assert workload.cheat_sessions * problem.round_entries() <= MAX_REPEAT_ENTRIES
    for name in ("triangle", "path4"):
        problem, _ = load_problem(json.loads(load_bundled_text(f"{name}.json")))
        session_rounds(problem, rounds=10, cheat=True)
    # README's `--problem path4 --cheat --rounds 10 --repeat 10000`
    assert 10_000 * 10 * problem.round_entries() <= MAX_REPEAT_ENTRIES


def test_benchmark_problem_files_hold_exactly_the_keys_of_their_type():
    workloads = benchmark_workloads()
    rng = random.Random(1)
    for workload in workloads.WORKLOADS.values():
        for problem in (
            workloads.hamiltonian_problem(workload.hc_vertices, workload.hc_chord_rate, rng),
            workloads.sat_problem(workload.sat_vars, workload.sat_clauses, rng),
        ):
            assert problem.keys() == PROBLEM_TYPES[problem["type"]].file_keys
            _, solution = load_problem(problem)
            assert solution is not None


# --- pinned transcripts and commitment shape --------------------------------------

# SHA-256 of the transcript file, b"".join(run_session(...).chunks()), recorded
# before the commit path was shared between problem kinds and provers: the
# salts, digests and responses of every round must stay byte for byte the same.
PINNED_TRANSCRIPTS = [
    ("triangle.json", False, b"pinned-triangle", (True, 8),
     "34616e13dc3a0d79fe8df545203b2a427913ebf4a4200dfca38ea727dfe65bc5"),
    ("sat_demo.json", False, b"pinned-sat_demo", (True, 8),
     "1c384f08bde5bfb6b580250e899ad90f9a96e64f645b1364ec474361dfd8da6c"),
    ("path4.json", True, b"pinned-4", (False, 5),
     "304740f608b259b4c322d71d28bceb6fad6f0b4106bfdf9f8b1cec754c0153b4"),
    ("sat_unsat.json", True, b"pinned-39", (False, 6),
     "9c0f43489e61964bb6d70433a42381da8d4a2e9971619ac584761c106436a26f"),
]


@pytest.mark.parametrize(
    "name, cheat, seed, outcome, digest", PINNED_TRANSCRIPTS,
    ids=[case[0].removesuffix(".json") for case in PINNED_TRANSCRIPTS],
)
def test_transcript_bytes_pinned(name, cheat, seed, outcome, digest):
    problem, solution = load_problem(json.loads(load_bundled_text(name)))
    result = run_session(
        problem, None if cheat else solution, rounds=8, seed=seed, cheat=cheat
    )
    assert (result.accepted, result.rounds_run) == outcome
    assert hashlib.sha256(b"".join(result.chunks())).hexdigest() == digest



def planted_cycle_graph(n: int, chord_rate: float, rng: random.Random) -> tuple:
    """A graph on n vertices with a planted Hamiltonian cycle plus random
    chords, and that cycle."""
    cycle = list(range(n))
    rng.shuffle(cycle)
    adjacency = [[0] * n for _ in range(n)]
    for t in range(n):
        a, b = cycle[t], cycle[(t + 1) % n]
        adjacency[a][b] = adjacency[b][a] = 1
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < chord_rate:
                adjacency[a][b] = adjacency[b][a] = 1
    return HamiltonianCycleProblem(tuple(map(tuple, adjacency))), tuple(cycle)


def planted_sat(n_vars: int, n_clauses: int, rng: random.Random) -> tuple:
    """A 3-SAT instance whose every clause holds under a planted assignment,
    and that assignment."""
    planted = tuple(rng.random() < 0.5 for _ in range(n_vars))
    clauses = []
    while len(clauses) < n_clauses:
        chosen = rng.sample(range(1, n_vars + 1), 3)
        clause = tuple(v if rng.random() < 0.5 else -v for v in chosen)
        if any((lit > 0) == planted[abs(lit) - 1] for lit in clause):
            clauses.append(clause)
    return SatProblem(n_vars, tuple(clauses)), planted


# The sizes of the benchmark's interactive workload: one round commits 576
# matrix entries (a 9216-byte salt draw) or 420 clauses over 100 variables.
# Recorded like PINNED_TRANSCRIPTS, before salts and coin flips were drawn in
# bulk. Each cheating seed survives a few rounds of both challenges.
SCALE_PROBLEMS = {
    "hc24": planted_cycle_graph(24, 0.15, random.Random(24)),
    "sat100": planted_sat(100, 420, random.Random(420)),
}
PINNED_SCALE_TRANSCRIPTS = [
    ("hc24", False, b"scale-hc", (True, 20),
     "c458020c6a1d3af2fc77d7cef2cac3457038c7f8ffba6d0b9fb5317b80025932"),
    ("hc24", True, b"scale-hc-cheat-3", (False, 4),
     "bd3383e78b335fae0f1a3d7e8faa95be6d148e82578f9ff37f6bf52d7521c10a"),
    ("sat100", False, b"scale-sat", (True, 20),
     "0c3151e195e503b861f7f5e970d070e1481ad778348489a920e6eeb601ef9bc7"),
    ("sat100", True, b"scale-sat-cheat-13", (False, 7),
     "aa3ed39a17edcfb14263d506f888759668fcbfbec73d14dda7bf56c081d8080a"),
]


@pytest.mark.parametrize(
    "name, cheat, seed, outcome, digest", PINNED_SCALE_TRANSCRIPTS,
    ids=[f"{case[0]}-{'cheat' if case[1] else 'honest'}" for case in PINNED_SCALE_TRANSCRIPTS],
)
def test_scale_transcript_bytes_pinned(name, cheat, seed, outcome, digest):
    problem, solution = SCALE_PROBLEMS[name]
    problem.validate()
    result = run_session(
        problem, None if cheat else solution, rounds=20, seed=seed, cheat=cheat
    )
    assert (result.accepted, result.rounds_run) == outcome
    assert hashlib.sha256(b"".join(result.chunks())).hexdigest() == digest


# --- the CLI's transcript file -------------------------------------------------


def problem_argument(name: str, directory) -> tuple:
    """(problem, solution, --problem argument): a bundled name, or a file
    written for a scale problem."""
    if name not in SCALE_PROBLEMS:
        return (*load_problem(json.loads(load_bundled_text(f"{name}.json"))), name)
    problem, solution = SCALE_PROBLEMS[name]
    if isinstance(problem, HamiltonianCycleProblem):
        data = {"type": "hamiltonian-cycle", "adjacency": problem.adjacency, "cycle": solution}
    else:
        data = {"type": "sat3", "variables": problem.n_vars, "clauses": problem.clauses,
                "assignment": solution}
    path = directory / f"{name}.json"
    path.write_text(json.dumps(data))
    return problem, solution, str(path)


# Honest and cheating sessions, accepted and rejected before the last round,
# and single rounds, on every bundled and scale problem.
CLI_SESSIONS = [
    ("triangle", False, b"pinned-triangle", 8, (True, 8)),
    ("triangle", True, b"cheat-0", 1, (True, 1)),
    ("sat_demo", False, b"pinned-sat_demo", 8, (True, 8)),
    ("sat_demo", True, b"cheat-0", 1, (False, 1)),
    ("path4", True, b"pinned-4", 8, (False, 5)),
    ("path4", True, b"cheat-2", 3, (True, 3)),
    ("sat_unsat", True, b"pinned-39", 8, (False, 6)),
    ("sat_unsat", True, b"cheat-2", 1, (True, 1)),
    ("hc24", False, b"scale-hc", 20, (True, 20)),
    ("hc24", False, b"scale-hc", 1, (True, 1)),
    ("hc24", True, b"scale-hc-cheat-3", 20, (False, 4)),
    ("hc24", True, b"cheat-5", 3, (True, 3)),
    ("hc24", True, b"cheat-0", 1, (False, 1)),
    ("sat100", False, b"scale-sat", 20, (True, 20)),
    ("sat100", False, b"scale-sat", 1, (True, 1)),
    ("sat100", True, b"scale-sat-cheat-13", 20, (False, 7)),
    ("sat100", True, b"cheat-4", 3, (True, 3)),
    ("sat100", True, b"cheat-0", 1, (False, 1)),
]


@pytest.mark.parametrize(
    "name, cheat, seed, rounds, outcome", CLI_SESSIONS,
    ids=[f"{c[0]}-{'cheat' if c[1] else 'honest'}-{c[3]}-{c[4][1]}" for c in CLI_SESSIONS],
)
def test_cli_transcript_is_the_encoded_session(tmp_path, name, cheat, seed, rounds, outcome):
    problem, solution, argument = problem_argument(name, tmp_path)
    result = run_session(
        problem, None if cheat else solution, rounds=rounds, seed=seed, cheat=cheat
    )
    assert (result.accepted, result.rounds_run) == outcome
    path = tmp_path / "transcript.json"
    argv = ["--seed", seed.hex(), "interactive", "--problem", argument,
            "--rounds", str(rounds), "--transcript", str(path)] + ["--cheat"] * cheat
    assert main(argv) == (0 if outcome[0] else 2)
    assert path.read_bytes() == b"".join(result.chunks())


@pytest.mark.parametrize("name", ["hc24", "sat100"])
def test_cli_session_memory_stays_near_the_transcript_size(tmp_path, name):
    # Each round is encoded once judged, so the peak is the file's bytes plus
    # one round. Keeping every round's record and encoding the session at the
    # end peaked at 5.2x (hc24) and 6.7x (sat100).
    _, _, argument = problem_argument(name, tmp_path)
    path = tmp_path / "transcript.json"
    argv = ["--seed", "5e", "interactive", "--problem", argument, "--rounds", "20",
            "--transcript", str(path)]
    assert main(argv) == 0  # imports and first-use caches outside the measurement
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * path.stat().st_size


@pytest.mark.parametrize("challenge", list(Challenge))
@pytest.mark.parametrize(
    "problem, solution", [(K3, K3_CYCLE), (SAT1, SAT1_ASSIGNMENT)], ids=["hc", "sat"]
)
@pytest.mark.parametrize("change", ["extra_digest"])
def test_commitment_shape_must_match_problem(problem, solution, challenge, change):
    # A commitment is its digests: one per entry of the problem's instance.
    assert RoundCommitment._fields == ("digests",)
    commitment, state = cipher_round(problem, solution, Sha256Rng(b"shape"))
    response = state.respond(challenge)
    assert verify_round(problem, commitment, challenge, response)
    longer = RoundCommitment(commitment.digests + (bytes(32),))
    assert not verify_round(problem, longer, challenge, response)


def test_sat_cipher_opening_with_extra_digest_and_salt_rejected():
    commitment, state = cipher_round(SAT1, SAT1_ASSIGNMENT, Sha256Rng(b"extra"))
    response = state.respond(Challenge.REVEAL_CIPHER)
    salt = bytes(16)
    padded = response._replace(salts=response.salts + (salt,))
    longer = RoundCommitment(commitment.digests + (hashlib.sha256(b"\0" * 12 + salt).digest(),))
    assert not verify_round(SAT1, longer, Challenge.REVEAL_CIPHER, padded)


def test_sat_solution_opening_sorts_each_opened_clause():
    # A committed clause is its literals sorted; the verifier sorts what the
    # prover opens, so the literal order inside a clause is not part of it.
    commitment, state = cipher_round(SAT1, SAT1_ASSIGNMENT, Sha256Rng(b"order"))
    response = state.respond(Challenge.REVEAL_SOLUTION)
    assert all(list(clause) == sorted(clause) for clause in response.clauses)
    reordered = response._replace(clauses=tuple(clause[::-1] for clause in response.clauses))
    assert verify_round(SAT1, commitment, Challenge.REVEAL_SOLUTION, reordered)


def test_sat_solution_opening_refuses_malformed_clause():
    commitment, state = cipher_round(SAT1, SAT1_ASSIGNMENT, Sha256Rng(b"clause"))
    response = state.respond(Challenge.REVEAL_SOLUTION)
    for clauses in (((1, 2),), ((0, 1, 2),), ((1, 2, 4),)):
        forged = response._replace(clauses=clauses)
        assert not verify_round(SAT1, commitment, Challenge.REVEAL_SOLUTION, forged)



@pytest.mark.parametrize(
    "field, value",
    [("permutation", (0, 1.0, 2)), ("clauses", ((1.0, 2, -3),)), ("clauses", ((1.5, 2, -3),))],
    ids=["float_in_permutation", "float_literal", "fractional_literal"],
)
def test_sat_opening_with_non_integer_literal_is_rejected(field, value):
    """A literal that is not an int cannot be packed as one; the round is
    rejected rather than raising."""
    challenge = Challenge.REVEAL_CIPHER if field == "permutation" else Challenge.REVEAL_SOLUTION
    commitment, state = cipher_round(SAT1, SAT1_ASSIGNMENT, Sha256Rng(b"non-int"))
    forged = state.respond(challenge)._replace(**{field: value})
    assert not verify_round(SAT1, commitment, challenge, forged)
