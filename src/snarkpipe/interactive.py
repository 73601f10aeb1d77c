"""Commit-and-challenge interactive proof sessions.

Each round the prover reshuffles the public problem into an equivalent
instance, commits to that instance entry by entry, and the verifier flips a
coin to demand either the reshuffling itself or the reshuffled solution.
Revealing one side never exposes the private solution; being able to answer
both on demand does, so the prover would be caught guessing in half of the
rounds if it had no solution, and the escape probability halves each round.

Two problem flavours are supported:

* Hamiltonian cycle: the instance is an adjacency matrix, reshuffled by a
  vertex relabeling; commitments cover each matrix entry.
* 3-SAT: the instance is a clause list, reshuffled by a variable permutation
  plus per-variable polarity flips; commitments cover each clause.

Commitments are SHA-256 over the entry's canonical little-endian encoding
followed by a fresh 16-byte salt, so they bind (any post-hoc edit changes
the digest) and hide (the salt blinds the entry value).
"""

from __future__ import annotations

import enum
import hashlib
import struct
from collections import namedtuple

from .field import _quote
from .rng import Sha256Rng, derive_seed

__all__ = [
    "Challenge",
    "HamiltonianCycleProblem",
    "Response",
    "RoundCommitment",
    "RoundConsumed",
    "SatProblem",
    "SessionResult",
    "cipher_round",
    "forge_round",
    "load_problem",
    "run_session",
    "verify_round",
]

SALT_BYTES = 16
MAX_VARIABLES = 4096  # each round costs O(variables) whatever the clause count


class RoundConsumed(RuntimeError):
    """A prover round answers exactly one challenge."""


class Challenge(enum.Enum):
    REVEAL_CIPHER = "cipher"
    REVEAL_SOLUTION = "solution"


# Entry encodings: a matrix entry is its bit as one byte, a clause its three
# literals, sorted, as little-endian int32s.
_MATRIX_ENTRY = (b"\x00", b"\x01")
_CLAUSE = struct.Struct("<3i")

# Byte value -> its top bit. Sha256Rng.getrandbits(1) draws one byte and
# keeps its top bit, so translating one n-byte draw gives the same n coins.
_TOP_BIT = bytes(b >> 7 for b in range(256))


def _coins(rng, n: int) -> tuple:
    """n fair 0/1 coins from one draw."""
    return tuple(rng.randbytes(n).translate(_TOP_BIT))


# --- public problems ---------------------------------------------------------


# The records are named tuples: ``dataclasses`` would pull ``inspect`` and
# ``ast`` into every cold ``interactive`` run for these few classes alone.


class HamiltonianCycleProblem(namedtuple("HamiltonianCycleProblem", "adjacency")):
    """Find a cycle through every vertex of a simple undirected graph; the
    adjacency matrix is a tuple of tuples of 0/1."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.adjacency)

    def validate(self) -> None:
        n = self.n
        if n < 3:
            raise ValueError("graph needs at least 3 vertices")
        if any(len(row) != n for row in self.adjacency):
            raise ValueError("adjacency matrix must be square")
        for i, row in enumerate(self.adjacency):
            for j, bit in enumerate(row):
                if bit not in (0, 1):
                    raise ValueError("adjacency entries must be 0 or 1")
                if bit != self.adjacency[j][i]:
                    raise ValueError("graph must be undirected")
            if row[i] != 0:
                raise ValueError("graph must have no self-loops")

    def is_solution(self, cycle) -> bool:
        n = self.n
        if sorted(cycle) != list(range(n)):
            return False
        return all(
            self.adjacency[cycle[t]][cycle[(t + 1) % n]] == 1 for t in range(n)
        )

    def relabel(self, perm) -> tuple:
        """Adjacency matrix after renaming vertex i to perm[i]."""
        # Entry (a, b) of the result is entry (i, j) of the original, where
        # perm[i] = a and perm[j] = b.
        source = [0] * self.n
        for i, a in enumerate(perm):
            source[a] = i
        rows = self.adjacency
        return tuple([tuple(map(rows[i].__getitem__, source)) for i in source])


class SatProblem(namedtuple("SatProblem", "n_vars clauses")):
    """Satisfy a conjunction of 3-literal clauses (a tuple of 3-tuples);
    literal k means variable |k| (1-based), negated when k < 0."""

    __slots__ = ()

    def validate(self) -> None:
        n = self.n_vars
        if n < 1:
            raise ValueError("need at least one variable")
        literals = set(range(-n, n + 1))
        literals.discard(0)
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError("every clause must hold exactly 3 literals")
            if not literals.issuperset(clause):
                lit = next(lit for lit in clause if lit not in literals)
                raise ValueError(f"literal {lit} out of range")

    def is_solution(self, assignment) -> bool:
        if len(assignment) != self.n_vars:
            return False
        # A clause fails exactly when it shares no literal with the true ones.
        return not any(map(self._true_literals(assignment).isdisjoint, self.clauses))

    @staticmethod
    def _true_literals(assignment) -> set:
        """The literals an assignment makes true: k or -k for variable k."""
        return {k if value else -k for k, value in enumerate(assignment, 1)}

    def transform(self, perm, flips) -> tuple:
        """Clause list after renaming variable i to perm[i] and flipping the
        polarity of every variable with flips[i] set."""
        image = {}
        for k, (target, flip) in enumerate(zip(perm, flips), 1):
            image[k] = -(target + 1) if flip else target + 1
            image[-k] = -image[k]
        image_of = image.__getitem__
        return tuple([tuple(sorted(map(image_of, clause))) for clause in self.clauses])

    def transform_assignment(self, assignment, perm, flips) -> tuple:
        out = [False] * self.n_vars
        for i, value in enumerate(assignment):
            out[perm[i]] = bool(value) ^ bool(flips[i])
        return tuple(out)


# --- round data --------------------------------------------------------------


class RoundCommitment(namedtuple("RoundCommitment", "kind size digests")):
    """kind is "hamiltonian-cycle" or "sat3", size the vertices or variables,
    digests a tuple of 32-byte digests."""

    __slots__ = ()

    def hex_digests(self) -> list:
        return [d.hex() for d in self.digests]


class Response(
    namedtuple(
        "Response",
        "challenge permutation flips salts cycle clauses assignment",
        defaults=(None,) * 6,
    )
):
    """A prover's answer to one challenge; fields it does not reveal are None.

    REVEAL_CIPHER: the reshuffling (`permutation`, and `flips` for sat) plus
    every salt. REVEAL_SOLUTION: the reshuffled solution (`cycle` for
    hamiltonian, with its opened salts in `salts`; for sat, `clauses`, the
    full reshuffled instance, and `assignment`).
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        data: dict = {"challenge": self.challenge.value}
        if self.permutation is not None:
            data["permutation"] = list(self.permutation)
        if self.flips is not None:
            data["flips"] = [int(b) for b in self.flips]
        if self.salts is not None:
            data["salts"] = [s.hex() for s in self.salts]
        if self.cycle is not None:
            data["cycle"] = list(self.cycle)
        if self.clauses is not None:
            data["clauses"] = [list(c) for c in self.clauses]
        if self.assignment is not None:
            data["assignment"] = [bool(b) for b in self.assignment]
        return data


class ProverRound:
    """One committed round held prover-side: both responses are prepared at
    commit time, and the round is consumed by handing out one of them."""

    def __init__(self, commitment: RoundCommitment, responses: dict):
        self.commitment = commitment
        self._responses = responses  # Challenge -> Response; None once consumed

    def respond(self, challenge: Challenge) -> Response:
        if self._responses is None:
            raise RoundConsumed("this round has already answered a challenge")
        responses, self._responses = self._responses, None
        return responses[challenge]


def _hc_entries(matrix) -> list:
    return [_MATRIX_ENTRY[bit] for row in matrix for bit in row]


def _sat_entries(clauses) -> list:
    pack = _CLAUSE.pack
    return [pack(*sorted(clause)) for clause in clauses]


def _committed_round(rng, kind, size, entries, opened, cipher, solution) -> tuple:
    """Salt and commit every entry, then prepare both responses.

    The cipher response opens every entry; the solution response opens the
    entries at the positions in `opened`. `cipher` and `solution` hold the
    other fields of each response.
    """
    # One draw for every salt: the stream is counter-mode, so its slices are
    # the bytes a draw per salt would give.
    drawn = rng.randbytes(SALT_BYTES * len(entries))
    salts = tuple([drawn[i : i + SALT_BYTES] for i in range(0, len(drawn), SALT_BYTES)])
    sha256 = hashlib.sha256
    commitment = RoundCommitment(
        kind, size, tuple([sha256(entry + salt).digest() for entry, salt in zip(entries, salts)])
    )
    responses = {
        Challenge.REVEAL_CIPHER: Response(Challenge.REVEAL_CIPHER, salts=salts, **cipher),
        Challenge.REVEAL_SOLUTION: Response(
            Challenge.REVEAL_SOLUTION, salts=tuple(salts[i] for i in opened), **solution
        ),
    }
    return commitment, ProverRound(commitment, responses)


def _cycle_positions(cycle, n: int) -> list:
    """Row-major positions of the matrix entries on the cycle's edges."""
    return [cycle[t] * n + cycle[(t + 1) % n] for t in range(n)]


def _hc_round(rng, perm, matrix, cycle) -> tuple:
    n = len(matrix)
    return _committed_round(
        rng, "hamiltonian-cycle", n, _hc_entries(matrix), _cycle_positions(cycle, n),
        {"permutation": perm}, {"cycle": cycle},
    )


def _sat_round(rng, n_vars, perm, flips, instance, assignment) -> tuple:
    return _committed_round(
        rng, "sat3", n_vars, _sat_entries(instance), range(len(instance)),
        {"permutation": perm, "flips": flips},
        {"clauses": instance, "assignment": assignment},
    )


def _reshuffle(problem, rng) -> tuple:
    """Draw a round's reshuffling: (perm, flips, reshuffled instance), with
    flips None for a graph."""
    if isinstance(problem, HamiltonianCycleProblem):
        perm = _sample_perm(rng, problem.n)
        return perm, None, problem.relabel(perm)
    if isinstance(problem, SatProblem):
        perm = _sample_perm(rng, problem.n_vars)
        flips = _coins(rng, problem.n_vars)
        return perm, flips, problem.transform(perm, flips)
    raise TypeError(f"unsupported problem type {type(problem)!r}")


def _sample_perm(rng, n: int) -> tuple:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def cipher_round(problem, solution, rng) -> tuple:
    """Honest round: reshuffle, commit, and prepare both responses."""
    perm, flips, instance = _reshuffle(problem, rng)
    if not problem.is_solution(solution):
        raise ValueError("refusing to start a round without a valid solution")
    if isinstance(problem, HamiltonianCycleProblem):
        return _hc_round(rng, perm, instance, tuple(perm[v] for v in solution))
    assignment = problem.transform_assignment(solution, perm, flips)
    return _sat_round(rng, problem.n_vars, perm, flips, instance, assignment)


def forge_round(problem, rng) -> tuple:
    """Cheating round: guess the challenge, prepare only that branch.

    A cipher guess commits an honest reshuffle (no solution needed); a
    solution guess commits a doctored instance that does have a planted
    solution. Either way the other branch cannot verify, so on a problem
    without a solution each round survives with probability 1/2.
    """
    doctor = rng.getrandbits(1) == 1  # guessed Challenge.REVEAL_SOLUTION
    perm, flips, instance = _reshuffle(problem, rng)
    if isinstance(problem, HamiltonianCycleProblem):
        n = problem.n
        planted = _sample_perm(rng, n)
        if doctor:
            matrix = [list(row) for row in instance]
            for t in range(n):
                a, b = planted[t], planted[(t + 1) % n]
                matrix[a][b] = matrix[b][a] = 1
            instance = matrix
        return _hc_round(rng, perm, instance, planted)
    claimed = tuple(map(bool, _coins(rng, problem.n_vars)))
    if doctor:
        # Doctor each unsatisfied clause by flipping one literal's sign.
        true = SatProblem._true_literals(claimed)
        instance = tuple(
            tuple(sorted((-clause[0],) + clause[1:])) if true.isdisjoint(clause) else clause
            for clause in instance
        )
    return _sat_round(rng, problem.n_vars, perm, flips, instance, claimed)


# --- verifier ----------------------------------------------------------------


def _opens(entries, salts, digests) -> bool:
    """True iff there are as many salts and digests as entries and each
    entry, salted, hashes to its digest."""
    sha256 = hashlib.sha256
    return len(entries) == len(salts) == len(digests) and [
        sha256(entry + salt).digest() for entry, salt in zip(entries, salts)
    ] == list(digests)


def _check_cipher_hc(problem, commitment, response) -> bool:
    perm = response.permutation
    if perm is None or response.salts is None or sorted(perm) != list(range(problem.n)):
        return False
    entries = _hc_entries(problem.relabel(perm))
    return _opens(entries, response.salts, commitment.digests)


def _check_solution_hc(problem, commitment, response) -> bool:
    n = problem.n
    cycle = response.cycle
    if cycle is None or response.salts is None or sorted(cycle) != list(range(n)):
        return False
    # Each opened entry must be a committed 1: a present edge of the
    # committed instance.
    digests = [commitment.digests[i] for i in _cycle_positions(cycle, n)]
    return _opens([_MATRIX_ENTRY[1]] * n, response.salts, digests)


def _check_cipher_sat(problem, commitment, response) -> bool:
    perm, flips = response.permutation, response.flips
    if perm is None or flips is None or response.salts is None:
        return False
    if sorted(perm) != list(range(problem.n_vars)) or len(flips) != problem.n_vars:
        return False
    entries = _sat_entries(problem.transform(perm, flips))
    return _opens(entries, response.salts, commitment.digests)


def _check_solution_sat(problem, commitment, response) -> bool:
    clauses, assignment = response.clauses, response.assignment
    if clauses is None or assignment is None or response.salts is None:
        return False
    opened = SatProblem(problem.n_vars, tuple(clauses))
    opened.validate()  # a ValueError rejects the round
    return _opens(
        _sat_entries(opened.clauses), response.salts, commitment.digests
    ) and opened.is_solution(assignment)


def verify_round(problem, commitment, challenge: Challenge, response) -> bool:
    """Recompute the revealed branch against the commitments; False on any
    mismatch, never an exception for dishonest data."""
    if isinstance(problem, HamiltonianCycleProblem):
        shape = ("hamiltonian-cycle", problem.n, problem.n * problem.n)
        checks = _check_cipher_hc, _check_solution_hc
    elif isinstance(problem, SatProblem):
        shape = ("sat3", problem.n_vars, len(problem.clauses))
        checks = _check_cipher_sat, _check_solution_sat
    else:
        raise TypeError(f"unsupported problem type {type(problem)!r}")
    check = checks[0] if challenge is Challenge.REVEAL_CIPHER else checks[1]
    try:
        if (commitment.kind, commitment.size, len(commitment.digests)) != shape:
            return False
        return response.challenge is challenge and check(problem, commitment, response)
    except (IndexError, TypeError, ValueError, struct.error):
        return False


# --- sessions ----------------------------------------------------------------


class SessionResult(
    namedtuple("SessionResult", "accepted rounds_run transcript", defaults=(None,))
):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "rounds_run": self.rounds_run,
            "rounds": self.transcript if self.transcript is not None else [],
        }


def run_session(
    problem,
    solution=None,
    rounds: int = 10,
    seed: bytes = b"",
    cheat: bool = False,
    collect_transcript: bool = True,
) -> SessionResult:
    """Loop commit -> coin-flip challenge -> response -> check.

    Rejects at the first failed round. The prover and verifier draw from
    independent streams derived from the session seed, so transcripts are
    reproducible.
    """
    if rounds < 1:
        raise ValueError("at least one round is required")
    if not cheat and solution is None:
        raise ValueError("honest sessions need the private solution")
    prover_rng = Sha256Rng(derive_seed(seed, "prover"))
    verifier_rng = Sha256Rng(derive_seed(seed, "verifier"))
    transcript: list | None = [] if collect_transcript else None
    for rounds_run in range(1, rounds + 1):
        if cheat:
            commitment, state = forge_round(problem, prover_rng)
        else:
            commitment, state = cipher_round(problem, solution, prover_rng)
        challenge = (
            Challenge.REVEAL_CIPHER
            if verifier_rng.getrandbits(1) == 0
            else Challenge.REVEAL_SOLUTION
        )
        response = state.respond(challenge)
        verdict = verify_round(problem, commitment, challenge, response)
        if transcript is not None:
            transcript.append(
                {
                    "commitments": commitment.hex_digests(),
                    "challenge": challenge.value,
                    "response": response.to_json_dict(),
                    "verdict": verdict,
                }
            )
        if not verdict:
            return SessionResult(False, rounds_run, transcript)
    return SessionResult(True, rounds, transcript)


# --- problem files -----------------------------------------------------------


def _json_array(values, item_type: type, field: str) -> tuple:
    """A JSON array whose items all have exactly `item_type`, so a boolean
    is not an integer and neither a float nor a string is either."""
    if isinstance(values, list) and all(type(v) is item_type for v in values):
        return tuple(values)
    names = {int: "integers", bool: "booleans", list: "arrays"}
    raise ValueError(
        f"{field} must be an array of JSON {names[item_type]}, not {_quote(values)}"
    )


def load_problem(data) -> tuple:
    """Parse a problem description; returns (problem, solution or None).

    Every field must already have its JSON type; anything else is a
    ValueError naming the field, never a conversion.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a problem file holds a JSON object, not {type(data).__name__}")
    kind = data.get("type")
    if kind == "hamiltonian-cycle":
        rows = _json_array(data["adjacency"], list, "adjacency")
        problem = HamiltonianCycleProblem(
            tuple(_json_array(row, int, f"adjacency row {i}") for i, row in enumerate(rows))
        )
        solution_field, solution_type = "cycle", int
    elif kind == "sat3":
        n_vars = data["variables"]
        if type(n_vars) is not int:
            raise ValueError(f"variables must be a JSON integer, not {_quote(n_vars)}")
        if n_vars > MAX_VARIABLES:
            raise ValueError(f"variables must be at most {MAX_VARIABLES}, not {n_vars}")
        clauses = _json_array(data["clauses"], list, "clauses")
        problem = SatProblem(
            n_vars,
            tuple(_json_array(c, int, f"clause {i}") for i, c in enumerate(clauses)),
        )
        solution_field, solution_type = "assignment", bool
    else:
        raise ValueError(f"unknown problem type {_quote(kind)}")
    problem.validate()
    solution = data.get(solution_field)
    if solution is not None:
        solution = _json_array(solution, solution_type, solution_field)
        if not problem.is_solution(solution):
            raise ValueError(f"the supplied {solution_field} does not solve the problem")
    return problem, solution
