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

A session's transcript is its rounds, each encoded by encode_round as soon
as it is judged; SessionResult.chunks lays them out as the file's bytes.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from collections import namedtuple

from .field import _quote, json_bytes, stray_key
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
    "encode_round",
    "forge_round",
    "load_problem",
    "run_session",
    "session_rounds",
    "verify_round",
]

SALT_BYTES = 16
DIGEST_BYTES = 32
# A round salts, hashes and sends one commitment per entry of its instance: a
# clause, or one of a graph's n² matrix entries. It commits at most 2^16 of
# them, so a problem has at most 65536 clauses or 256 vertices; a round also
# draws a permutation and flips of the variables, so their count is bounded.
MAX_ROUND_ENTRIES = 1 << 16
MAX_VERTICES = 1 << 8  # its square is MAX_ROUND_ENTRIES
MAX_VARIABLES = 4096
# A session holds its transcript until the file is written, so a session is
# bounded as well: its rounds send at most 2^20 entries in all, counting
# each round's commitments and the vertices or variables it permutes. A
# transcript takes at most about 125 bytes per entry; 15 rounds of a
# 256-vertex graph fit, 16 do not.
MAX_SESSION_ENTRIES = 1 << 20
# A run of sessions (the CLI's --repeat) keeps only their verdicts, so its
# memory stays small, but its time grows with what the rounds send: the
# sessions of one run send at most 2^24 entries in all, rounds ×
# round_entries() each.
MAX_REPEAT_ENTRIES = 1 << 24


class RoundConsumed(RuntimeError):
    """A prover round answers exactly one challenge."""


class Challenge(enum.Enum):
    REVEAL_CIPHER = "cipher"
    REVEAL_SOLUTION = "solution"


# Entry encodings: a matrix entry is its bit as one byte, a clause its three
# literals, sorted, as little-endian int32s.
_MATRIX_ENTRY = (b"\x00", b"\x01")
_CLAUSE = struct.Struct("<3i")

# A matrix entry is one of two bytes, so its commitment hashes the salt from
# a SHA-256 state already fed that byte: copying a state costs less than a
# new hash object. The states are only ever copied, never fed.
_MATRIX_STATE = {entry: hashlib.sha256(entry) for entry in _MATRIX_ENTRY}

# Byte value -> its top bit. Sha256Rng.getrandbits(1) draws one byte and
# keeps its top bit, so translating one n-byte draw gives the same n coins.
_TOP_BIT = bytes(b >> 7 for b in range(256))


def _coins(rng, n: int) -> tuple:
    """n fair 0/1 coins from one draw."""
    return tuple(rng.randbytes(n).translate(_TOP_BIT))


def _sample_perm(rng, n: int) -> tuple:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


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

    def round_entries(self) -> int:
        """What a round sends, counted against the session bounds: its n²
        commitments and the n vertices it permutes."""
        return self.n * self.n + self.n

    def reshuffle(self, rng) -> tuple:
        """Draw a round's reshuffling: (perm, None, relabelled matrix)."""
        perm = _sample_perm(rng, self.n)
        return perm, None, self.relabel(perm)

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

    def round_entries(self) -> int:
        """What a round sends, counted against the session bounds: its
        clause commitments and the variables it permutes."""
        return len(self.clauses) + self.n_vars

    def reshuffle(self, rng) -> tuple:
        """Draw a round's reshuffling: (perm, flips, transformed clauses)."""
        perm = _sample_perm(rng, self.n_vars)
        flips = _coins(rng, self.n_vars)
        return perm, flips, self.transform(perm, flips)

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


class RoundCommitment(namedtuple("RoundCommitment", "digests")):
    """A round's commitments: a tuple of 32-byte digests, one per entry of
    the reshuffled instance, in the order encode_round writes them."""

    __slots__ = ()


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

    def json_fields(self) -> dict:
        """The revealed fields in transcript order, as JSON values but for
        the salts, which stay bytes: encode_round writes them as one hex run."""
        data: dict = {"challenge": self.challenge.value}
        if self.permutation is not None:
            data["permutation"] = list(self.permutation)
        if self.flips is not None:
            data["flips"] = [int(b) for b in self.flips]
        if self.salts is not None:
            data["salts"] = self.salts
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

    def __init__(self, responses: dict):
        self._responses = responses  # Challenge -> Response; None once consumed

    def respond(self, challenge: Challenge) -> Response:
        if self._responses is None:
            raise RoundConsumed("this round has already answered a challenge")
        responses, self._responses = self._responses, None
        return responses[challenge]


def _hc_entries(matrix) -> list:
    return [_MATRIX_ENTRY[bit] for row in matrix for bit in row]


def _sat_entries(clauses) -> list:
    """Pack clauses whose literals are already sorted, as `transform` and a
    doctored instance give them."""
    pack = _CLAUSE.pack
    return [pack(*clause) for clause in clauses]


def _digests(entries, salts) -> list:
    """SHA-256 of each entry followed by its salt: the commitments a prover
    makes and a verifier recomputes. The entries of one call are all matrix
    entries or all clauses."""
    if entries and entries[0] in _MATRIX_STATE:
        digests = []
        for entry, salt in zip(entries, salts):
            state = _MATRIX_STATE[entry].copy()
            state.update(salt)
            digests.append(state.digest())
        return digests
    sha256 = hashlib.sha256
    return [sha256(entry + salt).digest() for entry, salt in zip(entries, salts)]


def _committed_round(rng, entries, opened, cipher, solution) -> tuple:
    """Salt and commit every entry, then prepare both responses.

    The cipher response opens every entry; the solution response opens the
    entries at the positions in `opened`. `cipher` and `solution` hold the
    other fields of each response.
    """
    # One draw for every salt: the stream is counter-mode, so its slices are
    # the bytes a draw per salt would give. One unpack cuts them in one call.
    count = len(entries)
    salts = struct.Struct(f"{SALT_BYTES}s" * count).unpack(rng.randbytes(SALT_BYTES * count))
    commitment = RoundCommitment(tuple(_digests(entries, salts)))
    responses = {
        Challenge.REVEAL_CIPHER: Response(Challenge.REVEAL_CIPHER, salts=salts, **cipher),
        Challenge.REVEAL_SOLUTION: Response(
            Challenge.REVEAL_SOLUTION, salts=tuple(salts[i] for i in opened), **solution
        ),
    }
    return commitment, ProverRound(responses)


def _cycle_positions(cycle, n: int) -> list:
    """Row-major positions of the matrix entries on the cycle's edges."""
    return [cycle[t] * n + cycle[(t + 1) % n] for t in range(n)]


def _hc_round(rng, perm, matrix, cycle) -> tuple:
    return _committed_round(
        rng, _hc_entries(matrix), _cycle_positions(cycle, len(matrix)),
        {"permutation": perm}, {"cycle": cycle},
    )


def _sat_round(rng, perm, flips, instance, assignment) -> tuple:
    return _committed_round(
        rng, _sat_entries(instance), range(len(instance)),
        {"permutation": perm, "flips": flips},
        {"clauses": instance, "assignment": assignment},
    )


def cipher_round(problem, solution, rng) -> tuple:
    """Honest round: reshuffle, commit, and prepare both responses."""
    perm, flips, instance = problem.reshuffle(rng)
    if not problem.is_solution(solution):
        raise ValueError("refusing to start a round without a valid solution")
    if isinstance(problem, HamiltonianCycleProblem):
        return _hc_round(rng, perm, instance, tuple(perm[v] for v in solution))
    assignment = problem.transform_assignment(solution, perm, flips)
    return _sat_round(rng, perm, flips, instance, assignment)


def forge_round(problem, rng) -> tuple:
    """Cheating round: guess the challenge, prepare only that branch.

    A cipher guess commits an honest reshuffle (no solution needed); a
    solution guess commits a doctored instance that does have a planted
    solution. Either way the other branch cannot verify, so on a problem
    without a solution each round survives with probability 1/2.
    """
    doctor = rng.getrandbits(1) == 1  # guessed Challenge.REVEAL_SOLUTION
    perm, flips, instance = problem.reshuffle(rng)
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
    return _sat_round(rng, perm, flips, instance, claimed)


# --- verifier ----------------------------------------------------------------


def _opens(entries, salts, digests) -> bool:
    """True iff there are as many salts and digests as entries and each
    entry, salted, hashes to its digest."""
    if not len(entries) == len(salts) == len(digests):
        return False
    return _digests(entries, salts) == list(digests)


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
    # the prover's clauses are untrusted: sort each before packing it
    entries = _sat_entries([sorted(clause) for clause in opened.clauses])
    opens = _opens(entries, response.salts, commitment.digests)
    return opens and opened.is_solution(assignment)


def verify_round(problem, commitment, challenge: Challenge, response) -> bool:
    """Recompute the revealed branch against the commitments; False on any
    mismatch, never an exception for dishonest data."""
    if isinstance(problem, HamiltonianCycleProblem):
        count = problem.n * problem.n
        checks = _check_cipher_hc, _check_solution_hc
    elif isinstance(problem, SatProblem):
        count = len(problem.clauses)
        checks = _check_cipher_sat, _check_solution_sat
    else:
        raise TypeError(f"unsupported problem type {type(problem)!r}")
    check = checks[0] if challenge is Challenge.REVEAL_CIPHER else checks[1]
    try:
        if len(commitment.digests) != count:
            return False
        return response.challenge is challenge and check(problem, commitment, response)
    except (IndexError, TypeError, ValueError, struct.error):
        return False


# --- sessions ----------------------------------------------------------------


def _hex_run(items, size: int) -> bytes:
    """A JSON list of the hex strings of `items`, each `size` bytes long,
    written in one pass over their concatenation."""
    if not items:
        return b"[]"
    return b'["' + b"".join(items).hex(",", size).encode().replace(b",", b'","') + b'"]'


def encode_round(commitment, challenge, response, verdict) -> bytes:
    """A round as its transcript entry, compact JSON in this key order:
    {"commitments": [hex digest, ...], "challenge": ..., "response": {...},
    "verdict": ...}. The digests and the response's salts are hex runs;
    every other value goes through json_bytes."""
    fields = []
    for name, value in response.json_fields().items():
        fields += (
            b"," if fields else b"",
            json_bytes(name, end=""),
            b":",
            _hex_run(value, SALT_BYTES) if name == "salts" else json_bytes(value, end=""),
        )
    return b"".join([
        b'{"commitments":', _hex_run(commitment.digests, DIGEST_BYTES),
        b',"challenge":', json_bytes(challenge.value, end=""),
        b',"response":{', *fields,
        b'},"verdict":', json_bytes(verdict, end=""), b"}",
    ])


class SessionResult(namedtuple("SessionResult", "accepted rounds_run transcript")):
    """transcript holds each round's encode_round bytes."""

    __slots__ = ()

    def chunks(self) -> list:
        """The transcript file's bytes as chunks, in order: the record
        {"accepted": ..., "rounds_run": ..., "rounds": [...]} with the encoded
        rounds, comma-separated, in its rounds list, and a newline. Written
        chunk by chunk, the rounds are never copied into one more buffer."""
        head, tail = json_bytes(
            {"accepted": self.accepted, "rounds_run": self.rounds_run, "rounds": []}
        ).split(b"[]")
        body = [b","] * (2 * len(self.transcript) - 1)
        body[::2] = self.transcript
        return [head + b"[", *body, b"]" + tail]


def session_rounds(
    problem, solution=None, rounds: int = 10, seed: bytes = b"", cheat: bool = False
):
    """Loop commit -> coin-flip challenge -> response -> check, yielding
    (commitment, challenge, response, verdict) for each round.

    Stops after the first rejected round. The prover and verifier draw from
    independent streams derived from the session seed, so transcripts are
    reproducible. The arguments are checked here, before the first round.
    """
    if rounds < 1:
        raise ValueError("at least one round is required")
    per_round = problem.round_entries()
    if rounds * per_round > MAX_SESSION_ENTRIES:
        raise ValueError(
            f"a session sends at most {MAX_SESSION_ENTRIES} entries, and {rounds} rounds"
            f" of {per_round} send {rounds * per_round}; at most"
            f" {MAX_SESSION_ENTRIES // per_round} rounds fit"
        )
    if not cheat and solution is None:
        raise ValueError("honest sessions need the private solution")
    return _rounds(problem, solution, rounds, seed, cheat)


def _rounds(problem, solution, rounds, seed, cheat):
    prover_rng = Sha256Rng(derive_seed(seed, "prover"))
    verifier_rng = Sha256Rng(derive_seed(seed, "verifier"))
    for _ in range(rounds):
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
        yield commitment, challenge, response, verdict
        if not verdict:
            return


def run_session(
    problem, solution=None, rounds: int = 10, seed: bytes = b"", cheat: bool = False
) -> SessionResult:
    """Run session_rounds to the end, encoding each round as it is judged.
    A caller that needs only the verdict reads it off session_rounds:
    all(verdict for *_, verdict in session_rounds(...))."""
    transcript = []
    for played in session_rounds(problem, solution, rounds, seed, cheat):
        transcript.append(encode_round(*played))
    return SessionResult(played[-1], len(transcript), transcript)


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


# The keys of each problem type: those load_problem reads, and no others.
PROBLEM_KEYS = {
    "hamiltonian-cycle": frozenset({"type", "adjacency", "cycle"}),
    "sat3": frozenset({"type", "variables", "clauses", "assignment"}),
}


def load_problem(data) -> tuple:
    """Parse a problem description; returns (problem, solution or None).

    Every field must already have its JSON type; anything else is a
    ValueError naming the field, never a conversion. A file holds only the
    keys of its type, and the size of a round is bounded before the problem
    is validated.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a problem file holds a JSON object, not {type(data).__name__}")
    kind = data.get("type")
    keys = PROBLEM_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ValueError(f"unknown problem type {_quote(kind)}")
    if not data.keys() <= keys:
        raise stray_key(f"{kind} problem file", data, keys)
    if kind == "hamiltonian-cycle":
        rows = _json_array(data["adjacency"], list, "adjacency")
        if len(rows) > MAX_VERTICES:
            raise ValueError(f"adjacency must have at most {MAX_VERTICES} rows, not {len(rows)}")
        problem = HamiltonianCycleProblem(
            tuple(_json_array(row, int, f"adjacency row {i}") for i, row in enumerate(rows))
        )
        solution_field, solution_type = "cycle", int
    else:
        n_vars = data["variables"]
        if type(n_vars) is not int:
            raise ValueError(f"variables must be a JSON integer, not {_quote(n_vars)}")
        if n_vars > MAX_VARIABLES:
            raise ValueError(f"variables must be at most {MAX_VARIABLES}, not {n_vars}")
        clauses = _json_array(data["clauses"], list, "clauses")
        if len(clauses) > MAX_ROUND_ENTRIES:
            raise ValueError(f"clauses must hold at most {MAX_ROUND_ENTRIES}, not {len(clauses)}")
        problem = SatProblem(
            n_vars,
            tuple(_json_array(c, int, f"clause {i}") for i, c in enumerate(clauses)),
        )
        solution_field, solution_type = "assignment", bool
    problem.validate()
    solution = None
    if solution_field in data:  # an explicit null is no second form of "absent"
        solution = _json_array(data[solution_field], solution_type, solution_field)
        if not problem.is_solution(solution):
            raise ValueError(f"the supplied {solution_field} does not solve the problem")
    return problem, solution
