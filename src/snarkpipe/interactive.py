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
_CLAUSE = struct.Struct("<3i")

# A matrix entry is one of two bytes, so its commitment hashes the salt from
# a SHA-256 state already fed that byte, indexed by the bit: copying a state
# costs less than a new hash object. The states are only ever copied.
_MATRIX_STATE = (hashlib.sha256(b"\x00"), hashlib.sha256(b"\x01"))

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
# Each problem class owns its part of a round: its file's keys, the entries
# it commits and their digests, the image of a solution under a reshuffle,
# a cheater's instance, and the checks of both challenges.


class HamiltonianCycleProblem(namedtuple("HamiltonianCycleProblem", "adjacency")):
    """Find a cycle through every vertex of a simple undirected graph; the
    adjacency matrix is a tuple of tuples of 0/1."""

    __slots__ = ()
    file_keys = frozenset({"type", "adjacency", "cycle"})
    solution_field, solution_type = "cycle", int

    @classmethod
    def from_json(cls, data) -> "HamiltonianCycleProblem":
        rows = _json_array(data["adjacency"], list, "adjacency")
        if len(rows) > MAX_VERTICES:
            raise ValueError(f"adjacency must have at most {MAX_VERTICES} rows, not {len(rows)}")
        return cls(tuple(_json_array(row, int, f"adjacency row {i}") for i, row in enumerate(rows)))

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
        return self.commitment_count() + self.n

    def commitment_count(self) -> int:
        return self.n * self.n

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

    @staticmethod
    def digests(bits, salts) -> list:
        """The commitments to matrix entries, given as bits in row-major order."""
        digests = []
        for bit, salt in zip(bits, salts):
            state = _MATRIX_STATE[bit].copy()
            state.update(salt)
            digests.append(state.digest())
        return digests

    def image(self, cycle, perm, flips) -> tuple:
        return tuple(perm[v] for v in cycle)

    def forged(self, rng, matrix, doctor: bool) -> tuple:
        """A cheater's (instance, claimed cycle): a random vertex order,
        whose edges the doctored instance gains."""
        n = self.n
        planted = _sample_perm(rng, n)
        if doctor:
            matrix = [list(row) for row in matrix]
            for t in range(n):
                a, b = planted[t], planted[(t + 1) % n]
                matrix[a][b] = matrix[b][a] = 1
        return matrix, planted

    def committed_round(self, rng, perm, flips, matrix, cycle) -> tuple:
        bits = [bit for row in matrix for bit in row]
        return _committed_round(
            self, rng, bits, _cycle_positions(cycle, self.n), {"permutation": perm}, {"cycle": cycle}
        )

    def check_cipher(self, commitment, response) -> bool:
        perm = response.permutation
        if perm is None or response.salts is None or sorted(perm) != list(range(self.n)):
            return False
        bits = [bit for row in self.relabel(perm) for bit in row]
        return _opens(self, bits, response.salts, commitment.digests)

    def check_solution(self, commitment, response) -> bool:
        n, cycle = self.n, response.cycle
        if cycle is None or response.salts is None or sorted(cycle) != list(range(n)):
            return False
        # Each opened entry must be a committed 1: a present edge of the
        # committed instance.
        digests = [commitment.digests[i] for i in _cycle_positions(cycle, n)]
        return _opens(self, (1,) * n, response.salts, digests)


class SatProblem(namedtuple("SatProblem", "n_vars clauses")):
    """Satisfy a conjunction of 3-literal clauses (a tuple of 3-tuples);
    literal k means variable |k| (1-based), negated when k < 0."""

    __slots__ = ()
    file_keys = frozenset({"type", "variables", "clauses", "assignment"})
    solution_field, solution_type = "assignment", bool

    @classmethod
    def from_json(cls, data) -> "SatProblem":
        n_vars = data["variables"]
        if type(n_vars) is not int:
            raise ValueError(f"variables must be a JSON integer, not {_quote(n_vars)}")
        if n_vars > MAX_VARIABLES:
            raise ValueError(f"variables must be at most {MAX_VARIABLES}, not {n_vars}")
        clauses = _json_array(data["clauses"], list, "clauses")
        if len(clauses) > MAX_ROUND_ENTRIES:
            raise ValueError(f"clauses must hold at most {MAX_ROUND_ENTRIES}, not {len(clauses)}")
        return cls(n_vars, tuple(_json_array(c, int, f"clause {i}") for i, c in enumerate(clauses)))

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
        return self.commitment_count() + self.n_vars

    def commitment_count(self) -> int:
        return len(self.clauses)

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

    def image(self, assignment, perm, flips) -> tuple:
        out = [False] * self.n_vars
        for i, value in enumerate(assignment):
            out[perm[i]] = bool(value) ^ bool(flips[i])
        return tuple(out)

    @staticmethod
    def digests(clauses, salts) -> list:
        """The commitments to clauses whose literals are already sorted, as
        `transform` and a doctored instance give them."""
        pack, sha256 = _CLAUSE.pack, hashlib.sha256
        return [sha256(pack(*clause) + salt).digest() for clause, salt in zip(clauses, salts)]

    def forged(self, rng, clauses, doctor: bool) -> tuple:
        """A cheater's (instance, claimed assignment): random coins, and the
        doctored instance flips one literal's sign in each clause they fail."""
        claimed = tuple(map(bool, _coins(rng, self.n_vars)))
        if doctor:
            true = self._true_literals(claimed)
            clauses = tuple(
                tuple(sorted((-clause[0],) + clause[1:])) if true.isdisjoint(clause) else clause
                for clause in clauses
            )
        return clauses, claimed

    def committed_round(self, rng, perm, flips, clauses, assignment) -> tuple:
        return _committed_round(
            self, rng, clauses, range(len(clauses)), {"permutation": perm, "flips": flips},
            {"clauses": clauses, "assignment": assignment},
        )

    def check_cipher(self, commitment, response) -> bool:
        perm, flips = response.permutation, response.flips
        if perm is None or flips is None or response.salts is None:
            return False
        if sorted(perm) != list(range(self.n_vars)) or len(flips) != self.n_vars:
            return False
        return _opens(self, self.transform(perm, flips), response.salts, commitment.digests)

    def check_solution(self, commitment, response) -> bool:
        clauses, assignment = response.clauses, response.assignment
        if clauses is None or assignment is None or response.salts is None:
            return False
        opened = SatProblem(self.n_vars, tuple(clauses))
        opened.validate()  # a ValueError rejects the round
        # the prover's clauses are untrusted: sort each before packing it
        entries = [sorted(clause) for clause in opened.clauses]
        return _opens(self, entries, response.salts, commitment.digests) and opened.is_solution(
            assignment
        )


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


def _committed_round(problem, rng, entries, opened, cipher, solution) -> tuple:
    """Salt and commit every entry, then prepare both responses.

    The cipher response opens every entry; the solution response opens the
    entries at the positions in `opened`. `cipher` and `solution` hold the
    other fields of each response.
    """
    # One draw for every salt: the stream is counter-mode, so its slices are
    # the bytes a draw per salt would give. One unpack cuts them in one call.
    count = len(entries)
    salts = struct.Struct(f"{SALT_BYTES}s" * count).unpack(rng.randbytes(SALT_BYTES * count))
    commitment = RoundCommitment(tuple(problem.digests(entries, salts)))
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


def cipher_round(problem, solution, rng) -> tuple:
    """Honest round: reshuffle, commit, and prepare both responses."""
    perm, flips, instance = problem.reshuffle(rng)
    if not problem.is_solution(solution):
        raise ValueError("refusing to start a round without a valid solution")
    image = problem.image(solution, perm, flips)
    return problem.committed_round(rng, perm, flips, instance, image)


def forge_round(problem, rng) -> tuple:
    """Cheating round: guess the challenge, prepare only that branch.

    A cipher guess commits an honest reshuffle (no solution needed); a
    solution guess commits a doctored instance that does have a planted
    solution. Either way the other branch cannot verify, so on a problem
    without a solution each round survives with probability 1/2.
    """
    doctor = rng.getrandbits(1) == 1  # guessed Challenge.REVEAL_SOLUTION
    perm, flips, instance = problem.reshuffle(rng)
    instance, claimed = problem.forged(rng, instance, doctor)
    return problem.committed_round(rng, perm, flips, instance, claimed)


# --- verifier ----------------------------------------------------------------


def _opens(problem, entries, salts, digests) -> bool:
    """True iff there are as many salts and digests as entries and each
    entry, salted, hashes to its digest."""
    if not len(entries) == len(salts) == len(digests):
        return False
    return problem.digests(entries, salts) == list(digests)


def verify_round(problem, commitment, challenge: Challenge, response) -> bool:
    """Recompute the revealed branch against the commitments; False on any
    mismatch, never an exception for dishonest data."""
    cipher = challenge is Challenge.REVEAL_CIPHER
    check = problem.check_cipher if cipher else problem.check_solution
    try:
        if len(commitment.digests) != problem.commitment_count():
            return False
        return response.challenge is challenge and check(commitment, response)
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


# Each problem type by its file's "type"; a file holds only its type's keys.
PROBLEM_TYPES = {"hamiltonian-cycle": HamiltonianCycleProblem, "sat3": SatProblem}


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
    cls = PROBLEM_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown problem type {_quote(kind)}")
    if not data.keys() <= cls.file_keys:
        raise stray_key(f"{kind} problem file", data, cls.file_keys)
    problem = cls.from_json(data)
    problem.validate()
    solution, field = None, cls.solution_field
    if field in data:  # an explicit null is no second form of "absent"
        solution = _json_array(data[field], cls.solution_type, field)
        if not problem.is_solution(solution):
            raise ValueError(f"the supplied {field} does not solve the problem")
    return problem, solution
