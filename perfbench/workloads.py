"""Seeded inputs, reference verdicts and the three workload shapes.

Everything here is independent of the code under test except
``frontend.eval_program``, the tree-walking reference interpreter that
decides whether a generated ``.zkp`` input must be accepted. Inputs are
drawn from ``random.Random`` so that the program's own ``Sha256Rng`` is
never exercised by the benchmark itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

# The bundled coloring5 graph: vertex 1 touches every other vertex, and
# 2-3-4-5 form a 4-cycle, so the proper 3-colorings are exactly the six
# colour permutations of this base.
COLORING5_EDGES = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (2, 3), (3, 4), (4, 5))
COLORING5_BASE = (1, 2, 3, 2, 3)


@dataclass(frozen=True)
class Workload:
    """How much of each user operation one pass performs.

    Every pass runs the whole user surface (compile, setup, prove, verify,
    cold verify, interactive sessions) so that every end-to-end metric is
    measured on every workload; a workload chooses which part is large.
    """

    name: str
    program: str  # "chain", "coloring5" or "cubic"
    chain_links: int  # chain only: N = 2 * links + 3
    witnesses: int  # proves per pass, honest and dishonest alternating
    tampers: int  # verifies of a tampered witness key per pass
    hc_vertices: int
    hc_chord_rate: float
    sat_vars: int
    sat_clauses: int
    honest_sessions: int  # per problem kind and pass, 20 rounds each
    cheat_sessions: int  # per problem kind and pass, 1 round each


WORKLOADS = {
    "deep-chain": Workload(
        name="deep-chain",
        program="chain",
        chain_links=99,  # N = 201; the sweep covers the baseline table sizes
        witnesses=2,  # an honest y and a refused y+1
        tampers=1,
        hc_vertices=8,
        hc_chord_rate=0.3,
        sat_vars=20,
        sat_clauses=84,
        honest_sessions=1,
        cheat_sessions=8,
    ),
    "coloring5": Workload(
        name="coloring5",
        program="coloring5",
        chain_links=0,
        witnesses=6,
        tampers=2,
        hc_vertices=8,
        hc_chord_rate=0.3,
        sat_vars=20,
        sat_clauses=84,
        honest_sessions=1,
        cheat_sessions=8,
    ),
    "interactive": Workload(
        name="interactive",
        program="cubic",
        chain_links=0,
        witnesses=2,
        tampers=1,
        hc_vertices=24,
        hc_chord_rate=0.15,
        sat_vars=100,
        sat_clauses=420,
        honest_sessions=2,
        cheat_sessions=16,
    ),
}

SESSION_ROUNDS = 20


def chain_source(links: int, rng: random.Random) -> str:
    """Squaring chain f_i := f_{i-1}*f_{i-1} + a with a seeded first constant."""
    lines = [
        "# seeded squaring chain",
        "inputs a, y;",
        f"f1 := a*a + {rng.randrange(1, 1 << 32)};",
    ]
    lines += [f"f{i} := f{i - 1}*f{i - 1} + a;" for i in range(2, links + 1)]
    lines += [f"out := f{links} - y;", "assert out == 0;"]
    return "\n".join(lines) + "\n"


def program_source(workload: Workload, rng: random.Random, bundled_text) -> str:
    if workload.program == "chain":
        return chain_source(workload.chain_links, rng)
    return bundled_text(f"{workload.program}.zkp")


def witness_stream(workload: Workload, rng: random.Random, count: int, reference):
    """Yield ``count`` input maps; even positions should be accepted.

    ``reference(inputs)`` returns the reference interpreter's value of the
    program's ``out`` definition; the chain and cubic programs take their
    ``y`` from it, so the honest witness is never computed by the code under
    test.
    """
    for i in range(count):
        honest = i % 2 == 0
        if workload.program == "coloring5":
            if honest:
                perm = rng.sample((1, 2, 3), 3)
                colors = [perm[c - 1] for c in COLORING5_BASE]
            else:
                colors = _improper_coloring(rng)
            yield {f"c{v + 1}": str(c) for v, c in enumerate(colors)}
            continue
        x = rng.randrange(2, 1 << 62)
        name = "a" if workload.program == "chain" else "x"
        y = reference({name: x, "y": 0})
        yield {name: str(x), "y": str(y if honest else y + 1)}


def _improper_coloring(rng: random.Random) -> list:
    while True:
        colors = [rng.randrange(0, 5) for _ in range(5)]
        in_range = all(1 <= c <= 3 for c in colors)
        proper = all(colors[a - 1] != colors[b - 1] for a, b in COLORING5_EDGES)
        if not (in_range and proper):
            return colors


# --- interactive problems ----------------------------------------------------


def hamiltonian_problem(n: int, chord_rate: float, rng: random.Random) -> dict:
    """Graph with a planted Hamiltonian cycle plus random chords."""
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
    return {"type": "hamiltonian-cycle", "adjacency": adjacency, "cycle": cycle}


def sat_problem(n_vars: int, n_clauses: int, rng: random.Random) -> dict:
    """3-SAT instance built around a planted satisfying assignment."""
    planted = [rng.random() < 0.5 for _ in range(n_vars)]
    clauses = []
    while len(clauses) < n_clauses:
        chosen = rng.sample(range(1, n_vars + 1), 3)
        clause = [v if rng.random() < 0.5 else -v for v in chosen]
        if any((lit > 0) == planted[abs(lit) - 1] for lit in clause):
            clauses.append(clause)
    return {
        "type": "sat3",
        "variables": n_vars,
        "clauses": clauses,
        "assignment": planted,
    }


def planted_solution_holds(problem: dict) -> bool:
    """Check the planted solution without the package's own checkers."""
    if problem["type"] == "hamiltonian-cycle":
        adj, cycle = problem["adjacency"], problem["cycle"]
        n = len(adj)
        return sorted(cycle) == list(range(n)) and all(
            adj[cycle[t]][cycle[(t + 1) % n]] == 1 for t in range(n)
        )
    planted = problem["assignment"]
    return all(
        any((lit > 0) == planted[abs(lit) - 1] for lit in clause)
        for clause in problem["clauses"]
    )


def binomial_half_interval(n: int, tail: float = 1e-6) -> tuple:
    """Smallest symmetric [lo, hi] holding Binomial(n, 1/2) but for ``tail``."""
    total = 2**n
    mass = 0
    lo = 0
    while lo <= n // 2:
        mass += 2 * comb(n, lo)
        if mass / total > tail:
            break
        lo += 1
    return lo, n - lo
