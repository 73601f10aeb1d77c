from fractions import Fraction

import pytest

from snarkpipe import FieldContext, Sha256Rng, assemble, build_qap, flatten, parse_program
from snarkpipe.bundled import load_bundled_text

CORPUS = ("coloring5.zkp", "cubic.zkp", "product.zkp")

GOOD_COLORING = {"c1": 3, "c2": 1, "c3": 2, "c4": 1, "c5": 2}
BAD_COLORING = {"c1": 1, "c2": 1, "c3": 2, "c4": 1, "c5": 2}

# Edge list of the bundled 5-vertex graph, 1-based vertex labels.
COLORING_EDGES = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (2, 3), (3, 4), (4, 5))



def soundness_scan(qap, assignment, trials=None, seed=b"soundness-scan") -> Fraction:
    """Fraction of evaluation points where a forged quotient survives.

    The forger rounds F / T down to its polynomial quotient H' and hopes the
    verifier's random point s satisfies v(s)w(s) - k(s) = H'(s)T(s). For a
    genuine solution that identity holds everywhere; otherwise it can hold
    on at most deg(F) <= 2N points. With trials=None every field point is
    scanned (meant for small moduli); otherwise `trials` points are drawn
    uniformly at random.
    """
    p = qap.ctx.p
    inst = assemble(qap, assignment)
    forged_quotient = inst.f // qap.target

    if trials is None:
        points = range(p)
        total = p
    else:
        rng = Sha256Rng(seed, label=b"scan")
        points = (rng.randrange(p) for _ in range(trials))
        total = trials

    hits = sum(
        inst.f.eval_int(x) == forged_quotient.eval_int(x) * qap.target.eval_int(x) % p
        for x in points
    )
    return Fraction(hits, total)

@pytest.fixture(scope="session")
def ctx():
    return FieldContext()


@pytest.fixture(scope="session")
def ctx17():
    return FieldContext(17)


@pytest.fixture(scope="session")
def ctx97():
    return FieldContext(97)


@pytest.fixture(scope="session")
def ctx101():
    return FieldContext(101)


@pytest.fixture(scope="session")
def corpus_programs():
    return {name: parse_program(load_bundled_text(name)) for name in CORPUS}


@pytest.fixture(scope="session")
def coloring_program(corpus_programs):
    return corpus_programs["coloring5.zkp"]


@pytest.fixture(scope="session")
def coloring_circuit(coloring_program, ctx):
    return flatten(coloring_program, ctx)


@pytest.fixture(scope="session")
def coloring_qap(coloring_circuit):
    return build_qap(coloring_circuit)
