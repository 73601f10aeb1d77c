from fractions import Fraction

import pytest

from snarkpipe import FieldContext, Sha256Rng, assemble, build_qap, flatten, parse_program, solve
from snarkpipe.bundled import load_bundled_text
from snarkpipe.field import DEFAULT_MODULUS
from snarkpipe.pinocchio import EvaluationKey, Trapdoor, VerificationKey, verification_key_to_dict

CORPUS = ("coloring5.zkp", "cubic.zkp", "product.zkp")

GOOD_COLORING = {"c1": 3, "c2": 1, "c3": 2, "c4": 1, "c5": 2}
BAD_COLORING = {"c1": 1, "c2": 1, "c3": 2, "c4": 1, "c5": 2}

# Edge list of the bundled 5-vertex graph, 1-based vertex labels.
COLORING_EDGES = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (2, 3), (3, 4), (4, 5))


def forward_assignment(circuit, inputs) -> dict:
    """The assignment of a prover that evaluates every gate forward instead
    of running solve: each condition gate's pinned output takes the value
    its gate computes, not its constant, so it differs from solve's exactly
    where a condition fails."""
    p = circuit.ctx.p
    values = solve(circuit, inputs)
    for gate in circuit.gates:
        left, right = values[gate.left], values[gate.right]
        values[gate.out] = (left * right if gate.op == "Times" else left + right) % p
    return values


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


def chain_program(links: int):
    """A squaring chain of N = 2 * links + 3 gates."""
    lines = ["inputs a, y;", "f1 := a*a + 7;"]
    lines += [f"f{i} := f{i - 1}*f{i - 1} + a;" for i in range(2, links + 1)]
    lines += [f"out := f{links} - y;", "assert out == 0;"]
    return parse_program("\n".join(lines))


def setup_oracle(qap, group, seed, public=("one",)) -> tuple:
    """(evaluation-key dict, verification-key dict) the way setup made them
    when it raised group elements: every entry is a product of powers of
    g, g_v = g^r_v, g_w = g^r_w and g_k = g^r_k, written as its discrete log."""
    p = qap.ctx.p
    public = tuple(dict.fromkeys(("one",) + tuple(public)))
    td = Trapdoor.sample(Sha256Rng(seed, label=b"trusted-setup"), p, qap.n_gates)
    g = group.generator()
    g_v = g**td.r_v
    g_w = g**td.r_w
    g_k = g**td.r_k

    powers = []
    s_power = 1
    for _ in range(qap.n_gates + 1):
        powers.append(g**s_power)
        s_power = s_power * td.s % p

    target_at_s, lagrange_at_s = qap.lagrange_at(td.s)

    def at_s(columns) -> list:
        return [
            sum(value * lagrange_at_s[d - 1] for d, value in col.items()) % p
            for col in columns
        ]

    v_at_s, w_at_s, k_at_s = at_s(qap.v), at_s(qap.w), at_s(qap.k)
    lists = {
        "powers_of_s": powers,
        "v": [g_v**x for x in v_at_s],
        "w": [g_w**x for x in w_at_s],
        "k": [g_k**x for x in k_at_s],
        "alpha_v": [g_v ** (td.alpha_v * x % p) for x in v_at_s],
        "alpha_w": [g_w ** (td.alpha_w * x % p) for x in w_at_s],
        "alpha_k": [g_k ** (td.alpha_k * x % p) for x in k_at_s],
        "beta": [
            (g_v ** (td.beta * x % p))
            * (g_w ** (td.beta * y % p))
            * (g_k ** (td.beta * z % p))
            for x, y, z in zip(v_at_s, w_at_s, k_at_s)
        ],
    }
    index_of = {name: i for i, name in enumerate(qap.symbol_names)}
    vk = VerificationKey(
        group=group,
        g=g,
        alpha_v=g**td.alpha_v,
        alpha_w=g**td.alpha_w,
        alpha_k=g**td.alpha_k,
        gamma=g**td.gamma,
        beta_gamma=g ** (td.beta * td.gamma % p),
        target_at_s=g_k**target_at_s,
        public_entries=[
            (name, *(lists[f][index_of[name]] for f in "vwk")) for name in public
        ],
    )
    ek_dict = {
        "format": "snarkpipe-evaluation-key/3",
        "field": {"p": str(p)},
        "backend": "transparent",
        "n_gates": qap.n_gates,
        "symbols": list(qap.symbol_names),
        "public": list(public),
        **{name: [str(e.value) for e in lists[name]] for name in EvaluationKey.LISTS},
    }
    return ek_dict, verification_key_to_dict(vk)


# --- generated programs -----------------------------------------------------------

try:
    from hypothesis import strategies as st
except ImportError:  # the modules that draw programs skip themselves
    st = None

if st is not None:
    # Constants below and at or above either test field's modulus (97 and the
    # default), so flattening reduces some of them.
    CONSTANTS = st.integers(0, 200) | st.integers(DEFAULT_MODULUS - 2, 3 * DEFAULT_MODULUS)

    def expressions(names):
        """Expressions over the names with binary +, - and *, unary -, ^k and
        decimal constants."""
        leaves = st.sampled_from(names) | CONSTANTS.map(str)
        return st.recursive(
            leaves,
            lambda inner: st.one_of(
                st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(
                    lambda t: f"({t[0]} {t[1]} {t[2]})"
                ),
                inner.map(lambda x: f"-{x}" if not x.startswith("-") else x),
                st.tuples(inner, st.integers(1, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
            ),
            max_leaves=4,
        )

    @st.composite
    def programs(draw):
        """A straight-line program over one to three inputs and one to five
        definitions, ending in `==` or `!=` assertions on the last definition
        and on each earlier one that is drawn for it."""
        names = ["a", "b", "c"][: draw(st.integers(1, 3))]
        lines = [f"inputs {', '.join(names)};"]
        defined = []
        for i in range(draw(st.integers(1, 5))):
            lines.append(f"t{i} := {draw(expressions(names + defined))};")
            defined.append(f"t{i}")
        for name in defined:
            if name == defined[-1] or draw(st.booleans()):
                lines.append(f"assert {name} {draw(st.sampled_from(['==', '!=']))} 0;")
        return "\n".join(lines)


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
