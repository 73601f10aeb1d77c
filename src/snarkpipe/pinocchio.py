"""Trusted setup, proving, and pairing-based verification over a QAP.

Setup samples the trapdoor (r_v, r_w, s, alpha_v, alpha_w, alpha_k, beta,
gamma) from a seeded generator, publishes the evaluation and verification
keys, and forgets the trapdoor. The prover combines evaluation-key entries
using only its witness weights, never the trapdoor, and publishes an
eight-element witness key. Any verifier then runs three pairing checks:

    divisibility   E(gv^v(s), gw^w(s)) = E(gk^T(s), g^H(s)) * E(gk^k(s), g)
    span           E(gv^(av*v(s)), g)  = E(gv^v(s), g^av)      (and w, k)
    coefficients   E(g^Z, g^gamma)     = E(gv^v * gw^w * gk^k, g^(beta*gamma))

where gv = g^rv, gw = g^rw, gk = g^(rv*rw), and the verifier first folds the
public-input contribution from the verification key into the v/w/k terms.

The witness key binds the prover to its assignment but carries no masking
randomness, so it is not statistically hiding; over the transparent group,
whose elements expose their discrete logs, this module demonstrates the
algebra, it does not protect secrets.

Keys travel as JSON objects whose group elements are canonical decimal
strings; each loader refuses any other encoding by naming the entry.
"""

from __future__ import annotations

from collections import namedtuple

from .field import FieldContext
from .groups import GroupElement, TransparentGroup

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from .qap import QAP

__all__ = [
    "EvaluationKey",
    "InvalidWitness",
    "MalformedKey",
    "Trapdoor",
    "VerificationKey",
    "VerifyResult",
    "WitnessKey",
    "load_evaluation_key",
    "load_verification_key",
    "load_witness_key",
    "prove",
    "setup",
    "verify",
]


class InvalidWitness(ValueError):
    """The assignment does not satisfy the quadratic program."""


class MalformedKey(ValueError):
    """A key file or key pair is structurally unusable."""


# The records are named tuples: importing ``dataclasses`` would pull in
# ``inspect`` and ``ast``, which cost more than a cold verify's own work.


class Trapdoor(
    namedtuple("Trapdoor", "r_v r_w r_k s alpha_v alpha_w alpha_k beta gamma")
):
    """Setup randomness, nine residues mod p; must never outlive setup
    (files never contain it)."""

    __slots__ = ()

    @classmethod
    def sample(cls, rng, p: int, n_gates: int) -> "Trapdoor":
        def nonzero() -> int:
            return rng.randrange(1, p)

        r_v, r_w = nonzero(), nonzero()
        s = nonzero()
        while s <= n_gates:  # s must avoid the interpolation nodes 1..N
            s = nonzero()
        return cls(
            r_v=r_v,
            r_w=r_w,
            r_k=r_v * r_w % p,
            s=s,
            alpha_v=nonzero(),
            alpha_w=nonzero(),
            alpha_k=nonzero(),
            beta=nonzero(),
            gamma=nonzero(),
        )


class EvaluationKey(
    namedtuple(
        "EvaluationKey",
        (
            "group",  # TransparentGroup
            "n_gates",
            "symbols",  # symbol names, in QAP order
            "public",  # names of the public symbols
            "powers_of_s",  # g^(s^d), d = 0..N
            "v",  # gv^(v_i(s)) per symbol
            "w",
            "k",
            "alpha_v",  # gv^(alpha_v * v_i(s)) per symbol
            "alpha_w",
            "alpha_k",
            "beta",  # gv^(beta*v_i(s)) * gw^(beta*w_i(s)) * gk^(beta*k_i(s))
        ),
    )
):
    """The program's shape and, per `LISTS` entry, a list of group elements."""

    __slots__ = ()

    LISTS = ("powers_of_s", "v", "w", "k", "alpha_v", "alpha_w", "alpha_k", "beta")

    def private_indices(self) -> list:
        public = set(self.public)
        return [i for i, name in enumerate(self.symbols) if name not in public]


class VerificationKey(
    namedtuple(
        "VerificationKey",
        (
            "group",  # TransparentGroup
            "g",
            "alpha_v",  # g^alpha_v
            "alpha_w",
            "alpha_k",
            "gamma",  # g^gamma
            "beta_gamma",  # g^(beta*gamma)
            "target_at_s",  # gk^T(s)
            "public_entries",  # of (name, gv^v_i(s), gw^w_i(s), gk^k_i(s))
        ),
    )
):
    """The `ELEMENTS` group elements and the public symbols' key entries."""

    __slots__ = ()

    ELEMENTS = ("g", "alpha_v", "alpha_w", "alpha_k", "gamma", "beta_gamma", "target_at_s")


class WitnessKey(
    namedtuple(
        "WitnessKey",
        (
            "v",  # gv^v(s) over the private symbols
            "w",
            "k",
            "h",  # g^H(s)
            "alpha_v",
            "alpha_w",
            "alpha_k",
            "z",
        ),
    )
):
    """Exactly eight group elements, all formed from evaluation-key material."""

    __slots__ = ()

    FIELDS = ("v", "w", "k", "h", "alpha_v", "alpha_w", "alpha_k", "z")


class VerifyResult(namedtuple("VerifyResult", "divisibility span coefficients")):
    """One bool per pairing check. Test `accepted`: a non-empty tuple is
    always true."""

    __slots__ = ()

    @property
    def accepted(self) -> bool:
        return self.divisibility and self.span and self.coefficients

    def report(self) -> str:
        def mark(ok: bool) -> str:
            return "pass" if ok else "fail"

        return (
            f"checks: div={mark(self.divisibility)}"
            f" span={mark(self.span)} coeff={mark(self.coefficients)}"
        )


def assemble(qap: QAP, assignment: dict):
    """``qap.assemble``, imported on first use so that verify never loads
    the QAP and polynomial code."""
    from .qap import assemble

    return assemble(qap, assignment)


def setup(
    qap: QAP,
    group: TransparentGroup,
    seed: bytes,
    public: tuple = ("one",),
):
    """Generate the evaluation and verification keys from a seeded trapdoor.

    The trapdoor exists only inside this call. Identical seeds reproduce
    identical keys.
    """
    if group.ctx != qap.ctx:
        raise ValueError("group and QAP use different field contexts")
    if qap.n_gates == 0:
        raise ValueError("empty quadratic program: nothing to set up")
    for name in public:
        if name not in qap.symbol_names:
            raise ValueError(f"public symbol {name!r} is not in the program")
    public = tuple(dict.fromkeys(("one",) + tuple(public)))  # one is always public

    from .rng import Sha256Rng

    p = qap.ctx.p
    rng = Sha256Rng(seed, label=b"trusted-setup")
    td = Trapdoor.sample(rng, p, qap.n_gates)
    g = group.generator()
    g_v = g**td.r_v
    g_w = g**td.r_w
    g_k = g**td.r_k

    powers = []
    s_power = 1
    for _ in range(qap.n_gates + 1):
        powers.append(g**s_power)
        s_power = s_power * td.s % p

    # a_i(s) = sum_d a_i(d) L_d(s): the columns never leave node form
    target_at_s, lagrange_at_s = qap.lagrange_at(td.s)

    def at_s(columns) -> list:
        return [
            sum(value * lagrange_at_s[d - 1] for d, value in col.items()) % p
            for col in columns
        ]

    v_at_s, w_at_s, k_at_s = at_s(qap.v), at_s(qap.w), at_s(qap.k)

    ek = EvaluationKey(
        group=group,
        n_gates=qap.n_gates,
        symbols=qap.symbol_names,
        public=public,
        powers_of_s=powers,
        v=[g_v**x for x in v_at_s],
        w=[g_w**x for x in w_at_s],
        k=[g_k**x for x in k_at_s],
        alpha_v=[g_v ** (td.alpha_v * x % p) for x in v_at_s],
        alpha_w=[g_w ** (td.alpha_w * x % p) for x in w_at_s],
        alpha_k=[g_k ** (td.alpha_k * x % p) for x in k_at_s],
        beta=[
            (g_v ** (td.beta * x % p))
            * (g_w ** (td.beta * y % p))
            * (g_k ** (td.beta * z % p))
            for x, y, z in zip(v_at_s, w_at_s, k_at_s)
        ],
    )
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
            (name, ek.v[index_of[name]], ek.w[index_of[name]], ek.k[index_of[name]])
            for name in public
        ],
    )
    return ek, vk


def prove(ek: EvaluationKey, qap: QAP, assignment: dict) -> WitnessKey:
    """Build the witness key from evaluation-key material and the assignment.

    Only key entries and witness weights enter the products below; the
    evaluation point s never appears. Refuses assignments whose combined
    polynomial is not divisible by the target.
    """
    if ek.symbols != qap.symbol_names or ek.n_gates != qap.n_gates:
        raise MalformedKey("evaluation key was generated for a different program")
    instance = assemble(qap, assignment)
    if not instance.divisible:
        raise InvalidWitness(
            "assignment does not satisfy the program; refusing to prove it"
        )

    private = ek.private_indices()
    private_weights = [instance.weights[i] for i in private]

    def fold(entries) -> GroupElement:
        return ek.group.msm([entries[i] for i in private], private_weights)

    return WitnessKey(
        v=fold(ek.v),
        w=fold(ek.w),
        k=fold(ek.k),
        h=ek.group.msm(ek.powers_of_s, instance.h.coeffs),
        alpha_v=fold(ek.alpha_v),
        alpha_w=fold(ek.alpha_w),
        alpha_k=fold(ek.alpha_k),
        z=fold(ek.beta),
    )


def verify(
    vk: VerificationKey, wk: WitnessKey, public_inputs: dict | None = None
) -> VerifyResult:
    """Run the three pairing checks; no prover interaction required."""
    group = vk.group
    if any(getattr(wk, name).group.ctx.p != group.ctx.p for name in WitnessKey.FIELDS):
        raise MalformedKey("witness key and verification key use different fields")
    public_inputs = dict(public_inputs or {})
    expected = {name for name, _, _, _ in vk.public_entries} - {"one"}
    if set(public_inputs) != expected:
        raise ValueError(
            f"public inputs must cover exactly {sorted(expected)},"
            f" got {sorted(public_inputs)}"
        )

    v_full, w_full, k_full = wk.v, wk.w, wk.k
    for name, ev, ew, ek_entry in vk.public_entries:
        t = 1 if name == "one" else public_inputs[name] % group.ctx.p
        v_full = v_full * (ev**t)
        w_full = w_full * (ew**t)
        k_full = k_full * (ek_entry**t)

    pair = group.pairing
    divisibility = pair(v_full, w_full) == pair(vk.target_at_s, wk.h) * pair(
        k_full, vk.g
    )
    span = (
        pair(wk.alpha_v, vk.g) == pair(wk.v, vk.alpha_v)
        and pair(wk.alpha_w, vk.g) == pair(wk.w, vk.alpha_w)
        and pair(wk.alpha_k, vk.g) == pair(wk.k, vk.alpha_k)
    )
    coefficients = pair(wk.z, vk.gamma) == pair(wk.v * wk.w * wk.k, vk.beta_gamma)
    return VerifyResult(divisibility, span, coefficients)


# --- key serialization -------------------------------------------------------


def _header(group: TransparentGroup, kind: str) -> dict:
    return {
        "format": f"snarkpipe-{kind}/1",
        "backend": group.name,
        "field": group.ctx.to_json_dict(),
    }


def _element(e: GroupElement) -> str:
    return str(e.value)


def evaluation_key_to_dict(ek: EvaluationKey) -> dict:
    data = _header(ek.group, "evaluation-key")
    data.update(n_gates=ek.n_gates, symbols=list(ek.symbols), public=list(ek.public))
    data.update(
        {name: [_element(e) for e in getattr(ek, name)] for name in EvaluationKey.LISTS}
    )
    return data


def verification_key_to_dict(vk: VerificationKey) -> dict:
    data = _header(vk.group, "verification-key")
    data.update({name: _element(getattr(vk, name)) for name in VerificationKey.ELEMENTS})
    data["public"] = [
        {"name": name, "v": _element(v), "w": _element(w), "k": _element(k)}
        for name, v, w, k in vk.public_entries
    ]
    return data


def witness_key_to_dict(wk: WitnessKey) -> dict:
    data = _header(wk.v.group, "witness-key")
    data.update({name: _element(getattr(wk, name)) for name in WitnessKey.FIELDS})
    return data


def _load_group(data, kind: str) -> TransparentGroup:
    if not isinstance(data, dict):
        raise MalformedKey(f"a {kind} file holds a JSON object, not {type(data).__name__}")
    if data.get("format") != f"snarkpipe-{kind}/1":
        raise MalformedKey(f"not a {kind} file (format={data.get('format')!r})")
    if data.get("backend") != TransparentGroup.name:
        raise MalformedKey(
            f"{kind} names backend {data.get('backend')!r};"
            f" only {TransparentGroup.name!r} exists"
        )
    try:
        return TransparentGroup(FieldContext.from_json_dict(data["field"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedKey(f"bad key header: {exc}") from exc


def _decode(group: TransparentGroup, value, where: str) -> GroupElement:
    try:
        return group.decode(value)
    except ValueError as exc:
        raise MalformedKey(f"{where}: {exc}") from None


def _decode_list(group: TransparentGroup, data: dict, name: str, count: int) -> list:
    values = data[name]
    if not isinstance(values, list) or len(values) != count:
        raise MalformedKey(f"evaluation-key entry {name!r} must list {count} elements")
    return [
        _decode(group, value, f"evaluation-key entry {name}[{i}]")
        for i, value in enumerate(values)
    ]


def _names(data: dict, name: str) -> tuple:
    values = data[name]
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise MalformedKey(f"evaluation-key entry {name!r} must be an array of strings")
    return tuple(values)


def load_evaluation_key(data: dict) -> EvaluationKey:
    group = _load_group(data, "evaluation-key")
    try:
        n_gates = data["n_gates"]
        if type(n_gates) is not int or n_gates < 0:
            raise MalformedKey(
                f"evaluation-key entry 'n_gates' must be a JSON integer >= 0, not {n_gates!r}"
            )
        symbols = _names(data, "symbols")
        return EvaluationKey(
            group=group,
            n_gates=n_gates,
            symbols=symbols,
            public=_names(data, "public"),
            **{
                name: _decode_list(
                    group, data, name, n_gates + 1 if name == "powers_of_s" else len(symbols)
                )
                for name in EvaluationKey.LISTS
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, MalformedKey):
            raise
        raise MalformedKey(f"bad evaluation key: {exc}") from exc


def load_verification_key(data: dict) -> VerificationKey:
    group = _load_group(data, "verification-key")

    def entry(holder: dict, name: str, where: str) -> GroupElement:
        return _decode(group, holder[name], f"verification-key entry {where}")

    def public_name(item, i: int) -> str:
        if not isinstance(item, dict) or not isinstance(item.get("name"), str):
            raise MalformedKey(f"verification-key entry public[{i}].name must be a string")
        return item["name"]

    try:
        return VerificationKey(
            group=group,
            public_entries=[
                (public_name(item, i), *(entry(item, f, f"public[{i}].{f}") for f in "vwk"))
                for i, item in enumerate(data["public"])
            ],
            **{name: entry(data, name, repr(name)) for name in VerificationKey.ELEMENTS},
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, MalformedKey):
            raise
        raise MalformedKey(f"bad verification key: {exc}") from exc


def load_witness_key(data: dict) -> WitnessKey:
    group = _load_group(data, "witness-key")
    try:
        return WitnessKey(
            **{
                name: _decode(group, data[name], f"witness-key entry {name!r}")
                for name in WitnessKey.FIELDS
            }
        )
    except KeyError as exc:
        raise MalformedKey(f"bad witness key: missing {exc}") from exc
