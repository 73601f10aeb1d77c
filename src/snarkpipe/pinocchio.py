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

from .field import read_header, write_header
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
            "powers_of_s",  # s^d, d = 0..N
            "v",  # r_v * v_i(s) per symbol
            "w",
            "k",
            "alpha_v",  # alpha_v * r_v * v_i(s) per symbol
            "alpha_w",
            "alpha_k",
            "beta",  # beta * (r_v*v_i + r_w*w_i + r_k*k_i)(s)
        ),
    )
):
    """The program's shape and, per `LISTS` entry, a list of group elements
    given by their discrete logs: plain residues mod p, the exponents of g
    that a key file lists."""

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
    identical keys. Every evaluation-key entry is g raised to a product of
    trapdoor scalars, so setup computes those exponents by field arithmetic,
    the fixed-base exponentiation a real group would then apply.
    """
    if group.ctx != qap.ctx:
        raise ValueError(
            f"group (p={group.ctx.p}) and QAP (p={qap.ctx.p}) use different field contexts"
        )
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

    powers = [1]
    for _ in range(qap.n_gates):
        powers.append(powers[-1] * td.s % p)

    # a_i(s) = sum_d a_i(d) L_d(s): row d adds L_d(s) times its coefficients
    # into its symbols' sums, so the matrices never leave node form
    target_at_s, lagrange_at_s = qap.lagrange_at(td.s)
    v_sum, w_sum, k_sum = ([0] * len(qap.symbols) for _ in "vwk")
    for (v, w, k), lagrange in zip(qap.rows, lagrange_at_s):
        for i, c in v:
            v_sum[i] += c * lagrange
        for i, c in w:
            w_sum[i] += c * lagrange
        for i, c in k:
            k_sum[i] += c * lagrange

    def scaled(factor: int, values: list) -> list:
        return [factor * x % p for x in values]

    v_at_s, w_at_s, k_at_s = ([x % p for x in sums] for sums in (v_sum, w_sum, k_sum))
    beta_v, beta_w, beta_k = (td.beta * r % p for r in (td.r_v, td.r_w, td.r_k))
    ek = EvaluationKey(
        group=group,
        n_gates=qap.n_gates,
        symbols=qap.symbol_names,
        public=public,
        powers_of_s=powers,
        v=scaled(td.r_v, v_at_s),
        w=scaled(td.r_w, w_at_s),
        k=scaled(td.r_k, k_at_s),
        alpha_v=scaled(td.alpha_v * td.r_v % p, v_at_s),
        alpha_w=scaled(td.alpha_w * td.r_w % p, w_at_s),
        alpha_k=scaled(td.alpha_k * td.r_k % p, k_at_s),
        beta=[
            (beta_v * x + beta_w * y + beta_k * z) % p
            for x, y, z in zip(v_at_s, w_at_s, k_at_s)
        ],
    )
    g = group.generator()
    index_of = {name: i for i, name in enumerate(qap.symbol_names)}
    vk = VerificationKey(
        group=group,
        g=g,
        alpha_v=g**td.alpha_v,
        alpha_w=g**td.alpha_w,
        alpha_k=g**td.alpha_k,
        gamma=g**td.gamma,
        beta_gamma=g ** (td.beta * td.gamma % p),
        target_at_s=g ** (td.r_k * target_at_s % p),
        public_entries=[
            (name, *(g ** entries[index_of[name]] for entries in (ek.v, ek.w, ek.k)))
            for name in public
        ],
    )
    return ek, vk


def prove(ek: EvaluationKey, qap: QAP, assignment: dict) -> WitnessKey:
    """Build the witness key from evaluation-key material and the assignment.

    Only key entries and witness weights enter the products below; the
    evaluation point s never appears. Refuses assignments whose combined
    polynomial is not divisible by the target, naming the first gate that
    does not hold.
    """
    if ek.symbols != qap.symbol_names or ek.n_gates != qap.n_gates:
        raise MalformedKey("evaluation key was generated for a different program")
    instance = assemble(qap, assignment)
    if not instance.divisible:
        d = instance.failing_gate
        raise InvalidWitness(
            f"gate {d} does not hold (v\u00b7w != k at node {d}); refusing to prove it"
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
    for name in WitnessKey.FIELDS:
        p = getattr(wk, name).group.ctx.p
        if p != group.ctx.p:
            raise MalformedKey(
                f"witness key (p={p}) and verification key (p={group.ctx.p})"
                " use different fields"
            )
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
    return {**write_header(kind, group.ctx), "backend": group.name}


def _element(e: GroupElement) -> str:
    return str(e.value)


def evaluation_key_to_dict(ek: EvaluationKey) -> dict:
    data = _header(ek.group, "evaluation-key")
    data.update(n_gates=ek.n_gates, symbols=list(ek.symbols), public=list(ek.public))
    data.update({name: list(map(str, getattr(ek, name))) for name in EvaluationKey.LISTS})
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
    try:
        ctx = read_header(data, kind)
    except ValueError as exc:
        raise MalformedKey(str(exc)) from None
    if data.get("backend") != TransparentGroup.name:
        raise MalformedKey(
            f"{kind} names backend {data.get('backend')!r};"
            f" only {TransparentGroup.name!r} exists"
        )
    return TransparentGroup(ctx)


def _decode(group: TransparentGroup, value, where: str) -> GroupElement:
    try:
        return group.decode(value)
    except ValueError as exc:
        raise MalformedKey(f"{where}: {exc}") from None


def _decode_list(group: TransparentGroup, data: dict, name: str, count: int) -> list:
    values = data[name]
    if not isinstance(values, list) or len(values) != count:
        raise MalformedKey(f"evaluation-key entry {name!r} must list {count} elements")
    residues = group.decode_all(values)
    if residues is None:  # decode one by one to name the first bad entry
        residues = [
            _decode(group, value, f"evaluation-key entry {name}[{i}]").value
            for i, value in enumerate(values)
        ]
    return residues


def _names(data: dict, name: str) -> tuple:
    values = data[name]
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise MalformedKey(f"evaluation-key entry {name!r} must be an array of strings")
    return tuple(values)


def _check_public(public, where: str, symbols=None) -> None:
    """Refuse a list of public names that setup could not have written:
    setup lists 'one' first, then distinct names, each a symbol (checked
    when `symbols` is given)."""
    if not public or public[0] != "one":
        first = repr(public[0]) if public else "nothing"
        raise MalformedKey(f"{where} must list 'one' first, not {first}")
    known = None if symbols is None else set(symbols)
    seen = set()
    for name in public:
        if known is not None and name not in known:
            raise MalformedKey(f"{where} names {name!r}, which is not a symbol")
        if name in seen:
            raise MalformedKey(f"{where} lists {name!r} twice")
        seen.add(name)


def load_evaluation_key(data: dict) -> EvaluationKey:
    group = _load_group(data, "evaluation-key")
    try:
        n_gates = data["n_gates"]
        if type(n_gates) is not int or n_gates < 0:
            raise MalformedKey(
                f"evaluation-key entry 'n_gates' must be a JSON integer >= 0, not {n_gates!r}"
            )
        symbols = _names(data, "symbols")
        public = _names(data, "public")
        _check_public(public, "evaluation-key entry 'public'", symbols)
        return EvaluationKey(
            group=group,
            n_gates=n_gates,
            symbols=symbols,
            public=public,
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
        public_entries = [
            (public_name(item, i), *(entry(item, f, f"public[{i}].{f}") for f in "vwk"))
            for i, item in enumerate(data["public"])
        ]
        _check_public(
            [name for name, _, _, _ in public_entries], "verification-key entry 'public'"
        )
        return VerificationKey(
            group=group,
            public_entries=public_entries,
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
