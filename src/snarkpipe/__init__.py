"""snarkpipe: a desk-scale proof pipeline.

Compiles straight-line polynomial programs into arithmetic circuits and
quadratic programs, runs a trusted-setup/prove/verify protocol over a
transparent group with a bilinear pairing, and ships an interactive
commit-and-reveal proof baseline for comparison. Educational by design:
the transparent group that makes everything runnable stores discrete logs
in the clear, which also makes it insecure.
"""

from .circuit import Circuit, Gate, IncompleteAssignment, Wire, check_solution, flatten, solve
from .field import DEFAULT_GENERATOR, DEFAULT_MODULUS, DivisionByZero, FieldContext
from .frontend import (
    ParseError,
    Program,
    Relation,
    eval_program,
    format_program,
    parse_program,
)
from .groups import GroupElement, TargetGroupElement, TransparentGroup
from .interactive import (
    Challenge,
    HamiltonianCycleProblem,
    RoundConsumed,
    SatProblem,
    cipher_round,
    forge_round,
    run_session,
    verify_round,
)
from .pinocchio import (
    EvaluationKey,
    InvalidWitness,
    MalformedKey,
    Trapdoor,
    VerificationKey,
    VerifyResult,
    WitnessKey,
    prove,
    setup,
    verify,
)
from .polynomial import DuplicateNode, Polynomial, lagrange_basis
from .qap import QAP, AssembledInstance, FieldTooSmall, assemble, build_qap, soundness_scan
from .rng import Sha256Rng

__version__ = "0.1.0"

__all__ = [
    "AssembledInstance",
    "Challenge",
    "Circuit",
    "DEFAULT_GENERATOR",
    "DEFAULT_MODULUS",
    "DivisionByZero",
    "DuplicateNode",
    "EvaluationKey",
    "FieldContext",
    "FieldTooSmall",
    "Gate",
    "GroupElement",
    "HamiltonianCycleProblem",
    "IncompleteAssignment",
    "InvalidWitness",
    "MalformedKey",
    "ParseError",
    "Polynomial",
    "Program",
    "QAP",
    "Relation",
    "RoundConsumed",
    "SatProblem",
    "Sha256Rng",
    "TargetGroupElement",
    "TransparentGroup",
    "Trapdoor",
    "VerificationKey",
    "VerifyResult",
    "Wire",
    "WitnessKey",
    "assemble",
    "build_qap",
    "check_solution",
    "cipher_round",
    "eval_program",
    "flatten",
    "forge_round",
    "format_program",
    "lagrange_basis",
    "parse_program",
    "prove",
    "run_session",
    "setup",
    "soundness_scan",
    "solve",
    "verify",
    "verify_round",
]
