"""snarkpipe: a desk-scale proof pipeline.

Compiles straight-line polynomial programs into arithmetic circuits and
quadratic programs, runs a trusted-setup/prove/verify protocol over a
transparent group with a bilinear pairing, and ships an interactive
commit-and-reveal proof baseline for comparison. Educational by design:
the transparent group that makes everything runnable stores discrete logs
in the clear, which also makes it insecure.

Importing the package loads no submodule: each public name below is
imported from its module on first access (PEP 562), so a command that
only verifies never pays for the compiler, the prover or the interactive
baseline.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "AssembledInstance": "qap",
    "Challenge": "interactive",
    "Circuit": "circuit",
    "DEFAULT_MODULUS": "field",
    "DivisionByZero": "field",
    "EvaluationKey": "pinocchio",
    "FieldContext": "field",
    "FieldTooSmall": "qap",
    "Gate": "circuit",
    "GroupElement": "groups",
    "HamiltonianCycleProblem": "interactive",
    "IncompleteAssignment": "circuit",
    "InvalidWitness": "pinocchio",
    "MalformedKey": "pinocchio",
    "ParseError": "frontend",
    "Program": "frontend",
    "QAP": "qap",
    "Relation": "frontend",
    "RoundConsumed": "interactive",
    "SatProblem": "interactive",
    "Sha256Rng": "rng",
    "TargetGroupElement": "groups",
    "TransparentGroup": "groups",
    "Trapdoor": "pinocchio",
    "VerificationKey": "pinocchio",
    "VerifyResult": "pinocchio",
    "Wire": "circuit",
    "WitnessKey": "pinocchio",
    "assemble": "qap",
    "build_qap": "qap",
    "check_solution": "circuit",
    "cipher_round": "interactive",
    "eval_program": "frontend",
    "flatten": "circuit",
    "forge_round": "interactive",
    "format_program": "frontend",
    "parse_program": "frontend",
    "prove": "pinocchio",
    "run_session": "interactive",
    "setup": "pinocchio",
    "solve": "circuit",
    "verify": "pinocchio",
    "verify_round": "interactive",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
