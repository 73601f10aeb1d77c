"""Command-line pipeline driver.

Subcommands mirror the proof lifecycle: ``compile`` turns a source program
into a circuit file, ``setup`` writes the evaluation/verification key pair,
``prove`` writes the witness key for a concrete input assignment, ``verify``
replays the three pairing checks, ``interactive`` runs the commit-and-reveal
baseline, and ``selftest`` exercises the bundled example end to end.

Artifacts are plain JSON files and act as the shared ledger between the
parties; all field and group values travel as decimal strings. Exit codes:
0 success or accept, 1 usage or input error, 2 proof/verification reject.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from . import bundled, pinocchio
from .field import DEFAULT_MODULUS, FieldContext, _quote, inverse, json_bytes, parse_decimal
from .groups import TransparentGroup
from .pinocchio import InvalidWitness, MalformedKey

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from .circuit import Circuit
    from .frontend import Program
    from .qap import QAP

__all__ = ["build_parser", "entrypoint", "main", "parse_args"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECT = 2

# Each command imports what it runs, so that verify loads only the field,
# group and key code. The four stages below are module-level functions that
# import on call: the commands reach them through this module's globals,
# where perfbench's tracer wraps them.


def parse_program(source: str) -> Program:
    from .frontend import parse_program

    return parse_program(source)


def flatten(program: Program, ctx: FieldContext) -> Circuit:
    from .circuit import flatten

    return flatten(program, ctx)


def solve(circuit: Circuit, inputs: dict) -> dict:
    from .circuit import solve

    return solve(circuit, inputs)


def build_qap(circuit: Circuit) -> QAP:
    from .qap import build_qap

    return build_qap(circuit)


def _terminal_columns() -> int:
    """shutil.get_terminal_size().columns, fallback 80 included: COLUMNS if
    it is a positive integer, else the width of the terminal on stdout."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return columns or 80


class _Formatter(argparse.RawDescriptionHelpFormatter):
    """argparse's help layout, descriptions and epilogs kept as written.

    argparse builds a formatter for every argument a parser adds, and its
    own formatter imports shutil for the terminal width, with zlib, bz2,
    lzma and fnmatch behind it; this one reads the width itself.
    """

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None, **kwargs):
        if width is None:
            width = _terminal_columns() - 2
        super().__init__(prog, indent_increment, max_help_position, width, **kwargs)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, **kwargs)

    # Usage problems exit 1; plain argparse would exit 2, which this tool
    # reserves for verification rejects.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _decimal(text: str) -> int:
    """argparse type of every numeric flag: one canonical decimal."""
    try:
        return parse_decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a canonical decimal: {_quote(text)}") from None


def _add_global_flags(parser) -> None:
    # Both the top-level parser and the command's parser take these flags.
    # The command's parser reads into the namespace the top-level one filled,
    # and argparse sets no default over an attribute already there, so a
    # command-level flag overrides the top-level value and an absent one
    # keeps it. --field is only parsed: the field is built by the command.
    parser.add_argument(
        "--field",
        type=_decimal,
        metavar="DECIMAL",
        default=DEFAULT_MODULUS,
        help="prime modulus (decimal); default 2^64 - 2^32 + 1",
    )
    parser.add_argument(
        "--seed",
        metavar="HEX",
        default=None,
        help="hex seed for all randomized steps (default: fresh entropy)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser: the global flags, then the command name and
    every argument after it, which the command's own parser reads."""
    listing = "".join(f"\n  {name:<13}{summary}" for name, (_, summary, _) in _COMMANDS.items())
    parser = _Parser(
        prog="snarkpipe",
        description="compile polynomial programs and run the proof pipeline",
        epilog="commands:" + listing,
    )
    _add_global_flags(parser)
    # PARSER is the nargs argparse gives its own subcommand action: the first
    # string must be a command, and every later one, a "--" included, is kept
    # for the command's parser. (A one-string positional followed by a
    # REMAINDER would drop a "--" right after the command name.)
    parser.add_argument(
        "command",
        nargs=argparse.PARSER,
        choices=_COMMANDS,
        help="the command to run (see below) and its arguments",
    )
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command: the global flags and its own arguments."""
    parser = _Parser(prog=f"snarkpipe {name}")
    _add_global_flags(parser)
    _, _, add_arguments = _COMMANDS[name]
    if add_arguments is not None:
        add_arguments(parser)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse in two stages, building only the parser of the command run.

    Arguments neither parser knows are reported by the top-level parser,
    as one list in command-line order."""
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    args.command, *rest = args.command
    args, more = _command_parser(args.command).parse_known_args(rest, args)
    if extras or more:
        parser.error(f"unrecognized arguments: {' '.join(extras + more)}")
    return args


def _write_json(files: dict) -> None:
    """Write each path's artifact dict, all or nothing (see _write_files)."""
    _write_files({path: json_bytes(data) for path, data in files.items()})


# The write buffer of each staged file. A chunked payload (a transcript, one
# chunk per round and one per separator) then reaches the file in a few
# writes, not one per chunk; a payload written whole bypasses it.
_WRITE_BUFFER = 1 << 18


def _write_files(payloads: dict) -> None:
    """Write each path's payload, bytes or a sequence of byte chunks, or on
    failure leave every path as it was.

    Each payload first goes to a temporary file beside its path; only once
    all are written are they renamed over their paths. A path that is a
    directory is refused before anything is written, since its rename would
    fail only after earlier paths had been replaced."""
    for path in payloads:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    staged = []
    try:
        for path, payload in payloads.items():
            temp = f"{path}.{os.getpid()}.tmp"
            try:
                fh = open(temp, "xb", buffering=_WRITE_BUFFER)
            except FileExistsError:  # a stale temporary: name it
                raise
            except OSError as exc:  # name the path asked for, not the temporary
                raise type(exc)(exc.errno, exc.strerror, path) from None
            with fh:
                staged.append(temp)
                if isinstance(payload, bytes):
                    fh.write(payload)
                else:
                    fh.writelines(payload)
        for path in payloads:
            os.replace(staged.pop(0), path)
    finally:
        for temp in staged:
            os.unlink(temp)


def _parse_json(text: str, path: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None


def _read_json(path: str) -> dict:
    return _parse_json(bundled.read_text(path), path)


def _context(args) -> FieldContext:
    return FieldContext(args.field)


def _seed_bytes(args) -> bytes:
    from .rng import parse_seed

    if args.seed is not None:
        return parse_seed(args.seed)
    seed = os.urandom(16)
    print(f"seed: {seed.hex()}")
    return seed


def _load_circuit(path: str) -> Circuit:
    from .circuit import Circuit

    return Circuit.from_json_dict(_read_json(path))


def _parse_input_map(data) -> dict:
    """Map input names to ints from a JSON object whose values are JSON
    integers or decimal strings; anything else is refused by name."""
    if not isinstance(data, dict):
        raise ValueError(f"an inputs file holds a JSON object, not {type(data).__name__}")
    out = {}
    for name, value in data.items():
        if isinstance(value, int) and not isinstance(value, bool):
            out[name] = value
        elif isinstance(value, str) and value.isascii() and value.removeprefix("-").isdigit():
            out[name] = int(value)
        else:
            raise ValueError(
                f"input {_quote(name)} must be an integer or a decimal string,"
                f" not {_quote(value)}"
            )
    return out


def _compile_arguments(parser) -> None:
    parser.add_argument("source", help="path to a .zkp file or a bundled name")
    parser.add_argument(
        "-o", "--output", default="circuit.json", help="circuit file to write"
    )
    parser.add_argument(
        "--emit-qap",
        nargs="?",
        const="qap.json",
        default=None,
        metavar="PATH",
        help="also dump the interpolated polynomial families",
    )


def cmd_compile(args) -> int:
    from .frontend import ParseError
    from .qap import check_field

    source = bundled.resolve_source(args.source, ".zkp")
    try:
        program = parse_program(source)
    except ParseError as exc:
        print(f"parse error: {exc} (in {args.source})", file=sys.stderr)
        return EXIT_USAGE
    circuit = flatten(program, _context(args))
    # Every check runs before the first output is opened, and both files
    # are written together, so a failed compile leaves no file behind.
    check_field(circuit)
    payloads = {}
    if args.emit_qap:
        payloads[args.emit_qap] = json_bytes(build_qap(circuit).to_json_dict())
    payloads[args.output] = circuit.to_json_bytes()  # wins if both name one path
    _write_files(payloads)
    print(f"N={circuit.n_gates} symbols={len(circuit.symbol_wires())}")
    print(f"wrote {args.output}")
    if args.emit_qap:
        print(f"wrote {args.emit_qap}")
    return EXIT_OK


def _setup_arguments(parser) -> None:
    parser.add_argument("--circuit", default="circuit.json")
    parser.add_argument(
        "--public",
        default="one",
        help="comma-separated public symbol names (default: one)",
    )
    parser.add_argument("--evaluation-key", default="evaluation_key.json")
    parser.add_argument("--verification-key", default="verification_key.json")


def cmd_setup(args) -> int:
    circuit = _load_circuit(args.circuit)
    qap = build_qap(circuit)
    group = TransparentGroup(circuit.ctx)
    public = tuple(name for name in args.public.split(",") if name)
    ek, vk = pinocchio.setup(qap, group, _seed_bytes(args), public)
    ek_data = pinocchio.evaluation_key_to_dict(ek)
    vk_data = pinocchio.verification_key_to_dict(vk)
    # One batch, so a key that cannot be written leaves the other unwritten.
    _write_json({args.evaluation_key: ek_data, args.verification_key: vk_data})
    print(f"wrote {args.evaluation_key}")
    print(f"wrote {args.verification_key}")
    return EXIT_OK


def _prove_arguments(parser) -> None:
    parser.add_argument("--circuit", default="circuit.json")
    parser.add_argument("--evaluation-key", default="evaluation_key.json")
    parser.add_argument(
        "--inputs", required=True, help="JSON file mapping input names to decimals"
    )
    parser.add_argument("-o", "--output", default="witness_key.json")


def cmd_prove(args) -> int:
    circuit = _load_circuit(args.circuit)
    ek = pinocchio.load_evaluation_key(_read_json(args.evaluation_key))
    if ek.group.ctx != circuit.ctx:
        raise MalformedKey(
            f"evaluation key (p={ek.group.ctx.p}) and circuit (p={circuit.ctx.p})"
            " use different fields"
        )
    qap = build_qap(circuit)
    inputs = _parse_input_map(_read_json(args.inputs))
    assignment = solve(circuit, inputs)
    wk = pinocchio.prove(ek, qap, assignment)
    _write_json({args.output: pinocchio.witness_key_to_dict(wk)})
    print(f"wrote {args.output}")
    return EXIT_OK


def _verify_arguments(parser) -> None:
    parser.add_argument("--verification-key", default="verification_key.json")
    parser.add_argument("--witness-key", default="witness_key.json")
    parser.add_argument(
        "--public-inputs",
        default=None,
        help="JSON file mapping public symbol names to decimals",
    )


def cmd_verify(args) -> int:
    vk = pinocchio.load_verification_key(_read_json(args.verification_key))
    wk = pinocchio.load_witness_key(_read_json(args.witness_key))
    public_inputs = {}
    if args.public_inputs:
        public_inputs = _parse_input_map(_read_json(args.public_inputs))
    result = pinocchio.verify(vk, wk, public_inputs)
    print(result.report())
    if result.accepted:
        print("accept")
        return EXIT_OK
    print("reject")
    return EXIT_REJECT


def _interactive_arguments(parser) -> None:
    parser.add_argument(
        "--problem", required=True, help="problem JSON file or bundled name"
    )
    parser.add_argument("--rounds", type=_decimal, default=10)
    parser.add_argument(
        "--cheat",
        action="store_true",
        help="run a prover that has no solution and guesses each challenge",
    )
    parser.add_argument(
        "--repeat",
        type=_decimal,
        default=1,
        help="run this many sessions and report the acceptance rate",
    )
    parser.add_argument(
        "--transcript",
        default=None,
        metavar="PATH",
        help="write the session transcript (single sessions only)",
    )


def cmd_interactive(args) -> int:
    from . import interactive
    from .rng import derive_seed

    if args.rounds < 1:
        raise ValueError("--rounds must be at least 1")
    if args.repeat < 1:
        raise ValueError("--repeat must be at least 1")
    if args.transcript is not None and args.repeat > 1:
        raise ValueError("--transcript records a single session; drop it or --repeat")
    if args.transcript == "":
        raise ValueError("--transcript needs a path")
    raw = bundled.resolve_source(args.problem, ".json")
    problem, solution = interactive.load_problem(_parse_json(raw, args.problem))
    if not args.cheat and solution is None:
        raise ValueError("problem file has no solution; add one or pass --cheat")
    seed = _seed_bytes(args)

    if args.repeat == 1:
        # Each round is encoded as soon as it is judged, so the session holds
        # its transcript as the file's bytes, never as records: the rounds,
        # comma-separated, fill the empty list of the session's own record.
        pieces = []
        for rounds_run, played in enumerate(
            interactive.session_rounds(problem, solution, args.rounds, seed, args.cheat), 1
        ):
            encoded = json_bytes(interactive.round_record(*played), end="")
            pieces += (b"," if pieces else b"[", encoded)
        accepted = played[-1]
        head, tail = json_bytes(
            interactive.SessionResult(accepted, rounds_run, []).to_json_dict()
        ).split(b"[]")
        path = args.transcript if args.transcript is not None else "transcript.json"
        _write_files({path: [head, *pieces, b"]" + tail]})
        print(f"wrote {path}")
        print("accept" if accepted else "reject")
        return EXIT_OK if accepted else EXIT_REJECT

    accepted = 0
    for i in range(args.repeat):
        result = interactive.run_session(
            problem,
            solution,
            rounds=args.rounds,
            seed=derive_seed(seed, f"session-{i}"),
            cheat=args.cheat,
            collect_transcript=False,
        )
        accepted += result.accepted
    rate = accepted / args.repeat
    print(
        f"sessions={args.repeat} rounds={args.rounds}"
        f" accepted={accepted} rate={rate:.4f}"
    )
    return EXIT_OK


def cmd_selftest(args) -> int:
    import tempfile
    import time

    from . import interactive
    from .polynomial import Polynomial
    from .rng import Sha256Rng, derive_seed, parse_seed

    seed = parse_seed(args.seed) if args.seed else b"selftest"
    ctx = _context(args)
    failures = []

    def report(name: str, ok: bool) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(name)

    started = time.perf_counter()

    rng = Sha256Rng(seed, label=b"selftest")
    ok = True
    for _ in range(500):
        a = rng.randrange(1, ctx.p)
        ok = ok and inverse(a, ctx.p) * a % ctx.p == 1
    report("field inverse identity (500 samples)", ok)

    ok = True
    for _ in range(100):
        num = Polynomial(ctx, [rng.randrange(ctx.p) for _ in range(12)])
        den = Polynomial(ctx, [rng.randrange(ctx.p) for _ in range(4)] + [1])
        quotient, remainder = divmod(num, den)
        ok = ok and quotient * den + remainder == num
    report("polynomial division reconstructs (100 samples)", ok)

    group = TransparentGroup(ctx)
    g = group.generator()
    ok = True
    for _ in range(200):
        x, y = rng.randrange(ctx.p), rng.randrange(ctx.p)
        ok = ok and (g**x).pair(g**y) == g.pair(g) ** (x * y % ctx.p)
    report("pairing bilinearity (200 samples)", ok)

    program = parse_program(bundled.load_bundled_text("coloring5.zkp"))
    circuit = flatten(program, ctx)
    qap = build_qap(circuit)
    with tempfile.TemporaryDirectory() as tmp:
        ek_path = os.path.join(tmp, "evaluation_key.json")
        vk_path = os.path.join(tmp, "verification_key.json")
        ek, vk = pinocchio.setup(qap, group, seed)
        _write_json({ek_path: pinocchio.evaluation_key_to_dict(ek)})
        _write_json({vk_path: pinocchio.verification_key_to_dict(vk)})
        ek = pinocchio.load_evaluation_key(_read_json(ek_path))
        vk = pinocchio.load_verification_key(_read_json(vk_path))
    witness = {"c1": 3, "c2": 1, "c3": 2, "c4": 1, "c5": 2}
    assignment = solve(circuit, witness)
    wk = pinocchio.prove(ek, qap, assignment)
    result = pinocchio.verify(vk, wk)
    report("bundled pipeline accepts a valid coloring", result.accepted)

    # a prover that skips solve: pinned outputs take their gates' values
    bad = solve(circuit, {**witness, "c2": 3})
    for gate in circuit.gates:
        left, right = bad[gate.left], bad[gate.right]
        bad[gate.out] = (left * right if gate.op == "Times" else left + right) % ctx.p
    try:
        pinocchio.prove(ek, qap, bad)
        report("prover refuses an invalid coloring", False)
    except InvalidWitness:
        report("prover refuses an invalid coloring", True)

    tampered = pinocchio.WitnessKey(
        **{
            name: g**12345 if name == "h" else getattr(wk, name)
            for name in pinocchio.WitnessKey.FIELDS
        }
    )
    report(
        "verifier rejects a tampered witness key",
        not pinocchio.verify(vk, tampered).accepted,
    )

    problem, cycle = interactive.load_problem(
        json.loads(bundled.load_bundled_text("triangle.json"))
    )
    honest = interactive.run_session(problem, cycle, rounds=10, seed=seed)
    report("interactive honest session accepts", honest.accepted)

    path_problem, _ = interactive.load_problem(
        json.loads(bundled.load_bundled_text("path4.json"))
    )
    hits = sum(
        interactive.run_session(
            path_problem,
            None,
            rounds=1,
            seed=derive_seed(seed, f"cheat-{i}"),
            cheat=True,
            collect_transcript=False,
        ).accepted
        for i in range(400)
    )
    report("interactive cheater lands near 1/2 per round", 140 <= hits <= 260)

    elapsed = time.perf_counter() - started
    print(f"selftest finished in {elapsed:.2f}s")
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


# Each command: its handler, its one-line help and the function that adds
# its own arguments. A run builds the parser of its command only.
_COMMANDS = {
    "compile": (cmd_compile, "compile a .zkp source file into a circuit", _compile_arguments),
    "setup": (cmd_setup, "run the trusted setup for a circuit", _setup_arguments),
    "prove": (cmd_prove, "produce a witness key from inputs", _prove_arguments),
    "verify": (cmd_verify, "check a witness key", _verify_arguments),
    "interactive": (cmd_interactive, "run the commit-and-reveal protocol", _interactive_arguments),
    "selftest": (cmd_selftest, "run the bundled pipeline and quick checks", None),
}


def main(argv=None) -> int:
    args = parse_args(argv)
    handler, _, _ = _COMMANDS[args.command]
    try:
        return handler(args)
    except InvalidWitness as exc:
        print(f"invalid witness: {exc}", file=sys.stderr)
        return EXIT_REJECT
    except MalformedKey as exc:
        print(f"malformed key: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a directory, no permission, a failed write
        print(f"unusable file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"bad JSON input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
