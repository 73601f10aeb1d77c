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

import errno
import json
import os
import stat
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import bundled, pinocchio
from .field import DEFAULT_MODULUS, FieldContext, _quote, inverse, json_bytes, parse_decimal
from .groups import TransparentGroup
from .pinocchio import InvalidWitness, MalformedKey

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    import argparse

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


# The command line, one table for argparse and the reader alike. A flag has
# its option strings (none for a positional), its dest and default, and its
# kind: VALUE takes the next string, DECIMAL one canonical decimal, SWITCH
# stores True, and OPTIONAL takes the next string or, when none follows,
# stands alone for its const. The rest is argparse's: required, help and
# metavar.
VALUE, DECIMAL, SWITCH, OPTIONAL = "value", "decimal", "switch", "optional"
_Flag = namedtuple(
    "_Flag",
    "options dest default kind required help metavar const",
    defaults=(None, VALUE, False, None, None, None),
)

# The flags both the top-level parser and each command's parser take. The
# command's parser reads into the namespace the top-level one filled, and
# argparse sets no default over an attribute already there, so a
# command-level flag overrides the top-level value and an absent one keeps
# it; the reader does the same. --field is only parsed: the field is built
# by the command.
_GLOBAL_FLAGS = (
    _Flag(("--field",), "field", DEFAULT_MODULUS, DECIMAL, metavar="DECIMAL",
          help="prime modulus (decimal); default 2^64 - 2^32 + 1"),
    _Flag(("--seed",), "seed", metavar="HEX",
          help="hex seed for all randomized steps (default: fresh entropy)"),
)


def _add_flags(parser, flags) -> None:
    from .usage import canonical_decimal

    for flag in flags:
        kwargs = {"default": flag.default, "help": flag.help}
        if flag.kind == SWITCH:
            kwargs["action"] = "store_true"
        else:
            kwargs["metavar"] = flag.metavar
        if flag.kind == DECIMAL:
            kwargs["type"] = canonical_decimal
        elif flag.kind == OPTIONAL:
            kwargs.update(nargs="?", const=flag.const)
        if flag.options:
            parser.add_argument(*flag.options, dest=flag.dest, required=flag.required, **kwargs)
        else:
            parser.add_argument(flag.dest, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser: the global flags, then the command name and
    every argument after it, which the command's own parser reads."""
    import argparse

    from .usage import Parser

    listing = "".join(f"\n  {name:<13}{summary}" for name, (_, summary, _) in _COMMANDS.items())
    parser = Parser(
        prog="snarkpipe",
        description="compile polynomial programs and run the proof pipeline",
        epilog="commands:" + listing,
    )
    _add_flags(parser, _GLOBAL_FLAGS)
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
    from .usage import Parser

    parser = Parser(prog=f"snarkpipe {name}")
    _add_flags(parser, _GLOBAL_FLAGS + _COMMANDS[name][2])
    return parser


def _read_command_line(argv: list) -> SimpleNamespace | None:
    """Read a plain command line from the flag table, without argparse;
    None for any other line, which argparse then parses.

    A plain line is --field and --seed pairs, the command, then the
    command's full option strings each followed by one value that does not
    start with "-", its switches and compile's one positional; a repeated
    flag's last value wins, as in argparse. Help, "--", "--x=v", an
    abbreviation, an unknown or "-"-prefixed string, a missing required
    flag, a decimal that is not canonical and --emit-qap are argparse's.
    Every such line takes argparse's route, so every help, usage and error
    text is argparse's."""
    start = 0
    while start < len(argv) and argv[start] in _GLOBAL_OPTIONS:
        start += 2
    if start >= len(argv) or argv[start] not in _COMMANDS:
        return None
    command = argv[start]
    options, positional, defaults, required = _READERS[command]
    values = dict(defaults)
    given = set()
    tokens = iter(argv[:start] + argv[start + 1 :])
    for token in tokens:
        flag = options.get(token)
        if flag is None:
            flag, value = positional, token
            if flag is None or token.startswith("-") or flag.dest in given:
                return None
        elif flag.kind == SWITCH:
            value = True
        else:
            value = next(tokens, "-")  # a missing value is argparse's to name
            if value.startswith("-"):
                return None
            if flag.kind == DECIMAL:
                try:
                    value = parse_decimal(value)
                except ValueError:
                    return None
        values[flag.dest] = value
        given.add(flag.dest)
    if not required <= given:
        return None
    return SimpleNamespace(command=command, **values)


def _argparse_parse(argv: list) -> SimpleNamespace:
    """Parse in two stages: the top-level parser reads the global flags and
    the command name, then only the named command's parser is built, and it
    reads the rest. Arguments neither parser knows are reported by the
    top-level parser, as one list in command-line order."""
    parser = build_parser()
    args, extras = parser.parse_known_args(argv, SimpleNamespace())
    args.command, *rest = args.command
    args, more = _command_parser(args.command).parse_known_args(rest, args)
    if extras or more:
        parser.error(f"unrecognized arguments: {' '.join(extras + more)}")
    return args


def parse_args(argv=None) -> SimpleNamespace:
    """The namespace of a command line: read from the flag table when it is
    plain, else parsed by argparse, which prints help and usage errors."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_command_line(argv)
    return _argparse_parse(argv) if args is None else args


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


def _file_stat(path: str):
    """The os.stat of a file on disk at path, or None."""
    try:
        st = os.stat(path)
    except (OSError, ValueError):  # ValueError: a NUL in the path
        return None
    return st if stat.S_ISREG(st.st_mode) else None


def _distinct_outputs(outputs: tuple, inputs: tuple = ()) -> None:
    """Refuse, before anything is written, an output of a command that names
    one file, after os.path.realpath, with another of its outputs or with
    one of its inputs on disk, each a (flag, path): one payload would
    silently replace the other or the input, or the second temporary would
    collide with the first. A bundled name with no file of that name on
    disk is not an input.

    Two paths can name one file only if both are one file on disk or
    neither is a file, so only such pairs pay for realpath."""
    named = [(flag, path, st) for flag, path in inputs if (st := _file_stat(path))]
    for flag, path in outputs:
        if not path:
            continue
        out = _file_stat(path)
        for other_flag, other, st in named:
            alike = os.path.samestat(st, out) if st and out else st is out
            if alike and os.path.realpath(other) == os.path.realpath(path):
                raise ValueError(
                    f"{other_flag} {_quote(other)} and {flag} {_quote(path)} name one file"
                )
        named.append((flag, path, out))


class BadJSON(ValueError):
    """An input file that is not JSON the interpreter can read, named by path."""


def _parse_json(text: str, path: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise BadJSON(f"{path}: {exc}") from None
    except RecursionError:  # arrays or objects nested past the parser's depth
        raise BadJSON(f"{path}: nested too deeply") from None


def _read_json(path: str) -> dict:
    return _parse_json(bundled.read_text(path), path)


def _context(args) -> FieldContext:
    return FieldContext(args.field)


def _given_seed(args) -> bytes | None:
    """--seed's bytes or None; parsed before any file is read, so it is refused first."""
    from .rng import parse_seed

    return None if args.seed is None else parse_seed(args.seed)


def _fresh_seed() -> bytes:
    seed = os.urandom(16)
    print(f"seed: {seed.hex()}")  # so that the run can be replayed
    return seed


def _public_names(text: str) -> tuple:
    """--public's names; an empty or repeated one is refused, never dropped."""
    names = {}
    for name in text.split(","):
        if not name:
            raise ValueError(f"--public {_quote(text)} holds an empty name")
        if name in names:
            raise ValueError(f"--public names {_quote(name)} twice")
        names[name] = None
    return tuple(names)


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
            try:
                out[name] = int(value)
            except ValueError as exc:  # past the interpreter's digit limit
                raise ValueError(f"input {_quote(name)}: {exc}") from None
        else:
            raise ValueError(
                f"input {_quote(name)} must be an integer or a decimal string,"
                f" not {_quote(value)}"
            )
    return out


def cmd_compile(args) -> int:
    from .frontend import ParseError
    from .qap import check_emit_size, check_field

    _distinct_outputs(
        (("--output", args.output), ("--emit-qap", args.emit_qap)), (("source", args.source),)
    )
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
    if args.emit_qap:
        check_emit_size(circuit)
    payloads = {args.output: circuit.to_json_bytes()}
    if args.emit_qap:
        payloads[args.emit_qap] = json_bytes(build_qap(circuit).to_json_dict())
    _write_files(payloads)
    print(f"N={circuit.n_gates} symbols={len(circuit.symbol_wires())}")
    print(f"wrote {args.output}")
    if args.emit_qap:
        print(f"wrote {args.emit_qap}")
    return EXIT_OK


def cmd_setup(args) -> int:
    seed = _given_seed(args)
    public = _public_names(args.public)
    _distinct_outputs(
        (("--evaluation-key", args.evaluation_key), ("--verification-key", args.verification_key)),
        (("--circuit", args.circuit),),
    )
    circuit = _load_circuit(args.circuit)
    qap = build_qap(circuit)
    group = TransparentGroup(circuit.ctx)
    ek, vk = pinocchio.setup(qap, group, seed or _fresh_seed(), public)
    ek_data = pinocchio.evaluation_key_to_dict(ek)
    vk_data = pinocchio.verification_key_to_dict(vk)
    # One batch, so a key that cannot be written leaves the other unwritten.
    _write_json({args.evaluation_key: ek_data, args.verification_key: vk_data})
    print(f"wrote {args.evaluation_key}")
    print(f"wrote {args.verification_key}")
    return EXIT_OK


def cmd_prove(args) -> int:
    _distinct_outputs(
        (("--output", args.output),),
        (("--circuit", args.circuit), ("--evaluation-key", args.evaluation_key),
         ("--inputs", args.inputs)),
    )
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


def cmd_interactive(args) -> int:
    from . import interactive
    from .rng import derive_seed

    seed = _given_seed(args)
    if args.rounds < 1:
        raise ValueError("--rounds must be at least 1")
    if args.repeat < 1:
        raise ValueError("--repeat must be at least 1")
    if args.transcript is not None and args.repeat > 1:
        raise ValueError("--transcript records a single session; drop it or --repeat")
    if args.transcript == "":
        raise ValueError("--transcript needs a path")
    transcript = "transcript.json" if args.transcript is None else args.transcript
    if args.repeat == 1:
        _distinct_outputs((("--transcript", transcript),), (("--problem", args.problem),))
    raw = bundled.resolve_source(args.problem, ".json")
    problem, solution = interactive.load_problem(_parse_json(raw, args.problem))
    if not args.cheat and solution is None:
        raise ValueError("problem file has no solution; add one or pass --cheat")
    seed = seed or _fresh_seed()

    if args.repeat == 1:
        result = interactive.run_session(problem, solution, args.rounds, seed, args.cheat)
        _write_files({transcript: result.chunks()})
        print(f"wrote {transcript}")
        print("accept" if result.accepted else "reject")
        return EXIT_OK if result.accepted else EXIT_REJECT

    # A session past its own bound is left to session_rounds, which names it.
    per_session = args.rounds * problem.round_entries()
    limit = interactive.MAX_REPEAT_ENTRIES
    if per_session <= interactive.MAX_SESSION_ENTRIES and args.repeat * per_session > limit:
        raise ValueError(
            f"--repeat sends at most {limit} entries in all, and {args.repeat} sessions"
            f" of {per_session} send {args.repeat * per_session}; at most --repeat"
            f" {limit // per_session} fits"
        )
    accepted = 0
    for i in range(args.repeat):
        session = interactive.session_rounds(
            problem, solution, args.rounds, derive_seed(seed, f"session-{i}"), args.cheat
        )
        accepted += all(verdict for *_, verdict in session)
    rate = accepted / args.repeat
    print(
        f"sessions={args.repeat} rounds={args.rounds}"
        f" accepted={accepted} rate={rate:.4f}"
    )
    return EXIT_OK


def cmd_selftest(args) -> int:
    import contextlib
    import io
    import re
    import tempfile
    import time

    from .polynomial import pays
    from .qap import QAP
    from .rng import Sha256Rng

    seed = _given_seed(args) or b"selftest"
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
        a = 1 + rng.randbelow(ctx.p - 1)
        ok = ok and inverse(a, ctx.p) * a % ctx.p == 1
    report("field inverse identity (500 samples)", ok)

    # The prover's quotient H = V*W // T leaves as remainder K, which takes
    # V(d) * W(d) at each node d, so H(r) * T(r) + K(r) = V(r) * W(r) at any
    # r: each side from node values through the Lagrange values at r, H(r)
    # by Horner, and r off the nodes so that T(r) != 0. One N in each form
    # of the tree the field reaches, with p > 2N as compile requires.
    p, limit = ctx.p, (ctx.p - 1) // 2
    first_two = next((n for n in range(1, limit + 1) if pays(p, n)), limit + 1)
    sizes = {min(69, first_two - 1), first_two}  # one-point, two-point
    ok = True
    for n in sorted(n for n in sizes if 1 <= n <= limit):
        qap = QAP(ctx=ctx, n_gates=n, symbols=(), symbol_names=(), rows=[])
        for _ in range(10):
            at_v, at_w = ([rng.randbelow(p) for _ in range(n)] for _ in "vw")
            h = qap.quotient(at_v, at_w).coeffs
            r = n + 1 + rng.randbelow(p - n - 1)
            t_r, lagrange = qap.lagrange_at(r)
            h_r = 0
            for c in reversed(h):
                h_r = (h_r * r + c) % p
            v_r = sum(v * l for v, l in zip(at_v, lagrange))
            w_r = sum(w * l for w, l in zip(at_w, lagrange))
            k_r = sum(v * w % p * l for v, w, l in zip(at_v, at_w, lagrange))
            ok = ok and (h_r * t_r + k_r - v_r * w_r) % p == 0
    report("prover quotient: H*T + K = V*W (10 samples per tree form)", ok)

    group = TransparentGroup(ctx)
    g = group.generator()
    ok = True
    for _ in range(200):
        x, y = rng.randbelow(ctx.p), rng.randbelow(ctx.p)
        ok = ok and group.pairing(g**x, g**y) == group.pairing(g, g) ** (x * y % ctx.p)
    report("pairing bilinearity (200 samples)", ok)

    # The rest runs the commands themselves, on the bundled examples, in a
    # temporary directory and with their output kept back. A command that
    # fails where it should not stops selftest, with its own error.
    class Stopped(Exception):
        pass

    def run(*argv, verdicts=(EXIT_OK,)) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--field", str(ctx.p), "--seed", seed.hex(), *argv])
        if code not in verdicts:
            sys.stderr.write(err.getvalue())
            raise Stopped
        return code, out.getvalue()

    def verdict(*argv) -> int:
        return run(*argv, verdicts=(EXIT_OK, EXIT_REJECT))[0]

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            witness = {"c1": 3, "c2": 1, "c3": 2, "c4": 1, "c5": 2}
            _write_json({"in.json": witness, "bad.json": {**witness, "c2": 3}})
            run("compile", "coloring5")
            run("setup")
            run("prove", "--inputs", "in.json")
            report("bundled pipeline accepts a valid coloring", verdict("verify") == EXIT_OK)

            refused = verdict("prove", "--inputs", "bad.json", "-o", "bad_key.json")
            report("prover refuses an invalid coloring", refused == EXIT_REJECT)

            tampered = {**_read_json("witness_key.json"), "h": str(12345 % ctx.p)}
            _write_json({"tampered.json": tampered})
            rejected = verdict("verify", "--witness-key", "tampered.json")
            report("verifier rejects a tampered witness key", rejected == EXIT_REJECT)

            honest = verdict("interactive", "--problem", "triangle", "--rounds", "10")
            report("interactive honest session accepts", honest == EXIT_OK)

            _, out = run(
                "interactive", "--problem", "path4", "--cheat", "--rounds", "1", "--repeat", "400"
            )
            hits = int(re.search(r"accepted=(\d+)", out)[1])
            report("interactive cheater lands near 1/2 per round", 140 <= hits <= 260)
        except Stopped:
            return EXIT_USAGE
        finally:
            os.chdir(cwd)

    elapsed = time.perf_counter() - started
    print(f"selftest finished in {elapsed:.2f}s")
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


# Each command: its handler, its one-line help and its own flags.
_COMMANDS = {
    "compile": (cmd_compile, "compile a .zkp source file into a circuit", (
        _Flag((), "source", required=True, help="path to a .zkp file or a bundled name"),
        _Flag(("-o", "--output"), "output", "circuit.json", help="circuit file to write"),
        _Flag(("--emit-qap",), "emit_qap", None, OPTIONAL, const="qap.json", metavar="PATH",
              help="also dump the interpolated polynomial families"),
    )),
    "setup": (cmd_setup, "run the trusted setup for a circuit", (
        _Flag(("--circuit",), "circuit", "circuit.json"),
        _Flag(("--public",), "public", "one",
              help="comma-separated public symbol names (default: one)"),
        _Flag(("--evaluation-key",), "evaluation_key", "evaluation_key.json"),
        _Flag(("--verification-key",), "verification_key", "verification_key.json"),
    )),
    "prove": (cmd_prove, "produce a witness key from inputs", (
        _Flag(("--circuit",), "circuit", "circuit.json"),
        _Flag(("--evaluation-key",), "evaluation_key", "evaluation_key.json"),
        _Flag(("--inputs",), "inputs", required=True,
              help="JSON file mapping input names to decimals"),
        _Flag(("-o", "--output"), "output", "witness_key.json"),
    )),
    "verify": (cmd_verify, "check a witness key", (
        _Flag(("--verification-key",), "verification_key", "verification_key.json"),
        _Flag(("--witness-key",), "witness_key", "witness_key.json"),
        _Flag(("--public-inputs",), "public_inputs",
              help="JSON file mapping public symbol names to decimals"),
    )),
    "interactive": (cmd_interactive, "run the commit-and-reveal protocol", (
        _Flag(("--problem",), "problem", required=True, help="problem JSON file or bundled name"),
        _Flag(("--rounds",), "rounds", 10, DECIMAL),
        _Flag(("--cheat",), "cheat", False, SWITCH,
              help="run a prover that has no solution and guesses each challenge"),
        _Flag(("--repeat",), "repeat", 1, DECIMAL,
              help="run this many sessions and report the acceptance rate"),
        _Flag(("--transcript",), "transcript", metavar="PATH",
              help="write the session transcript (single sessions only)"),
    )),
    "selftest": (cmd_selftest, "run the bundled pipeline and quick checks", ()),
}

# What the reader looks up, per command: each option string it takes, the
# global ones included, and its flag; the positional, if any; every dest's
# default; and the dests that must be given. --emit-qap, whose value is
# optional, is left to argparse.
_GLOBAL_OPTIONS = {option for flag in _GLOBAL_FLAGS for option in flag.options}
_READERS = {
    name: (
        {o: f for f in _GLOBAL_FLAGS + flags if f.kind != OPTIONAL for o in f.options},
        next((f for f in flags if not f.options), None),
        {f.dest: f.default for f in _GLOBAL_FLAGS + flags},
        {f.dest for f in flags if f.required},
    )
    for name, (_, _, flags) in _COMMANDS.items()
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
    except BadJSON as exc:
        print(f"bad JSON input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
