"""In-memory span tracer that wraps snarkpipe's public functions from outside.

Each target is replaced at the name its caller looks up (a module global
such as ``snarkpipe.cli.build_qap`` or a class attribute such as
``Polynomial.__mul__``), so the program's own files stay untouched. Spans
keep name, start, end, parent span id and operation id; a span's self time
is its duration minus the time covered by its children. FieldElement
arithmetic and ``Polynomial.__init__`` are deliberately not wrapped: they run
millions of times per pass and a wrapper there would mostly time itself.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

# (module, attribute path, span name, mode). Mode None times the call,
# "count" only counts it (a span per group multiplication would dominate
# the fold it measures), "commit" also counts the digests of the returned
# RoundCommitment and "quotient" records the degree of the returned H.
TARGETS = (
    ("snarkpipe.cli", "parse_program", "frontend.parse", None),
    ("snarkpipe.cli", "flatten", "circuit.flatten", None),
    ("snarkpipe.cli", "solve", "circuit.solve", None),
    ("snarkpipe.circuit", "Circuit.from_json_dict", "circuit.load", None),
    ("snarkpipe.circuit", "Circuit.to_json_bytes", "circuit.dump", None),
    ("snarkpipe.cli", "build_qap", "qap.build", None),
    ("snarkpipe.pinocchio", "assemble", "qap.assemble", "quotient"),
    ("snarkpipe.qap", "lagrange_basis", "polynomial.lagrange_basis", None),
    ("snarkpipe.polynomial", "Polynomial.__mul__", "polynomial.mul", None),
    ("snarkpipe.polynomial", "Polynomial.__divmod__", "polynomial.divmod", None),
    ("snarkpipe.polynomial", "Polynomial.eval_int", "polynomial.eval", None),
    ("snarkpipe.groups", "GroupElement.__pow__", "groups.exp", None),
    ("snarkpipe.groups", "GroupElement.__mul__", "groups.mul", "count"),
    ("snarkpipe.groups", "TransparentGroup.pairing", "groups.pairing", None),
    ("snarkpipe.pinocchio", "setup", "pinocchio.setup", None),
    ("snarkpipe.pinocchio", "prove", "pinocchio.prove", None),
    ("snarkpipe.pinocchio", "verify", "pinocchio.verify", None),
    ("snarkpipe.pinocchio", "evaluation_key_to_dict", "pinocchio.key_dump", None),
    ("snarkpipe.pinocchio", "verification_key_to_dict", "pinocchio.key_dump", None),
    ("snarkpipe.pinocchio", "witness_key_to_dict", "pinocchio.key_dump", None),
    ("snarkpipe.pinocchio", "load_evaluation_key", "pinocchio.key_load", None),
    ("snarkpipe.pinocchio", "load_verification_key", "pinocchio.key_load", None),
    ("snarkpipe.pinocchio", "load_witness_key", "pinocchio.key_load", None),
    ("snarkpipe.cli", "_read_json", "cli.json_read", None),
    ("snarkpipe.cli", "_write_json", "cli.json_write", None),
    ("snarkpipe.interactive", "cipher_round", "interactive.cipher_round", "commit"),
    ("snarkpipe.interactive", "forge_round", "interactive.forge_round", "commit"),
    ("snarkpipe.interactive", "verify_round", "interactive.verify_round", None),
    ("snarkpipe.rng", "Sha256Rng.getrandbits", "rng.draw", None),
    ("snarkpipe.rng", "Sha256Rng.randbytes", "rng.draw", None),
)


class MissingTarget(RuntimeError):
    """A wrap target no longer exists under the name its caller looks up."""


class Tracer:
    """Collects spans while active; ``with tracer.installed():`` wraps targets."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, operation id)
        self.recording = True  # keep individual spans; aggregates always run
        self.recorded_calls = {}  # call counts while recording
        self.recorded_commitments = 0
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.op_self = defaultdict(float)  # operation id -> summed self time
        self.commitments = 0
        self.deg_h = None
        self.operation = None
        self.last_root = 0.0  # duration of the last span opened with no parent
        self._stack = []  # [span id, child time]
        self._next_id = 0

    # --- spans ---------------------------------------------------------------

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            else:
                self.last_root = duration
            own = duration - frame[1]
            self.self_time[name] += own
            self.op_self[self.operation] += own
            self.calls[name] += 1
            if self.recording:
                self.spans.append((span_id, name, start, end, parent, self.operation))

    def stop_recording(self) -> None:
        """Keep aggregating self times but no more spans; freeze the counts."""
        if self.recording:
            self.recording = False
            self.recorded_calls = dict(self.calls)
            self.recorded_commitments = self.commitments

    def open_spans(self) -> int:
        return len(self._stack)

    def _wrap(self, name: str, mode, fn):
        tracer = self
        if mode == "count":

            def counted(*args, **kwargs):
                tracer.calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        def spanned(*args, **kwargs):
            result = tracer.run(name, fn, *args, **kwargs)
            if mode == "commit":
                tracer.commitments += len(result[0].digests)
            elif mode == "quotient" and result.divisible:
                tracer.deg_h = result.h.degree
            return result

        return spanned

    # --- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration; restore each one on exit,
        also when a later target turns out to be missing."""
        saved = []
        try:
            for module_name, path, name, mode in TARGETS:
                owner, attr = _resolve(module_name, path)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, mode, raw.__func__))
                else:
                    wrapped = self._wrap(name, mode, raw)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # --- output --------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end,
                          "parent": parent, "op": op}
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _resolve(module_name: str, path: str):
    """Return (module or class holding the attribute, name) or fail by name."""
    full = f"{module_name}.{path}"
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingTarget(f"wrap target {full}: {exc}") from exc
    *parents, attr = path.split(".")
    for part in parents:
        owner = vars(owner).get(part)
        if owner is None:
            break
    if owner is None or attr not in vars(owner):
        raise MissingTarget(f"wrap target {full} is missing")
    return owner, attr
