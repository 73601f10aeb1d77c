"""The benchmark tracer wraps program functions by name from outside the
package; renaming one of them must fail here rather than in a benchmark run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    # installed() raises MissingTarget when a wrapped name no longer exists.
    with load_tracer().Tracer().installed():
        pass
