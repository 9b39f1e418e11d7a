"""The names the benchmark in bench/ looks up in fuzzychain still exist.

bench/tracer.py wraps each (owner, attribute) of its TARGETS by reading
owner.__dict__[attribute], and bench/child.py passes workers= to
run_configured. A rename or deletion in src/ would break every traced
benchmark run without failing any other test.
"""

import importlib.util
import inspect
from pathlib import Path

from fuzzychain.experiments import run_configured

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _span in load_tracer().TARGETS
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_run_configured_accepts_workers():
    assert "workers" in inspect.signature(run_configured).parameters
