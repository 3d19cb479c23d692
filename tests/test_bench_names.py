"""The benchmark's tracer wraps quasidict callables by name; every name it
lists must still resolve, so a rename in src/ fails here, not only in a
traced benchmark run."""

import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # executed from its source text, so nothing is written under bench/
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves(tracing):
    specs = [*tracing.FUNCTIONS.values(), *tracing.METHODS.values()]
    assert specs
    for spec in specs:
        assert callable(tracing.resolve(spec)), spec
