"""The benchmark tracer's hook names resolve on the package.

``bench/tracer.py`` rebinds every ``TARGETS`` entry with ``getattr`` when a
run is traced, so a renamed function makes every ``--trace 1`` run raise
``AttributeError``. The tracer module is loaded from its file and only read.
"""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_targets():
    """TARGETS of the tracer source, run without writing a bytecode cache."""
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["TARGETS"]


TARGETS = load_targets()


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_target_resolves(name):
    module_name, attr = TARGETS[name]
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name
