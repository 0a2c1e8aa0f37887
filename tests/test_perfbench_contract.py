"""The benchmark's tracer rebinds package entry points by name.

``perfbench/tracer.py`` wraps each ``(module, attribute)`` of its ``SPANS``
table with ``getattr``; a deleted or renamed entry point would crash every
traced benchmark run. The table is read here, never edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


@pytest.mark.parametrize("span,module,attr", [s[:3] for s in _spans()])
def test_every_traced_entry_point_resolves(span, module, attr):
    owner = importlib.import_module(module)
    for name in attr.split("."):
        owner = getattr(owner, name)
    assert callable(owner), f"{span}: {module}.{attr} is not callable"
