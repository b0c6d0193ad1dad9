"""Every function that perfbench/tracing.py wraps still exists where it looks.

The tracer replaces a module attribute found through getattr and a
`Class.meth` entry found in that class's own __dict__, so a method that
moves to a base class without being bound in the subclass breaks
`perfbench/run.py --trace 1` while the rest of the tests still pass.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
TARGETS = [(module, path) for _, module, path, _ in _tracing.TARGETS]
TARGETS.append(_tracing.SUITE_TARGET)


@pytest.mark.parametrize("module_name, path", TARGETS,
                         ids=[f"{m}:{p}" for m, p in TARGETS])
def test_target_resolves(module_name, path):
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, meth = path.split(".")
        assert callable(vars(getattr(module, cls_name)).get(meth)), \
            f"{cls_name}.__dict__ has no {meth}"
    else:
        assert callable(getattr(module, path))
