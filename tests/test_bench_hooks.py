"""Every name the benchmark's traced run wraps must exist in the package.

``bench/tracer.py`` patches functions, methods and ``optimize.minimize``
by module and attribute path. A renamed or dropped binding otherwise
shows up only when a traced benchmark run fails to install its spans.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolve(mod_name: str, path: str):
    obj = importlib.import_module(f"proctensor.{mod_name}")
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("span", sorted(tracer.FUNCTION_SPANS))
def test_function_span_target_resolves(span):
    mod_name, path, counted = tracer.FUNCTION_SPANS[span]
    target = _resolve(mod_name, path)
    assert callable(target)
    if counted is not None:
        assert counted in inspect.signature(target).parameters


@pytest.mark.parametrize("span", sorted(tracer.LOCAL_SPANS))
def test_local_span_target_resolves(span):
    mod_name, path = tracer.LOCAL_SPANS[span]
    assert callable(_resolve(mod_name, path))
