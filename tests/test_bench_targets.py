"""Every name the benchmark's tracer wraps still exists.

The tracer records a deleted name as absent instead of failing, so this
test is what notices when a refactor removes one. ``pktbench/tracing.py``
imports only the standard library and is loaded here by its file path.
"""

import importlib
import importlib.util
import sys
import time
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "pktbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_pktbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


tracing = _load_tracing()


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize(
    "module_name, attr_path",
    [(module_name, attr_path) for _, module_name, attr_path in tracing.TARGETS],
)
def test_traced_target_exists(module_name, attr_path):
    assert callable(_resolve(module_name, attr_path))


def test_packet_marker_and_timer_host_exist():
    assert callable(_resolve(*tracing.PACKET_MARKER))
    assert _resolve(tracing.TIMER_HOST, "time") is time
