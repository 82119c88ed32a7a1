"""Every function the benchmark's traced run wraps still exists where the
tracer looks for it, so a rename or a moved method fails here and not only
in the traced run."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402

TARGETS = [(mod, path) for mod, path, _, _ in tracer.SPANNED + tracer.COUNTED]


@pytest.mark.parametrize("modname,path", TARGETS, ids=[f"{m}:{p}" for m, p in TARGETS])
def test_trace_target_resolves(modname, path):
    module = importlib.import_module(modname)
    if "." in path:
        # Tracer._patch reads the method from the class's own __dict__.
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, path))
