"""The benchmark's layer tracing wraps package functions by name.

perfbench/tracing.py lists each boundary as (module, attribute); a refactor
that renames or drops one of them would leave ``--trace 1`` broken or
silently empty. The list is read from that file, never edited here.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def _boundaries():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.BOUNDARIES


@pytest.mark.parametrize("module, attr, layer", _boundaries())
def test_traced_boundary_resolves(module, attr, layer):
    mod = importlib.import_module("tlscavity." + module)
    assert callable(getattr(mod, attr, None)), \
        "tlscavity.%s.%s (layer %s) is gone" % (module, attr, layer)
