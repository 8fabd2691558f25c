"""The names the benchmark's tracer and observers read from structsim.

``perfbench/spans.py`` wraps functions by module attribute and records
values from their arguments and results; a renamed function or field would
silently drop a layer metric from the traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

import pytest

import structsim as ss
from structsim import solver
from structsim.kernels import spectral_kernels
from structsim.r0 import power_iteration_r0
from structsim.solver import save_snapshot

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _resolve(layer: str, attr: str):
    return getattr(importlib.import_module(f"structsim.{layer}"), attr, None)


def test_traced_private_names_exist():
    assert callable(solver._step_inplace)
    assert callable(solver._kernel)


def test_observed_arguments_and_results():
    assert list(inspect.signature(save_snapshot).parameters)[2] == "path"
    params, grid = ss.preset("forward", 7e6), ss.preset_grid("forward", 0.05)
    assert isinstance(power_iteration_r0(params, grid).iterations, int)
    assert len(spectral_kernels(params, grid).ages_h) == grid.n_ah
    assert spectral_kernels.cache_info().hits >= 0


@pytest.mark.skipif(not os.path.exists(SPANS), reason="no benchmark tracer beside the tests")
def test_every_name_the_tracer_lists_resolves():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name in sorted(set(spans.EXTRA) | set(spans.OBSERVERS) | set(spans.CACHES)):
        assert callable(_resolve(*name.split(".", 1))), name
    for layer, attr in spans.CACHES.values():
        _resolve(layer, attr).cache_info()


@pytest.mark.skipif(not os.path.exists(SPANS), reason="no benchmark tracer beside the tests")
def test_importing_the_cli_loads_every_traced_layer():
    # the tracer reads sys.modules["structsim.<layer>"] for every layer right
    # after importing structsim.cli, so no layer may be loaded lazily
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(ss.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    script = ("import sys, structsim.cli\n"
              f"print(*sorted(set({spans.LAYERS!r}) - "
              "{m.split('.', 1)[1] for m in sys.modules if m.startswith('structsim.')}))")
    missing = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
    assert spans.LAYERS and missing == []
