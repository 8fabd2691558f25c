"""Outside-in tracing of the structsim layers.

``Tracer.install`` wraps the public functions of every layer module (plus the
transport step, which is private but is the unit of work of the solver) and
rebinds each module's copy of the name, since the package imports functions
by name.  A call records a span: name, start, end and the span it ran
inside.  Spans stay in memory until the command ends; ``dump`` writes them.

Spans come from one thread (the benchmark never passes ``--threads``), so
the children of a span are disjoint and its self time is its duration minus
the sum of its children's durations.

``rates.eval_rate`` runs inside every layer and is called too often to wrap
cheaply; it has no span and its time counts in its callers.  The per-step
population helpers are left unwrapped for the same reason.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

LAYERS = ("cli", "config", "params", "grids", "kernels", "solver", "r0",
          "characteristics", "bifurcation", "plots", "manifest")
EXTRA = {"solver._step_inplace"}
METHODS = {"manifest.RunManifest": ("add_output", "write")}
SKIP = {"solver.n_human", "solver.n_mosquito", "grids.integrate_1d",
        "grids.integrate_triangular", "grids.cumulative_to_centers", "grids.decay_factors",
        "bifurcation.k_bar", "bifurcation.dk_f"}


def _state_bytes(args, kwargs, state):
    return sum(getattr(state, f).nbytes for f in ("i_h", "r_h", "s_m", "i_m")) \
        + getattr(state.s_h, "nbytes", 8)


def _path_bytes(index):
    def observe(args, kwargs, result):
        path = args[index] if len(args) > index else kwargs["path"]
        return os.path.getsize(path)
    return observe


# values recorded from a call's arguments or result: span name -> (key, fn)
OBSERVERS = {
    "solver.default_initial": ("solver.state_bytes", _state_bytes),
    "solver.save_snapshot": ("solver.snapshot_bytes", _path_bytes(2)),
    "manifest.sha256_file": ("manifest.bytes_hashed", _path_bytes(0)),
    "plots.render_svg": ("plots.svg_bytes", lambda a, k, r: len(r)),
    "bifurcation.solve_endemic": ("bifurcation.root_hit", lambda a, k, r: int(len(r) > 0)),
    "r0.power_iteration_r0": ("r0.power_iterations", lambda a, k, r: r.iterations),
    "kernels.spectral_kernels": ("kernels.spectral_axis_cells", lambda a, k, r: len(r.ages_h)),
}
CACHES = {"kernels.spectral_kernels": ("kernels", "spectral_kernels")}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.values: dict[str, list] = {}
        self._caches = {}

    def wrap(self, fn, name: str):
        ix = len(self.names)
        self.names.append(name)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self.stack
        clock = time.perf_counter
        observer = OBSERVERS.get(name)
        if observer:
            sink = self.values.setdefault(observer[0], [])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(ix)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observer:
                sink.append(observer[1](args, kwargs, result))
            return result
        return wrapper

    def install(self) -> "Tracer":
        """Wrap every traced callable and rebind all copies across the package."""
        modules = {layer: sys.modules[f"structsim.{layer}"] for layer in LAYERS}
        replace = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                public = not attr.startswith("_") and name not in SKIP
                if (public or name in EXTRA) and callable(obj) and not inspect.isclass(obj) \
                        and getattr(obj, "__module__", None) == mod.__name__:
                    replace[id(obj)] = (obj, self.wrap(obj, name))
        for cls_path, methods in METHODS.items():
            layer, cls_name = cls_path.split(".")
            cls = getattr(modules[layer], cls_name)
            for m in methods:
                setattr(cls, m, self.wrap(getattr(cls, m), f"{cls_path}.{m}"))
        for name, (layer, attr) in CACHES.items():
            self._caches[name] = getattr(modules[layer], attr)   # the lru_cache object
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "structsim"]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    setattr(mod, attr, replace[id(obj)][1])
        return self

    def dump(self, path: str) -> dict:
        """Write the spans to ``path`` (.npz); return the recorded values."""
        import numpy as np
        np.savez(path, names=np.array(self.names), name=np.array(self.name, np.uint16),
                 start=np.array(self.start, float), end=np.array(self.end, float),
                 parent=np.array(self.parent, np.int32))
        caches = {n: f.cache_info()._asdict() for n, f in self._caches.items()}
        return {"values": self.values, "caches": caches}


def self_times(start, end, parent):
    """Duration of each span minus the summed durations of its direct
    children (children are disjoint: spans come from one thread)."""
    import numpy as np
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    inner = parent >= 0
    covered = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
    return dur - covered
