"""Run manifests: enough metadata to verify a rerun bit-for-bit.

The manifest digest covers the command line, the fully resolved parameters
and grid, and the tool version; output files are recorded with their
SHA-256 digests.  Identical manifests imply byte-identical CSV outputs
(all computations are deterministic).  The run's wall time and peak
resident memory are recorded beside the digest, outside what it covers.
``hashlib`` loads OpenSSL's libcrypto (~3 MB resident), so it is imported
where a digest is made, not by the commands that hash nothing.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import time

from . import __version__
from .grids import Grid
from .params import ModelParams
from .rates import RateSpec


def _jsonable(obj):
    if isinstance(obj, RateSpec):
        out = {"kind": obj.kind.value, "arity": obj.arity.value, "params": list(obj.params)}
        if obj.table_x:
            out["table_x"] = list(obj.table_x)
            out["table_y"] = list(obj.table_y)
        return out
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def sha256_file(path: str) -> str:
    import hashlib
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RunManifest:
    def __init__(self, command: list[str], preset: str | None,
                 params: ModelParams, grid: Grid):
        self.command = list(command)
        self.preset = preset
        self.params = params
        self.grid = grid
        self.outputs: dict[str, str] = {}
        self._t0 = time.monotonic()

    def add_output(self, path: str, digest: str | None = None) -> None:
        """Record ``path`` with its SHA-256 digest: ``digest`` when its
        writer took it while writing, otherwise read from the file."""
        self.outputs[path] = sha256_file(path) if digest is None else digest

    def to_dict(self) -> dict:
        import hashlib
        inputs = {
            "command": self.command,
            "preset": self.preset,
            "params": _jsonable(self.params),
            "grid": _jsonable(self.grid),
            "version": __version__,
        }
        digest = hashlib.sha256(
            json.dumps(inputs, sort_keys=True).encode()).hexdigest()
        return {**inputs, "input_digest": digest,
                "wall_time_s": round(time.monotonic() - self._t0, 3),
                "peak_rss_mb": round(   # ru_maxrss is in KiB on Linux
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                "outputs": self.outputs}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
