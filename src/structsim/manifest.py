"""Run manifests: enough metadata to verify a rerun bit-for-bit.

The manifest digest covers the command line, the fully resolved parameters
and grid, and the tool version; output files are recorded with their
SHA-256 digests.  Identical manifests imply byte-identical CSV outputs
(all computations are deterministic).  The run's wall time and peak
resident memory are recorded beside the digest, outside what it covers.

Every digest, the snapshot's included, comes from :func:`sha256`, which
picks the implementation by the byte count it is told.  ``hashlib`` loads
OpenSSL's libcrypto, ~3.5 MB resident and ~4 ms; since peak resident
memory is a high-water mark, that load sets the peak of a command whose
own tables are smaller, wherever in the run it happens.  CPython's
built-in SHA-256 loads no library but hashes ~7 times slower (on x86-64
under CPython 3.11, 0.67 s against 0.09 s for 128 MB), so its extra time
reaches the ~4 ms of the load at about 1 MiB: below that the built-in
hashes, from there on OpenSSL does.
"""

from __future__ import annotations

import dataclasses
import json
import os
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


# the byte count from which OpenSSL's speed repays the load of its library
BUILTIN_SHA256_MAX_BYTES = 1 << 20


def sha256(nbytes: int):
    """A new SHA-256 object for ``nbytes`` bytes of data: CPython's built-in
    one below ``BUILTIN_SHA256_MAX_BYTES`` (``_sha2`` from 3.12 on,
    ``_sha256`` before), else, or when the interpreter has neither,
    ``hashlib``'s.  Both give the same digest."""
    if nbytes < BUILTIN_SHA256_MAX_BYTES:
        for name in ("_sha2", "_sha256"):
            try:
                return __import__(name).sha256()
            except ImportError:
                pass
    import hashlib
    return hashlib.sha256()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        h = sha256(os.fstat(fh.fileno()).st_size)
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
        inputs = {
            "command": self.command,
            "preset": self.preset,
            "params": _jsonable(self.params),
            "grid": _jsonable(self.grid),
            "version": __version__,
        }
        text = json.dumps(inputs, sort_keys=True).encode()
        digest = sha256(len(text))
        digest.update(text)
        return {**inputs, "input_digest": digest.hexdigest(),
                "wall_time_s": round(time.monotonic() - self._t0, 3),
                "peak_rss_mb": round(   # ru_maxrss is in KiB on Linux
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                "outputs": self.outputs}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
