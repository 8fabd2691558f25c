"""Every pinned benchmark output, reproduced in-process at the default seed.

``perfbench/reference/<workload>/`` holds each command's CSVs and standard
output at ``workloads.DEFAULT_SEED``, and the benchmark compares its runs
with them through ``checks.matches_reference``.  This test runs the same
commands through ``cli.main`` and makes the same comparison, so a change
that moves a pinned output fails the test suite too.  It reads
``perfbench/`` and writes nothing there.
"""

import contextlib
import importlib.util
import io
import os
import sys
from unittest import mock

import pytest

from structsim import cli

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
WORKLOADS = ("transient", "branch", "full-age", "queries")


def _load(name: str):
    """The benchmark module ``name``, loaded by path: the benchmark's
    directory never goes on ``sys.path``."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(PERFBENCH, f"{name}.py"))
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    # workloads imports checks by name, and dataclasses read their module
    # from sys.modules: both are there only while they load
    with mock.patch.dict(sys.modules):
        return _load("checks"), _load("workloads")


@pytest.mark.skipif(not os.path.isdir(PERFBENCH), reason="no benchmark beside the tests")
@pytest.mark.parametrize("name", WORKLOADS)
def test_default_seed_outputs_match_the_reference(name, bench, tmp_path, monkeypatch):
    checks, workloads = bench
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    wl = workloads.generate(name, workloads.DEFAULT_SEED)
    reference = os.path.join(PERFBENCH, "reference", name)
    monkeypatch.chdir(tmp_path)
    for path, text in wl.files.items():
        (tmp_path / path).write_text(text)
    failures = []
    try:
        for cmd in wl.commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(cmd.argv) == 0, cmd.name
            (tmp_path / f"{cmd.name}.stdout").write_text(out.getvalue())
            failures += [msg for path in (*cmd.csvs, f"{cmd.name}.stdout")
                         for msg in checks.matches_reference(str(tmp_path / path),
                                                             os.path.join(reference, path))]
    finally:
        (tmp_path / "full.bin").unlink(missing_ok=True)     # full-age's 129 MB snapshot
    assert failures == []
