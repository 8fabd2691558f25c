"""Tests of the benchmark's own arithmetic and checks.

Run with ``python3 -m pytest perfbench/tests``; the repository's test
collection (``testpaths = ["tests"]``) does not include them.
"""

import os
import shutil
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import spans  # noqa: E402

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "reference", "transient", "forward.csv")


def test_self_time_of_a_synthetic_span_tree():
    # 0 [0, 10] -> 1 [1, 3], 2 [4, 9] -> 3 [5, 6], 4 [6, 8];  5 [12, 13] is a second root
    start = [0.0, 1.0, 4.0, 5.0, 6.0, 12.0]
    end = [10.0, 3.0, 9.0, 6.0, 8.0, 13.0]
    parent = [-1, 0, 0, 2, 2, -1]
    own = spans.self_times(start, end, parent)
    np.testing.assert_allclose(own, [10 - 2 - 5, 2, 5 - 1 - 2, 1, 2, 1])
    assert own.sum() == pytest.approx(10 + 1)     # self times partition the root spans


def test_tracer_records_nesting_and_results():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "m.inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "m.outer")
    assert outer(1) == 4
    assert list(tracer.parent) == [-1, 0]
    assert [tracer.names[i] for i in tracer.name] == ["m.outer", "m.inner"]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))


def _copy_with_cell(tmp_path, row, col, value):
    with open(REFERENCE) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path = tmp_path / "forward.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_reference_copy_passes(tmp_path):
    path = tmp_path / "forward.csv"
    shutil.copyfile(REFERENCE, path)
    assert checks.csv_finite_nonnegative(str(path)) == []
    assert checks.matches_reference(str(path), REFERENCE) == []


def test_one_nan_cell_fails_the_checks(tmp_path):
    path = _copy_with_cell(tmp_path, 5, 3, "nan")
    assert checks.csv_finite_nonnegative(path)
    assert checks.matches_reference(path, REFERENCE)


def test_negative_cell_fails(tmp_path):
    assert checks.csv_finite_nonnegative(_copy_with_cell(tmp_path, 5, 3, "-1.0"))


def test_reference_tolerance_separates_rounding_from_wrong_results(tmp_path):
    with open(REFERENCE) as fh:
        value = float(fh.read().splitlines()[5].split(",")[3])
    rounded = _copy_with_cell(tmp_path, 5, 3, repr(value * (1 + 1e-12)))
    assert checks.matches_reference(rounded, REFERENCE) == []
    wrong = _copy_with_cell(tmp_path, 5, 3, repr(value * (1 + 1e-4)))
    assert checks.matches_reference(wrong, REFERENCE)


def test_seed_fixes_the_generated_inputs():
    import workloads
    for name in workloads.WORKLOADS:
        a, b = workloads.generate(name, 3), workloads.generate(name, 3)
        assert [c.argv for c in a.commands] == [c.argv for c in b.commands]
        assert a.files == b.files
    other = workloads.generate("branch", 4)
    assert [c.argv for c in other.commands] != [c.argv for c in workloads.generate("branch", 3).commands]


def test_full_age_refuses_to_start_when_memory_is_short(monkeypatch, tmp_path):
    import run
    import workloads
    monkeypatch.setattr(run, "mem_available_mb", lambda: 2 * workloads.FULL_AGE_PEAK_MB - 1.0)
    with pytest.raises(run.Refused):
        run.run_workload(workloads.generate("full-age", 1), str(tmp_path / "w"), False, {}, None, 0)


def test_benchmark_json_lists_the_workloads_and_layer_metrics():
    import json

    import layers
    import workloads
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in layers.PER_LAYER]
