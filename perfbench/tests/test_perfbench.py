"""Tests of the benchmark itself, on a short 3-AP UDP drive.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostref  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402

SHORT = {
    "kind": "road",
    "kwargs": {"mode": "wgtt", "speed_mph": 35.0, "traffic": "udp",
               "udp_rate_mbps": 10.0, "n_aps": 3},
    "drives": 1,
}
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def declared():
    return bench.load_declared()


def _short_drive():
    from repro.experiments import runners
    from repro.experiments.digest import drive_digests
    from repro.mobility.trajectory import RoadLayout

    runners._next_flow_id[0] = 1
    result = runners.run_single_drive(
        mode="wgtt", speed_mph=35.0, traffic="udp", udp_rate_mbps=10.0,
        seed=3, road=RoadLayout.uniform(3))
    return drive_digests(result)


def test_tracer_leaves_digests_unchanged():
    plain = _short_drive()
    tracer = layers.Tracer()
    uninstall = layers.install(tracer)
    try:
        traced = _short_drive()
    finally:
        uninstall()
    assert traced == plain
    assert len(tracer.span_name) > 1000
    assert _short_drive() == plain  # uninstall restored every original


def test_traced_run_accounts_for_the_phase(declared):
    ops = bench.Operations(bench.time.monotonic() + 120)
    metrics = bench.trace(SHORT, 3, "test-short", ops)
    assert ops.failed == 0, ops.problems
    assert ops.attempted == 3
    assert 0.97 < metrics["layers.self_sum_ratio"] < 1.03
    with open(os.path.join(bench.OUT_DIR, "test-short-seed3.json")) as fh:
        summary = json.load(fh)
    self_sum = sum(layer["self_s"] for layer in summary["layers"].values())
    assert self_sum == pytest.approx(summary["phase_s"], rel=0.03)
    import numpy as np

    spans = np.load(os.path.join(bench.OUT_DIR, "test-short-seed3.npz"))
    assert len(spans["name"]) == summary["spans"] == metrics["tracer.spans"]
    assert (spans["root"] <= np.arange(len(spans["root"]))).all()
    assert metrics["invariants.violations"] == 0
    assert metrics["invariants.checks"] > 0
    assert metrics["trace_overhead"] > 1.0
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}


def test_untraced_run_reports_every_end_to_end_metric(declared, capsys):
    line = bench.run(SHORT, "short", 3, 0.0, False, declared)
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    for name, entry in line["metrics"].items():
        assert NAME.match(name)
        assert entry["value"] > 0, name
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == line


def test_measure_computes_exactly_the_declared_metrics(declared):
    ops = bench.Operations(bench.time.monotonic() + 120)
    metrics = bench.measure(SHORT, 3, 0.0, ops)
    names = {m["name"] for m in declared["end_to_end"]}
    assert set(metrics) == names
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.match(entry["name"]), entry["name"]


def test_reference_slices_leave_outputs_unchanged():
    """Stopping a drive for reference slices changes none of its outputs,
    and the stopped time comes off its wall clock."""
    spec = bench.op_specs(SHORT, 3)[0]
    plain, error = bench.Operations(bench.time.monotonic() + 120).spawn(
        spec, "plain")
    assert plain is not None, error
    assert plain["wall_scale"] == plain["cpu_scale"] == 1.0
    ops = bench.Operations(bench.time.monotonic() + 120, hostref.Reference())
    sliced, error = ops.spawn(spec, "plain")
    assert sliced is not None, error
    for key in ("digest", "events", "deliveries", "goodput_mbps"):
        assert sliced[key] == plain[key], key
    assert 0.0 < sliced["wall_s"] < sliced["run_s"]
    assert 0.0 < sliced["setup_s"]
    assert 0.1 < sliced["wall_scale"] < 10.0
    assert 0.1 < sliced["cpu_scale"] < 10.0


def test_stopped_time_and_host_speed():
    slices = [(1.0, 1.5, 0.04, 0.02), (2.0, 2.5, 0.04, 0.02)]
    assert hostref.stopped_s(slices, 1.25, 2.25) == pytest.approx(0.5)
    assert hostref.stopped_s(slices, 0.0, 1.0) == 0.0
    assert hostref.stopped_s(slices, 0.0, 3.0) == pytest.approx(1.0)
    wall, cpu = hostref.host_speed(slices, None)
    assert wall == pytest.approx(hostref.NOMINAL_SLICE_S / 0.04)
    assert cpu == pytest.approx(hostref.NOMINAL_SLICE_S / 0.02)


def test_failing_operation_shows_in_failed_ratio(declared, capsys):
    broken = dict(SHORT, kwargs=dict(SHORT["kwargs"], traffic="bogus"))
    line = bench.run(broken, "broken", 3, 0.0, False, declared)
    assert not line["correct"]
    assert line["failed"] == line["attempted"] == 1
    out = capsys.readouterr().out
    assert re.search(r"failed_ratio\s+1\s", out)


def test_golden_mismatch_counts_as_failed(declared):
    wrong = dict(SHORT, golden={3: "default_tcp"})
    line = bench.run(wrong, "wrong", 3, 0.0, False, declared)
    assert not line["correct"]
    assert line["failed"] == 1


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "road-tcp",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
