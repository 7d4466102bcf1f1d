"""Tests of the benchmark itself, mostly on tiny inputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# Per-layer counts each workload must produce on every pass; a tracer
# counter that breaks would leave them at 0.
NONZERO_COUNTS = {
    "figure-report": ("observables.write_csv.rows", "observables.write_csv.bytes",
                      "observables.sector_energy_series.points", "manifest.hashed_bytes"),
    "rk4-oracle": ("dynamics.rk4_steps", "dynamics.propagate_analytic.points",
                   "algebra.calls"),
    "wigner-spectrum": ("wigner.quad_points", "wigner.stargen_residual.calls",
                        "manifest.hashed_bytes"),
    "simulate-both": ("dynamics.write_csv.rows", "dynamics.write_csv.bytes",
                      "dynamics.rk4_steps", "manifest.hashed_bytes"),
}

OPS_PER_PASS = {"figure-report": 3, "rk4-oracle": harness.Rk4Oracle.cases_per_pass,
                "wigner-spectrum": 1, "simulate-both": 1}


def _record(name, trace, tmp_path):
    workload = harness.WORKLOADS[name](tiny=True)
    inputs = workload.inputs(np.random.default_rng(7), 4)
    raw = worker.measure(workload, inputs, 0.0, trace, tmp_path / "out", lambda: 0.2)
    raw.update(import_s=0.0, setup_s=0.1, numpy=np.__version__)
    return run.build_record(name, 7, 0.0, trace, raw)


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_workload_emits_every_metric_with_its_unit(name, trace, tmp_path):
    record = _record(name, trace, tmp_path)
    emitted = run.metrics(record)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(emitted) == {m["name"] for m in declared}
    for m in declared:
        assert emitted[m["name"]]["unit"] == m["unit"]
        assert np.isfinite(emitted[m["name"]]["value"])
    assert record["correct"] and not record["mismatches"]
    # Four inputs, each counted once, however many passes ran.
    assert record["attempted"] == 4 * OPS_PER_PASS[name]
    reasons = [r for f in record["failures"] for r in f["reasons"]]
    assert not [r for r in reasons if r.startswith("raised")]
    if trace:
        for key in NONZERO_COUNTS[name]:
            assert record["per_layer"][key] > 0, key


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert set(harness.WORKLOADS) == set(run.WORKLOADS)


class _Inadmissible(harness.Workload):
    """theta*eta >= hbar**2 exits 3; a patched command raises."""

    def draw(self, rng):
        return None

    def run_pass(self, inp, outdir):
        return [
            harness.run_cli(
                "constants", ["constants", "--theta=1", "--eta=1"], outdir / "c"
            ),
            harness.run_cli("raises", ["constants", "--ratio=nope"], outdir / "r"),
        ]

    def validate(self, ops):
        for op in ops:
            harness.validate_cli(op, "constants_manifest.json", {})


def test_failing_ops_are_counted_not_fatal(tmp_path, monkeypatch):
    real_main = harness.nclab.cli.main

    def main(argv):
        if "--ratio=nope" in argv:
            raise RuntimeError("boom")
        return real_main(argv)

    monkeypatch.setattr(harness.nclab.cli, "main", main)
    raw = worker.measure(_Inadmissible(), [None], 0.0, False, tmp_path / "out", lambda: 0.2)
    raw.update(import_s=0.0, setup_s=0.1, numpy=np.__version__)
    record = run.build_record("x", 0, 0.0, 0, raw)
    # Two passes of the one input; only the first counts its operations.
    assert record["passes"] == 2
    assert record["error_rate"] == {"value": 1.0, "failed": 2, "attempted": 2}
    reasons = [f["reasons"][0] for f in record["failures"]]
    assert reasons[0].startswith("exit 3") and "MapNotInvertible" in reasons[0]
    assert reasons[1] == "raised RuntimeError: boom"
    # The program reported both failures itself, so nothing failed silently.
    assert record["correct"]


class _Flaky(harness.Workload):
    """One op whose exit code changes from one pass to the next."""

    passes = 0

    def draw(self, rng):
        return None

    def run_pass(self, inp, outdir):
        self.passes += 1
        return [harness.Op("flaky", rc=self.passes % 2)]

    def validate(self, ops):
        pass


def test_a_repeat_that_differs_is_not_correct(tmp_path):
    raw = worker.measure(_Flaky(), [None], 0.0, False, tmp_path / "out", lambda: 0.2)
    raw.update(import_s=0.0, setup_s=0.1, numpy=np.__version__)
    record = run.build_record("x", 0, 0.0, 0, raw)
    assert record["attempted"] == 1 and record["mismatches"] == [{"pass": "1", "input": 0}]
    assert not record["correct"]


def test_exit_zero_with_a_failing_check_is_silent(tmp_path):
    op = harness.run_cli("constants", ["constants"], tmp_path)
    path = tmp_path / "constants_manifest.json"
    manifest = json.loads(path.read_text())
    manifest["checks"][0]["passed"] = False
    path.write_text(json.dumps(manifest))
    harness.validate_cli(op, "constants_manifest.json", {})
    assert op.rc == 0 and op.reasons and op.silent


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(40))) == (29, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_command_prints_the_result_line():
    # Full size, two passes (warm-up and one timed), plus the set-up children.
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "rk4-oracle",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    record = json.loads((run.OUT / "result-rk4-oracle-seed3-trace0.json").read_text())
    assert len(record["setup_samples"]) == 1 + worker.SETUP_CHILDREN


def test_without_sources_it_fails_without_a_result(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rk4-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
