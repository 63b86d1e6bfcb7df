"""Tests of the benchmark itself (not of superchar).

    python3 -m pytest -q perfbench/test_perfbench.py

They run tiny jobs of every kind the workloads use, so they take seconds.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
from worker import Job

worker.import_superchar()

PATTERN_TABLE = Job("table", "heisenberg3", 2, "json")
PATTERN_TABLE_CSV = Job("table", "full_u3", 4, "csv")
ALGEBRA_TABLE = Job("table", "semidirect4", 2, "csv")
PATTERN_CHECK = Job("check", "full_u4", 2)
ALGEBRA_CHECK = Job("check", "sixteen", 2)
TINY = [PATTERN_TABLE, PATTERN_TABLE_CSV, ALGEBRA_TABLE, PATTERN_CHECK, ALGEBRA_CHECK]

# The per-layer metrics each kind of job must move (be nonzero on).
LAYERS_OF = {
    (PATTERN_TABLE.kind, False): {
        "core.orbit_partition_s", "core.coorbit_partition_s", "formula.evaluator_setup_s",
        "formula.value_s", "formula.value_block_s", "formula.irreducible_s",
        "table.render_s", "table.bytes", "core.elements", "core.classes",
        "formula.cells", "poset.parse_s",
    },
    (ALGEBRA_TABLE.kind, True): {
        "algebra.partition_s", "algebra.corank_s", "algebra.value_s",
        "algebra.irreducible_s", "table.render_s", "table.bytes", "algebra.parse_s",
    },
    (PATTERN_CHECK.kind, False): {
        "core.orbit_partition_s", "core.coorbit_partition_s", "formula.evaluator_setup_s",
        "formula.value_block_s", "oracle.partition_s", "oracle.value_row_s",
        "oracle.axioms_s", "formula.cells", "formula.zero_cells", "poset.parse_s",
    },
    (ALGEBRA_CHECK.kind, True): {
        "algebra.partition_s", "algebra.corank_s", "algebra.value_s",
        "oracle.partition_s", "oracle.value_row_s", "oracle.axioms_s", "algebra.parse_s",
    },
}


def expectations(jobs, tmp_path) -> dict:
    """Expected outputs of tiny jobs, taken from one untraced run of each."""
    from superchar import cli
    from superchar.oracle import full_check

    ctx = worker.setup(jobs, tmp_path / "expect", {})
    out = {"tables": {}, "checks": {}}
    for job in jobs:
        if job.kind == "table":
            path = ctx.out_path(job)
            assert cli.main(["table", str(ctx.spec_path(job)), "--format", job.fmt, "--out", str(path)]) == 0
            data = path.read_bytes()
            out["tables"][job.name] = {
                "sha256": hashlib.sha256(data).hexdigest(),
                "classes": 1,
                "characters": 1,
            }
        else:
            report = full_check(worker.load_group(ctx.spec_path(job)))
            out["checks"][job.name] = {"classes": report.classes, "characters": report.characters}
    return out


def test_every_workload_job_has_a_recorded_expectation():
    expected = worker.load_expected()
    for jobs in worker.WORKLOADS.values():
        for job in jobs:
            assert job.name in expected[job.section], job.name


def test_corrupted_digest_fails_the_job_without_crashing(tmp_path):
    expected = expectations([PATTERN_TABLE], tmp_path)
    ctx = worker.setup([PATTERN_TABLE], tmp_path / "run", expected)
    errors = []
    assert worker.run_pass(ctx, [PATTERN_TABLE], errors)["failed"] == 0
    expected["tables"][PATTERN_TABLE.name]["sha256"] = "0" * 64
    result = worker.run_pass(ctx, [PATTERN_TABLE], errors)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "sha256" in errors[0]["error"]
    traced = worker.run_pass(ctx, [PATTERN_TABLE], errors, worker.Tracer("t"))
    assert (traced["attempted"], traced["failed"]) == (1, 1)


def test_wrong_check_shape_fails_the_job(tmp_path):
    expected = expectations([ALGEBRA_CHECK], tmp_path)
    expected["checks"][ALGEBRA_CHECK.name]["classes"] += 1
    ctx = worker.setup([ALGEBRA_CHECK], tmp_path / "run", expected)
    errors = []
    assert worker.run_pass(ctx, [ALGEBRA_CHECK], errors)["failed"] == 1
    assert "(classes, characters)" in errors[0]["error"]


def test_memory_error_is_a_failed_job(tmp_path, monkeypatch):
    def exhausted(ctx, job):
        raise MemoryError

    ctx = worker.setup([PATTERN_CHECK], tmp_path / "run", {})
    monkeypatch.setitem(worker.RUNNERS, "check", exhausted)
    errors = []
    assert worker.run_pass(ctx, [PATTERN_CHECK], errors)["failed"] == 1
    assert errors[0]["error"].startswith("MemoryError")


def test_fail_rate_counts_failures_against_attempts(tmp_path):
    jobs = [PATTERN_TABLE, PATTERN_CHECK]
    expected = expectations(jobs, tmp_path)
    expected["tables"][PATTERN_TABLE.name]["sha256"] = "f" * 64
    result = worker.run_workload(jobs, seed=3, seconds=0, trace=False, work=tmp_path / "w", expected=expected)
    passes = len(result["passes"])
    assert (result["attempted"], result["failed"]) == (2 * passes, passes)
    result["peak_rss_mb"] = 1.0
    metrics, fail_rate = run.summarize(result, [{"setup_s": 0.5}])
    assert fail_rate == 0.5
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert metrics["norm_cells_per_s"]["value"] > 0


def test_traced_run_emits_every_layer_metric(tmp_path):
    expected = expectations(TINY, tmp_path)
    for job in TINY:
        result = worker.run_workload(
            [job], seed=1, seconds=0, trace=True, work=tmp_path / "w", expected=expected
        )
        assert result["failed"] == 0, result["errors"]
        layers = result["layers"]
        assert set(layers) == set(worker.LAYER_METRICS)
        moved = {k for k, v in layers.items() if v}
        missing = LAYERS_OF[(job.kind, job.is_algebra)] - moved
        assert not missing, (job.name, missing)
        spans = result["spans"]
        assert all({"name", "start", "end", "parent", "run"} <= set(s) for s in spans)
        metrics, _ = run.summarize(result, [])
        assert set(metrics) == set(worker.LAYER_METRICS)


def test_every_workload_moves_its_layers():
    """Each real workload holds a job of every kind whose layers the
    benchmark claims for it."""
    kinds = {name: {(j.kind, j.is_algebra) for j in jobs} for name, jobs in worker.WORKLOADS.items()}
    assert kinds["table-prime"] == {("table", False)}
    assert kinds["table-ext"] == {("table", False), ("table", True)}
    assert kinds["check"] == {("check", False), ("check", True)}
    assert {j.fmt for j in worker.WORKLOADS["table-prime"]} == {"json"}
    assert {j.fmt for j in worker.WORKLOADS["table-ext"]} == {"csv"}


def test_zero_cell_counts_repeat_exactly(tmp_path):
    expected = expectations([PATTERN_TABLE, PATTERN_CHECK], tmp_path)
    counts = set()
    for seed in (1, 2):
        result = worker.run_workload(
            [PATTERN_TABLE, PATTERN_CHECK], seed, 0, True, tmp_path / "w", expected
        )
        counts.add((result["layers"]["formula.cells"], result["layers"]["formula.zero_cells"]))
    assert len(counts) == 1


def test_run_fails_without_the_library_sources(tmp_path):
    root = Path(__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(root / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
