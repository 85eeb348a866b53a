"""Self-test of the end-to-end benchmark on a tiny configuration.

Not part of the tier-1 suite (``testpaths = tests``); run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

Every workload runs one pass at :data:`run.TINY_SIZES` (scale 0.1, 50 k
accesses, 50 nodes), untraced and traced, in about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

__all__: list[str] = []

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def untraced():
    return {name: run.run_workload(name, 0, 0, False, sizes=run.TINY_SIZES)
            for name in run.WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {name: run.run_workload(name, 0, 0, True, sizes=run.TINY_SIZES)
            for name in run.WORKLOADS}


def _units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_benchmark_json_matches_the_harness():
    assert DECLARED["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_end_to_end_metric_is_emitted(untraced, name):
    result = untraced[name]
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert _units(result) == {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_per_layer_metric_is_emitted(traced, name):
    result = traced[name]
    assert result["correct"], result["problems"]
    assert _units(result) == {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert result["metrics"]["setup.import_s"]["value"] > 0


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_self_times_fit_in_the_traced_wall_time(traced, name):
    passes = [r for _temp, r in traced[name]["runs"] if "main_self_s" in r]
    assert passes
    for r in passes:
        assert 0 < r["main_self_s"] <= r["wall_s"]


def test_layer_counts_match_the_workload(traced):
    replay = traced["replay-engines"]["metrics"]
    assert replay["swap.engine.batch.calls"]["value"] == 3  # uniform, zipf, tenants
    assert replay["swap.engine.hybrid.calls"]["value"] == 1
    assert replay["mem.lru.replay.accesses"]["value"] >= 4 * run.TINY_SIZES.accesses
    fleet = traced["fleet-sweep"]["metrics"]
    jobs = traced["fleet-sweep"]["attempted"] // 2  # untraced reference + one traced pass
    assert fleet["cluster.simulate_node.calls"]["value"] == jobs
    warm = traced["paper-warm"]["metrics"]
    assert warm["cache.misses"]["value"] == 0 and warm["cache.hits"]["value"] > 0


def _corrupt(section, name: str):
    """Perturb one counter (or digest) of a golden section in place."""
    if name == "fleet-sweep":
        section["rows"][0][4] += 1  # faults of the first node job
    elif name == "replay-engines":
        section["uniform"]["faults"] += 1
    else:
        section["fig05"] = "0" * 16


@pytest.mark.parametrize("name", ["paper-cold", "replay-engines", "fleet-sweep"])
def test_a_corrupted_golden_fails_ops(untraced, tmp_path, name):
    run.write_golden(0, run.TINY_SIZES, {name: untraced[name]}, golden_dir=tmp_path)
    golden = run.load_golden(0, run.TINY_SIZES, golden_dir=tmp_path)
    clean = run.run_workload(name, 0, 0, False, sizes=run.TINY_SIZES, golden=golden)
    assert clean["correct"] and clean["fail_ratio"] == 0
    _corrupt(golden[name], name)
    broken = run.run_workload(name, 0, 0, False, sizes=run.TINY_SIZES, golden=golden)
    assert not broken["correct"]
    assert broken["fail_ratio"] > 0


def test_without_the_package_the_command_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "replay-engines",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
