"""Tests of the benchmark itself (not part of the library's tier-1 suite).

    python3 -m pytest perfbench -q

Short runs of every workload, traced and untraced, that check the metric
names and units against BENCHMARK.json and that every verdict is right;
injected wrong expectations that the correctness gate must catch; and
the refusal to run without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)
NAMES = [w["name"] for w in BENCH["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
SHORT = dict(setup_reps=1, min_ops=3)

# per-layer metrics that must be positive, for the workloads that call the layer
CALLED = {
    "word-decide": ("amalgam.britton.calls", "amalgam.syllables_in",
                    "rotation.detect.calls", "core.compose.calls", "core.self_s"),
    "tuple-member": ("stein.tuple_map.calls", "stein.is_member.calls",
                     "stein.grid_points", "stein.useful_ratio", "maps.views.calls"),
    "rotation-certify": ("rotation.rotation_number.calls", "rotation.iterates",
                         "core.displacement.calls", "core.int_bits_max"),
    "cli-roundtrip": ("serialize.parse.calls", "serialize.format.calls",
                      "serialize.bytes_in", "serialize.bytes_out", "cli.handler_s",
                      "cli.import_s", "cli.spawn_s", "amalgam.context_init.calls"),
}


def units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert set(CALLED) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name):
    report, result = run.run(name, 3, 0.2, 0, **SHORT)
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] == report["samples"] >= SHORT["min_ops"]
    assert units(result) == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["failed_ops_ratio"] == 0.0
    assert report["seed"] == 3 and report["backend"] in ("pure", "compiled")
    assert report["nproc"] >= 1 and report["python"] and report["manifest"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_per_layer_metric(name):
    report, result = run.run(name, 3, 0.2, 1)
    assert result["correct"], report["failures"]
    assert units(result) == PER_LAYER
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for metric in CALLED[name]:
        assert values[metric] > 0, metric
    assert values["bench.self_s"] >= 0
    assert values["trace.overhead_ratio"] > 0


def test_same_seed_same_inputs():
    for cls in (workloads.TupleMember, workloads.RotationCertify):
        assert cls().setup(7) == cls().setup(7)
    assert workloads.TupleMember().setup(7) != workloads.TupleMember().setup(8)


def _flip_word(workload, pool):
    word, trivial = pool[0]
    pool[0] = (word, not trivial)


def _shift_rotation(workload, pool):
    for i, (f, value) in enumerate(pool):
        if value is not None and value.denominator > 2:
            pool[i] = (f, 1 - value)
            pool[0], pool[i] = pool[i], pool[0]
            return


def _corrupt_cli(workload, pool):
    argv, out, code = pool[0]
    pool[0] = (argv, out + b" ", code)


@pytest.mark.parametrize("name, mutate", [
    ("word-decide", _flip_word),
    ("rotation-certify", _shift_rotation),
    ("cli-roundtrip", _corrupt_cli),
])
def test_wrong_expectation_is_a_failed_operation(name, mutate):
    report, result = run.run(name, 3, 0.2, 0, mutate=mutate, **SHORT)
    assert report["failed_ops_ratio"] > 0
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ok_ops_ratio"]["value"] < 1


def test_wrappers_reach_names_bound_by_from_imports():
    import plmonster.cli
    import plmonster.maps
    import plmonster.verify

    original = plmonster.maps.compose
    tracer = spans.Tracer()
    tracer.install(spans.library_specs())
    try:
        for module in (plmonster.maps, plmonster.verify, plmonster.cli, plmonster):
            assert module.compose is not original
            assert module.compose.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert plmonster.verify.compose is original and plmonster.cli.compose is original


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert done.stdout == ""
