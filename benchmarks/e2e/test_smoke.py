"""Smoke test of the e2e benchmark (``python -m pytest benchmarks/e2e -q``).

Outside the Tier-1 ``testpaths``.  Runs every workload in the ``--quick``
profile (about eight rounds) and checks the instrument, not the numbers:
every named metric is there with its unit, nothing fails, traced passes
repeat exactly, and a failing round is counted.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Verdict  # noqa: E402

SEED = 2000


@pytest.fixture(scope="module")
def spec():
    with open(run.SPEC_FILE) as handle:
        return json.load(handle)


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def passes(request):
    """One untraced and two traced quick passes of one workload."""
    workload = request.param
    return (run.run_child(workload, SEED, 0, True, run.QUICK_SECONDS),
            run.run_child(workload, SEED, 1, True, run.QUICK_SECONDS),
            run.run_child(workload, SEED, 1, True, run.QUICK_SECONDS))


def test_kernel_work_is_pinned():
    assert calibrate.kernel() == calibrate.KERNEL_CHECKSUM
    with open(run.BASELINE_FILE) as handle:
        assert json.load(handle)["kernel_sha256"] == calibrate.KERNEL_SHA256


def test_benchmark_json_matches_the_code(spec):
    assert spec == run.benchmark_spec()
    assert len(spec["per_layer"]) <= 128
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [row["name"] for row in metrics + spec["workloads"]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", row["unit"])
               for row in metrics)
    assert all(len(row["why"]) <= 200 and "\n" not in row["why"]
               for row in spec["workloads"])
    assert all(0 < row["bound"] <= 0.25 for row in spec["end_to_end"])


def test_end_to_end_metrics_present_and_nothing_fails(passes, spec):
    untraced = passes[0]
    assert {name: entry["unit"]
            for name, entry in untraced["metrics"].items()} == \
        {row["name"]: row["unit"] for row in spec["end_to_end"]}
    assert all(entry["value"] > 0 for entry in untraced["metrics"].values())
    # A round whose digest differs from round 0's counts as failed.
    assert untraced["failed"] == 0 and untraced["correct"]
    assert untraced["fail_ratio"] == 0
    assert untraced["attempted"] >= run.MIN_ROUNDS
    assert untraced["kernel_sha256"] == calibrate.KERNEL_SHA256


def test_per_layer_metrics_present_and_shares_sum_to_one(passes, spec):
    traced = passes[1]
    assert {name: entry["unit"]
            for name, entry in traced["metrics"].items()} == \
        {row["name"]: row["unit"] for row in spec["per_layer"]}
    assert traced["failed"] == 0, traced["problems"]
    shares = [entry["value"] for name, entry in traced["metrics"].items()
              if name.endswith(".self_share")]
    assert abs(sum(shares) - 1.0) <= 0.01
    assert traced["metrics"]["trace.overhead_ratio"]["value"] > 1.0
    assert traced["spans"]


def test_traced_passes_repeat_exactly(passes):
    _, first, second = passes
    exact = [name for name in first["metrics"]
             if name.endswith(".calls_per_op") or name.startswith("count.")]
    assert len(exact) > 40
    assert {name: first["metrics"][name]["value"] for name in exact} == \
        {name: second["metrics"][name]["value"] for name in exact}
    assert first["semantics_sha256"] == second["semantics_sha256"] == \
        passes[0]["semantics_sha256"]


def test_a_failing_round_is_counted(monkeypatch):
    workload = WORKLOADS["wire_ingress"]
    genuine = workload.verify
    seen = []

    def failing_fifth(inputs, output):
        verdict = genuine(inputs, output)
        seen.append(verdict)
        if len(seen) == 5:
            return Verdict(verdict.digest, verdict.ops, ["injected"])
        return verdict

    monkeypatch.setattr(workload, "verify", failing_fifth)
    result = run.measure("wire_ingress", SEED, 0.1, 0, setup_repeats=1)
    assert result["failed"] == seen[0].ops
    assert 0 < result["fail_ratio"] < 1 and not result["correct"]


def test_results_of_different_kernels_are_not_compared():
    metrics = {name: {"value": 1.0, "unit": unit}
               for name, (unit, _, _) in run.END_TO_END.items()}
    ours = {"kernel_sha256": calibrate.KERNEL_SHA256, "metrics": metrics}
    theirs = {"kernel_sha256": "0" * 64, "metrics": metrics}
    assert all(row["ok"] for row in run.compare([ours], [ours]))
    with pytest.raises(ValueError, match="different calibration kernels"):
        run.compare([ours], [theirs])


def _run(env_changes, *args):
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONHASHSEED", run.REEXEC_MARK)}
    env.update(env_changes)
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        env=env, capture_output=True, text=True)


def test_measuring_process_insists_on_fixed_hashing():
    refused = _run({"PYTHONHASHSEED": "5", run.REEXEC_MARK: "1"},
                   "--workload", "wire_ingress", "--quick")
    assert refused.returncode != 0
    assert "refusing to measure" in refused.stderr
    # Without the mark the runner re-execs itself under PYTHONHASHSEED=0.
    done = _run({"PYTHONHASHSEED": "5"},
                "--workload", "wire_ingress", "--quick")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0
