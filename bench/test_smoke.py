"""Smoke test of the benchmark at a tiny input size.

    python3 -m pytest -q bench/test_smoke.py
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import COARSE, HOT, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--size", "tiny", "--seconds", "0.3", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_and_verifies(workload, trace):
    result = _bench("--workload", workload, "--seed", "5", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tampered_answers_fail_verification(workload, tmp_path):
    w = workloads.WORKLOADS[workload]
    instances, _, _ = workloads.build(w, 5, tmp_path, "tiny", pool_size=2)
    answers = run.Answers()
    run.answer_once(w, instances[1], 1, answers)
    result = answers.results[0]
    if workload in ("exhaustive-spread", "sampled-spread"):
        tampered = dataclasses.replace(result, b_high=result.b_high + 1)
    elif workload == "insertion-sizing":
        tampered = dataclasses.replace(result, alpha=result.alpha + 1)
    else:
        tampered = dataclasses.replace(result, mev_after=result.mev_after + 1)
    answers.results.append(tampered)
    answers.records.append(dict(answers.records[0], problems=[]))
    run.verify_all(w, instances, answers, None)
    assert answers.records[0]["problems"] == []
    assert answers.records[1]["problems"]


def test_counterexample_digest_is_committed():
    expected = run.expected_digests("insertion-sizing", json.loads(run.DIGESTS.read_text())["seed"])
    assert expected and len(expected) == workloads.WORKLOADS["insertion-sizing"].pool_size


def test_tracer_restores_every_binding():
    tracer = Tracer()
    bindings = [b for table in (COARSE, HOT) for bs in table.values() for b in bs]
    originals = [getattr(owner, attr) for owner, attr in bindings]
    tracer.install()
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(bindings, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(o, a) is f for (o, a), f in zip(bindings, originals))


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exhaustive-spread", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
