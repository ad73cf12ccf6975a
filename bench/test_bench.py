"""Self-tests of the benchmark harness: ``python3 -m pytest bench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run.use_checkout_sources()
BUDGET = run.Client().sign_budget


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_declared_metrics_match_the_harness():
    s = spec()
    assert [(m["name"], m["unit"]) for m in s["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in s["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace, capsys):
    assert run.main(["--workload", "deep-digit", "--seed", "3",
                     "--seconds", "0.2", "--trace", str(trace)]) == 0
    result = last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = dict(tracing.PER_LAYER if trace else run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.generate(workload, 11, BUDGET, 1)
    again = workloads.generate(workload, 11, BUDGET, 1)
    assert first == again and [r.props for r in first] == [r.props for r in again]
    assert first != workloads.generate(workload, 12, BUDGET, 1)
    assert first != workloads.generate(workload, 11, BUDGET, 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_inputs_stay_inside_the_contract(workload):
    for req in workloads.generate(workload, 5, BUDGET):
        if req.kind == "padic":
            assert req.value.denominator % req.p
        else:
            assert req.value != 0 and not workloads.terminates(req.value)


def corrupt(req, output):
    """The output with its last digit changed."""
    if req.kind == "padic":
        return output[:-1] + ((output[-1] + 1) % req.p,)
    out, value = output
    if req.kind == "digit":
        return (out + 1) % 10, value
    return out[:-1] + str((int(out[-1]) + 1) % 10), value


class CorruptingClient:
    """Passes requests to a real client and corrupts the answers to one."""

    def __init__(self, client, target):
        self.client, self.target = client, target

    def execute(self, req, words=False):
        outcome = self.client.execute(req, words)
        if req is self.target:
            outcome.output = corrupt(req, outcome.output)
        return outcome


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_flags_a_corrupted_digit(workload):
    pool = workloads.generate(workload, 2, BUDGET)
    small = sorted(range(len(pool)), key=lambda i: (pool[i].digits, -pool[i].position))[:2]
    client = run.Client()
    good = run.Checker()
    for i in small:
        good.run(client, pool[i])
    assert good.settle() and good.failed == 0

    bad = run.Checker()
    corrupting = CorruptingClient(client, pool[small[0]])
    for i in small:
        bad.run(corrupting, pool[i])
        bad.run(corrupting, pool[i])
    assert not bad.settle()
    assert bad.failed == 2 and bad.attempted == 4


def test_a_wrong_output_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "expected_output", lambda req: None)
    assert run.main(["--workload", "deep-digit", "--seed", "3",
                     "--seconds", "0.2", "--trace", "0"]) == 1
    result = last_json(capsys.readouterr().out)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_no_request_repeats_within_a_run():
    rounds = run.Rounds("deep-digit", 4, BUDGET)
    seen = [(r.expr, r.position) for n in range(40) for r in rounds.get(n)]
    assert len(set(seen)) == len(seen)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "deep-digit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
