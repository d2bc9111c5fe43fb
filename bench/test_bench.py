"""Tests of the benchmark itself: its checks are live and its output has the agreed form.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from invbell import cli, protocol, reality, stats  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _failed_labels(workload, seconds: float = 0.3) -> tuple[int, list[str]]:
    result = run.measure(workload, seconds, traced=False)
    return result["attempted"], list(result["failures"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_quick_run_reports_every_end_to_end_metric(name):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_quick_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "exact_sweep", "--seed", "3", "--seconds", "1.5", "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_runs_fail_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "exact_sweep", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0 and proc.stdout == ""


def test_perturbed_distribution_fails_every_exact_operation(monkeypatch):
    original = protocol.outcome_distribution

    def perturbed(rho):
        probs = original(rho).as_array()
        probs[0] += 1e-9
        probs[1] -= 1e-9
        return protocol.Distribution.from_array(probs)

    monkeypatch.setattr(protocol, "outcome_distribution", perturbed)
    attempted, failures = _failed_labels(workloads.ExactSweep(5, quick=True))
    assert attempted >= 2 and len(failures) == attempted
    assert all("P(" in f for f in failures)


def test_refuting_a_possible_response_pair_fails_every_exact_operation(monkeypatch):
    original = reality.response_model_refutation

    def over_refuting(d):
        """Drop the pair q3 = -1, q4 = +1, which every scenario's support allows."""
        return [(f, g) for f, g in original(d) if (f.at_plus, f.at_minus, g.at_plus, g.at_minus) != (-1, -1, 1, 1)]

    monkeypatch.setattr(reality, "response_model_refutation", over_refuting)
    attempted, failures = _failed_labels(workloads.ExactSweep(5, quick=True))
    assert attempted >= 2 and len(failures) == attempted
    assert all("differ from brute force" in f for f in failures)


def test_peak_memory_child_reports_its_maxrss():
    workload = workloads.CliSession(5, quick=True)
    assert run.peak_rss_mb(workload, 5, 1) > 10


def test_wrong_count_fails_the_sampled_operation(monkeypatch):
    original = stats.sample

    def miscounted(d, n, seed, chunk_size=1 << 16):
        """Move one draw onto (+1, -1, +1, +1), which ZZ never produces."""
        report = original(d, n, seed, chunk_size)
        counts = dict(report.counts)
        counts[max(counts, key=counts.get)] -= 1
        counts[(1, -1, 1, 1)] += 1
        return stats.SampleReport(report.n, report.seed, counts, report.tv_distance)

    monkeypatch.setattr(stats, "sample", miscounted)
    attempted, failures = _failed_labels(workloads.SampledStudy(5, quick=True))
    assert attempted >= 2 and len(failures) == attempted
    assert all("impossible outcome (1, -1, 1, 1) drawn 1 times" in f for f in failures)


def test_wrong_chsh_value_fails_the_chsh_json_call(monkeypatch):
    original = cli.correlator
    monkeypatch.setattr(cli, "correlator", lambda state, a, b: original(state, a, b) + 1e-9)
    attempted, failures = _failed_labels(workloads.CliSession(5, quick=True), seconds=0.05)
    rounds = attempted // 20
    assert rounds >= 1 and len(failures) == rounds
    assert all("e_a0_b0" in f for f in failures)


def test_wrong_exit_code_fails_the_error_call(monkeypatch):
    monkeypatch.setattr(workloads, "DEGENERATE", ["lhv", "--choice-prob", "0.999"])
    attempted, failures = _failed_labels(workloads.CliSession(5, quick=True), seconds=0.05)
    assert len(failures) == attempted // 20
    assert all("exit 0, documented 3" in f for f in failures)


def test_vectorised_stream_matches_pure_integer_splitmix():
    d = protocol.outcome_distribution(protocol.build_final_density(protocol.Scenario("coin", "coin", 0.3)))
    probs = [d.probs[c] for c in checks.CELLS]
    for seed in (0, 1, 2**64 - 1, 123456789):
        assert checks.stream_counts(probs, seed, 3000) == checks.prefix_counts(probs, seed, 3000)
        counts = stats.sample(d, 3000, seed).counts
        assert [counts[c] for c in checks.CELLS] == checks.prefix_counts(probs, seed, 3000)


def test_lp_separates_local_from_nonlocal_tables():
    pr_box = [[0.5 if a * b * c * d == (-1 if (a, b) == (-1, -1) else 1) else 0.0
               for c, d in checks.PAIRS] for a, b in checks.PAIRS]
    uniform = [[0.25] * 4 for _ in range(4)]
    assert not checks.lp_local(pr_box)
    assert checks.lp_local(uniform)
    assert not checks.lp_local(checks.conditional_rows(checks.event_weights(checks.closed_form_table(0.5))))


def test_rendering_check_catches_a_changed_digit():
    argv = ["nosignal", "--samples", "2000", "--seed", "9"]
    outputs = {fmt: workloads.CliSession._call([*argv, "--format", fmt])[1] for fmt in cli.FORMATS}
    checks.check_rendering("nosignal", "table", outputs["table"], outputs["json"])
    checks.check_rendering("nosignal", "csv", outputs["csv"], outputs["json"])
    res = json.loads(outputs["json"])["results"]
    wrong = outputs["csv"].replace(repr(res["delta_q3"]), repr(np.nextafter(res["delta_q3"], 1.0)))
    with pytest.raises(checks.CheckFailed):
        checks.check_rendering("nosignal", "csv", wrong, outputs["json"])
