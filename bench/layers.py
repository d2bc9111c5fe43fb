"""Per-call cost of each layer's public functions on fixed inputs, and import cost.

Every figure is the median over several batches of back-to-back calls, taken
on the default scenario (choice_prob 0.5) unless its name says otherwise,
and scaled to the reference host speed of speed.py.  These run in the
traced invocation only and carry no bound.
"""

from __future__ import annotations

import math
import re
import statistics
import subprocess
import sys
import time

import numpy as np

import speed
from invbell import cli, lhv, protocol, qcore, reality, stats


def per_call_s(fn, budget_s: float, batches: int = 7) -> float:
    """Median scaled seconds per call of fn() over `batches` batches filling about budget_s."""
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    calls = max(1, int(budget_s / batches / max(once, 1e-7)))
    times = []
    probe = speed.probe_ns()
    for _ in range(batches):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter_ns() - start
        after = speed.probe_ns()
        times.append(elapsed * speed.scale(probe, after) / calls / 1e9)
        probe = after
    return statistics.median(times)


def layer_metrics(seed: int, quick: bool) -> dict[str, tuple[float, str]]:
    budget = 0.02 if quick else 0.2
    rng = np.random.default_rng([seed, 1 << 33])
    sample_seed = int(rng.integers(0, 1 << 63))
    angles = [float(a) for a in rng.uniform(-math.pi, math.pi, 4)]
    coherent = protocol.Scenario()
    coin = protocol.Scenario("coin", "coin", 0.5)
    rho = protocol.build_final_density(coherent)
    matrix = np.array(rho.matrix)
    d = protocol.outcome_distribution(rho)
    table = lhv.conditional_table(d)
    events = [given for _, given in reality.HARDY_FACTS]
    report = stats.sample(d, 100_000, sample_seed)
    pair = protocol.bell_state()
    settings = stats.ChshSettings(*angles)
    us = {
        "protocol.build_final_density.coherent_us": lambda: protocol.build_final_density(coherent),
        "protocol.build_final_density.coin_us": lambda: protocol.build_final_density(coin),
        "qcore.DensityMatrix_us": lambda: qcore.DensityMatrix(matrix),
        "protocol.outcome_distribution_us": lambda: protocol.outcome_distribution(rho),
        "stats.SampleReport.empirical_us": report.empirical,
        "stats.chsh_value_us": lambda: stats.chsh_value(pair, settings),
        "reality.hardy_chain_check_us": lambda: reality.hardy_chain_check(d),
        "reality.certainty_predictions_us": lambda: reality.certainty_predictions(d),
        "reality.response_model_refutation_us": lambda: reality.response_model_refutation(d),
        "lhv.conditional_table_us": lambda: lhv.conditional_table(d),
        "lhv.no_signaling_check_us": lambda: lhv.no_signaling_check(table),
        "lhv.local_polytope_check_us": lambda: lhv.local_polytope_check(table),
        "cli.build_parser_us": cli.build_parser,
    }
    out = {name: (per_call_s(fn, budget) * 1e6, "us") for name, fn in us.items()}
    # prob and conditional: mean over the four chain events.
    out["stats.prob_us"] = (per_call_s(lambda: [stats.prob(d, e) for e in events], budget) / 4 * 1e6, "us")
    facts = reality.HARDY_FACTS
    out["stats.conditional_us"] = (
        per_call_s(lambda: [stats.conditional(d, t, g) for t, g in facts], budget) / 4 * 1e6, "us"
    )
    for label, n in (("1e5", 10**5), ("1e6", 10**6), ("1e7", 10**7)):
        batches = 3 if n == 10**7 else 5
        seconds = per_call_s(lambda n=n: stats.sample(d, n, sample_seed), 0.0, batches)
        out[f"stats.sample_ns_per_draw.{label}"] = (seconds / n * 1e9, "ns")

    parser = cli.build_parser()
    hardy_args = parser.parse_args(["hardy"])
    out["cli.resolve_config_us"] = (per_call_s(lambda: cli.resolve_config(hardy_args), budget) * 1e6, "us")
    for command in cli.COMMANDS:
        argv = [command] + (["--samples", "10000"] if command == "sample" else [])
        cfg = cli.resolve_config(parser.parse_args(argv))
        out[f"cli.run_us.{command}"] = (per_call_s(lambda cfg=cfg: cli.run(cfg), budget) * 1e6, "us")
    for fmt in cli.FORMATS:
        jobs = []
        for command in cli.COMMANDS:
            argv = [command, "--format", fmt] + (["--samples", "10000"] if command == "sample" else [])
            cfg = cli.resolve_config(parser.parse_args(argv))
            jobs.append((cfg, cli.run(cfg)))
        seconds = per_call_s(lambda jobs=jobs: [cli.render(c, p) for c, p in jobs], budget)
        out[f"cli.render_us.{fmt}"] = (seconds / len(jobs) * 1e6, "us")
    return out


_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$")


def import_metrics(env: dict, cwd: str, starts: int) -> dict[str, tuple[float, str]]:
    """numpy's cumulative import time, and invbell.cli's cumulative time without numpy (scaled)."""
    numpy_ms, invbell_ms = [], []
    for _ in range(starts):
        before = speed.probe_ns()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import invbell.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, check=True, timeout=60,
        )
        factor = speed.scale(before, speed.probe_ns())
        cumulative = {}
        for line in proc.stderr.splitlines():
            if m := _IMPORT_LINE.match(line):
                cumulative[m[2]] = int(m[1]) * factor
        numpy_ms.append(cumulative["numpy"] / 1e3)
        invbell_ms.append((cumulative["invbell.cli"] - cumulative["numpy"]) / 1e3)
    return {
        "import.numpy_ms": (statistics.median(numpy_ms), "ms"),
        "import.invbell_ms": (statistics.median(invbell_ms), "ms"),
    }
