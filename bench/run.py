"""Benchmark for invbell: three workloads, end-to-end figures and a traced per-layer run.

Run from the repository root, against src/ with no install:

    python3 bench/run.py --workload exact_sweep --seed 1 --seconds 40 --trace 0

--trace 0 prints the end-to-end metrics of the named workload; --trace 1
prints the per-layer metrics (layer micro-timings, import cost, and traced
self time of all three workloads with the tracing overhead).  --quick runs
tiny sizes.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; raw figures and trace files go to bench/out/.
Everything runs in this one process on one thread, apart from the fresh
interpreters that time start-up.

Every time is scaled to one host speed by the probe in speed.py.  Timed
work runs in windows of whole rounds of about half a second.  In the traced
run, windows alternate between traced and untraced, so that both see the
same share of any slow spell of the host; fresh-interpreter starts for
setup_s are spread over the run's windows for the same reason.  Peak memory
is read from a fresh interpreter that runs a fixed number of rounds (rss.py).
"""

from __future__ import annotations

import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import speed  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WINDOW_S = 0.5
SETUP_STARTS = 11


def fresh_start_s(imports: str) -> tuple[float, float]:
    """Scaled and unscaled wall time of a fresh interpreter that imports the workload's modules."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return speed.scaled_s(
        lambda: subprocess.run([sys.executable, "-c", imports], env=env, cwd=ROOT, check=True, timeout=60)
    )


def peak_rss_mb(workload, seed: int, rounds: int) -> float:
    """Peak resident MB of a fresh interpreter that runs `rounds` rounds of the workload and nothing else."""
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "rss.py"), workload.name, str(seed), str(rounds)],
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def measure(workload, seconds: float, traced: bool, between=None) -> dict:
    """Run whole rounds in windows until `seconds` of timed work are done.

    Each round's operation times (and, when traced, its layer self times)
    are scaled by the host-speed probes taken on either side of it.  With
    `traced`, every second window runs with the tracer installed.  Outputs
    are checked after each round, outside the timed region.  `between(k)`
    runs after window k.
    """
    from spans import Tracer

    tracer = Tracer() if traced else None
    windows, failures = [], {}
    attempted = 0
    r = 0
    timed_ns = 0
    probe = speed.probe_ns()
    while timed_ns < seconds * 1e9 or len(windows) < 2:
        on = traced and len(windows) % 2 == 1
        window = {"traced": on, "op_ns": [], "scaled_ns": [], "self_ns": defaultdict(float)}
        window_ns = 0
        while window_ns < WINDOW_S * 1e9:
            ops = workload.ops(r)
            outputs, times = [], []
            before = dict(tracer.self_ns) if on else {}
            with tracer.installed() if on else contextlib.nullcontext():
                for label, fn in ops:
                    start = time.perf_counter_ns()
                    try:
                        out = tracer.op(label, fn) if on else fn()
                    except Exception as exc:  # counted as a failed operation by the check
                        out = exc
                    times.append(time.perf_counter_ns() - start)
                    outputs.append(out)
            after = speed.probe_ns()
            factor = speed.scale(probe, after)
            probe = after
            window["op_ns"] += times
            window["scaled_ns"] += [t * factor for t in times]
            if on:
                for layer, ns in tracer.self_ns.items():
                    window["self_ns"][layer] += (ns - before.get(layer, 0)) * factor
            window_ns += sum(times)
            for i, message in enumerate(workload.check(r, outputs)):
                if message is not None:
                    failures[(r, i)] = message
            attempted += len(ops)
            r += 1
        windows.append(window)
        timed_ns += window_ns
        if between is not None:
            between(len(windows))
    return {"windows": windows, "failures": failures, "attempted": attempted, "rounds": r, "tracer": tracer,
            "refutation_mismatches": getattr(workload, "refutation_mismatches", None)}


def op_stats(windows: list[dict], key: str = "scaled_ns") -> dict:
    pooled = [ns / 1e6 for w in windows for ns in w[key]]
    return {
        "ops": len(pooled),
        "ops_per_s": len(pooled) / (sum(pooled) / 1e3),
        "p50_ms": statistics.median(pooled),
        "p90_ms": statistics.quantiles(pooled, n=10)[8],
    }


def end_to_end(workload, seed: int, seconds: float, quick: bool) -> tuple[dict, dict]:
    starts: list[tuple[float, float]] = []
    wanted = 2 if quick else SETUP_STARTS
    fresh_start_s(workload.imports)  # warm the page cache and bytecode caches first
    windows_per_start = max(1, int(seconds / WINDOW_S) // wanted)

    def between(k: int) -> None:
        if k % windows_per_start == 0 and len(starts) < wanted:
            starts.append(fresh_start_s(workload.imports))

    for _, fn in workload.ops(0):  # one untimed round warms caches and lazy imports
        fn()
    run = measure(workload, seconds, traced=False, between=between)
    while len(starts) < wanted:
        starts.append(fresh_start_s(workload.imports))
    rss = peak_rss_mb(workload, seed, 1 if quick else workload.rss_rounds)
    ops = op_stats(run["windows"])
    metrics = {
        "setup_s": (statistics.median(s for s, _ in starts), "s"),
        "ops_per_s": (ops["ops_per_s"], "1/s"),
        "op_p50_ms": (ops["p50_ms"], "ms"),
        "op_p90_ms": (ops["p90_ms"], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    raw = {"run": summary(run), "ops": ops, "unscaled_ops": op_stats(run["windows"], "op_ns"),
           "setup_starts_s": [s for s, _ in starts], "unscaled_setup_starts_s": [u for _, u in starts]}
    return metrics, raw


def traced_layers(seed: int, seconds: float, quick: bool) -> tuple[dict, dict]:
    import layers
    from spans import PROGRAM_LAYERS, write_chrome_trace
    from workloads import WORKLOADS

    env = dict(os.environ, PYTHONPATH=SRC)
    metrics = layers.import_metrics(env, ROOT, 2 if quick else 5)
    metrics.update(layers.layer_metrics(seed, quick))
    raw, kept = {}, {}
    for name, cls in WORKLOADS.items():
        run = measure(cls(seed, quick), seconds / len(WORKLOADS), traced=True)
        plain = op_stats([w for w in run["windows"] if not w["traced"]])
        traced_windows = [w for w in run["windows"] if w["traced"]]
        traced = op_stats(traced_windows)
        metrics[f"{name}.trace_overhead_pct"] = ((plain["ops_per_s"] / traced["ops_per_s"] - 1) * 100, "%")
        for layer in PROGRAM_LAYERS:
            ns = sum(w["self_ns"].get(layer, 0) for w in traced_windows)
            if ns:
                metrics[f"{name}.{layer}.self_ms_per_op"] = (ns / traced["ops"] / 1e6, "ms")
        raw[name] = {"run": summary(run), "untraced": plain, "traced": traced}
        kept[name] = run["tracer"].spans
    os.makedirs(OUT, exist_ok=True)
    write_chrome_trace(kept, os.path.join(OUT, f"trace-seed{seed}.json"))
    return metrics, raw


def summary(run: dict) -> dict:
    return {"attempted": run["attempted"], "failed": len(run["failures"]), "rounds": run["rounds"],
            "windows": len(run["windows"]), "refutation_mismatches": run["refutation_mismatches"],
            "failures": [f"round {r} op {i}: {m}" for (r, i), m in sorted(run["failures"].items())[:20]]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("exact_sweep", "sampled_study", "cli_session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for a smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "invbell", "__init__.py")):
        print(f"invbell sources not found under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.trace:
        metrics, raw = traced_layers(args.seed, args.seconds, args.quick)
        runs = [r["run"] for r in raw.values()]
    else:
        metrics, raw = end_to_end(WORKLOADS[args.workload](args.seed, args.quick), args.seed, args.seconds,
                                  args.quick)
        runs = [raw["run"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # Every check has run by now: an operation with a wrong output is counted in failed.
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"args": vars(args), "result": result, "raw": raw}, fh, indent=1)
    for r in runs:
        for line in r["failures"]:
            print("FAILED", line)
        if r["refutation_mismatches"]:
            print(f"known fault: response_model_refutation differs from the closed form on "
                  f"{r['refutation_mismatches']} of {r['attempted']} exact_sweep operations")
    if "ops" in raw:
        print(f"{args.workload}: scaled {json.dumps(raw['ops'])} unscaled {json.dumps(raw['unscaled_ops'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
