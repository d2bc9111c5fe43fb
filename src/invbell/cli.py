"""Command-line surface tying the pipeline together.

Subcommands: rho, hardy, nosignal, chsh, lhv, sample.  Exit codes: 0 on
success, 2 on invalid configuration, 3 when an analysis needs support on
all four (q1, q2) pairs and the distribution lacks it.  Verdicts are
payload, never exit codes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import MissingSupport
from .lhv import (
    CHSH_SIGN_PATTERNS,
    PAIR_ORDER,
    conditional_table,
    local_polytope_check,
    no_signaling_check,
)
from .protocol import OUTCOMES, Scenario, bell_state, build_final_density, outcome_distribution
from .reality import HARDY_FACTS, hardy_chain_check
from .stats import ChshSettings, CLASSICAL_BOUND, TSIRELSON_BOUND, correlator, sample

DEFAULT_ANGLES = (0.0, math.pi / 2.0, -math.pi / 4.0, math.pi / 4.0)

DEFAULTS = {
    "mode": "coherent",
    "choice_prob": 0.5,
    "seed": 42,
    "samples": None,
    "epsilon": 1e-9,
    "tol": 1e-9,
    "format": "table",
    "diagonal": False,
    "angles": DEFAULT_ANGLES,
}

MODES = ("coherent", "coin")
FORMATS = ("table", "json", "csv")
COMMANDS = ("rho", "hardy", "nosignal", "chsh", "lhv", "sample")

# Upper bound on --samples: at about 15 ns per draw (2-core Xeon, numpy 2.4),
# 10^9 draws take about 15 s, while an unbounded count could run for hours.
MAX_SAMPLES = 10**9


class ConfigError(Exception):
    """Invalid run configuration (maps to exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    mode: str
    choice_prob: float
    seed: int
    samples: Optional[int]
    epsilon: float
    tol: float
    format: str
    diagonal: bool
    angles: tuple[float, float, float, float]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invbell",
        description="Basis-choice-register experiment: build states, run Hardy / "
        "no-signaling / CHSH analyses, and sample outcomes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "rho": "print the final four-qubit density matrix",
        "hardy": "run the four-fact contradiction chain",
        "nosignal": "check the inverted-scenario no-signaling conditions",
        "chsh": "evaluate the CHSH combination on the entangled pair",
        "lhv": "decide local-polytope membership of the inverted-scenario table",
        "sample": "draw seeded outcomes and report counts",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument("--config", metavar="FILE", help="key=value file; flags override it")
        p.add_argument("--mode", help="choice-register mechanism: coherent or coin")
        p.add_argument("--choice-prob", dest="choice_prob", type=float, help="probability of choosing Z")
        p.add_argument("--seed", type=int, help="64-bit sampling seed")
        p.add_argument("--samples", type=int, help=f"number of draws, at most {MAX_SAMPLES}; analyses go empirical")
        p.add_argument("--epsilon", type=float, help="certainty tolerance in [0, 0.5)")
        p.add_argument("--tol", type=float, help="signaling / polytope tolerance")
        p.add_argument("--format", help="output format: table, json, or csv")
        if name == "rho":
            p.add_argument("--diagonal", action="store_true", default=None, help="print only the 16 diagonal entries")
        if name == "chsh":
            p.add_argument("--angles", help="a0,a1,b0,b1 in radians")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process for main(); parsing leaves the parser unchanged."""
    return build_parser()


_FILE_KEYS = {
    "mode": "mode",
    "choice-prob": "choice_prob",
    "seed": "seed",
    "samples": "samples",
    "epsilon": "epsilon",
    "tol": "tol",
    "format": "format",
    "diagonal": "diagonal",
    "angles": "angles",
}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"cannot parse boolean from {text!r}")


def _parse_number(text: str, kind, name: str):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"cannot parse {name} from {text!r}") from None


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        name = _FILE_KEYS[key]
        if name in ("choice_prob", "epsilon", "tol"):
            values[name] = _parse_number(text, float, name)
        elif name in ("seed", "samples"):
            values[name] = _parse_number(text, int, name)
        elif name == "diagonal":
            values[name] = _parse_bool(text)
        else:
            values[name] = text
    return values


def _parse_angles(value) -> tuple[float, float, float, float]:
    if isinstance(value, tuple):
        return value
    parts = [p for p in str(value).split(",") if p.strip()]
    if len(parts) != 4:
        raise ConfigError(f"angles need exactly 4 comma-separated values, got {value!r}")
    return tuple(_parse_number(p.strip(), float, "angle") for p in parts)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(name):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_values:
            return file_values[name]
        return DEFAULTS[name]

    mode = pick("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    choice_prob = float(pick("choice_prob"))
    if not math.isfinite(choice_prob) or not 0.0 <= choice_prob <= 1.0:
        raise ConfigError(f"choice-prob must lie in [0, 1], got {choice_prob!r}")
    # Reduced modulo 2^64 as sample() does, so config.seed matches results.seed.
    seed = int(pick("seed")) % (1 << 64)
    samples = pick("samples")
    if samples is not None:
        samples = int(samples)
        if samples < 1:
            raise ConfigError(f"samples must be >= 1, got {samples}")
        if samples > MAX_SAMPLES:
            raise ConfigError(f"samples must be <= {MAX_SAMPLES}, got {samples}")
    if args.command == "sample" and samples is None:
        raise ConfigError("the sample command requires --samples")
    epsilon = float(pick("epsilon"))
    if not math.isfinite(epsilon) or not 0.0 <= epsilon < 0.5:
        raise ConfigError(f"epsilon must lie in [0, 0.5), got {epsilon!r}")
    tol = float(pick("tol"))
    if not math.isfinite(tol) or tol < 0.0:
        raise ConfigError(f"tol must be nonnegative, got {tol!r}")
    fmt = pick("format")
    if fmt not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
    angles = _parse_angles(pick("angles"))
    if any(not math.isfinite(a) for a in angles):
        raise ConfigError(f"angles must be finite, got {angles!r}")
    return RunConfig(
        command=args.command,
        mode=mode,
        choice_prob=choice_prob,
        seed=seed,
        samples=samples,
        epsilon=epsilon,
        tol=tol,
        format=fmt,
        diagonal=bool(pick("diagonal")),
        angles=angles,
    )


def _scenario(cfg: RunConfig) -> Scenario:
    return Scenario(alice_mode=cfg.mode, bob_mode=cfg.mode, choice_prob=cfg.choice_prob)


def _distribution(cfg: RunConfig):
    d = outcome_distribution(build_final_density(_scenario(cfg)))
    if cfg.samples is not None:
        d = sample(d, cfg.samples, cfg.seed).empirical()
    return d


def _config_payload(cfg: RunConfig) -> dict:
    payload = {
        "mode": cfg.mode,
        "choice_prob": cfg.choice_prob,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "epsilon": cfg.epsilon,
        "tol": cfg.tol,
        "format": cfg.format,
    }
    if cfg.command == "rho":
        payload["diagonal"] = cfg.diagonal
    if cfg.command == "chsh":
        payload["angles"] = list(cfg.angles)
    return payload


def _outcome_row(outcome, value_name: str, value) -> dict:
    return {"q1": outcome.q1, "q2": outcome.q2, "q3": outcome.q3, "q4": outcome.q4, value_name: value}


def _run_rho(cfg: RunConfig) -> dict:
    rho = build_final_density(_scenario(cfg))
    if cfg.diagonal:
        probs = outcome_distribution(rho)
        rows = [_outcome_row(o, "probability", probs.probs[o]) for o in OUTCOMES]
        return {"diagonal": rows}
    return {
        "real": rho.matrix.real.tolist(),
        "imag": rho.matrix.imag.tolist(),
    }


def _predicate_label(constraints: dict) -> str:
    return ",".join(f"{k}={v:+d}" for k, v in constraints.items())


def _run_hardy(cfg: RunConfig) -> dict:
    report = hardy_chain_check(_distribution(cfg), cfg.epsilon)
    facts = [
        {
            "name": f"f{i}",
            "target": _predicate_label(target),
            "given": _predicate_label(given),
            "value": value,
            "established": flag,
        }
        for i, ((target, given), value, flag) in enumerate(
            zip(HARDY_FACTS, report.values, report.established)
        )
    ]
    return {
        "f0": report.f0,
        "f1": report.f1,
        "f2": report.f2,
        "f3": report.f3,
        "established": list(report.established),
        "contradiction": report.contradiction,
        "verdict": "CONTRADICTION" if report.contradiction else "CONSISTENT",
        "epsilon": report.epsilon,
        "facts": facts,
    }


def _table_payload(table) -> dict:
    return {
        "inputs": [list(pair) for pair in PAIR_ORDER],
        "outputs": [list(pair) for pair in PAIR_ORDER],
        "entries": table.entries.tolist(),
    }


def _run_nosignal(cfg: RunConfig) -> dict:
    table = conditional_table(_distribution(cfg))
    report = no_signaling_check(table, cfg.tol)
    return {
        "delta_q3": report.delta_q3,
        "delta_q4": report.delta_q4,
        "signaling": report.signaling,
        "verdict": "SIGNALING" if report.signaling else "NO-SIGNALING",
        "tol": report.tol,
        "table": _table_payload(table),
    }


def _run_chsh(cfg: RunConfig) -> dict:
    settings = ChshSettings(*cfg.angles)
    state = bell_state()
    correlators = {
        "e_a0_b0": correlator(state, settings.a0, settings.b0),
        "e_a0_b1": correlator(state, settings.a0, settings.b1),
        "e_a1_b0": correlator(state, settings.a1, settings.b0),
        "e_a1_b1": correlator(state, settings.a1, settings.b1),
    }
    value = (
        correlators["e_a0_b0"]
        + correlators["e_a0_b1"]
        + correlators["e_a1_b0"]
        - correlators["e_a1_b1"]
    )
    return {
        "angles": {"a0": settings.a0, "a1": settings.a1, "b0": settings.b0, "b1": settings.b1},
        "correlators": correlators,
        "chsh": value,
        "classical_bound": CLASSICAL_BOUND,
        "quantum_maximum": TSIRELSON_BOUND,
    }


def _run_lhv(cfg: RunConfig) -> dict:
    table = conditional_table(_distribution(cfg))
    report = local_polytope_check(table, cfg.tol)
    return {
        "verdict": report.verdict,
        "delta_q3": report.signaling.delta_q3,
        "delta_q4": report.signaling.delta_q4,
        "combinations": [
            {"signs": list(signs), "value": value}
            for signs, value in zip(CHSH_SIGN_PATTERNS, report.combination_values)
        ],
        "witness": report.witness,
        "witness_value": report.witness_value,
        "witness_signs": list(report.witness_signs) if report.witness_signs else None,
        "tol": cfg.tol,
        "table": _table_payload(table),
    }


def _run_sample(cfg: RunConfig) -> dict:
    d = outcome_distribution(build_final_density(_scenario(cfg)))
    report = sample(d, cfg.samples, cfg.seed)
    rows = [_outcome_row(o, "count", report.counts[o]) for o in OUTCOMES]
    return {
        "n": report.n,
        "seed": report.seed,
        "tv_distance": report.tv_distance,
        "counts": rows,
    }


_RUNNERS = {
    "rho": _run_rho,
    "hardy": _run_hardy,
    "nosignal": _run_nosignal,
    "chsh": _run_chsh,
    "lhv": _run_lhv,
    "sample": _run_sample,
}


def run(cfg: RunConfig) -> dict:
    return {"command": cfg.command, "config": _config_payload(cfg), "results": _RUNNERS[cfg.command](cfg)}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render_table(cfg: RunConfig, payload: dict) -> str:
    results = payload["results"]
    lines: list[str] = []
    if cfg.command == "rho":
        if cfg.diagonal:
            lines.append("q1 q2 q3 q4 probability")
            for row in results["diagonal"]:
                lines.append(
                    f"{row['q1']:+d} {row['q2']:+d} {row['q3']:+d} {row['q4']:+d} {_fmt(row['probability'])}"
                )
        else:
            lines.append("final density matrix, real part (rows of 16):")
            for row in results["real"]:
                lines.append(" ".join(_fmt(x) for x in row))
            lines.append("imaginary part:")
            for row in results["imag"]:
                lines.append(" ".join(_fmt(x) for x in row))
    elif cfg.command == "hardy":
        lines.append(f"hardy chain (epsilon={_fmt(results['epsilon'])})")
        for fact in results["facts"]:
            flag = "established" if fact["established"] else "NOT ESTABLISHED"
            lines.append(
                f"{fact['name']} = P({fact['target']} | {fact['given']}) = {_fmt(fact['value'])}  [{flag}]"
            )
        lines.append(f"verdict: {results['verdict']}")
    elif cfg.command == "nosignal":
        lines.extend(_table_lines(results["table"]))
        lines.append(f"delta_q3 = {_fmt(results['delta_q3'])}")
        lines.append(f"delta_q4 = {_fmt(results['delta_q4'])}")
        lines.append(f"verdict: {results['verdict']} (tol={_fmt(results['tol'])})")
    elif cfg.command == "chsh":
        angles = results["angles"]
        lines.append(
            "settings: "
            + " ".join(f"{k}={_fmt(angles[k])}" for k in ("a0", "a1", "b0", "b1"))
        )
        for key in ("e_a0_b0", "e_a0_b1", "e_a1_b0", "e_a1_b1"):
            lines.append(f"{key} = {_fmt(results['correlators'][key])}")
        lines.append(f"chsh = {_fmt(results['chsh'])}")
        lines.append(
            f"classical_bound = {_fmt(results['classical_bound'])}, "
            f"quantum_maximum = {_fmt(results['quantum_maximum'])}"
        )
    elif cfg.command == "lhv":
        lines.extend(_table_lines(results["table"]))
        lines.append(f"delta_q3 = {_fmt(results['delta_q3'])}")
        lines.append(f"delta_q4 = {_fmt(results['delta_q4'])}")
        for combo in results["combinations"]:
            signs = ",".join(f"{s:+d}" for s in combo["signs"])
            lines.append(f"combination ({signs}) = {_fmt(combo['value'])}")
        lines.append(f"verdict: {results['verdict']} (tol={_fmt(results['tol'])})")
        lines.append(f"witness: {results['witness']}")
    elif cfg.command == "sample":
        lines.append(
            f"n={results['n']} seed={results['seed']} tv_distance={_fmt(results['tv_distance'])}"
        )
        lines.append("q1 q2 q3 q4 count")
        for row in results["counts"]:
            lines.append(f"{row['q1']:+d} {row['q2']:+d} {row['q3']:+d} {row['q4']:+d} {row['count']}")
    return "\n".join(lines) + "\n"


def _table_lines(table_payload: dict) -> list[str]:
    header = "P(q3,q4|q1,q2)  " + " ".join(
        f"({a:+d},{b:+d})" for a, b in table_payload["outputs"]
    )
    lines = [header]
    for (a, b), row in zip(table_payload["inputs"], table_payload["entries"]):
        lines.append(f"({a:+d},{b:+d})  " + " ".join(_fmt(x) for x in row))
    return lines


def _render_csv(cfg: RunConfig, payload: dict) -> str:
    results = payload["results"]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if cfg.command == "rho" and cfg.diagonal:
        writer.writerow(["q1", "q2", "q3", "q4", "probability"])
        for row in results["diagonal"]:
            writer.writerow([row["q1"], row["q2"], row["q3"], row["q4"], _fmt(row["probability"])])
    elif cfg.command == "rho":
        writer.writerow(["row", "col", "real", "imag"])
        for i, (re_row, im_row) in enumerate(zip(results["real"], results["imag"])):
            for j in range(16):
                writer.writerow([i, j, _fmt(re_row[j]), _fmt(im_row[j])])
    elif cfg.command == "hardy":
        writer.writerow(["field", "value", "established"])
        for fact in results["facts"]:
            writer.writerow([fact["name"], _fmt(fact["value"]), _fmt(fact["established"])])
        writer.writerow(["contradiction", _fmt(results["contradiction"]), ""])
        writer.writerow(["verdict", results["verdict"], ""])
    elif cfg.command == "nosignal":
        writer.writerow(["field", "value"])
        writer.writerow(["delta_q3", _fmt(results["delta_q3"])])
        writer.writerow(["delta_q4", _fmt(results["delta_q4"])])
        writer.writerow(["signaling", _fmt(results["signaling"])])
        writer.writerow(["verdict", results["verdict"]])
        writer.writerow(["tol", _fmt(results["tol"])])
    elif cfg.command == "chsh":
        writer.writerow(["field", "value"])
        for key in ("a0", "a1", "b0", "b1"):
            writer.writerow([key, _fmt(results["angles"][key])])
        for key in ("e_a0_b0", "e_a0_b1", "e_a1_b0", "e_a1_b1"):
            writer.writerow([key, _fmt(results["correlators"][key])])
        writer.writerow(["chsh", _fmt(results["chsh"])])
    elif cfg.command == "lhv":
        writer.writerow(["field", "value"])
        writer.writerow(["verdict", results["verdict"]])
        writer.writerow(["delta_q3", _fmt(results["delta_q3"])])
        writer.writerow(["delta_q4", _fmt(results["delta_q4"])])
        for combo in results["combinations"]:
            signs = ",".join(f"{s:+d}" for s in combo["signs"])
            writer.writerow([f"combination({signs})", _fmt(combo["value"])])
        writer.writerow(["witness", results["witness"]])
        writer.writerow(["tol", _fmt(results["tol"])])
    elif cfg.command == "sample":
        writer.writerow(["q1", "q2", "q3", "q4", "count"])
        for row in results["counts"]:
            writer.writerow([row["q1"], row["q2"], row["q3"], row["q4"], row["count"]])
    return buffer.getvalue()


def render(cfg: RunConfig, payload: dict) -> str:
    if cfg.format == "json":
        return _render_json(payload)
    if cfg.format == "csv":
        return _render_csv(cfg, payload)
    return _render_table(cfg, payload)


def main(argv: Optional[list[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        payload = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MissingSupport as exc:
        print(f"degenerate support: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(render(cfg, payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
