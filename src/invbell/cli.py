"""Command-line surface tying the pipeline together.

Subcommands: rho, hardy, nosignal, chsh, lhv, sample.  Exit codes: 0 on
success, 2 on invalid configuration, 3 when an analysis needs support on
all four (q1, q2) pairs and the distribution lacks it.  Verdicts are
payload, never exit codes.

SETTINGS names each setting once and gives the flags, the config-file keys
and their parsing, and the defaults.  Each command is one (runner, view)
pair: the runner returns the JSON results, the view table lines or CSV rows.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import stat
import sys
from dataclasses import make_dataclass
from typing import Callable, NamedTuple, Optional

from .errors import MissingSupport
from .lhv import CHSH_SIGN_PATTERNS, PAIR_ORDER, conditional_table, local_polytope_check, no_signaling_check
from .lhv import DEFAULT_TOL, check_tol
from .protocol import OUTCOMES, Scenario, bell_state, build_final_density, outcome_distribution
from .protocol import check_choice_prob, check_mode
from .reality import DEFAULT_EPSILON, HARDY_FACTS, check_epsilon, hardy_chain_check
from .stats import ChshSettings, CLASSICAL_BOUND, TSIRELSON_BOUND, EventPredicate, chsh_combination, correlator, sample

DEFAULT_ANGLES = (0.0, math.pi / 2.0, -math.pi / 4.0, math.pi / 4.0)

FORMATS = ("table", "json", "csv")

# Upper bound on --samples: at about 15 ns per draw (2-core Xeon, numpy 2.4),
# 10^9 draws take about 15 s, while an unbounded count could run for hours.
MAX_SAMPLES = 10**9

# Upper bound on a config file's size, far above any real one: a path to a
# device or a huge file fails fast instead of being read without bound.
MAX_CONFIG_BYTES = 64 * 1024


class ConfigError(Exception):
    """Invalid run configuration (maps to exit code 2)."""


class Setting(NamedTuple):
    """One setting: the type its flag and config-file value parse to, its default, and its help."""

    type: type
    default: object
    help: str
    command: Optional[str] = None  # the one subcommand that has the flag; None for all of them


SETTINGS = {
    "mode": Setting(str, "coherent", "choice-register mechanism: coherent or coin"),
    "choice_prob": Setting(float, 0.5, "probability of choosing Z"),
    "seed": Setting(int, 42, "64-bit sampling seed"),
    "samples": Setting(int, None, f"number of draws, at most {MAX_SAMPLES}; analyses go empirical"),
    "epsilon": Setting(float, DEFAULT_EPSILON, "certainty tolerance in [0, 0.5)"),
    "tol": Setting(float, DEFAULT_TOL, "signaling / polytope tolerance"),
    "format": Setting(str, "table", "output format: table, json, or csv"),
    "diagonal": Setting(bool, False, "print only the 16 diagonal entries", "rho"),
    "angles": Setting(str, DEFAULT_ANGLES, "a0,a1,b0,b1 in radians", "chsh"),
}

# Flag and config-file key of each setting: its name with dashes, so a file's `choice_prob=` is unknown.
_KEYS = {name.replace("_", "-"): name for name in SETTINGS}


# One resolved run: the subcommand, then each setting of SETTINGS in order.
RunConfig = make_dataclass("RunConfig", ["command", *SETTINGS], frozen=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invbell",
        description="Basis-choice-register experiment: build states, run Hardy / "
        "no-signaling / CHSH analyses, and sample outcomes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        p.add_argument("--config", metavar="FILE", help="key=value file; flags override it")
        for key, name in _KEYS.items():
            setting = SETTINGS[name]
            if setting.command in (None, command):
                opts = {"action": "store_true", "default": None} if setting.type is bool else {"type": setting.type}
                p.add_argument("--" + key, help=setting.help, **opts)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process for main(); parsing leaves the parser unchanged."""
    return build_parser()


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"cannot parse boolean from {text!r}")


def _parse_value(text: str, kind, name: str):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"cannot parse {name} from {text!r}") from None


def _read_config_file(path: str) -> dict:
    """Settings of a key=value file: a regular file of at most MAX_CONFIG_BYTES of UTF-8 text."""
    try:
        # O_NONBLOCK: opening a FIFO must not wait for a writer before fstat rejects it.
        with open(path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as fh:
            if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                raise ConfigError(f"cannot read config file {path}: not a regular file")
            data = fh.read(MAX_CONFIG_BYTES + 1)
        if len(data) > MAX_CONFIG_BYTES:
            raise ConfigError(f"cannot read config file {path}: larger than {MAX_CONFIG_BYTES} bytes")
        lines = io.StringIO(data.decode("utf-8"), newline=None).readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        name = _KEYS[key]
        kind = SETTINGS[name].type
        values[name] = _parse_bool(text) if kind is bool else _parse_value(text, kind, name)
    return values


def _parse_angles(value) -> tuple[float, float, float, float]:
    if isinstance(value, tuple):
        return value
    parts = [p.strip() for p in str(value).split(",")]
    if len(parts) != 4 or not all(parts):
        raise ConfigError(f"angles need exactly 4 comma-separated values, got {value!r}")
    return tuple(_parse_value(p, float, "angle") for p in parts)


def _checked(check: Callable, *args):
    """Run a library check, reporting its ValueError as a ConfigError with the same text."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    v = {}
    for name, setting in SETTINGS.items():
        flag = getattr(args, name, None)
        v[name] = flag if flag is not None else file_values.get(name, setting.default)
    v["mode"] = _checked(check_mode, v["mode"], "mode")
    v["choice_prob"] = _checked(check_choice_prob, v["choice_prob"], "choice-prob")
    # Reduced modulo 2^64 as sample() does, so config.seed matches results.seed.
    v["seed"] = int(v["seed"]) % (1 << 64)
    samples = v["samples"]
    if samples is not None and samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    if samples is not None and samples > MAX_SAMPLES:
        raise ConfigError(f"samples must be <= {MAX_SAMPLES}, got {samples}")
    if args.command == "sample" and samples is None:
        raise ConfigError("the sample command requires --samples")
    v["epsilon"] = _checked(check_epsilon, v["epsilon"])
    v["tol"] = _checked(check_tol, v["tol"])
    if v["format"] not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {v['format']!r}")
    v["angles"] = angles = _parse_angles(v["angles"])
    if any(not math.isfinite(a) for a in angles):
        raise ConfigError(f"angles must be finite, got {angles!r}")
    v["diagonal"] = bool(v["diagonal"])
    return RunConfig(command=args.command, **v)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _scenario(cfg: RunConfig) -> Scenario:
    return Scenario(alice_mode=cfg.mode, bob_mode=cfg.mode, choice_prob=cfg.choice_prob)


def _distribution(cfg: RunConfig):
    d = outcome_distribution(build_final_density(_scenario(cfg)))
    if cfg.samples is not None:
        d = sample(d, cfg.samples, cfg.seed).empirical()
    return d


def _outcome_row(outcome, value_name: str, value) -> dict:
    return {"q1": outcome.q1, "q2": outcome.q2, "q3": outcome.q3, "q4": outcome.q4, value_name: value}


def _outcome_view(rows: list[dict], value_name: str, table: bool) -> list:
    if table:
        return [f"q1 q2 q3 q4 {value_name}"] + [
            f"{r['q1']:+d} {r['q2']:+d} {r['q3']:+d} {r['q4']:+d} {_fmt(r[value_name])}" for r in rows
        ]
    return [["q1", "q2", "q3", "q4", value_name]] + [list(r.values()) for r in rows]


def _fields(results: dict, *names: str) -> list[list]:
    return [[name, results[name]] for name in names]


def _run_rho(cfg: RunConfig) -> dict:
    rho = build_final_density(_scenario(cfg))
    if cfg.diagonal:
        probs = outcome_distribution(rho)
        return {"diagonal": [_outcome_row(o, "probability", probs.probs[o]) for o in OUTCOMES]}
    return {"real": rho.matrix.real.tolist(), "imag": rho.matrix.imag.tolist()}


def _view_rho(results: dict, table: bool) -> list:
    if "diagonal" in results:
        return _outcome_view(results["diagonal"], "probability", table)
    real, imag = results["real"], results["imag"]
    if table:
        lines = [" ".join(_fmt(x) for x in row) for row in real + imag]
        return ["final density matrix, real part (rows of 16):", *lines[:16], "imaginary part:", *lines[16:]]
    return [["row", "col", "real", "imag"]] + [
        [i, j, re_row[j], im_row[j]] for i, (re_row, im_row) in enumerate(zip(real, imag)) for j in range(16)
    ]


# (target, given) labels of HARDY_FACTS, such as ("q3=+1,q4=+1", "q1=+1,q2=+1").
_FACT_LABELS = [tuple(EventPredicate(event).label for event in fact) for fact in HARDY_FACTS]


def _run_hardy(cfg: RunConfig) -> dict:
    report = hardy_chain_check(_distribution(cfg), cfg.epsilon)
    facts = [
        {"name": f"f{i}", "target": target, "given": given, "value": value, "established": flag}
        for i, ((target, given), value, flag) in enumerate(zip(_FACT_LABELS, report.values, report.established))
    ]
    return {**vars(report), "verdict": report.verdict, "facts": facts}


def _view_hardy(results: dict, table: bool) -> list:
    facts = results["facts"]
    if table:
        lines = [f"hardy chain (epsilon={_fmt(results['epsilon'])})"]
        for f in facts:
            flag = "established" if f["established"] else "NOT ESTABLISHED"
            lines.append(f"{f['name']} = P({f['target']} | {f['given']}) = {_fmt(f['value'])}  [{flag}]")
        return lines + [f"verdict: {results['verdict']}"]
    rows = [["field", "value", "established"], *([f["name"], f["value"], f["established"]] for f in facts)]
    return rows + [["contradiction", results["contradiction"], ""], ["verdict", results["verdict"], ""]]


def _table_payload(table) -> dict:
    pairs = [list(pair) for pair in PAIR_ORDER]
    return {"inputs": pairs, "outputs": pairs, "entries": table.entries.tolist()}


def _table_lines(results: dict) -> list[str]:
    """The conditional table of a nosignal or lhv result, then its two signaling deltas."""
    table = results["table"]
    return [
        "P(q3,q4|q1,q2)  " + " ".join(f"({a:+d},{b:+d})" for a, b in table["outputs"]),
        *(
            f"({a:+d},{b:+d})  " + " ".join(_fmt(x) for x in row)
            for (a, b), row in zip(table["inputs"], table["entries"])
        ),
        f"delta_q3 = {_fmt(results['delta_q3'])}",
        f"delta_q4 = {_fmt(results['delta_q4'])}",
    ]


def _run_nosignal(cfg: RunConfig) -> dict:
    table = conditional_table(_distribution(cfg))
    report = no_signaling_check(table, cfg.tol)
    return {**vars(report), "verdict": report.verdict, "table": _table_payload(table)}


def _view_nosignal(results: dict, table: bool) -> list:
    if table:
        return [*_table_lines(results), f"verdict: {results['verdict']} (tol={_fmt(results['tol'])})"]
    return [["field", "value"], *_fields(results, "delta_q3", "delta_q4", "signaling", "verdict", "tol")]


def _run_chsh(cfg: RunConfig) -> dict:
    angles = dict(vars(ChshSettings(*cfg.angles)))
    state = bell_state()
    # `correlator` is looked up in this module on each call, so it can be patched here.
    correlators = {f"e_{a}_{b}": correlator(state, angles[a], angles[b]) for a in ("a0", "a1") for b in ("b0", "b1")}
    return {
        "angles": angles,
        "correlators": correlators,
        "chsh": chsh_combination(*correlators.values()),
        "classical_bound": CLASSICAL_BOUND,
        "quantum_maximum": TSIRELSON_BOUND,
    }


def _view_chsh(results: dict, table: bool) -> list:
    angles, correlators = results["angles"], results["correlators"]
    if table:
        return [
            "settings: " + " ".join(f"{k}={_fmt(v)}" for k, v in angles.items()),
            *(f"{k} = {_fmt(v)}" for k, v in correlators.items()),
            f"chsh = {_fmt(results['chsh'])}",
            f"classical_bound = {_fmt(results['classical_bound'])}, "
            f"quantum_maximum = {_fmt(results['quantum_maximum'])}",
        ]
    return [["field", "value"], *angles.items(), *correlators.items(), ["chsh", results["chsh"]]]


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


def _view_lhv(results: dict, table: bool) -> list:
    combinations = [(",".join(f"{s:+d}" for s in c["signs"]), c["value"]) for c in results["combinations"]]
    if table:
        return [
            *_table_lines(results),
            *(f"combination ({signs}) = {_fmt(value)}" for signs, value in combinations),
            f"verdict: {results['verdict']} (tol={_fmt(results['tol'])})",
            f"witness: {results['witness']}",
        ]
    rows = [["field", "value"], *_fields(results, "verdict", "delta_q3", "delta_q4")]
    rows += [[f"combination({signs})", value] for signs, value in combinations]
    return rows + _fields(results, "witness", "tol")


def _run_sample(cfg: RunConfig) -> dict:
    report = sample(outcome_distribution(build_final_density(_scenario(cfg))), cfg.samples, cfg.seed)
    return {**vars(report), "counts": [_outcome_row(o, "count", report.counts[o]) for o in OUTCOMES]}


def _view_sample(results: dict, table: bool) -> list:
    header = [f"n={results['n']} seed={results['seed']} tv_distance={_fmt(results['tv_distance'])}"] if table else []
    return header + _outcome_view(results["counts"], "count", table)


class Command(NamedTuple):
    """A subcommand's help, its runner, and its view; view(results, table) builds table lines, else CSV rows."""

    help: str
    run: Callable[[RunConfig], dict]
    view: Callable[[dict, bool], list]


_COMMANDS = {
    "rho": Command("print the final four-qubit density matrix", _run_rho, _view_rho),
    "hardy": Command("run the four-fact contradiction chain", _run_hardy, _view_hardy),
    "nosignal": Command("check the inverted-scenario no-signaling conditions", _run_nosignal, _view_nosignal),
    "chsh": Command("evaluate the CHSH combination on the entangled pair", _run_chsh, _view_chsh),
    "lhv": Command("decide local-polytope membership of the inverted-scenario table", _run_lhv, _view_lhv),
    "sample": Command("draw seeded outcomes and report counts", _run_sample, _view_sample),
}
COMMANDS = tuple(_COMMANDS)


def run(cfg: RunConfig) -> dict:
    config = {k: v for k, v in vars(cfg).items() if k in SETTINGS and SETTINGS[k].command in (None, cfg.command)}
    return {"command": cfg.command, "config": config, "results": _COMMANDS[cfg.command].run(cfg)}


def render(cfg: RunConfig, payload: dict) -> str:
    if cfg.format == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    view = _COMMANDS[cfg.command].view
    if cfg.format == "table":
        return "\n".join(view(payload["results"], True)) + "\n"
    buffer = io.StringIO()
    rows = view(payload["results"], False)
    csv.writer(buffer, lineterminator="\n").writerows(map(_fmt, row) for row in rows)
    return buffer.getvalue()


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
