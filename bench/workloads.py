"""The three benchmark workloads.

Each workload turns (seed, round number) into a fixed list of operations, so
the same seed gives the same inputs however long a run lasts, and every run
attempts whole rounds.  `ops(r)` returns (label, thunk) pairs whose thunks
call invbell through module attributes, which is what lets the tracer rebind
them.  `check(r, outputs)` compares a round's outputs with bench.checks and
returns one failure message (or None) per operation.  `rss_rounds` is the
fixed number of rounds that rss.py runs to read peak memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import checks
from invbell import cli, lhv, protocol, reality, stats

EPSILON = 1e-9
TOL = 1e-9
P_RANGE = (0.01, 0.99)


def _rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class ExactSweep:
    """One fresh scenario per operation, analysed exactly; modes alternate."""

    name = "exact_sweep"
    imports = "import invbell.protocol, invbell.reality, invbell.lhv"
    rss_rounds = 20

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        # Operations whose response-model survivors differ from the closed form's
        # (see response_model_refutation in check); reported, not failed.
        self.refutation_mismatches = 0

    def scenarios(self, r: int) -> list[tuple[str, float]]:
        rng = _rng(self.seed, r)
        return [(mode, float(rng.uniform(*P_RANGE))) for mode in ("coherent", "coin")]

    def ops(self, r: int):
        return [(f"exact.{mode}", lambda m=mode, p=p: self._op(m, p)) for mode, p in self.scenarios(r)]

    @staticmethod
    def _op(mode: str, p: float):
        rho = protocol.build_final_density(protocol.Scenario(mode, mode, p))
        d = protocol.outcome_distribution(rho)
        chain = reality.hardy_chain_check(d)
        certain = reality.certainty_predictions(d)
        survivors = reality.response_model_refutation(d)
        table = lhv.conditional_table(d)
        ns = lhv.no_signaling_check(table)
        poly = lhv.local_polytope_check(table)
        return rho, d, chain, certain, survivors, table, ns, poly

    def check(self, r: int, outputs):
        failures = []
        for i, ((mode, p), out) in enumerate(zip(self.scenarios(r), outputs)):
            try:
                if isinstance(out, BaseException):
                    raise out
                rho, d, chain, certain, survivors, table, ns, poly = out
                cf = checks.closed_form_table(p)
                diagonal = np.real(np.diagonal(rho.matrix))
                for k, cell in enumerate(checks.CELLS):
                    checks.close(d.probs[cell], cf[cell], f"P{cell} ({mode}, p={p!r})")
                    checks.close(float(diagonal[k]), cf[cell], f"rho diagonal {cell}")
                checks.check_density(rho.matrix)
                weights = checks.event_weights(cf)
                checks.check_analyses(weights, EPSILON, TOL, chain, ns, poly, table)
                want = checks.certainty_set(weights, EPSILON)
                got = {
                    (tuple(sorted(c.given.constraints.items())), c.predicted_variable, c.predicted_value): c.confidence
                    for c in certain
                }
                checks.expect(got.keys() == want.keys(), f"certainty predictions differ: {sorted(got.keys() ^ want.keys())}")
                for key, confidence in got.items():
                    checks.close(confidence, want[key], f"confidence of {key}")
                # response_model_refutation refutes a pair only on a cell that is exactly
                # zero, and roundoff leaves about 1e-34 on cells the closed form makes zero
                # for almost every choice_prob.  Its survivors are therefore checked by
                # brute force on the distribution it was given; the closed form's
                # survivors must be among them, and a difference from the closed form
                # is counted and reported rather than failed.
                got = {((f.at_plus, f.at_minus), (g.at_plus, g.at_minus)) for f, g in survivors}
                checks.expect(len(got) == len(survivors), "duplicate response pairs")
                own = checks.response_survivors({cell: d.probs[cell] for cell in checks.CELLS})
                checks.expect(got == own, f"response survivors {sorted(got ^ own)} differ from brute force")
                exact = checks.response_survivors(cf)
                checks.expect(exact <= got, f"closed-form survivors {sorted(exact - got)} refuted")
                self.refutation_mismatches += got != exact
                failures.append(None)
            except Exception as exc:  # any fault in the op or its output counts the op as failed
                failures.append(_failure(exc))
        return failures


class SampledStudy:
    """Seeded sampling of a pooled scenario, then the chain and polytope on the empirical table."""

    name = "sampled_study"
    imports = "import invbell.stats, invbell.reality, invbell.lhv"
    pool_size = 8
    rss_rounds = 4
    check_every = 8  # rounds between the prefix and chunking checks

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.draws = 20_000 if quick else 500_000
        rng = np.random.default_rng([seed, 1 << 32])
        self.pool = []
        for k in range(self.pool_size):
            mode = ("coherent", "coin")[k % 2]
            p = float(rng.uniform(*P_RANGE))
            d = protocol.outcome_distribution(protocol.build_final_density(protocol.Scenario(mode, mode, p)))
            cf = checks.closed_form_table(p)
            probs = [d.probs[cell] for cell in checks.CELLS]
            for cell, prob in zip(checks.CELLS, probs):
                checks.close(prob, cf[cell], f"pool scenario {k} P{cell}")
            zeros = [j for j, cell in enumerate(checks.CELLS) if cf[cell] == 0.0]
            self.pool.append((d, probs, zeros))

    def draws_for(self, r: int) -> list[tuple[int, int]]:
        rng = _rng(self.seed, r)
        return [(int(rng.integers(self.pool_size)), int(rng.integers(0, 1 << 63))) for _ in range(2)]

    def ops(self, r: int):
        return [(f"sampled.{k}", lambda k=k, s=s: self._op(self.pool[k][0], s)) for k, s in self.draws_for(r)]

    def _op(self, d, seed: int):
        report = stats.sample(d, self.draws, seed)
        empirical = report.empirical()
        chain = reality.hardy_chain_check(empirical)
        table = lhv.conditional_table(empirical)
        ns = lhv.no_signaling_check(table)
        poly = lhv.local_polytope_check(table)
        return report, chain, table, ns, poly

    def check(self, r: int, outputs):
        failures = []
        for i, ((k, seed), out) in enumerate(zip(self.draws_for(r), outputs)):
            try:
                if isinstance(out, BaseException):
                    raise out
                report, chain, table, ns, poly = out
                d, probs, zeros = self.pool[k]
                counts = [report.counts[cell] for cell in checks.CELLS]
                checks.expect(report.n == self.draws and report.seed == seed, "report n or seed")
                checks.check_counts(counts, probs, zeros, self.draws, report.tv_distance)
                if r % self.check_every == 0 and i == 0:
                    prefix = stats.sample(d, 2048, seed).counts
                    want = checks.prefix_counts(probs, seed, 2048)
                    checks.expect([prefix[c] for c in checks.CELLS] == want, "2048-draw prefix differs from splitmix64 reference")
                    rechunked = stats.sample(d, self.draws, seed, chunk_size=4099).counts
                    checks.expect([rechunked[c] for c in checks.CELLS] == counts, "counts change with chunk_size")
                weights = checks.event_weights(checks.counts_table(counts))
                checks.check_analyses(weights, EPSILON, TOL, chain, ns, poly, table)
                failures.append(None)
            except Exception as exc:  # any fault in the op or its output counts the op as failed
                failures.append(_failure(exc))
        return failures


# Configurations resolve_config must reject with exit code 2.
INVALID = (
    ["hardy", "--mode", "bogus"],
    ["nosignal", "--choice-prob", "1.5"],
    ["chsh", "--angles", "1,2,3"],
    ["sample", "--seed", "3"],
    ["lhv", "--epsilon", "0.7"],
    ["rho", "--format", "xml"],
    ["hardy", "--samples", "0"],
)
DEGENERATE = ["lhv", "--choice-prob", "1"]
SAMPLED_COMMANDS = ("hardy", "nosignal", "lhv", "sample")


class CliSession:
    """In-process `invbell` calls: six subcommands x three formats, then two documented errors."""

    name = "cli_session"
    imports = "import invbell.cli"
    rss_rounds = 5

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        d = protocol.outcome_distribution(protocol.build_final_density(protocol.Scenario()))
        self.cf = checks.closed_form_table(0.5)
        self.probs = [d.probs[cell] for cell in checks.CELLS]
        for cell, prob in zip(checks.CELLS, self.probs):
            checks.close(prob, self.cf[cell], f"default scenario P{cell}")
        self.zeros = [j for j, cell in enumerate(checks.CELLS) if self.cf[cell] == 0.0]

    def args_for(self, r: int):
        rng = _rng(self.seed, r)
        n = int(rng.integers(5000, 10_001))
        seed = int(rng.integers(0, 1 << 63))
        angles = [float(a) for a in rng.uniform(-math.pi, math.pi, 4)]
        return n, seed, angles

    def argvs(self, r: int) -> list[tuple[list[str], int]]:
        n, seed, angles = self.args_for(r)
        calls = []
        for command in cli.COMMANDS:
            extra = []
            if command in SAMPLED_COMMANDS:
                extra = ["--samples", str(n), "--seed", str(seed)]
            elif command == "chsh":
                extra = ["--angles=" + ",".join(repr(a) for a in angles)]
            for fmt in cli.FORMATS:
                calls.append(([command, "--format", fmt, *extra], 0))
        calls.append((INVALID[r % len(INVALID)], 2))
        calls.append((DEGENERATE, 3))
        return calls

    def ops(self, r: int):
        return [(f"cli.{argv[0]}.{code}", lambda argv=argv: self._call(argv)) for argv, code in self.argvs(r)]

    @staticmethod
    def _call(argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, r: int, outputs):
        n, seed, angles = self.args_for(r)
        calls = self.argvs(r)
        counts = checks.stream_counts(self.probs, seed, n)
        failures = [None] * len(calls)
        json_text = {}
        for i, ((argv, want_code), out) in enumerate(zip(calls, outputs)):
            try:
                if isinstance(out, BaseException):
                    raise out
                code, stdout, stderr = out
                checks.expect(code == want_code, f"{argv}: exit {code}, documented {want_code}")
                if want_code:
                    prefix = "config error:" if want_code == 2 else "degenerate support:"
                    checks.expect(stdout == "" and stderr.startswith(prefix), f"{argv}: error output")
                    continue
                checks.expect(stderr == "", f"{argv}: stderr {stderr!r}")
                command, fmt = argv[0], argv[2]
                if fmt == "json":
                    json_text[command] = stdout
                    self._check_json(command, json.loads(stdout)["results"], n, seed, angles, counts)
            except Exception as exc:  # any fault in the call or its output counts the call as failed
                failures[i] = _failure(exc)
        # Table and CSV renderings must carry the JSON numbers of the same call.
        for i, ((argv, want_code), out) in enumerate(zip(calls, outputs)):
            if want_code or failures[i] or argv[2] == "json":
                continue
            try:
                checks.expect(argv[0] in json_text, f"{argv}: no JSON output to compare with")
                checks.check_rendering(argv[0], argv[2], out[1], json_text[argv[0]])
            except Exception as exc:  # any parse or compare fault counts the call as failed
                failures[i] = _failure(exc)
        return failures

    def _check_json(self, command, res, n, seed, angles, counts):
        """Independent checks of one JSON payload."""
        if command == "rho":
            matrix = np.array(res["real"]) + 1j * np.array(res["imag"])
            checks.check_density(matrix)
            for k, cell in enumerate(checks.CELLS):
                checks.close(float(matrix[k, k].real), self.cf[cell], f"rho diagonal {cell}")
            return
        if command == "chsh":
            a0, a1, b0, b1 = angles
            checks.expect([res["angles"][k] for k in ("a0", "a1", "b0", "b1")] == angles, "chsh angles")
            want = {"e_a0_b0": math.cos(a0 + b0), "e_a0_b1": math.cos(a0 + b1),
                    "e_a1_b0": math.cos(a1 + b0), "e_a1_b1": math.cos(a1 + b1)}
            for key, value in want.items():
                checks.close(res["correlators"][key], value, key)
            checks.close(res["chsh"], want["e_a0_b0"] + want["e_a0_b1"] + want["e_a1_b0"] - want["e_a1_b1"], "chsh")
            return
        if command == "sample":
            got = [None] * 16
            for row in res["counts"]:
                got[checks.CELLS.index((row["q1"], row["q2"], row["q3"], row["q4"]))] = row["count"]
            checks.expect(got == counts, "sample counts differ from the splitmix64 reference")
            checks.expect(res["n"] == n and res["seed"] == seed, "sample n or seed")
            checks.check_counts(got, self.probs, self.zeros, n, res["tv_distance"])
            return
        weights = checks.event_weights(checks.counts_table(counts))
        if command == "hardy":
            values, verdict = checks.chain(weights, EPSILON)
            for i, value in enumerate(values):
                checks.close(res[f"f{i}"], value, f"f{i}")
            checks.expect(res["established"] == [True] * 4, "hardy established flags")
            checks.expect(res["verdict"] == ("CONTRADICTION" if verdict else "CONSISTENT"), "hardy verdict")
            return
        rows = checks.conditional_rows(weights)
        for i in range(4):
            for j in range(4):
                checks.close(res["table"]["entries"][i][j], rows[i][j], f"{command} table [{i},{j}]")
        dq3, dq4 = checks.signaling_deltas(rows)
        checks.close(res["delta_q3"], dq3, "delta_q3")
        checks.close(res["delta_q4"], dq4, "delta_q4")
        signaling = max(dq3, dq4) > TOL
        if command == "nosignal":
            checks.expect(res["verdict"] == ("SIGNALING" if signaling else "NO-SIGNALING"), "nosignal verdict")
            return
        combos = checks.chsh_combinations(rows)
        for combo, want in zip(res["combinations"], combos):
            checks.close(combo["value"], want, "CHSH combination")
        if signaling:
            checks.expect(res["verdict"] == "signaling", f"lhv verdict {res['verdict']!r}")
        else:
            want_verdict = "local" if max(combos) <= 2 + TOL else "nonlocal-nosignaling"
            checks.expect(res["verdict"] == want_verdict, f"lhv verdict {res['verdict']!r}")
        checks.check_lp(rows, res["verdict"] == "local")


WORKLOADS = {w.name: w for w in (ExactSweep, SampledStudy, CliSession)}
