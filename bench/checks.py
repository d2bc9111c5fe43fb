"""Independent output checks for the invbell benchmark.

Nothing here calls into invbell: every expected value is derived again from
the physics (a closed-form outcome table), from integer counts, or from a
splitmix64 stream written out in this file.  Each check raises CheckFailed
with a message naming what disagreed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re

import numpy as np

SIGNS = (1, -1)
VARIABLES = ("q1", "q2", "q3", "q4")
# Outcome quadruples in basis-index order: q1 is the most significant bit, bit 0 means +1.
CELLS = tuple(itertools.product(SIGNS, repeat=4))
PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
# F0..F3 of the chain as (target, given) over (q1, q2, q3, q4) positions.
CHAIN = (
    ({2: 1, 3: 1}, {0: 1, 1: 1}),
    ({3: -1}, {0: 1, 1: -1, 2: 1}),
    ({2: -1}, {0: -1, 1: 1, 3: 1}),
    ({2: -1, 3: -1}, {0: -1, 1: -1}),
)
CHSH_PATTERNS = tuple(
    tuple(-s if k == j else s for j in range(4)) for k in range(4) for s in (1, -1)
)
TIGHT = 1e-12


class CheckFailed(Exception):
    """An output disagrees with its independent expectation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, what: str) -> None:
    expect(abs(a - b) <= TIGHT, f"{what}: {a!r} != {b!r} (tol {TIGHT})")


# ---------------------------------------------------------------- tables


def closed_form_table(p: float) -> dict:
    """P(q1..q4) = w(q3) w(q4) pair(q1, q2 | bases) for the phi-minus pair.

    w(+1) = p and w(-1) = 1 - p; a register at +1 means the Z basis.  ZZ
    correlates the pair (1/2 on q1 = q2), XX anticorrelates it (1/2 on
    q1 != q2), and a mixed basis pair is uniform (1/4).
    """
    table = {}
    for cell in CELLS:
        q1, q2, q3, q4 = cell
        if q3 == q4 == 1:
            pair = 0.5 if q1 == q2 else 0.0
        elif q3 == q4 == -1:
            pair = 0.5 if q1 != q2 else 0.0
        else:
            pair = 0.25
        table[cell] = (p if q3 == 1 else 1.0 - p) * (p if q4 == 1 else 1.0 - p) * pair
    return table


def event_weights(table: dict) -> dict:
    """Weight of every partial assignment, keyed by a 4-tuple with None for a free variable.

    Integer count tables give integer weights, so conditionals on counts are
    exact ratios.
    """
    grid = np.array([table[cell] for cell in CELLS]).reshape(2, 2, 2, 2)  # axis value 0 means +1
    weights = {}
    for key in itertools.product((None, 1, -1), repeat=4):
        index = tuple(slice(None) if k is None else (1 - k) // 2 for k in key)
        weights[key] = grid[index].sum().item()
    return weights


def conditional(weights: dict, target: dict, given: dict) -> float:
    """P(target | given) for {position: value} events."""
    joint = dict(given)
    for i, s in target.items():
        if joint.get(i, s) != s:
            return 0.0
        joint[i] = s
    return weights[_key(joint)] / weights[_key(given)]


def _key(event: dict) -> tuple:
    return tuple(map(event.get, range(4)))


def chain(weights: dict, epsilon: float) -> tuple[list[float], bool]:
    values = [conditional(weights, t, g) for t, g in CHAIN]
    verdict = values[0] > epsilon and min(values[1], values[2]) >= 1 - epsilon and values[3] <= epsilon
    return values, verdict


def certainty_set(weights: dict, epsilon: float) -> dict:
    """{(given items, variable, value): confidence} for every near-certain conditional."""
    found = {}
    for var in range(4):
        others = [i for i in range(4) if i != var]
        for assignment in itertools.product((None, 1, -1), repeat=3):
            given = {i: a for i, a in zip(others, assignment) if a is not None}
            if weights[_key(given)] <= 0:
                continue
            for value in SIGNS:
                confidence = conditional(weights, {var: value}, given)
                if confidence >= 1 - epsilon:
                    key = (tuple(sorted((VARIABLES[i], a) for i, a in given.items())), VARIABLES[var], value)
                    found[key] = confidence
    return found


def conditional_rows(weights: dict) -> list[list[float]]:
    """P(q3, q4 | q1, q2), rows and columns in PAIRS order."""
    return [[conditional(weights, {2: c, 3: d}, {0: a, 1: b}) for c, d in PAIRS] for a, b in PAIRS]


def signaling_deltas(rows) -> tuple[float, float]:
    def q3_plus(a, b):
        row = rows[PAIRS.index((a, b))]
        return row[0] + row[1]

    def q4_plus(a, b):
        row = rows[PAIRS.index((a, b))]
        return row[0] + row[2]

    dq3 = max(abs(q3_plus(a, 1) - q3_plus(a, -1)) for a in SIGNS)
    dq4 = max(abs(q4_plus(1, b) - q4_plus(-1, b)) for b in SIGNS)
    return dq3, dq4


def chsh_combinations(rows) -> list[float]:
    correlators = [sum(r[j] * PAIRS[j][0] * PAIRS[j][1] for j in range(4)) for r in rows]
    return [sum(s * e for s, e in zip(pattern, correlators)) for pattern in CHSH_PATTERNS]


def _strategy_matrix() -> np.ndarray:
    """Columns are the 16 deterministic tables q3 = f(q1), q4 = g(q2); the last row sums weights."""
    columns = []
    for f in itertools.product(SIGNS, repeat=2):
        for g in itertools.product(SIGNS, repeat=2):
            col = np.zeros(16)
            for i, (a, b) in enumerate(PAIRS):
                out = (f[0] if a == 1 else f[1], g[0] if b == 1 else g[1])
                col[4 * i + PAIRS.index(out)] = 1.0
            columns.append(col)
    return np.vstack([np.array(columns).T, np.ones(16)])


_STRATEGIES = _strategy_matrix()


def lp_local(rows) -> bool:
    """Feasibility of rows as a convex mixture of the 16 deterministic strategies."""
    from scipy.optimize import linprog

    b = np.append(np.asarray(rows, dtype=float).reshape(16), 1.0)
    result = linprog(np.zeros(16), A_eq=_STRATEGIES, b_eq=b, bounds=(0, None), method="highs")
    return result.status == 0


def check_density(matrix: np.ndarray) -> None:
    close(float(np.abs(matrix - matrix.conj().T).max()), 0.0, "rho Hermiticity defect")
    close(complex(np.trace(matrix)).real, 1.0, "rho trace")
    close(complex(np.trace(matrix)).imag, 0.0, "rho trace imaginary part")
    expect(float(np.linalg.eigvalsh(matrix).min()) >= -1e-10, "rho has a negative eigenvalue")


def check_lp(rows, local: bool) -> None:
    expect(lp_local(rows) == local, f"LP feasibility disagrees with the polytope verdict (local={local})")


def check_analyses(weights: dict, epsilon: float, tol: float, hardy, ns, poly, ctable) -> None:
    """Compare chain, table, signaling and polytope outputs against brute force on `weights`."""
    values, verdict = chain(weights, epsilon)
    for i, (got, want) in enumerate(zip(hardy.values, values)):
        close(got, want, f"F{i}")
    expect(all(hardy.established), "a chain fact is not established")
    expect(hardy.contradiction == verdict, f"chain verdict {hardy.contradiction} != {verdict}")
    rows = conditional_rows(weights)
    for i in range(4):
        for j in range(4):
            close(float(ctable.entries[i, j]), rows[i][j], f"conditional table [{i},{j}]")
    dq3, dq4 = signaling_deltas(rows)
    for report in (ns, poly.signaling):
        close(report.delta_q3, dq3, "delta_q3")
        close(report.delta_q4, dq4, "delta_q4")
        expect(report.signaling == (max(dq3, dq4) > tol), "signaling verdict")
    combos = chsh_combinations(rows)
    for got, want in zip(poly.combination_values, combos):
        close(got, want, "CHSH combination")
    if max(dq3, dq4) > tol:
        expect(poly.verdict == "signaling", f"polytope verdict {poly.verdict!r}, want 'signaling'")
        close(poly.witness_value, max(dq3, dq4), "signaling witness")
    else:
        want_verdict = "local" if max(combos) <= 2 + tol else "nonlocal-nosignaling"
        expect(poly.verdict == want_verdict, f"polytope verdict {poly.verdict!r}, want {want_verdict!r}")
    check_lp(rows, poly.verdict == "local")


def response_survivors(table: dict) -> set:
    """Response pairs q3 = f(q1), q4 = g(q2) that every (q1, q2) row can produce.

    A pair survives when each of its four predicted cells has probability
    above zero.  Keys are ((f(+1), f(-1)), (g(+1), g(-1))).
    """
    survivors = set()
    for f in itertools.product(SIGNS, repeat=2):
        for g in itertools.product(SIGNS, repeat=2):
            cells = [(a, b, f[0] if a == 1 else f[1], g[0] if b == 1 else g[1]) for a, b in PAIRS]
            if all(table[cell] > 0 for cell in cells):
                survivors.add((f, g))
    return survivors


def counts_table(counts) -> dict:
    """Integer count table keyed by quadruple, from a 16-entry basis-order sequence."""
    return {cell: int(c) for cell, c in zip(CELLS, counts)}


# ---------------------------------------------------------------- sampling

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(seed: int, index: int) -> int:
    """Output `index` (1-based) of the splitmix64 stream seeded with `seed`, in pure integers."""
    z = (seed + index * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def running_cdf(probs) -> list[float]:
    total, cdf = 0.0, []
    for p in probs:
        total += float(p)
        cdf.append(total)
    return cdf


def prefix_counts(probs, seed: int, n: int) -> list[int]:
    """Counts of the first n draws: outcome k is the first with u < cdf[k], capped at 15."""
    cdf = running_cdf(probs)
    counts = [0] * 16
    for i in range(1, n + 1):
        u = (splitmix64(seed & _MASK, i) >> 11) * 2.0**-53
        k = next((k for k, c in enumerate(cdf) if u < c), 15)
        counts[k] += 1
    return counts


def stream_counts(probs, seed: int, n: int) -> list[int]:
    """The same counts as prefix_counts, vectorised for larger n."""
    cdf = np.array(running_cdf(probs))
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _MASK) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    k = np.minimum((u[:, None] >= cdf[None, :]).sum(axis=1), 15)
    return np.bincount(k, minlength=16).tolist()


def tv_bound(n: int) -> float:
    """TV(empirical, exact) bound over 16 cells that fails with probability below 1e-12.

    E[TV] <= sqrt(16 / n) / 2 by Cauchy-Schwarz, and McDiarmid adds
    sqrt(ln(1e12) / (2n)).
    """
    return 0.5 * math.sqrt(16 / n) + math.sqrt(math.log(1e12) / (2 * n))


def check_counts(counts: list[int], probs, zero_cells, n: int, tv: float) -> None:
    expect(sum(counts) == n, f"counts sum to {sum(counts)}, not {n}")
    expect(all(c >= 0 for c in counts), "negative count")
    for k in zero_cells:
        expect(counts[k] == 0, f"impossible outcome {CELLS[k]} drawn {counts[k]} times")
    want_tv = 0.5 * math.fsum(abs(c / n - float(p)) for c, p in zip(counts, probs))
    close(tv, want_tv, "tv_distance")
    expect(tv <= tv_bound(n), f"tv_distance {tv} exceeds bound {tv_bound(n)} at n={n}")


# ---------------------------------------------------------------- CLI outputs


def _value(text: str):
    text = text.strip()
    if text in ("true", "false"):
        return text == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def flatten_json(command: str, results: dict) -> dict:
    """Every number and verdict of a JSON payload, keyed the way table and CSV label them."""
    flat = {}
    if command == "rho":
        for part in ("real", "imag"):
            for i, row in enumerate(results[part]):
                for j, x in enumerate(row):
                    flat[(part, i, j)] = x
    elif command == "hardy":
        for i in range(4):
            flat[f"f{i}"] = results[f"f{i}"]
        flat["contradiction"] = results["contradiction"]
        flat["verdict"] = results["verdict"]
    elif command == "chsh":
        flat.update(results["angles"])
        flat.update(results["correlators"])
        flat["chsh"] = results["chsh"]
        flat["classical_bound"] = results["classical_bound"]
        flat["quantum_maximum"] = results["quantum_maximum"]
    elif command == "sample":
        flat.update(n=results["n"], seed=results["seed"], tv_distance=results["tv_distance"])
        for row in results["counts"]:
            flat[("count", row["q1"], row["q2"], row["q3"], row["q4"])] = row["count"]
    else:
        for key in ("delta_q3", "delta_q4", "verdict", "tol"):
            flat[key] = results[key]
        if command == "nosignal":
            flat["signaling"] = results["signaling"]
        else:
            flat["witness"] = results["witness"]
            for combo in results["combinations"]:
                flat["combination(" + ",".join(f"{s:+d}" for s in combo["signs"]) + ")"] = combo["value"]
        for i, row in enumerate(results["table"]["entries"]):
            for j, x in enumerate(row):
                flat[("entry", i, j)] = x
    return flat


def parse_table(command: str, text: str) -> dict:
    lines = text.splitlines()
    flat = {}
    if command == "rho":
        for part, start in (("real", 1), ("imag", 18)):
            for i, line in enumerate(lines[start : start + 16]):
                for j, tok in enumerate(line.split()):
                    flat[(part, i, j)] = _value(tok)
        return flat
    if command == "sample":
        head = dict(tok.split("=") for tok in lines[0].split())
        flat.update({k: _value(v) for k, v in head.items()})
        for line in lines[2:]:
            q1, q2, q3, q4, c = (_value(t) for t in line.split())
            flat[("count", q1, q2, q3, q4)] = c
        return flat
    for line in lines:
        if command == "hardy" and (m := re.match(r"^(f\d) = P\(.*\) = (\S+)  \[", line)):
            flat[m[1]] = _value(m[2])
        elif m := re.match(r"^verdict: (\S+)(?: \(tol=(\S+)\))?$", line):
            flat["verdict"] = m[1]
            if m[2] is not None:
                flat["tol"] = _value(m[2])
        elif m := re.match(r"^witness: (.*)$", line):
            flat["witness"] = m[1]
        elif m := re.match(r"^settings: (.*)$", line):
            flat.update({k: _value(v) for k, v in (t.split("=") for t in m[1].split())})
        elif m := re.match(r"^\(([+-]1),([+-]1)\)  (.*)$", line):
            i = PAIRS.index((int(m[1]), int(m[2])))
            for j, tok in enumerate(m[3].split()):
                flat[("entry", i, j)] = _value(tok)
        elif m := re.match(r"^(\S+) (\(\S+\)) = (\S+)$", line):
            flat[m[1] + m[2]] = _value(m[3])
        elif m := re.match(r"^(\w+) = (\S+?),?(?: (\w+) = (\S+))?$", line):
            flat[m[1]] = _value(m[2])
            if m[3]:
                flat[m[3]] = _value(m[4])
    return flat


def parse_csv(command: str, text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    flat = {}
    if command == "rho":
        for r, c, re_, im in rows[1:]:
            flat[("real", int(r), int(c))] = _value(re_)
            flat[("imag", int(r), int(c))] = _value(im)
    elif command == "sample":
        for q1, q2, q3, q4, c in rows[1:]:
            flat[("count", int(q1), int(q2), int(q3), int(q4))] = int(c)
    else:
        for row in rows[1:]:
            flat[row[0]] = _value(row[1])
    return flat


# Fields a table or CSV rendering must carry, beyond which every parsed field is compared.
REQUIRED = {
    "rho": 512,
    "hardy": 5,
    "nosignal": 4,
    "chsh": 9,
    "lhv": 12,
    "sample": 16,
}


def check_rendering(command: str, fmt: str, text: str, json_text: str) -> None:
    """Table or CSV output parses back to the numbers of the JSON output for the same call."""
    flat = flatten_json(command, json.loads(json_text)["results"])
    parsed = parse_table(command, text) if fmt == "table" else parse_csv(command, text)
    expect(len(parsed) >= REQUIRED[command], f"{command} {fmt}: only {len(parsed)} fields parsed")
    for key, value in parsed.items():
        expect(key in flat, f"{command} {fmt}: unexpected field {key!r}")
        want = flat[key]
        expect(value == want and type(value) is type(want), f"{command} {fmt}: {key!r} = {value!r}, JSON has {want!r}")
