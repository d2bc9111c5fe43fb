#!/usr/bin/env python3
"""Known one-line faults that Tier-1 must catch, and a runner that checks it does.

Usage: python tests/mutants.py

Each mutant replaces one exact text in one file of the tree.  The runner
first runs Tier-1 on an unmutated copy, which must pass; its time sets the
per-mutant timeout.  Then, per mutant, it copies the tree to a temporary
directory, applies the mutant there and runs Tier-1 with -x, the mutated
module's own tests/test_<module>.py first, so that most mutants fail within
seconds.  A nonzero exit or a timeout counts as killed.  The exit status is
0 when every mutant is killed, 1 when any survives and 2 when the unmutated
tree fails.

Standard library only.  pytest does not collect this file;
tests/test_mutants.py checks that each old text still occurs exactly once,
so the list breaks loudly when the code moves.

Equivalent mutants, which no test can kill, are left out.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    reason: str


MUTANTS = (
    # Boundary relations: each is pinned by a test at tolerance or epsilon 0.
    Mutant(
        "polytope-bound-strict",
        "src/invbell/lhv.py",
        "elif values[worst] <= CLASSICAL_BOUND + sig.tol:",
        "elif values[worst] < CLASSICAL_BOUND + sig.tol:",
        "a deterministic strategy reaches exactly 2 and is local at tol 0",
    ),
    Mutant(
        "chain-anchor-not-strict",
        "src/invbell/reality.py",
        "and values[0] > epsilon",
        "and values[0] >= epsilon",
        "F0 = 0 is no realizable anchor, even at epsilon 0",
    ),
    Mutant(
        "certainty-strict",
        "src/invbell/reality.py",
        "if confidence >= 1.0 - epsilon:",
        "if confidence > 1.0 - epsilon:",
        "a conditional of exactly 1 is a certainty at epsilon 0",
    ),
    # Tolerances and input bounds: each is probed just inside and just outside.
    Mutant(
        "diagonal-not-clipped",
        "src/invbell/qcore.py",
        "    np.clip(diag, 0.0, None, out=diag)\n",
        "",
        "roundoff negativity on the diagonal must read as probability 0.0",
    ),
    Mutant(
        "negativity-slack-loose",
        "src/invbell/qcore.py",
        "if min_eig < -NEG_TOL:",
        "if min_eig < -1e-3:",
        "an eigenvalue of -1e-6 is no roundoff",
    ),
    Mutant(
        "hermiticity-tolerance-loose",
        "src/invbell/qcore.py",
        "if herm_defect > ATOL:",
        "if herm_defect > 1e-6:",
        "a Hermiticity defect of 1e-9 is no roundoff",
    ),
    Mutant(
        "distribution-sum-tolerance-loose",
        "src/invbell/protocol.py",
        "if abs(total - 1.0) > ATOL:",
        "if abs(total - 1.0) > 1e-6:",
        "probabilities summing to 1 + 1e-9 are no distribution",
    ),
    Mutant(
        "row-sum-tolerance-loose",
        "src/invbell/lhv.py",
        "if np.abs(row_sums - 1.0).max() > ATOL:",
        "if np.abs(row_sums - 1.0).max() > 1e-6:",
        "a conditional row summing to 1 + 1e-9 is no distribution",
    ),
    Mutant(
        "chunk-size-zero-accepted",
        "src/invbell/stats.py",
        "if chunk_size < 1:",
        "if chunk_size < 0:",
        "a chunk of zero draws must fail sample's own check, not reach range() with a zero step",
    ),
    # Faults that earlier changes checked by hand in scratch copies.
    Mutant(
        "bucket-edge-inclusive",
        "src/invbell/stats.py",
        "np.count_nonzero(u < c)",
        "np.count_nonzero(u <= c)",
        "a draw equal to cdf[k] belongs to bucket k + 1, as searchsorted(side='right') puts it",
    ),
    Mutant(
        "row-sum-not-exact",
        "src/invbell/lhv.py",
        "pair_probs = [math.fsum(row) for row in joint.tolist()]",
        "pair_probs = [float(np.sum(row)) for row in joint.tolist()]",
        "each conditional entry divides by the exact row sum, as stats.conditional does",
    ),
    Mutant(
        "register-amplitude-sign",
        "src/invbell/protocol.py",
        "    root = np.sqrt(w)\n",
        "    root = np.sqrt(w) * (1.0, -1.0)\n",
        "the sign keeps every diagonal entry but flips the coherences of the state",
    ),
    Mutant(
        "diagonal-from-amplitudes",
        "src/invbell/protocol.py",
        "    np.fill_diagonal(rho, (_DIAGONAL_SCALE * np.multiply.outer(w, w)).reshape(16))\n",
        "",
        "|amplitude|^2 rounds the square roots twice: p^2 / 2 at p = 0.3 reads 0.044999999999999984, not 0.045",
    ),
    Mutant(
        "finiteness-real-part-only",
        "src/invbell/qcore.py",
        "if not np.isfinite(arr).all():",
        "if not np.isfinite(arr.real).all():",
        "a NaN imaginary part passes the norm and Hermiticity checks, which compare NaN as False",
    ),
    Mutant(
        "combinations-by-matmul",
        "src/invbell/lhv.py",
        "    values = tuple(\n"
        "        float(sum(sign * e for sign, e in zip(pattern, correlators)))\n"
        "        for pattern in CHSH_SIGN_PATTERNS\n"
        "    )\n",
        "    values = tuple((np.array(CHSH_SIGN_PATTERNS, dtype=np.float64) @ correlators).tolist())\n",
        "an (8, 4) @ (4,) matmul changes the last bit of some combinations",
    ),
    Mutant(
        "q3-delta-wrong-axis",
        "src/invbell/lhv.py",
        "delta_q3 = float(np.abs(q3_plus[:, 0] - q3_plus[:, 1]).max())",
        "delta_q3 = float(np.abs(q3_plus[0] - q3_plus[1]).max())",
        "q3 signals when its marginal moves with the remote outcome q2, not with q1",
    ),
)


def tier1_files(tree: pathlib.Path, first: str = "") -> list[str]:
    """Tier-1's test files in name order, with `first` moved to the front."""
    files = sorted(p.relative_to(tree).as_posix() for p in (tree / "tests").glob("test_*.py"))
    # Left out: it finds every mutant by its text, not by its behaviour.
    files.remove("tests/test_mutants.py")
    return sorted(files, key=lambda name: name != first)


def run_tier1(tree: pathlib.Path, timeout: float | None, first: str = "") -> tuple[str, float]:
    """Run Tier-1 in `tree`, `first` first: returns ("passed" | "failed" | "timeout", seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
    start = time.monotonic()
    # A session of its own, so a timeout also stops any subprocess a test started.
    proc = subprocess.Popen(
        [sys.executable, *TIER1, *tier1_files(tree, first)], cwd=tree, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout", time.monotonic() - start
    return ("passed" if code == 0 else "failed"), time.monotonic() - start


def copy_tree(dest: pathlib.Path, mutant: Mutant | None = None) -> pathlib.Path:
    tree = dest / "tree"
    shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
    if mutant is not None:
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new))
    return tree


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        status, seconds = run_tier1(copy_tree(pathlib.Path(tmp)), timeout=None)
    print(f"unmutated tree: {status} in {seconds:.1f} s", flush=True)
    if status != "passed":
        return 2
    timeout = 3.0 * seconds + 60.0
    survivors = []
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            own_tests = f"tests/test_{pathlib.PurePath(mutant.path).stem}.py"
            status, seconds = run_tier1(copy_tree(pathlib.Path(tmp), mutant), timeout, own_tests)
        verdict = "SURVIVED" if status == "passed" else f"killed ({status})"
        print(f"{mutant.name:34s} {verdict:18s} {seconds:6.1f} s  {mutant.path}", flush=True)
        if status == "passed":
            survivors.append(mutant)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    for mutant in survivors:
        print(f"survived: {mutant.name}: {mutant.reason}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
