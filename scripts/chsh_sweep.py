#!/usr/bin/env python3
"""Random-settings CHSH sweep on the entangled pair.

Samples measurement-angle quadruples, reports the largest |S| seen, and
checks it against the classical bound 2 and the quantum maximum 2*sqrt(2).

Usage: python scripts/chsh_sweep.py [--draws 10000] [--seed 1]
"""

import argparse
import math

import numpy as np

from invbell.cli import DEFAULT_ANGLES
from invbell.protocol import bell_state
from invbell.stats import CLASSICAL_BOUND, ChshSettings, TSIRELSON_BOUND, chsh_value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--draws", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.draws < 1:
        parser.error(f"--draws must be >= 1, got {args.draws}")

    rng = np.random.default_rng(args.seed)
    pair = bell_state()
    best = 0.0
    best_settings = None
    violations = 0
    for _ in range(args.draws):
        angles = rng.uniform(-math.pi, math.pi, size=4)
        value = abs(chsh_value(pair, ChshSettings(*angles)))
        if value > CLASSICAL_BOUND:
            violations += 1
        if value > best:
            best, best_settings = value, angles
    optimum = chsh_value(pair, ChshSettings(*DEFAULT_ANGLES))

    print(f"draws: {args.draws} (seed {args.seed})")
    print(f"classical bound exceeded in {violations} draws ({100.0 * violations / args.draws:.1f}%)")
    print(f"largest |S| in sweep: {best:.10f}")
    print("at angles: " + " ".join(f"{a:+.6f}" for a in best_settings))
    print(f"S at the known optimum: {optimum:.10f}")
    print(f"quantum maximum 2*sqrt(2) = {TSIRELSON_BOUND:.10f}")
    assert best <= TSIRELSON_BOUND + 1e-9, "sweep exceeded the quantum maximum"


if __name__ == "__main__":
    main()
