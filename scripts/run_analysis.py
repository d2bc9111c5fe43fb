#!/usr/bin/env python3
"""Walk the full pipeline for one scenario and print every analysis.

Usage: python scripts/run_analysis.py [--mode coin] [--choice-prob 0.3]
"""

import argparse

import numpy as np

from invbell.cli import MAX_SAMPLES
from invbell.errors import MissingSupport
from invbell.lhv import conditional_table, local_polytope_check, no_signaling_check, PAIR_ORDER
from invbell.protocol import CHOICE_MODES, OUTCOMES, Scenario, build_final_density, check_choice_prob, outcome_distribution
from invbell.reality import DEFAULT_EPSILON, certainty_predictions, hardy_chain_check, response_model_refutation
from invbell.stats import sample


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", default="coherent", choices=CHOICE_MODES)
    parser.add_argument("--choice-prob", type=float, default=0.5)
    parser.add_argument("--samples", type=int, default=0, help=f"0 = exact analysis, else at most {MAX_SAMPLES} draws")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    try:
        check_choice_prob(args.choice_prob, "--choice-prob")
    except ValueError as exc:
        parser.error(str(exc))
    if not 0 <= args.samples <= MAX_SAMPLES:
        parser.error(f"--samples must be 0 or in 1..{MAX_SAMPLES}, got {args.samples}")

    scenario = Scenario(alice_mode=args.mode, bob_mode=args.mode, choice_prob=args.choice_prob)
    rho = build_final_density(scenario)
    d = outcome_distribution(rho)
    label = "exact"
    if args.samples > 0:
        d = sample(d, args.samples, args.seed).empirical()
        label = f"empirical (n={args.samples}, seed={args.seed})"

    print(f"scenario: mode={args.mode} choice_prob={args.choice_prob} ({label})")
    print("\noutcome distribution:")
    for outcome in OUTCOMES:
        print(f"  q=({outcome.q1:+d},{outcome.q2:+d},{outcome.q3:+d},{outcome.q4:+d})  p={d.probs[outcome]:.6f}")

    epsilon = DEFAULT_EPSILON if args.samples == 0 else 0.01
    chain = hardy_chain_check(d, epsilon)
    print(f"\nhardy chain (epsilon={epsilon}):")
    print(f"  f0={chain.f0:.6f} f1={chain.f1:.6f} f2={chain.f2:.6f} f3={chain.f3:.6f}")
    print(f"  verdict: {chain.verdict}")

    predictions = certainty_predictions(d, epsilon)
    print(f"\ncertainty predictions ({len(predictions)}):")
    for p in predictions[:8]:
        print(f"  [{p.given.label}] => {p.predicted_variable}={p.predicted_value:+d} (confidence {p.confidence:.6f})")
    if len(predictions) > 8:
        print(f"  ... and {len(predictions) - 8} more")

    try:
        table = conditional_table(d)
    except MissingSupport as exc:
        print(f"\ninverted-scenario analyses skipped: {exc}")
        return
    print("\ninverted-scenario table P(q3,q4 | q1,q2):")
    for (q1, q2), row in zip(PAIR_ORDER, np.asarray(table.entries)):
        cells = " ".join(f"{x:.4f}" for x in row)
        print(f"  ({q1:+d},{q2:+d})  {cells}")
    signaling = no_signaling_check(table)
    print(f"  delta_q3={signaling.delta_q3:.6f} delta_q4={signaling.delta_q4:.6f}")
    polytope = local_polytope_check(table)
    print(f"  polytope verdict: {polytope.verdict} ({polytope.witness})")

    survivors = response_model_refutation(d)
    print(f"\nresponse pairs surviving the support check: {len(survivors)}")
    for f, g in survivors:
        print(f"  q3=f(q1) with f(+1)={f.at_plus:+d}, f(-1)={f.at_minus:+d}; "
              f"q4=g(q2) with g(+1)={g.at_plus:+d}, g(-1)={g.at_minus:+d}")


if __name__ == "__main__":
    main()
