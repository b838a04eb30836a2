"""Detecting information flow, and the branching model that avoids it.

Part 1 asks whether the ontic distribution after a discarded-outcome
measurement depends on *which* measurement ran.  For the collapse model the
answer is emphatic: measuring z leaves atoms at the z poles, measuring x at
the x poles, total-variation distance 1, and a chi-square test of
homogeneity rejects at p = 0.  For the telegraph control the
post-measurement distribution is setting-independent: its p-value stays
above alpha, the two-sided 5-sigma tail that every verdict uses.

Part 2 verifies the branching model end to end: its Monte Carlo joint
passes a chi-square goodness-of-fit test against the exact
sequential-measurement oracle, its ontic pair (x0, x1) is bit-identical
before and after every run, and flipping its second-device bookkeeping to
use the *first* party's direction (a tempting but wrong reading of the
protocol) demonstrably breaks the agreement.
"""

import numpy as np

from ontolab import (
    MAXIMALLY_MIXED,
    BeltramettiBugajski,
    Telegraph,
    branching_no_erasure_check,
    joint_expectation,
    noflow_test,
    sequential_joint,
)
from ontolab.information import ALPHA, chi_square_test

RUNS = 500_000
Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)


def report_flow(label, rep):
    flag = "FLOW DETECTED" if rep.flow_detected else "no flow"
    print(
        f"  {label:<28} TV = {rep.tv:.4f}  chi2 = {rep.chi2:.4g} (df {rep.df})"
        f"  p = {rep.p_value:.3g}  -> {flag}"
    )


def main():
    print(f"part 1: does the post-measurement distribution remember the setting? (alpha = {ALPHA:.3g})")
    report_flow("collapse, z vs x", noflow_test(BeltramettiBugajski(), Z, X, RUNS, seed=41))
    report_flow("collapse, z vs z", noflow_test(BeltramettiBugajski(), Z, Z, RUNS, seed=42))
    report_flow("telegraph, z vs x", noflow_test(Telegraph(1.0), Z, X, RUNS, seed=43))

    print("\npart 2: the branching model against the exact oracle")
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([0.0, np.sin(np.pi / 4), np.cos(np.pi / 4)])
    exact = sequential_joint(MAXIMALLY_MIXED, [a, b])
    # the second device's bookkeeping along b (the protocol's) and along a, from
    # one draw, each of whose runs is also checked to leave (x0, x1) untouched
    check = branching_no_erasure_check(a, b, RUNS, seed=44)
    for variant, probs, counts in zip(("b", "a"), check.joint, check.counts):
        dev = np.abs(probs - exact).max()
        _, _, p_value = chi_square_test(counts.ravel(), RUNS * exact.ravel())
        print(
            f"  second-device bookkeeping '{variant}':"
            f"  E = {joint_expectation(probs):+.4f} (exact {joint_expectation(exact):+.4f}),"
            f"  worst cell deviation {dev:.4f}, p = {p_value:.3g}"
        )

    print(f"\n  system pair untouched in every run: {check.immutable}")
    print(f"  no-erasure verdict: {'PASS' if check.immutable else 'FAIL'}")


if __name__ == "__main__":
    main()
