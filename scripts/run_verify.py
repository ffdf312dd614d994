#!/usr/bin/env python3
"""Replay every built-in certificate and print the summary table.

The table is the stdout of `k3cert verify --all`; the Q-basis
determinant and the negative-control mutations follow it, so one run
shows the whole evidence surface.  Exits 1 when a mutation no longer
flips its expected check or the Q-basis determinant is 0; the documented
singular-k3 FAIL rows do not change the exit code.
"""

import sys, os
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from k3cert import cli
from k3cert.cases import mutation_kit, qbasis_check, run_mutation


def main():
    cli.run(["verify", "--all"])

    det, nonzero = qbasis_check()
    print(f"qbasis determinant: {det} ({'nonzero' if nonzero else 'ZERO'})")

    print("negative controls:")
    all_flipped = True
    for mut in mutation_kit():
        _, flipped = run_mutation(mut)
        all_flipped = all_flipped and flipped
        mark = "ok" if flipped else "UNEXPECTED"
        print(f"  {mut.mutation_id:26s} -> {mut.expected_check:20s} [{mark}]")
    return 0 if nonzero and all_flipped else 1


if __name__ == "__main__":
    sys.exit(main())
