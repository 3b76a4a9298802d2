#!/usr/bin/env python3
"""Scan the exact half split over 1..2^M for a range of M.

For each M the within-theorem steps 1..M-1 must tally exactly (2^{M-1},
2^{M-1}); they are counted by residue classes.  Step M, the first past the
theorem's bound, is tallied by classes too: it always splits evenly as well,
since the shift law with m = 1 gives i and i + 2^(M-1) opposite parities
after M-1 steps.  For M = 3..14, step M+1 is the first step that does not.

Step M reads the depth-first walk of the shift law to level M-1, as the
within-theorem steps of M+1 do, so within the class work budget the scan
reaches M = 27 and stops at M = 28 with one line naming the budget.
"""

import argparse
import time

from collatzlab.halfsplit import ResourceLimitError, halfsplit_verify


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--min-M", type=int, default=2)
    ap.add_argument("--max-M", type=int, default=16)
    args = ap.parse_args()

    for M in range(args.min_M, args.max_M + 1):
        t0 = time.perf_counter()
        try:
            report = halfsplit_verify(M, steps=M, method="classes")
        except ResourceLimitError as exc:
            raise SystemExit(f"M={M}: {exc}")
        ok = report.exact_split()
        extra = report.tallies[-1]
        note = f"; step {extra.step} (outside bound): ({extra.increases}, {extra.decreases})"
        dt = time.perf_counter() - t0
        print(
            f"M={M:>2}: steps 1..{M - 1} all exactly "
            f"({1 << (M - 1)}, {1 << (M - 1)}): {ok} [{dt:.2f}s]{note}"
        )
        if not ok:
            raise SystemExit(f"half split FAILED at M={M}")


if __name__ == "__main__":
    main()
