#!/usr/bin/env python3
"""Scan the exact half split over 1..2^M for a range of M.

For each M the within-theorem steps 1..M-1 must tally exactly (2^{M-1},
2^{M-1}); they are counted by residue classes.  The first step past the bound
is tallied too, by walking every start, to show where the guarantee stops
being a guarantee (it may still split evenly by accident); above the direct
method's element budget that step is skipped.
"""

import argparse
import time

from collatzlab.halfsplit import DIRECT_ELEMENT_LIMIT, ResourceLimitError, halfsplit_verify


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--min-M", type=int, default=2)
    ap.add_argument("--max-M", type=int, default=16)
    args = ap.parse_args()

    for M in range(args.min_M, args.max_M + 1):
        t0 = time.perf_counter()
        try:
            report = halfsplit_verify(M, method="classes")
        except ResourceLimitError as exc:
            raise SystemExit(f"M={M}: {exc}")
        ok = report.exact_split()
        if 1 << M <= DIRECT_ELEMENT_LIMIT:
            extra = halfsplit_verify(M, steps=M).tallies[-1]
            note = f"; step {M} (outside bound): ({extra.increases}, {extra.decreases})"
        else:
            note = f"; step {M} (outside bound) skipped: 2^{M} starts exceed the direct budget"
        dt = time.perf_counter() - t0
        print(
            f"M={M:>2}: steps 1..{M - 1} all exactly "
            f"({1 << (M - 1)}, {1 << (M - 1)}): {ok} [{dt:.2f}s]{note}"
        )
        if not ok:
            raise SystemExit(f"half split FAILED at M={M}")


if __name__ == "__main__":
    main()
