#!/usr/bin/env python3
"""Recompute the published 14-sample ratio table and its interval discrepancy.

Prints the embedded rows next to fresh seeded samples of the same shape, the
summary statistics, and the comparison between intervals computed from the
rows and the bounds the source printed (which do not follow from its rows).
"""

import argparse
import math
import statistics

from collatzlab.stats import (
    indicator_sample_std,
    interval_discrepancy_report,
    sample_ratios,
    sample_std,
)
from collatzlab.reference_table import REFERENCE_ROWS, SAMPLE_LENGTH

# Total-stopping-time reference slope from Applegate and Lagarias (2003):
# sigma_inf(x) > 6.14316 log(x) for infinitely many x.
APPLEGATE_LAGARIAS_SLOPE = 6.14316


def reference_rows_stats() -> dict:
    """Recompute the published 14-sample table's summary from its own rows."""
    one_plus = [row.one_plus_xi for row in REFERENCE_ROWS]
    xis = [row.xi for row in REFERENCE_ROWS]
    return {
        "samples": len(REFERENCE_ROWS),
        "mean_xi": statistics.fmean(xis),
        "mean_one_plus_xi": statistics.fmean(one_plus),
        "std_one_plus_xi": sample_std(one_plus),
        "mean_indicator_std": statistics.fmean(r.indicator_std for r in REFERENCE_ROWS),
    }


def stopping_time_reference_note() -> dict:
    """Arithmetic around the reference slope: sigma = 100 pins x below ~1.174e7.

    Solving 6.14316 * ln(x) = 100 gives the largest start whose total stopping
    time could reach 100 under the reference slope; that threshold is far
    below 2^101.  Pure documentation, no conjecture content.
    """
    threshold = math.exp(100 / APPLEGATE_LAGARIAS_SLOPE)
    return {
        "slope": APPLEGATE_LAGARIAS_SLOPE,
        "sigma": 100,
        "threshold": threshold,
        "below_2_pow_101": threshold < 2**101,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0, help="seed for the fresh batch")
    args = ap.parse_args()

    print("embedded published rows (sample, zeros, ones, xi, s):")
    for row in REFERENCE_ROWS:
        print(f"  {row.sample:>2}  {row.zeros:>2} {row.ones:>2}  {row.xi:.4f}  {row.indicator_std:.4f}")
    print("summary:", reference_rows_stats())

    fresh = sample_ratios(SAMPLE_LENGTH, len(REFERENCE_ROWS), args.seed)
    print(f"\nfresh batch (seed {args.seed}):")
    for j, s in enumerate(fresh, start=1):
        print(
            f"  {j:>2}  {s.zeros:>2} {s.ones:>2}  {s.xi:.4f}  "
            f"{indicator_sample_std(s.zeros, s.ones):.4f}"
        )

    report = interval_discrepancy_report()
    print("\ninterval discrepancy report:")
    print(f"  mean(1+xi) = {report['mean_one_plus_xi']:.6f}")
    for level, block in sorted(report["levels"].items()):
        print(
            f"  {int(level * 100)}%: published {block['published']} "
            f"vs chi normal {tuple(round(v, 4) for v in block['computed_chi_normal'])} "
            f"vs mu normal {tuple(round(v, 4) for v in block['computed_mu_normal'])}"
        )
    print(f"  reproducible from rows: {report['reproducible']}")
    print(f"  note: {report['note']}")

    note = stopping_time_reference_note()
    print(
        f"\nreference slope {note['slope']}: total stopping time 100 pins the "
        f"start below {note['threshold']:.6g} (< 2^101: {note['below_2_pow_101']})"
    )


if __name__ == "__main__":
    main()
