#!/usr/bin/env python3
"""Survey cycles and growth of generalized (a*n + b) odd maps.

For each parameter pair: catalog the cycles entered from small odd starts
(certified by the product identity), then show horizon-bounded growth
diagnostics for starts that never repeated within the budget.
"""

import argparse

from collatzlab.anb import cycle_survey, divergence_report
from collatzlab.dynamics import AnbParams


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--params", default="5,1 7,1 5,3", help="space-separated a,b pairs")
    ap.add_argument("--limit", type=int, default=199, help="odd starts searched")
    ap.add_argument("--max-steps", type=int, default=10**4)
    ap.add_argument("--horizon", type=int, default=200, help="growth diagnostic steps")
    args = ap.parse_args()

    for token in args.params.split():
        a, b = (int(v) for v in token.split(","))
        params = AnbParams(a=a, b=b)
        print(f"\n== map ({a}n+{b}) ==")
        catalog, stray = cycle_survey(params, args.limit, max_steps=args.max_steps)
        for record in catalog:
            lhs, rhs, ok = record.product_identity()
            print(
                f"  cycle {list(record.members)} exponents {list(record.exponents)} "
                f"product identity {'ok' if ok else 'FAILED'} ({lhs})"
            )
        print(f"  starts with no repeat within {args.max_steps} steps: {len(stray)}")
        for x0 in stray[:5]:
            d = divergence_report(x0, params, horizon=args.horizon)
            print(
                f"    x0={x0}: {d.label}; peak has {d.peak_bits} bits after "
                f"{d.steps_taken} steps (expanding: {d.expanding}, "
                f"drift ~ {d.drift_log2:.3f} bits/step)"
            )


if __name__ == "__main__":
    main()
