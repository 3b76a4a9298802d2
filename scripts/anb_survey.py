#!/usr/bin/env python3
"""Survey cycles and growth of generalized (a*n + b) odd maps.

For each parameter pair: catalog the cycles entered from small odd starts
(certified by the product identity), then show horizon-bounded growth
diagnostics for starts that never repeated within the budget.
"""

import argparse
import math
from typing import NamedTuple

from collatzlab.anb import (
    CycleRecord,
    anb_orbit_steps,
    canonical_rotation,
    find_cycle,
)
from collatzlab.catalog import catalog_walks
from collatzlab.dynamics import DEFAULT_MAX_STEPS, AnbParams, step_anb

LABEL_BOUNDED = "bounded/cyclic within horizon"
LABEL_UNBOUNDED = "unbounded within horizon"


class DivergenceDiagnostic(NamedTuple):
    """Horizon-bounded growth summary of one generalized orbit.

    The exact fields are integers (steps, exponent total, peak, bit lengths);
    `expanding` compares a^steps against 2^{sum k} exactly, which is the sign
    of the mean log2 growth without touching floats.  The float `drift_log2`
    is display only.  No divergence claim is ever made: the label says what
    happened within the horizon and nothing more.
    """

    params: AnbParams
    start: int
    steps_taken: int
    peak: int
    sum_exponents: int
    label: str

    @property
    def expanding(self) -> bool:
        return self.params.a**self.steps_taken > (1 << self.sum_exponents)

    @property
    def peak_bits(self) -> int:
        return self.peak.bit_length()

    @property
    def drift_log2(self) -> float:
        if self.steps_taken == 0:
            return 0.0
        n = self.steps_taken
        return (n * math.log2(self.params.a) - self.sum_exponents) / n


def divergence_report(
    x0: int, params: AnbParams, horizon: int = DEFAULT_MAX_STEPS
) -> DivergenceDiagnostic:
    """Run the orbit for at most `horizon` steps and summarize its growth.

    Unlike `anb.trajectory_anb`, the step that closes a cycle is counted here:
    its exponent is what balances the tally for cyclic orbits (around a full
    cycle 2^{sum k} always exceeds a^length, so cycles never read as
    expanding).  The walk is `anb.anb_orbit_steps`, so x0 must be odd.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    x, peak, steps, sum_k, label = x0, x0, 0, 0, LABEL_UNBOUNDED
    for x, _, _, k in anb_orbit_steps(x0, params, horizon):
        steps, sum_k, peak = steps + 1, sum_k + k, max(peak, x)
    if steps < horizon:  # stopped on a repeat: the closing step reaches a value seen before
        steps, sum_k, label = steps + 1, sum_k + step_anb(x, params)[1], LABEL_BOUNDED
    return DivergenceDiagnostic(params, x0, steps, peak, sum_k, label)


def cycle_survey(
    params: AnbParams, start_limit: int, max_steps: int = 10**4
) -> tuple[tuple[CycleRecord, ...], list[int]]:
    """`anb.cycle_catalog`, and the odd starts up to start_limit with no repeat.

    The starts are those for which `find_cycle(x0, params, max_steps)` is
    None, in increasing order.  The catalog's walks settle most of them: a
    walk that ran its budget, a later start on one, or a walk that the memo
    stopped with no repeat.  Only the starts stopped at a value whose orbit
    enters a known cycle are walked again, since that entry says the orbit
    enters the cycle, not that it does so within max_steps.
    """
    cycles, no_repeat, basin = set(), [], []
    for x0, cycle in catalog_walks(params, start_limit, max_steps):
        if cycle:
            cycles.add(canonical_rotation(cycle))
        else:
            (no_repeat if cycle is None else basin).append(x0)
    # the walk from a cycle's smallest member reads it in canonical rotation
    records = (find_cycle(members[0], params, max_steps) for members in cycles)
    catalog = tuple(sorted(records, key=lambda r: (len(r.members), r.members)))
    late = [x0 for x0 in basin if find_cycle(x0, params, max_steps) is None]
    return catalog, sorted(no_repeat + late)


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
