"""The anb-cycles command: the cycles an (a, b) map enters from small odd starts.

`cli` imports this module when it dispatches anb-cycles; no other command
loads it.
"""

from __future__ import annotations

import argparse
from collections.abc import Iterable

from . import anb as anb_mod
from . import cli
from .catalog import catalog_walk_bytes


def run(args: argparse.Namespace, out: cli._Output) -> int:
    starts = (args.limit + 1) // 2
    cli._budget(starts * max(args.max_steps, 1), cli.CYCLES_STEP_LIMIT,
                f"anb-cycles walks {starts} odd starts for up to {args.max_steps} steps "
                f"each, over the budget of {cli.CYCLES_STEP_LIMIT} steps; lower --limit or "
                "--max-steps")
    walk_bytes = catalog_walk_bytes(args.params, args.limit, args.max_steps)
    cli._budget(walk_bytes, cli.CYCLES_MEMORY_LIMIT,
                f"anb-cycles holds one walk of up to {args.max_steps} steps at a time, "
                f"estimated at {walk_bytes} bytes, over the memory budget of "
                f"{cli.CYCLES_MEMORY_LIMIT}; lower --max-steps")
    catalog = anb_mod.cycle_catalog(args.params, args.limit, max_steps=args.max_steps)
    cycles = [
        {"members": list(r.members), "exponents": list(r.exponents),
         "sum_exponents": r.sum_exponents, "product_lhs": lhs, "product_rhs": rhs, "verified": ok}
        for r in catalog for lhs, rhs, ok in [r.product_identity()]
    ]
    doc = {
        "schema": "collatzlab/cycles/v1",
        "a": args.a,
        "b": args.b,
        "start_limit": args.limit,
        "max_steps": args.max_steps,
        "cycles": cycles,
    }

    def table() -> Iterable[list]:
        yield ["members", "exponents", "sum_exponents", "verified"]
        for c in cycles:
            yield [" ".join(map(str, c["members"])), " ".join(map(str, c["exponents"])),
                   c["sum_exponents"], c["verified"]]

    def text() -> Iterable[str]:
        yield f"map ({args.a}n+{args.b}), odd starts 1..{args.limit}:\n"
        for c in cycles:
            yield (
                f"  cycle {c['members']} exponents {c['exponents']} "
                f"(2^{c['sum_exponents']} product identity "
                f"{'verified' if c['verified'] else 'FAILED'})\n"
            )
        if not cycles:
            yield "  no cycles entered within the step budget\n"

    cli._emit(args, out, doc, table, text)
    return cli.EX_OK
