"""The montecarlo command: seeded 0/1 drift-ratio samples, or the published table.

`cli` imports this module when it dispatches montecarlo; no other command
loads it, `stats` or `statistics`.
"""

from __future__ import annotations

import argparse
import math
import statistics
from array import array
from collections.abc import Iterable

from . import cli
from . import stats as stats_mod
from .reference_table import REFERENCE_ROWS, SAMPLE_LENGTH


def run(args: argparse.Namespace, out: cli._Output) -> int:
    if args.fixture:
        source, seed, length = f"fixture:{args.fixture}", None, SAMPLE_LENGTH
        report = stats_mod.interval_discrepancy_report()
        published = {key: report[key] for key in ("mean_one_plus_xi", "reproducible", "note")}
        published["levels"] = {
            str(int(level * 100)): {k: v for k, v in block.items()
                                    if not k.startswith("published_matches_")}
            for level, block in report["levels"].items()
        }

        columns = [(r.xi, r.one_plus_xi, r.indicator_std) for r in REFERENCE_ROWS]

        def rows() -> Iterable[dict]:
            return (r._asdict() for r in REFERENCE_ROWS)
    else:
        cli._budget(args.length, cli.MC_LENGTH_LIMIT,
                    f"montecarlo draws {args.length} coins a sample, over the budget of "
                    f"{cli.MC_LENGTH_LIMIT}; lower --length")
        cli._budget(args.length * args.samples, cli.MC_COIN_LIMIT,
                    f"montecarlo draws length x samples = {args.length} x {args.samples} "
                    f"coins, over the budget of {cli.MC_COIN_LIMIT}; lower --length or --samples")
        cli._budget(args.samples, cli.MC_SAMPLE_LIMIT,
                    f"montecarlo holds a row for each of {args.samples} samples, over the "
                    f"budget of {cli.MC_SAMPLE_LIMIT}; lower --samples")
        source, seed, length = "generated", args.seed, args.length
        published = None
        samples = stats_mod.sample_ratios(args.length, args.samples, args.seed)
        columns = ((s.xi, 1 + s.xi, stats_mod.indicator_sample_std(s.zeros, s.ones))
                   for s in samples)

        def rows() -> Iterable[dict]:  # made as they are read, from stds; xi is inf where ones is 0
            for j, (s, std) in enumerate(zip(samples, stds), start=1):
                finite = math.isfinite(s.xi)
                yield {
                    "sample": j,
                    "zeros": s.zeros,
                    "ones": s.ones,
                    "xi": s.xi if finite else "inf",
                    "one_plus_xi": 1 + s.xi if finite else "inf",
                    "indicator_std": std,
                    "chi": 2.0 ** (1 + s.xi) if finite else "inf",
                }

    # (xi, 1 + xi, indicator std) a sample, held as 24 bytes: xi and 1 + xi where finite
    xis, one_plus, stds = array("d"), array("d"), array("d")
    for xi, one_plus_xi, std in columns:
        stds.append(std)
        if math.isfinite(xi):
            xis.append(xi)
            one_plus.append(one_plus_xi)
    if len(one_plus) < 2:
        raise cli.UsageError(
            "almost every sample drew zero increase bits; increase --length"
        )
    base = stats_mod.SampleStats.from_values(one_plus)
    stats_block = {
        "mean_xi": statistics.fmean(xis),
        "mean_one_plus_xi": base.mean,
        "std_one_plus_xi": base.std,
        "mean_indicator_std": statistics.fmean(stds),
    }
    levels = [0.95, 0.98, 0.99] if args.level == "all" else [int(args.level) / 100]
    intervals = {str(int(level * 100)): stats_mod.level_intervals(base, level) for level in levels}
    doc = {
        "schema": "collatzlab/montecarlo/v1",
        "source": source,
        "seed": seed,
        "length": length,
        "samples": len(stds),
        "rows": rows(),
        "stats": stats_block,
        "intervals": intervals,
        "published_comparison": published,
    }
    head = f"# source={source} seed={seed} length={length} samples={len(stds)}"

    def table() -> Iterable[list]:
        out.write(head + "\n")  # a comment line ahead of the rows
        yield ["sample", "xi", "one_plus_xi", "indicator_std", "chi"]
        for r in rows():
            yield [r["sample"], r["xi"], r["one_plus_xi"], f"{r['indicator_std']:.4f}", r["chi"]]

    def text() -> Iterable[str]:
        yield f"{head}\n{'sample':>6} {'xi':>8} {'1+xi':>8} {'s':>8} {'2^(1+xi)':>10}\n"
        for r in rows():
            f = ".4f" if isinstance(r["xi"], float) else ""  # "inf" as it is
            yield (f"{r['sample']:>6} {r['xi']:>8{f}} {r['one_plus_xi']:>8{f}} "
                   f"{r['indicator_std']:>8.4f} {r['chi']:>10{f}}\n")
        yield ("mean(xi)={mean_xi:.6f} mean(1+xi)={mean_one_plus_xi:.6f} std(1+xi)="
               "{std_one_plus_xi:.6f} mean(s)={mean_indicator_std:.6f}\n".format(**stats_block))
        for key in sorted(intervals):
            block = intervals[key]
            yield (
                f"{key}% mu normal [{block['mu_normal'][0]:.4f}, {block['mu_normal'][1]:.4f}] "
                f"t [{block['mu_t'][0]:.4f}, {block['mu_t'][1]:.4f}] "
                f"chi normal [{block['chi_normal'][0]:.4f}, {block['chi_normal'][1]:.4f}] "
                f"t [{block['chi_t'][0]:.4f}, {block['chi_t'][1]:.4f}]\n"
            )
        if published:
            yield ("published bounds (same numbers in both printed tables) are not "
                   "reproduced by these rows:\n")
            for key in sorted(published["levels"]):
                block = published["levels"][key]
                yield (
                    f"  {key}%: published [{block['published'][0]:.4f}, "
                    f"{block['published'][1]:.4f}] vs computed chi "
                    f"[{block['computed_chi_normal'][0]:.4f}, "
                    f"{block['computed_chi_normal'][1]:.4f}]\n"
                )

    cli._emit(args, out, doc, table, text, key="rows")
    return cli.EX_OK
