"""The verify command and its checks, one runner a check of `cli.CHECKS`.

`cli` imports this module when it dispatches verify.  A check loads the
engine it runs (identities, halfsplit, anb, pcg64) inside its runner, so that
no check loads another's.
"""

from __future__ import annotations

import argparse
import itertools
from collections.abc import Iterable

from . import cli
from .dynamics import _unpack_lanes, odd_walk


def run(args: argparse.Namespace, out: cli._Output) -> int:
    doc = {
        "schema": "collatzlab/verify/v1",
        "check": args.check,
        "parameters": {},  # set by the runner after its budgets
        "checks_run": 0,
        "failures": 0,
        "passed": True,
        "counterexample": None,
        "partial": False,
        "report": None,
    }

    def table() -> Iterable[list]:
        if doc["report"]:  # the tallies, whose fields are in column order
            yield ["step", "increases", "decreases", "within_theorem"]
            yield from (list(t.values()) for t in doc["report"]["tallies"])
        else:
            keys = ["check", "checks_run", "failures", "passed"]
            yield from (keys, [doc[k] for k in keys])

    def text() -> Iterable[str]:
        yield (f"check={doc['check']} parameters={doc['parameters']}\nchecks_run="
               f"{doc['checks_run']} failures={doc['failures']} passed={doc['passed']}\n")
        if doc.get("error"):
            yield f"error: {doc['error']}\n"
        if doc["counterexample"] is not None:
            yield f"first counterexample: {doc['counterexample']}\n"
        for t in doc["report"]["tallies"] if doc["report"] else ():
            flag = "" if t["within_theorem"] else "  [outside theorem range]"
            yield (f"step {t['step']:>3}: increases={t['increases']} "
                   f"decreases={t['decreases']}{flag}\n")

    try:
        cli._runner(cli.CHECKS[args.check])(args, doc)
    except cli.ResourceLimitError as exc:
        doc.update(passed=None, partial=True, error=str(exc))
        cli._emit(args, out, doc, table, text)
        raise
    cli._emit(args, out, doc, table, text)
    return cli.EX_INCONCLUSIVE if doc["passed"] is False else cli.EX_OK


def _note_failure(doc: dict, counterexample: dict) -> None:
    doc["failures"] += 1
    doc["passed"] = False
    if doc["counterexample"] is None:
        doc["counterexample"] = counterexample


def lemma7(args: argparse.Namespace, doc: dict) -> None:
    from . import identities as ident_mod

    # k is capped so that an absurd --max-k builds no huge int; past 64 it is
    # over the budget anyway.
    limit = cli.LEMMA7_CHECK_LIMIT
    cli._budget(args.samples * ((1 << min(args.max_k, 64) + 1) - 2), limit,
                f"lemma7 runs samples x (2^(max_k+1) - 2) = {args.samples} x "
                f"(2^{args.max_k + 1} - 2) checks, over the budget of "
                f"{limit}; lower --max-k or --samples")
    cli._budget(args.max_k if args.samples else 0, ident_mod.SHIFT_UINT64_MAX_K,
                f"lemma7 walks in uint64 only up to k = {ident_mod.SHIFT_UINT64_MAX_K}; "
                "lower --max-k")
    doc["parameters"] = {"max_k": args.max_k, "samples": args.samples, "seed": args.seed}
    if not args.samples:
        return  # no draws of m: no checks, and no residues worth visiting
    from .pcg64 import seeded_draws

    (ms,) = seeded_draws(args.seed, 1, args.samples, cli.M_SEED_RANGE)
    least = None  # the failure of least (k, i, position of m): the blocks come depth first
    for k, i0, lanes, p0, group, width, lhs, rhs in ident_mod.residue_shift_blocks(args.max_k, ms):
        count = lanes * group
        doc["checks_run"] += count
        if lhs != rhs:
            lhs, rhs = _unpack_lanes(lhs, count, width), _unpack_lanes(rhs, count, width)
            bad = [j for j in range(count) if lhs[j] != rhs[j]]
            doc["failures"] += len(bad)
            # lane q * lanes + j is the check of residue i0 + j and draw p0 + q
            failure = min((k, i0 + j % lanes, p0 + j // lanes, lhs[j], rhs[j]) for j in bad)
            least = min(least or failure, failure)
    if least:
        k, i, pos, lhs, rhs = least
        doc.update(passed=False, counterexample={"k": k, "m": ms[pos], "i": i,
                                                 "lhs": lhs, "rhs": rhs})


def _odd_starts(args: argparse.Namespace, doc: dict) -> range:
    count = (args.max_x0 + 1) // 2  # len() of the range fails past 2^63 - 1 items
    limit = cli.X0_START_LIMIT
    cli._budget(count, limit,
                f"{args.check} walks the {count} odd starts up to --max-x0, over the "
                f"budget of {limit}; lower --max-x0")
    doc["parameters"] = {"max_x0": args.max_x0}
    return range(1, args.max_x0 + 1, 2)


def eq2(args: argparse.Namespace, doc: dict) -> None:
    from . import identities as ident_mod

    for x0 in _odd_starts(args, doc):
        values, exponents = odd_walk(x0)
        failures = ident_mod.closed_form_failures(x0, values, exponents)
        _tally_closed_form(doc, x0, len(exponents), failures)


def _tally_closed_form(doc: dict, x0: int, checks: int, failures: list) -> None:
    """Count the closed-form checks of one walk from x0, one a step, and note each failure.

    failures are the (n, lhs, rhs) that `identities.closed_form_failures`
    returns for the walk.
    """
    doc["checks_run"] += checks
    for n, lhs, rhs in failures:
        _note_failure(doc, {"x0": x0, "n": n, "lhs": lhs, "rhs": rhs})


def bohm(args: argparse.Namespace, doc: dict) -> None:
    from . import identities as ident_mod

    for x0 in _odd_starts(args, doc):
        values, exponents = odd_walk(x0)
        if values[-1] != 1:  # stopped at the step limit
            continue
        # x0 == 1 takes no step: use one step of the fixed point, exponent 2
        prefix = list(itertools.accumulate(exponents or [2], initial=0))
        num, den = ident_mod._reconstruct_parts(prefix)
        doc["checks_run"] += 1
        if num != x0 * den:  # the Fraction only for the text of a failure
            value = ident_mod.reconstruct_start(prefix)
            _note_failure(doc, {"x0": x0, "reconstructed": str(value)})


def geom(args: argparse.Namespace, doc: dict) -> None:
    from . import identities as ident_mod

    terms = (args.max_n + 1) * (args.max_m + 1) * (args.max_m + 2) // 2
    limit = cli.GEOM_TERM_LIMIT
    cli._budget(terms, limit,
                f"geom sums (max_n + 1)(max_m + 1)(max_m + 2)/2 = {terms} Fraction terms, "
                f"over the budget of {limit}; lower --max-n or --max-m")
    doc["parameters"] = {"max_n": args.max_n, "max_m": args.max_m}
    for n in range(args.max_n + 1):
        for m in range(args.max_m + 1):
            lhs, rhs = ident_mod._geometric_tail_parts(n, m)
            doc["checks_run"] += 1
            if lhs != rhs:  # the Fractions only for the text of a failure
                res = ident_mod.geometric_tail_identity(n, m)
                _note_failure(doc, {"n": n, "m": m, "lhs": str(res.lhs), "rhs": str(res.rhs)})


def anb_eq(args: argparse.Namespace, doc: dict) -> None:
    limit = cli.ANB_EQ_CHECK_LIMIT
    cli._budget(args.samples * max(args.max_n, 1), limit,
                f"anb-eq runs samples x max(max_n, 1) = {args.samples} x {max(args.max_n, 1)} "
                f"checks, over the budget of {limit}; lower --samples or --max-n")
    doc["parameters"] = {
        "a": args.a,
        "b": args.b,
        "starts": args.samples,
        "max_n": args.max_n,
        "seed": args.seed,
    }
    from . import anb as anb_mod
    from . import identities as ident_mod
    from .pcg64 import seeded_draws

    params = args.params
    (draws,) = seeded_draws(args.seed, 1, args.samples, cli.M_SEED_RANGE // 2)
    for m in draws:
        x0 = 2 * m + 1
        values, exps = anb_mod.anb_steps_extended(x0, params, args.max_n)
        failures = ident_mod.closed_form_failures(x0, values, exps, params)
        _tally_closed_form(doc, x0, len(exps), failures)


def halfsplit(args: argparse.Namespace, doc: dict) -> None:
    if (args.lo is None) != (args.hi is None):
        raise cli.UsageError("--lo and --hi must be given together")
    subrange = (args.lo, args.hi) if args.lo is not None else None
    from . import halfsplit as halfsplit_mod

    try:
        report = halfsplit_mod.halfsplit_verify(
            args.M, subrange=subrange, steps=args.steps, method=args.method
        )
    except ValueError as exc:
        raise cli.UsageError(str(exc)) from exc
    doc["parameters"] = {"M": args.M, "steps": args.steps,
                         "subrange": list(subrange) if subrange else None, "method": args.method}
    within = [t for t in report.tallies if t.within_theorem]
    doc["checks_run"] = len(within)
    if report.covers_full_range:
        half = report.element_count // 2
        for t in within:
            if (t.increases, t.decreases) != (half, half):
                _note_failure(
                    doc,
                    {"step": t.step, "increases": t.increases, "decreases": t.decreases,
                     "expected": half},
                )
    else:
        doc["passed"] = None  # subrange tallies are data; the statement is full-range
    doc["report"] = {
        "M": report.M,
        "intervals": [[report.lo, report.hi]],
        "tallies": [t._asdict() for t in report.tallies],
    }
