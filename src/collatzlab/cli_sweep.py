"""The sweep command: every start in 1..limit walked to 1 by the vectorized engine.

`cli` imports this module when it dispatches sweep; numpy loads only once
the start budget has passed, and the worker threads start only if the survey
has pieces for them.
"""

from __future__ import annotations

import argparse
from collections.abc import Iterable

from . import cli


def run(args: argparse.Namespace, out: cli._Output) -> int:
    cli._budget(args.limit, cli.SWEEP_START_LIMIT,
                f"sweep --limit {args.limit} is over the budget of {cli.SWEEP_START_LIMIT} "
                "starts; lower --limit")
    from .sweep import survey_range  # numpy loads here, once the budget has passed

    def hold(failures: int) -> None:
        cli._budget(failures, cli.SWEEP_FAILURE_LIMIT,
                    f"sweep would hold {failures} failures, over the budget of "
                    f"{cli.SWEEP_FAILURE_LIMIT} (about {cli.SWEEP_FAILURE_BYTES} bytes each); "
                    "lower --limit or raise --max-steps")

    survey = survey_range(
        1, args.limit + 1, max_steps=args.max_steps, workers=args.threads, failure_budget=hold
    )
    failures = survey.failures
    doc = {
        "schema": "collatzlab/sweep/v1",
        "limit": args.limit,
        "max_steps": args.max_steps,
        "verified": survey.verified,
        "failures": failures,
        "max_total_stopping_time": survey.max_total_stopping_time,
        "tst_argmax": survey.tst_argmax,
        "max_ratio": survey.max_ratio,
        "ratio_argmax": survey.ratio_argmax,
        "max_excursion": survey.peak,
    }
    keys = list(doc)[1:]  # the CSV columns: all but the schema, failures counted

    def text() -> Iterable[str]:
        yield (f"verified {survey.verified} of {args.limit} starts reach 1 within "
               f"{args.max_steps} steps\nfailures: " + ("[" if failures else "none"))
        for j, block in enumerate(cli._blocks(failures)):  # str(list(failures)), a block at a time
            yield (", " if j else "") + str(block)[1:-1]
        yield (("]" if failures else "")
               + f"\nmax total stopping time: {survey.max_total_stopping_time} "
               f"at x={survey.tst_argmax}\n"
               f"max total/ln(x): {survey.max_ratio} at x={survey.ratio_argmax}\n"
               f"max excursion: {survey.peak}\n")

    cli._emit(args, out, doc,
              lambda: [keys, [len(failures) if k == "failures" else doc[k] for k in keys]],
              text, key="failures")
    return cli.EX_INCONCLUSIVE if failures else cli.EX_OK
