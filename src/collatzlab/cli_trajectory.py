"""The trajectory command: one orbit, written a row per step as it is walked.

`cli` imports this module when it dispatches trajectory; no other command
loads it, or `decimal`.
"""

from __future__ import annotations

import argparse
import decimal
import json

from . import cli
from .dynamics import Termination, orbit_steps

# Decimal arithmetic that is exact or traps: unbounded precision and exponent.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)

# Per format: the header from (start, map, max_steps and, for JSON, a and b,
# or, for text, " a=A b=B" as ab); a step row from (step, from, to, kind,
# exponent field); the exponent field of the general map and, from k, of the
# odd maps; the summary.  They give the bytes of `_json_line` and
# `csv.writer` rows.
_TRAJECTORY_FORMATS = {
    "json": (
        '{{"a":{a},"b":{b},"map":"{map}","max_steps":{max_steps},'
        '"schema":"collatzlab/trajectory/v1","start":{start},"type":"header"}}\n',
        '{{"exponent":{4},"from":{1},"kind":"{3}","step":{0},"to":{2},"type":"step"}}\n',
        "null",
        "{}",
        '{{"cycle":{cycle_json},"final":{final},"steps":{steps},'
        '"terminated":"{terminated}","type":"summary"}}\n',
    ),
    "csv": (
        "step,from,to,kind,exponent\r\n",
        "{0},{1},{2},{3},{4}\r\n",
        "",
        "{}",
        "# terminated={terminated} final={final}\n",
    ),
    "text": (
        "# start={start} map={map}{ab} max_steps={max_steps}\n",
        "{0:>5} {1} -> {2} {3}{4}\n",
        "",
        " k={}",
        "# terminated={terminated} steps={steps} final={final}\n",
    ),
}


def _json_line(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _decimal_step(d: decimal.Decimal, mul: int, add: int, k: int, consts: dict) -> decimal.Decimal:
    """The decimal form of (mul * x + add) / 2^k from the decimal form d of x.

    Computed as (d * mul 5^k + add 5^k) / 10^k, one fused multiply-add and one
    division in exact decimal arithmetic, in time linear in the digit count,
    where str(int) is quadratic.  consts caches the Decimal operands per
    (mul, add, k).
    """
    ops = consts.get((mul, add, k))
    if ops is None:
        ops = consts[mul, add, k] = tuple(map(decimal.Decimal, (mul * 5**k, add * 5**k, 10**k)))
    m, a, p10 = ops
    return _EXACT.divide(_EXACT.fma(d, m, a), p10)


def run(args: argparse.Namespace, out: cli._Output) -> int:
    """Stream one orbit: a header, one row per step as it is walked, a summary.

    Each value is rendered once, from the previous value's decimal form by
    the step's (mul, add, k); the summary's final value is rendered by
    str(int) and must equal the last rendered value.  The update is
    injective, so that one comparison certifies every row.
    """
    params = args.params
    try:
        if args.map == "anb":
            from . import anb as anb_mod

            records = anb_mod.anb_orbit_steps(args.x0, params, max_steps=args.max_steps)
        else:
            records = orbit_steps(args.x0, max_steps=args.max_steps, odd=args.map == "odd")
    except ValueError as exc:
        raise cli.UsageError(str(exc)) from exc

    head, row, no_exponent, exponent, foot = _TRAJECTORY_FORMATS[args.format]
    a, b = (params.a, params.b) if params else (None, None)
    head = head.format(start=args.x0, map=args.map, max_steps=args.max_steps, a=_json_line(a),
                       b=_json_line(b), ab=f" a={a} b={b}" if params else "")
    out.write(head)
    written = len(head)

    limit = cli.TRAJECTORY_OUTPUT_LIMIT
    general = args.map == "general"
    x, text = args.x0, str(args.x0)
    d, consts = decimal.Decimal(text), {}
    steps = 0
    terminated = None
    for y, mul, add, k in records:
        d = _decimal_step(d, mul, add, k, consts)
        y_text = str(d)
        line = row.format(
            steps + 1, text, y_text, "increase" if y > x else "decrease",
            no_exponent if general else exponent.format(k),
        )
        written += len(line)
        if written > limit:
            terminated = "resource-limit"
            break
        out.write(line)
        steps += 1
        x, text = y, y_text

    final = str(x)
    if final != text:
        raise RuntimeError(
            f"decimal rendering of step {steps} disagrees with the orbit's value"
        )
    cycle = None
    if terminated is None:
        if args.map != "anb":
            done = Termination.REACHED_ONE if x == 1 else Termination.STEP_LIMIT
        elif steps < args.max_steps:  # the walk stops early only on a repeat
            done = Termination.REACHED_CYCLE
            # the last value steps to a repeat, so it is on a cycle of at most steps + 1
            cycle = list(anb_mod.find_cycle(x, params, steps + 1).members)
        else:
            done = Termination.STEP_LIMIT
        terminated = done.value
    out.write(foot.format(cycle_json=_json_line(cycle), final=final, steps=steps,
                          terminated=terminated))
    if cycle and args.format == "text":
        out.write(f"# cycle={cycle}\n")
    # written counts the row left out, so it is over the budget only after a stop
    cli._budget(written, limit,
                f"trajectory stopped after {steps} steps: the next row would take its "
                f"output past the budget of {limit} bytes; lower --max-steps")
    return cli.EX_INCONCLUSIVE if terminated == Termination.STEP_LIMIT.value else cli.EX_OK
