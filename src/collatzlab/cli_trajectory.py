"""The trajectory command: one orbit, written a row per step as it is walked.

`cli` imports this module when it dispatches trajectory; no other command
loads it, or `decimal`.  It writes its JSON lines without `json`, which no
trajectory run loads.
"""

from __future__ import annotations

import argparse
import decimal

from . import cli
from .dynamics import Termination, orbit_steps

# Decimal arithmetic that is exact or traps: unbounded precision and exponent.
# Rounded is not trapped: to_integral_exact signals it whenever it drops
# digits, zeros too, and Inexact only when a dropped digit is not zero.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.InvalidOperation],
)

# Per format: the header template, from (start, map, max_steps and, for JSON,
# a and b, or, for text, " a=A b=B" as ab); the step row, one f-string of
# (step, from, to, kind, exponent field); the exponent field of the general
# map and, from k, of the odd maps; the summary template.  They give the bytes
# of `_json_line` and `csv.writer` rows.
_TRAJECTORY_FORMATS = {
    "json": (
        '{{"a":{a},"b":{b},"map":"{map}","max_steps":{max_steps},'
        '"schema":"collatzlab/trajectory/v1","start":{start},"type":"header"}}\n',
        lambda i, x, y, kind, e:
            f'{{"exponent":{e},"from":{x},"kind":"{kind}","step":{i},"to":{y},"type":"step"}}\n',
        "null",
        str,
        '{{"cycle":{cycle_json},"final":{final},"steps":{steps},'
        '"terminated":"{terminated}","type":"summary"}}\n',
    ),
    "csv": (
        "step,from,to,kind,exponent\r\n",
        lambda i, x, y, kind, e: f"{i},{x},{y},{kind},{e}\r\n",
        "",
        str,
        "# terminated={terminated} final={final}\n",
    ),
    "text": (
        "# start={start} map={map}{ab} max_steps={max_steps}\n",
        lambda i, x, y, kind, e: f"{i:>5} {x} -> {y} {kind}{e}\n",
        "",
        lambda k: f" k={k}",
        "# terminated={terminated} steps={steps} final={final}\n",
    ),
}


def _json_line(obj: int | list[int] | None) -> str:
    """json.dumps(obj, separators=(",", ":")) of None, an int or a list of ints."""
    if obj is None:
        return "null"
    if isinstance(obj, list):
        return f"[{','.join(map(str, obj))}]"
    return str(obj)


def _operands(mul: int, add: int, k: int) -> tuple[decimal.Decimal, decimal.Decimal]:
    """The exact Decimals mul / 2^k and add / 2^k, the operands of a step record.

    2^-k = 5^k 10^-k, so each is an integer, mul 5^k or add 5^k, with its
    exponent moved k places: no division.  A step from the decimal form d of
    x is then to_integral_exact(fma(d, M, A)), two exact operations in time
    linear in the digit count, where str(int) is quadratic.  fma leaves the
    value with k digits past the point, and to_integral_exact drops them;
    a step whose value is not an integer raises decimal.Inexact.
    """
    p = 5**k
    return _EXACT.scaleb(decimal.Decimal(mul * p), -k), _EXACT.scaleb(decimal.Decimal(add * p), -k)


def run(args: argparse.Namespace, out: cli._Output) -> int:
    """Stream one orbit: a header, one row per step as it is walked, a summary.

    Each value is rendered once, from the previous value's decimal form by
    two exact operations on the operands of the step's (mul, add, k), cached
    per record kind (see `_operands`), and each row is one call of its
    format's row function; the loop makes no other call a step.  A step
    whose decimal value is not an integer traps; the summary's final value is
    rendered by str(int) and must equal the last rendered value.  The update
    is injective, so that one comparison certifies every row, whatever the
    records said.  Either failure raises RuntimeError, naming the step.
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
    # The rows are joined here and handed to out a chunk at a time, with the
    # header at the front of the first: out writes each at once, as it would
    # have written the rows one by one.
    rows = [head]
    append = rows.append
    written, handed = len(head), 0

    limit, chunk = cli.TRAJECTORY_OUTPUT_LIMIT, out.CHUNK
    general = args.map == "general"
    fma, integral = _EXACT.fma, _EXACT.to_integral_exact
    x, text = args.x0, str(args.x0)
    d, operands = decimal.Decimal(text), {}
    steps = 0
    terminated = None
    try:
        for steps, (y, mul, add, k) in enumerate(records, 1):
            ops = operands.get((mul, add, k))
            if ops is None:  # the record's operands and its row's exponent field
                ops = operands[mul, add, k] = (*_operands(mul, add, k),
                                               no_exponent if general else exponent(k))
            mul_k, add_k, field = ops
            d = integral(fma(d, mul_k, add_k))
            y_text = str(d)
            line = row(steps, text, y_text, "increase" if y > x else "decrease", field)
            written += len(line)
            if written > limit:
                terminated, steps = "resource-limit", steps - 1
                break
            append(line)
            if written - handed >= chunk:
                out.write("".join(rows))
                rows.clear()
                handed = written
            x, text = y, y_text
    except decimal.Inexact:  # the step's value is not an integer: no text matches it
        text = None
    out.write("".join(rows))

    if str(x) != text:
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
    out.write(foot.format(cycle_json=_json_line(cycle), final=text, steps=steps,
                          terminated=terminated))
    if cycle and args.format == "text":
        out.write(f"# cycle={cycle}\n")
    # written counts the row left out, so it is over the budget only after a stop
    cli._budget(written, limit,
                f"trajectory stopped after {steps} steps: the next row would take its "
                f"output past the budget of {limit} bytes; lower --max-steps")
    return cli.EX_INCONCLUSIVE if terminated == Termination.STEP_LIMIT.value else cli.EX_OK
