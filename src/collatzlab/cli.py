"""Command-line interface.

Subcommands: trajectory, verify, montecarlo, sweep, anb-cycles.  Each is one
entry of `COMMANDS`, and each check of verify one entry of `CHECKS`: its
options, with the bounds checked before it runs, and its runner.  Output is
text, JSON or CSV, written as it is produced: trajectory rows as JSON lines,
and every other document as one JSON document whose long list (montecarlo's
rows, sweep's failures) is encoded a block at a time, never held whole.
Every JSON payload names its schema, shipped under collatzlab/schemas/.

Exit codes are a stable contract: 0 success, 1 usage error, 2 step limit or
failed/inconclusive check, 3 resource limit.  Output bytes depend only on the
run configuration: stochastic commands embed their seed, and worker counts
never appear in (or affect) the payload.
"""

from __future__ import annotations

import argparse
import dataclasses
import decimal
import itertools
import json
import math
import os
import sys
from array import array
from collections.abc import Callable, Iterable
from typing import NamedTuple

# dynamics is the one engine module loaded here; the others, numpy, csv and
# the statistics modules load inside the commands that use them.
from .dynamics import (
    DEFAULT_MAX_STEPS,
    AnbParams,
    ResourceLimitError,
    Termination,
    _unpack,
    odd_walk,
    orbit_steps,
)

EX_OK = 0
EX_USAGE = 1
EX_INCONCLUSIVE = 2
EX_RESOURCE = 3

M_SEED_RANGE = 1 << 20  # residue-shift m values are drawn below this bound

# montecarlo's default --length, SAMPLE_LENGTH of reference_table, which
# loads only when montecarlo runs, and its one --fixture choice.
MC_SAMPLE_LENGTH = 100
MC_FIXTURE_NAME = "paper14"

# verify lemma7 runs samples x (2^(max_k+1) - 2) shift-law checks; above this
# many it stops with exit 3.  The default run (--max-k 12 --samples 100)
# makes 819,000.
LEMMA7_CHECK_LIMIT = 1 << 24

# verify eq2 and bohm walk every odd start up to --max-x0, about 74 and 25
# microseconds each at --max-x0 10^5 (2-vCPU VM, Python 3.11); above this many
# starts they stop with exit 3.
X0_START_LIMIT = 1 << 20

# verify anb-eq runs samples x max(max_n, 1) closed-form checks, 3 to 6 microseconds
# each near --max-n 50; above this many it stops with exit 3 (the default makes 10,000).
ANB_EQ_CHECK_LIMIT = 1 << 22

# anb-cycles walks each odd start for at most --max-steps steps, and a walk
# that goes up to --max-steps steps further settles a start that is then not
# walked, so it takes at most odd starts x max(max_steps, 1) steps; above that
# many it stops with exit 3.  The default run (--limit 100) counts 500,000 and
# takes 120,063.
CYCLES_STEP_LIMIT = 1 << 24

# anb-cycles holds one walk at a time, of up to 2 x --max-steps + 1 steps
# with the ones it takes to settle later starts; above this many bytes by
# anb.catalog_walk_bytes, about 570 bytes a step and the walk's last value,
# it stops with exit 3 (the default run estimates 11.4 MB; its longest walk
# holds 0.95 MB).  At --limit 100 it admits --max-steps up to 235,381.
CYCLES_MEMORY_LIMIT = 1 << 28

# Generated montecarlo draws each sample's --length coins as one array, one
# byte a coin, when numpy draws them (4.5 ns a coin with its sum, 2-vCPU VM,
# numpy 2.4), and holds each sample's (xi, zeros, ones) and three doubles while
# its rows stream out (120-150 bytes a sample under tracemalloc at --length 2).
# Above MC_LENGTH_LIMIT coins a sample, MC_COIN_LIMIT coins in all (about 20 s)
# or MC_SAMPLE_LIMIT samples it stops with exit 3: stats.t_critical does O(df)
# work a level, 0.74 s for the three levels at df = 131,071 (2-vCPU VM).
MC_LENGTH_LIMIT = 1 << 28
MC_COIN_LIMIT = 1 << 32
MC_SAMPLE_LIMIT = 1 << 17

# verify geom sums (max_n + 1)(max_m + 1)(max_m + 2)/2 terms (the message's
# "Fraction terms", summed as ints over 3^(n+m)), about 0.3 microseconds each
# at --max-n 200 --max-m 200 (4,080,501 terms, 1.3 s on a 2-vCPU VM); above
# this many it stops with exit 3.  The default run makes 67,626.
GEOM_TERM_LIMIT = 1 << 22

# trajectory writes its rows while the output stays within this many bytes;
# the row that would pass it is left out, and the run ends with its summary
# and exit 3.  The 5n+1 orbit of 7 reaches it after 53,347 steps.
TRAJECTORY_OUTPUT_LIMIT = 1 << 28

# sweep runs at most this many worker processes (and never more than the CPUs).
THREADS_LIMIT = 256

# sweep surveys at most this many starts (10^9: 132 s and an 83 MB peak at one
# worker, 2-vCPU VM); above it it stops with exit 3 before numpy loads.
SWEEP_START_LIMIT = 10**9

# sweep holds each failure as an int while its document streams out: the run
# peaks 50-60 bytes a failure higher in every format (--max-steps 0 at
# --limit 10^6 to 4 x 10^6, 2-vCPU VM).  Above 2^28 bytes of failures at 60
# bytes each the survey stops with exit 3, checked piece by piece before the
# failures are held.
SWEEP_FAILURE_BYTES = 60
SWEEP_FAILURE_LIMIT = (1 << 28) // SWEEP_FAILURE_BYTES

# Items of a streamed JSON list encoded at a time: one encoder call a block
# costs less than one an item, and a block of montecarlo rows is about 170 KB.
_JSON_BLOCK = 1024
_JSON = json.JSONEncoder(sort_keys=True, indent=2)
_MARK = "\0"  # stands in for a streamed list while the rest of its document encodes

# Decimal arithmetic that is exact or traps: unbounded precision and exponent.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise UsageError(message)


class Option(NamedTuple):
    """One option: its argparse fields, and the bounds checked before a run.

    A bound's message names the option by label, or else by flag.  `--b`
    closes the (a, b) pair, where the an+b map is checked (for trajectory,
    only with --map anb).
    """

    flag: str
    default: object = None
    help: str | None = None
    type: Callable | None = int
    choices: tuple | None = None
    least: int | None = None
    most: int | None = None
    label: str | None = None
    required: bool = False


class Command(NamedTuple):
    """A command or a verify check: its help, its options in the order their
    bounds are checked, and its runner."""

    help: str
    options: tuple[Option, ...]
    run: Callable


def _json_line(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="collatzlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in command.options + _OUTPUT_OPTIONS:  # a positional takes no `required`
            p.add_argument(opt.flag, type=opt.type, default=opt.default, choices=opt.choices,
                           help=opt.help, **({"required": True} if opt.required else {}))
    return parser


class _Output:
    """Where a command writes: stdout, or the --output file.

    Writes are joined into chunks of about 64 KiB, so a streamed document
    costs one system call per chunk, not per row, even when stdout is
    unbuffered, and an output smaller than a chunk is written at once, at
    the end.  The file is tried before any work but opened (and truncated) at
    the first chunk, so a command that fails before it writes leaves it as it was.
    """

    CHUNK = 1 << 16

    def __init__(self, path: str | None) -> None:
        if path is not None:
            existed = os.path.lexists(path)
            try:
                open(path, "a").close()
            except OSError as exc:
                raise UsageError(f"cannot write --output {path}: {exc.strerror}") from exc
            if not existed:
                os.remove(path)
        self._path = path
        self._file = None
        self._parts: list[str] = []
        self._size = 0

    def write(self, text: str) -> None:
        self._parts.append(text)
        self._size += len(text)
        if self._size >= self.CHUNK:
            self._flush()

    def _flush(self) -> None:
        text = "".join(self._parts)
        self._parts.clear()
        self._size = 0
        if self._path is None:
            sys.stdout.write(text)
            return
        if self._file is None:
            self._file = open(self._path, "w")
        self._file.write(text)

    def close(self) -> None:
        if self._parts:
            self._flush()
        if self._path is None:
            sys.stdout.flush()  # a closed pipe fails here, not at the interpreter's exit
        elif self._file is not None:
            self._file.close()


def main(argv: list[str] | None = None) -> int:
    # The package makes no BLAS call, and OpenBLAS starts a thread per CPU when
    # numpy loads: one thread cuts sweep --limit 4194304 from 0.39 to 0.26 s CPU
    # at one worker (12 paired runs, 2-vCPU VM).  A caller's setting is kept,
    # the variable is unset again on return, and a numpy loaded before the call
    # keeps the threads it started.
    blas_unset = "OPENBLAS_NUM_THREADS" not in os.environ
    if blas_unset:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # Payloads hold exact ints of any size, so Python's int/str digit guard
    # (4300 digits by default, from 3.10.7 on) is lifted for the call.
    saved = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull, so the final flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: the output pipe was closed before the output was written", file=sys.stderr)
        return EX_USAGE
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)
        if blas_unset:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)


def _main(argv: list[str] | None) -> int:
    out = None
    try:
        args = build_parser().parse_args(argv)
        command = COMMANDS[args.command]
        _check_args(args, CHECKS[args.check] if args.command == "verify" else command)
        out = _Output(args.output)
        return command.run(args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EX_RESOURCE
    finally:
        if out is not None:
            out.close()


def _check_args(args: argparse.Namespace, command: Command) -> None:
    """Check the bounds of the command's options in order; set args.params to the an+b map."""
    args.params = None
    if getattr(args, "fixture", None):
        return  # the published table sets its own length and samples
    for opt in command.options:
        value = getattr(args, opt.flag.lstrip("-").replace("-", "_"))  # argparse's dest
        if opt.least is not None and value < opt.least:
            raise UsageError(f"{opt.label or opt.flag} must be >= {opt.least}")
        if opt.most is not None and value > opt.most:
            raise UsageError(f"{opt.label or opt.flag} must be <= {opt.most}")
        if opt.flag == "--b" and getattr(args, "map", "anb") == "anb":
            try:
                args.params = AnbParams(a=args.a, b=args.b)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc


def _budget(work: int, limit: int, message: str) -> None:
    if work > limit:
        raise ResourceLimitError(message)


def _blocks(items: Iterable) -> Iterable[list]:
    """The items in lists of `_JSON_BLOCK`, the last one shorter."""
    items = iter(items)
    while block := list(itertools.islice(items, _JSON_BLOCK)):
        yield block


def _write_json(out: _Output, doc: dict, key: str | None = None) -> None:
    """Write json.dumps(doc, sort_keys=True, indent=2) + "\\n", with doc[key] streamed.

    doc[key], any iterable, is read once and written as a list: the document
    is encoded around a one-item placeholder list, and the items are encoded
    `_JSON_BLOCK` at a time in its place, each block's lines indented as deep
    as the placeholder's.
    """
    blocks = _blocks(doc[key] if key else ())
    block = next(blocks, None)
    if block is None:
        out.write(_JSON.encode({**doc, key: []} if key else doc) + "\n")
        return
    head, tail = _JSON.encode({**doc, key: [_MARK]}).split(_JSON.encode(_MARK))
    indent = head[len(head.rstrip(" ")):]  # the item lines' indent; an encoded block's is 2
    sep = head
    while block is not None:  # each block's items, less its "[\n  " and "\n]"
        out.write(sep + _JSON.encode(block)[4:-2].replace("\n", "\n" + indent[2:]))
        block, sep = next(blocks, None), ",\n" + indent
    out.write(tail + "\n")


def _emit(args: argparse.Namespace, out: _Output, doc: dict,
          table: Callable[[], Iterable], text: Callable[[], Iterable[str]],
          key: str | None = None) -> None:
    """Write doc as JSON (doc[key] streamed), the CSV rows of table(), or the pieces of text()."""
    if args.format == "json":
        _write_json(out, doc, key)
    elif args.format == "csv":
        import csv

        csv.writer(out).writerows(table())
    else:
        for piece in text():
            out.write(piece)


# ---------------------------------------------------------------- trajectory

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


def _decimal_step(d: decimal.Decimal, mul: int, add: int, k: int, consts: dict) -> decimal.Decimal:
    """The decimal form of (mul * x + add) / 2^k from the decimal form d of x.

    Computed as (mul * d + add) * 5^k / 10^k in exact decimal arithmetic, in
    time linear in the digit count, where str(int) is quadratic.  consts
    caches the Decimal operands per (mul, add, k).
    """
    ops = consts.get((mul, add, k))
    if ops is None:
        ops = consts[mul, add, k] = tuple(map(decimal.Decimal, (mul, add, 5**k, 10**k)))
    m, a, p5, p10 = ops
    return _EXACT.divide(_EXACT.multiply(_EXACT.add(_EXACT.multiply(d, m), a), p5), p10)


def _cmd_trajectory(args: argparse.Namespace, out: _Output) -> int:
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
        raise UsageError(str(exc)) from exc

    head, row, no_exponent, exponent, foot = _TRAJECTORY_FORMATS[args.format]
    a, b = (params.a, params.b) if params else (None, None)
    head = head.format(start=args.x0, map=args.map, max_steps=args.max_steps, a=_json_line(a),
                       b=_json_line(b), ab=f" a={a} b={b}" if params else "")
    out.write(head)
    written = len(head)

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
        if written > TRAJECTORY_OUTPUT_LIMIT:
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
    _budget(written, TRAJECTORY_OUTPUT_LIMIT,
            f"trajectory stopped after {steps} steps: the next row would take its "
            f"output past the budget of {TRAJECTORY_OUTPUT_LIMIT} bytes; lower --max-steps")
    return EX_INCONCLUSIVE if terminated == Termination.STEP_LIMIT.value else EX_OK


# -------------------------------------------------------------------- verify


def _cmd_verify(args: argparse.Namespace, out: _Output) -> int:
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
        CHECKS[args.check].run(args, doc)
    except ResourceLimitError as exc:
        doc.update(passed=None, partial=True, error=str(exc))
        _emit(args, out, doc, table, text)
        raise
    _emit(args, out, doc, table, text)
    return EX_INCONCLUSIVE if doc["passed"] is False else EX_OK


def _note_failure(doc: dict, counterexample: dict) -> None:
    doc["failures"] += 1
    doc["passed"] = False
    if doc["counterexample"] is None:
        doc["counterexample"] = counterexample


def _verify_lemma7(args: argparse.Namespace, doc: dict) -> None:
    from . import identities as ident_mod

    # k is capped so that an absurd --max-k builds no huge int; past 64 it is
    # over the budget anyway.
    _budget(args.samples * ((1 << min(args.max_k, 64) + 1) - 2), LEMMA7_CHECK_LIMIT,
            f"lemma7 runs samples x (2^(max_k+1) - 2) = {args.samples} x "
            f"(2^{args.max_k + 1} - 2) checks, over the budget of "
            f"{LEMMA7_CHECK_LIMIT}; lower --max-k or --samples")
    _budget(args.max_k if args.samples else 0, ident_mod.SHIFT_UINT64_MAX_K,
            f"lemma7 walks in uint64 only up to k = {ident_mod.SHIFT_UINT64_MAX_K}; "
            "lower --max-k")
    doc["parameters"] = {"max_k": args.max_k, "samples": args.samples, "seed": args.seed}
    if not args.samples:
        return  # no draws of m: no checks, and no residues worth visiting
    from .pcg64 import seeded_draws

    (ms,) = seeded_draws(args.seed, 1, args.samples, M_SEED_RANGE)
    for k, g0, count, lhs, rhs in ident_mod.residue_shift_blocks(args.max_k, ms):
        doc["checks_run"] += count
        if lhs == rhs:
            continue
        lhs, rhs = _unpack(lhs, count), _unpack(rhs, count)
        bad = [j for j in range(count) if lhs[j] != rhs[j]]
        i, pos = divmod(g0 + bad[0], args.samples)
        _note_failure(doc, {"k": k, "m": ms[pos], "i": i,
                            "lhs": lhs[bad[0]], "rhs": rhs[bad[0]]})
        doc["failures"] += len(bad) - 1


def _odd_starts(args: argparse.Namespace, doc: dict) -> range:
    count = (args.max_x0 + 1) // 2  # len() of the range fails past 2^63 - 1 items
    _budget(count, X0_START_LIMIT,
            f"{args.check} walks the {count} odd starts up to --max-x0, over the "
            f"budget of {X0_START_LIMIT}; lower --max-x0")
    doc["parameters"] = {"max_x0": args.max_x0}
    return range(1, args.max_x0 + 1, 2)


def _verify_eq2(args: argparse.Namespace, doc: dict) -> None:
    for x0 in _odd_starts(args, doc):
        values, exponents = odd_walk(x0)
        _tally_closed_form(doc, x0, values, exponents)


def _tally_closed_form(doc: dict, x0: int, *walk) -> None:
    """Run and count the closed-form checks n = 1, 2, ... of one walk from x0.

    walk is the walk's odd values and exponents, and the an+b map's params
    unless it is 3n+1: the arguments of `identities.closed_form_checks`.
    """
    from . import identities as ident_mod

    for n, res in enumerate(ident_mod.closed_form_checks(x0, *walk), start=1):
        doc["checks_run"] += 1
        if not res.holds:
            _note_failure(doc, {"x0": x0, "n": n, "lhs": res.lhs, "rhs": res.rhs})


def _verify_bohm(args: argparse.Namespace, doc: dict) -> None:
    from . import identities as ident_mod

    for x0 in _odd_starts(args, doc):
        values, exponents = odd_walk(x0)
        if values[-1] != 1:  # stopped at the step limit
            continue
        # x0 == 1 takes no step: use one step of the fixed point, exponent 2
        prefix = list(itertools.accumulate(exponents or [2], initial=0))
        value = ident_mod.reconstruct_start(prefix)
        doc["checks_run"] += 1
        if value != x0:
            _note_failure(doc, {"x0": x0, "reconstructed": str(value)})


def _verify_geom(args: argparse.Namespace, doc: dict) -> None:
    from . import identities as ident_mod

    terms = (args.max_n + 1) * (args.max_m + 1) * (args.max_m + 2) // 2
    _budget(terms, GEOM_TERM_LIMIT,
            f"geom sums (max_n + 1)(max_m + 1)(max_m + 2)/2 = {terms} Fraction terms, "
            f"over the budget of {GEOM_TERM_LIMIT}; lower --max-n or --max-m")
    doc["parameters"] = {"max_n": args.max_n, "max_m": args.max_m}
    for n in range(args.max_n + 1):
        for m in range(args.max_m + 1):
            res = ident_mod.geometric_tail_identity(n, m)
            doc["checks_run"] += 1
            if not res.holds:
                _note_failure(doc, {"n": n, "m": m, "lhs": str(res.lhs), "rhs": str(res.rhs)})


def _verify_anb_eq(args: argparse.Namespace, doc: dict) -> None:
    _budget(args.samples * max(args.max_n, 1), ANB_EQ_CHECK_LIMIT,
            f"anb-eq runs samples x max(max_n, 1) = {args.samples} x {max(args.max_n, 1)} "
            f"checks, over the budget of {ANB_EQ_CHECK_LIMIT}; lower --samples or --max-n")
    doc["parameters"] = {
        "a": args.a,
        "b": args.b,
        "starts": args.samples,
        "max_n": args.max_n,
        "seed": args.seed,
    }
    from . import anb as anb_mod
    from .pcg64 import seeded_draws

    params = args.params
    (draws,) = seeded_draws(args.seed, 1, args.samples, M_SEED_RANGE // 2)
    for m in draws:
        x0 = 2 * m + 1
        values, exps = anb_mod.anb_steps_extended(x0, params, args.max_n)
        _tally_closed_form(doc, x0, values, exps, params)


def _verify_halfsplit(args: argparse.Namespace, doc: dict) -> None:
    if (args.lo is None) != (args.hi is None):
        raise UsageError("--lo and --hi must be given together")
    subrange = (args.lo, args.hi) if args.lo is not None else None
    from . import halfsplit as halfsplit_mod

    try:
        report = halfsplit_mod.halfsplit_verify(
            args.M, subrange=subrange, steps=args.steps, method=args.method
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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
        "intervals": [list(iv) for iv in report.intervals],
        "tallies": [dataclasses.asdict(t) for t in report.tallies],
    }


# ---------------------------------------------------------------- montecarlo


def _cmd_montecarlo(args: argparse.Namespace, out: _Output) -> int:
    import statistics

    from . import stats as stats_mod
    from .reference_table import REFERENCE_ROWS, SAMPLE_LENGTH

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
            return map(dataclasses.asdict, REFERENCE_ROWS)
    else:
        _budget(args.length, MC_LENGTH_LIMIT,
                f"montecarlo draws {args.length} coins a sample, over the budget of "
                f"{MC_LENGTH_LIMIT}; lower --length")
        _budget(args.length * args.samples, MC_COIN_LIMIT,
                f"montecarlo draws length x samples = {args.length} x {args.samples} coins, "
                f"over the budget of {MC_COIN_LIMIT}; lower --length or --samples")
        _budget(args.samples, MC_SAMPLE_LIMIT,
                f"montecarlo holds a row for each of {args.samples} samples, over the "
                f"budget of {MC_SAMPLE_LIMIT}; lower --samples")
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
        raise UsageError(
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

    _emit(args, out, doc, table, text, key="rows")
    return EX_OK


# --------------------------------------------------------------------- sweep


def _cmd_sweep(args: argparse.Namespace, out: _Output) -> int:
    _budget(args.limit, SWEEP_START_LIMIT,
            f"sweep --limit {args.limit} is over the budget of {SWEEP_START_LIMIT} starts; "
            "lower --limit")
    from .sweep import survey_range  # numpy loads here, the process pool only if it runs

    def hold(failures: int) -> None:
        _budget(failures, SWEEP_FAILURE_LIMIT,
                f"sweep would hold {failures} failures, over the budget of "
                f"{SWEEP_FAILURE_LIMIT} (about {SWEEP_FAILURE_BYTES} bytes each); lower "
                "--limit or raise --max-steps")

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
        for j, block in enumerate(_blocks(failures)):  # str(list(failures)), a block at a time
            yield (", " if j else "") + str(block)[1:-1]
        yield (("]" if failures else "")
               + f"\nmax total stopping time: {survey.max_total_stopping_time} "
               f"at x={survey.tst_argmax}\n"
               f"max total/ln(x): {survey.max_ratio} at x={survey.ratio_argmax}\n"
               f"max excursion: {survey.peak}\n")

    _emit(args, out, doc,
          lambda: [keys, [len(failures) if k == "failures" else doc[k] for k in keys]],
          text, key="failures")
    return EX_INCONCLUSIVE if failures else EX_OK


# -------------------------------------------------------------------- cycles


def _cmd_cycles(args: argparse.Namespace, out: _Output) -> int:
    from . import anb as anb_mod

    starts = (args.limit + 1) // 2
    _budget(starts * max(args.max_steps, 1), CYCLES_STEP_LIMIT,
            f"anb-cycles walks {starts} odd starts for up to {args.max_steps} steps "
            f"each, over the budget of {CYCLES_STEP_LIMIT} steps; lower --limit or "
            "--max-steps")
    walk_bytes = anb_mod.catalog_walk_bytes(args.params, args.limit, args.max_steps)
    _budget(walk_bytes, CYCLES_MEMORY_LIMIT,
            f"anb-cycles holds one walk of up to {args.max_steps} steps at a time, estimated "
            f"at {walk_bytes} bytes, over the memory budget of {CYCLES_MEMORY_LIMIT}; "
            "lower --max-steps")
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

    _emit(args, out, doc, table, text)
    return EX_OK


# --------------------------------------------------------------------- table

_FORMAT = Option("--format", "text", type=None, choices=("text", "json", "csv"))
_OUTPUT_OPTIONS = (_FORMAT, Option("--output", None, "file path (default: stdout)", type=None))
_A, _B = Option("--a", 5), Option("--b", 1)
_SAMPLES = Option("--samples", 100, "lemma7/anb-eq: seeded draws", least=0)
_SEED = Option("--seed", 0, least=0)
_MAX_X0 = Option("--max-x0", 9999, "eq2/bohm: odd-start bound", least=0)
_MAX_N = Option("--max-n", 50, "geom/anb-eq: step bound", least=0)

CHECKS = {
    "lemma7": Command("residue-class shift law", (
        Option("--max-k", 12, "lemma7: largest modulus exponent", least=1), _SAMPLES, _SEED,
    ), _verify_lemma7),
    "eq2": Command("odd-trajectory closed form", (_MAX_X0,), _verify_eq2),
    "bohm": Command("start reconstruction from division exponents", (_MAX_X0,), _verify_bohm),
    "geom": Command("geometric tail sum", (
        _MAX_N, Option("--max-m", 50, "geom: extra-step bound", least=0),
    ), _verify_geom),
    "anb-eq": Command("generalized closed form", (_A, _B, _SAMPLES, _MAX_N, _SEED), _verify_anb_eq),
    "halfsplit": Command("step tallies over 1..2^M", (
        Option("--M", 10, "halfsplit: range is 1..2^M"),
        Option("--steps", None, "halfsplit: steps to tally"),
        Option("--lo", None, "halfsplit: subrange low end"),
        Option("--hi", None, "halfsplit: subrange high end"),
        Option("--method", "direct", type=None, choices=("direct", "classes")),
    ), _verify_halfsplit),
}

COMMANDS = {
    "trajectory": Command("print one orbit with step directions", (
        Option("x0", help="start value", least=1),
        Option("--map", "general", "shortcut map, odd-to-odd map, or generalized (a*x+b)/2^k",
               type=None, choices=("general", "odd", "anb")),
        Option("--max-steps", DEFAULT_MAX_STEPS, least=0, label="max-steps"),
        Option("--a", 5, "multiplier for --map anb"),
        Option("--b", 1, "offset for --map anb"),
    ), _cmd_trajectory),
    "verify": Command("run one exhaustive identity check", (
        Option("check", type=None, choices=tuple(CHECKS),
               help="; ".join(f"{name}: {check.help}" for name, check in CHECKS.items())),
        # each option once, in the order the checks first list it
        *dict.fromkeys(opt for check in CHECKS.values() for opt in check.options),
    ), _cmd_verify),
    "montecarlo": Command("seeded 0/1 drift-ratio experiment", (
        Option("--length", MC_SAMPLE_LENGTH, "bits per sample", least=2),
        Option("--samples", 14, least=2),
        _SEED,
        Option("--level", "all", "confidence level(s) for the interval block", type=None,
               choices=("95", "98", "99", "all")),
        Option("--fixture", None, "use the embedded published 14-row table instead of generating",
               type=None, choices=(MC_FIXTURE_NAME,)),
    ), _cmd_montecarlo),
    "sweep": Command("walk every start in 1..limit to 1", (
        Option("--limit", least=1, required=True),
        Option("--max-steps", DEFAULT_MAX_STEPS, least=0),
        Option("--threads", 1, f"worker processes, 1..{THREADS_LIMIT} (the pool never exceeds "
               "the CPUs)", least=1, most=THREADS_LIMIT),
    ), _cmd_sweep),
    "anb-cycles": Command("catalog cycles of one (a, b) map", (
        _A, _B, Option("--limit", 100, "odd starts searched", least=1),
        Option("--max-steps", 10**4, least=0),
    ), _cmd_cycles),
}


if __name__ == "__main__":
    sys.exit(main())
