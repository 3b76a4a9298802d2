"""Command-line interface.

Subcommands: trajectory, verify, montecarlo, sweep, anb-cycles.  Output is
text, JSON (JSON-lines for trajectory rows, a single document elsewhere), or
CSV; every JSON payload names its schema, shipped under collatzlab/schemas/.

Exit codes are a stable contract: 0 success, 1 usage error, 2 step limit or
failed/inconclusive check, 3 resource limit.  Output bytes depend only on the
run configuration: stochastic commands embed their seed, and worker counts
never appear in (or affect) the payload.
"""

from __future__ import annotations

import argparse
import dataclasses
import decimal
import io
import itertools
import json
import math
import os
import sys
from array import array
from collections.abc import Callable

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

# anb-cycles holds one walk at a time, of up to 2 x --max-steps steps with
# the ones it takes to settle later starts; above this many bytes by
# anb.catalog_walk_bytes, an upper bound on what a walk holds past 6,630
# steps, it stops with exit 3 (the default run estimates 12 MB; its longest
# walk holds 0.95 MB).
CYCLES_MEMORY_LIMIT = 1 << 28

# Generated montecarlo draws each sample's --length coins as one array, one
# byte a coin, when numpy draws them (4.5 ns a coin with its sum, 2-vCPU VM,
# numpy 2.4), and holds a document row per sample (about 1.8 KB and 55
# microseconds a row at --samples 10^5 --length 2: 5.6 s, 215 MB peak).  Above
# MC_LENGTH_LIMIT coins a sample, MC_COIN_LIMIT coins in all (about 20 s) or
# MC_SAMPLE_LIMIT samples (about 240 MB of rows) it stops with exit 3.
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

# sweep holds each failure as an int until the document is rendered: the JSON
# run peaks about 134 bytes a failure higher (--max-steps 0 at --limit 10^6 and
# 2 x 10^6, 2-vCPU VM), text 76 and csv 58, and a 10-digit start adds about 6.
# Above 2^28 bytes of failures at 140 bytes each the survey stops with exit 3,
# checked piece by piece before the failures are held.
SWEEP_FAILURE_LIMIT = (1 << 28) // 140

# Integer bounds of each command's (for verify, each check's) arguments, checked
# in order before it runs: (attribute, least, largest or None, name printed).
# _AN_B checks the (a, b) of an an+b map; trajectory's for --map anb only.
_AN_B = ("a", "b")
_SEED = ("seed", 0, None, "--seed")
_MAX_STEPS = ("max_steps", 0, None, "--max-steps")
_MAX_X0 = ("max_x0", 0, None, "--max-x0")
_BOUNDS = {
    "trajectory": (("x0", 1, None, "x0"), ("max_steps", 0, None, "max-steps"), _AN_B),
    "lemma7": (("max_k", 1, None, "--max-k"), ("samples", 0, None, "--samples"), _SEED),
    "eq2": (_MAX_X0,),
    "bohm": (_MAX_X0,),
    "geom": (("max_n", 0, None, "--max-n"), ("max_m", 0, None, "--max-m")),
    "anb-eq": (_AN_B, ("samples", 0, None, "--samples"), ("max_n", 0, None, "--max-n"), _SEED),
    "montecarlo": (("length", 2, None, "--length"), ("samples", 2, None, "--samples"), _SEED),
    "sweep": (("limit", 1, None, "--limit"), _MAX_STEPS,
              ("threads", 1, THREADS_LIMIT, "--threads")),
    "anb-cycles": (_AN_B, ("limit", 1, None, "--limit"), _MAX_STEPS),
}

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


def _json_line(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _finite(x: float) -> float | str:
    return x if math.isfinite(x) else repr(x)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="collatzlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_traj = sub.add_parser("trajectory", help="print one orbit with step directions")
    p_traj.add_argument("x0", type=int, help="start value")
    p_traj.add_argument(
        "--map",
        choices=["general", "odd", "anb"],
        default="general",
        help="shortcut map, odd-to-odd map, or generalized (a*x+b)/2^k",
    )
    p_traj.add_argument("--a", type=int, default=5, help="multiplier for --map anb")
    p_traj.add_argument("--b", type=int, default=1, help="offset for --map anb")
    p_traj.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    _add_output_args(p_traj)

    p_verify = sub.add_parser("verify", help="run one exhaustive identity check")
    p_verify.add_argument(
        "check",
        choices=["lemma7", "eq2", "bohm", "geom", "anb-eq", "halfsplit"],
        help=(
            "lemma7: residue-class shift law; eq2: odd-trajectory closed form; "
            "bohm: start reconstruction from division exponents; geom: geometric "
            "tail sum; anb-eq: generalized closed form; halfsplit: step tallies "
            "over 1..2^M"
        ),
    )
    p_verify.add_argument("--max-k", type=int, default=12, help="lemma7: largest modulus exponent")
    p_verify.add_argument("--samples", type=int, default=100, help="lemma7/anb-eq: seeded draws")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--max-x0", type=int, default=9999, help="eq2/bohm: odd-start bound")
    p_verify.add_argument("--max-n", type=int, default=50, help="geom/anb-eq: step bound")
    p_verify.add_argument("--max-m", type=int, default=50, help="geom: extra-step bound")
    p_verify.add_argument("--a", type=int, default=5)
    p_verify.add_argument("--b", type=int, default=1)
    p_verify.add_argument("--M", type=int, default=10, help="halfsplit: range is 1..2^M")
    p_verify.add_argument("--steps", type=int, default=None, help="halfsplit: steps to tally")
    p_verify.add_argument("--lo", type=int, default=None, help="halfsplit: subrange low end")
    p_verify.add_argument("--hi", type=int, default=None, help="halfsplit: subrange high end")
    p_verify.add_argument("--method", choices=["direct", "classes"], default="direct")
    _add_output_args(p_verify)

    p_mc = sub.add_parser("montecarlo", help="seeded 0/1 drift-ratio experiment")
    p_mc.add_argument("--length", type=int, default=MC_SAMPLE_LENGTH, help="bits per sample")
    p_mc.add_argument("--samples", type=int, default=14)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument(
        "--level",
        choices=["95", "98", "99", "all"],
        default="all",
        help="confidence level(s) for the interval block",
    )
    p_mc.add_argument(
        "--fixture",
        choices=[MC_FIXTURE_NAME],
        default=None,
        help="use the embedded published 14-row table instead of generating",
    )
    _add_output_args(p_mc)

    p_sweep = sub.add_parser("sweep", help="walk every start in 1..limit to 1")
    p_sweep.add_argument("--limit", type=int, required=True)
    p_sweep.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    p_sweep.add_argument(
        "--threads", type=int, default=1,
        help=f"worker processes, 1..{THREADS_LIMIT} (the pool never exceeds the CPUs)",
    )
    _add_output_args(p_sweep)

    p_cyc = sub.add_parser("anb-cycles", help="catalog cycles of one (a, b) map")
    p_cyc.add_argument("--a", type=int, default=5)
    p_cyc.add_argument("--b", type=int, default=1)
    p_cyc.add_argument("--limit", type=int, default=100, help="odd starts searched")
    p_cyc.add_argument("--max-steps", type=int, default=10**4)
    _add_output_args(p_cyc)

    return parser


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--output", default=None, help="file path (default: stdout)")


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
    handlers = {
        "trajectory": _cmd_trajectory,
        "verify": _cmd_verify,
        "montecarlo": _cmd_montecarlo,
        "sweep": _cmd_sweep,
        "anb-cycles": _cmd_cycles,
    }
    out = None
    try:
        args = build_parser().parse_args(argv)
        _check_args(args)
        out = _Output(args.output)
        return handlers[args.command](args, out.write)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EX_RESOURCE
    finally:
        if out is not None:
            out.close()


def _check_args(args: argparse.Namespace) -> None:
    """Check the bounds of `_BOUNDS` in order; set args.params to the an+b map, if any."""
    args.params = None
    if getattr(args, "fixture", None):
        return  # the published table sets its own length and samples
    for bound in _BOUNDS.get(args.check if args.command == "verify" else args.command, ()):
        if bound is not _AN_B:
            name, least, most, label = bound
            if getattr(args, name) < least:
                raise UsageError(f"{label} must be >= {least}")
            if most is not None and getattr(args, name) > most:
                raise UsageError(f"{label} must be <= {most}")
        elif getattr(args, "map", "anb") == "anb":
            try:
                args.params = AnbParams(a=args.a, b=args.b)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc


def _budget(work: int, limit: int, message: str) -> None:
    if work > limit:
        raise ResourceLimitError(message)


def _emit(args: argparse.Namespace, write: Callable[[str], None], doc: dict,
          table: Callable[[], list], lines: Callable[[], list]) -> None:
    """Write doc as JSON, the CSV rows of table() (a str row is a comment), or lines()."""
    if args.format == "json":
        write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    elif args.format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in table():
            if isinstance(row, str):
                buf.write(row + "\n")
            else:
                writer.writerow(row)
        write(buf.getvalue())
    else:
        write("\n".join(lines()) + "\n")


# ---------------------------------------------------------------- trajectory

# Per format: a step row from (step, from, to, kind, exponent field); the
# exponent field of the general map and, from k, of the odd maps; the summary.
# They give the bytes of `_json_line` and `csv.writer` rows.
_TRAJECTORY_FORMATS = {
    "json": (
        '{{"exponent":{4},"from":{1},"kind":"{3}","step":{0},"to":{2},"type":"step"}}\n',
        "null",
        "{}",
        '{{"cycle":{cycle_json},"final":{final},"steps":{steps},'
        '"terminated":"{terminated}","type":"summary"}}\n',
    ),
    "csv": (
        "{0},{1},{2},{3},{4}\r\n",
        "",
        "{}",
        "# terminated={terminated} final={final}\n",
    ),
    "text": (
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


def _cmd_trajectory(args: argparse.Namespace, write: Callable[[str], None]) -> int:
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

    row, no_exponent, exponent, foot = _TRAJECTORY_FORMATS[args.format]
    if args.format == "json":
        head = _json_line({
            "type": "header",
            "schema": "collatzlab/trajectory/v1",
            "start": args.x0,
            "map": args.map,
            "a": params.a if params else None,
            "b": params.b if params else None,
            "max_steps": args.max_steps,
        }) + "\n"
    elif args.format == "csv":
        head = "step,from,to,kind,exponent\r\n"
    else:
        head = (
            f"# start={args.x0} map={args.map}"
            + (f" a={params.a} b={params.b}" if params else "")
            + f" max_steps={args.max_steps}\n"
        )
    write(head)
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
        write(line)
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
    write(foot.format(cycle_json=_json_line(cycle), final=final, steps=steps,
                      terminated=terminated))
    if cycle and args.format == "text":
        write(f"# cycle={cycle}\n")
    # written counts the row left out, so it is over the budget only after a stop
    _budget(written, TRAJECTORY_OUTPUT_LIMIT,
            f"trajectory stopped after {steps} steps: the next row would take its "
            f"output past the budget of {TRAJECTORY_OUTPUT_LIMIT} bytes; lower --max-steps")
    return EX_INCONCLUSIVE if terminated == Termination.STEP_LIMIT.value else EX_OK


# -------------------------------------------------------------------- verify


def _cmd_verify(args: argparse.Namespace, write: Callable[[str], None]) -> int:
    runners = {
        "lemma7": _verify_lemma7,
        "eq2": _verify_eq2,
        "bohm": _verify_bohm,
        "geom": _verify_geom,
        "anb-eq": _verify_anb_eq,
        "halfsplit": _verify_halfsplit,
    }
    doc = _verify_doc(args.check)

    def table() -> list:
        if doc["report"]:  # the tallies, whose fields are in column order
            tallies = doc["report"]["tallies"]
            return [["step", "increases", "decreases", "within_theorem"]] + [
                list(t.values()) for t in tallies
            ]
        keys = ["check", "checks_run", "failures", "passed"]
        return [keys, [doc[k] for k in keys]]

    def lines() -> list[str]:
        lines = [
            f"check={doc['check']} parameters={doc['parameters']}",
            f"checks_run={doc['checks_run']} failures={doc['failures']} passed={doc['passed']}",
        ]
        if doc.get("error"):
            lines.append(f"error: {doc['error']}")
        if doc["counterexample"] is not None:
            lines.append(f"first counterexample: {doc['counterexample']}")
        if doc["report"]:
            for t in doc["report"]["tallies"]:
                flag = "" if t["within_theorem"] else "  [outside theorem range]"
                lines.append(
                    f"step {t['step']:>3}: increases={t['increases']} "
                    f"decreases={t['decreases']}{flag}"
                )
        return lines

    try:
        runners[args.check](args, doc)
    except ResourceLimitError as exc:
        doc.update(passed=None, partial=True, error=str(exc))
        _emit(args, write, doc, table, lines)
        raise
    _emit(args, write, doc, table, lines)
    return EX_INCONCLUSIVE if doc["passed"] is False else EX_OK


def _verify_doc(check: str) -> dict:
    """The document a runner fills; runners set the parameters after their budgets."""
    return {
        "schema": "collatzlab/verify/v1",
        "check": check,
        "parameters": {},
        "checks_run": 0,
        "failures": 0,
        "passed": True,
        "counterexample": None,
        "partial": False,
        "report": None,
    }


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

    (draws,) = seeded_draws(args.seed, 1, args.samples, M_SEED_RANGE)
    ms = array("Q")
    if hasattr(draws, "tobytes"):  # numpy's int64 array, above the draw crossover:
        ms.frombytes(memoryview(draws).cast("B"))  # values below 2^20: uint64 bytes
    else:  # a stream of ints
        ms.extend(draws)
    del draws
    for k in range(1, args.max_k + 1):
        for g0, count, lhs, rhs in ident_mod.residue_shift_blocks(k, ms):
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
    from . import identities as ident_mod

    for x0 in _odd_starts(args, doc):
        values, exponents = odd_walk(x0)
        checks = ident_mod.closed_form_checks(x0, values, exponents)
        for n, res in enumerate(checks, start=1):
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
    from . import identities as ident_mod
    from .pcg64 import seeded_draws

    params = args.params
    (draws,) = seeded_draws(args.seed, 1, args.samples, M_SEED_RANGE // 2)
    for m in map(int, draws):
        x0 = 2 * m + 1
        values, exps = anb_mod.anb_steps_extended(x0, params, args.max_n)
        checks = ident_mod.closed_form_checks(x0, values, exps, params)
        for n, res in enumerate(checks, start=1):
            doc["checks_run"] += 1
            if not res.holds:
                _note_failure(doc, {"x0": x0, "n": n, "lhs": res.lhs, "rhs": res.rhs})


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


def _cmd_montecarlo(args: argparse.Namespace, write: Callable[[str], None]) -> int:
    import statistics

    from . import stats as stats_mod
    from .reference_table import REFERENCE_ROWS, SAMPLE_LENGTH

    if args.fixture:
        rows = [dataclasses.asdict(r) for r in REFERENCE_ROWS]
        source = f"fixture:{args.fixture}"
        seed = None
        length = SAMPLE_LENGTH
        published = stats_mod.interval_discrepancy_report()
        published = {
            "mean_one_plus_xi": published["mean_one_plus_xi"],
            "reproducible": published["reproducible"],
            "note": published["note"],
            "levels": {
                str(int(level * 100)): {
                    "published": list(block["published"]),
                    "computed_mu_normal": list(block["computed_mu_normal"]),
                    "computed_mu_t": list(block["computed_mu_t"]),
                    "computed_chi_normal": list(block["computed_chi_normal"]),
                    "computed_chi_t": list(block["computed_chi_t"]),
                }
                for level, block in published["levels"].items()
            },
        }
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
        samples = stats_mod.sample_ratios(args.length, args.samples, args.seed)
        rows = [
            {
                "sample": j + 1,
                "zeros": s.zeros,
                "ones": s.ones,
                "xi": _finite(s.xi),
                "one_plus_xi": _finite(1 + s.xi),
                "indicator_std": stats_mod.indicator_sample_std(s.zeros, s.ones),
                "chi": _finite(2.0 ** (1 + s.xi)) if math.isfinite(s.xi) else "inf",
            }
            for j, s in enumerate(samples)
        ]
        source = "generated"
        seed = args.seed
        length = args.length
        published = None

    one_plus = [r["one_plus_xi"] for r in rows if isinstance(r["one_plus_xi"], float)]
    if len(one_plus) < 2:
        raise UsageError(
            "almost every sample drew zero increase bits; increase --length"
        )
    base = stats_mod.SampleStats.from_values(one_plus)
    stats_block = {
        "mean_xi": statistics.fmean(
            r["xi"] for r in rows if isinstance(r["xi"], float)
        ),
        "mean_one_plus_xi": base.mean,
        "std_one_plus_xi": base.std,
        "mean_indicator_std": statistics.fmean(r["indicator_std"] for r in rows),
    }
    levels = [0.95, 0.98, 0.99] if args.level == "all" else [int(args.level) / 100]
    intervals = {str(int(level * 100)): stats_mod.level_intervals(base, level) for level in levels}
    doc = {
        "schema": "collatzlab/montecarlo/v1",
        "source": source,
        "seed": seed,
        "length": length,
        "samples": len(rows),
        "rows": rows,
        "stats": stats_block,
        "intervals": intervals,
        "published_comparison": published,
    }
    head = f"# source={source} seed={seed} length={length} samples={len(rows)}"

    def table() -> list:
        return [head, ["sample", "xi", "one_plus_xi", "indicator_std", "chi"]] + [
            [r["sample"], r["xi"], r["one_plus_xi"], f"{r['indicator_std']:.4f}", r["chi"]]
            for r in rows
        ]

    def lines() -> list[str]:
        lines = [head, f"{'sample':>6} {'xi':>8} {'1+xi':>8} {'s':>8} {'2^(1+xi)':>10}"]
        for r in rows:
            lines.append(
                f"{r['sample']:>6} {r['xi']:>8.4f} {r['one_plus_xi']:>8.4f} "
                f"{r['indicator_std']:>8.4f} {r['chi']:>10.4f}"
                if isinstance(r["xi"], float)
                else f"{r['sample']:>6} {r['xi']:>8} {r['one_plus_xi']:>8} "
                f"{r['indicator_std']:>8.4f} {r['chi']:>10}"
            )
        lines.append(
            "mean(xi)={mean_xi:.6f} mean(1+xi)={mean_one_plus_xi:.6f} "
            "std(1+xi)={std_one_plus_xi:.6f} mean(s)={mean_indicator_std:.6f}".format(
                **stats_block
            )
        )
        for key in sorted(intervals):
            block = intervals[key]
            lines.append(
                f"{key}% mu normal [{block['mu_normal'][0]:.4f}, {block['mu_normal'][1]:.4f}] "
                f"t [{block['mu_t'][0]:.4f}, {block['mu_t'][1]:.4f}] "
                f"chi normal [{block['chi_normal'][0]:.4f}, {block['chi_normal'][1]:.4f}] "
                f"t [{block['chi_t'][0]:.4f}, {block['chi_t'][1]:.4f}]"
            )
        if published:
            lines.append(
                "published bounds (same numbers in both printed tables) are not "
                "reproduced by these rows:"
            )
            for key in sorted(published["levels"]):
                block = published["levels"][key]
                lines.append(
                    f"  {key}%: published [{block['published'][0]:.4f}, "
                    f"{block['published'][1]:.4f}] vs computed chi "
                    f"[{block['computed_chi_normal'][0]:.4f}, "
                    f"{block['computed_chi_normal'][1]:.4f}]"
                )
        return lines

    _emit(args, write, doc, table, lines)
    return EX_OK


# --------------------------------------------------------------------- sweep


def _cmd_sweep(args: argparse.Namespace, write: Callable[[str], None]) -> int:
    _budget(args.limit, SWEEP_START_LIMIT,
            f"sweep --limit {args.limit} is over the budget of {SWEEP_START_LIMIT} starts; "
            "lower --limit")
    from .sweep import survey_range  # numpy loads here, the process pool only if it runs

    def hold(failures: int) -> None:
        _budget(failures, SWEEP_FAILURE_LIMIT,
                f"sweep would hold {failures} failures, over the budget of "
                f"{SWEEP_FAILURE_LIMIT} (about 140 bytes each); lower --limit or "
                "raise --max-steps")

    survey = survey_range(
        1, args.limit + 1, max_steps=args.max_steps, workers=args.threads, failure_budget=hold
    )
    doc = {
        "schema": "collatzlab/sweep/v1",
        "limit": args.limit,
        "max_steps": args.max_steps,
        "verified": survey.verified,
        "failures": list(survey.failures),
        "max_total_stopping_time": survey.max_total_stopping_time,
        "tst_argmax": survey.tst_argmax,
        "max_ratio": survey.max_ratio,
        "ratio_argmax": survey.ratio_argmax,
        "max_excursion": survey.peak,
    }
    keys = list(doc)[1:]  # the CSV columns: all but the schema, failures counted
    _emit(
        args, write, doc,
        lambda: [keys, [len(doc["failures"]) if k == "failures" else doc[k] for k in keys]],
        lambda: [
            f"verified {doc['verified']} of {doc['limit']} starts reach 1 "
            f"within {doc['max_steps']} steps",
            f"failures: {doc['failures'] if doc['failures'] else 'none'}",
            f"max total stopping time: {doc['max_total_stopping_time']} "
            f"at x={doc['tst_argmax']}",
            f"max total/ln(x): {doc['max_ratio']} at x={doc['ratio_argmax']}",
            f"max excursion: {doc['max_excursion']}",
        ],
    )
    return EX_INCONCLUSIVE if survey.failures else EX_OK


# -------------------------------------------------------------------- cycles


def _cmd_cycles(args: argparse.Namespace, write: Callable[[str], None]) -> int:
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
    cycles = []
    for record in catalog:
        lhs, rhs, ok = record.product_identity()
        cycles.append(
            {
                "members": list(record.members),
                "exponents": list(record.exponents),
                "sum_exponents": record.sum_exponents,
                "product_lhs": lhs,
                "product_rhs": rhs,
                "verified": ok,
            }
        )
    doc = {
        "schema": "collatzlab/cycles/v1",
        "a": args.a,
        "b": args.b,
        "start_limit": args.limit,
        "max_steps": args.max_steps,
        "cycles": cycles,
    }

    def table() -> list:
        return [["members", "exponents", "sum_exponents", "verified"]] + [
            [" ".join(map(str, c["members"])), " ".join(map(str, c["exponents"])),
             c["sum_exponents"], c["verified"]]
            for c in cycles
        ]

    def lines() -> list[str]:
        lines = [f"map ({args.a}n+{args.b}), odd starts 1..{args.limit}:"]
        for c in cycles:
            lines.append(
                f"  cycle {c['members']} exponents {c['exponents']} "
                f"(2^{c['sum_exponents']} product identity "
                f"{'verified' if c['verified'] else 'FAILED'})"
            )
        if not cycles:
            lines.append("  no cycles entered within the step budget")
        return lines

    _emit(args, write, doc, table, lines)
    return EX_OK


if __name__ == "__main__":
    sys.exit(main())
