"""Command-line interface.

Subcommands: trajectory, verify, montecarlo, sweep, anb-cycles.  Each is one
entry of `COMMANDS`, and each check of verify one entry of `CHECKS`: its
options, with the bounds checked before it runs, and its runner.  This
module holds only what every command needs: the table, the parser, the
budgets, the writers, `main` and `entry`.  Each runner lives in a module of its own
(`cli_trajectory`, `cli_verify`, `cli_montecarlo`, `cli_sweep`,
`cli_cycles`), imported when its command is dispatched, so a command
compiles and imports only the code it runs.  Output is text, JSON or CSV,
written as it is produced: trajectory rows as JSON lines, and every other
document as one JSON document whose long list (montecarlo's rows, sweep's
failures) is encoded a block at a time, never held whole.  Every JSON
payload names its schema, shipped under collatzlab/schemas/.

Exit codes are a stable contract: 0 success, 1 usage error (or a closed pipe
or stdout), 2 step limit or failed/inconclusive check, 3 resource limit (or a
full device).  Output bytes depend only on the run configuration: stochastic
commands embed their seed, and worker counts never appear in (or affect) the
payload.

`entry`, which `python -m collatzlab`, `python -m collatzlab.cli` and the
`collatzlab` script run, flushes stdout and stderr once `main` returns and
exits by `os._exit`, skipping the interpreter's teardown.  Three rules keep
that safe: `_Output.close` flushes stdout or closes the --output file inside
`main`; `sweep._walks_in_order` joins its pool threads in its `finally`; and
no module registers an `atexit` handler or a finalizer.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import importlib
import itertools
import os
import sys
from collections.abc import Callable, Iterable
from typing import NamedTuple

# dynamics is the one engine module loaded here; the runners, the other
# engines, numpy and csv load when the command that uses them runs.
from .dynamics import DEFAULT_MAX_STEPS, AnbParams, ResourceLimitError

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

# verify eq2 and bohm walk every odd start up to --max-x0 to 1, one exact odd
# walk a start; above this many starts they stop with exit 3, so a run walks
# at most 2^20 starts below 2^21, none of them more than 207 odd steps (1723519).
X0_START_LIMIT = 1 << 20

# verify anb-eq runs samples x max(max_n, 1) closed-form checks, each a step of
# the walk and an exact int comparison; above this many it stops with exit 3
# (the default makes 10,000).
ANB_EQ_CHECK_LIMIT = 1 << 22

# anb-cycles walks each odd start for at most --max-steps steps, and a walk
# that goes up to --max-steps steps further settles a start that is then not
# walked, so it takes at most odd starts x max(max_steps, 1) steps; above that
# many it stops with exit 3.  The default run (--limit 100) counts 500,000 and
# takes 120,063.
CYCLES_STEP_LIMIT = 1 << 24

# anb-cycles holds one walk at a time, of up to 2 x --max-steps + 1 steps
# with the ones it takes to settle later starts; above this many bytes by
# catalog.catalog_walk_bytes, about 570 bytes a step and the walk's last value,
# it stops with exit 3 (the default run estimates 11.4 MB; its longest walk
# holds 0.97 MB).  At --limit 100 it admits --max-steps up to 235,381.
CYCLES_MEMORY_LIMIT = 1 << 28

# Generated montecarlo draws each sample's --length coins as one array, one
# byte a coin, when numpy draws them, and holds each sample's (xi, zeros, ones)
# and three doubles while its rows stream out (120-150 bytes a sample under
# tracemalloc at --length 2).  Above MC_LENGTH_LIMIT coins a sample (a 256 MB
# array), MC_COIN_LIMIT coins in all or MC_SAMPLE_LIMIT samples it stops with
# exit 3: the coins bound the drawing, and the samples both the rows held
# (under 20 MB) and stats.t_critical, which does O(df) work a level.
MC_LENGTH_LIMIT = 1 << 28
MC_COIN_LIMIT = 1 << 32
MC_SAMPLE_LIMIT = 1 << 17

# verify geom sums (max_n + 1)(max_m + 1)(max_m + 2)/2 terms (the message's
# "Fraction terms", summed as ints over 3^(n+m)), a product and a sum each;
# above this many it stops with exit 3, which still admits `verify geom
# --max-n 200 --max-m 200` (4,080,501 terms).  The default run makes 67,626.
GEOM_TERM_LIMIT = 1 << 22

# trajectory writes its rows while the output stays within this many bytes;
# the row that would pass it is left out, and the run ends with its summary
# and exit 3.  The 5n+1 orbit of 7 reaches it after 53,347 steps as text,
# 53,087 as JSON and 53,369 as CSV.
TRAJECTORY_OUTPUT_LIMIT = 1 << 28

# sweep runs at most this many walkers: with --threads n the calling thread
# walks, and so do n - 1 worker threads, never more than the CPUs in all.
THREADS_LIMIT = 256

# sweep surveys at most this many starts; above it it stops with exit 3 before
# numpy loads.  It is the bound the walks are checked to: every orbit from a
# start up to 10^9 stays below sweep.UINT64_SAFE_MAX (Oliveira e Silva's path
# records), and a survey's memory is bounded at any range by its 16 MB table
# and its pieces of 2^18 starts.
SWEEP_START_LIMIT = 10**9

# sweep holds each failure as an int while its document streams out: the run
# peaks 50-60 bytes a failure higher in every format (--max-steps 0 at
# --limit 10^6 to 4 x 10^6).  Above 2^28 bytes of failures at 60
# bytes each the survey stops with exit 3, checked piece by piece before the
# failures are held.
SWEEP_FAILURE_BYTES = 60
SWEEP_FAILURE_LIMIT = (1 << 28) // SWEEP_FAILURE_BYTES

# Items of a streamed JSON list encoded at a time: one encoder call a block
# costs less than one an item, and a block of montecarlo rows is about 170 KB.
_JSON_BLOCK = 1024
_MARK = "\0"  # stands in for a streamed list while the rest of its document encodes


class UsageError(Exception):
    pass


_STDOUT_CLOSED = "cannot write stdout: it is closed"  # stdout closed at the start (`>&-`)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise UsageError(message)

    def _print_message(self, message: str, file=None) -> None:  # argparse hook
        # argparse drops a failed write, and prints to stderr when stdout is
        # closed; --help's text, the one message it writes to stdout, ends in
        # one line, as any write to a closed or failing stdout does
        if file is None and sys.stdout is None:
            raise UsageError(_STDOUT_CLOSED)
        if file is not sys.stdout:
            return super()._print_message(message, file)
        try:
            file.write(message)
        except OSError as exc:
            raise _write_error(exc, None) from None


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
    bounds are checked, and its runner, "module.function" in the package.

    The runner's module is imported when its command is dispatched (see
    `_runner`), so a command compiles and loads only the code it runs.  A
    runner reads the budgets below as `cli.NAME` when it runs, so that a
    budget set on this module takes effect.
    """

    help: str
    options: tuple[Option, ...]
    run: str


def _runner(command: Command) -> Callable:
    """The function that runs the command, imported from its module."""
    module, name = command.run.split(".")
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


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

    Writes are joined into chunks of 32 KiB plus at most one write, so a
    streamed document costs one system call per chunk, not per row, even
    when stdout is unbuffered, and an output smaller than a chunk is written
    at once, at the end.  A chunk is half of Linux's default 64 KiB pipe: a
    reader drains one chunk while the command renders the next, where a
    chunk larger than the pipe blocks each write until the pipe is empty.
    The file, or stdout, is tried before any work, but the file is opened
    (and truncated) at the first chunk, so a command that fails before it
    writes leaves it as it was.  A failed write raises the error the
    command ends with (see `_write_error`).
    """

    CHUNK = 1 << 15

    def __init__(self, path: str | None) -> None:
        if path is None and sys.stdout is None:
            raise UsageError(_STDOUT_CLOSED)
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

    def close(self) -> None:
        self._flush(close=True)

    def _flush(self, close: bool = False) -> None:
        """Write the parts held; on close, flush stdout or close the file, so
        that a closed pipe or a full device fails here, not at the exit."""
        text = "".join(self._parts)
        self._parts.clear()
        self._size = 0
        try:
            if self._path is None:
                sys.stdout.write(text)
                if close:
                    sys.stdout.flush()
                return
            if self._file is None and text:
                self._file = open(self._path, "w")
            if self._file is not None:
                self._file.write(text)
                if close:
                    self._file.close()
        except OSError as exc:
            if self._file is not None:
                with contextlib.suppress(OSError):
                    self._file.close()  # what it still holds is dropped
                self._file = None
            raise _write_error(exc, self._path) from None


def _write_error(exc: OSError, path: str | None) -> Exception:
    """The error a failed write of stdout (path None) or of --output path ends
    with; stdout is pointed at devnull first, so that no later flush fails."""
    if path is None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if isinstance(exc, BrokenPipeError):
        return UsageError("the output pipe was closed before the output was written")
    where = "stdout" if path is None else f"--output {path}"
    error = ResourceLimitError if exc.errno in (errno.ENOSPC, errno.EDQUOT) else UsageError
    return error(f"cannot write {where}: {exc.strerror}")


def _report(exc: UsageError | ResourceLimitError) -> int:
    """Print the one line of a usage error or a resource limit; return its exit code."""
    if isinstance(exc, UsageError):
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    print(f"resource limit: {exc}", file=sys.stderr)
    return EX_RESOURCE


def entry() -> None:
    """Run `main` as the process: flush stdout and stderr, then `os._exit`.

    A failed flush of stdout ends as a failed write in `main` does; an
    exception that `main` does not handle propagates to the interpreter.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help, once it has printed
        code = exc.code
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            code = _report(_write_error(exc, None))
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            sys.stderr.flush()
    os._exit(code)


def main(argv: list[str] | None = None) -> int:
    # The package makes no BLAS call, and OpenBLAS starts a thread per CPU when
    # numpy loads, threads whose CPU time no call repays: one is enough, and
    # the sweep's walkers keep the CPUs.  A caller's setting is kept,
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
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)
        if blas_unset:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)


def _main(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = COMMANDS[args.command]
        _check_args(args, CHECKS[args.check] if args.command == "verify" else command)
        out = _Output(args.output)
        try:
            return _runner(command)(args, out)
        finally:
            out.close()  # a failed write here replaces the runner's error
    except (UsageError, ResourceLimitError) as exc:
        return _report(exc)
    except MemoryError:  # a budget admitted more than the process may allocate
        print("resource limit: out of memory; lower the command's size", file=sys.stderr)
        return EX_RESOURCE


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
    as the placeholder's.  json is imported here, so that a command that
    writes no JSON document, trajectory among them, never loads it.
    """
    import json

    encoder = json.JSONEncoder(sort_keys=True, indent=2)
    blocks = _blocks(doc[key] if key else ())
    block = next(blocks, None)
    if block is None:
        out.write(encoder.encode({**doc, key: []} if key else doc) + "\n")
        return
    head, tail = encoder.encode({**doc, key: [_MARK]}).split(encoder.encode(_MARK))
    indent = head[len(head.rstrip(" ")):]  # the item lines' indent; an encoded block's is 2
    sep = head
    while block is not None:  # each block's items, less its "[\n  " and "\n]"
        out.write(sep + encoder.encode(block)[4:-2].replace("\n", "\n" + indent[2:]))
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
    ), "cli_verify.lemma7"),
    "eq2": Command("odd-trajectory closed form", (_MAX_X0,), "cli_verify.eq2"),
    "bohm": Command("start reconstruction from division exponents", (_MAX_X0,),
                    "cli_verify.bohm"),
    "geom": Command("geometric tail sum", (
        _MAX_N, Option("--max-m", 50, "geom: extra-step bound", least=0),
    ), "cli_verify.geom"),
    "anb-eq": Command("generalized closed form", (_A, _B, _SAMPLES, _MAX_N, _SEED),
                      "cli_verify.anb_eq"),
    "halfsplit": Command("step tallies over 1..2^M", (
        Option("--M", 10, "halfsplit: range is 1..2^M"),
        Option("--steps", None, "halfsplit: steps to tally"),
        Option("--lo", None, "halfsplit: subrange low end"),
        Option("--hi", None, "halfsplit: subrange high end"),
        Option("--method", "direct", type=None, choices=("direct", "classes")),
    ), "cli_verify.halfsplit"),
}

COMMANDS = {
    "trajectory": Command("print one orbit with step directions", (
        Option("x0", help="start value", least=1),
        Option("--map", "general", "shortcut map, odd-to-odd map, or generalized (a*x+b)/2^k",
               type=None, choices=("general", "odd", "anb")),
        Option("--max-steps", DEFAULT_MAX_STEPS, least=0, label="max-steps"),
        Option("--a", 5, "multiplier for --map anb"),
        Option("--b", 1, "offset for --map anb"),
    ), "cli_trajectory.run"),
    "verify": Command("run one exhaustive identity check", (
        Option("check", type=None, choices=tuple(CHECKS),
               help="; ".join(f"{name}: {check.help}" for name, check in CHECKS.items())),
        # each option once, in the order the checks first list it
        *dict.fromkeys(opt for check in CHECKS.values() for opt in check.options),
    ), "cli_verify.run"),
    "montecarlo": Command("seeded 0/1 drift-ratio experiment", (
        Option("--length", MC_SAMPLE_LENGTH, "bits per sample", least=2),
        Option("--samples", 14, least=2),
        _SEED,
        Option("--level", "all", "confidence level(s) for the interval block", type=None,
               choices=("95", "98", "99", "all")),
        Option("--fixture", None, "use the embedded published 14-row table instead of generating",
               type=None, choices=(MC_FIXTURE_NAME,)),
    ), "cli_montecarlo.run"),
    "sweep": Command("walk every start in 1..limit to 1", (
        Option("--limit", least=1, required=True),
        Option("--max-steps", DEFAULT_MAX_STEPS, least=0),
        Option("--threads", 1, f"walkers, 1..{THREADS_LIMIT}: the calling thread and "
               "THREADS - 1 worker threads, no more than the CPUs", least=1, most=THREADS_LIMIT),
    ), "cli_sweep.run"),
    "anb-cycles": Command("catalog cycles of one (a, b) map", (
        _A, _B, Option("--limit", 100, "odd starts searched", least=1),
        Option("--max-steps", 10**4, least=0),
    ), "cli_cycles.run"),
}


if __name__ == "__main__":
    # Run as `python -m collatzlab.cli`, this module is __main__, while the
    # runners import collatzlab.cli: run that module, whose errors main catches.
    from . import cli

    cli.entry()
