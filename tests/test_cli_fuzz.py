"""A fuzzed exit-code contract: argvs drawn from the command table.

Each argv names a command (for verify, a check), some of its options and
every `--format`, with integers from each bound's edges and from a fixed set
of edge values, and sometimes `--output` to a file that holds "old\\n".  It
runs in-process through `cli.main`, as tests/test_cli_contract.py runs its
corpus, with every budget constant lowered as that file's PATCHED entries
lower it, so that any run the budgets admit is small; `--threads` comes only
from THREADS, so no draw starts a large pool.  Invariants:

- no exception escapes `cli.main`, and its exit code is 0, 1, 2 or 3;
- exits 1 and 3 write exactly one line on stderr, and no run writes a traceback;
- a run that writes nothing leaves the `--output` file as it was, and a run
  that writes leaves there exactly what it wrote.

A grid holds the same invariants for each an+b command on a huge --a or --b
with a small partner, which independent draws miss.
"""

import contextlib
import io

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from test_cli_contract import PATCHED

from collatzlab import cli as cli_mod
from collatzlab import halfsplit as halfsplit_mod
from collatzlab import identities as ident_mod

BUDGETS = [
    (cli_mod, "TRAJECTORY_OUTPUT_LIMIT", 2000),
    (cli_mod, "X0_START_LIMIT", 50),
    (cli_mod, "LEMMA7_CHECK_LIMIT", 28),
    (ident_mod, "SHIFT_UINT64_MAX_K", 3),
    (cli_mod, "GEOM_TERM_LIMIT", 63),
    (cli_mod, "ANB_EQ_CHECK_LIMIT", 100),  # no PATCHED entry: 20 samples of 5 steps
    (cli_mod, "CYCLES_STEP_LIMIT", 50),
    (cli_mod, "CYCLES_MEMORY_LIMIT", 11404798),
    (halfsplit_mod, "DIRECT_ELEMENT_LIMIT", 63),
    (halfsplit_mod, "CLASSES_STEP_LIMIT", 30),
    (halfsplit_mod, "DIRECT_STEP_LIMIT", 8),
    (halfsplit_mod, "DIRECT_ELEMENT_STEP_LIMIT", 320),
    (cli_mod, "MC_LENGTH_LIMIT", 100),
    (cli_mod, "MC_COIN_LIMIT", 1400),
    (cli_mod, "MC_SAMPLE_LIMIT", 14),
    (cli_mod, "SWEEP_START_LIMIT", 1000),
    (cli_mod, "SWEEP_FAILURE_LIMIT", 957),
]

EDGES = [-1, 0, 1, 2, 2**31, 2**63, 2**64 - 1, 2**64 + 1, 10**30, 10**309 + 1]
THREADS = [-1, 0, 1, 2, 257]
OLD = "old\n"


@pytest.fixture(scope="module")
def output(tmp_path_factory):
    """The --output path, with every budget lowered while the module runs."""
    with pytest.MonkeyPatch.context() as patch:
        for module, name, value in BUDGETS:
            patch.setattr(module, name, value)
        yield tmp_path_factory.mktemp("fuzz") / "out.txt"


def values(opt):
    if opt.choices:
        return st.sampled_from(opt.choices)
    if opt.flag == "--threads":
        return st.sampled_from(THREADS)
    edges = set(EDGES)
    for bound in (opt.least, opt.most):
        if bound is not None:
            edges |= {bound - 1, bound, bound + 1}
    return st.sampled_from(sorted(edges))


@st.composite
def argvs(draw):
    """A command, for verify a check, then each option given or left to its default."""
    name = draw(st.sampled_from(list(cli_mod.COMMANDS)))
    argv = [name]
    for opt in cli_mod.COMMANDS[name].options:
        if not opt.flag.startswith("-"):
            argv.append(str(draw(values(opt))))
        elif opt.required or draw(st.booleans()):
            argv += [opt.flag, str(draw(values(opt)))]
    argv += ["--format", draw(st.sampled_from(cli_mod._FORMAT.choices))]
    return argv, draw(st.booleans())


def check_contract(output, argv, to_file):
    """Run argv under the lowered budgets, check the invariants, return the exit code."""
    output.write_text(OLD)
    written = []
    write = cli_mod._Output.write

    def spy(self, text):
        written.append(text)
        write(self, text)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli_mod._Output, "write", spy)
        code = cli_mod.main(argv + (["--output", str(output)] if to_file else []))
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, argv
    if code in (1, 3):
        assert err.endswith("\n") and len(err.splitlines()) == 1, (argv, err)
    if to_file:
        assert out.getvalue() == ""
        assert output.read_bytes().decode() == ("".join(written) if written else OLD), argv
    else:
        assert out.getvalue() == "".join(written), argv
    return code


@given(argvs())
@settings(max_examples=1500, deadline=None, derandomize=True)
def test_exit_code_contract(output, case):
    argv, to_file = case
    event(f"{argv[0]} exit {check_contract(output, argv, to_file)}")


# One huge odd value with a small admissible partner (b >= 1, a >= 3), in
# either order: the an+b overflow class, which the draws above never reach, as
# they draw --a and --b independently.  Values stay below 10^400, where verify
# anb-eq is quick.
HUGE = {"2^64-1": 2**64 - 1, "2^64+1": 2**64 + 1, "10^309+1": 10**309 + 1}
ANB_PAIRS = {
    **{f"a={name},b={b}": (huge, b) for name, huge in HUGE.items() for b in (1, 3)},
    **{f"a={a},b={name}": (a, huge) for name, huge in HUGE.items() for a in (3, 5)},
}
ANB_ARGVS = [
    *(["anb-cycles", "--limit", str(limit), "--max-steps", str(steps)]
      for limit in (1, 2, 3) for steps in (0, 1, 2)),
    *(["trajectory", "7", "--map", "anb", "--max-steps", str(steps)] for steps in (0, 1, 2)),
    *(["verify", "anb-eq", "--samples", str(samples), "--max-n", str(n)]
      for samples in (0, 1, 2) for n in (0, 1, 2)),
]


@pytest.mark.parametrize("a, b", ANB_PAIRS.values(), ids=ANB_PAIRS.keys())
def test_huge_anb_pairs(output, a, b):
    for i, argv in enumerate(ANB_ARGVS):
        fmt = cli_mod._FORMAT.choices[i % len(cli_mod._FORMAT.choices)]
        check_contract(output, [*argv, "--a", str(a), "--b", str(b), "--format", fmt], i % 2 == 1)


# For each budget on `cli` that no "cli.NAME=" entry of PATCHED pins, an argv
# its BUDGETS value admits and one less stops: runners read the budgets from
# `cli` when they run, so a budget lowered there binds.
EDGE_ARGVS = {
    "ANB_EQ_CHECK_LIMIT": ["verify", "anb-eq", "--samples", "20", "--max-n", "5"],
}
UNPINNED = sorted(
    (name, value) for module, name, value in BUDGETS
    if module is cli_mod and not any(p.startswith(f"cli.{name}=") for p, _, _ in PATCHED)
)


@pytest.mark.parametrize("name, value", UNPINNED)
def test_unpinned_budgets_bind(name, value, monkeypatch, capsys):
    argv = EDGE_ARGVS[name]
    monkeypatch.setattr(cli_mod, name, value)
    assert cli_mod.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli_mod, name, value - 1)
    assert cli_mod.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and len(err.splitlines()) == 1
