"""The streamed `trajectory` command and the modules a light command loads.

Every output is compared byte for byte with the rendering the command had
before it streamed: the whole orbit walked first, each row built as a dict,
every value converted by str(int), and the document joined at the end
(`reference` below).  The decimal renderer is exercised where it is most
likely to go wrong: x0 = 1, orbits that end at 1 or in a cycle, steps that
remove 2^40 or more, and values either side of Python's 4300-digit int/str
guard.
"""

import ast
import csv
import decimal
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from test_dynamics import step_kinds

from collatzlab import anb as anb_mod
from collatzlab import cli as cli_mod
from collatzlab import cli_trajectory
from collatzlab.cli import EX_INCONCLUSIVE, EX_OK, EX_RESOURCE, EX_USAGE, main
from collatzlab.dynamics import (
    DEFAULT_MAX_STEPS,
    AnbParams,
    Termination,
    orbit_steps,
    trajectory_general,
    trajectory_odd,
)

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = ROOT / "src" / "collatzlab" / "schemas" / "trajectory.v1.json"
DIGIT_GUARD = 4300  # Python's default int/str conversion limit


@contextmanager
def unlimited_int_text():
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def reference(x0, map="general", a=5, b=1, max_steps=DEFAULT_MAX_STEPS, fmt="text",
              limit=None):
    """(bytes, exit code) of the pre-streaming rendering of one orbit.

    With a byte limit, rows are kept while the header and the rows fit in it,
    and the summary then reports the resource limit.
    """
    params, cycle = None, None
    if map == "general":
        traj = trajectory_general(x0, max_steps=max_steps)
        exponents = [None] * traj.step_count
    elif map == "odd":
        traj, pe = trajectory_odd(x0, max_steps=max_steps)
        exponents = list(pe.exponents)
    else:
        params = AnbParams(a=a, b=b)
        traj, pe = anb_mod.trajectory_anb(x0, params, max_steps=max_steps)
        exponents = list(pe.exponents)
        if traj.terminated is Termination.REACHED_CYCLE:
            cycle = list(anb_mod.find_cycle(x0, params, max_steps=max_steps + 1).members)
    rows = [
        {"type": "step", "step": i + 1, "from": traj.values[i], "to": traj.values[i + 1],
         "kind": kind.value, "exponent": exponents[i]}
        for i, kind in enumerate(step_kinds(traj.values))
    ]
    with unlimited_int_text():
        if fmt == "json":
            header = {"type": "header", "schema": "collatzlab/trajectory/v1", "start": x0,
                      "map": map, "a": params.a if params else None,
                      "b": params.b if params else None, "max_steps": max_steps}
            dump = lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
            head, lines = dump(header), [dump(r) for r in rows]
        elif fmt == "csv":
            buf = io.StringIO()
            csv.writer(buf).writerow(["step", "from", "to", "kind", "exponent"])
            head, lines = buf.getvalue(), []
            for r in rows:
                buf = io.StringIO()
                csv.writer(buf).writerow(
                    [r["step"], r["from"], r["to"], r["kind"], r["exponent"] or ""])
                lines.append(buf.getvalue())
        else:
            head = (f"# start={x0} map={map}" + (f" a={a} b={b}" if params else "")
                    + f" max_steps={max_steps}\n")
            lines = []
            for r in rows:
                k = f" k={r['exponent']}" if r["exponent"] is not None else ""
                lines.append(f"{r['step']:>5} {r['from']} -> {r['to']} {r['kind']}{k}\n")
        terminated = traj.terminated.value
        code = EX_INCONCLUSIVE if traj.terminated is Termination.STEP_LIMIT else EX_OK
        if limit is not None:
            size = len(head)
            for n, line in enumerate(lines):
                size += len(line)
                if size > limit:
                    del lines[n:]
                    terminated, code, cycle = "resource-limit", EX_RESOURCE, None
                    break
        steps, final = len(lines), traj.values[len(lines)]
        if fmt == "json":
            foot = dump({"type": "summary", "terminated": terminated, "steps": steps,
                         "final": final, "cycle": cycle})
        elif fmt == "csv":
            foot = f"# terminated={terminated} final={final}\n"
        else:
            foot = f"# terminated={terminated} steps={steps} final={final}\n"
            if cycle:
                foot += f"# cycle={cycle}\n"
    return head + "".join(lines) + foot, code


def argv_of(x0, map="general", a=5, b=1, max_steps=None, fmt="text"):
    with unlimited_int_text():
        argv = ["trajectory", str(x0), "--map", map, "--format", fmt]
        if map == "anb":
            argv += ["--a", str(a), "--b", str(b)]
    if max_steps is not None:
        argv += ["--max-steps", str(max_steps)]
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


FORMATS = ("text", "json", "csv")


def short_id(value):
    """A test id for big starts, whose str() the default guard refuses."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"{value.bit_length()}-bit"
    return None

# (x0, map, a, b, max_steps): x0 = 1, orbits that reach 1, anb orbits that end
# in a cycle (after zero steps too), step limits, and steps removing 2^45
# (odd map, to 5) and 2^41 (5n+1, to 3).
ORBITS = [
    (1, "general", 5, 1, None),
    (1, "odd", 5, 1, None),
    (1, "anb", 5, 1, None),
    (1, "anb", 3, 5, None),
    (27, "general", 5, 1, None),
    (27, "odd", 5, 1, None),
    (13, "anb", 5, 1, None),
    (17, "anb", 5, 1, None),
    (7, "general", 5, 1, 3),
    (7, "anb", 7, 1, 0),
    (7, "anb", 5, 1, 40),
    ((5 << 45) // 3, "odd", 5, 1, None),
    ((3 << 41) // 5, "anb", 5, 1, None),
    (2**3000 - 1, "general", 5, 1, 500),
]


class TestSameBytes:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("x0, map, a, b, max_steps", ORBITS, ids=short_id)
    def test_orbits(self, x0, map, a, b, max_steps, fmt):
        code, out, err = run(argv_of(x0, map, a, b, max_steps, fmt))
        steps = DEFAULT_MAX_STEPS if max_steps is None else max_steps
        assert (out, code) == reference(x0, map, a, b, steps, fmt)
        assert err == ""

    def test_large_exponents_are_exercised(self):
        _, pe = trajectory_odd((5 << 45) // 3)
        assert pe.exponents[0] == 45
        _, pe = anb_mod.trajectory_anb((3 << 41) // 5, AnbParams(5, 1))
        assert pe.exponents[0] == 41

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize(
        "x0", [10**DIGIT_GUARD - 1, 10**DIGIT_GUARD + 1], ids=["4300-digits", "4301-digits"]
    )
    def test_starts_either_side_of_the_digit_guard(self, x0, fmt):
        # 4300 and 4301 digits; halvings take the odd one below 10^4300
        code, out, err = run(argv_of(x0, max_steps=60, fmt=fmt))
        assert (out, code) == reference(x0, max_steps=60, fmt=fmt)
        assert code == EX_INCONCLUSIVE and err == ""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 10**80),
        st.sampled_from(["general", "odd", "anb"]),
        st.sampled_from([(5, 1), (3, 1), (7, 3), (1001, 1)]),
        st.integers(0, 300),
        st.sampled_from(FORMATS),
    )
    def test_random_starts(self, x0, map, ab, max_steps, fmt):
        if map != "general":
            x0 |= 1
        code, out, err = run(argv_of(x0, map, *ab, max_steps, fmt))
        assert (out, code) == reference(x0, map, *ab, max_steps, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_output_file(self, tmp_path, fmt):
        target = tmp_path / "orbit"
        code, out, err = run(argv_of(27, "odd", fmt=fmt) + ["--output", str(target)])
        assert (target.read_bytes().decode(), code) == reference(27, "odd", fmt=fmt)
        assert out == err == ""

    def test_rows_are_written_in_chunks(self, monkeypatch):
        writes = []

        class Stdout:
            def write(self, text):
                writes.append(len(text))

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Stdout())
        assert main(["trajectory", "27"]) == EX_OK
        assert len(writes) == 1  # a small document goes out whole, at the end
        writes.clear()
        assert main(["trajectory", str(2**3000 - 1), "--max-steps", "2000"]) == EX_INCONCLUSIVE
        assert len(writes) > 10
        # a chunk and at most one row, each row far shorter than a chunk, and
        # 2 chunks fit Linux's default 64 KiB pipe: no write fills the pipe
        chunk = cli_mod._Output.CHUNK
        assert 2 * chunk <= 1 << 16
        assert all(chunk <= n < 2 * chunk for n in writes[:-1])
        assert writes[-1] < 2 * chunk

    def test_usage_error_leaves_output_file(self, tmp_path):
        target = tmp_path / "orbit"
        target.write_text("kept\n")
        code, out, err = run(["trajectory", "6", "--map", "odd", "--output", str(target)])
        assert code == EX_USAGE
        assert target.read_text() == "kept\n"

    @staticmethod
    def wrong_record_at(monkeypatch, at, error):
        """Have the walk that `trajectory` renders add `error` to the add of the
        record that leaves `at`; its value y stays the orbit's."""
        real = cli_trajectory.orbit_steps

        def walk(x0, *args, **kwargs):
            x = x0
            for y, mul, add, k in real(x0, *args, **kwargs):
                yield y, mul, add + error * (x == at), k
                x = y

        monkeypatch.setattr(cli_trajectory, "orbit_steps", walk)

    def test_decimal_rendering_is_certified(self, monkeypatch):
        # a wrong step record is caught by the final str(int) comparison
        self.wrong_record_at(monkeypatch, 41, 1)
        with pytest.raises(RuntimeError, match="disagrees"):
            run(["trajectory", "27"])

    @pytest.mark.parametrize("at, error, step", [(27, 1, 1), (2, 1, 70), (2, 2, 70)])
    def test_wrong_first_or_last_step_names_it(self, monkeypatch, at, error, step):
        # 27's orbit steps 27 -> 41 first and 2 -> 1 last (step 70).  A record
        # whose value is not an integer stops the walk at its step; one whose
        # value is an integer but wrong (the last step's, 2 -> 2) is caught by
        # the final comparison
        self.wrong_record_at(monkeypatch, at, error)
        with pytest.raises(RuntimeError, match=f"^decimal rendering of step {step} disagrees"):
            run(["trajectory", "27"])


def decimal_step(d, mul, add, k):
    """The renderer's step: the record's two cached operands, then fma and
    to_integral_exact in its exact context."""
    mul_k, add_k = cli_trajectory._operands(mul, add, k)
    exact = cli_trajectory._EXACT
    return exact.to_integral_exact(exact.fma(d, mul_k, add_k))


# (map, mul, add) of each step record the renderer takes: the general map's
# halving (1, 0, 1) and shortcut step (3, 1, 1), the odd map's (3, 1, k) and
# the an+b map's (a, b, k)
RECORDS = [("general", 1, 0), ("general", 3, 1), ("odd", 3, 1), ("anb", 5, 1), ("anb", 7, 3),
           ("anb", 1001, 1)]


class TestRenderer:
    """The decimal renderer against str(int), record kind by record kind."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(RECORDS),
        st.sampled_from([2, 19, DIGIT_GUARD - 1, DIGIT_GUARD, DIGIT_GUARD + 1]),
        st.integers(1, 90),
        st.integers(0, 2**64),
        st.sampled_from(FORMATS),
    )
    @example(("anb", 5, 1), 19, 70, 0, "json")
    @example(("anb", 5, 1), DIGIT_GUARD - 1, 70, 0, "csv")
    @example(("odd", 3, 1), DIGIT_GUARD, 64, 0, "text")
    @example(("anb", 1001, 1), DIGIT_GUARD - 1, 1, 0, "text")
    def test_steps_match_str_int(self, record, digits, k, offset, fmt):
        # a start of about `digits` digits whose first step is the record
        # (mul, add, >= k), k >= 64 included: each decimal step is the str()
        # of the int walk's value, and the two rows of each format are the
        # reference's, built from str(int)
        map, mul, add = record
        if map == "general":
            k, residue = 1, mul // 3  # the halving from an even start, 3x+1 from an odd one
        else:
            residue = -add * pow(mul, -1, 2**k) % 2**k
        x0 = 10 ** (digits - 1) + offset
        x0 += (residue - x0) % 2**k
        if map == "anb":
            records = anb_mod.anb_orbit_steps(x0, AnbParams(mul, add), max_steps=2)
        else:
            records = orbit_steps(x0, max_steps=2, odd=map == "odd")
        records = list(records)
        assert records[0][1:3] == (mul, add) and records[0][3] >= k
        with unlimited_int_text():
            d = decimal.Decimal(str(x0))
            for y, *step in records:
                d = decimal_step(d, *step)
                assert str(d) == str(y)
        code, out, err = run(argv_of(x0, map, mul, add, 2, fmt))
        assert (out, code) == reference(x0, map, mul, add, 2, fmt)

    def test_step_to_a_fraction_traps(self):
        # (3 * 5 + 3) / 2^2 = 4.5 is not an integer: the step raises, where a
        # rounding to an integer would give 4 and no error
        with pytest.raises(decimal.Inexact):
            decimal_step(decimal.Decimal(5), 3, 3, 2)


class TestGrowingOrbits:
    """Orbits of large a pass 4300 digits: they complete, or stop at the output budget."""

    ARGS = dict(x0=7, map="anb", a=1001, b=1, max_steps=1900)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_orbit_past_the_digit_guard(self, fmt):
        code, out, err = run(argv_of(**self.ARGS, fmt=fmt))
        assert (out, code) == reference(**self.ARGS, fmt=fmt)
        assert code == EX_INCONCLUSIVE and err == ""
        traj, _ = anb_mod.trajectory_anb(7, AnbParams(1001, 1), max_steps=1900)
        assert traj.values[100] < 10 ** (DIGIT_GUARD - 1) and traj.values[-1] >= 10**DIGIT_GUARD

    def test_orbit_past_the_digit_guard_to_file(self, tmp_path):
        target = tmp_path / "orbit.jsonl"
        code, out, err = run(argv_of(**self.ARGS, fmt="json") + ["--output", str(target)])
        assert (target.read_bytes().decode(), code) == reference(**self.ARGS, fmt="json")
        assert out == err == ""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_budget_stops_the_orbit(self, monkeypatch, tmp_path, fmt):
        # 600 more digits per step: the budget stops it a few steps past the guard
        orbit = dict(x0=7, map="anb", a=10**600 + 1, b=1, max_steps=40, fmt=fmt)
        monkeypatch.setattr(cli_mod, "TRAJECTORY_OUTPUT_LIMIT", 1 << 16)
        expected = reference(**orbit, limit=1 << 16)
        code, out, err = run(argv_of(**orbit))
        assert (out, code) == expected
        assert code == EX_RESOURCE
        assert err.startswith("resource limit: trajectory stopped after ")
        assert len(err.splitlines()) == 1
        target = tmp_path / "orbit"
        assert run(argv_of(**orbit) + ["--output", str(target)])[:2] == (EX_RESOURCE, "")
        assert target.read_bytes().decode() == out
        steps = len(out.splitlines()) - 2  # all but the header and the summary
        traj, _ = anb_mod.trajectory_anb(7, AnbParams(orbit["a"], 1), max_steps=steps)
        assert traj.values[-1] >= 10**DIGIT_GUARD and steps < 40
        if fmt == "json":
            with unlimited_int_text():
                summary = json.loads(out.splitlines()[-1])
            Draft202012Validator(json.loads(SCHEMA.read_text())).validate(summary)
            assert summary["terminated"] == "resource-limit" and summary["cycle"] is None

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_budget_edge(self, monkeypatch, fmt):
        # the budget counts the header and the rows; the summary is always written
        full, code = reference(27, fmt=fmt)
        head_and_rows = len(full) - len(full.splitlines(keepends=True)[-1])
        monkeypatch.setattr(cli_mod, "TRAJECTORY_OUTPUT_LIMIT", head_and_rows)
        assert run(argv_of(27, fmt=fmt))[:2] == (EX_OK, full)
        for limit in (head_and_rows - 1, len(full.splitlines(keepends=True)[0])):
            monkeypatch.setattr(cli_mod, "TRAJECTORY_OUTPUT_LIMIT", limit)
            code, out, err = run(argv_of(27, fmt=fmt))
            assert (out, code) == reference(27, fmt=fmt, limit=limit)
            assert code == EX_RESOURCE and len(err.splitlines()) == 1


# argv, exit code and the sha256 of stdout of four long orbits, recorded from
# the renderer that took three decimal operations a step: 2^3000 - 1 by the
# general map (27,667 rows, 44 MB), 7 by 5n+1 to 10^4 steps in text and JSON
# (10 MB each) and by 1001n+1 to 3,000 steps (22 MB, values to 9,000 digits)
LONG_ORBITS = [
    (["trajectory", str(2**3000 - 1), "--format", "json"], EX_OK,
     "c19dc80914eb32b123d62d725e70dcfb27a3cfdbd02fb19800eebd4bf9cc38ba"),
    (["trajectory", "7", "--map", "anb", "--a", "5", "--b", "1", "--max-steps", "10000"],
     EX_INCONCLUSIVE, "9d80a09b3f83b7bbc79679fe48c8156d5d08e53561a155f4d08c520cbccea3d0"),
    (["trajectory", "7", "--map", "anb", "--a", "5", "--b", "1", "--max-steps", "10000",
      "--format", "json"],
     EX_INCONCLUSIVE, "fbd8e4842c8fa0eb0626461f53a038153be4080ff1810428e8262ea5c7345fba"),
    (["trajectory", "7", "--map", "anb", "--a", "1001", "--b", "1", "--max-steps", "3000",
      "--format", "json"],
     EX_INCONCLUSIVE, "80d5b2aadb9c4f7e695baf77c415a9caec5b684da279400e78017027517eed1d"),
]


class TestLongOrbits:
    """The bytes of long orbits, pinned, and the sizes of the writes that carry them."""

    @pytest.mark.parametrize("argv, code, digest", LONG_ORBITS,
                             ids=["general-3000-bit-json", "5n+1-text", "5n+1-json",
                                  "1001n+1-json"])
    def test_pinned(self, monkeypatch, argv, code, digest):
        # each write but the last is a chunk and at most one row: without its
        # last row it is shorter than a chunk
        chunk, sha, sizes = cli_mod._Output.CHUNK, hashlib.sha256(), []

        class Stdout:
            def write(self, text):
                sha.update(text.encode())
                last = text[text.rfind("\n", 0, -1) + 1:]
                sizes.append((len(text), len(text) - len(last), text.endswith("\n")))

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Stdout())
        assert main(argv) == code
        assert sha.hexdigest() == digest
        assert len(sizes) > 100
        assert all(n >= chunk > before and whole for n, before, whole in sizes[:-1])


# -------------------------------------------------------------------- imports

HEAVY = ("numpy", "multiprocessing", "concurrent.futures.process")

PROBE = f"""
import sys
from collatzlab.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m for m in {HEAVY!r} if m in sys.modules), file=sys.stderr)
"""


def probe(*argv):
    """Exit code of one command in a fresh interpreter, and the heavy modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv, "--output", os.devnull],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stderr.splitlines()[-1].split()
    return int(code), loaded


LIGHT = [
    ("trajectory", "27"),
    ("trajectory", "7", "--map", "odd"),
    ("trajectory", "13", "--map", "anb"),
    ("verify", "eq2", "--max-x0", "99"),
    ("verify", "bohm", "--max-x0", "99"),
    ("verify", "geom", "--max-n", "5", "--max-m", "5"),
    ("verify", "halfsplit", "--M", "6"),
    ("montecarlo", "--fixture", "paper14"),
    ("anb-cycles", "--limit", "21"),
    # seeded draws below the crossover run on the owned PCG64 stream
    ("verify", "anb-eq", "--samples", "200", "--max-n", "50"),
    ("montecarlo", "--length", "100", "--samples", "14"),
    # the shift-law table and the lemma7 walks run on packed lanes of ints
    ("verify", "lemma7", "--max-k", "4"),
    ("verify", "halfsplit", "--M", "18", "--method", "classes"),
]


@pytest.mark.parametrize("argv", LIGHT)
def test_light_commands_load_no_numpy_or_pool(argv):
    assert probe(*argv) == (EX_OK, [])


def test_sweep_start_budget_stops_before_numpy():
    assert probe("sweep", "--limit", "1000000001") == (EX_RESOURCE, [])


def test_sweep_in_process_loads_no_pool():
    assert probe("sweep", "--limit", "1000", "--threads", "1") == (EX_OK, ["numpy"])


@pytest.mark.parametrize("limit", ["1000", "1000000"])
def test_sweep_workers_are_threads(limit):
    # at 10^6 the widest wave has two pieces, so two worker threads walk them
    assert probe("sweep", "--limit", limit, "--threads", "2") == (EX_OK, ["numpy"])


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--limit", "1000", "--threads", "2"),
        # 300,000 draws of m: above the crossover, numpy's Generator draws them
        ("verify", "lemma7", "--max-k", "1", "--samples", "300000"),
        # 10^7 coins: above the crossover, numpy's Generator draws them
        ("montecarlo", "--length", "10000", "--samples", "1000"),
    ],
)
def test_heavy_commands_still_load_them(argv):
    code, loaded = probe(*argv)
    assert code == EX_OK and "numpy" in loaded


BLAS_PROBE = """
import os, sys
from collatzlab import cli
seen, run = [], cli._main
def spy(argv):
    seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
    return run(argv)
cli._main = spy
code = cli.main(sys.argv[1:])
print(code, seen, os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)
"""


@pytest.mark.parametrize("caller, seen", [(None, "1"), ("3", "3")])
def test_openblas_one_thread_unless_set(caller, seen):
    # main asks OpenBLAS for one thread before numpy can load, keeps a
    # setting the caller made, and leaves the environment as it found it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_PROBE, "sweep", "--limit", "1000", "--threads", "1",
         "--output", os.devnull],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"{EX_OK} {[seen]} {caller}"


# VmHWM, the peak RSS of this process image: ru_maxrss would carry the peak
# of the process that started it across exec
RSS_PROBE = """
import sys
from collatzlab.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(code, "numpy" in sys.modules, peak, file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_owned_draws_stream():
    # verify anb-eq just below the crossover takes its draws one at a time: its
    # peak is that of a run of 1000 draws, where a list of the draws would add
    # about 40 bytes a draw (a pointer and an int), 8 MiB here
    from collatzlab.pcg64 import INT_NS, NUMPY_LOAD_NS

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    peaks = []
    for samples in (1000, NUMPY_LOAD_NS // INT_NS):
        proc = subprocess.run(
            [sys.executable, "-c", RSS_PROBE, "verify", "anb-eq", "--samples", str(samples),
             "--max-n", "0", "--output", os.devnull],
            capture_output=True, text=True, env=env, timeout=120,
        )
        code, numpy_loaded, peak_kib = proc.stderr.split()
        assert (int(code), numpy_loaded) == (EX_OK, "False")
        peaks.append(int(peak_kib))
    assert peaks[1] - peaks[0] < 2048


# `python -m collatzlab ARGV`, then every module it loaded, one line on stderr
# The command ends by os._exit, which the probe turns into SystemExit so that
# it can list the modules loaded by then.
MAIN_PROBE = """
import os, runpy, sys
def exit_now(code):
    raise SystemExit(code)
os._exit = exit_now
try:
    runpy.run_module("collatzlab", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, *sorted(sys.modules), file=sys.stderr)
"""

ENGINES = ("collatzlab.anb", "collatzlab.catalog", "collatzlab.halfsplit", "collatzlab.stats",
           "collatzlab.sweep")
IDENTITIES = ("collatzlab.identities",)

# each command's runner module, which only that command loads
RUNNERS = {name: f"collatzlab.{c.run.split('.')[0]}" for name, c in cli_mod.COMMANDS.items()}

# loaded by no light command: dataclasses' import of inspect costs a process
# about 1 MB of peak RSS and 6-8 ms
NEVER = ("dataclasses", "inspect", "numpy", "concurrent.futures.process")

# (used, unused) past the runner, NEVER and the other runners
FLOOR = {
    # trajectory writes its JSON lines itself: no trajectory run loads json
    ("trajectory", "27"): (("collatzlab.dynamics",), (*ENGINES, *IDENTITIES, "json")),
    ("trajectory", "13", "--map", "anb"): (("collatzlab.anb",),
                                           ("collatzlab.catalog", *IDENTITIES, "json")),
    # geom compares integers: only a failing (n, m) builds a Fraction
    ("verify", "geom", "--max-n", "5", "--max-m", "5"): (IDENTITIES, ("fractions",)),
    # bohm compares integers: only a failing start builds a Fraction
    ("verify", "bohm", "--max-x0", "99"): (IDENTITIES, ("fractions", "decimal")),
    ("verify", "halfsplit", "--M", "18", "--method", "classes"): (("collatzlab.halfsplit",),
                                                                 IDENTITIES),
    ("anb-cycles", "--limit", "21"): (("collatzlab.anb", "collatzlab.catalog"), IDENTITIES),
}


@pytest.mark.parametrize("argv, used, unused", [(a, *FLOOR.get(a, ((), ()))) for a in LIGHT])
def test_import_floor(argv, used, unused):
    runner = RUNNERS[argv[0]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", MAIN_PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    code, *loaded = proc.stderr.splitlines()[-1].split()
    assert int(code) == EX_OK and proc.stdout
    assert {"collatzlab.cli", runner, *used} <= set(loaded)
    assert not ({*RUNNERS.values(), *NEVER, *unused} - {runner}) & set(loaded)


def test_no_module_imports_dataclasses():
    # the records are NamedTuples: no command, sweep included, loads dataclasses
    for path in (ROOT / "src" / "collatzlab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in {m.split(".")[0] for m in modules}, path.name


def run_main(*args, unbuffered=False, **kwargs):
    """`python *args` with the package on the path and stdout buffered, or
    unbuffered as under PYTHONUNBUFFERED=1; its stdout and stderr as bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], stderr=subprocess.PIPE, env=env,
                          timeout=120, **kwargs)


# one argv for each exit code
EXITS = {
    ("trajectory", "27"): EX_OK,
    ("trajectory", "4", "--map", "odd"): EX_USAGE,
    ("trajectory", "27", "--max-steps", "5"): EX_INCONCLUSIVE,
    ("verify", "lemma7", "--max-k", "18"): EX_RESOURCE,
}


def test_cli_module_run_as_main(tmp_path):
    # each entry point ends through cli.entry with the exit code of main, and
    # what it wrote is out: --output FILE holds the bytes stdout reads, and
    # --help is printed in full.  Under
    # `python -m collatzlab.cli` the module runs as __main__, and a usage error
    # raised by a runner is still one line and exit 1.
    path = tmp_path / "out"
    for module in ("collatzlab", "collatzlab.cli"):
        for argv, code in EXITS.items():
            piped = run_main("-m", module, *argv)
            written = run_main("-m", module, *argv, "--output", str(path))
            assert piped.returncode == written.returncode == code
            assert piped.stderr == written.stderr and written.stdout == b""
            assert (path.read_bytes() if path.exists() else b"") == piped.stdout
            assert bool(piped.stdout) == (code != EX_USAGE)
            if code == EX_USAGE:
                assert piped.stderr == b"error: odd-to-odd map needs an odd start, got 4\n"
            else:
                assert piped.stderr.count(b"\n") == (code == EX_RESOURCE)
            path.unlink(missing_ok=True)
        # argparse prints the help into stdout's buffer, which only entry's flush writes
        helped = run_main("-m", module, "--help")
        assert helped.returncode == EX_OK and helped.stdout.startswith(b"usage: collatzlab ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("how, code, line", [
    ("closed", EX_USAGE, "error: cannot write stdout: it is closed"),
    ("full", EX_RESOURCE, f"resource limit: cannot write stdout: {os.strerror(errno.ENOSPC)}"),
    ("output", EX_RESOURCE,
     f"resource limit: cannot write --output /dev/full: {os.strerror(errno.ENOSPC)}"),
    ("help", EX_RESOURCE, f"resource limit: cannot write stdout: {os.strerror(errno.ENOSPC)}"),
    ("closed-help", EX_USAGE, "error: cannot write stdout: it is closed"),
])
def test_write_error_ends_in_one_line(how, code, line):
    # a stdout closed at the start (`>&-`), stdout on a full device, a full
    # --output device, or --help's text on a full device or a closed stdout
    # (where argparse would print it to stderr), with stdout buffered and
    # unbuffered: one line and a documented exit code, no traceback
    argv = ["-m", "collatzlab", *(["--help"] if how.endswith("help") else ["trajectory", "27"])]
    for unbuffered in (False, True):
        if how.startswith("closed"):
            proc = run_main(*argv, stdout=subprocess.DEVNULL, preexec_fn=lambda: os.close(1),
                            unbuffered=unbuffered)
        elif how == "output":
            proc = run_main(*argv, "--output", "/dev/full", unbuffered=unbuffered)
        else:
            with open("/dev/full", "w") as full:
                proc = run_main(*argv, stdout=full, unbuffered=unbuffered)
        assert (proc.returncode, proc.stderr.decode()) == (code, line + "\n"), unbuffered


# -------------------------------------------------------------- closed pipe


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_pipe_exits_one_without_traceback(unbuffered):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    # about 44 MB of rows: far more than a pipe holds, so writes go on after the close
    proc = subprocess.Popen(
        [sys.executable, "-m", "collatzlab", "trajectory", str(2**3000 - 1)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EX_USAGE
    assert head.startswith(b"# start=")
    assert err == "error: the output pipe was closed before the output was written\n"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_pipe_closed_before_a_small_output(unbuffered):
    # the whole output is one write at the end, so the failure comes at the
    # final flush, where the interpreter would otherwise report it at exit
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "collatzlab", "trajectory", "27"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # long before the interpreter has started
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EX_USAGE
    assert err == "error: the output pipe was closed before the output was written\n"


# argv and exit code
SLOW_PIPE_RUNS = {
    "general-3000-bit": (["trajectory", str(2**3000 - 1), "--format", "json"], EX_OK),  # 44 MB
    # rows of up to 14.5 KB, a large share of a chunk; 22 MB
    "anb-1001": (["trajectory", "7", "--map", "anb", "--a", "1001", "--b", "1",
                  "--max-steps", "3000", "--format", "json"], EX_INCONCLUSIVE),
}


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv, code", SLOW_PIPE_RUNS.values(), ids=SLOW_PIPE_RUNS)
def test_slowly_drained_pipe_gets_every_byte(argv, code, unbuffered, tmp_path):
    # a reader slower than the command: the pipe stays full and each write
    # blocks, yet the bytes and the exit code are those of --output FILE
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "collatzlab", *argv]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env)
    pieces = []
    while piece := proc.stdout.read1(1 << 14):
        pieces.append(piece)
        time.sleep(0.0002)
    proc.stdout.close()
    assert proc.wait(timeout=120) == code
    target = tmp_path / "orbit"
    written = subprocess.run([*command, "--output", str(target)], env=env, timeout=120)
    assert written.returncode == code
    assert b"".join(pieces) == target.read_bytes()
