"""The streamed `trajectory` command and the modules a light command loads.

Every output is compared byte for byte with the rendering the command had
before it streamed: the whole orbit walked first, each row built as a dict,
every value converted by str(int), and the document joined at the end
(`reference` below).  The decimal renderer is exercised where it is most
likely to go wrong: x0 = 1, orbits that end at 1 or in a cycle, steps that
remove 2^40 or more, and values either side of Python's 4300-digit int/str
guard.
"""

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from collatzlab import anb as anb_mod
from collatzlab import cli as cli_mod
from collatzlab.cli import EX_INCONCLUSIVE, EX_OK, EX_RESOURCE, EX_USAGE, main
from collatzlab.dynamics import (
    DEFAULT_MAX_STEPS,
    AnbParams,
    Termination,
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
         "kind": traj.steps[i].value, "exponent": exponents[i]}
        for i in range(traj.step_count)
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
        assert all(n >= cli_mod._Output.CHUNK for n in writes[:-1])

    def test_usage_error_leaves_output_file(self, tmp_path):
        target = tmp_path / "orbit"
        target.write_text("kept\n")
        code, out, err = run(["trajectory", "6", "--map", "odd", "--output", str(target)])
        assert code == EX_USAGE
        assert target.read_text() == "kept\n"

    def test_decimal_rendering_is_certified(self, monkeypatch):
        # a wrong step record is caught by the final str(int) comparison
        real = cli_mod._decimal_step

        def off_by_one(d, mul, add, k, consts):
            return real(d, mul, add + (d == 41), k, consts)

        monkeypatch.setattr(cli_mod, "_decimal_step", off_by_one)
        with pytest.raises(RuntimeError, match="disagrees"):
            run(["trajectory", "27"])


class TestGrowingOrbits:
    """Orbits of large a pass 4300 digits: they complete, or stop at the output budget."""

    ARGS = dict(x0=7, map="anb", a=1001, b=1, max_steps=1900)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_orbit_past_the_digit_guard(self, fmt):
        code, out, err = run(argv_of(**self.ARGS, fmt=fmt))
        assert (out, code) == reference(**self.ARGS, fmt=fmt)
        assert code == EX_INCONCLUSIVE and err == ""
        traj, _ = anb_mod.trajectory_anb(7, AnbParams(1001, 1), max_steps=1900)
        assert traj.values[100] < 10 ** (DIGIT_GUARD - 1) and traj.final >= 10**DIGIT_GUARD

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
        assert traj.final >= 10**DIGIT_GUARD and steps < 40
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


@pytest.mark.parametrize(
    "argv",
    [
        ("trajectory", "27"),
        ("trajectory", "7", "--map", "odd"),
        ("trajectory", "13", "--map", "anb"),
        ("verify", "eq2", "--max-x0", "99"),
        ("verify", "bohm", "--max-x0", "99"),
        ("verify", "geom", "--max-n", "5", "--max-m", "5"),
        ("verify", "halfsplit", "--M", "6"),
        ("montecarlo", "--fixture", "paper14"),
        ("anb-cycles", "--limit", "21"),
    ],
)
def test_light_commands_load_no_numpy_or_pool(argv):
    assert probe(*argv) == (EX_OK, [])


@pytest.mark.parametrize(
    "argv",
    [("sweep", "--limit", "1000", "--threads", "2"), ("verify", "lemma7", "--max-k", "4")],
)
def test_heavy_commands_still_load_them(argv):
    code, loaded = probe(*argv)
    assert code == EX_OK and "numpy" in loaded


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
