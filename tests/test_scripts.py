"""Smoke runs of the scripts in scripts/ with tiny arguments.

`load_script` loads a script by path for the tests of the functions it
holds, which sit next to the tests of the package code they build on
(`test_anb.py`, `test_stats.py`).
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from collatzlab.anb import find_cycle
from collatzlab.dynamics import AnbParams

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    """The module of scripts/<name>, loaded by path, for tests of its functions."""
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout.splitlines()


def test_anb_survey():
    lines = run_script("anb_survey.py", "--params", "5,1 7,1 5,3", "--limit", "21",
                       "--max-steps", "200", "--horizon", "20")
    assert "== map (5n+1) ==" in lines and "== map (7n+1) ==" in lines
    assert "  cycle [13, 33, 83] exponents [1, 1, 5] product identity ok (4557696)" in lines
    assert "  cycle [1] exponents [3] product identity ok (8)" in lines
    # the counts of starts for which find_cycle finds no repeat, start by start
    counts = [
        sum(find_cycle(x0, AnbParams(a, b), 200) is None for x0 in range(1, 22, 2))
        for a, b in ((5, 1), (7, 1), (5, 3))
    ]
    assert counts[:2] == [4, 8]
    assert [line for line in lines if "no repeat" in line] == [
        f"  starts with no repeat within 200 steps: {n}" for n in counts
    ]
    assert any(line.startswith("    x0=7: unbounded within horizon") for line in lines)


def test_halfsplit_scan():
    lines = run_script("halfsplit_scan.py", "--min-M", "2", "--max-M", "6")
    assert len(lines) == 5
    for M, line in zip(range(2, 7), lines):
        half = 1 << (M - 1)
        assert line.startswith(f"M={M:>2}: steps 1..{M - 1} all exactly ({half}, {half}): True")
        assert line.endswith(f"; step {M} (outside bound): ({half}, {half})")


@pytest.mark.parametrize("seed", ["0", "3"])
def test_reference_table_report(seed):
    lines = run_script("reference_table_report.py", "--seed", seed)
    assert lines[0] == "embedded published rows (sample, zeros, ones, xi, s):"
    assert lines[1] == "   1  42 58  0.7241  0.4960"
    assert f"fresh batch (seed {seed}):" in lines
    assert "interval discrepancy report:" in lines
    assert "  mean(1+xi) = 2.078850" in lines
    assert "  reproducible from rows: False" in lines
    assert any(line.startswith("reference slope ") for line in lines)
