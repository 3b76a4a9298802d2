"""Smoke runs of the scripts in scripts/ with tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
    lines = run_script("anb_survey.py", "--params", "5,1 7,1", "--limit", "21",
                       "--max-steps", "200", "--horizon", "20")
    assert "== map (5n+1) ==" in lines and "== map (7n+1) ==" in lines
    assert "  cycle [13, 33, 83] exponents [1, 1, 5] product identity ok (4557696)" in lines
    assert "  cycle [1] exponents [3] product identity ok (8)" in lines
    assert "  starts with no repeat within 200 steps: 4" in lines
    assert "  starts with no repeat within 200 steps: 8" in lines
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
