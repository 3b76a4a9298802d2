"""Per-op correctness oracle.

Each checker takes an op's exit code and its complete stdout and stderr, and
either returns the work counts it verified (such as the orbit's step count) or
raises. `Failed` marks an op that did not complete (timeout, traceback, or an
exit code the contract does not allow); `Wrong` marks a payload whose facts
disagree with this module's own exact arithmetic. Facts are checked, not
bytes, wherever a planned fix may legitimately change the bytes (montecarlo
interval floats, for example).
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from contextlib import contextmanager


class Failed(Exception):
    """The op did not complete as the exit-code contract allows."""


class Wrong(Exception):
    """The op completed, but a fact in its output is wrong."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


@contextmanager
def exact_int_text():
    """Lift Python's int/str digit guard while parsing payloads of exact ints."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def verdict(check, code: int | None, out: str, err: str) -> tuple[dict, str | None, bool]:
    """Run one checker; returns (facts, failure reason or None, wrong)."""
    try:
        if code is None:
            raise Failed("timed out")
        if "Traceback (most recent call last)" in err:
            raise Failed("traceback on stderr: " + err.strip().splitlines()[-1][:200])
        with exact_int_text():
            return check(code, out, err), None, False
    except Failed as exc:
        return {}, str(exc), False
    except Wrong as exc:
        return {}, f"wrong output: {exc}", True
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return {}, f"unparseable output: {exc!r}"[:300], True


def completed(code: int) -> None:
    """Exit 0 (success) and 2 (step limit or failed check) carry a payload."""
    if code not in (0, 2):
        raise Failed(f"exit code {code}")


# ------------------------------------------------------------ exact steps


def shortcut_step(x: int) -> int:
    return x >> 1 if x % 2 == 0 else (3 * x + 1) >> 1


def odd_step(x: int, a: int, b: int) -> tuple[int, int]:
    t = a * x + b
    k = (t & -t).bit_length() - 1
    return t >> k, k


# ------------------------------------------------------------ trajectories


def _parse_json_lines(out: str) -> tuple[dict, list[dict], dict]:
    lines = [json.loads(line) for line in out.splitlines()]
    expect(len(lines) >= 2, "trajectory needs a header and a summary")
    header, rows, summary = lines[0], lines[1:-1], lines[-1]
    expect(header.get("type") == "header", "first line is not the header")
    expect(header.get("schema") == "collatzlab/trajectory/v1", "schema")
    expect(summary.get("type") == "summary", "last line is not the summary")
    expect(all(r.get("type") == "step" for r in rows), "non-step row")
    return header, rows, summary


def _parse_text(out: str) -> tuple[dict, list[dict], dict]:
    lines = out.splitlines()
    expect(len(lines) >= 2 and lines[0].startswith("# start="), "text header")
    head = dict(f.split("=", 1) for f in lines[0][2:].split())
    header = {k: (v if k == "map" else int(v)) for k, v in head.items()}
    cycle = None
    if lines[-1].startswith("# cycle="):
        cycle = json.loads(lines.pop()[len("# cycle="):])
    expect(lines[-1].startswith("# terminated="), "text footer")
    foot = dict(f.split("=", 1) for f in lines[-1][2:].split())
    summary = {
        "terminated": foot["terminated"],
        "steps": int(foot["steps"]),
        "final": int(foot["final"]),
        "cycle": cycle,
    }
    rows = []
    for line in lines[1:-1]:
        parts = line.split()
        expect(parts[2] == "->", f"row layout: {line[:80]}")
        exponent = int(parts[5][2:]) if len(parts) > 5 else None
        rows.append(
            {"step": int(parts[0]), "from": int(parts[1]), "to": int(parts[3]),
             "kind": parts[4], "exponent": exponent}
        )
    return header, rows, summary


def check_trajectory(code: int, out: str, err: str, *, start: int, map: str,
                     a: int = 5, b: int = 1, max_steps: int, fmt: str,
                     out_bytes: int | None = None) -> dict:
    """Re-derive every row of an orbit from its `from` value by an exact step."""
    completed(code)
    if out_bytes is not None:
        expect(len(out) == out_bytes, f"{len(out)} bytes of output, pinned {out_bytes}")
    header, rows, summary = (_parse_json_lines if fmt == "json" else _parse_text)(out)
    expect(header["start"] == start and header["map"] == map, "header start/map")
    expect(header["max_steps"] == max_steps, "header max_steps")
    if map == "anb":
        expect((header["a"], header["b"]) == (a, b), "header a/b")
    elif fmt == "json":
        expect(header["a"] is None and header["b"] is None, "header a/b")
    x = start
    seen = {start}
    for i, row in enumerate(rows, 1):
        expect(row["step"] == i and row["from"] == x, f"row {i} does not continue the orbit")
        if map == "general":
            y, k = shortcut_step(x), None
            kind = "increase" if x % 2 else "decrease"
        else:
            y, k = odd_step(x, *((3, 1) if map == "odd" else (a, b)))
            kind = "increase" if y > x else "decrease"
        expect((row["to"], row["kind"], row["exponent"]) == (y, kind, k), f"row {i} step")
        if map == "anb":
            expect(y not in seen, f"row {i} repeats a value")
            seen.add(y)
        x = y
    steps = len(rows)
    expect(summary["steps"] == steps and summary["final"] == x, "summary steps/final")
    if map == "anb":
        nxt = odd_step(x, a, b)[0]
        done = "reached-cycle" if nxt in seen else "step-limit"
    else:
        done = "reached-one" if x == 1 else "step-limit"
    expect(summary["terminated"] == done, f"summary says {summary['terminated']}, orbit says {done}")
    if done == "step-limit":
        expect(steps == max_steps, "stopped before the step budget")
    cycle = summary["cycle"]
    if done == "reached-cycle":
        expect(bool(cycle) and cycle[0] == min(cycle) and nxt in cycle, "cycle members")
        expect(all(odd_step(m, a, b)[0] == cycle[(j + 1) % len(cycle)]
                   for j, m in enumerate(cycle)), "cycle does not close under the map")
    else:
        expect(cycle is None, "cycle reported without one")
    expect(code == (2 if done == "step-limit" else 0), f"exit code {code} for {done}")
    return {"steps": steps}


def check_guarded_trajectory(code: int, out: str, err: str, **orbit) -> dict:
    """An orbit whose values outgrow Python's default int/str digit guard.

    It passes with a complete, correct orbit (exit 0 or 2), or with exit 3
    and exactly one line on stderr (a value-size budget). A traceback or any
    other exit code fails.
    """
    if code == 3:
        if len(err.strip().splitlines()) != 1:
            raise Failed("exit 3 needs exactly one line on stderr")
        return {}  # stopped by a budget: no orbit steps to credit
    return check_trajectory(code, out, err, **orbit)


# ----------------------------------------------------------------- verify


def check_verify(code: int, out: str, err: str, *, check: str, checks_run: int,
                 half: int | None = None) -> dict:
    """passed is true, failures 0, and checks_run equals the pinned count."""
    completed(code)
    doc = json.loads(out)
    expect(doc["schema"] == "collatzlab/verify/v1" and doc["check"] == check, "schema/check")
    expect(doc["passed"] is True and doc["failures"] == 0, "check did not pass")
    expect(doc["partial"] is False and doc["counterexample"] is None, "partial or counterexample")
    expect(doc["checks_run"] == checks_run,
           f"checks_run {doc['checks_run']} != pinned {checks_run}")
    if half is not None:
        within = [t for t in doc["report"]["tallies"] if t["within_theorem"]]
        expect(len(within) == checks_run, "tally count")
        expect(all((t["increases"], t["decreases"]) == (half, half) for t in within),
               "a tally is not exactly half")
    expect(code == 0, f"exit code {code}")
    return {"checks": checks_run}


# ------------------------------------------------------------------ sweep


def check_sweep(code: int, out: str, err: str, *, limit: int, pinned: dict) -> dict:
    """verified == limit, no failures, argmaxes and peak equal the oracle's."""
    completed(code)
    doc = json.loads(out)
    expect(doc["schema"] == "collatzlab/sweep/v1" and doc["limit"] == limit, "schema/limit")
    expect(doc["verified"] == limit and doc["failures"] == [], "not every start verified")
    for key, value in pinned.items():
        if isinstance(value, float):
            expect(math.isclose(doc[key], value, rel_tol=1e-12), f"{key} {doc[key]}")
        else:
            expect(doc[key] == value, f"{key} {doc[key]} != pinned {value}")
    expect(code == 0, f"exit code {code}")
    return {"starts": limit}


# ----------------------------------------------------------------- cycles


def check_cycles(code: int, out: str, err: str, *, a: int, b: int, limit: int,
                 cycles: list[list[int]]) -> dict:
    """The pinned cycle list, each cycle closed and certified afresh."""
    completed(code)
    doc = json.loads(out)
    expect(doc["schema"] == "collatzlab/cycles/v1", "schema")
    expect((doc["a"], doc["b"], doc["start_limit"]) == (a, b, limit), "parameters")
    expect([c["members"] for c in doc["cycles"]] == cycles, "cycle list differs from pinned")
    for c in doc["cycles"]:
        members, exps = c["members"], c["exponents"]
        steps = [odd_step(m, a, b) for m in members]
        expect([y for y, _ in steps] == members[1:] + members[:1], "cycle does not close")
        expect([k for _, k in steps] == exps and c["sum_exponents"] == sum(exps), "exponents")
        lhs = (1 << sum(exps)) * math.prod(members)
        expect(lhs == math.prod(a * m + b for m in members), "product identity")
        expect(c["verified"] is True and c["product_lhs"] == c["product_rhs"] == lhs,
               "certificate")
    expect(code == 0, f"exit code {code}")
    return {"starts": (limit + 1) // 2}


# ------------------------------------------------------------- montecarlo


def _close(x: float, y: float, printed: bool = False) -> bool:
    # The embedded published rows are printed to 4 decimals.
    return math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-4 if printed else 1e-12)


def check_montecarlo(code: int, out: str, err: str, *, seed: int | None, length: int,
                     samples: int, fixture: str | None = None) -> dict:
    """Rows agree with their own counts, and every interval brackets the mean."""
    completed(code)
    doc = json.loads(out)
    expect(doc["schema"] == "collatzlab/montecarlo/v1", "schema")
    expect(doc["source"] == (f"fixture:{fixture}" if fixture else "generated"), "source")
    expect(doc["seed"] == seed and doc["length"] == length, "seed/length")
    rows = doc["rows"]
    expect(doc["samples"] == samples == len(rows), "sample count")
    printed = fixture is not None
    for j, r in enumerate(rows, 1):
        z, o = r["zeros"], r["ones"]
        expect(r["sample"] == j and z + o == length and o > 0, f"row {j} counts")
        xi = z / o
        expect(_close(r["xi"], xi, printed) and _close(r["one_plus_xi"], 1 + xi, printed),
               f"row {j} xi")
        expect(_close(r["chi"], 2.0 ** (1 + xi), printed), f"row {j} chi")
        expect(_close(r["indicator_std"], math.sqrt(z * o / (length * (length - 1))), printed),
               f"row {j} std")
    mean = statistics.fmean(r["one_plus_xi"] for r in rows)
    expect(_close(doc["stats"]["mean_one_plus_xi"], mean), "mean(1+xi)")
    expect(sorted(doc["intervals"]) == ["95", "98", "99"], "interval levels")
    for level, block in doc["intervals"].items():
        for key in ("mu_normal", "mu_t"):
            lo, hi = block[key]
            expect(lo < mean < hi, f"{level}% {key} does not bracket the mean")
        for key in ("chi_normal", "chi_t"):
            lo, hi = block[key]
            expect(lo < 2.0**mean < hi, f"{level}% {key} does not bracket 2^mean")
    expect((doc["published_comparison"] is not None) == bool(fixture), "published block")
    expect(code == 0, f"exit code {code}")
    return {"samples": samples}
