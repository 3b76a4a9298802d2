import json
from array import array
from functools import lru_cache
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from collatzlab import anb as anb_mod
from collatzlab import catalog as catalog_mod
from collatzlab import cli as cli_mod
from collatzlab import cli_trajectory, cli_verify
from collatzlab import halfsplit as halfsplit_mod
from collatzlab import identities as ident_mod
from collatzlab.cli import (
    EX_INCONCLUSIVE,
    EX_OK,
    EX_RESOURCE,
    EX_USAGE,
    main,
)
from collatzlab import pcg64 as pcg64_mod
from collatzlab.dynamics import LANE_BLOCK, AnbParams, _pack, _unpack
from collatzlab.sweep import survey_range

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "collatzlab" / "schemas"
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def validator(name):
    with open(SCHEMA_DIR / name) as fh:
        return Draft202012Validator(json.load(fh))


class TestTrajectoryCommand:
    def test_odd_map_text(self, capsys):
        code, out = run_cli(capsys, "trajectory", "7", "--map", "odd")
        assert code == EX_OK
        assert "7 -> 11" in out and "k=1" in out
        assert "5 -> 1" in out and "k=4" in out
        assert "terminated=reached-one" in out

    def test_anb_cycle_exit_zero(self, capsys):
        code, out = run_cli(
            capsys, "trajectory", "13", "--map", "anb", "--a", "5", "--b", "1"
        )
        assert code == EX_OK
        assert "cycle=[13, 33, 83]" in out

    def test_anb_step_limit_row_count(self, capsys):
        code, out = run_cli(
            capsys,
            "trajectory", "7", "--map", "anb", "--a", "5", "--b", "1",
            "--max-steps", "40", "--format", "json",
        )
        assert code == EX_INCONCLUSIVE
        lines = [json.loads(line) for line in out.splitlines()]
        steps = [l for l in lines if l["type"] == "step"]
        assert len(steps) == 40
        assert steps[0] == {
            "type": "step", "step": 1, "from": 7, "to": 9,
            "kind": "increase", "exponent": 2,
        }

    def test_json_lines_validate(self, capsys):
        v = validator("trajectory.v1.json")
        for argv in (
            ["trajectory", "12"],
            ["trajectory", "7", "--map", "odd"],
            ["trajectory", "13", "--map", "anb", "--a", "5", "--b", "1"],
            ["trajectory", "7", "--max-steps", "3"],
        ):
            code, out = run_cli(capsys, *argv, "--format", "json")
            for line in out.splitlines():
                v.validate(json.loads(line))

    def test_general_step_limit_exit(self, capsys):
        code, out = run_cli(capsys, "trajectory", "7", "--max-steps", "3")
        assert code == EX_INCONCLUSIVE

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "trajectory", "12", "--format", "csv")
        assert code == EX_OK
        lines = out.splitlines()
        assert lines[0] == "step,from,to,kind,exponent"
        assert lines[1] == "1,12,6,decrease,"
        assert lines[-1].startswith("# terminated=reached-one")

    def test_usage_errors(self, capsys):
        assert main(["trajectory", "0"]) == EX_USAGE
        assert main(["trajectory", "6", "--map", "odd"]) == EX_USAGE
        assert main(["trajectory", "7", "--map", "anb", "--a", "4"]) == EX_USAGE
        assert main(["trajectory", "7", "--map", "nosuch"]) == EX_USAGE
        assert main(["nosuchcommand"]) == EX_USAGE


class TestVerifyCommand:
    def test_halfsplit(self, capsys):
        code, out = run_cli(
            capsys, "verify", "halfsplit", "--M", "10", "--format", "json"
        )
        assert code == EX_OK
        doc = json.loads(out)
        validator("verify.v1.json").validate(doc)
        assert doc["passed"] is True
        assert all(
            t["increases"] == 512 and t["decreases"] == 512
            for t in doc["report"]["tallies"]
        )

    def test_halfsplit_csv(self, capsys):
        code, out = run_cli(
            capsys, "verify", "halfsplit", "--M", "5", "--steps", "5", "--format", "csv"
        )
        lines = out.splitlines()
        assert lines[0] == "step,increases,decreases,within_theorem"
        assert lines[1] == "1,16,16,True"
        assert lines[-1] == "5,16,16,False"

    def test_halfsplit_subrange_is_data(self, capsys):
        code, out = run_cli(
            capsys,
            "verify", "halfsplit", "--M", "6", "--lo", "1", "--hi", "32",
            "--format", "json",
        )
        assert code == EX_OK
        doc = json.loads(out)
        assert doc["passed"] is None

    def test_halfsplit_resource_exit(self, capsys):
        code, out = run_cli(capsys, "verify", "halfsplit", "--M", "40", "--format", "json")
        assert code == EX_RESOURCE
        doc = json.loads(out)
        validator("verify.v1.json").validate(doc)
        assert doc["partial"] is True
        assert "subranges" in doc["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "lemma7", "--max-k", "6", "--samples", "10"],
            ["verify", "eq2", "--max-x0", "499"],
            ["verify", "bohm", "--max-x0", "499"],
            ["verify", "geom", "--max-n", "12", "--max-m", "12"],
            ["verify", "anb-eq", "--a", "5", "--b", "1", "--samples", "10", "--max-n", "12"],
        ],
    )
    def test_checks_pass_and_validate(self, capsys, argv):
        v = validator("verify.v1.json")
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == EX_OK
        doc = json.loads(out)
        v.validate(doc)
        assert doc["passed"] is True
        assert doc["failures"] == 0
        assert doc["checks_run"] > 0

    def test_failure_exit_code(self, capsys, monkeypatch):
        # no true counterexample exists, so inject one to pin the exit path: a
        # left numerator one too large at (n, m) = (1, 1), where both are
        # 3 4 + 4^2 = 4 (4^2 - 3^2) = 28 over 3^2.  The passing pairs build no
        # Fraction; the failing one still reports the sides as Fraction text.
        real = ident_mod._geometric_tail_parts

        def off_by_one(n, m):
            lhs, rhs = real(n, m)
            return lhs + ((n, m) == (1, 1)), rhs

        monkeypatch.setattr(ident_mod, "_geometric_tail_parts", off_by_one)
        code, out = run_cli(capsys, "verify", "geom", "--max-n", "1", "--max-m", "1",
                            "--format", "json")
        assert code == EX_INCONCLUSIVE
        doc = json.loads(out)
        assert (doc["checks_run"], doc["failures"]) == (4, 1)
        assert doc["counterexample"] == {"n": 1, "m": 1, "lhs": "29/9", "rhs": "28/9"}

    def test_text_summary(self, capsys):
        code, out = run_cli(capsys, "verify", "lemma7", "--max-k", "4", "--samples", "5")
        assert code == EX_OK
        assert "passed=True" in out

    def test_lemma7_work_budget(self, capsys):
        code = main(["verify", "lemma7", "--max-k", "30", "--format", "json"])
        captured = capsys.readouterr()
        assert code == EX_RESOURCE
        doc = json.loads(captured.out)
        validator("verify.v1.json").validate(doc)
        assert doc["partial"] is True and doc["checks_run"] == 0
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("resource limit: lemma7")
        assert main(["verify", "lemma7", "--max-k", "1000000000"]) == EX_RESOURCE

    def test_lemma7_samples(self, capsys):
        assert main(["verify", "lemma7", "--samples", "-1"]) == EX_USAGE
        code, out = run_cli(capsys, "verify", "lemma7", "--max-k", "40", "--samples", "0",
                            "--format", "json")
        assert code == EX_OK
        assert json.loads(out)["checks_run"] == 0

    def test_lemma7_uint64_guard(self, capsys, monkeypatch):
        # the drawn m must fit the bound the uint64 walks are proved for
        assert cli_mod.M_SEED_RANGE <= ident_mod.SHIFT_M_BOUND
        # the check budget stops lemma7 first; without it, the uint64 guard does
        monkeypatch.setattr(cli_mod, "LEMMA7_CHECK_LIMIT", 1 << 200)
        k = ident_mod.SHIFT_UINT64_MAX_K + 1
        code = main(["verify", "lemma7", "--max-k", str(k), "--samples", "1"])
        captured = capsys.readouterr()
        assert code == EX_RESOURCE
        assert "uint64" in captured.out
        assert captured.err.startswith("resource limit: lemma7")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--max-n", "--samples"])
    def test_anb_eq_negative(self, capsys, flag):
        code = main(["verify", "anb-eq", flag, "-1"])
        captured = capsys.readouterr()
        assert code == EX_USAGE
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be >= 0\n"

    @pytest.mark.parametrize("flag", ["--max-n", "--max-m"])
    def test_geom_negative(self, capsys, flag):
        code = main(["verify", "geom", flag, "-1"])
        captured = capsys.readouterr()
        assert code == EX_USAGE
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be >= 0\n"

    def test_geom_term_budget(self, capsys, monkeypatch):
        code = main(["verify", "geom", "--max-n", "2000", "--max-m", "2000", "--format", "json"])
        captured = capsys.readouterr()
        assert code == EX_RESOURCE
        doc = json.loads(captured.out)
        validator("verify.v1.json").validate(doc)
        assert doc["partial"] is True and doc["checks_run"] == 0
        assert captured.err.startswith("resource limit: geom sums")
        assert len(captured.err.splitlines()) == 1
        # (max_n + 1)(max_m + 1)(max_m + 2)/2 terms: 4 x 5 x 6 / 2 = 60 at n 3, m 4
        monkeypatch.setattr(cli_mod, "GEOM_TERM_LIMIT", 60)
        assert main(["verify", "geom", "--max-n", "3", "--max-m", "4"]) == EX_OK
        assert main(["verify", "geom", "--max-n", "4", "--max-m", "4"]) == EX_RESOURCE
        assert main(["verify", "geom", "--max-n", "3", "--max-m", "5"]) == EX_RESOURCE
        monkeypatch.setattr(cli_mod, "GEOM_TERM_LIMIT", 59)
        assert main(["verify", "geom", "--max-n", "3", "--max-m", "4"]) == EX_RESOURCE

    @pytest.mark.parametrize("check", ["eq2", "bohm"])
    def test_start_budget(self, capsys, monkeypatch, check):
        code = main(["verify", check, "--max-x0", "100000000", "--format", "json"])
        captured = capsys.readouterr()
        assert code == EX_RESOURCE
        doc = json.loads(captured.out)
        validator("verify.v1.json").validate(doc)
        assert doc["partial"] is True and doc["checks_run"] == 0
        assert captured.err.startswith(f"resource limit: {check} walks the 50000000")
        assert len(captured.err.splitlines()) == 1
        # the budget counts odd starts: 2 * limit - 1 is the last admitted bound
        monkeypatch.setattr(cli_mod, "X0_START_LIMIT", 100)
        assert main(["verify", check, "--max-x0", "200"]) == EX_OK
        assert main(["verify", check, "--max-x0", "201"]) == EX_RESOURCE

    def test_anb_eq_check_budget(self, capsys, monkeypatch):
        argv = ["verify", "anb-eq", "--samples", str(10**12), "--max-n", "1", "--format", "json"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EX_RESOURCE
        doc = json.loads(captured.out)
        validator("verify.v1.json").validate(doc)
        assert doc["partial"] is True and doc["checks_run"] == 0
        assert captured.err.startswith("resource limit: anb-eq runs samples x max(max_n, 1)")
        assert len(captured.err.splitlines()) == 1
        # samples x max(max_n, 1) checks: 6 x 5 = 30 is admitted at exactly the limit
        monkeypatch.setattr(cli_mod, "ANB_EQ_CHECK_LIMIT", 30)
        assert main(["verify", "anb-eq", "--samples", "6", "--max-n", "5"]) == EX_OK
        assert main(["verify", "anb-eq", "--samples", "7", "--max-n", "5"]) == EX_RESOURCE
        assert main(["verify", "anb-eq", "--samples", "6", "--max-n", "6"]) == EX_RESOURCE
        assert main(["verify", "anb-eq", "--samples", "30", "--max-n", "0"]) == EX_OK
        assert main(["verify", "anb-eq", "--samples", "31", "--max-n", "0"]) == EX_RESOURCE

    def test_halfsplit_class_budget_exit(self, capsys):
        # M = 28 tallies to step 27, 2^27 - 2 lane-steps, the last within the budget
        assert (1 << 27) - 2 <= halfsplit_mod.CLASSES_STEP_LIMIT < (1 << 28) - 2
        code = main(["verify", "halfsplit", "--M", "29", "--method", "classes"])
        captured = capsys.readouterr()
        assert code == EX_RESOURCE
        assert captured.err == (
            "resource limit: class tally to step 28 takes 2^28 - 2 lane-steps, over the work "
            "budget of 134217728; it admits steps up to 27\n")
        assert "work budget" in captured.out
        assert main(["verify", "halfsplit", "--M", "27", "--method", "classes",
                     "--steps", "28"]) == EX_USAGE

    @pytest.mark.parametrize("method", ["direct", "classes"])
    def test_halfsplit_huge_M(self, capsys, method):
        # stops before it forms or prints a count near 2^M
        code = main(["verify", "halfsplit", "--M", "3000000", "--method", method,
                     "--format", "json"])
        captured = capsys.readouterr()
        assert code == EX_RESOURCE
        assert json.loads(captured.out)["partial"] is True
        assert captured.err == (f"resource limit: M = 3000000 is over the budget of "
                                f"{halfsplit_mod.M_LIMIT}; lower M\n")
        # at the limit a subrange still runs
        code, out = run_cli(capsys, "verify", "halfsplit", "--M", str(halfsplit_mod.M_LIMIT),
                            "--lo", "1", "--hi", "8", "--steps", "3", "--format", "json")
        assert code == EX_OK and json.loads(out)["passed"] is None


@lru_cache(maxsize=None)
def _direct_by_classes(M, steps=None):
    """The direct walk of every element, standing in for the class tally."""
    return halfsplit_mod._halfsplit_direct(M, 1, 1 << M, M - 1 if steps is None else steps)


def _failing(checks):
    """(n, lhs, rhs) of each per-n check, n = 1, 2, ..., that does not hold."""
    return [(n, c.lhs, c.rhs) for n, c in enumerate(checks, start=1) if not c.holds]


def _eq2_per_n(x0, values, exponents):
    return _failing(
        ident_mod.closed_form_check(x0, n, exponents=exponents)
        for n in range(1, len(exponents) + 1)
    )


def _anb_per_n(x0, values, exponents, params):
    return _failing(
        anb_mod.closed_form_anb_check(x0, params, n, exponents=exponents)
        for n in range(1, len(exponents) + 1)
    )


def _lemma7_per_case(max_k, ms):
    """residue_shift_check on every (i, m) in order, as one packed block for each k."""
    for k in range(1, max_k + 1):
        checks = [ident_mod.residue_shift_check(k, m, i) for i in range(1 << k) for m in ms]
        yield (
            k,
            0,
            len(checks),
            _pack(array("Q", [c.lhs for c in checks])),
            _pack(array("Q", [c.rhs for c in checks])),
        )


@lru_cache(maxsize=None)
def _catalog_per_start(params, start_limit, max_steps=10**4):
    """find_cycle run on every odd start on its own."""
    found = {}
    for x0 in range(1, start_limit + 1, 2):
        record = anb_mod.find_cycle(x0, params, max_steps=max_steps)
        if record is not None:
            found.setdefault(record.members, record)
    return tuple(sorted(found.values(), key=lambda r: (len(r.members), r.members)))


class TestOneWalkChecksBytes:
    """The one-walk checks print the same bytes as the reference paths."""

    FORMATS = ("text", "json", "csv")

    def _both(self, capsys, monkeypatch, module, name, reference, argv):
        fast = [run_cli(capsys, *argv, "--format", f) for f in self.FORMATS]
        monkeypatch.setattr(module, name, reference)
        slow = [run_cli(capsys, *argv, "--format", f) for f in self.FORMATS]
        monkeypatch.undo()
        return fast, slow

    @pytest.mark.parametrize("M", range(2, 19))
    def test_halfsplit_classes(self, capsys, monkeypatch, M):
        argv = ("verify", "halfsplit", "--M", str(M), "--method", "classes")
        fast, slow = self._both(
            capsys, monkeypatch, halfsplit_mod, "halfsplit_by_classes", _direct_by_classes, argv
        )
        assert fast == slow
        assert fast[0][0] == EX_OK

    @pytest.mark.parametrize("steps", ["0", "3"])
    def test_halfsplit_classes_steps(self, capsys, monkeypatch, steps):
        argv = ("verify", "halfsplit", "--M", "9", "--steps", steps, "--method", "classes")
        fast, slow = self._both(
            capsys, monkeypatch, halfsplit_mod, "halfsplit_by_classes", _direct_by_classes, argv
        )
        assert fast == slow

    def test_eq2(self, capsys, monkeypatch):
        argv = ("verify", "eq2", "--max-x0", "1999")
        fast, slow = self._both(
            capsys, monkeypatch, ident_mod, "closed_form_failures", _eq2_per_n, argv
        )
        assert fast == slow
        assert json.loads(fast[1][1])["checks_run"] > 20000

    def test_eq2_wrong_exponents(self, capsys, monkeypatch):
        # both paths read the same corrupted exponents, so they must report
        # the same failures and the same first counterexample
        real = cli_verify.odd_walk

        def corrupted(x0):
            values, exps = real(x0)
            if x0 % 7 == 3 and exps:
                exps[len(exps) // 2] += 1
            return values, exps

        monkeypatch.setattr(cli_verify, "odd_walk", corrupted)
        argv = ("verify", "eq2", "--max-x0", "299")
        fast = [run_cli(capsys, *argv, "--format", f) for f in self.FORMATS]
        monkeypatch.setattr(ident_mod, "closed_form_failures", _eq2_per_n)
        slow = [run_cli(capsys, *argv, "--format", f) for f in self.FORMATS]
        assert fast == slow
        assert fast[0][0] == EX_INCONCLUSIVE
        doc = json.loads(fast[1][1])
        assert doc["failures"] > 0 and doc["counterexample"]["x0"] % 7 == 3

    def test_bohm_wrong_exponents(self, capsys, monkeypatch):
        # the check compares integers; a failing start's text is the reduced
        # Fraction that reconstruct_start builds from the same prefix sums
        real = cli_verify.odd_walk

        def corrupted(x0):
            values, exps = real(x0)
            if x0 % 7 == 3 and exps:
                exps[-1] += 1
            return values, exps

        monkeypatch.setattr(cli_verify, "odd_walk", corrupted)
        code, out = run_cli(capsys, "verify", "bohm", "--max-x0", "99", "--format", "json")
        doc = json.loads(out)
        assert code == EX_INCONCLUSIVE and doc["failures"] == 7  # 3, 17, ..., 87
        prefix = list(accumulate(corrupted(3)[1], initial=0))
        text = str(ident_mod.reconstruct_start(prefix))
        assert doc["counterexample"] == {"x0": 3, "reconstructed": text} and "/" in text

    @pytest.mark.parametrize(
        "a, b, samples, max_n",
        [("5", "1", "200", "50"), ("7", "3", "30", "80"), ("3", "1", "20", "40")],
    )
    def test_anb_eq(self, capsys, monkeypatch, a, b, samples, max_n):
        argv = ("verify", "anb-eq", "--a", a, "--b", b, "--samples", samples,
                "--max-n", max_n, "--seed", "3")
        fast, slow = self._both(
            capsys, monkeypatch, ident_mod, "closed_form_failures", _anb_per_n, argv
        )
        assert fast == slow
        assert fast[0][0] == EX_OK

    def test_anb_eq_wrong_exponents(self, capsys, monkeypatch):
        real = anb_mod.anb_steps_extended

        def corrupted(x0, params, count):
            values, exps = real(x0, params, count)
            if x0 % 5 == 2 and exps:
                exps[-1] += 1
            return values, exps

        monkeypatch.setattr(anb_mod, "anb_steps_extended", corrupted)
        argv = ("verify", "anb-eq", "--samples", "40", "--max-n", "12")
        fast = [run_cli(capsys, *argv, "--format", f) for f in self.FORMATS]
        monkeypatch.setattr(ident_mod, "closed_form_failures", _anb_per_n)
        slow = [run_cli(capsys, *argv, "--format", f) for f in self.FORMATS]
        assert fast == slow
        assert fast[0][0] == EX_INCONCLUSIVE


    @pytest.mark.parametrize(
        "argv",
        [
            ("--max-k", "8", "--samples", "25", "--seed", "7"),
            ("--max-k", "4", "--samples", "5"),
            ("--max-k", "1", "--samples", "3", "--seed", "9"),
            ("--max-k", "10", "--samples", "1", "--seed", "2"),
        ],
    )
    def test_lemma7(self, capsys, monkeypatch, argv):
        argv = ("verify", "lemma7", *argv)
        fast, slow = self._both(
            capsys, monkeypatch, ident_mod, "residue_shift_blocks", _lemma7_per_case, argv
        )
        assert fast == slow
        assert fast[0][0] == EX_OK

    def test_lemma7_numpy_draws(self, capsys, monkeypatch):
        # above the draw crossover the m come as numpy's int64 array, read
        # into the lanes by their bytes: the same bytes as the stream's.  A
        # corrupted T^6(5) makes failures, whose counterexample names an m.
        corrupted = self._corrupt_level(halfsplit_mod.shift_blocks, 6, images=[5])
        monkeypatch.setattr(halfsplit_mod, "shift_blocks", corrupted)
        argv = ("verify", "lemma7", "--max-k", "6", "--samples", "40", "--seed", "3")
        stream = [run_cli(capsys, *argv, "--format", f) for f in self.FORMATS]
        monkeypatch.setattr(pcg64_mod, "NUMPY_LOAD_NS", 0)
        assert [run_cli(capsys, *argv, "--format", f) for f in self.FORMATS] == stream
        assert stream[0][0] == EX_INCONCLUSIVE
        m = int(np.random.default_rng(3).integers(0, cli_mod.M_SEED_RANGE, size=40)[0])
        assert json.loads(stream[1][1])["counterexample"]["m"] == m

    def test_lemma7_broken_left_walk(self, capsys, monkeypatch):
        # break the walk from every start >= 2^k that is 3 mod 7, in the
        # per-case walker and in the packed walker alike: only the left side
        # walks such starts (the right side walks i < 2^k, or reads the table)
        walk, walk_packed = ident_mod._walk_shortcut_zero, ident_mod._walk_packed

        def broken(x, steps, *params):
            y, p = walk(x, steps, *params)
            return y + (x >> steps > 0 and x % 7 == 3), p

        def broken_packed(x, lanes, steps):
            walked = _unpack(walk_packed(x, lanes, steps), lanes)
            hits = [x >> steps > 0 and x % 7 == 3 for x in _unpack(x, lanes)]
            return _pack(array("Q", [y + hit for y, hit in zip(walked, hits)]))

        monkeypatch.setattr(ident_mod, "_walk_shortcut_zero", broken)
        monkeypatch.setattr(ident_mod, "_walk_packed", broken_packed)
        argv = ("verify", "lemma7", "--max-k", "7", "--samples", "6", "--seed", "4")
        fast = []
        # several blocks per k: whole rows (50 and 9) and pieces of rows (4)
        for block in (50, 9, 4):
            monkeypatch.setattr(ident_mod, "_SHIFT_BLOCK", block)
            fast.append([run_cli(capsys, *argv, "--format", f) for f in self.FORMATS])
        monkeypatch.setattr(ident_mod, "residue_shift_blocks", _lemma7_per_case)
        slow = [run_cli(capsys, *argv, "--format", f) for f in self.FORMATS]
        assert fast == [slow] * 3
        assert slow[0][0] == EX_INCONCLUSIVE
        # the count and the first counterexample in (k, i, draw) order, as
        # the per-case loop over the broken check finds them
        ms = np.random.default_rng(4).integers(0, cli_mod.M_SEED_RANGE, size=6)
        failures, first = 0, None
        for k in range(1, 8):
            for i in range(1 << k):
                for m in ms:
                    res = ident_mod.residue_shift_check(k, int(m), i)
                    if not res.holds:
                        failures += 1
                        first = first or {"k": k, "m": int(m), "i": i,
                                          "lhs": res.lhs, "rhs": res.rhs}
        doc = json.loads(slow[1][1])
        assert 0 < failures < doc["checks_run"]
        assert doc["failures"] == failures and doc["counterexample"] == first

    @staticmethod
    def _corrupt_level(real_blocks, k, images=(), powers=()):
        """shift_blocks with 1 added to the images and 2 to the powers of the
        residues given at level k (or at every level n >= 1 that images(n)
        names, for a callable), in a copy of the block that the check reads:
        the walk refines its own, uncorrupted, blocks."""

        def corrupted(top):
            for n, b, image, power in real_blocks(top):
                bad = images(n) if callable(images) else images if n == k else ()
                if n and (bad or powers and n == k):
                    lanes = min(1 << n, LANE_BLOCK)
                    image, power = _unpack(image, lanes), _unpack(power, lanes)
                    for i in bad:
                        if i // lanes == b:
                            image[i % lanes] += 1
                    for i in powers if n == k else ():
                        if i // lanes == b:
                            power[i % lanes] += 2
                    image, power = _pack(image), _pack(power)
                yield n, b, image, power

        return corrupted

    def test_lemma7_corrupted_table(self, capsys, monkeypatch):
        # add 1 to T^k(i) for every i that is 3 mod 7 in the level the check
        # reads, and compare with a per-case loop whose residue walk is broken
        # the same way
        real_blocks, walk = halfsplit_mod.shift_blocks, ident_mod._walk_shortcut_zero

        corrupted = self._corrupt_level(real_blocks, None, images=lambda n: range(3, 1 << n, 7))

        def per_case(max_k, ms):
            for k in range(1, max_k + 1):
                lhs, rhs = [], []
                for i in range(1 << k):
                    ti, p = walk(i, k)
                    ti += i % 7 == 3
                    for m in ms:
                        lhs.append(walk((int(m) << k) + i, k)[0])
                        rhs.append(3**p * int(m) + ti)
                yield k, 0, len(lhs), _pack(array("Q", lhs)), _pack(array("Q", rhs))

        monkeypatch.setattr(halfsplit_mod, "shift_blocks", corrupted)
        monkeypatch.setattr(ident_mod, "_SHIFT_BLOCK", 50)
        argv = ("verify", "lemma7", "--max-k", "7", "--samples", "6", "--seed", "4")
        fast = [run_cli(capsys, *argv, "--format", f) for f in self.FORMATS]
        monkeypatch.setattr(ident_mod, "residue_shift_blocks", per_case)
        slow = [run_cli(capsys, *argv, "--format", f) for f in self.FORMATS]
        assert fast == slow
        assert fast[0][0] == EX_INCONCLUSIVE
        # every check of a residue 3 mod 7 fails, the first at k = 2, i = 3
        ms = np.random.default_rng(4).integers(0, cli_mod.M_SEED_RANGE, size=6)
        m = int(ms[0])
        lhs = walk((m << 2) + 3, 2)[0]
        doc = json.loads(fast[1][1])
        assert doc["failures"] == 6 * sum(len(range(3, 1 << k, 7)) for k in range(1, 8))
        assert doc["counterexample"] == {"k": 2, "m": m, "i": 3, "lhs": lhs, "rhs": lhs + 1}

    @pytest.mark.parametrize("block", [4096, 5])
    def test_lemma7_first_failure_in_a_later_block(self, capsys, monkeypatch, block):
        # at k = 13 the power 3^p of residue 5000, in the second table block,
        # is 2 too large, which shows only for m > 0; the image of 7000 is 1
        # too large, which shows for every m.  The first failure is at
        # (i 5000, m 5), the second draw, in a later block of checks than the
        # first; with blocks of 5 checks the draws also span two blocks a row.
        real_blocks, walk = halfsplit_mod.shift_blocks, ident_mod._walk_shortcut_zero
        corrupted = self._corrupt_level(real_blocks, 13, images=[7000], powers=[5000])
        draws = [0, 5, 0, 3, 1 << 19, 0, 7]
        monkeypatch.setattr(halfsplit_mod, "shift_blocks", corrupted)
        monkeypatch.setattr(pcg64_mod, "seeded_draws", lambda *args: iter([draws]))
        monkeypatch.setattr(ident_mod, "_SHIFT_BLOCK", block)
        code, out = run_cli(capsys, "verify", "lemma7", "--max-k", "13",
                            "--samples", str(len(draws)), "--format", "json")
        doc = json.loads(out)
        assert code == EX_INCONCLUSIVE
        assert doc["checks_run"] == len(draws) * ((1 << 14) - 2)
        assert doc["failures"] == 4 + len(draws)
        lhs = walk((5 << 13) + 5000, 13)[0]
        assert doc["counterexample"] == {"k": 13, "m": 5, "i": 5000, "lhs": lhs,
                                         "rhs": lhs + 2 * 5}

    def test_lemma7_least_failure_not_the_first_met(self, capsys, monkeypatch):
        # the walk visits block (14, 0) before (13, 1): corrupt the image of
        # residue 100 at level 14 and of 4096 + 50 at level 13.  The counterexample
        # is the k = 13 one, the least (k, i, draw), though the k = 14 one is met first.
        corrupted = self._corrupt_level(halfsplit_mod.shift_blocks, None,
                                        images=lambda n: {13: [4146], 14: [100]}.get(n, ()))
        order = [(n, b) for n, b, _, _ in corrupted(14) if n >= 13]
        assert order.index((14, 0)) < order.index((13, 1))
        draws = [9, 2]
        monkeypatch.setattr(halfsplit_mod, "shift_blocks", corrupted)
        monkeypatch.setattr(pcg64_mod, "seeded_draws", lambda *args: iter([draws]))
        code, out = run_cli(capsys, "verify", "lemma7", "--max-k", "14", "--samples", "2",
                            "--format", "json")
        doc = json.loads(out)
        assert code == EX_INCONCLUSIVE
        assert doc["checks_run"] == 2 * ((1 << 15) - 2)
        assert doc["failures"] == 4
        lhs = ident_mod._walk_shortcut_zero((9 << 13) + 4146, 13)[0]
        assert doc["counterexample"] == {"k": 13, "m": 9, "i": 4146, "lhs": lhs, "rhs": lhs + 1}

    @pytest.mark.parametrize(
        "argv",
        [
            ("--a", "5", "--b", "1", "--limit", "151"),
            ("--a", "7", "--b", "1", "--limit", "151"),
            ("--a", "5", "--b", "3", "--limit", "301"),
            ("--limit", "100", "--max-steps", "37"),
            ("--a", "5", "--b", "5", "--limit", "100", "--max-steps", "3"),
            ("--a", "3", "--b", "5", "--limit", "99", "--max-steps", "0"),
        ],
    )
    def test_anb_cycles(self, capsys, monkeypatch, argv):
        argv = ("anb-cycles", *argv)
        fast, slow = self._both(
            capsys, monkeypatch, anb_mod, "cycle_catalog", _catalog_per_start, argv
        )
        assert fast == slow
        assert fast[0][0] == EX_OK


class TestMontecarloCommand:
    def test_parser_defaults_match_the_reference_table(self):
        # the parser holds these without loading reference_table
        from collatzlab import reference_table

        assert cli_mod.MC_SAMPLE_LENGTH == reference_table.SAMPLE_LENGTH

    def test_byte_determinism(self, capsys):
        argv = ["montecarlo", "--length", "200", "--samples", "6", "--seed", "11",
                "--format", "json"]
        code1, out1 = run_cli(capsys, *argv)
        code2, out2 = run_cli(capsys, *argv)
        assert (code1, code2) == (EX_OK, EX_OK)
        assert out1 == out2

    def test_golden_seed7(self, capsys):
        code, out = run_cli(
            capsys,
            "montecarlo", "--length", "100", "--samples", "14", "--seed", "7",
            "--format", "json",
        )
        assert code == EX_OK
        golden = (GOLDEN_DIR / "montecarlo_seed7.json").read_text()
        assert out == golden

    def test_schema_and_seed_recorded(self, capsys):
        code, out = run_cli(
            capsys, "montecarlo", "--length", "50", "--samples", "3", "--seed", "9",
            "--format", "json",
        )
        doc = json.loads(out)
        validator("montecarlo.v1.json").validate(doc)
        assert doc["seed"] == 9
        assert doc["samples"] == 3

    def test_csv_header_records_seed(self, capsys):
        code, out = run_cli(
            capsys, "montecarlo", "--length", "50", "--samples", "3", "--seed", "9",
            "--format", "csv",
        )
        assert out.startswith("# source=generated seed=9 length=50 samples=3")
        assert "sample,xi,one_plus_xi,indicator_std,chi" in out

    def test_fixture_stats(self, capsys):
        code, out = run_cli(capsys, "montecarlo", "--fixture", "paper14", "--format", "json")
        assert code == EX_OK
        doc = json.loads(out)
        validator("montecarlo.v1.json").validate(doc)
        assert doc["source"] == "fixture:paper14"
        assert doc["seed"] is None
        assert abs(doc["stats"]["mean_one_plus_xi"] - 2.0789) < 0.001
        assert doc["published_comparison"]["reproducible"] is False

    def test_large_batch_law_of_large_numbers(self, capsys):
        code, out = run_cli(
            capsys, "montecarlo", "--length", "10000", "--samples", "1000",
            "--seed", "1", "--format", "json",
        )
        assert code == EX_OK
        doc = json.loads(out)
        assert 0.98 < doc["stats"]["mean_xi"] < 1.02

    def test_level_selection(self, capsys):
        code, out = run_cli(
            capsys, "montecarlo", "--length", "60", "--samples", "4", "--seed", "2",
            "--level", "98", "--format", "json",
        )
        doc = json.loads(out)
        assert list(doc["intervals"]) == ["98"]

    def test_usage(self, capsys):
        assert main(["montecarlo", "--length", "1"]) == EX_USAGE
        assert main(["montecarlo", "--samples", "1"]) == EX_USAGE
        assert main(["montecarlo", "--fixture", "unknown"]) == EX_USAGE

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--length", str(10**11), "--samples", "2"], "montecarlo draws 100000000000 coins a"),
            (["--samples", str(10**11)], "montecarlo draws length x samples = 100 x"),
            (["--length", "2", "--samples", str(10**6)], "montecarlo holds a row for each of"),
        ],
    )
    def test_budget_stops_before_any_draw(self, capsys, monkeypatch, argv, message):
        def no_draw(*args):
            raise AssertionError("drew before the budget check")

        monkeypatch.setattr("collatzlab.stats.seeded_draws", no_draw)
        assert main(["montecarlo", *argv, "--format", "json"]) == EX_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"resource limit: {message}")
        assert len(captured.err.splitlines()) == 1

    def test_budget_edges(self, capsys, monkeypatch):
        # each bound is admitted at exactly its limit
        monkeypatch.setattr(cli_mod, "MC_LENGTH_LIMIT", 50)
        assert main(["montecarlo", "--length", "50", "--samples", "3"]) == EX_OK
        assert main(["montecarlo", "--length", "51", "--samples", "3"]) == EX_RESOURCE
        monkeypatch.setattr(cli_mod, "MC_COIN_LIMIT", 150)
        assert main(["montecarlo", "--length", "50", "--samples", "3"]) == EX_OK
        assert main(["montecarlo", "--length", "50", "--samples", "4"]) == EX_RESOURCE
        assert main(["montecarlo", "--length", "38", "--samples", "4"]) == EX_RESOURCE
        monkeypatch.setattr(cli_mod, "MC_SAMPLE_LIMIT", 3)
        assert main(["montecarlo", "--length", "37", "--samples", "4"]) == EX_RESOURCE
        assert main(["montecarlo", "--length", "37", "--samples", "3"]) == EX_OK
        # the fixture sets its own length and samples
        assert main(["montecarlo", "--fixture", "paper14"]) == EX_OK

    def test_budget_admits_the_large_batch(self):
        # test_large_batch_law_of_large_numbers runs --length 10000 --samples 1000
        assert 10000 <= cli_mod.MC_LENGTH_LIMIT
        assert 10000 * 1000 <= cli_mod.MC_COIN_LIMIT
        assert 1000 <= cli_mod.MC_SAMPLE_LIMIT


class TestSweepCommand:
    def test_one_million_sweep_schema_valid(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        code = main(["sweep", "--limit", "1000000", "--format", "json",
                     "--output", str(out_path)])
        assert code == EX_OK
        doc = json.loads(out_path.read_text())
        validator("sweep.v1.json").validate(doc)
        assert doc["verified"] == 1000000
        assert doc["failures"] == []
        # 837799 is the total-stopping-time record holder below 10^6 and also
        # wins the total/ln(x) ratio; cross-check with the scalar walker
        from collatzlab.sweep import survey_chunk_python

        assert doc["tst_argmax"] == 837799
        walk = survey_chunk_python(837799, 837800)
        assert doc["max_total_stopping_time"] == walk.max_total_stopping_time
        assert doc["ratio_argmax"] == 837799
        assert doc["max_ratio"] == pytest.approx(walk.max_ratio)

    def test_thread_count_invariance_bytes(self, capsys):
        runs = {}
        for threads in ("1", "2", "3"):
            code, out = run_cli(
                capsys, "sweep", "--limit", "300000", "--threads", threads,
                "--format", "json",
            )
            assert code == EX_OK
            runs[threads] = out
        assert runs["1"] == runs["2"] == runs["3"]

    def test_limit_one(self, capsys):
        code, out = run_cli(capsys, "sweep", "--limit", "1", "--format", "json")
        assert code == EX_OK
        doc = json.loads(out)
        validator("sweep.v1.json").validate(doc)
        assert doc["verified"] == 1
        assert doc["max_total_stopping_time"] == 0
        assert doc["max_ratio"] is None

    def test_step_limit_failures_exit(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--limit", "30", "--max-steps", "5", "--format", "json"
        )
        assert code == EX_INCONCLUSIVE
        doc = json.loads(out)
        assert 27 in doc["failures"]

    def test_usage(self, capsys):
        assert main(["sweep"]) == EX_USAGE
        assert main(["sweep", "--limit", "0"]) == EX_USAGE
        assert main(["sweep", "--limit", "5", "--threads", "0"]) == EX_USAGE

    def test_threads_cap(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
        code = main(["sweep", "--limit", "5000000", "--threads", str(10**18)])
        captured = capsys.readouterr()
        assert code == EX_USAGE
        assert captured.out == ""
        assert captured.err == f"error: --threads must be <= {cli_mod.THREADS_LIMIT}\n"
        over = str(cli_mod.THREADS_LIMIT + 1)
        assert main(["sweep", "--limit", "5000000", "--threads", over]) == EX_USAGE
        # one piece of work: the largest admitted count still starts no pool
        limit = str(cli_mod.THREADS_LIMIT)
        assert main(["sweep", "--limit", "1000", "--threads", limit]) == EX_OK

    def test_start_budget_edge(self, capsys, monkeypatch):
        assert cli_mod.SWEEP_START_LIMIT == 10**9
        monkeypatch.setattr(cli_mod, "SWEEP_START_LIMIT", 1000)
        assert run_cli(capsys, "sweep", "--limit", "1000")[0] == EX_OK
        code = main(["sweep", "--limit", "1001", "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EX_RESOURCE, "")
        assert captured.err == (
            "resource limit: sweep --limit 1001 is over the budget of 1000 starts; "
            "lower --limit\n"
        )

    def test_failure_budget_edge(self, capsys, monkeypatch):
        held = len(survey_range(1, 1001, max_steps=10).failures)
        monkeypatch.setattr(cli_mod, "SWEEP_FAILURE_LIMIT", held)
        assert run_cli(capsys, "sweep", "--limit", "1000", "--max-steps", "10")[0] == (
            EX_INCONCLUSIVE
        )
        monkeypatch.setattr(cli_mod, "SWEEP_FAILURE_LIMIT", held - 1)
        code = main(["sweep", "--limit", "1000", "--max-steps", "10"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EX_RESOURCE, "")
        assert captured.err.startswith(f"resource limit: sweep would hold {held} failures")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failure_budget_stops_at_the_piece(self, capsys, monkeypatch, threads):
        # the waves [1, 2), [2, 4), ... [512, 1001) are the pieces here: the
        # survey stops at the first whose failures pass the cap, folding no more
        from collatzlab import sweep as sweep_mod

        folded = []
        fold = sweep_mod._fold_piece
        monkeypatch.setattr(
            sweep_mod, "_fold_piece", lambda *args: folded.append(args[3]) or fold(*args)
        )
        monkeypatch.setattr(cli_mod, "SWEEP_FAILURE_LIMIT", 100)
        code = main(["sweep", "--limit", "1000", "--max-steps", "10", "--threads", threads])
        err = capsys.readouterr().err
        held, start = next(
            (h, 1 << w) for w in range(10)
            if (h := len(survey_range(1, min(2 << w, 1001), 10).failures)) > 100
        )
        assert code == EX_RESOURCE and folded[-1] == start
        assert err.startswith(f"resource limit: sweep would hold {held} failures")

    def test_default_failure_budget(self):
        # 2^28 bytes at 60 bytes a failure
        assert cli_mod.SWEEP_FAILURE_LIMIT == 4473924


class TestCyclesCommand:
    def test_catalog_5n1(self, capsys):
        code, out = run_cli(
            capsys, "anb-cycles", "--a", "5", "--b", "1", "--limit", "50",
            "--format", "json",
        )
        assert code == EX_OK
        doc = json.loads(out)
        validator("cycles.v1.json").validate(doc)
        members = [tuple(c["members"]) for c in doc["cycles"]]
        assert members == [(1, 3), (13, 33, 83), (17, 43, 27)]
        assert all(c["verified"] for c in doc["cycles"])
        assert all(c["product_lhs"] == c["product_rhs"] for c in doc["cycles"])

    def test_catalog_7n1(self, capsys):
        code, out = run_cli(
            capsys, "anb-cycles", "--a", "7", "--b", "1", "--limit", "10",
            "--format", "json",
        )
        doc = json.loads(out)
        assert [tuple(c["members"]) for c in doc["cycles"]] == [(1,)]

    def test_text_output(self, capsys):
        code, out = run_cli(capsys, "anb-cycles", "--a", "5", "--b", "1", "--limit", "50")
        assert "cycle [13, 33, 83]" in out
        assert "verified" in out

    def test_usage(self, capsys):
        assert main(["anb-cycles", "--a", "4"]) == EX_USAGE
        assert main(["anb-cycles", "--limit", "0"]) == EX_USAGE

    def test_negative_max_steps(self, capsys):
        code = main(["anb-cycles", "--max-steps", "-5"])
        captured = capsys.readouterr()
        assert code == EX_USAGE
        assert captured.out == ""
        assert captured.err == "error: --max-steps must be >= 0\n"

    def test_step_budget(self, capsys, monkeypatch):
        code = main(["anb-cycles", "--limit", "1000000000000", "--max-steps", "1"])
        captured = capsys.readouterr()
        assert code == EX_RESOURCE
        assert captured.out == ""
        assert captured.err.startswith("resource limit: anb-cycles walks 500000000000")
        assert len(captured.err.splitlines()) == 1
        # odd starts x max(max_steps, 1): 50 x 10^4 is admitted at exactly the limit
        monkeypatch.setattr(cli_mod, "CYCLES_STEP_LIMIT", 50 * 10**4)
        assert main(["anb-cycles", "--limit", "100"]) == EX_OK
        assert main(["anb-cycles", "--limit", "101"]) == EX_RESOURCE
        monkeypatch.setattr(cli_mod, "CYCLES_STEP_LIMIT", 50)
        assert main(["anb-cycles", "--limit", "100", "--max-steps", "0"]) == EX_OK
        assert main(["anb-cycles", "--limit", "101", "--max-steps", "0"]) == EX_RESOURCE

    def test_memory_budget(self, capsys, monkeypatch):
        code = main(["anb-cycles", "--limit", "3", "--max-steps", "8000000"])
        captured = capsys.readouterr()
        assert code == EX_RESOURCE
        assert captured.out == ""
        assert captured.err.startswith("resource limit: anb-cycles holds one walk of up to 8000000")
        assert len(captured.err.splitlines()) == 1
        # the catalogs the benchmark runs stay well within it
        for limit in (100, 151):
            estimate = catalog_mod.catalog_walk_bytes(AnbParams(a=5, b=1), limit, 10**4)
            assert estimate < cli_mod.CYCLES_MEMORY_LIMIT // 16
        # the estimate is admitted at exactly the limit
        estimate = catalog_mod.catalog_walk_bytes(AnbParams(a=7, b=3), 41, 300)
        monkeypatch.setattr(cli_mod, "CYCLES_MEMORY_LIMIT", estimate)
        argv = ["anb-cycles", "--a", "7", "--b", "3", "--limit", "41", "--max-steps", "300"]
        assert main(argv) == EX_OK
        monkeypatch.setattr(cli_mod, "CYCLES_MEMORY_LIMIT", estimate - 1)
        assert main(argv) == EX_RESOURCE

    @pytest.mark.parametrize("a, b", [(10**309 + 1, 1), (5, 10**309 + 1)], ids=["a", "b"])
    def test_huge_a_or_b(self, capsys, a, b):
        # a + b past a float's range: the memory estimate takes log2 of the int
        # (a + b) // 2, where (a + b) / 2 raised OverflowError
        code = main(["anb-cycles", "--a", str(a), "--b", str(b), "--limit", "1",
                     "--max-steps", "1"])
        err = capsys.readouterr().err
        assert code in (EX_OK, EX_RESOURCE)
        assert len(err.splitlines()) <= 1 and "Traceback" not in err


class TestOutputFile:
    def test_writes_to_path(self, tmp_path, capsys):
        target = tmp_path / "t.json"
        code = main(["trajectory", "7", "--map", "odd", "--format", "json",
                     "--output", str(target)])
        assert code == EX_OK
        lines = target.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "header"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_path_stops_before_work(self, tmp_path, capsys, monkeypatch, where):
        target = tmp_path / "missing" / "x" if where == "missing directory" else tmp_path

        def no_walk(*args, **kwargs):
            raise AssertionError("the orbit was walked")

        monkeypatch.setattr(cli_trajectory, "orbit_steps", no_walk)
        code = main(["trajectory", "27", "--output", str(target)])
        captured = capsys.readouterr()
        assert code == EX_USAGE
        assert captured.out == ""
        reason = "No such file or directory" if where == "missing directory" else "Is a directory"
        assert captured.err == f"error: cannot write --output {target}: {reason}\n"

    def test_usage_error_leaves_paths_alone(self, tmp_path, capsys):
        kept = tmp_path / "kept"
        kept.write_text("kept\n")
        assert main(["trajectory", "0", "--output", str(kept)]) == EX_USAGE
        assert main(["verify", "halfsplit", "--lo", "1", "--output", str(kept)]) == EX_USAGE
        assert kept.read_text() == "kept\n"
        # a new path is tried for writing before the work, and removed again
        fresh = tmp_path / "fresh"
        assert main(["verify", "halfsplit", "--lo", "1", "--output", str(fresh)]) == EX_USAGE
        assert not fresh.exists()
