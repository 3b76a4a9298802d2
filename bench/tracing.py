"""The traced run: per-layer spans, counts and self time, recorded from outside.

The package is imported in-process and each workload op runs through
`collatzlab.cli.main(argv)`. Before the traced pass, the layers' public
functions are replaced, where their callers look them up (the `cli` module's
names and the modules' own globals), by wrappers that time every call. A
wrapper keeps a count, total and self time per function; the low-frequency
ones also record a span (id, name, start, end, parent). High-frequency calls,
such as one identity check or one map step, are only counted. Self time is a
call's duration minus the time its traced children took. Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import io
import os
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

# (layer, module, class or None, attribute, record each call as a span)
TARGETS = (
    ("cli", "collatzlab.cli", None, "main", True),
    ("dynamics", "collatzlab.cli", None, "trajectory_general", True),
    ("dynamics", "collatzlab.cli", None, "trajectory_odd", False),
    ("dynamics", "collatzlab.identities", None, "odd_steps_extended", False),
    ("dynamics", "collatzlab.dynamics", None, "step_general", False),
    ("dynamics", "collatzlab.dynamics", None, "step_odd", False),
    ("dynamics", "collatzlab.anb", None, "step_anb", False),
    ("identities", "collatzlab.identities", None, "residue_shift_check", False),
    ("identities", "collatzlab.identities", None, "closed_form_check", False),
    ("identities", "collatzlab.identities", None, "reconstruct_start", False),
    ("identities", "collatzlab.identities", None, "geometric_tail_identity", False),
    ("halfsplit", "collatzlab.halfsplit", None, "halfsplit_verify", True),
    ("halfsplit", "collatzlab.halfsplit", None, "halfsplit_by_classes", True),
    ("halfsplit", "collatzlab.halfsplit", None, "class_split", True),
    ("anb", "collatzlab.anb", None, "trajectory_anb", True),
    ("anb", "collatzlab.anb", None, "cycle_catalog", True),
    ("anb", "collatzlab.anb", None, "find_cycle", False),
    ("anb", "collatzlab.anb", None, "anb_steps_extended", False),
    ("anb", "collatzlab.anb", None, "closed_form_anb_check", False),
    ("anb", "collatzlab.anb", "CycleRecord", "product_identity", False),
    ("sweep", "collatzlab.cli", None, "survey_range", True),
    ("sweep", "collatzlab.sweep", None, "ProcessPoolExecutor", True),
    ("stats", "collatzlab.stats", None, "sample_ratios", True),
    ("stats", "collatzlab.stats", None, "indicator_sample_std", False),
    ("stats", "collatzlab.stats", "SampleStats", "from_values", False),
    ("stats", "collatzlab.stats", None, "confidence_interval", False),
    ("stats", "collatzlab.stats", None, "exponentiate_interval", False),
    ("stats", "collatzlab.stats", None, "interval_discrepancy_report", True),
)

CODE_LAYERS = ("cli", "dynamics", "identities", "halfsplit", "anb", "sweep", "stats")


def _interval_mode(args: tuple, kwargs: dict) -> str:
    return "[t]" if kwargs.get("mode", args[1] if len(args) > 1 else "normal") == "t" else ""


VARIANTS = {"stats.confidence_interval": _interval_mode}


def _started_pool(pool_cls):
    """A pool factory whose call returns once the pool has run a first task.

    Under the fork start method the first submit starts every worker, so the
    wrapped call's duration is the pool's start-up cost.
    """

    def ProcessPoolExecutor(*args, **kwargs):
        pool = pool_cls(*args, **kwargs)
        pool.submit(os.getpid).result()
        return pool

    return ProcessPoolExecutor


class Tracer:
    """Wraps TARGETS in place; `take()` returns and resets one op's record."""

    def __init__(self) -> None:
        self.functions: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.spans: list = []
        self.stack: list[list] = [[0, None]]  # [traced child ns, nearest span id]
        self._restore: list = []
        self.missing: list[str] = []  # targets a later version of the package dropped

    def _wrap(self, name: str, fn, span: bool):
        functions, spans, stack = self.functions, self.spans, self.stack
        clock = time.perf_counter_ns
        variant = VARIANTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = name + variant(args, kwargs) if variant else name
            parent = stack[-1]
            sid = parent[1]
            if span:
                sid = len(spans)
                spans.append(None)
            frame = [0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent[0] += t1 - t0
                rec = functions.get(key)
                if rec is None:
                    rec = functions[key] = [0, 0, 0]
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += t1 - t0 - frame[0]
                if span:
                    spans[sid] = (sid, key, t0, t1, parent[1])

        return traced

    def install(self) -> None:
        """Wrap every target the package still has; a missing one reads as 0."""
        for layer, module, cls, attr, span in TARGETS:
            name = f"{layer}.{attr}"
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, span))
            elif attr == "ProcessPoolExecutor":
                wrapped = self._wrap(name, _started_pool(original), span)
            else:
                wrapped = self._wrap(name, original, span)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            setattr(*self._restore.pop())

    def take(self) -> dict:
        record = {"functions": dict(self.functions), "spans": list(self.spans)}
        self.functions.clear()
        self.spans.clear()
        self.stack[0][0] = 0
        return record


def run_inprocess(cli, argv: tuple[str, ...]) -> tuple[int, str, str, float]:
    """One op through `cli.main`, with stdout and stderr captured.

    An exception escaping `main` is printed as the interpreter would print it
    and gives exit code 1, so the oracle judges in-process and subprocess runs
    alike.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), wall


def _importtime(stderr: bytes) -> dict[str, float]:
    """Cumulative seconds per module from `python -X importtime` output."""
    cumulative = {}
    for line in stderr.decode().splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1e6
    return cumulative


def import_probes(run_cmd, cli, repeats: int = 3) -> dict[str, float]:
    """Interpreter start, package import and CLI start-up, each a median."""
    bare = [run_cmd([sys.executable, "-c", "pass"]) for _ in range(repeats)]
    timed = [run_cmd([sys.executable, "-X", "importtime", "-c", "import collatzlab"])
             for _ in range(repeats)]
    imports = [_importtime(r.err) for r in timed]
    probe = ("trajectory", "27", "--format", "json")
    spawned = [run_cmd([sys.executable, "-m", "collatzlab", *probe]) for _ in range(repeats)]
    inproc = [run_inprocess(cli, probe)[3] for _ in range(repeats)]
    for r in bare + timed + spawned:
        if r.code != 0:
            raise RuntimeError(f"probe exited with {r.code}: {r.err.decode()[-300:]}")
    return {
        "import.interpreter_s": statistics.median(r.wall for r in bare),
        "import.package_s": statistics.median(i.get("collatzlab", 0.0) for i in imports),
        "import.stats_s": statistics.median(i.get("collatzlab.stats", 0.0) for i in imports),
        "import.rss_mb": statistics.median(r.rss_mb for r in timed),
        "cli.startup_s": statistics.median(r.wall for r in spawned) - statistics.median(inproc),
    }


def layer_metrics(ops, records: list[dict], facts: list[dict], out_bytes: int,
                  overhead_share: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; a layer that did not run reads 0."""
    totals: dict[str, list[int]] = {}
    for record in records:
        for name, rec in record["functions"].items():
            acc = totals.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += rec[i]
    work: dict[str, float] = {}
    busy: dict[str, float] = {}
    for op, record, op_facts in zip(ops, records, facts):
        for metric, (fn, amount) in op.rates.items():
            if fn in record["functions"] and (isinstance(amount, int) or amount in op_facts):
                work[metric] = work.get(metric, 0) + (
                    amount if isinstance(amount, int) else op_facts[amount])
                busy[metric] = busy.get(metric, 0) + record["functions"][fn][1] / 1e9

    def rate(metric: str) -> float:
        return work[metric] / busy[metric] if busy.get(metric) else 0.0

    def calls(name: str) -> int:
        return totals.get(name, [0])[0]

    def total_s(name: str) -> float:
        return totals.get(name, [0, 0])[1] / 1e9

    def mean_ns(name: str) -> float:
        return totals[name][1] / totals[name][0] if calls(name) else 0.0

    def layer(name: str, column: int) -> int:
        return sum(rec[column] for key, rec in totals.items() if key.split(".")[0] == name)

    self_s = {name: layer(name, 2) / 1e9 for name in CODE_LAYERS}
    w1, w2 = rate("sweep.starts_per_s"), rate("sweep.starts_per_s_w2")
    metrics = {
        "cli.output_mb_per_s": out_bytes / 1e6 / self_s["cli"] if self_s["cli"] else 0.0,
        "sweep.starts_per_s": w1,
        "sweep.starts_per_s_w2": w2,
        "sweep.element_steps_per_s": rate("sweep.element_steps_per_s"),
        "sweep.pool_speedup": w2 / w1 if w1 and w2 else 0.0,
        "sweep.pool_startup_s": total_s("sweep.ProcessPoolExecutor"),
        "halfsplit.class_reps_per_s": rate("halfsplit.class_reps_per_s"),
        "halfsplit.direct_elements_per_s": rate("halfsplit.direct_elements_per_s"),
        "identities.lemma7_checks_per_s": rate("identities.lemma7_checks_per_s"),
        "identities.eq2_checks_per_s": rate("identities.eq2_checks_per_s"),
        "identities.bohm_checks_per_s": rate("identities.bohm_checks_per_s"),
        "identities.geom_checks_per_s": rate("identities.geom_checks_per_s"),
        "anb.catalog_starts_per_s": rate("anb.catalog_starts_per_s"),
        "anb.closed_form_checks_per_s": rate("anb.closed_form_checks_per_s"),
        "anb.orbit_steps_per_s": rate("anb.orbit_steps_per_s"),
        "dynamics.step_general_ns": mean_ns("dynamics.step_general"),
        "dynamics.step_odd_ns": mean_ns("dynamics.step_odd"),
        "dynamics.step_anb_ns": mean_ns("dynamics.step_anb"),
        "dynamics.orbit_steps_per_s": rate("dynamics.orbit_steps_per_s"),
        "stats.t_interval_us": mean_ns("stats.confidence_interval[t]") / 1e3,
        "stats.sample_ratios_s": total_s("stats.sample_ratios"),
        "trace.overhead_share": overhead_share,
    }
    for name in CODE_LAYERS:
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.calls"] = layer(name, 0)
    return metrics
