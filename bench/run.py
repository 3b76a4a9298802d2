"""collatzlab benchmark: one closed-loop client running one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The client runs the workload's commands as
serial `python -m collatzlab ...` subprocesses with PYTHONPATH=src, as a user
would, reads every output in full and checks it with `oracle`. It runs the
command list a fixed number of passes that take about S seconds (see
`workloads.PASS_SECONDS`), and at least once.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are end to end, from the subprocess runs
above. With --trace 1 the ops run in-process instead, once plain and once
traced (see `tracing`), and the metrics are per layer; the spans go to
.bench_out/. The line before the result holds the environment and size block.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import oracle
import proc
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
OP_TIMEOUT_S = 60.0


class Tally:
    """Attempted, failed and wrong ops; failures are reported on stderr."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.correct = True

    def judge(self, op: workloads.Op, code: int | None, out: str, err: str) -> dict | None:
        """The facts the oracle verified, or None when the op failed."""
        facts, reason, wrong = oracle.verdict(op.check, code, out, err)
        self.attempted += 1
        if reason:
            self.failed += 1
            self.correct = self.correct and not wrong
            print(f"bench: FAILED {op.name}: {reason}", file=sys.stderr)
            return None
        return facts

    def result(self, metrics: dict) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def launcher() -> proc.Launcher:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return proc.Launcher(cwd=str(ROOT), env=env, timeout=OP_TIMEOUT_S)


def run_op(spawn: proc.Launcher, op: workloads.Op) -> proc.Completed:
    return spawn.run([sys.executable, "-m", "collatzlab", *op.argv])


def setup(spawn: proc.Launcher, workload: str, seed: int, tally: Tally,
          repeats: int) -> tuple[list, float]:
    """Build the op list and its expected facts, then run one untimed command."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ops = workloads.WORKLOADS[workload](seed)
        warm = run_op(spawn, workloads.WARMUP)
        times.append(time.perf_counter() - t0)
        tally.judge(workloads.WARMUP, warm.code, warm.out.decode(), warm.err.decode())
    return ops, statistics.median(times)


def measure(spawn: proc.Launcher, ops: list, passes: int, tally: Tally) -> dict:
    """Untraced runs; every metric is what a user of the CLI would see.

    The op list runs `passes` times in order. Each op's times reduce to their
    median over the passes, so one pass caught in a slow spell of the host
    does not set the result.
    """
    walls = [[] for _ in ops]
    cpus = [[] for _ in ops]
    oks = []
    peak = 0.0
    for _ in range(passes):
        for op, wall, cpu in zip(ops, walls, cpus):
            res = run_op(spawn, op)
            wall.append(res.wall)
            cpu.append(res.cpu)
            peak = max(peak, res.rss_mb)
            facts = tally.judge(op, res.code, res.out.decode(), res.err.decode())
            oks.append(facts is not None)
    per_op = [statistics.median(w) for w in walls]
    return {
        "wall_s": sum(per_op),
        "cmd_p50_s": statistics.median(per_op),
        "cpu_s": sum(statistics.median(c) for c in cpus),
        "peak_rss_mb": peak,
        "ok_ratio": statistics.fmean(oks),
    }


def traced(spawn: proc.Launcher, workload: str, seed: int, ops: list, tally: Tally) -> dict:
    """In-process passes, plain then traced, and the subprocess import probes."""
    sys.path.insert(0, str(ROOT / "src"))
    import collatzlab.cli as cli

    probes = tracing.import_probes(spawn.run, cli)

    def one_pass(tracer=None):
        wall, out_bytes, records, facts = 0.0, 0, [], []
        for op in ops:
            code, out, err, seconds = tracing.run_inprocess(cli, op.argv)
            wall += seconds
            out_bytes += len(out)
            if tracer:
                records.append(tracer.take())
            facts.append(tally.judge(op, code, out, err) or {})
        return wall, out_bytes, records, facts

    plain_wall = one_pass()[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall, out_bytes, records, facts = one_pass(tracer)
    finally:
        tracer.uninstall()
    metrics = dict(probes)
    metrics.update(tracing.layer_metrics(ops, records, facts, out_bytes, wall / plain_wall - 1))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    dump = {"workload": workload, "seed": seed, "env": env_block(), "metrics": metrics,
            "untraced": tracer.missing,
            "ops": [dict(op=op.name, **rec) for op, rec in zip(ops, records)]}
    (out_dir / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(dump))
    return metrics


def env_block() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or None
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", (ROOT / "pyproject.toml").read_text(),
                     re.DOTALL | re.MULTILINE)
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (ROOT / "src" / "collatzlab").rglob("*.py")),
        "runtime_deps": len(re.findall(r'"[^"]+"', deps.group(1))) if deps else 0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "collatzlab" / "__init__.py").is_file():
        print(f"bench: no collatzlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # BENCHMARK.json is the one list of metric names and units.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    tally = Tally()
    with launcher() as spawn:
        ops, setup_s = setup(spawn, args.workload, args.seed, tally,
                             1 if args.trace else SETUP_REPEATS)
        if args.trace:
            metrics = traced(spawn, args.workload, args.seed, ops, tally)
        else:
            passes = max(1, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
            metrics = measure(spawn, ops, passes, tally)
            metrics["setup_s"] = setup_s
    if set(metrics) != set(units):
        print(f"bench: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 3
    print(json.dumps({"env": env_block()}))
    print(json.dumps(tally.result(
        {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
