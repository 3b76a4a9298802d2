"""The workloads: command lists, pinned facts and pinned work counts.

Every command is a `collatzlab` argv. Pinned facts were derived once with the
package's exact oracles (`survey_chunk_python` for the sweep, the pure-Python
walkers for the rest) and hold for every seed. The seed feeds `--seed` of
lemma7 and montecarlo and picks the start of the long general-map orbit.

`rates` map a per-layer metric to (traced function, work): the traced run
divides the work done in an op by the time spent inside that function. Work
is a pinned count, or the name of a count the op's checker verified.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import oracle

DEFAULT_MAX_STEPS = 10**5  # the CLI's default --max-steps

# sweep --limit 2^22: four engine chunks of 2^20 starts.
SWEEP_LIMIT = 1 << 22
SWEEP_PINNED = {
    "max_total_stopping_time": 374,
    "tst_argmax": 3732423,
    "ratio_argmax": 3732423,
    "max_excursion": 429277584788,
    "max_ratio": 24.714905995232588,
}
SWEEP_ELEMENT_STEPS = 409824517  # sum of total stopping times over 1..2^22

EQ2_CHECKS = 54813  # odd-map steps summed over the odd starts 1..3999
CYCLES_5N1 = [[1, 3], [13, 33, 83], [17, 43, 27]]  # odd starts up to 100 and 151

# 5n+1 orbit of 7, 10^4 steps: exact byte sizes of the two renderings.
ORBIT_5N1_BYTES = {"json": 10167244, "text": 9678248}


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[int, str, str], dict]
    rates: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        text = " ".join(self.argv)
        return text if len(text) < 90 else text[:40] + "..." + text[-40:]


def _argv(*parts) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


def trajectory(x0: int, map: str = "general", *, a: int = 5, b: int = 1,
               max_steps: int | None = None, fmt: str = "text", guarded: bool = False,
               out_bytes: int | None = None) -> Op:
    argv = ["trajectory", x0]
    if map != "general":
        argv += ["--map", map]
    if map == "anb":
        argv += ["--a", a, "--b", b]
    if max_steps is not None:
        argv += ["--max-steps", max_steps]
    if fmt != "text":
        argv += ["--format", fmt]
    checker = oracle.check_guarded_trajectory if guarded else oracle.check_trajectory
    check = partial(checker, start=x0, map=map, a=a, b=b,
                    max_steps=DEFAULT_MAX_STEPS if max_steps is None else max_steps, fmt=fmt,
                    out_bytes=out_bytes)
    if map == "anb":
        rates = {"anb.orbit_steps_per_s": ("anb.trajectory_anb", "steps")}
    else:
        fn = "dynamics.trajectory_general" if map == "general" else "dynamics.trajectory_odd"
        rates = {"dynamics.orbit_steps_per_s": (fn, "steps")}
    return Op(_argv(*argv), check, rates)


def verify(check: str, *args, checks_run: int, rate: tuple | None = None,
           half: int | None = None) -> Op:
    argv = _argv("verify", check, *args, "--format", "json")
    checker = partial(oracle.check_verify, check=check, checks_run=checks_run, half=half)
    return Op(argv, checker, dict([rate]) if rate else {})


def sweep(workers: int) -> Op:
    rates = {"sweep.starts_per_s_w2": ("sweep.survey_range", SWEEP_LIMIT)}
    if workers == 1:
        rates = {
            "sweep.starts_per_s": ("sweep.survey_range", SWEEP_LIMIT),
            "sweep.element_steps_per_s": ("sweep.survey_range", SWEEP_ELEMENT_STEPS),
        }
    return Op(
        _argv("sweep", "--limit", SWEEP_LIMIT, "--threads", workers, "--format", "json"),
        partial(oracle.check_sweep, limit=SWEEP_LIMIT, pinned=SWEEP_PINNED),
        rates,
    )


def cycles(limit: int) -> Op:
    return Op(
        _argv("anb-cycles", "--a", 5, "--b", 1, "--limit", limit, "--format", "json"),
        partial(oracle.check_cycles, a=5, b=1, limit=limit, cycles=CYCLES_5N1),
        {"anb.catalog_starts_per_s": ("anb.cycle_catalog", (limit + 1) // 2)},
    )


def cli(seed: int) -> list[Op]:
    """What a CLI user runs when the engines have little to do.

    First the README commands whose own work is small, where interpreter
    start and `import collatzlab` (scipy) set the time. Then long orbits
    written to stdout, where rendering and holding the output set the time
    and memory. The general-map orbit has about 27,700 steps and 44 MB of
    JSON-lines for every seed. The last op's values pass 4300 decimal digits,
    Python's default int/str conversion guard.
    """
    mc_seed = seed % (1 << 32)
    return [
        trajectory(27),
        trajectory(7, "odd"),
        trajectory(13, "anb"),
        trajectory(7, "anb", max_steps=40, fmt="json"),
        verify("halfsplit", "--M", 10, checks_run=9, half=1 << 9,
               rate=("halfsplit.direct_elements_per_s", ("halfsplit.halfsplit_verify", 1 << 10))),
        verify("bohm", "--max-x0", 9999, checks_run=5000,
               rate=("identities.bohm_checks_per_s", ("identities.reconstruct_start", 5000))),
        verify("geom", "--max-n", 50, "--max-m", 50, checks_run=51 * 51,
               rate=("identities.geom_checks_per_s",
                     ("identities.geometric_tail_identity", 51 * 51))),
        verify("anb-eq", "--a", 5, "--b", 1, "--samples", 200, "--max-n", 50,
               checks_run=200 * 50,
               rate=("anb.closed_form_checks_per_s", ("anb.closed_form_anb_check", 200 * 50))),
        Op(_argv("montecarlo", "--length", 100, "--samples", 14, "--seed", mc_seed,
                 "--format", "json"),
           partial(oracle.check_montecarlo, seed=mc_seed, length=100, samples=14)),
        Op(_argv("montecarlo", "--fixture", "paper14", "--format", "json"),
           partial(oracle.check_montecarlo, seed=None, length=100, samples=14,
                   fixture="paper14")),
        cycles(100),
        trajectory(orbit_start(seed), fmt="json"),
        trajectory(7, "anb", max_steps=10**4, fmt="json", out_bytes=ORBIT_5N1_BYTES["json"]),
        trajectory(7, "anb", max_steps=10**4, out_bytes=ORBIT_5N1_BYTES["text"]),
        trajectory(7, "anb", a=1001, b=1, max_steps=3000, fmt="json", guarded=True),
    ]


def sweep_range(seed: int) -> list[Op]:
    """One range at 1 worker, then at 2: the vectorized engine and its pool."""
    return [sweep(1), sweep(min(2, os.cpu_count() or 1))]


def exact_checks(seed: int) -> list[Op]:
    """Single-process, pure-Python big-int work in identities, halfsplit and anb."""
    return [
        verify("eq2", "--max-x0", 3999, checks_run=EQ2_CHECKS,
               rate=("identities.eq2_checks_per_s", ("identities.closed_form_check", EQ2_CHECKS))),
        verify("lemma7", "--max-k", 12, "--samples", 25, "--seed", seed % (1 << 32),
               checks_run=25 * ((1 << 13) - 2),
               rate=("identities.lemma7_checks_per_s",
                     ("identities.residue_shift_check", 25 * ((1 << 13) - 2)))),
        verify("halfsplit", "--M", 18, "--method", "classes", checks_run=17, half=1 << 17,
               rate=("halfsplit.class_reps_per_s",
                     ("halfsplit.halfsplit_by_classes", (1 << 18) - 2))),
        cycles(151),
    ]


def orbit_start(seed: int, bits: int = 3000, back_steps: int = 16) -> int:
    """An odd start of about `bits` bits whose orbit joins that of 2^bits - 1.

    Walks back from T(2^bits - 1) through random predecessors: 2v always, and
    (2v - 1)/3 when that is an odd integer that is not a multiple of 3 (a
    multiple of 3 has no odd predecessor). The walk ends on an odd value. The
    seed changes the start and the first steps; the rest of the orbit, and so
    the work, is the same for every seed.
    """
    rng = random.Random(seed)
    v = (3 * ((1 << bits) - 1) + 1) // 2
    for _ in range(back_steps):
        if v % 3 == 2 and ((2 * v - 1) // 3) % 3 and rng.random() < 0.5:
            v = (2 * v - 1) // 3
        else:
            v *= 2
    if v % 3 != 2:
        v *= 2
    return (2 * v - 1) // 3


WORKLOADS = {
    "cli": cli,
    "sweep-range": sweep_range,
    "exact-checks": exact_checks,
}

# Seconds one pass of each command list took on a 2-vCPU Xeon VM at 2.0 GHz.
# A run of S seconds makes round(S / this) passes, at least one, so the
# number of ops, and of failed ops, is fixed for a given S.
PASS_SECONDS = {
    "cli": 27.0,
    "sweep-range": 14.5,
    "exact-checks": 9.5,
}

# Untimed warm-up command run during set-up; it fills the byte-code cache.
WARMUP = trajectory(1, fmt="json")
