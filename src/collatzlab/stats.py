"""Seeded drift statistics, their intervals, and the stopping-time reference.

The random experiment draws the fair bits of
`numpy.random.default_rng(seed).integers(0, 2, length, dtype=uint8)` through
`pcg64.seeded_draws`, which reproduces them without numpy for small runs.
numpy's compatibility policy (NEP 19) pins the PCG64 stream but not the
bounded draws of `Generator.integers`; `pcg64` fixes both in code, and the
tests check numpy's draws against it.  Each sample's ones count is a plain
function of its (seed, length), with no generator kept between samples, so
a pair always gives the same bits, on any thread.  Real-valued statistics
use doubles.

The summary statistics and interval bounds do not depend on the Python
version or on a quantile library.  Means use `statistics.fmean` (a correctly
rounded sum divided by the count); the sample standard deviation comes from
an exact variance (`sample_std`); Student-t critical values are computed here
for integer degrees of freedom and rounded once to the nearest double
(`t_critical`).
"""

from __future__ import annotations

import math
import statistics
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from typing import NamedTuple, Sequence

from .pcg64 import seeded_draws
from .reference_table import PUBLISHED_INTERVALS, REFERENCE_ROWS

# Two-sided normal critical values for the three supported levels; these exact
# literals are part of the interface.
Z_CRITICAL: dict[float, float] = {0.95: 1.960, 0.98: 2.326, 0.99: 2.576}

# Total-stopping-time reference slope from Applegate and Lagarias (2003):
# sigma_inf(x) > 6.14316 log(x) for infinitely many x.
APPLEGATE_LAGARIAS_SLOPE = 6.14316


class RatioSample(NamedTuple):
    xi: float
    zeros: int
    ones: int


def simulate_ratio(length: int, seed: int) -> RatioSample:
    """Draw `length` fair bits from `default_rng(seed)` and return their ratio stats."""
    return sample_ratios(length, 1, seed)[0]


def sample_ratios(length: int, samples: int, seed: int) -> list[RatioSample]:
    """Independent samples under seeds seed, seed+1, ..., in seed order."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rows = []
    for ones in seeded_draws(seed, samples, length):
        zeros = length - ones
        rows.append(RatioSample(xi=zeros / ones if ones else math.inf, zeros=zeros, ones=ones))
    return rows


def indicator_sample_std(zeros: int, ones: int) -> float:
    """Sample std (n-1 denominator) of a 0/1 sample with the given counts."""
    n = zeros + ones
    if n < 2:
        raise ValueError("need at least two draws")
    return math.sqrt(zeros * ones / (n * (n - 1)))


def sample_std(values: Sequence[float]) -> float:
    """Sample std (n-1 denominator) of finite floats, from an exact variance.

    The variance of the values is computed exactly, as integers over a common
    denominator, rounded once to the nearest double (int true division is
    correctly rounded), and passed to `math.sqrt` (itself correctly rounded).
    The result therefore depends neither on the order of the values nor on
    the Python version; `statistics.stdev` changed its rounding in 3.11.
    """
    n = len(values)
    if n < 2:
        raise ValueError("need at least two values")
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*(q for _, q in ratios))
    scaled = [p * (scale // q) for p, q in ratios]
    total = sum(scaled)
    square_sum = n * sum(x * x for x in scaled) - total * total
    return math.sqrt(square_sum / (n * (n - 1) * scale * scale))


# Decimal digits carried while solving for a t critical value.  The root is
# resolved far below one double ulp before its single rounding.
_T_DIGITS = 50


def _atan(x: Decimal) -> Decimal:
    """arctan(x) for x >= 0 at the current decimal precision."""
    # atan(x) = 2 atan(x / (1 + sqrt(1 + x^2))) until the Taylor series is short.
    halvings = 0
    while x > Decimal("0.125"):
        x /= 1 + (1 + x * x).sqrt()
        halvings += 1
    total, power, square, k = x, x, -x * x, 1
    while True:
        power *= square
        k += 2
        new = total + power / k
        if new == total:
            return total * 2**halvings
        total = new


def _t_two_sided(t: Decimal, df: int, pi: Decimal) -> tuple[Decimal, Decimal]:
    """A(t | df) = P(|T| <= t) for t >= 0, and its derivative in t.

    Finite sums of Abramowitz & Stegun 26.7.3 (even df) and 26.7.4 (odd df)
    in theta = arctan(t / sqrt(df)):
      even: A = sin(theta) * S,                   S = sum_k c_k cos^(2k)(theta)
      odd:  A = (2/pi) (theta + sin cos * S),     S empty for df = 1
    with df // 2 terms, c_0 = 1 and c_k = c_(k-1) (2k-1+o) / (2k+o), o = df % 2.
    The density in theta is proportional to cos^(df-1)(theta), which gives the
    derivative from the first left-out term r = c_(df//2) cos^(2 (df//2)):
      even: dA/dt = sqrt(df) r cos(theta);   odd: dA/dt = (2/pi) sqrt(df) r cos^2(theta).
    Every term is positive, so the sums lose nothing to cancellation.
    """
    odd = df % 2
    q = df + t * t
    cos2 = df / q
    sin = t / q.sqrt()
    total, term = Decimal(0), Decimal(1)
    for k in range(df // 2):
        total += term
        term *= cos2 * (2 * k + 1 + odd) / (2 * k + 2 + odd)
    root_df, cos = Decimal(df).sqrt(), cos2.sqrt()
    if not odd:
        return sin * total, root_df * term * cos
    theta = _atan(t / root_df)
    return 2 * (theta + sin * cos * total) / pi, 2 * root_df * term * cos2 / pi


def t_critical(level: float, df: int) -> float:
    """Two-sided Student-t critical value: the p-quantile, p = (1 + level) / 2.

    `level` must be one of the three supported levels and `df` an integer
    >= 1.  p is taken exactly from the double `level` (so 0.95 means the
    binary 0.9499999999999999555...), which makes A(t | df) = level, exactly.
    The root is found in `decimal` at 50 digits by Newton's method from just
    below the pinned z value: A is concave for t > 0 and the t quantile
    exceeds the normal one, so the iterates rise monotonically to the root.
    The root is then rounded once to the nearest double, which is the
    correctly rounded quantile unless it lies within about 1e-40 (relative)
    of a halfway point.  One evaluation of A costs O(df) decimal operations,
    and about six evaluations are needed for df >= 10 (more for tiny df,
    where each is cheap).
    """
    if level not in Z_CRITICAL:
        raise ValueError(f"level must be one of {sorted(Z_CRITICAL)}")
    if not isinstance(df, int) or df < 1:
        raise ValueError("df must be an integer >= 1")
    with localcontext() as ctx:
        ctx.prec = _T_DIGITS
        ctx.rounding = ROUND_HALF_EVEN
        target = Decimal(level)
        pi = 4 * _atan(Decimal(1)) if df % 2 else Decimal(0)
        t = Decimal(Z_CRITICAL[level]) - Decimal("0.001")  # below every z_p used here
        tolerance = Decimal(10) ** (10 - _T_DIGITS)
        for _ in range(200):
            value, slope = _t_two_sided(t, df, pi)
            step = (target - value) / slope
            t += step
            if step <= tolerance * t:
                return float(t)
    raise ArithmeticError(f"t quantile did not converge (level={level}, df={df})")


class SampleStats(NamedTuple("SampleStats", [("count", int), ("mean", float), ("std", float),
                                             ("level", float)])):
    """Summary of a real-valued sample for interval construction."""

    __slots__ = ()

    def __new__(cls, count: int, mean: float, std: float, level: float = 0.95) -> SampleStats:
        if count < 1:
            raise ValueError("count must be >= 1")
        if std < 0:
            raise ValueError("std must be >= 0")
        if level not in Z_CRITICAL:
            raise ValueError(f"level must be one of {sorted(Z_CRITICAL)}")
        return super().__new__(cls, count, mean, std, level)

    @classmethod
    def from_values(cls, values: Sequence[float], level: float = 0.95) -> "SampleStats":
        if len(values) < 2:
            raise ValueError("need at least two values")
        return cls(
            count=len(values),
            mean=statistics.fmean(values),
            std=sample_std(values),
            level=level,
        )


def confidence_interval(stats: SampleStats, mode: str = "normal") -> tuple[float, float]:
    """Symmetric interval mean +/- c * std / sqrt(count).

    mode "normal" uses the pinned z values; mode "t" uses the Student t
    critical value with count-1 degrees of freedom (`t_critical`: exact
    integer-df sums, correctly rounded, O(count) work per evaluation and a
    handful of evaluations).
    """
    if stats.count < 2:
        raise ValueError("interval needs count >= 2")
    if mode == "normal":
        crit = Z_CRITICAL[stats.level]
    elif mode == "t":
        crit = t_critical(stats.level, stats.count - 1)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    half = crit * stats.std / math.sqrt(stats.count)
    return stats.mean - half, stats.mean + half


def exponentiate_interval(lo: float, hi: float) -> tuple[float, float]:
    """Map interval bounds through the monotone transform x -> 2^x."""
    if lo > hi:
        raise ValueError("interval bounds out of order")
    return 2.0**lo, 2.0**hi


def level_intervals(stats: SampleStats, level: float) -> dict[str, tuple[float, float]]:
    """The normal and t intervals for the mean at `level`, and their 2^x images."""
    at_level = SampleStats(stats.count, stats.mean, stats.std, level)
    mu_normal = confidence_interval(at_level, mode="normal")
    mu_t = confidence_interval(at_level, mode="t")
    return {
        "mu_normal": mu_normal,
        "mu_t": mu_t,
        "chi_normal": exponentiate_interval(*mu_normal),
        "chi_t": exponentiate_interval(*mu_t),
    }


def reference_rows_stats() -> dict:
    """Recompute the published 14-sample table's summary from its own rows."""
    one_plus = [row.one_plus_xi for row in REFERENCE_ROWS]
    xis = [row.xi for row in REFERENCE_ROWS]
    return {
        "samples": len(REFERENCE_ROWS),
        "mean_xi": statistics.fmean(xis),
        "mean_one_plus_xi": statistics.fmean(one_plus),
        "std_one_plus_xi": sample_std(one_plus),
        "mean_indicator_std": statistics.fmean(r.indicator_std for r in REFERENCE_ROWS),
    }


def interval_discrepancy_report() -> dict:
    """Compare intervals recomputed from the reference rows with the printed ones.

    The printed tables label their bounds as intervals for mu = E(1+xi) but
    show numbers on the chi = 2^mu scale, and even on that scale the values do
    not follow from the rows by the stated normal-theory recipe (the original
    generator and the exact procedure are unknown).  This report states the
    mismatch; it does not reconcile it.
    """
    one_plus = [row.one_plus_xi for row in REFERENCE_ROWS]
    base = SampleStats.from_values(one_plus)
    per_level = {}
    consistent = True
    for level, published in sorted(PUBLISHED_INTERVALS.items()):
        iv = level_intervals(base, level)
        matches_mu = any(_interval_close(published, iv[k]) for k in ("mu_normal", "mu_t"))
        matches_chi = any(_interval_close(published, iv[k]) for k in ("chi_normal", "chi_t"))
        consistent = consistent and (matches_mu or matches_chi)
        per_level[level] = {
            "published": published,
            "computed_mu_normal": iv["mu_normal"],
            "computed_mu_t": iv["mu_t"],
            "computed_chi_normal": iv["chi_normal"],
            "computed_chi_t": iv["chi_t"],
            "published_matches_mu": matches_mu,
            "published_matches_chi": matches_chi,
        }
    return {
        "mean_one_plus_xi": statistics.fmean(one_plus),
        "levels": per_level,
        "published_tables_identical": True,  # both printed tables list the same bounds
        "reproducible": consistent,
        "note": (
            "printed bounds labelled for mu sit on the 2^mu scale and do not "
            "follow from the rows under the stated normal-theory recipe"
        ),
    }


def _interval_close(a: tuple[float, float], b: tuple[float, float], tol: float = 5e-3) -> bool:
    return abs(a[0] - b[0]) <= tol and abs(a[1] - b[1]) <= tol


def stopping_time_reference_note() -> dict:
    """Arithmetic around the reference slope: sigma = 100 pins x below ~1.174e7.

    Solving 6.14316 * ln(x) = 100 gives the largest start whose total stopping
    time could reach 100 under the reference slope; that threshold is far
    below 2^101.  Pure documentation, no conjecture content.
    """
    threshold = math.exp(100 / APPLEGATE_LAGARIAS_SLOPE)
    return {
        "slope": APPLEGATE_LAGARIAS_SLOPE,
        "sigma": 100,
        "threshold": threshold,
        "below_2_pow_101": threshold < 2**101,
    }
