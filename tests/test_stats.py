import math
import statistics
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collatzlab import pcg64 as pcg64_mod
from collatzlab.dynamics import Termination, trajectory_general
from collatzlab.reference_table import PUBLISHED_INTERVALS, REFERENCE_ROWS, SAMPLE_LENGTH
from collatzlab.stats import (
    Z_CRITICAL,
    SampleStats,
    confidence_interval,
    exponentiate_interval,
    indicator_sample_std,
    interval_discrepancy_report,
    sample_ratios,
    sample_std,
    simulate_ratio,
    t_critical,
)
from collatzlab.sweep import survey_chunk_python, survey_range
from test_scripts import load_script

# the summary of the published rows and the reference-slope note live in their script
report_script = load_script("reference_table_report.py")


class TestRatioSimulation:
    def test_golden_seed(self):
        # frozen from the pinned PCG64 stream
        sample = simulate_ratio(100, 7)
        assert (sample.zeros, sample.ones) == (52, 48)
        assert sample.xi == pytest.approx(52 / 48)

    def test_reproducible_across_calls_and_threads(self, monkeypatch):
        # 10^4 coins run on the owned stream; with the load cost below any
        # work, numpy's Generator draws them
        for load_ns in (pcg64_mod.NUMPY_LOAD_NS, -1):
            monkeypatch.setattr(pcg64_mod, "NUMPY_LOAD_NS", load_ns)
            base = simulate_ratio(10**4, 123)
            # the count of numpy's default_rng(123).integers(0, 2, 10**4, dtype=uint8)
            assert (base.zeros, base.ones) == (5012, 4988)
            assert simulate_ratio(10**4, 123) == base
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(lambda _: simulate_ratio(10**4, 123), range(8)))
            assert all(r == base for r in results)

    def test_batch_is_seed_ordered(self):
        batch = sample_ratios(1000, 5, seed=40)
        assert batch == [simulate_ratio(1000, 40 + j) for j in range(5)]

    def test_zeros_plus_ones(self):
        for seed in range(10):
            s = simulate_ratio(257, seed)
            assert s.zeros + s.ones == 257

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_ratio(0, 1)
        with pytest.raises(ValueError):
            sample_ratios(10, 0, 0)


class TestIndicatorStd:
    def test_matches_statistics_module(self):
        for zeros, ones in [(42, 58), (1, 9), (50, 50), (99, 1)]:
            expanded = [0] * zeros + [1] * ones
            assert indicator_sample_std(zeros, ones) == pytest.approx(
                statistics.stdev(expanded)
            )

    def test_needs_two_draws(self):
        with pytest.raises(ValueError):
            indicator_sample_std(1, 0)


class TestReferenceTable:
    def test_every_row_consistent(self):
        for row in REFERENCE_ROWS:
            assert row.zeros + row.ones == SAMPLE_LENGTH
            assert row.xi == pytest.approx(row.zeros / row.ones, abs=5e-5)
            assert row.one_plus_xi == pytest.approx(1 + row.xi, abs=1e-9)
            assert row.indicator_std == pytest.approx(
                indicator_sample_std(row.zeros, row.ones), abs=1e-4
            )
            assert row.chi == pytest.approx(2 ** (1 + row.xi), abs=5e-4)

    def test_summary_mean(self):
        stats = report_script.reference_rows_stats()
        assert stats["mean_one_plus_xi"] == pytest.approx(2.07885, abs=1e-9)
        assert stats["samples"] == 14

    def test_interval_discrepancy_report(self):
        report = interval_discrepancy_report()
        assert not report["reproducible"]
        for level, block in report["levels"].items():
            assert block["published"] == PUBLISHED_INTERVALS[level]
            assert not block["published_matches_mu"]
            assert not block["published_matches_chi"]
            lo, hi = block["computed_mu_normal"]
            assert lo < 2.0789 < hi


class TestConfidenceInterval:
    def test_textbook_case(self):
        stats = SampleStats(count=100, mean=0.0, std=1.0, level=0.95)
        lo, hi = confidence_interval(stats)
        assert lo == pytest.approx(-0.196, abs=1e-12)
        assert hi == pytest.approx(0.196, abs=1e-12)

    def test_z_multipliers_pinned(self):
        assert Z_CRITICAL == {0.95: 1.960, 0.98: 2.326, 0.99: 2.576}

    def test_degenerate_std(self):
        stats = SampleStats(count=10, mean=3.5, std=0.0, level=0.99)
        assert confidence_interval(stats) == (3.5, 3.5)

    def test_t_mode_wider_and_exact(self):
        stats = SampleStats(count=14, mean=2.0, std=0.3, level=0.95)
        lo_n, hi_n = confidence_interval(stats, mode="normal")
        lo_t, hi_t = confidence_interval(stats, mode="t")
        assert lo_t < lo_n < hi_n < hi_t
        half = 2.160368656462792 * 0.3 / math.sqrt(14)
        assert (lo_t, hi_t) == (2.0 - half, 2.0 + half)

    def test_width_scales_inverse_sqrt(self):
        widths = {}
        for count in (10, 1000, 10**5):
            stats = SampleStats(count=count, mean=0.0, std=2.0, level=0.95)
            lo, hi = confidence_interval(stats)
            widths[count] = hi - lo
        assert widths[10] / widths[1000] == pytest.approx(math.sqrt(100))
        assert widths[1000] / widths[10**5] == pytest.approx(math.sqrt(100))

    def test_unsupported_level(self):
        with pytest.raises(ValueError):
            SampleStats(count=5, mean=0.0, std=1.0, level=0.90)

    def test_from_values(self):
        stats = SampleStats.from_values([1.0, 2.0, 3.0])
        assert stats.mean == 2.0
        assert stats.std == pytest.approx(1.0)


class TestTCritical:
    # Correctly rounded quantiles at p = (1 + level) / 2 with `level` the
    # binary double (0.95 is 0.94999999999999995559...), checked against a
    # 60-digit regularized incomplete beta function.  The decimal levels
    # would give values a few ulps higher at small df.
    PINNED = {
        13: (2.160368656462792, 2.650308837912191, 3.012275838716578),
        1: (12.706204736174694, 31.82051595377393, 63.656741162871526),
        2: (4.302652729749462, 6.964556734283271, 9.92484320091829),
    }

    @pytest.mark.parametrize("df", sorted(PINNED))
    def test_pinned_quantiles(self, df):
        got = tuple(t_critical(level, df) for level in (0.95, 0.98, 0.99))
        assert got == self.PINNED[df]

    @pytest.mark.parametrize("level", [0.95, 0.98, 0.99])
    def test_df2_closed_form(self, level):
        # t^2 = (2p - 1)^2 / (2 p (1 - p)) is rational at df 2; its square root
        # is rounded to the nearest double with integer arithmetic.
        p = (1 + Fraction(level)) / 2
        square = (2 * p - 1) ** 2 / (2 * p * (1 - p))
        shift = 2 * 60
        root = math.isqrt(square.numerator * 4**shift // square.denominator)
        assert t_critical(level, 2) == float(Fraction(root, 2**shift))

    def test_decreases_towards_z(self):
        for level, z in Z_CRITICAL.items():
            crits = [t_critical(level, df) for df in (1, 2, 3, 13, 14, 101, 999)]
            assert crits == sorted(crits, reverse=True)
            assert abs(crits[-1] - z) < 0.01

    def test_interval_uses_t_critical(self):
        stats = SampleStats(count=3, mean=0.0, std=math.sqrt(3), level=0.99)
        assert confidence_interval(stats, mode="t") == (-9.92484320091829, 9.92484320091829)

    def test_validation(self):
        with pytest.raises(ValueError):
            t_critical(0.90, 13)
        with pytest.raises(ValueError):
            t_critical(0.95, 0)
        with pytest.raises(ValueError):
            t_critical(0.95, 2.5)


class TestSampleStd:
    def test_golden_rows(self):
        # one_plus_xi of the 14 rows in tests/goldens/montecarlo_seed7.json
        counts = [(52, 48), (58, 42), (49, 51), (57, 43), (51, 49), (53, 47), (45, 55),
                  (52, 48), (55, 45), (55, 45), (55, 45), (39, 61), (48, 52), (51, 49)]
        values = [1 + zeros / ones for zeros, ones in counts]
        assert sample_std(values) == 0.1996978340067483

    def test_exact_variance_rounded_once(self):
        values = [0.1, 0.2, 0.7, 1e-3, 3.3]
        exact = [Fraction(v) for v in values]
        mean = sum(exact) / len(exact)
        variance = sum((x - mean) ** 2 for x in exact) / (len(exact) - 1)
        assert sample_std(values) == math.sqrt(float(variance))
        assert sample_std(values[::-1]) == sample_std(values)

    def test_simple_and_validation(self):
        assert sample_std([1.0, 2.0, 3.0]) == 1.0
        assert sample_std([5.0, 5.0]) == 0.0
        with pytest.raises(ValueError):
            sample_std([1.0])


class TestExponentiateInterval:
    def test_simple(self):
        assert exponentiate_interval(2.0, 3.0) == (4.0, 8.0)

    def test_point_interval(self):
        assert exponentiate_interval(1.5, 1.5) == (2**1.5, 2**1.5)

    def test_published_row_roundtrip(self):
        lo, hi = 3.8953, 4.9174
        mu_lo, mu_hi = math.log2(lo), math.log2(hi)
        assert (mu_lo, mu_hi) == (pytest.approx(1.962, abs=1e-3), pytest.approx(2.298, abs=1e-3))
        assert exponentiate_interval(mu_lo, mu_hi) == (pytest.approx(lo), pytest.approx(hi))

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            exponentiate_interval(2.0, 1.0)

    @given(st.floats(-20, 20), st.floats(0, 10))
    def test_monotone(self, lo, width):
        out_lo, out_hi = exponentiate_interval(lo, lo + width)
        assert out_lo <= out_hi


def stopping_profile(x, max_steps=10**5):
    """(stopping time, total stopping time, ratio) of x: the first step below x
    and the first at 1 on its shortcut orbit (None if not reached), and the
    total over ln x from the sweep's reference walk."""
    t = trajectory_general(x, max_steps=max_steps)
    stopping = next((j for j, y in enumerate(t.values) if y < x), None)
    total = t.step_count if t.terminated is Termination.REACHED_ONE else None
    survey = survey_chunk_python(x, x + 1, max_steps=max_steps)
    assert survey.max_total_stopping_time == total
    return stopping, total, survey.max_ratio


class TestStoppingProfile:
    def test_two(self):
        assert stopping_profile(2) == (1, 1, pytest.approx(1 / math.log(2)))

    def test_seven(self):
        assert stopping_profile(7)[:2] == (7, 11)

    def test_27(self):
        assert stopping_profile(27)[1:] == (70, pytest.approx(70 / math.log(27)))

    def test_one(self):
        assert stopping_profile(1) == (None, 0, None)

    def test_even_starts_stop_immediately(self):
        for x in range(2, 600, 2):
            assert stopping_profile(x)[0] == 1

    def test_incomplete(self):
        assert stopping_profile(27, max_steps=5)[1:] == (None, None)

    def test_stopping_le_total(self):
        for x in range(2, 400):
            stopping, total, _ = stopping_profile(x)
            assert stopping <= total


class TestRatioSurvey:
    """The largest tst(x)/ln x over [2, n], as survey_range(n + 1) finds it: start 1
    has no ratio."""

    def test_limit_two(self):
        s = survey_range(3)
        assert s.ratio_argmax == 2
        assert s.max_ratio == pytest.approx(1 / math.log(2))

    def test_limit_100_vs_oracle(self):
        best = max((stopping_profile(x)[2], x) for x in range(2, 101))
        s = survey_range(101)
        assert (s.max_ratio, s.ratio_argmax) == (pytest.approx(best[0]), best[1])


class TestReferenceNote:
    def test_threshold_arithmetic(self):
        note = report_script.stopping_time_reference_note()
        assert note["slope"] == report_script.APPLEGATE_LAGARIAS_SLOPE
        assert note["threshold"] == pytest.approx(1.17371e7, rel=1e-4)
        assert note["below_2_pow_101"]
