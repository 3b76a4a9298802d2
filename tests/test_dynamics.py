import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzlab.dynamics import (
    AnbParams,
    ParityExponents,
    StepKind,
    Termination,
    Trajectory,
    classify_counts,
    exponent_bookkeeping_report,
    odd_steps_extended,
    orbit_steps,
    step_anb,
    step_general,
    step_odd,
    trajectory_general,
    trajectory_odd,
    two_adic_valuation,
)

odd_ints = st.integers(min_value=0, max_value=10**9).map(lambda r: 2 * r + 1)


class TestStepGeneral:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (1, (2, StepKind.INCREASE)),
            (3, (5, StepKind.INCREASE)),
            (4, (2, StepKind.DECREASE)),
            (2, (1, StepKind.DECREASE)),
        ],
    )
    def test_small_values(self, x, expected):
        assert step_general(x) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            step_general(0)

    @given(st.integers(min_value=1, max_value=10**30))
    def test_parity_forces_direction(self, x):
        y, kind = step_general(x)
        if x % 2:
            assert kind is StepKind.INCREASE and y > x
        else:
            assert kind is StepKind.DECREASE and y < x

    @given(st.integers(min_value=1, max_value=10**30))
    def test_no_fixed_points(self, x):
        assert step_general(x)[0] != x


class TestStepOdd:
    @pytest.mark.parametrize("x,expected", [(5, (1, 4)), (17, (13, 2)), (1, (1, 2))])
    def test_examples(self, x, expected):
        assert step_odd(x) == expected

    @pytest.mark.parametrize("x", [0, 2, 6])
    def test_rejects_non_odd(self, x):
        with pytest.raises(ValueError):
            step_odd(x)

    @given(odd_ints)
    def test_exact_division(self, x):
        y, k = step_odd(x)
        assert k >= 1
        assert y % 2 == 1
        assert 3 * x + 1 == (1 << k) * y


class TestStepAnb:
    @pytest.mark.parametrize(
        "x,a,b,expected",
        [(7, 5, 1, (9, 2)), (7, 7, 1, (25, 1)), (1, 7, 1, (1, 3))],
    )
    def test_examples(self, x, a, b, expected):
        assert step_anb(x, AnbParams(a, b)) == expected

    @pytest.mark.parametrize("a,b", [(2, 1), (5, 2), (1, 1), (5, -1), (3, 0)])
    def test_bad_params(self, a, b):
        with pytest.raises(ValueError):
            AnbParams(a, b)

    @given(odd_ints, st.integers(1, 20), st.integers(0, 20))
    def test_exact_division(self, x, i, j):
        params = AnbParams(2 * i + 1 if i >= 1 else 3, 2 * j + 1)
        y, k = step_anb(x, params)
        assert params.a * x + params.b == (1 << k) * y
        assert y % 2 == 1


class TestTrajectoryGeneral:
    def test_twelve(self):
        t = trajectory_general(12, max_steps=100)
        assert t.values == (12, 6, 3, 5, 8, 4, 2, 1)
        assert t.terminated is Termination.REACHED_ONE

    def test_start_at_one(self):
        t = trajectory_general(1, max_steps=0)
        assert t.values == (1,)
        assert t.terminated is Termination.REACHED_ONE

    def test_step_limit(self):
        t = trajectory_general(7, max_steps=3)
        assert t.values == (7, 11, 17, 26)
        assert t.terminated is Termination.STEP_LIMIT

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=50)
    def test_invariants(self, x0):
        t = trajectory_general(x0, max_steps=500)
        assert t.values[0] == x0
        assert len(t.steps) == len(t.values) - 1
        for a, b, kind in zip(t.values, t.values[1:], t.steps):
            nxt, k = step_general(a)
            assert nxt == b and k is kind
        inc, dec = classify_counts(t)
        assert inc + dec == t.step_count


class TestTrajectoryOdd:
    def test_seven(self):
        t, pe = trajectory_odd(7)
        assert t.values == (7, 11, 17, 13, 5, 1)
        assert pe.exponents == (1, 1, 2, 3, 4)
        assert pe.prefix_sums == (0, 1, 2, 4, 7, 11)

    def test_five(self):
        t, pe = trajectory_odd(5)
        assert t.values == (5, 1)
        assert pe.exponents == (4,)

    def test_one(self):
        t, pe = trajectory_odd(1, max_steps=0)
        assert t.values == (1,)
        assert t.terminated is Termination.REACHED_ONE
        assert pe.exponents == ()

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            trajectory_odd(6)

    def test_mean_exponent(self):
        _, pe = trajectory_odd(7)
        assert pe.mean_k * pe.step_count == pe.total  # v_n == n * mean, exact

    def test_mean_of_empty_rejected(self):
        _, pe = trajectory_odd(1)
        with pytest.raises(ValueError):
            pe.mean_k


class TestOrbitSteps:
    """The step records that drive the decimal renderer of `trajectory`."""

    @settings(max_examples=50)
    @given(st.integers(min_value=1, max_value=10**40), st.booleans())
    def test_records_reproduce_each_step(self, x0, odd):
        x0 |= odd
        x = x0
        for y, mul, add, k in orbit_steps(x0, max_steps=200, odd=odd):
            assert y << k == mul * x + add
            if odd:
                assert (mul, add) == (3, 1) and y % 2 == 1
            else:
                assert (mul, add, k) == ((3, 1, 1) if x % 2 else (1, 0, 1))
            x = y

    def test_checks_before_the_first_step(self):
        # errors surface at the call, before anything is yielded
        with pytest.raises(ValueError):
            orbit_steps(0)
        with pytest.raises(ValueError):
            orbit_steps(6, odd=True)
        with pytest.raises(ValueError):
            orbit_steps(7, max_steps=-1)


class TestShortcutConsistency:
    def test_exhaustive_to_1e5(self):
        # one odd step with exponent k is one increase then k-1 decreases
        for x in range(1, 10**5, 2):
            y, k = step_odd(x)
            v, kind = step_general(x)
            assert kind is StepKind.INCREASE
            for _ in range(k - 1):
                v, kind = step_general(v)
                assert kind is StepKind.DECREASE
            assert v == y

    def test_exponent_bookkeeping_exhaustive(self):
        # sum of exponents equals odd steps plus shortcut decreases
        for x0 in range(1, 2002, 2):
            report = exponent_bookkeeping_report(x0)
            assert report["identity_holds"]
            assert report["offset_vs_minus_one_variant"] == 1

    def test_report_example(self):
        report = exponent_bookkeeping_report(7)
        assert report["sum_exponents"] == 11
        assert report["odd_steps"] == 5
        assert report["general_decreases"] == 6


class TestClassifyCounts:
    def test_examples(self):
        assert classify_counts(trajectory_general(7, max_steps=3)) == (3, 0)
        assert classify_counts(trajectory_general(4)) == (0, 2)
        assert classify_counts(trajectory_general(12)) == (2, 5)


class TestOddStepsExtended:
    def test_continues_through_one(self):
        values, exps = odd_steps_extended(5, 4)
        assert values == [5, 1, 1, 1, 1]
        assert exps == [4, 2, 2, 2]

    def test_matches_trajectory_prefix(self):
        values, exps = odd_steps_extended(27, 10)
        t, pe = trajectory_odd(27)
        assert tuple(values) == t.values[:11]
        assert tuple(exps) == pe.exponents[:10]


class TestTypes:
    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory(start=3, values=(5, 8), steps=(StepKind.INCREASE,),
                       terminated=Termination.REACHED_ONE)
        with pytest.raises(ValueError):
            Trajectory(start=3, values=(3, 5), steps=(), terminated=Termination.REACHED_ONE)

    def test_parity_exponents_validation(self):
        with pytest.raises(ValueError):
            ParityExponents(exponents=(0,), prefix_sums=(0, 0))
        with pytest.raises(ValueError):
            ParityExponents(exponents=(2,), prefix_sums=(0, 3))

    def test_two_adic_valuation(self):
        assert two_adic_valuation(48) == 4
        assert two_adic_valuation(1) == 0
        with pytest.raises(ValueError):
            two_adic_valuation(0)
