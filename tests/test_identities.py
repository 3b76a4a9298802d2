import tracemalloc
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dynamics import step_kinds

from collatzlab import identities as ident_mod
from collatzlab.dynamics import (
    LANE_BLOCK,
    StepKind,
    _pack,
    _unpack,
    odd_steps_extended,
    odd_walk,
    trajectory_general,
    trajectory_odd,
)
from collatzlab.identities import (
    SHIFT_M_BOUND,
    SHIFT_UINT64_MAX_K,
    closed_form_check,
    closed_form_failures,
    geometric_tail_identity,
    heuristic_model,
    heuristic_model_prefix,
    heuristic_model_recursive,
    heuristic_tail_value,
    reconstruct_start,
    residue_shift_blocks,
    residue_shift_check,
)

odd_small = st.integers(min_value=0, max_value=500).map(lambda r: 2 * r + 1)


class TestResidueShift:
    def test_example_k2(self):
        res = residue_shift_check(2, 1, 1)
        assert res.holds and res.increase_count == 1
        assert res.lhs == 4  # two steps from 5

    def test_even_residue_k1_is_halving(self):
        # the only even residue mod 2 is 0: one halving step, no increase
        for m in (0, 1, 2, 7, 2**19):
            res = residue_shift_check(1, m, 0)
            assert res.holds and res.increase_count == 0
            assert res.lhs == m

    def test_trivial_m0(self):
        res = residue_shift_check(1, 0, 1)
        assert res.holds and res.increase_count == 1 and res.lhs == 2

    def test_zero_residue_class(self):
        # i = 0 relies on the local T(0) = 0 convention
        res = residue_shift_check(3, 5, 0)
        assert res.holds and res.increase_count == 0
        assert res.lhs == 5

    def test_grid_small(self):
        for k in range(1, 9):
            for i in range(1 << k):
                for m in (0, 1, 2, 3, 17, 1023):
                    assert residue_shift_check(k, m, i).holds

    @given(st.integers(1, 10), st.integers(0, 2**20), st.data())
    @settings(max_examples=200)
    def test_random(self, k, m, data):
        i = data.draw(st.integers(0, (1 << k) - 1))
        assert residue_shift_check(k, m, i).holds

    def test_increase_count_matches_classify(self):
        # p from the shift check is the increase tally of k shortcut steps of
        # the residue; built here from step_general, which does not stop at 1
        from collatzlab.dynamics import step_general

        for k in range(1, 9):
            for i in range(1, 1 << k):
                res = residue_shift_check(k, 3, i)
                values, kinds = [i], []
                for _ in range(k):
                    nxt, kind = step_general(values[-1])
                    values.append(nxt)
                    kinds.append(kind)
                assert step_kinds(values) == kinds
                assert res.increase_count == kinds.count(StepKind.INCREASE)

    def test_validation(self):
        with pytest.raises(ValueError):
            residue_shift_check(0, 1, 0)
        with pytest.raises(ValueError):
            residue_shift_check(2, 1, 4)


def shift_grids(max_k, ms):
    """The blocks of residue_shift_blocks for k = 1..max_k, checked to tile each
    level's grid exactly once, unpacked into each level's lists of left and right
    sides in g order: {k: (lhs, rhs)}.  The blocks of one table block (of
    LANE_BLOCK residues) come together and in g order; the table blocks may come
    depth first."""
    pieces, table_blocks, last = {}, set(), None
    for k, g0, count, left, right in residue_shift_blocks(max_k, ms):
        span = min(1 << k, LANE_BLOCK) * len(ms)  # checks a table block
        key = (k, g0 // span)
        if key == last:
            assert g0 == end  # each block starts where the one before ended
        else:
            assert key not in table_blocks and g0 % span == 0
            table_blocks.add(key)
        assert (g0 + count - 1) // span == key[1]
        last, end = key, g0 + count
        # no lane carried past the block's last
        assert max(left.bit_length(), right.bit_length()) <= 64 * count
        pieces[k, g0] = _unpack(left, count), _unpack(right, count)
    grids = {}
    for (k, g0), (left, right) in sorted(pieces.items()):
        lhs, rhs = grids.setdefault(k, ([], []))
        assert g0 == len(lhs)
        lhs += left
        rhs += right
    assert list(grids) == list(range(1, max_k + 1))
    for k, (lhs, rhs) in grids.items():
        assert len(lhs) == len(rhs) == len(ms) << k
    return grids


MS = [5, 0, 1, 3, 17, 1023, SHIFT_M_BOUND - 1, 5, 77]


class TestResidueShiftBlocks:
    """The blocked packed checks against residue_shift_check, case by case."""

    # at 9 values of m: whole rows, a level in one block (8192) or in
    # several with a short last one (50); pieces of rows (7); one row a
    # block (9); one check a block (1)
    @pytest.mark.parametrize("block", [8192, 7, 9, 1, 50])
    def test_every_case_small_k(self, monkeypatch, block):
        monkeypatch.setattr(ident_mod, "_SHIFT_BLOCK", block)
        grids = shift_grids(8 if block > 1 else 5, MS)
        for k, (lhs, rhs) in grids.items():
            for i in range(1 << k):
                for pos, m in enumerate(MS):
                    g = i * len(MS) + pos
                    res = residue_shift_check(k, m, i)
                    assert (lhs[g], rhs[g]) == (res.lhs, res.rhs)

    @pytest.mark.parametrize("k", [12, 13])
    def test_table_block_border(self, k):
        # level 12 is one table block of 2^12 residues, level 13 two: the
        # blocks of checks end at each table block's end
        ms = [SHIFT_M_BOUND - 1, 0, 6]
        lhs, rhs = shift_grids(k, ms)[k]
        for i in range(1 << k):
            for pos, m in enumerate(ms):
                res = residue_shift_check(k, m, i)
                assert (lhs[i * len(ms) + pos], rhs[i * len(ms) + pos]) == (res.lhs, res.rhs)

    def test_depth_first_levels(self):
        # past one table block the levels interleave: (13, 0), (14, 0), (14, 2), (13, 1), ...
        order = []
        for k, g0, _, _, _ in residue_shift_blocks(14, [3, 5]):
            key = (k, g0 // (min(1 << k, LANE_BLOCK) * 2))
            if key not in order:
                order.append(key)
        assert order[:12] == [(k, 0) for k in range(1, 13)]
        assert order[12:] == [(13, 0), (14, 0), (14, 2), (13, 1), (14, 1), (14, 3)]
        grids = shift_grids(14, [3, 5])
        for k in (13, 14):
            lhs, rhs = grids[k]
            assert lhs == rhs
            for i in range(0, 1 << k, 997):
                res = residue_shift_check(k, 5, i)
                assert (lhs[2 * i + 1], rhs[2 * i + 1]) == (res.lhs, res.rhs)

    def test_table_memory(self):
        # the walk holds one table block a level of its path: draining k = 18
        # at one value of m traces 1.40 MB, where the breadth-first table of
        # a whole level took 5.4 MB
        tracemalloc.start()
        try:
            for _ in residue_shift_blocks(18, array("Q", [1])):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_numpy_draws(self):
        # the drawn m come as numpy's int64 array above the draw crossover
        assert shift_grids(6, np.array(MS)) == shift_grids(6, MS)

    @given(st.integers(9, 14), st.lists(st.integers(0, SHIFT_M_BOUND - 1), min_size=1, max_size=5),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_sampled_cases(self, k, ms, data):
        lhs, rhs = shift_grids(k, ms)[k]
        for _ in range(20):
            i = data.draw(st.integers(0, (1 << k) - 1))
            pos = data.draw(st.integers(0, len(ms) - 1))
            res = residue_shift_check(k, ms[pos], i)
            g = i * len(ms) + pos
            assert (lhs[g], rhs[g]) == (res.lhs, res.rhs)

    def test_uint64_bound(self):
        # every value formed stays below 3^k (m + 1) <= 3^k * SHIFT_M_BOUND
        assert 3**SHIFT_UINT64_MAX_K * SHIFT_M_BOUND <= 1 << 64
        assert 3 ** (SHIFT_UINT64_MAX_K + 1) * SHIFT_M_BOUND > 1 << 64
        # the residue 2^k - 1 increases at every step, the largest growth;
        # the walk of 0 stays at 0 between the lanes that grow most
        k, m = SHIFT_UINT64_MAX_K, SHIFT_M_BOUND - 1
        starts = [(m << k) + (1 << k) - 1, 0, (1 << k) - 1, (m << k) + (1 << k) - 3, 0]
        walked = ident_mod._walk_packed(_pack(array("Q", starts)), len(starts), k)
        assert walked.bit_length() <= 64 * (len(starts) - 1)  # the top lane walked 0
        walked = _unpack(walked, len(starts)).tolist()
        assert walked == [ident_mod._walk_shortcut_zero(x, k)[0] for x in starts]
        assert walked[0] == 3**k * (m + 1) - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            next(residue_shift_blocks(SHIFT_UINT64_MAX_K + 1, [1]))
        with pytest.raises(ValueError):
            next(residue_shift_blocks(0, [1]))
        with pytest.raises(ValueError):
            next(residue_shift_blocks(3, [SHIFT_M_BOUND]))
        assert list(residue_shift_blocks(3, [])) == []


class TestClosedForm:
    def test_example_n2(self):
        res = closed_form_check(7, 2)
        assert res == (68, 68, True)

    def test_example_n1(self):
        res = closed_form_check(7, 1)
        assert res.lhs == 22 and res.rhs == 22

    def test_fixed_point(self):
        res = closed_form_check(1, 1)
        assert res.lhs == 4 and res.rhs == 4

    def test_every_step_small_range(self):
        for x0 in range(1, 502, 2):
            _, pe = trajectory_odd(x0)
            for n in range(1, pe.step_count + 1):
                assert closed_form_check(x0, n, exponents=pe.exponents).holds

    def test_short_exponent_list_rejected(self):
        with pytest.raises(ValueError):
            closed_form_check(7, 3, exponents=[1, 1])

    @given(odd_small, st.integers(0, 40))
    @settings(max_examples=150)
    def test_extended_steps(self, x0, n):
        assert closed_form_check(x0, n).holds


def failing(checks):
    """(n, lhs, rhs) of each per-n check, n = 1, 2, ..., that does not hold."""
    return [(n, c.lhs, c.rhs) for n, c in enumerate(checks, start=1) if not c.holds]


class TestClosedFormBatch:
    """The one-walk check's failures against the per-n reference's, n by n."""

    def test_matches_oracle_every_n(self):
        for x0 in range(1, 1002, 2):
            traj, pe = trajectory_odd(x0)
            got = closed_form_failures(x0, traj.values, pe.exponents)
            assert got == [] == failing(
                closed_form_check(x0, n, exponents=pe.exponents)
                for n in range(1, pe.step_count + 1)
            )

    @given(odd_small, st.integers(0, 40))
    @settings(max_examples=100)
    def test_extended_steps(self, x0, n):
        values, exps = odd_steps_extended(x0, n)
        got = closed_form_failures(x0, values, exps)
        assert got == [] == failing(closed_form_check(x0, j) for j in range(1, n + 1))

    @given(odd_small, st.lists(st.integers(1, 6), min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_wrong_exponents_fail_like_oracle(self, x0, exps):
        values, _ = odd_steps_extended(x0, len(exps))
        got = closed_form_failures(x0, values, exps)
        assert got == failing(
            closed_form_check(x0, n, exponents=exps) for n in range(1, len(exps) + 1)
        )

    def test_first_failure_pinned(self):
        # 7 -> 11 -> 17 -> 13 has exponents 1, 1, 2; claim 1, 2, 2
        values, _ = odd_steps_extended(7, 3)
        got = closed_form_failures(7, values, [1, 2, 2])
        assert [n for n, _, _ in got] == [2, 3]
        res = closed_form_check(7, 2, exponents=[1, 2, 2])
        assert got[0] == (2, res.lhs, res.rhs) and not res.holds

    def test_bad_walk_rejected(self):
        with pytest.raises(ValueError):
            closed_form_failures(7, [7, 11], [1, 1])
        with pytest.raises(ValueError):
            closed_form_failures(9, [7, 11, 17], [1, 1])


class TestReconstruct:
    def test_single_step(self):
        assert reconstruct_start((0, 4)) == 5

    def test_seven(self):
        assert reconstruct_start((0, 1, 2, 4, 7, 11)) == 7

    def test_fixed_point(self):
        assert reconstruct_start((0, 2)) == 1

    def test_round_trip_small_range(self):
        for x0 in range(3, 2002, 2):
            traj, pe = trajectory_odd(x0)
            assert reconstruct_start(pe.prefix_sums) == x0

    def test_extended_round_trip(self):
        # extra fixed-point steps leave the reconstruction unchanged
        values, exps = odd_steps_extended(7, 8)
        prefix = [0]
        for k in exps:
            prefix.append(prefix[-1] + k)
        assert reconstruct_start(prefix) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            reconstruct_start((0,))
        with pytest.raises(ValueError):
            reconstruct_start((1, 3))
        with pytest.raises(ValueError):
            reconstruct_start((0, 3, 3))

    def test_non_trajectory_input_is_rational(self):
        value = reconstruct_start((0, 1, 5))
        assert value == Fraction(32 - (3 + 2), 9)

    @given(st.lists(st.integers(1, 200), min_size=1, max_size=120))
    @settings(max_examples=200)
    def test_horner_matches_sum_of_powers(self, gaps):
        # any strictly increasing prefix sums from 0, against the formula's
        # one power per term
        v = [0]
        for g in gaps:
            v.append(v[-1] + g)
        m = len(v) - 1
        formula = Fraction(
            (1 << v[m]) - sum(3 ** (m - k - 1) * (1 << v[k]) for k in range(m)), 3**m
        )
        assert reconstruct_start(v) == formula
        assert reconstruct_start(tuple(v)) == formula

    @pytest.mark.parametrize(
        "prefix, message",
        [((), "at least v_0 and v_1"), ((0,), "at least v_0 and v_1"),
         ((2, 3), "start at 0"), ((0, 4, 4, 9), "strictly increasing"),
         ((0, 5, 3), "strictly increasing")],
    )
    def test_validation_messages(self, prefix, message):
        with pytest.raises(ValueError, match=message):
            reconstruct_start(prefix)


class TestGeometricSum:
    def test_trivial(self):
        res = geometric_tail_identity(0, 0)
        assert res.lhs == 1 and res.holds

    def test_n2_m3_value(self):
        res = geometric_tail_identity(2, 3)
        assert res.lhs == Fraction(2800, 243)
        assert res.holds

    def test_n5_m7(self):
        assert geometric_tail_identity(5, 7).holds

    @given(st.integers(0, 80), st.integers(0, 80))
    @settings(max_examples=100)
    def test_random(self, n, m):
        assert geometric_tail_identity(n, m).holds

    def test_against_fraction_sums(self):
        # the integer sides over 3^(n+m) against Fraction arithmetic, term by
        # term and in closed form
        ratio = Fraction(4, 3)
        for n in range(41):
            for m in range(41):
                res = geometric_tail_identity(n, m)
                lhs = sum((ratio**r for r in range(n, n + m + 1)), Fraction(0))
                rhs = 3 * ratio**n * (ratio ** (m + 1) - 1)
                assert (res.lhs, res.rhs, res.holds) == (lhs, rhs, True)
                assert type(res.lhs) is type(res.rhs) is Fraction

    def test_validation(self):
        for n, m in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="must be >= 0"):
                geometric_tail_identity(n, m)


class TestHeuristicModel:
    def test_n1_m0_closed_form(self):
        for x0 in (1, 7, 9, 101):
            assert heuristic_model(x0, 1, 0) == Fraction(3 * x0, 4) + Fraction(1, 4)

    def test_two_forms_agree_exactly(self):
        for x0 in (1, 7, 27, 85, 99):
            for n in range(1, 12):
                for m in range(0, 12):
                    assert heuristic_model(x0, n, m) == heuristic_model_recursive(x0, n, m)

    @given(odd_small, st.integers(1, 15), st.integers(0, 15))
    @settings(max_examples=150)
    def test_two_forms_agree_random(self, x0, n, m):
        assert heuristic_model(x0, n, m) == heuristic_model_recursive(x0, n, m)

    def test_deviation_identity(self):
        # |model - 1| == (3/4)^{m+1} |prefix_model(n-1) - 1| exactly
        for x0 in (7, 85, 11):
            for n in (1, 2, 5):
                for m in (0, 10, 30):
                    lhs = abs(heuristic_model(x0, n, m) - 1)
                    rhs = Fraction(3, 4) ** (m + 1) * abs(heuristic_model_prefix(x0, n - 1) - 1)
                    assert lhs == rhs

    def test_prefix_model_vs_trajectory(self):
        # prefix model equals the true odd value scaled by 2^{v_n - 2n}
        for x0 in (7, 27, 85):
            values, exps = odd_steps_extended(x0, 12)
            prefix = [0]
            for k in exps:
                prefix.append(prefix[-1] + k)
            for n in range(13):
                expected = Fraction(values[n] * 2 ** prefix[n], 4**n)
                assert heuristic_model_prefix(x0, n) == expected

    def test_tail_value_converges(self):
        for m in range(30, 61, 10):
            assert abs(heuristic_tail_value(m) - 1) < Fraction(1, 1000)
        # and it is exactly the advertised closed form
        assert heuristic_tail_value(5) == 1 - Fraction(3, 4) ** 6

    def test_full_model_at_m30_can_exceed_tolerance(self):
        # The tail value hits 1e-3 at m=30 but the full model need not: the
        # frozen prefix factor can be large (64 for x0=85, whose first odd
        # step divides by 2^8).  This pins why the limit statement is about
        # the tail term, not a uniform bound on the full model at m=30.
        assert heuristic_model_prefix(85, 1) == 64
        deviation = abs(heuristic_model(85, 2, 30) - 1)
        assert deviation > Fraction(1, 1000)
        deviation_small_n = abs(heuristic_model(11, 1, 30) - 1)
        assert deviation_small_n > Fraction(1, 1000)
        # for fixed (x0, n) the deviation still vanishes geometrically in m
        assert abs(heuristic_model(85, 2, 60) - 1) < Fraction(1, 1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            heuristic_model(7, 0, 5)
        with pytest.raises(ValueError):
            heuristic_model(7, 1, -1)
        with pytest.raises(ValueError):
            heuristic_tail_value(-1)


class TestPrefixOffsetReport:
    """v_(r-1) == (r - 1) + D_r, D_r the shortcut decreases before the r-th odd
    value: the odd walk against the shortcut trajectory, one more than the
    quoted r + D_r - 2 at every r."""

    @staticmethod
    def offsets(x0, steps):
        _, exponents = odd_walk(x0, steps)
        t = trajectory_general(x0)
        odd_at = [j for j, y in enumerate(t.values) if y % 2]
        for r in range(1, len(exponents) + 2):
            d_r = step_kinds(t.values)[: odd_at[r - 1]].count(StepKind.DECREASE)
            yield sum(exponents[: r - 1]) - (r - 1 + d_r)

    def test_seven(self):
        assert list(self.offsets(7, 5)) == [0] * 6

    def test_range(self):
        for x0 in range(1, 200, 2):
            assert set(self.offsets(x0, 12)) == {0}, x0
