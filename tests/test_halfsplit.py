import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzlab import halfsplit
from collatzlab.dynamics import (
    LANE_BLOCK, StepKind, _lane_ones, _pack_lanes, _unpack_lanes, step_general,
)
from collatzlab.halfsplit import (
    CLASSES_STEP_LIMIT,
    CLASSES_UINT64_MAX_STEP,
    DIRECT_ELEMENT_STEP_LIMIT,
    DIRECT_STEP_LIMIT,
    M_LIMIT,
    ResourceLimitError,
    StepTally,
    halfsplit_by_classes,
    halfsplit_verify,
    shift_blocks,
    step_kind_at,
    tree_width,
)
from collatzlab.identities import _walk_shortcut_zero
from collatzlab.sweep import survey_range
from test_scripts import load_script

# the exact half split of a report, a check only scripts/halfsplit_scan.py runs
exact_split = load_script("halfsplit_scan.py").exact_split


class TestPaperRangeTables:
    def test_gamma2_step1_elements(self):
        # increases {1, 3}, decreases {2, 4}
        kinds = {x: step_kind_at(x, 1) for x in range(1, 5)}
        assert {x for x, k in kinds.items() if k is StepKind.INCREASE} == {1, 3}
        assert {x for x, k in kinds.items() if k is StepKind.DECREASE} == {2, 4}
        report = halfsplit_verify(2)
        assert report.tallies[0].increases == 2
        assert report.tallies[0].decreases == 2

    def test_gamma3_value_tables(self):
        # first and second step images of 1..8
        def image(x, steps):
            for _ in range(steps):
                x = x // 2 if x % 2 == 0 else (3 * x + 1) // 2
            return x

        assert [image(x, 1) for x in range(1, 9)] == [2, 1, 5, 2, 8, 3, 11, 4]
        assert [image(x, 2) for x in range(1, 9)] == [1, 2, 8, 1, 4, 5, 17, 2]

    def test_gamma3_step_splits(self):
        report = halfsplit_verify(3, steps=3)
        by_step = {t.step: t for t in report.tallies}
        assert (by_step[1].increases, by_step[1].decreases) == (4, 4)
        assert (by_step[2].increases, by_step[2].decreases) == (4, 4)
        # step 1: odd starts increase
        inc1 = {x for x in range(1, 9) if step_kind_at(x, 1) is StepKind.INCREASE}
        assert inc1 == {1, 3, 5, 7}
        # step 2: elements whose first image is odd
        inc2 = {x for x in range(1, 9) if step_kind_at(x, 2) is StepKind.INCREASE}
        assert inc2 == {2, 3, 6, 7}

    def test_gamma3_step3_outside_theorem(self):
        report = halfsplit_verify(3, steps=3)
        tail = report.tallies[-1]
        assert tail.step == 3
        assert not tail.within_theorem
        # step M splits evenly for every M; the theorem's guarantee stops at M-1
        assert (tail.increases, tail.decreases) == (4, 4)

    def test_gamma3_step4_split_actually_breaks(self):
        report = halfsplit_verify(3, steps=4)
        tail = report.tallies[-1]
        assert (tail.step, tail.within_theorem) == (4, False)
        assert (tail.increases, tail.decreases) == (2, 6)


class TestExactSplit:
    @pytest.mark.parametrize("M", range(2, 13))
    def test_full_range_exact(self, M):
        report = halfsplit_verify(M)
        assert report.covers_full_range
        half = 1 << (M - 1)
        for tally in report.tallies:
            assert tally.within_theorem
            assert (tally.increases, tally.decreases) == (half, half)
        assert exact_split(report)

    def test_full_range_exact_up_to_M18(self):
        # slower tail of the module invariant (M = 17, 18 direct)
        for M in (17, 18):
            report = halfsplit_verify(M)
            half = 1 << (M - 1)
            assert all(
                (t.increases, t.decreases) == (half, half) for t in report.tallies
            )

    def test_classes_mode_matches_direct(self):
        for M in range(2, 13):
            direct = halfsplit_verify(M)
            classes = halfsplit_by_classes(M)
            assert [
                (t.step, t.increases, t.decreases) for t in direct.tallies
            ] == [(t.step, t.increases, t.decreases) for t in classes.tallies]

    def test_classes_mode_via_verify(self):
        report = halfsplit_verify(14, method="classes")
        assert exact_split(report)

    def test_resource_limits(self):
        with pytest.raises(ResourceLimitError):
            halfsplit_verify(30)
        with pytest.raises(ResourceLimitError):
            halfsplit_by_classes(40)
        with pytest.raises(ValueError, match="only for steps <= M;"):
            halfsplit_by_classes(6, steps=7)  # beyond M needs direct mode

    def test_direct_budgets(self, monkeypatch):
        # the default M = 21 walks 2^21 elements x 20 steps within the budget
        assert (1 << 21) * 20 <= DIRECT_ELEMENT_STEP_LIMIT
        assert halfsplit_verify(1, steps=DIRECT_STEP_LIMIT).tallies[-1].step == DIRECT_STEP_LIMIT
        with pytest.raises(ResourceLimitError, match="tallied steps"):
            halfsplit_verify(1, steps=DIRECT_STEP_LIMIT + 1)
        # 64 elements x 5 steps is admitted at exactly the limit
        monkeypatch.setattr(halfsplit, "DIRECT_ELEMENT_STEP_LIMIT", 320)
        assert exact_split(halfsplit_verify(6))
        with pytest.raises(ResourceLimitError, match="element-steps"):
            halfsplit_verify(6, steps=6)
        with pytest.raises(ResourceLimitError, match="element-steps"):
            halfsplit_verify(7, subrange=(1, 65), steps=5)
        monkeypatch.setattr(halfsplit, "DIRECT_ELEMENT_STEP_LIMIT", 319)
        with pytest.raises(ResourceLimitError, match="element-steps"):
            halfsplit_verify(6)

    def test_M_budget(self):
        # the budget is decided before any count near 2^M is formed or printed
        with pytest.raises(ResourceLimitError, match=f"^M = {M_LIMIT + 1} is over the budget"):
            halfsplit_verify(M_LIMIT + 1, subrange=(1, 4), steps=3)
        with pytest.raises(ResourceLimitError, match="^M = 3000000 is over"):
            halfsplit_verify(3_000_000)
        report = halfsplit_verify(M_LIMIT, subrange=(1, 4), steps=3)
        assert report.element_count == 4 and not report.covers_full_range

    def test_bad_args(self):
        with pytest.raises(ValueError):
            halfsplit_verify(0)
        with pytest.raises(ValueError):
            halfsplit_by_classes(6, steps=-1)
        with pytest.raises(ValueError):
            halfsplit_verify(4, subrange=(0, 5))
        with pytest.raises(ValueError):
            halfsplit_verify(4, subrange=(3, 20))
        with pytest.raises(ValueError):
            halfsplit_verify(4, method="magic")
        with pytest.raises(ValueError):
            halfsplit_verify(4, subrange=(1, 8), method="classes")


class TestRefinement:
    """The shift-law refinement against the direct walk of every element."""

    @given(st.integers(2, 16).flatmap(lambda M: st.tuples(st.just(M), st.integers(0, M - 1))))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct(self, case):
        M, steps = case
        direct = halfsplit._halfsplit_direct(M, 1, 1 << M, steps)
        assert halfsplit_by_classes(M, steps).tallies == direct.tallies

    def test_every_step_small_M(self):
        for M in range(2, 11):
            for steps in range(M):
                direct = halfsplit._halfsplit_direct(M, 1, 1 << M, steps)
                assert halfsplit_by_classes(M, steps).tallies == direct.tallies

    @pytest.mark.parametrize("M", range(1, 15))
    def test_step_M_matches_direct(self, M):
        direct = halfsplit._halfsplit_direct(M, 1, 1 << M, M)
        classes = halfsplit_by_classes(M, M)
        assert classes.tallies == direct.tallies
        last = classes.tallies[-1]
        assert (last.step, last.within_theorem) == (M, False)
        assert last.increases == last.decreases == 1 << (M - 1)
        assert exact_split(classes)

    def test_large_M_exact(self):
        report = halfsplit_by_classes(23)
        assert len(report.tallies) == 22
        assert exact_split(report)

    def test_work_budget(self, monkeypatch):
        # the tally to step s steps levels 1..s-1, 2^s - 2 lanes: a budget of
        # 2^11 - 2 lane-steps takes it through step 11, M included; step 12 does not fit
        assert CLASSES_STEP_LIMIT == 1 << 27
        monkeypatch.setattr(halfsplit, "CLASSES_STEP_LIMIT", (1 << 11) - 2)
        assert exact_split(halfsplit_by_classes(12))
        assert exact_split(halfsplit_by_classes(11, steps=11))
        message = ("class tally to step 12 takes 2^12 - 2 lane-steps, over the work budget of "
                   "2046; it admits steps up to 11")
        for M, steps in [(13, None), (12, 12), (40, 12)]:
            with pytest.raises(ResourceLimitError) as exc:
                halfsplit_by_classes(M, steps)
            assert str(exc.value) == message
        with pytest.raises(ResourceLimitError, match="work budget"):
            halfsplit_verify(13, method="classes")
        monkeypatch.setattr(halfsplit, "CLASSES_STEP_LIMIT", (1 << 11) - 3)
        with pytest.raises(ResourceLimitError, match="it admits steps up to 10$"):
            halfsplit_by_classes(12)
        # no lane is stepped for steps 0 and 1, whatever the budget
        monkeypatch.setattr(halfsplit, "CLASSES_STEP_LIMIT", 0)
        assert exact_split(halfsplit_by_classes(5, 1))
        assert halfsplit_by_classes(5, 0).tallies == ()

    def test_uint64_guard_whatever_the_budget(self, monkeypatch):
        for budget in (0, 1 << 27, 1 << 100):
            monkeypatch.setattr(halfsplit, "CLASSES_STEP_LIMIT", budget)
            with pytest.raises(ResourceLimitError, match="step 41 would overflow uint64"):
                halfsplit_by_classes(CLASSES_UINT64_MAX_STEP + 2)
            with pytest.raises(ResourceLimitError, match="step 41 would overflow uint64"):
                halfsplit_by_classes(CLASSES_UINT64_MAX_STEP + 1, CLASSES_UINT64_MAX_STEP + 1)
            with pytest.raises(ResourceLimitError, match="step 41 would overflow uint64"):
                shift_blocks(CLASSES_UINT64_MAX_STEP)
            # the levels that step 40 reads pass the uint64 guard, and the walk
            # does no work until asked; only the work budget can stop their tally
            shift_blocks(CLASSES_UINT64_MAX_STEP - 1)
            if budget < (1 << CLASSES_UINT64_MAX_STEP) - 2:
                with pytest.raises(ResourceLimitError, match="work budget"):
                    halfsplit_by_classes(CLASSES_UINT64_MAX_STEP + 1)

    def test_tally_memory(self):
        # the walk holds one block a level of its path: 0.62 MB traced at M = 22
        # in lanes of 5 bytes (0.92 MB in 8-byte lanes), where a whole level 21,
        # which the breadth-first table held, takes 17 MB
        tracemalloc.start()
        try:
            assert exact_split(halfsplit_by_classes(22))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_uint64_guard_bound(self):
        # images of residues i < 2^k stay below 3^k, and the largest value
        # a level n table or its tally forms, T^n(i) + 3^p, below 2 * 3^n
        for k in range(1, 13):
            assert max(_walk_shortcut_zero(i, k)[0] for i in range(1 << k)) < 3**k
        n = CLASSES_UINT64_MAX_STEP
        assert 2 * 3 ** (n - 1) < 2**64 <= 2 * 3**n


def level_lanes(k, n, width=None):
    """Level n <= k of `shift_blocks(k, width)`, unpacked and assembled from its
    blocks by (n, b): the lists (T^n(i), 3^p) over i < 2^n.  The walk meets every
    block of the levels 0..k once."""
    lanes, width = min(1 << n, LANE_BLOCK), width or tree_width(k)
    met, level = set(), {}
    for m, b, image, power in shift_blocks(k, width):
        assert (m, b) not in met and 0 <= m <= k and 0 <= b * LANE_BLOCK < 1 << m
        met.add((m, b))
        if m == n:
            # no lane carried past the block's last, or _unpack_lanes raises
            level[b] = _unpack_lanes(image, lanes, width), _unpack_lanes(power, lanes, width)
    assert len(met) == sum(max(1 << m, LANE_BLOCK) // LANE_BLOCK for m in range(k + 1))
    images, powers = [], []
    for b in range(len(level)):
        images += level[b][0]
        powers += level[b][1]
    return images, powers


def step_parities(images, powers):
    """From level n, the parity of T^n(i) for each i < 2^(n+1); i + 2^n takes
    that of T^n(i) + 3^p, the shift law at m = 1."""
    return [y & 1 for y in images] + [(y + w) & 1 for y, w in zip(images, powers)]


class TestShiftTable:
    """Every level of the walk against the walk of each residue."""

    def test_every_residue(self):
        for n in range(13):
            image, power = level_lanes(12, n)
            assert len(image) == len(power) == 1 << n
            for i in range(1 << n):
                y, p = _walk_shortcut_zero(i, n)
                assert (image[i], power[i]) == (y, 3**p)

    def test_block_border(self):
        # level 12 fills one block, and level 13 is the first of two blocks
        for n in (12, 13):
            image, power = level_lanes(13, n)
            for i in range(1 << n):
                y, p = _walk_shortcut_zero(i, n)
                assert (image[i], power[i]) == (y, 3**p)

    def test_depth_first_order(self):
        # each block before its refinements b and b + 2^n / LANE_BLOCK
        order = [(n, b) for n, b, _, _ in shift_blocks(15)]
        assert order[:13] == [(n, 0) for n in range(13)]
        assert order[13:] == [(13, 0), (14, 0), (15, 0), (15, 4), (14, 2), (15, 2), (15, 6),
                              (13, 1), (14, 1), (15, 1), (15, 5), (14, 3), (15, 3), (15, 7)]
        assert [(n, b) for n, b, _, _ in shift_blocks(3)] == [(0, 0), (1, 0), (2, 0), (3, 0)]

    @given(st.integers(13, 20), st.lists(st.integers(0, (1 << 20) - 1), min_size=1, max_size=30))
    @settings(max_examples=15, deadline=None)
    def test_sampled_residues(self, n, draws):
        image, power = level_lanes(n, n)
        for i in (d % (1 << n) for d in draws):
            y, p = _walk_shortcut_zero(i, n)
            assert (image[i], power[i]) == (y, 3**p)

    def test_step_parities(self):
        # level n gives the step-(n+1) parity of every residue mod 2^(n+1)
        for n in range(11):
            odd = step_parities(*level_lanes(10, n))
            assert odd == [_walk_shortcut_zero(i, n)[0] & 1 for i in range(2 << n)]

    def test_largest_admitted_level(self):
        # the level the uint64 guard admits last, 39, cannot be built here: step
        # the largest lanes a table forms there, T^38(i) + 3^p for the residue
        # i = 2^38 - 1, which increases at every step, as the table refines them
        n = CLASSES_UINT64_MAX_STEP - 2
        assert tree_width(n + 1) == 8
        expect, walked = refined_edge_lanes(n, 8)
        assert walked == expect
        # the tally of step 40 reads level 39 as T^39(i) + 3^p < 2 * 3^39 < 2^64
        assert expect[1] == (3 ** (n + 1) - 1, 2 * 3 ** (n + 1) - 1)

    # the levels k at which 2 * 3^k + 1 takes one byte more than at k - 1
    CROSSINGS = [k for k in range(1, CLASSES_UINT64_MAX_STEP) if tree_width(k) > tree_width(k - 1)]

    def test_width_crossings(self):
        assert self.CROSSINGS == [5, 10, 15, 20, 25, 30, 35]
        for k in range(CLASSES_UINT64_MAX_STEP):
            width = tree_width(k)
            assert 2 * 3**k + 1 < 1 << 8 * width and 2 * 3**k + 1 >= 1 << 8 * (width - 1)

    @pytest.mark.parametrize("k", CROSSINGS)
    def test_edge_lanes_at_the_width(self, k):
        # the largest lanes of level k - 1 refined to level k, and their
        # refinement i + 2^k, at the width of the walk to level k: exact, and
        # one byte narrower some lane differs
        expect, walked = refined_edge_lanes(k - 1, tree_width(k))
        assert walked == expect
        assert refined_edge_lanes(k - 1, tree_width(k) - 1)[1] != expect

    @pytest.mark.parametrize("k", [5, 10])
    def test_whole_levels_at_the_width(self, k):
        # every residue of the walk to a crossing level, and its refinement
        # T^k(i) + 3^p that the tally reads, against step_general; one byte
        # narrower, some lane of that refinement differs
        expect = [(walk_general(i, k), walk_general(i + (1 << k), k)) for i in range(1 << k)]
        for width in (tree_width(k), tree_width(k) - 1):
            ((image, power),) = [(y, w) for n, _, y, w in shift_blocks(k, width) if n == k]
            mask = (1 << (8 * width << k)) - 1  # a carry out of the top lane is lost
            walked = list(zip(_unpack_lanes(image & mask, 1 << k, width),
                              _unpack_lanes((image + power) & mask, 1 << k, width)))
            assert (walked == expect) == (width == tree_width(k))


def walk_general(x, steps):
    """`steps` shortcut steps from x by step_general, with T(0) = 0."""
    for _ in range(steps if x else 0):
        x = step_general(x)[0]
    return x


def pack_cut(values, width):
    """`_pack_lanes` of values cut to their low `width` bytes, as a walk too
    narrow for them would hold them."""
    return _pack_lanes([v % (1 << 8 * width) for v in values], width)


def refined_edge_lanes(n, width):
    """The lanes of level n that form the largest values as the walk refines them
    to level n + 1, residues i = 2^(n+1) - 1 and 2^n - 1 among them, taken one
    `_refined_step` at `width` bytes: (expected, walked) lists of the pairs
    (T^(n+1)(i), T^(n+1)(i + 2^(n+1))), the image and the sum image + 3^p that the
    tally reads, of each i."""
    starts = [(1 << n) - 1, (1 << n + 1) - 1, (1 << n) - 3, 0, (1 << n + 1) - 3]
    level = [_walk_shortcut_zero(i % (1 << n), n) for i in starts]
    image = pack_cut([y + 3**p * (i >> n) for i, (y, p) in zip(starts, level)], width)
    power = pack_cut([3**p for _, p in level], width)
    image, power = halfsplit._refined_step(image, power, _lane_ones(len(starts), width), width)
    mask = (1 << 8 * width * len(starts)) - 1  # a carry out of the top lane is lost
    walked = zip(_unpack_lanes(image & mask, len(starts), width),
                 _unpack_lanes((image + power) & mask, len(starts), width))
    expect = [(walk_general(i, n + 1), walk_general(i + (2 << n), n + 1)) for i in starts]
    return expect, list(walked)


def summed_tallies(parts):
    """The tallies of reports over disjoint subranges, summed step by step."""
    rows = []
    for tallies in zip(*(part.tallies for part in parts)):
        ((n, within),) = {(t.step, t.within_theorem) for t in tallies}
        increases, decreases = sum(t.increases for t in tallies), sum(t.decreases for t in tallies)
        rows.append(StepTally(n, increases, decreases, within))
    return tuple(rows)


class TestMerge:
    """Direct tallies of disjoint subranges add up to the tally of their union."""

    def test_two_halves(self):
        M = 6
        full = halfsplit_verify(M)
        lo = halfsplit_verify(M, subrange=(1, 32))
        hi = halfsplit_verify(M, subrange=(33, 64))
        assert (full.lo, full.hi, full.element_count, full.covers_full_range) == (1, 64, 64, True)
        assert (lo.lo, lo.hi, hi.lo, hi.hi) == (1, 32, 33, 64)
        assert lo.element_count + hi.element_count == full.element_count
        assert not lo.covers_full_range and not hi.covers_full_range
        assert summed_tallies([lo, hi]) == full.tallies

    def test_random_four_way_partitions(self):
        M = 8
        full = halfsplit_verify(M)
        rng = random.Random(20240811)
        top = 1 << M
        for _ in range(12):
            cuts = sorted(rng.sample(range(2, top), 3))
            bounds = [1, *cuts, top + 1]
            parts = [
                halfsplit_verify(M, subrange=(bounds[j], bounds[j + 1] - 1))
                for j in range(4)
            ]
            assert sum(part.element_count for part in parts) == top
            summed = summed_tallies(parts)
            assert summed == full.tallies
            half = top // 2
            assert all(t.increases == t.decreases == half for t in summed if t.within_theorem)

    def test_subrange_counts_sum(self):
        report = halfsplit_verify(5, subrange=(3, 17))
        for tally in report.tallies:
            assert tally.increases + tally.decreases == 15


def _class_kinds(n):
    """The step-n direction of each residue class mod 2^n, from level n - 1 of the walk."""
    kinds = (StepKind.DECREASE, StepKind.INCREASE)
    return [kinds[odd] for odd in step_parities(*level_lanes(n - 1, n - 1))]


class TestClassSplit:
    """The class split of step n: the directions read off the shift table for
    the residues mod 2^n, against the walk of each element."""

    def test_step1_parity(self):
        assert _class_kinds(1) == [StepKind.DECREASE, StepKind.INCREASE]

    def test_step2_classes(self):
        assert _class_kinds(2) == [
            StepKind.DECREASE,
            StepKind.DECREASE,
            StepKind.INCREASE,
            StepKind.INCREASE,
        ]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_cardinalities(self, n):
        kinds = _class_kinds(n)
        assert kinds.count(StepKind.INCREASE) == 1 << (n - 1)
        assert kinds.count(StepKind.DECREASE) == 1 << (n - 1)

    def test_class_determinism(self):
        # step-n direction depends only on x mod 2^n
        for n in range(1, 11):
            kinds = _class_kinds(n)
            for x in range(1, 1 << 14, 97):
                assert step_kind_at(x, n) is kinds[x % (1 << n)]

    def test_matches_direct_elements(self):
        M, n = 7, 4
        kinds = _class_kinds(n)
        for x in range(1, (1 << M) + 1):
            assert step_kind_at(x, n) is kinds[x % (1 << n)]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_step_kind_at(self, n):
        # the zero class is read at its smallest member above 0, 2^n
        for i, kind in enumerate(_class_kinds(n)):
            assert kind is step_kind_at(i or 1 << n, n)


class TestProofCaseTable:
    """The parity case table behind the half split, as an invariant of the table:
    the two refinements i and i + 2^n of a residue mod 2^n take opposite
    directions at step n + 1."""

    @pytest.mark.parametrize("n", range(17))
    def test_no_mismatches(self, n):
        odd = step_parities(*level_lanes(n, n))
        assert all(lo ^ hi == 1 for lo, hi in zip(odd[: 1 << n], odd[1 << n :]))


class TestSweepToOne:
    """A sweep of [1, n] down to 1, as survey_range(n + 1) runs it."""

    def test_limit_one(self):
        result = survey_range(2)
        assert result.verified == 1
        assert result.failures == ()

    def test_small_range(self):
        result = survey_range(10**4 + 1, max_steps=10**4)
        assert result.verified == 10**4
        assert result.failures == ()

    def test_step_budget_failures(self):
        result = survey_range(31, max_steps=5)
        assert result.verified + len(result.failures) == 30
        assert 27 in result.failures
        assert 1 not in result.failures
