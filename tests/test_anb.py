import ast
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collatzlab import anb as anb_mod
from collatzlab.anb import (
    CycleRecord,
    anb_orbit_steps,
    anb_steps_extended,
    canonical_rotation,
    catalog_walks,
    closed_form_anb_check,
    cycle_catalog,
    find_cycle,
    trajectory_anb,
)
from collatzlab.dynamics import (
    AnbParams,
    Termination,
    step_anb,
    trajectory_odd,
)
from collatzlab.identities import closed_form_check, closed_form_failures, residue_shift_check
from test_scripts import load_script

# the survey's growth report and starts with no repeat live in its script
anb_survey = load_script("anb_survey.py")
LABEL_BOUNDED, LABEL_UNBOUNDED = anb_survey.LABEL_BOUNDED, anb_survey.LABEL_UNBOUNDED
DivergenceDiagnostic = anb_survey.DivergenceDiagnostic
cycle_survey, divergence_report = anb_survey.cycle_survey, anb_survey.divergence_report

P51 = AnbParams(5, 1)
P71 = AnbParams(7, 1)
P53 = AnbParams(5, 3)

# First listed values of the two quoted expanding orbits.
FIVE_N_ONE_FROM_7 = [7, 9, 23, 29, 73, 183, 229, 573, 1433, 3583]
SEVEN_N_ONE_FROM_7 = [7, 25, 11, 39, 137, 15, 53, 93, 163, 571]


class TestTrajectories:
    @given(st.integers(0, 10**20).map(lambda r: 2 * r + 1), st.sampled_from([P51, P71, P53]))
    @settings(max_examples=50)
    def test_step_records(self, x0, params):
        traj, pe = trajectory_anb(x0, params, max_steps=100)
        records = list(anb_orbit_steps(x0, params, max_steps=100))
        assert [y for y, *_ in records] == list(traj.values[1:])
        x = x0
        for y, a, b, k in records:
            assert (a, b) == (params.a, params.b) and y << k == a * x + b
            x = y

    def test_records_check_before_the_first_step(self):
        with pytest.raises(ValueError):
            anb_orbit_steps(6, P51, max_steps=1)
        with pytest.raises(ValueError):
            anb_orbit_steps(7, P51, max_steps=-1)
        with pytest.raises(ValueError):  # an even start is outside the map at any budget
            anb_orbit_steps(6, P51, max_steps=0)

    def test_5n1_prefix(self):
        traj, _ = trajectory_anb(7, P51, max_steps=9)
        assert list(traj.values) == FIVE_N_ONE_FROM_7

    def test_7n1_prefix(self):
        traj, _ = trajectory_anb(7, P71, max_steps=9)
        assert list(traj.values) == SEVEN_N_ONE_FROM_7

    def test_tail_to_fixed_point(self):
        traj, pe = trajectory_anb(5, P71)
        assert traj.values == (5, 9, 1)
        assert traj.terminated is Termination.REACHED_CYCLE
        assert pe.exponents == (2, 6)

    def test_fixed_point_start(self):
        traj, pe = trajectory_anb(1, P71)
        assert traj.values == (1,)
        assert traj.terminated is Termination.REACHED_CYCLE
        assert pe.exponents == ()

    def test_step_limit(self):
        traj, _ = trajectory_anb(7, P51, max_steps=3)
        assert traj.terminated is Termination.STEP_LIMIT
        assert traj.step_count == 3

    def test_even_start_rejected(self):
        with pytest.raises(ValueError):
            trajectory_anb(6, P51)


class TestCycles:
    def test_cycle_13(self):
        record = find_cycle(13, P51, max_steps=100)
        assert record.members == (13, 33, 83)
        assert record.exponents == (1, 1, 5)

    def test_cycle_17_canonical_rotation(self):
        record = find_cycle(17, P51, max_steps=100)
        # the orbit is 17 -> 43 -> 27 -> 17; rotation keeps that order,
        # starting at the smallest member, so the sorted view differs
        assert record.members == (17, 43, 27)
        assert record.sorted_members == (17, 27, 43)

    def test_cycle_3(self):
        record = find_cycle(3, P51, max_steps=100)
        assert record.members == (1, 3)
        assert record.exponents == (1, 4)

    def test_cycle_1_under_7n1(self):
        record = find_cycle(1, P71, max_steps=100)
        assert record.members == (1,)
        assert record.exponents == (3,)

    def test_product_identity_examples(self):
        for start, params in [(13, P51), (17, P51), (3, P51), (1, P71), (5, P71)]:
            record = find_cycle(start, params, max_steps=100)
            lhs, rhs, ok = record.product_identity()
            assert ok, (start, params)

    def test_no_cycle_within_budget(self):
        assert find_cycle(7, P51, max_steps=50) is None

    @given(st.integers(0, 5000), st.sampled_from([P51, P71, P53]))
    @settings(max_examples=60, deadline=None)
    def test_every_found_cycle_verifies(self, r, params):
        record = find_cycle(2 * r + 1, params, max_steps=2000)
        if record is not None:
            assert record.product_identity()[2]
            assert record.members[0] == min(record.members)

    def test_catalog_5n1(self):
        catalog = cycle_catalog(P51, 50)
        assert [c.members for c in catalog] == [(1, 3), (13, 33, 83), (17, 43, 27)]

    def test_catalog_deterministic(self):
        assert cycle_catalog(P53, 99) == cycle_catalog(P53, 99)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            CycleRecord(params=P51, members=(3, 1), exponents=(4, 1))  # not canonical
        with pytest.raises(ValueError):
            CycleRecord(params=P51, members=(1, 5), exponents=(1, 4))  # not a cycle

    def test_canonical_rotation_helper(self):
        assert canonical_rotation([17, 43, 27]) == (17, 43, 27)
        assert canonical_rotation([43, 27, 17]) == (17, 43, 27)
        assert canonical_rotation([3, 1]) == (1, 3)
        with pytest.raises(ValueError):
            canonical_rotation([])


def catalog_per_start(params, start_limit, max_steps):
    """The catalog from `find_cycle` run on every odd start on its own."""
    found = {}
    for x0 in range(1, start_limit + 1, 2):
        record = find_cycle(x0, params, max_steps=max_steps)
        if record is not None:
            found.setdefault(record.members, record)
    return tuple(sorted(found.values(), key=lambda r: (len(r.members), r.members)))


def check_walks_per_start(params, start_limit, max_steps, catalog):
    """`catalog_walks` start by start against `find_cycle`: no repeat exactly
    where find_cycle finds none, the same cycle where it finds one, and at a
    basin stop ([]) whatever find_cycle decides, a cycle of the catalog or None."""
    walks = list(catalog_walks(params, start_limit, max_steps))
    assert [x0 for x0, _ in walks] == list(range(1, start_limit + 1, 2))
    for x0, cycle in walks:
        record = find_cycle(x0, params, max_steps)
        if cycle is None:
            assert record is None
        elif cycle:
            assert record.members == canonical_rotation(cycle)
        else:
            assert record is None or record in catalog


CATALOG_PARAMS = [AnbParams(a, b) for a, b in [(5, 1), (5, 3), (7, 1), (5, 7), (3, 1), (3, 5)]]


def catalog_walk(x0, params, max_steps, memo, settled=None, start_limit=0):
    """One walk of the catalog; at start_limit 0 it settles no later start."""
    settled = {} if settled is None else settled
    return anb_mod._catalog_walk(x0, params, max_steps, memo, settled, start_limit)


def count_work(mp, mask=None):
    """Count the catalog's walks by start, and its steps, at fingerprint mask `mask`.

    A step adds a fingerprint to its walk's index or, meeting one there, calls
    `first_step`; so the steps are the fingerprints an index holds past its
    start's, summed, plus the `first_step` calls.  Nothing is called a step.
    """
    work = {"walked": [], "indexes": [], "confirms": 0}
    walk = anb_mod._catalog_walk

    class CountedIndex(anb_mod._RepeatIndex):
        def __init__(self, *args):
            super().__init__(*args)
            work["indexes"].append(self)

        def first_step(self, x, j):
            work["confirms"] += 1
            return super().first_step(x, j)

    def counted_walk(x0, *args):
        work["walked"].append(x0)
        return walk(x0, *args)

    if mask is not None:
        mp.setattr(anb_mod, "_FP_MASK", mask)
    mp.setattr(anb_mod, "_RepeatIndex", CountedIndex)
    mp.setattr(anb_mod, "_catalog_walk", counted_walk)
    return work


def steps_of(work):
    return sum(len(i.fingerprints) - 1 for i in work["indexes"]) + work["confirms"]


class TestCatalogMemo:
    """cycle_catalog shares its walks through a memo; find_cycle is the reference."""

    @given(
        st.sampled_from(CATALOG_PARAMS + [AnbParams(5, 5), AnbParams(7, 3)]),
        st.integers(1, 400),
        st.one_of(st.integers(0, 40), st.sampled_from([60, 200, 300])),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_start(self, params, start_limit, max_steps):
        catalog = cycle_catalog(params, start_limit, max_steps)
        assert catalog == catalog_per_start(params, start_limit, max_steps)
        check_walks_per_start(params, start_limit, max_steps, catalog)

    @pytest.mark.parametrize("params", CATALOG_PARAMS)
    @pytest.mark.parametrize("start_limit", [100, 999])
    def test_matches_per_start_pinned(self, params, start_limit):
        for max_steps in (37, 60, 200):
            assert cycle_catalog(params, start_limit, max_steps) == catalog_per_start(
                params, start_limit, max_steps
            )

    @pytest.mark.parametrize("params", [P51, P71, P53])
    def test_default_budget(self, params):
        assert cycle_catalog(params, 151) == catalog_per_start(params, 151, 10**4)

    @pytest.mark.parametrize("mask, examples", [(None, 100), (7, 15)], ids=["low64", "mask7"])
    def test_settled_starts_match_per_start(self, mask, examples):
        # Small budgets make a walk's later starts lie far along it, past its
        # repeat or on its cycle.  Under the mask 7 nearly every step is a
        # fingerprint hit, so the confirm also runs on the steps a walk takes
        # past its budget.
        @given(
            st.sampled_from(CATALOG_PARAMS + [AnbParams(5, 5), AnbParams(7, 3)]),
            st.integers(1, 400),
            st.integers(0, 40),
        )
        @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
        def check(params, start_limit, max_steps):
            with pytest.MonkeyPatch.context() as mp:
                work = count_work(mp, mask)
                catalog = cycle_catalog(params, start_limit, max_steps)
                steps = steps_of(work)
                survey = cycle_survey(params, start_limit, max_steps)
                check_walks_per_start(params, start_limit, max_steps, catalog)
            starts = range(1, start_limit + 1, 2)
            assert catalog == catalog_per_start(params, start_limit, max_steps)
            stray = [x0 for x0 in starts if find_cycle(x0, params, max_steps) is None]
            assert survey == (catalog, stray)
            # the step budget of anb-cycles: a walk goes on at most max_steps
            # steps past its own, and only to settle a start not walked then
            assert steps <= len(starts) * max(max_steps, 1)

        check()

    def test_work_pinned(self, monkeypatch):
        # 5n+1 up to 151 at the default budget: the 76 starts would take
        # 600,091 steps one by one, and 330,147 with the memo alone
        work = count_work(monkeypatch)
        assert [c.members for c in cycle_catalog(P51, 151)] == [(1, 3), (13, 33, 83), (17, 43, 27)]
        assert len(work["walked"]) == 50 and steps_of(work) == 150_163

    def test_forced_collisions_5n1(self, monkeypatch):
        # Under the mask 7 every step past the first few meets a fingerprint and
        # confirms by walking again from x0, so a walk costs its length squared:
        # 300 steps take under a second, the default 10^4 would take hours.
        monkeypatch.setattr(anb_mod, "_FP_MASK", 7)
        catalog = cycle_catalog(P51, 151, 300)
        assert catalog == catalog_per_start(P51, 151, 300)
        assert [c.members for c in catalog] == [(1, 3), (13, 33, 83), (17, 43, 27)]

    @pytest.mark.parametrize("cap", [0, 1])
    @pytest.mark.parametrize("params", CATALOG_PARAMS + [AnbParams(5, 5)])
    def test_memo_cap(self, monkeypatch, cap, params):
        monkeypatch.setattr(anb_mod, "CATALOG_MEMO_CAP", cap)
        for start_limit, max_steps in ((151, 37), (100, 3), (301, 200)):
            assert cycle_catalog(params, start_limit, max_steps) == catalog_per_start(
                params, start_limit, max_steps
            )

    def test_stop_behind_an_open_walk(self, monkeypatch):
        # 11 -> 7 under 5n+1 joins the open walk of 7 one step behind it
        memo = {}
        assert catalog_walk(7, P51, 50, memo) is None
        assert memo[7] == 0 and memo[9] == 1 and memo[23] == 2
        size = len(memo)
        assert catalog_walk(11, P51, 50, memo) is None
        assert memo[11] == 0 and len(memo) == size + 1
        # 9 = z_1 is one step ahead on the walk of 7, which settles it: its 50
        # steps reach z_2..z_51 of that walk, all distinct.  It is never
        # walked, and the memo keeps the steps of 7's walk.
        memo, settled = {}, {}
        assert catalog_walk(7, P51, 50, memo, settled, 11) is None
        assert settled == {9: None} and memo[9] == 1
        work = count_work(monkeypatch)
        assert [c.members for c in cycle_catalog(P51, 11, 50)] == [(1, 3), (13, 33, 83)]
        assert work["walked"] == [1, 3, 5, 7, 11]

    def test_no_stop_on_a_cycle_ahead_of_the_join(self):
        # 5n+5, 3 steps: 53 -> 135 -> 85 -> 215 has no repeat and leaves 135
        # at step 1.  The walk from 85 meets 135 at step 2 >= 1, but it met
        # 85 itself at step 0 < 1, so it walks on and closes (85, 215, 135).
        params = AnbParams(5, 5)
        memo = {}
        assert catalog_walk(53, params, 3, memo) is None
        assert memo == {53: 0, 135: 1, 85: 2, 215: 3}
        assert catalog_walk(85, params, 3, memo) == [85, 215, 135]
        assert find_cycle(85, params, 3).members == (85, 215, 135)
        assert [c.members for c in cycle_catalog(params, 100, 3)] == [
            (5, 15), (65, 165, 415), (85, 215, 135)
        ]

    def test_whole_walk_is_remembered(self):
        # 3n+5, 17 steps: 123 enters a 17-cycle at 187 and has no repeat.  The
        # walk from 643 meets 187 at step 14 >= 1; it is stopped from doing so
        # only because 643 itself, z_4 of that walk, is in the memo.
        params = AnbParams(3, 5)
        memo = {}
        assert catalog_walk(123, params, 17, memo) is None
        assert len(memo) == 18 and memo[187] == 1 and memo[643] == 4
        cycle = catalog_walk(643, params, 17, memo)
        assert len(cycle) == 17 and cycle[0] == 643
        assert find_cycle(643, params, 17).members == canonical_rotation(cycle)

    def test_later_start_settled_on_the_extension(self, monkeypatch):
        # The same walk of 123 settles 643 = z_4 and the other later starts up
        # to 643, z_1, z_2, z_3 and z_14 = 587: it goes on to z_18 = z_1 = 187,
        # and each of them first repeats at step 17: z_1 at t - s = 18 - 1, the
        # others, on the cycle past z_1, at its length t - i = 18 - 1.
        params = AnbParams(3, 5)
        memo, settled = {}, {}
        assert catalog_walk(123, params, 17, memo, settled, 643) is None
        assert sorted(settled) == [187, 283, 427, 587, 643]
        members = find_cycle(643, params, 17).members
        assert len(members) == 17 and find_cycle(187, params, 17).members == members
        assert all(canonical_rotation(c) == members for c in settled.values())
        work = count_work(monkeypatch)
        assert cycle_catalog(params, 643, 17) == catalog_per_start(params, 643, 17)
        assert 643 not in work["walked"] and 123 in work["walked"]

    @pytest.mark.parametrize(
        "params, max_steps, x0, start_limit, cyclic",
        [
            # 7 -> 9 -> 23 -> ... under 5n+1 has no repeat by z_51
            (P51, 50, 7, 23, {}),
            # 1 -> 3, then z_2 = z_0: 3 (s = 1 > i = 0) first repeats at step 2 > 1
            (P51, 1, 1, 3, {}),
            # 5 -> 13 -> 33 (-> 83 -> 13 = z_4 = z_1): at 2 steps 13 (s = i = 1) and
            # 33 (s = 2 > i) first repeat at step 3 > 2; at 3 steps both close the cycle
            (P51, 2, 5, 50, {}),
            (P51, 3, 5, 50, {13, 33}),
            # 53 -> 135 -> 85 -> 215 (-> 135 = z_4 = z_1) under 5n+5
            (AnbParams(5, 5), 3, 53, 215, {135, 85, 215}),
            (AnbParams(5, 5), 2, 53, 215, set()),
        ],
    )
    def test_settle_rule(self, params, max_steps, x0, start_limit, cyclic):
        memo, settled = {}, {}
        assert catalog_walk(x0, params, max_steps, memo, settled, start_limit) is None
        later = {v for v, s in memo.items() if s and x0 < v <= start_limit}
        assert set(settled) == later
        for v, cycle in settled.items():
            record = find_cycle(v, params, max_steps)
            assert (v in cyclic) == (record is not None)
            assert cycle is None or canonical_rotation(cycle) == record.members

    def test_value_past_the_bound_blocks_the_stop(self, monkeypatch):
        # As above with the memo bound lowered to 600: 643 is now a value the
        # memo cannot vouch for, and it must block the stop at 187 as its
        # entry did.
        monkeypatch.setattr(anb_mod, "_MEMO_BOUND", 600)
        params = AnbParams(3, 5)
        memo = {}
        assert catalog_walk(123, params, 17, memo) is None
        assert 643 not in memo and memo[187] == 1 and max(memo) < 600
        assert len(catalog_walk(643, params, 17, memo)) == 17

    def test_basin_stop(self):
        memo = {}
        assert catalog_walk(13, P51, 100, memo) == [13, 33, 83]
        assert memo == {13: -1, 33: -1, 83: -1}
        # 5 -> 13 lands in the basin of the cycle already found
        assert catalog_walk(5, P51, 100, memo) == []
        assert memo[5] == -1

    def test_word_edges(self):
        big = (1 << 64) + 1
        memo = {}
        assert catalog_walk(big, P51, 30, memo) is None
        assert big not in memo and all(x < 1 << 64 for x in memo)
        # 5 x0 + 1 = 2^64: the valuation is not in the low word
        x0 = ((1 << 64) - 1) // 5
        assert catalog_walk(x0, P51, 5, {}) == [1, 3]
        assert find_cycle(x0, P51, 5).members == (1, 3)

    @staticmethod
    def walk_peak(params, x0, max_steps, start_limit):
        """The tracemalloc peak of one walk with no repeat, which settles later starts."""
        settled = {}
        tracemalloc.start()
        try:
            assert catalog_walk(x0, params, max_steps, {}, settled, start_limit) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert settled
        return peak

    @pytest.mark.parametrize("params, x0", [(P51, 7), (P71, 7), (AnbParams(7, 3), 41)])
    def test_walk_bytes_estimate(self, monkeypatch, params, x0):
        # a walk with no repeat holds no more than the estimate of the
        # anb-cycles memory budget, its steps past the budget to settle every
        # later start below 2^64 included
        monkeypatch.setattr(anb_mod, "CATALOG_MEMO_CAP", 0)
        start_limit = (1 << 64) - 1
        peak = self.walk_peak(params, x0, 5000, start_limit)
        assert peak <= anb_mod.catalog_walk_bytes(params, start_limit, 5000)

    def test_walk_bytes_estimate_twice_the_budget(self, monkeypatch):
        # 3n+3299 has a 1,000-cycle below 2^25, which the walk from 1 enters
        # at step 43: at 1,000 steps it has a later start at every step and
        # walks on 1,000 more, to the repeat at step 1,043
        monkeypatch.setattr(anb_mod, "CATALOG_MEMO_CAP", 0)
        params = AnbParams(3, 3299)
        peak = self.walk_peak(params, 1, 1000, 1 << 26)
        assert peak <= anb_mod.catalog_walk_bytes(params, 1 << 26, 1000)

    @pytest.mark.parametrize("params", [P51, P71, P53])
    @pytest.mark.parametrize("start_limit, max_steps", [(51, 200), (99, 3), (151, 37)])
    def test_survey_lists_the_starts_with_no_repeat(self, params, start_limit, max_steps):
        # at 3 steps the basin entries of 15, 65, 97 (5n+1) and 45 (5n+3) come
        # too late: those starts enter a known cycle, but not within the budget
        catalog, stray = cycle_survey(params, start_limit, max_steps)
        assert catalog == cycle_catalog(params, start_limit, max_steps)
        assert stray == [
            x0 for x0 in range(1, start_limit + 1, 2)
            if find_cycle(x0, params, max_steps) is None
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            cycle_catalog(P51, 0)
        with pytest.raises(ValueError):
            cycle_catalog(P51, 10, max_steps=-1)
        # the walks check their arguments before the first walk
        with pytest.raises(ValueError):
            catalog_walks(P51, 0, 10)
        with pytest.raises(ValueError):
            catalog_walks(P51, 10, -1)


def value_keyed_rows(x0, params, max_steps):
    """The rows of `anb_orbit_steps`, from a walk that keeps every value in a set."""
    seen, x, rows = {x0}, x0, []
    for _ in range(max_steps):
        x, k = step_anb(x, params)
        if x in seen:
            break
        seen.add(x)
        rows.append((x, params.a, params.b, k))
    return rows


def value_keyed_divergence(x0, params, horizon):
    """`divergence_report` from a walk that keeps every value in a set."""
    seen, x, steps, sum_k, label = {x0}, x0, 0, 0, LABEL_UNBOUNDED
    peak = x0
    while steps < horizon:
        x, k = step_anb(x, params)
        steps, sum_k, peak = steps + 1, sum_k + k, max(peak, x)
        if x in seen:
            label = LABEL_BOUNDED
            break
        seen.add(x)
    return DivergenceDiagnostic(params, x0, steps, peak, sum_k, label)


class TestRepeatIndex:
    """Walks that keep one fingerprint a step against walks that keep the values.

    Under the mask 7 nearly every step is a fingerprint hit, so the exact
    confirm and the kept false collisions run on every walk.
    """

    def test_fingerprint_is_the_low_word(self):
        # values that differ only above bit 64 share a fingerprint, and a
        # value below 2^64 is its own
        low = 0x9E37_79B9_7F4A_7C15
        for x0 in (low, low + (1 << 64), low + (3 << 200)):
            assert anb_mod._RepeatIndex(x0, P51).fingerprints == {low}

    def test_no_hash_in_anb(self):
        # hash(x) reads every digit of x; the fingerprint reads the low word
        tree = ast.parse(Path(anb_mod.__file__).read_text())
        named = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and node.id == "hash"
                 or isinstance(node, ast.Attribute) and node.attr == "hash"]
        assert named == []

    @pytest.mark.parametrize("mask, examples", [(None, 60), (7, 12)], ids=["low64", "mask7"])
    def test_matches_value_keyed_walks(self, mask, examples):
        @given(
            st.sampled_from([3, 5, 7, 9]),
            st.sampled_from([1, 3, 5, 7, 9]),
            st.integers(0, 499).map(lambda r: 2 * r + 1),
            st.integers(0, 300),
        )
        # the 5n+5 case of the _catalog_walk docstring: 53 leaves 135 at step 1
        @example(5, 5, 85, 3)
        @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
        def check(a, b, x0, max_steps):
            params = AnbParams(a, b)
            assert list(anb_orbit_steps(x0, params, max_steps)) == value_keyed_rows(
                x0, params, max_steps
            )
            assert divergence_report(x0, params, max_steps) == value_keyed_divergence(
                x0, params, max_steps
            )
            assert cycle_catalog(params, x0, max_steps) == catalog_per_start(
                params, x0, max_steps
            )

        with pytest.MonkeyPatch.context() as mp:
            if mask is not None:
                mp.setattr(anb_mod, "_FP_MASK", mask)
            check()

    def test_walk_holds_no_values(self):
        # the values of this walk pass 20,000 bits; a set of them takes about 5 MB
        tracemalloc.start()
        try:
            rows = sum(1 for _ in anb_orbit_steps(7, AnbParams(1001, 1), 3000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == 3000 and peak < 1 << 20


class TestClosedForm:
    def test_example_5n1(self):
        res = closed_form_anb_check(7, P51, 2)
        assert res == (184, 184, True)

    def test_fixed_point_7n1(self):
        res = closed_form_anb_check(1, P71, 1)
        assert res.lhs == 8 and res.rhs == 8

    def test_around_cycle(self):
        assert closed_form_anb_check(13, P51, 3).holds

    def test_seeded_starts_all_params(self):
        rng_starts = [2 * (37 * j % 5000) + 1 for j in range(200)]
        for params in (P51, P71, P53):
            for x0 in rng_starts:
                _, exps = anb_steps_extended(x0, params, 50)
                for n in range(1, 51):
                    assert closed_form_anb_check(x0, params, n, exponents=exps).holds


def failing(checks):
    """(n, lhs, rhs) of each per-n check, n = 1, 2, ..., that does not hold."""
    return [(n, c.lhs, c.rhs) for n, c in enumerate(checks, start=1) if not c.holds]


class TestClosedFormBatch:
    """The failures of the one-walk check `identities.closed_form_failures` in
    (a, b) against those of the per-n reference `closed_form_anb_check`."""

    def test_matches_oracle_every_n(self):
        starts = [2 * (37 * j % 5000) + 1 for j in range(60)]
        for params in (P51, P71, P53, AnbParams(3, 1)):
            for x0 in starts:
                values, exps = anb_steps_extended(x0, params, 40)
                got = closed_form_failures(x0, values, exps, params)
                assert got == [] == failing(
                    closed_form_anb_check(x0, params, n, exponents=exps)
                    for n in range(1, 41)
                )

    @given(
        st.integers(0, 2000).map(lambda r: 2 * r + 1),
        st.sampled_from([P51, P71, P53]),
        st.lists(st.integers(1, 6), min_size=1, max_size=30),
    )
    @settings(max_examples=100)
    def test_wrong_exponents_fail_like_oracle(self, x0, params, exps):
        values, _ = anb_steps_extended(x0, params, len(exps))
        got = closed_form_failures(x0, values, exps, params)
        assert got == failing(
            closed_form_anb_check(x0, params, n, exponents=exps)
            for n in range(1, len(exps) + 1)
        )

    def test_first_failure_pinned(self):
        # 7 -> 9 -> 23 under 5n+1 has exponents 2, 1; claim 2, 2
        values, exps = anb_steps_extended(7, P51, 2)
        assert exps == [2, 1]
        got = closed_form_failures(7, values, [2, 2], P51)
        res = closed_form_anb_check(7, P51, 2, exponents=[2, 2])
        assert got == [(2, res.lhs, res.rhs)] and not res.holds

    def test_bad_walk_rejected(self):
        with pytest.raises(ValueError):
            closed_form_failures(7, [7, 9], [2, 1], P51)


class TestResidueShift:
    def test_even_class_is_halving(self):
        for m in (0, 1, 9):
            res = residue_shift_check(1, m, 0, P51)
            assert res.holds and res.increase_count == 0

    def test_example(self):
        res = residue_shift_check(2, 1, 1, P51)
        assert res.holds
        assert res.lhs == 33  # two steps of the (5x+1)/2 shortcut from 5

    def test_7n1_exhaustive_small(self):
        for k in range(1, 6):
            for i in range(1 << k):
                for m in (0, 1, 2, 3, 11, 101):
                    assert residue_shift_check(k, m, i, P71).holds

    @given(
        st.integers(1, 8),
        st.integers(0, 2**16),
        st.sampled_from([P51, P71, P53]),
        st.data(),
    )
    @settings(max_examples=150)
    def test_random(self, k, m, params, data):
        i = data.draw(st.integers(0, (1 << k) - 1))
        assert residue_shift_check(k, m, i, params).holds


class TestDivergenceReport:
    def test_5n1_from_7(self):
        diag = divergence_report(7, P51, horizon=40)
        assert diag.label == LABEL_UNBOUNDED
        assert diag.peak >= 5789999
        assert diag.expanding

    def test_7n1_from_7(self):
        diag = divergence_report(7, P71, horizon=27)
        assert diag.label == LABEL_UNBOUNDED
        assert diag.peak >= 990039269

    def test_cycle_is_bounded(self):
        diag = divergence_report(13, P51, horizon=100)
        assert diag.label == LABEL_BOUNDED
        assert diag.peak == 83
        assert not diag.expanding

    def test_drift_display_value(self):
        diag = divergence_report(7, P51, horizon=40)
        import math

        expected = (40 * math.log2(5) - diag.sum_exponents) / 40
        assert diag.drift_log2 == pytest.approx(expected)

    @staticmethod
    def own_walk(x0, params, horizon):
        """The report by a loop of its own over `_RepeatIndex`: the reference for
        the report read from `anb_orbit_steps`."""
        seen = anb_mod._RepeatIndex(x0, params)
        value, peak, steps, sum_k, label = x0, x0, 0, 0, LABEL_UNBOUNDED
        while steps < horizon:
            value, k = step_anb(value, params)
            steps += 1
            sum_k += k
            peak = max(peak, value)
            if seen.first_step(value, steps) is not None:
                label = LABEL_BOUNDED
                break
        return DivergenceDiagnostic(params, x0, steps, peak, sum_k, label)

    def test_matches_own_walk(self):
        # cycles closed at every step count a horizon can cut, and orbits that grow
        maps = [(3, 1), (3, 5), (5, 1), (5, 3), (7, 1), (7, 3), (9, 1)]
        for params in (AnbParams(a, b) for a, b in maps):
            for x0 in range(1, 400, 2):
                for horizon in (0, 1, 2, 3, 5, 8, 13, 40, 200):
                    assert divergence_report(x0, params, horizon) == self.own_walk(
                        x0, params, horizon
                    )

    def test_even_start_rejected(self):
        for horizon in (0, 5):
            with pytest.raises(ValueError):
                divergence_report(6, P51, horizon)
        with pytest.raises(ValueError):
            divergence_report(7, P51, -1)


class TestGeneralizationConsistency:
    """With (a, b) = (3, 1) everything must match the dedicated 3n+1 code."""

    P31 = AnbParams(3, 1)

    def test_trajectories_match(self):
        for x0 in range(1, 1001, 2):
            traj_a, pe_a = trajectory_anb(x0, self.P31)
            traj_o, pe_o = trajectory_odd(x0)
            assert traj_a.values == traj_o.values
            assert pe_a.exponents == pe_o.exponents

    def test_closed_form_matches(self):
        for x0 in (1, 7, 27, 255, 999):
            for n in range(0, 15):
                a = closed_form_anb_check(x0, self.P31, n)
                b = closed_form_check(x0, n)
                assert (a.lhs, a.rhs, a.holds) == (b.lhs, b.rhs, b.holds)

    def test_cycle_is_the_fixed_point(self):
        for x0 in (1, 7, 27):
            record = find_cycle(x0, self.P31, max_steps=10**4)
            assert record.members == (1,)
            assert record.exponents == (2,)

    def test_divergence_label_bounded(self):
        assert divergence_report(27, self.P31).label == LABEL_BOUNDED
