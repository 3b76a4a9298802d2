import ast
import inspect
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzlab.dynamics import (
    COLLATZ,
    DEFAULT_MAX_STEPS,
    LANE_BLOCK,
    AnbParams,
    ParityExponents,
    StepKind,
    Termination,
    Trajectory,
    odd_steps_extended,
    odd_walk,
    orbit_steps,
    step_anb,
    step_general,
    trajectory_general,
    trajectory_odd,
    two_adic_valuation,
    _lane_ones,
    _pack,
    _packed_step,
    _unpack,
)
from collatzlab import dynamics
from collatzlab.identities import _walk_shortcut_zero


def step_kinds(values):
    """The kind of each step of an orbit: an increase iff the next value is larger."""
    return [StepKind.INCREASE if y > x else StepKind.DECREASE for x, y in zip(values, values[1:])]


odd_ints = st.integers(min_value=0, max_value=10**9).map(lambda r: 2 * r + 1)


FAMILY = [AnbParams(3, 1), AnbParams(5, 1), AnbParams(7, 1), AnbParams(5, 3), AnbParams(3, 5)]
EDGE_STARTS = [1, 2, 2**64 - 1, 2**64 + 1, 3**1892 | 1 << 2999]  # the last has 3000 bits


class TestReferenceSteps:
    """Each reference step against its own defining equation, for every map of
    the family; at (3, 1), through the defaults, also against the inline
    walkers that keep their own copy of the step."""

    @staticmethod
    def check(x, p):
        y, kind = step_general(x, p)
        assert (kind, 2 * y) == ((StepKind.INCREASE, p.a * x + p.b) if x % 2 else
                                 (StepKind.DECREASE, x))
        if x % 2 == 0:
            with pytest.raises(ValueError):
                step_anb(x, p)
            return
        y, k = step_anb(x, p)
        assert y % 2 == 1 and k >= 1 and y << k == p.a * x + p.b

    @staticmethod
    def check_collatz(x):
        y, kind = step_general(x)
        assert 2 * y == (3 * x + 1 if x % 2 else x)
        assert _walk_shortcut_zero(x, 1) == (y, int(kind is StepKind.INCREASE))
        if x % 2:
            y, k = step_anb(x)
            assert y << k == 3 * x + 1
            if x > 1:  # the odd walk stops at 1
                assert odd_walk(x, 1) == ([x, y], [k])

    @pytest.mark.parametrize("x", EDGE_STARTS, ids=["1", "2", "2^64-1", "2^64+1", "3000-bit"])
    @pytest.mark.parametrize("p", FAMILY, ids=lambda p: f"{p.a}n+{p.b}")
    def test_edges(self, x, p):
        assert EDGE_STARTS[-1].bit_length() == 3000
        self.check(x, p)
        if p == COLLATZ:
            self.check_collatz(x)

    @given(st.integers(1, 2**200), st.sampled_from(FAMILY))
    def test_draws(self, x, p):
        self.check(x, p)
        self.check_collatz(x)


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

    @given(st.integers(1, 2**24000), st.sampled_from([(3, 1), (5, 1), (7, 3)]))
    @settings(max_examples=30)
    def test_big_values_halve_exactly(self, x, ab):
        params = AnbParams(*ab)
        y = x // 2 if x % 2 == 0 else (params.a * x + params.b) // 2
        assert step_general(x, params)[0] == y
        if x % 2:
            t = params.a * x + params.b
            k = two_adic_valuation(t)
            assert step_anb(x, params) == (t // 2**k, k)

    @pytest.mark.parametrize(
        "step, x, message",
        [
            (step_general, 0, "map is defined on integers >= 1, got 0"),
            (step_general, -3, "map is defined on integers >= 1, got -3"),
            (step_anb, 0, "map is defined on integers >= 1, got 0"),
            (step_anb, -5, "map is defined on integers >= 1, got -5"),
            (step_anb, 2**100, f"odd-to-odd map needs an odd start, got {2**100}"),
            (odd_walk, 6, "odd-to-odd map needs an odd start, got 6"),
        ],
    )
    def test_rejections_keep_their_messages(self, step, x, message):
        with pytest.raises(ValueError) as info:
            step(x)
        assert str(info.value) == message


@pytest.mark.parametrize("name", ["step_general", "step_anb", "_require_odd", "odd_walk"])
def test_steps_read_the_low_bit(name):
    # % 2 and // 2 divide every digit of a big int, & 1 and >> 1 read one word
    for node in ast.walk(ast.parse(inspect.getsource(getattr(dynamics, name)))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.Mod, ast.FloorDiv)):
            operand = node.right if isinstance(node, ast.BinOp) else node.value
            assert not (isinstance(operand, ast.Constant) and operand.value == 2), ast.unparse(node)


class TestStepOdd:
    @pytest.mark.parametrize("x,expected", [(5, (1, 4)), (17, (13, 2)), (1, (1, 2))])
    def test_examples(self, x, expected):
        assert step_anb(x) == expected

    @pytest.mark.parametrize("x", [0, 2, 6])
    def test_rejects_non_odd(self, x):
        with pytest.raises(ValueError):
            step_anb(x)

    @given(odd_ints)
    def test_exact_division(self, x):
        y, k = step_anb(x)
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
        for a, b, kind in zip(t.values, t.values[1:], step_kinds(t.values)):
            nxt, k = step_general(a)
            assert nxt == b and k is kind


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


# Starts of the inline walks: 1, 2^k and 2^k - 1, 2^64 + 1, the 3000-bit
# start of EDGE_STARTS, and odd starts whose first odd step halves 8 and 64
# times, past the byte table.
ORBIT_STARTS = {
    1: "1", 2**8: "2^8", 2**64: "2^64", 2**3000: "2^3000", 2**8 - 1: "2^8-1",
    2**64 - 1: "2^64-1", 2**3000 - 1: "2^3000-1", 2**64 + 1: "2^64+1",
    EDGE_STARTS[-1]: "3000-bit", 85: "85", ((7 << 64) - 1) // 3: "(7 2^64-1)/3",
}


class TestOrbitSteps:
    """The step records that drive the decimal renderer of `trajectory`,
    taken inline, against the reference steps."""

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

    @staticmethod
    def reference(x0, max_steps, odd):
        """orbit_steps' records, from the walk by step_general (trajectory_general's)
        or by step_anb."""
        if not odd:
            values = trajectory_general(x0, max_steps).values
            return [(y, 3, 1, 1) if x & 1 else (y, 1, 0, 1) for x, y in zip(values, values[1:])]
        records, x = [], x0
        while len(records) < max_steps and x != 1:
            x, k = step_anb(x)
            records.append((x, 3, 1, k))
        return records

    @pytest.mark.parametrize("max_steps", [0, 1, DEFAULT_MAX_STEPS])
    @pytest.mark.parametrize("x0", ORBIT_STARTS, ids=ORBIT_STARTS.get)
    def test_inline_steps_are_the_reference_steps(self, x0, max_steps):
        for odd in (False, True) if x0 & 1 else (False,):
            assert list(orbit_steps(x0, max_steps, odd)) == self.reference(x0, max_steps, odd)

    def test_checks_before_the_first_step(self):
        # errors surface at the call, before anything is yielded
        with pytest.raises(ValueError):
            orbit_steps(0)
        with pytest.raises(ValueError):
            orbit_steps(6, odd=True)
        with pytest.raises(ValueError):
            orbit_steps(7, max_steps=-1)


class TestOddWalk:
    """The inline walk of trajectory_odd, eq2 and bohm against the step records."""

    @staticmethod
    def reference(x0, max_steps=DEFAULT_MAX_STEPS):
        values, exponents = [x0], []
        for y, _, _, k in orbit_steps(x0, max_steps=max_steps, odd=True):
            values.append(y)
            exponents.append(k)
        return values, exponents

    def test_every_odd_start_below_5000(self):
        for x0 in range(1, 5000, 2):
            assert odd_walk(x0) == self.reference(x0)

    @settings(max_examples=50)
    @given(odd_ints.map(lambda x: x << 100 | 1), st.integers(0, 300))
    def test_big_starts(self, x0, max_steps):
        assert odd_walk(x0, max_steps) == self.reference(x0, max_steps)

    def test_one(self):
        assert odd_walk(1) == ([1], []) == self.reference(1)
        assert odd_walk(1, max_steps=0) == ([1], [])

    def test_cut_at_max_steps(self):
        full = odd_walk(27)
        n = len(full[1])
        assert full[0][-1] == 1 and n == 41
        assert odd_walk(27, max_steps=n) == full  # reaches 1 at exactly max_steps
        cut = odd_walk(27, max_steps=n - 1)
        assert cut == self.reference(27, n - 1) == (full[0][:-1], full[1][:-1])
        assert cut[0][-1] != 1
        assert odd_walk(27, max_steps=0) == ([27], [])

    def test_validation(self):
        for bad in (0, -3, 6):
            with pytest.raises(ValueError):
                odd_walk(bad)
        with pytest.raises(ValueError, match="max_steps must be >= 0"):
            odd_walk(7, max_steps=-1)


# Odd starts whose 3x + 1 is 256, 1024, 7 * 2^64 and 2^70, and the exponent of
# that step: a low byte of 0, which the table does not cover, and a low word
# of 0, whose valuation is read from the whole value.
TABLE_EDGES = {85: 8, 341: 10, ((7 << 64) - 1) // 3: 64, ((1 << 70) - 1) // 3: 70}


class TestValuationTable:
    """`_V2`, the valuation of each byte, and its fallback, against the
    definition of the 2-adic valuation."""

    def test_table_is_the_bit_trick(self):
        assert len(dynamics._V2) == 256 and dynamics._V2[0] == 0
        for i in range(1, 256):
            assert dynamics._V2[i] == (i & -i).bit_length() - 1

    def test_valuation_by_its_definition(self):
        for n in [*range(1, 2049), 1 << 63, 1 << 64, 7 << 64, (1 << 64) + 256, 3 << 200,
                  (1 << 3000) - (1 << 9)]:
            e = two_adic_valuation(n)
            assert (n >> e) << e == n and (n >> e) & 1, n

    @pytest.mark.parametrize("x0, k", TABLE_EDGES.items(), ids=lambda v: str(v)[:8])
    def test_odd_walk_at_the_edge(self, x0, k):
        assert (3 * x0 + 1) & 255 == 0
        values, exponents = odd_walk(x0)
        assert exponents[0] == k and (values, exponents) == TestOddWalk.reference(x0)
        for x, y, e in zip(values, values[1:], exponents):
            assert y & 1 and y << e == 3 * x + 1


def test_one_valuation_table():
    # Every odd-map step reads the one table in dynamics: no other module
    # defines _V2 or takes a valuation by the bit trick x & -x, and the two
    # that step inline import it
    defines, imports, tricks = [], [], []
    for path in sorted(Path(dynamics.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and node.id == "_V2" and isinstance(node.ctx, ast.Store):
                defines.append(path.stem)
            elif (isinstance(node, ast.ImportFrom) and node.module == "dynamics"
                  and "_V2" in [alias.name for alias in node.names]):
                imports.append(path.stem)
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
                  and isinstance(node.right, ast.UnaryOp) and isinstance(node.right.op, ast.USub)):
                tricks.append(path.stem)
    assert defines == ["dynamics"] and imports == ["anb", "catalog"]
    assert set(tricks) == {"dynamics"}


# The largest odd lane whose step, (3x + 1) / 2, still fits in 64 bits, and
# the largest even lane, whose x + 1 fills its lane without a carry.
LANE_ODD_MAX = ((1 << 65) - 2) // 3 - 1
LANE_EVEN_MAX = (1 << 64) - 2


def packed_step_lanes(values):
    """One `_packed_step` on the lanes `values`, unpacked: (images, mask lanes)."""
    x, odd = _packed_step(_pack(array("Q", values)), _lane_ones(len(values)))
    assert x.bit_length() <= 64 * len(values)  # nothing carried out of the top lane
    return _unpack(x, len(values)).tolist(), _unpack(odd, len(values)).tolist()


class TestPackedStep:
    """The packed-lane step against the Python-int walk, one step per lane."""

    def test_pack_round_trip(self):
        values = [0, 1, LANE_EVEN_MAX + 1, 12345, LANE_ODD_MAX]
        assert _unpack(_pack(array("Q", values)), len(values)).tolist() == values
        assert _pack(array("Q", values)) == sum(v << 64 * j for j, v in enumerate(values))
        assert _lane_ones(3) == 1 | 1 << 64 | 1 << 128

    def test_largest_lanes(self):
        # the largest values that fit, next to T(0) lanes and to each other
        assert LANE_ODD_MAX % 2
        assert (3 * LANE_ODD_MAX + 1) // 2 < 1 << 64 <= (3 * (LANE_ODD_MAX + 2) + 1) // 2
        values = [LANE_ODD_MAX, 0, LANE_EVEN_MAX, LANE_ODD_MAX, LANE_ODD_MAX - 2, 0, 1, 0]
        images, mask = packed_step_lanes(values)
        assert images == [_walk_shortcut_zero(x, 1)[0] for x in values]
        assert mask == [(1 << 64) - 1 if x % 2 else 0 for x in values]

    def test_zero_lanes(self):
        # T(0) = 0: a block of zeros stays zero, and a zero lane between odd
        # lanes takes nothing from them
        assert _packed_step(0, _lane_ones(LANE_BLOCK)) == (0, 0)
        images, mask = packed_step_lanes([7, 0, 7, 0])
        assert images == [11, 0, 11, 0] and mask[1] == mask[3] == 0

    @given(st.lists(st.integers(0, LANE_ODD_MAX), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_random_lanes(self, values):
        images, mask = packed_step_lanes(values)
        assert images == [_walk_shortcut_zero(x, 1)[0] for x in values]
        assert mask == [(1 << 64) - 1 if x % 2 else 0 for x in values]

    def test_full_block(self):
        values = [(x * 0x9E3779B97F4A7C15) % LANE_ODD_MAX for x in range(LANE_BLOCK)]
        images, _ = packed_step_lanes(values)
        assert images == [_walk_shortcut_zero(x, 1)[0] for x in values]


class TestShortcutConsistency:
    def test_exhaustive_to_1e5(self):
        # one odd step with exponent k is one increase then k-1 decreases
        for x in range(1, 10**5, 2):
            y, k = step_anb(x)
            v, kind = step_general(x)
            assert kind is StepKind.INCREASE
            for _ in range(k - 1):
                v, kind = step_general(v)
                assert kind is StepKind.DECREASE
            assert v == y

    @staticmethod
    def bookkeeping(x0):
        """(sum of exponents, odd steps, shortcut decreases) of the orbit of odd x0,
        from the odd walk and the shortcut trajectory separately."""
        _, exponents = odd_walk(x0)
        t = trajectory_general(x0)
        assert t.terminated is Termination.REACHED_ONE
        return sum(exponents), len(exponents), step_kinds(t.values).count(StepKind.DECREASE)

    def test_exponent_bookkeeping_exhaustive(self):
        # sum of exponents equals odd steps plus shortcut decreases, not one less
        for x0 in range(1, 2002, 2):
            total, n, decreases = self.bookkeeping(x0)
            assert total == n + decreases

    def test_report_example(self):
        assert self.bookkeeping(7) == (11, 5, 6)


class TestOddStepsExtended:
    def test_continues_through_one(self):
        values, exps = odd_steps_extended(5, 4)
        assert values == [5, 1, 1, 1, 1]
        assert exps == [4, 2, 2, 2]

    @pytest.mark.parametrize("x0", [1, 5, 7, 27, 2**61 - 1])
    def test_matches_step_odd(self, x0):
        values, exps = [x0], []
        for _ in range(150):
            y, k = step_anb(values[-1])
            values.append(y)
            exps.append(k)
        for count in (0, 1, 40, 150):
            assert odd_steps_extended(x0, count) == (values[: count + 1], exps[:count])

    def test_matches_trajectory_prefix(self):
        values, exps = odd_steps_extended(27, 10)
        t, pe = trajectory_odd(27)
        assert tuple(values) == t.values[:11]
        assert tuple(exps) == pe.exponents[:10]


class TestTypes:
    def test_derived_fields(self):
        # a record stores its values or exponents; the rest is read from them
        t = Trajectory(values=(12, 6, 3, 5), terminated=Termination.STEP_LIMIT)
        assert t.step_count == 3
        pe = ParityExponents((1, 1, 2))
        assert (pe.prefix_sums, pe.step_count) == ((0, 1, 2, 4), 3)
        assert ParityExponents(()).prefix_sums == (0,)

    def test_parity_exponents_validation(self):
        with pytest.raises(ValueError):
            ParityExponents(exponents=(0,))
        with pytest.raises(ValueError):
            ParityExponents(exponents=(2, -1))

    def test_two_adic_valuation(self):
        assert two_adic_valuation(48) == 4
        assert two_adic_valuation(1) == 0
        with pytest.raises(ValueError):
            two_adic_valuation(0)
