import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spamlab.evalcli import (
    ConfusionCounts,
    FilterResult,
    far,
    frr,
    rank,
    wrongness,
)
from spamlab.filters import Level


def result(name, far_value, frr_value, level=Level.USER):
    return FilterResult(
        name=name,
        level=level,
        counts=ConfusionCounts(),
        far=far_value,
        frr=frr_value,
        wrongness=wrongness(far_value, frr_value),
    )


class TestFar:
    def test_perfect_filter(self):
        assert far(ConfusionCounts(ss=10, sh=0, hs=0, hh=5)) == 0.0

    def test_ratio(self):
        assert far(ConfusionCounts(ss=86, sh=14)) == pytest.approx(0.14)

    def test_no_spam_evaluated(self):
        assert far(ConfusionCounts(hs=1, hh=9)) is None


class TestFrr:
    def test_block_all_filter(self):
        c = ConfusionCounts(ss=40, sh=0, hs=100, hh=0)
        assert frr(c) == 1.0
        assert far(c) == 0.0

    def test_pass_all_filter(self):
        c = ConfusionCounts(ss=0, sh=40, hs=0, hh=100)
        assert frr(c) == 0.0
        assert far(c) == 1.0

    def test_ratio(self):
        assert frr(ConfusionCounts(ss=1, sh=1, hs=1, hh=99)) == pytest.approx(0.01)

    def test_no_ham_evaluated(self):
        assert frr(ConfusionCounts(ss=3, sh=1)) is None


class TestWrongness:
    def test_perfect_filter_scores_eps_cubed(self):
        assert wrongness(0.0, 0.0) == pytest.approx(1e-6)

    def test_zero_frr_row(self):
        # (0.01)^2 * 0.643
        assert wrongness(0.633, 0.0) == pytest.approx(6.43e-5)

    def test_low_far_row(self):
        assert wrongness(0.144, 0.0) == pytest.approx(1.54e-5)

    def test_blocking_everything_is_worse_than_passing_everything(self):
        assert wrongness(0.0, 1.0) > wrongness(1.0, 0.0)

    def test_strictly_monotone_on_grid(self):
        grid = [i / 10 for i in range(11)]
        for a, b in itertools.combinations(grid, 2):
            for fixed in grid:
                assert wrongness(a, fixed) < wrongness(b, fixed)
                assert wrongness(fixed, a) < wrongness(fixed, b)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_positive(self, far_value, frr_value):
        assert wrongness(far_value, frr_value) > 0


class TestRank:
    def test_single_result(self):
        r = result("only", 0.1, 0.0)
        assert rank([r]) == [r]

    def test_orders_by_wrongness(self):
        volume = result("volume", 0.633, 0.0)      # W*1e5 = 6.43
        content = result("content", 0.144, 0.0)    # W*1e5 = 1.54
        assert [r.name for r in rank([volume, content])] == ["content", "volume"]

    def test_ties_break_by_name(self):
        a = result("a", 0.2, 0.0)
        b = result("b", 0.2, 0.0)
        assert [r.name for r in rank([b, a])] == ["a", "b"]

    def test_is_a_permutation(self):
        results = [result(f"f{i}", (i * 7 % 10) / 10, (i % 4) / 100)
                   for i in range(12)]
        ranked = rank(results)
        assert sorted(id(r) for r in ranked) == sorted(id(r) for r in results)

    # rates on a 1e-4 grid: differences below float resolution of
    # (frr+eps)^2 would tie W and make dominance unobservable
    _rate = st.integers(0, 10000).map(lambda v: v / 10000)

    @given(st.lists(st.tuples(_rate, _rate), min_size=2, max_size=8))
    def test_dominating_filter_ranks_first(self, pairs):
        results = [
            result(f"f{i}", far_value, frr_value)
            for i, (far_value, frr_value) in enumerate(pairs)
        ]
        ranked = rank(results)
        position = {r.name: i for i, r in enumerate(ranked)}
        for a in results:
            for b in results:
                dominates = (
                    a.far <= b.far and a.frr <= b.frr
                    and (a.far < b.far or a.frr < b.frr)
                )
                if dominates:
                    assert position[a.name] < position[b.name]

    def test_missing_wrongness_sorts_last(self):
        degenerate = FilterResult(
            name="deg", level=Level.USER, counts=ConfusionCounts(),
            far=None, frr=0.0, wrongness=None,
        )
        ok = result("ok", 0.9, 0.02)
        assert rank([degenerate, ok])[-1] is degenerate
