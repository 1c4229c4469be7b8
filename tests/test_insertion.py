"""Insertion-size optimization against exhaustive scans."""

import pytest

from mevsearch.contracts import AmmPool
from mevsearch.insertion import (
    EmptyFeasibleError,
    InsertionProblem,
    bind_alpha,
    evaluate_alpha,
    optimize_alpha,
    profit_curve,
    search_with_insertion,
)
from mevsearch.metrics import PlayerDelta, Valuation
from mevsearch.ordering import OrderingSpace, SearchBudget
from mevsearch.state import State, Swap, Tx

WAD = 10**18


def two_pool_problem(a_bbt, a_eth, b_bbt, b_eth, fee=30, lo=1, hi=None, miner_eth=10**30):
    """Miner buys size on pool A (exact out) and sells it on pool B."""
    state = State(
        {("miner", "ETH"): miner_eth},
        {
            "a": AmmPool("BBT", "ETH", a_bbt, a_eth, fee_bps=fee),
            "b": AmmPool("BBT", "ETH", b_bbt, b_eth, fee_bps=fee),
        },
        0,
    )
    skeleton = (
        Tx("miner", "a", Swap("ETH", "BBT", None, exact_out=True), origin="miner"),
        Tx("miner", "b", Swap("BBT", "ETH", None), origin="miner"),
    )
    objective = PlayerDelta.from_state(frozenset({"miner"}), Valuation(primary="ETH"), state)
    return InsertionProblem(state, skeleton, lo, hi or (a_bbt - 1), objective)


def test_bind_alpha_fills_only_open_templates():
    concrete = Tx("u", "a", Swap("ETH", "BBT", 7))
    open_tx = Tx("miner", "a", Swap("ETH", "BBT", None), origin="miner")
    bound = bind_alpha((concrete, open_tx), 55)
    assert bound[0].action.amount == 7
    assert bound[1].action.amount == 55


def test_optimize_equals_exhaustive_scan_small_range():
    problem = two_pool_problem(10_000, 10_000, 10_000, 12_000, fee=30, hi=5_000)
    values = {a: evaluate_alpha(problem, a) for a in range(1, 5_001)}
    feasible = {a: v for a, v in values.items() if v is not None}
    best_alpha = min(a for a, v in feasible.items() if v == max(feasible.values()))
    result = optimize_alpha(problem)
    assert result.alpha == best_alpha
    assert result.profit == max(feasible.values())
    assert result.profit > 0


def test_optimize_large_range_matches_small_exhaustive():
    # the guarded ternary/grid path must find the same optimum that a forced
    # exhaustive scan finds on the same instance
    problem = two_pool_problem(30_000, 30_000, 30_000, 36_000, fee=30, hi=20_000)
    guarded = optimize_alpha(problem, exhaustive_range=1)  # force grid+ternary
    exact = optimize_alpha(problem)  # 20k candidates: exhaustive
    assert guarded.profit == exact.profit
    assert guarded.alpha == exact.alpha


def test_aligned_pools_with_fees_never_profit():
    problem = two_pool_problem(10_000 * WAD, 10_000 * WAD, 10_000 * WAD, 10_000 * WAD, fee=30)
    result = optimize_alpha(problem)
    assert result.profit <= 0


def test_curve_maximum_below_optimum_and_small_sizes_lose():
    problem = two_pool_problem(10_000 * WAD, 10_000 * WAD, 10_000 * WAD, 12_000 * WAD, fee=30)
    curve = profit_curve(problem, samples=64)
    result = optimize_alpha(problem)
    feasible = [p for _, p in curve if p is not None]
    assert max(feasible) <= result.profit
    # tiny trades lose to fees and rounding
    assert curve[0][1] <= 0


def test_positive_region_is_contiguous_on_misaligned_pools():
    problem = two_pool_problem(10_000 * WAD, 10_000 * WAD, 10_000 * WAD, 12_000 * WAD, fee=30)
    signs = [p is not None and p > 0 for _, p in profit_curve(problem, samples=96)]
    # one maximal positive run
    runs = sum(1 for i in range(1, len(signs)) if signs[i] and not signs[i - 1])
    assert runs + (1 if signs[0] else 0) == 1


def test_symmetry_under_pool_relabeling():
    p1 = two_pool_problem(9_000, 11_000, 14_000, 13_000, fee=30, hi=8_000)
    # swap the pool labels and the trade direction consistently
    state = State(
        {("miner", "ETH"): 10**30},
        {
            "a": AmmPool("BBT", "ETH", 14_000, 13_000, fee_bps=30),
            "b": AmmPool("BBT", "ETH", 9_000, 11_000, fee_bps=30),
        },
        0,
    )
    skeleton = (
        Tx("miner", "b", Swap("ETH", "BBT", None, exact_out=True), origin="miner"),
        Tx("miner", "a", Swap("BBT", "ETH", None), origin="miner"),
    )
    objective = PlayerDelta.from_state(frozenset({"miner"}), Valuation(primary="ETH"), state)
    p2 = InsertionProblem(state, skeleton, 1, 8_000, objective)
    r1, r2 = optimize_alpha(p1), optimize_alpha(p2)
    assert (r1.alpha, r1.profit) == (r2.alpha, r2.profit)


def test_infeasible_bounds_raise():
    problem = two_pool_problem(1_000, 1_000, 1_000, 1_200, fee=30, miner_eth=0, hi=500)
    with pytest.raises(EmptyFeasibleError):
        optimize_alpha(problem)


def test_strict_evaluation_rejects_failing_concrete_tx():
    state = State(
        {("miner", "ETH"): 10**12},
        {"a": AmmPool("BBT", "ETH", 10_000, 10_000, fee_bps=0)},
        0,
    )
    broke_user = Tx("u", "a", Swap("ETH", "BBT", 5))  # u holds nothing
    template = Tx("miner", "a", Swap("ETH", "BBT", None), origin="miner")
    objective = PlayerDelta.from_state(frozenset({"miner"}), Valuation(primary="ETH"), state)
    problem = InsertionProblem(state, (broke_user, template), 1, 100, objective)
    assert evaluate_alpha(problem, 10) is None


def test_joint_search_orders_insertion_after_user_dump():
    # the miner's buy must come after the user's sell to capture the dip
    state = State(
        {("u", "BBT"): 2_000, ("miner", "ETH"): 10**9},
        {
            "a": AmmPool("BBT", "ETH", 10_000, 10_000, fee_bps=30),
            "b": AmmPool("BBT", "ETH", 100_000, 100_000, fee_bps=30),
        },
        0,
    )
    user = Tx("u", "a", Swap("BBT", "ETH", 2_000))
    buy = Tx("miner", "a", Swap("ETH", "BBT", None, exact_out=True), origin="miner")
    sell = Tx("miner", "b", Swap("BBT", "ETH", None), origin="miner")
    space = OrderingSpace(mempool=(user,), templates=(buy, sell), allow_insert=True)
    objective = PlayerDelta.from_state(frozenset({"miner"}), Valuation(primary="ETH"), state)
    out = search_with_insertion(space, SearchBudget(mode="exhaustive"), objective, state, 1, 9_999)
    assert out.report.best_value > 0
    assert out.report.best_ordering[0] == "m0"
    assert out.alpha is not None
    # resolving the winning skeleton at the reported size reproduces the value
    items = {tx.label: tx for tx in space.labeled().mempool + space.labeled().templates}
    skeleton = tuple(items[lbl] for lbl in out.report.best_ordering)
    problem = InsertionProblem(state, skeleton, 1, 9_999, objective)
    assert evaluate_alpha(problem, out.alpha) == out.report.best_value


def test_skeleton_cap_stops_the_enumeration(monkeypatch):
    from mevsearch import ordering
    from mevsearch.insertion import MAX_SKELETONS
    from mevsearch.state import ScenarioError

    walked = []
    walk = ordering._Tree.walk

    def counting_walk(self, *args, **kwargs):
        for item in walk(self, *args, **kwargs):
            walked.append(item[0])
            yield item

    monkeypatch.setattr(ordering._Tree, "walk", counting_walk)
    # 8! = 40,320 orderings with pruning off; every swap hits an unknown
    # venue, so each skeleton is cheap to evaluate
    mempool = tuple(Tx(f"u{i}", "nowhere", Swap("BBT", "ETH", 1 + i)) for i in range(8))
    state = State({}, {}, 0)
    objective = PlayerDelta.from_state(frozenset({"miner"}), Valuation(primary="ETH"), state)
    with pytest.raises(ScenarioError, match="small ordering space"):
        search_with_insertion(
            OrderingSpace(mempool=mempool), SearchBudget(mode="exhaustive"), objective, state, 1, 10
        )
    # the enumeration is lazy: it stops at the first skeleton over the cap
    assert len(walked) == MAX_SKELETONS + 1
