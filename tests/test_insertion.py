"""Insertion-size optimization against exhaustive scans."""

import random
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest

from mevsearch import insertion
from mevsearch.contracts import AmmPool, MakerBook
from mevsearch.insertion import (
    EmptyFeasibleError,
    InsertionProblem,
    bind_alpha,
    evaluate_alpha,
    has_unresolved_amount,
    optimize_alpha,
    profit_curve,
    search_with_insertion,
)
from mevsearch.metrics import PlayerDelta, Valuation
from mevsearch.ordering import _SLEEP, OrderingSpace, SearchBudget, _Tree
from mevsearch.scenario import load_scenario
from mevsearch.state import (
    CdpManipulate,
    ScenarioError,
    State,
    Swap,
    Tx,
    UnknownVenueError,
    apply_tx,
)

WAD = 10**18
DATA = Path(__file__).parent.parent / "demos" / "data"


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


def full_scan(problem):
    """(smallest best size, best value) over every size in the bounds."""
    sizes = range(problem.alpha_min, problem.alpha_max + 1)
    values = {a: evaluate_alpha(problem, a) for a in sizes}
    best = max(v for v in values.values() if v is not None)
    return min(a for a, v in values.items() if v == best), best


def test_optimize_equals_exhaustive_scan_small_range():
    problem = two_pool_problem(10_000, 10_000, 10_000, 12_000, fee=30, hi=5_000)
    result = optimize_alpha(problem)
    assert (result.alpha, result.profit) == full_scan(problem)
    assert result.profit > 0


def test_optimize_large_range_matches_small_exhaustive():
    # the guarded grid/ternary/local-scan path must find the optimum that a
    # scan of every size finds on the same instance
    problem = two_pool_problem(30_000, 30_000, 30_000, 36_000, fee=30, hi=20_000)
    guarded = optimize_alpha(problem)
    assert (guarded.alpha, guarded.profit) == full_scan(problem)


def _counterexample():
    scenario = load_scenario(DATA / "two_amm_counterexample.json")
    state = scenario.initial_state()
    objective = PlayerDelta.from_state(
        frozenset((scenario.miner_account,)), scenario.get_valuation(), state
    )
    return scenario.space(), scenario.budget, objective, state


@pytest.mark.parametrize(
    "alpha_max, alpha, value",
    [(3_000, 2_997, 494), (50_000, 49_997, 8_246), (1 << 16, 65_528, 10_808)],
)
def test_counterexample_small_ranges_keep_the_full_scan_answers(alpha_max, alpha, value):
    # (alpha, value) that a scan of every size in [1, alpha_max] finds
    space, budget, objective, state = _counterexample()
    out = search_with_insertion(space, budget, objective, state, 1, alpha_max)
    assert out.report.best_ordering == ("user-sell", "buy", "sell")
    assert (out.alpha, out.report.best_value) == (alpha, value)


def test_optimize_alpha_evaluations_stay_within_the_bound(monkeypatch):
    space, _, objective, state = _counterexample()
    skeleton = space.mempool + space.templates
    hi = 1 << 16
    problem = InsertionProblem(state, skeleton, 1, hi, objective, space.fee_policy())
    seen = []
    evaluate = insertion.evaluate_alpha

    def counting(problem, alpha):
        seen.append(alpha)
        return evaluate(problem, alpha)

    monkeypatch.setattr(insertion, "evaluate_alpha", counting)
    optimize_alpha(problem)
    # ceil(log_{3/2} range), in integers: the ternary search's iteration bound
    steps = next(t for t in range(hi) if 3**t >= hi * 2**t)
    bound = insertion.GRID_POINTS + 2 * insertion.LOCAL_SPAN + 1 + 2 * steps + 3
    assert len(seen) == len(set(seen)) <= bound < hi


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


def test_evaluation_skips_failing_user_tx_and_rejects_failing_template():
    state = State(
        {("miner", "ETH"): 50},
        {"a": AmmPool("BBT", "ETH", 10_000, 10_000, fee_bps=0)},
        0,
    )
    broke_user = Tx("u", "a", Swap("ETH", "BBT", 5))  # u holds nothing
    template = Tx("miner", "a", Swap("ETH", "BBT", None), origin="miner")
    objective = PlayerDelta.from_state(frozenset({"miner"}), Valuation(primary="ETH"), state)
    problem = InsertionProblem(state, (broke_user, template), 1, 100, objective)
    alone = InsertionProblem(state, (template,), 1, 100, objective)
    # the user's failing swap is censored-by-failure: a no-op
    assert evaluate_alpha(problem, 10) == evaluate_alpha(alone, 10) == -10
    # a template the miner cannot pay for makes the size infeasible
    assert evaluate_alpha(problem, 51) is None


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
    # the result carries the winning skeleton; resolving it at the reported
    # size reproduces the value
    assert tuple(tx.label for tx in out.skeleton) == out.report.best_ordering
    problem = InsertionProblem(state, out.skeleton, 1, 9_999, objective)
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


# ---------------------------------------------------------------------------
# The prefix-once evaluator against a whole replay
# ---------------------------------------------------------------------------


def replace_bind(txs, alpha):
    """Every open template bound through ``dataclasses.replace``."""
    return tuple(
        replace(tx, action=replace(tx.action, amount=alpha)) if has_unresolved_amount(tx) else tx
        for tx in txs
    )


def whole_replay(problem, alpha):
    """Oracle: bind the whole skeleton and replay it from the initial state,
    with the user-no-op / template-infeasible rule."""
    state = problem.state
    for tx in replace_bind(problem.skeleton, alpha):
        try:
            nxt = apply_tx(state, tx, problem.fee_policy)
        except UnknownVenueError:
            nxt = None
        if nxt is not None:
            state = nxt
        elif tx.origin != "mempool":
            return None
    return problem.objective.value(state)


def _variant(seed, index):
    """The counterexample with both pools' reserves scaled by 0.9-1.1 and
    the user's trade by 0.8-1.2 (the benchmark's insertion variants)."""
    base = load_scenario(DATA / "two_amm_counterexample.json")
    rng = random.Random(seed * 1_000_003 + 500_000 + index)
    contracts = {}
    for cid in sorted(base.contracts):
        pool = base.contracts[cid]
        contracts[cid] = replace(
            pool,
            reserve_x=pool.reserve_x * rng.randint(900, 1100) // 1000,
            reserve_y=pool.reserve_y * rng.randint(900, 1100) // 1000,
        )
    (user_tx,) = base.mempool
    amount = user_tx.action.amount * rng.randint(800, 1200) // 1000
    balances = dict(base.balances)
    balances[(user_tx.actor, user_tx.action.token_in)] = amount
    user_tx = replace(user_tx, action=replace(user_tx.action, amount=amount))
    return replace(base, contracts=contracts, balances=balances, mempool=(user_tx,))


def _with_fees():
    """The counterexample with fees charged: the user pays 0.001 ETH and each
    template 0.002 ETH to the miner."""
    base = load_scenario(DATA / "two_amm_counterexample.json")
    (user_tx,) = base.mempool
    balances = dict(base.balances)
    balances[(user_tx.actor, "ETH")] = WAD
    return replace(
        base,
        charge_fees=True,
        balances=balances,
        mempool=(replace(user_tx, fee=WAD // 1000),),
        templates=tuple(replace(t, fee=2 * WAD // 1000) for t in base.templates),
    )


DIFFERENTIAL = {
    "counterexample": lambda: load_scenario(DATA / "two_amm_counterexample.json"),
    **{f"variant{i}": (lambda i=i: _variant(0, i)) for i in range(1, 5)},
    "fees": _with_fees,
}


def _setup(scenario):
    state = scenario.initial_state()
    objective = PlayerDelta.from_state(
        frozenset((scenario.miner_account,)), scenario.get_valuation(), state
    )
    return scenario.space(), objective, state


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_prefix_once_evaluation_equals_whole_replay(name):
    scenario = DIFFERENTIAL[name]()
    space, objective, state = _setup(scenario)
    lo, hi = scenario.insertion_bounds
    rng = random.Random(name)
    sizes = insertion._geometric_grid(lo, hi, insertion.GRID_POINTS)
    sizes += [rng.randint(lo, hi) for _ in range(200)]
    tree = _Tree(space, _SLEEP, objective.tracked, state.contracts)
    open_skeletons = with_prefix = 0
    for key, _ in tree.walk(None):
        txs = tuple(tree.items[i] for i in key)
        if not any(has_unresolved_amount(tx) for tx in txs):
            continue
        open_skeletons += 1
        with_prefix += not has_unresolved_amount(txs[0])
        problem = InsertionProblem(state, txs, lo, hi, objective, space.fee_policy())
        got = [evaluate_alpha(problem, a) for a in sizes]
        assert got == [whole_replay(problem, a) for a in sizes], [tx.label for tx in txs]
    # 7 open skeletons, 4 of which start with the user's sell; with fees every
    # two transactions are dependent, and the sleep sets keep 10 and 4
    assert (open_skeletons, with_prefix) == ((10, 4) if name == "fees" else (7, 4))


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_search_with_insertion_equals_the_whole_replay_search(name, monkeypatch):
    scenario = DIFFERENTIAL[name]()
    space, objective, state = _setup(scenario)

    def run():
        out = search_with_insertion(
            space, scenario.budget, objective, state, *scenario.insertion_bounds
        )
        return out.report.best_value, out.report.best_ordering, out.alpha, out.report.paths_explored

    got = run()
    monkeypatch.setattr(insertion, "evaluate_alpha", whole_replay)
    assert got == run()
    if name == "counterexample":
        assert got == (
            123061201464936859816, ("user-sell", "buy", "sell"), 1361442650470666519273, 8
        )


def _pool_state():
    return State(
        {("miner", "ETH"): 10**6},
        {
            "a": AmmPool("BBT", "ETH", 10_000, 10_000, fee_bps=30),
            "b": AmmPool("BBT", "ETH", 10_000, 12_000, fee_bps=30),
            "book": MakerBook("DAI", "ETH", "a"),
        },
        0,
    )


BUY = Tx("miner", "a", Swap("ETH", "BBT", None, exact_out=True), origin="miner", label="buy")
SELL = Tx("miner", "b", Swap("BBT", "ETH", None), origin="miner", label="sell")


def _problem(state, skeleton):
    objective = PlayerDelta.from_state(frozenset({"miner"}), Valuation(primary="ETH"), state)
    return InsertionProblem(state, skeleton, 1, 5_000, objective)


def test_a_failing_template_in_the_prefix_makes_every_size_infeasible():
    state = _pool_state()
    # a concrete miner template paying more ETH than the miner holds
    broke = Tx("miner", "a", Swap("ETH", "BBT", 10**7), origin="miner")
    problem = _problem(state, (broke, BUY, SELL))
    for alpha in (1, 100, 5_000):
        assert evaluate_alpha(problem, alpha) is None
        assert whole_replay(problem, alpha) is None
    with pytest.raises(EmptyFeasibleError):
        optimize_alpha(problem)


def test_a_prefix_that_raises_raises_on_every_evaluation():
    state = _pool_state()
    bogus = Tx("u", "book", CdpManipulate("bogus", 1))
    problem = _problem(state, (bogus, BUY, SELL))
    for _ in range(2):
        with pytest.raises(ScenarioError, match="unknown CDP action"):
            evaluate_alpha(problem, 10)


def test_the_prefix_is_applied_once_per_problem(monkeypatch):
    state = _pool_state()
    state.balances[("u", "BBT")] = 500
    prefix = (
        Tx("u", "a", Swap("BBT", "ETH", 300), label="u1"),
        Tx("u", "a", Swap("BBT", "ETH", 400), label="u2"),  # fails: a no-op
        Tx("miner", "b", Swap("ETH", "BBT", 50), origin="miner", label="m"),
    )
    problem = _problem(state, prefix + (BUY, SELL))
    applied = []
    apply = insertion.apply_tx

    def counting(state, tx, fee_policy=None):
        applied.append(tx)
        return apply(state, tx, fee_policy)

    monkeypatch.setattr(insertion, "apply_tx", counting)
    sizes = range(1, 201)
    got = [evaluate_alpha(problem, a) for a in sizes]
    assert sum(1 for tx in applied if tx in prefix) == len(prefix)
    assert len(applied) - len(prefix) <= 2 * len(sizes)
    monkeypatch.setattr(insertion, "apply_tx", apply)
    assert got == [whole_replay(problem, a) for a in sizes]


@pytest.mark.parametrize("exact_out", [True, False])
def test_bind_alpha_keeps_every_field_that_replace_keeps(exact_out):
    template = Tx(
        "miner", "a", Swap("ETH", "BBT", None, exact_out=exact_out),
        origin="miner", label="buy", fee=7, arrival_block=2,
    )
    # every defaulted field is set away from its default, so a field that
    # binding drops would show
    for obj in (template, template.action):
        for f in fields(obj):
            if f.default is not MISSING and not (f.name == "exact_out" and not exact_out):
                assert getattr(obj, f.name) != f.default, f.name
    (bound,) = bind_alpha((template,), 55)
    (expected,) = replace_bind((template,), 55)
    for f in fields(Tx):
        assert getattr(bound, f.name) == getattr(expected, f.name), f.name
    for f in fields(Swap):
        assert getattr(bound.action, f.name) == getattr(expected.action, f.name), f.name
    assert type(bound) is Tx and type(bound.action) is Swap
