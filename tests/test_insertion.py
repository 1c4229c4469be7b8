"""Insertion-size optimization against exhaustive scans."""

import random
from dataclasses import MISSING, fields, replace
from fractions import Fraction
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
from mevsearch.metrics import AccountBalanceValue, PlayerDelta, Valuation
from mevsearch.ordering import _FULL, _SLEEP, OrderingSpace, SearchBudget, _Tree
from mevsearch.scenario import load_scenario
from mevsearch.state import (
    AddLiquidity,
    CdpManipulate,
    FeePolicy,
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
    for key in tree.walk():
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


# ---------------------------------------------------------------------------
# The integer tail kernel against a whole replay
# ---------------------------------------------------------------------------


def _swap_tail_case(seed):
    """A skeleton of swaps only, in a random order, with its bounds: 1-3
    pools (one sometimes with an empty reserve, and small reserves against
    size-1 trades give zero outputs), 1-3 open miner templates, exact-in and
    exact-out, that may share a pool and whose budget can run out mid-tail,
    sometimes a concrete miner swap, and user swaps, exact-in or exact-out,
    that succeed, fail on their balance, name a token the pool does not hold,
    trade a token for itself or trade nothing; a user is sometimes tracked."""
    rng = random.Random(seed)
    contracts = {}
    for i in range(rng.randint(1, 3)):
        contracts[f"p{i}"] = AmmPool(
            rng.choice(("BBT", "CCT")), "ETH",
            rng.randint(5_000, 50_000), rng.randint(5_000, 50_000), fee_bps=rng.randint(0, 30),
        )
    pools = sorted(contracts)
    if rng.random() < 0.2:
        contracts["p0"] = replace(contracts["p0"], reserve_y=0)
    balances = {
        ("miner", "ETH"): rng.choice((10**6, rng.randint(100, 5_000))),
        ("miner", "BBT"): rng.randint(0, 5_000),
    }
    txs = []
    for u in range(rng.randint(1, 3)):
        venue = rng.choice(pools)
        token_in, token_out = rng.sample((contracts[venue].token_x, contracts[venue].token_y), 2)
        odd = rng.random()
        if odd < 0.1:
            token_out = "DAI"
        elif odd < 0.2:
            token_in = "DAI"
        elif odd < 0.3:
            token_out = token_in
        amount = 0 if rng.random() < 0.1 else rng.randint(1, 3_000)
        balances[(f"u{u}", token_in)] = rng.choice((amount, amount // 2, 10**6))
        txs.append(Tx(
            f"u{u}", venue, Swap(token_in, token_out, amount, rng.random() < 0.3),
            label=f"u{u}",
        ))
    for t in range(rng.randint(1, 3)):
        venue = rng.choice(pools)
        token_in, token_out = rng.sample((contracts[venue].token_x, contracts[venue].token_y), 2)
        amount = rng.randint(1, 2_000) if t == 2 and rng.random() < 0.5 else None
        txs.append(Tx(
            "miner", venue, Swap(token_in, token_out, amount, rng.random() < 0.5),
            origin="miner", label=f"t{t}",
        ))
    rng.shuffle(txs)
    open_at = [i for i, tx in enumerate(txs) if has_unresolved_amount(tx)]
    if not open_at:
        txs.append(Tx("miner", pools[0], Swap("ETH", contracts[pools[0]].token_x, None),
                      origin="miner", label="open"))
    elif rng.random() < 0.5:
        txs.insert(0, txs.pop(open_at[-1]))  # the whole skeleton is the tail
    tracked = frozenset({"miner", "u0"} if rng.random() < 0.5 else {"miner"})
    if rng.random() < 0.3:
        valuation = Valuation("ETH")
    else:
        prices = {t: Fraction(rng.randint(0, 30), rng.randint(1, 10)) for t in ("BBT", "CCT")}
        valuation = Valuation("ETH", "oracle_priced", prices)
    state = State(balances, contracts, 0)
    objective = PlayerDelta.from_state(tracked, valuation, state)
    lo = rng.choice((1, rng.randint(1, 50)))
    hi = rng.randint(lo, 300) if rng.random() < 0.3 else rng.randint(10**4, 10**6)
    return InsertionProblem(state, tuple(txs), lo, hi, objective)


def _odd_swaps_case():
    """Both templates on pool a with user swaps between them on a that
    must fail (a foreign token in or out, a token for itself, a zero
    amount either way, too little balance), a tracked user's swap that
    succeeds, and a zero-output trade."""
    state = _pool_state()
    users = [  # (token_in, token_out, amount, exact_out, balance)
        ("DAI", "ETH", 500, False, 10**6), ("BBT", "DAI", 500, False, 10**6),
        ("ETH", "ETH", 500, False, 10**6), ("BBT", "ETH", 0, True, 10**6),
        ("ETH", "BBT", 0, False, 10**6), ("BBT", "ETH", 500, False, 100),
        ("ETH", "BBT", 300, False, 10**6), ("BBT", "ETH", 1, False, 1),
    ]
    middle = []
    for u, (token_in, token_out, amount, exact_out, balance) in enumerate(users):
        state.balances[(f"u{u}", token_in)] = balance
        middle.append(Tx(f"u{u}", "a", Swap(token_in, token_out, amount, exact_out)))
    valuation = Valuation("ETH", "oracle_priced", {"BBT": Fraction(1, 3)})
    objective = PlayerDelta.from_state(frozenset({"miner", "u6"}), valuation, state)
    skeleton = (BUY, *middle, replace(SELL, venue="a"))
    return InsertionProblem(state, skeleton, 1, 5_000, objective)


def test_the_tail_kernel_equals_whole_replay():
    infeasible = feasible = users_in_tail = shared_pools = sized_templates = 0
    problems = [_swap_tail_case(seed) for seed in range(60)] + [_odd_swaps_case()]
    for seed, problem in enumerate(problems):
        lo, hi = problem.alpha_min, problem.alpha_max
        rng = random.Random(seed)
        center = rng.randint(lo, hi)
        sizes = sorted(
            {lo, hi}
            | set(insertion._geometric_grid(lo, hi, insertion.GRID_POINTS))
            | {rng.randint(lo, hi) for _ in range(64)}
            | set(range(max(lo, center - insertion.LOCAL_SPAN),
                        min(hi, center + insertion.LOCAL_SPAN) + 1))
        )
        got = [evaluate_alpha(problem, a) for a in sizes]
        assert got == [whole_replay(problem, a) for a in sizes], seed
        state, tail = problem._prefix
        assert state is None or problem._kernel is not None
        infeasible += None in got
        feasible += got.count(None) < len(got)
        users_in_tail += any(tx.origin == "mempool" for tx in tail)
        shared_pools += len({tx.venue for tx in tail}) < len(tail)
        # a template with its own size, which the kernel must not size with alpha
        sized_templates += state is not None and any(
            tx.origin != "mempool" and not has_unresolved_amount(tx) for tx in tail
        )
    assert min(infeasible, feasible, users_in_tail, shared_pools, sized_templates) >= 5


def test_the_counterexample_takes_the_kernel(monkeypatch):
    space, _, objective, state = _counterexample()
    lo, hi = 1, 10**22 - 1
    rng = random.Random(0)
    sizes = [rng.randint(lo, hi) for _ in range(200)]
    problems = [problem for _, _, problem in _open_problems(space, state, objective, hi)]
    for problem in problems:
        problem._prefix

    def refuse(*args):
        raise AssertionError("apply_tx called")

    monkeypatch.setattr(insertion, "apply_tx", refuse)
    for problem in problems:
        assert problem._kernel is not None
        assert [evaluate_alpha(problem, a) for a in sizes] == [
            whole_replay(problem, a) for a in sizes
        ]


def test_sizing_the_counterexample_evaluates_a_pinned_set_and_binds_nothing(monkeypatch):
    space, budget, objective, state = _counterexample()
    seen = []
    evaluate = insertion.evaluate_alpha

    def counting(problem, alpha):
        seen.append(alpha)
        return evaluate(problem, alpha)

    def refuse(*args):
        raise AssertionError("bind_alpha called")

    monkeypatch.setattr(insertion, "evaluate_alpha", counting)
    monkeypatch.setattr(insertion, "bind_alpha", refuse)
    out = search_with_insertion(space, budget, objective, state, 1, 10**22 - 1)
    assert (out.alpha, out.report.best_value) == (1361442650470666519273, 123061201464936859816)
    assert len(seen) == len(set(seen)) == 5_288


@pytest.mark.parametrize(
    "case", ["fee_policy", "non_swap_item", "swap_at_a_book", "not_a_player_delta"]
)
def test_the_kernel_is_not_taken_outside_its_conditions(case):
    state = _pool_state()
    state.balances[("u", "BBT")] = 500
    skeleton, fee_policy = (BUY, SELL), None
    objective = PlayerDelta.from_state(frozenset({"miner"}), Valuation(primary="ETH"), state)
    if case == "fee_policy":
        skeleton = (replace(BUY, fee=3), replace(SELL, fee=3))
        fee_policy = FeePolicy("collector", "ETH")
    elif case == "non_swap_item":
        skeleton = (BUY, Tx("miner", "a", AddLiquidity(100, 100), origin="miner"), SELL)
    elif case == "swap_at_a_book":
        skeleton = (BUY, Tx("u", "book", Swap("BBT", "ETH", 10)), SELL)
    else:
        objective = AccountBalanceValue("miner", Valuation(primary="ETH"))
    problem = InsertionProblem(state, skeleton, 1, 5_000, objective, fee_policy)
    sizes = range(1, 5_001, 7)
    assert [evaluate_alpha(problem, a) for a in sizes] == [whole_replay(problem, a) for a in sizes]
    assert problem._kernel is None


# ---------------------------------------------------------------------------
# The no-rounding bound
# ---------------------------------------------------------------------------


def _random_case(seed):
    """A small insertion space: 1-3 pools with fees of 0-30 bps, a side pool
    no template trades on, 1-2 user swaps and 1-2 open miner templates,
    valued primary-only or with oracle prices >= 0.  Templates usually trade
    on distinct pools."""
    rng = random.Random(seed)
    contracts = {
        f"p{i}": AmmPool(
            rng.choice(("BBT", "CCT")), "ETH", rng.randint(5_000, 50_000),
            rng.randint(5_000, 50_000), fee_bps=rng.randint(0, 30),
        )
        for i in range(rng.randint(1, 3))
    }
    pools = sorted(contracts)
    contracts["side"] = AmmPool("BBT", "ETH", 20_000, 20_000, fee_bps=30)
    balances = {("miner", "ETH"): 10**6, ("miner", "BBT"): rng.randint(0, 5_000)}
    mempool = []
    for u in range(rng.randint(1, 2)):
        venue = rng.choice(pools + ["side"])
        pool = contracts[venue]
        token_in, token_out = rng.sample((pool.token_x, pool.token_y), 2)
        amount = rng.randint(100, 3_000)
        balances[(f"u{u}", token_in)] = rng.choice((amount, amount // 2))
        mempool.append(Tx(f"u{u}", venue, Swap(token_in, token_out, amount)))
    n_templates = rng.randint(1, 2)
    if rng.random() < 0.8:
        venues = rng.sample(pools, min(n_templates, len(pools)))
    else:
        venues = [rng.choice(pools) for _ in range(n_templates)]
    templates = []
    for venue in venues:
        pool = contracts[venue]
        token_in, token_out = rng.sample((pool.token_x, pool.token_y), 2)
        templates.append(Tx(
            "miner", venue, Swap(token_in, token_out, None, exact_out=rng.random() < 0.5),
            origin="miner",
        ))
    if rng.random() < 0.3:
        valuation = Valuation("ETH")
    else:
        prices = {t: Fraction(rng.randint(0, 30), rng.randint(1, 10)) for t in ("BBT", "CCT")}
        valuation = Valuation("ETH", "oracle_priced", prices)
    state = State(balances, contracts, 0)
    objective = PlayerDelta.from_state(frozenset({"miner"}), valuation, state)
    space = OrderingSpace(mempool=tuple(mempool), templates=tuple(templates), allow_insert=True)
    hi = rng.randint(20, 300) if rng.random() < 0.5 else rng.randint(10**4, 10**5)
    return space, state, objective, hi


def _open_problems(space, state, objective, hi):
    """(key, problem) for every open skeleton the insertion search walks."""
    tree = _Tree(space, _FULL, objective.tracked, state.contracts)
    for key in tree.walk():
        txs = tuple(tree.items[i] for i in key)
        if any(has_unresolved_amount(tx) for tx in txs):
            yield tree, key, InsertionProblem(state, txs, 1, hi, objective, space.fee_policy())


def test_no_size_is_worth_more_than_the_bound():
    bounded = infeasible = with_dropped_users = 0
    for seed in range(60):
        case = _random_case(seed)
        rng = random.Random(seed)
        for tree, key, problem in _open_problems(*case):
            lo, hi = problem.alpha_min, problem.alpha_max
            sizes = insertion._geometric_grid(lo, hi, 64) + [rng.randint(lo, hi) for _ in range(64)]
            try:
                bound = insertion._value_bound(problem, tree, key)
            except EmptyFeasibleError:
                infeasible += 1
                assert all(evaluate_alpha(problem, a) is None for a in sizes)
                continue
            if bound is None:
                continue
            bounded += 1
            _, tail = problem._prefix
            with_dropped_users += any(tx.origin == "mempool" for tx in tail)
            for a in sizes:
                value = evaluate_alpha(problem, a)
                assert value is None or value <= bound, (seed, key, a)
    assert bounded >= 100 and infeasible >= 20 and with_dropped_users >= 10


def _bound_outcome(problem, tree, key):
    try:
        return insertion._value_bound(problem, tree, key)
    except EmptyFeasibleError:
        return "infeasible"


def test_the_seeded_bound_equals_the_binary_search(monkeypatch):
    problems = []
    for seed in range(60):
        problems += _open_problems(*_random_case(seed))
    for name in sorted(DIFFERENTIAL):
        space, objective, state = _setup(DIFFERENTIAL[name]())
        problems += _open_problems(space, state, objective, 10**22 - 1)
    seeded = insertion._seeded_argmax
    accepted = []

    def recording(*args):
        alpha = seeded(*args)
        accepted.append(alpha is not None)
        return alpha

    monkeypatch.setattr(insertion, "_seeded_argmax", recording)
    got = [_bound_outcome(problem, tree, key) for tree, key, problem in problems]
    monkeypatch.setattr(insertion, "_seeded_argmax", lambda *args: None)
    assert got == [_bound_outcome(problem, tree, key) for tree, key, problem in problems]
    assert sum(isinstance(bound, int) for bound in got) >= 100
    assert accepted.count(True) >= 100 and accepted.count(False) <= len(accepted) // 10


def test_a_bound_beyond_float_range_falls_back_to_the_binary_search(monkeypatch):
    # The first template is exact-input, so the range stays [1, 10^400]: no
    # float estimate of U' can be formed there.
    state = _pool_state()
    state.balances[("miner", "ETH")] = 10**401
    state.balances[("miner", "BBT")] = 10**6
    sell = Tx("miner", "a", Swap("ETH", "BBT", None), origin="miner", label="sell-eth")
    space = OrderingSpace(mempool=(), templates=(sell, SELL), allow_insert=True)
    objective = PlayerDelta.from_state(frozenset({"miner"}), Valuation("ETH"), state)
    tree = _Tree(space, _SLEEP, objective.tracked, state.contracts)
    key = (0, 1)
    problem = InsertionProblem(state, (sell, SELL), 1, 10**400, objective)
    seeds = []
    seeded = insertion._seeded_argmax
    monkeypatch.setattr(insertion, "_seeded_argmax", lambda *args: seeds.append(seeded(*args)))
    bound = insertion._value_bound(problem, tree, key)
    assert seeds == [None]
    assert isinstance(bound, int)
    values = [evaluate_alpha(problem, a) for a in (1, 10, 10**3, 10**200, 10**400)]
    assert all(value is None or value <= bound for value in values)
    assert values[0] is not None


def _bound_of(space, state, objective, labels):
    tree = _Tree(space, _SLEEP, objective.tracked, state.contracts)
    index = {tx.label: i for i, tx in enumerate(tree.items)}
    key = tuple(index[label] for label in labels)
    txs = tuple(tree.items[i] for i in key)
    problem = InsertionProblem(state, txs, 1, 5_000, objective, space.fee_policy())
    return insertion._value_bound(problem, tree, key)


def _bound_case(**changes):
    """Buy on pool a, sell on pool b, and a user's swap on a side pool c;
    ``changes`` alter the base case."""
    state = State(
        {("miner", "ETH"): 10**6, ("u", "BBT"): 1_000},
        {
            "a": AmmPool("BBT", "ETH", 10_000, 10_000, fee_bps=30),
            "b": AmmPool("BBT", "ETH", 10_000, 12_000, fee_bps=30),
            "c": AmmPool("BBT", "ETH", 10_000, 10_000, fee_bps=30),
        },
        0,
    )
    case = {
        "user": Tx("u", "c", Swap("BBT", "ETH", 500), label="user"),
        "templates": (BUY, SELL),
        "tracked": frozenset({"miner"}),
        "valuation": Valuation("ETH", "oracle_priced", {"BBT": Fraction(1, 3)}),
        "objective": PlayerDelta,
        "charge_fees": False,
        "labels": ("buy", "user", "sell"),
    }
    case.update(changes)
    space = OrderingSpace(
        mempool=(case["user"],), templates=case["templates"], allow_insert=True,
        charge_fees=case["charge_fees"], fee_token="ETH",
    )
    if case["objective"] is PlayerDelta:
        objective = PlayerDelta.from_state(case["tracked"], case["valuation"], state)
    else:
        objective = AccountBalanceValue("miner", case["valuation"])
    return _bound_of(space, state, objective, case["labels"])


def test_the_base_case_has_a_bound():
    # The user's swap commutes past the sell and is dropped.
    assert isinstance(_bound_case(), int)
    assert isinstance(_bound_case(labels=("user", "buy", "sell")), int)


@pytest.mark.parametrize(
    "changes",
    [
        {"charge_fees": True},
        {"valuation": Valuation("ETH", "oracle_priced", {"BBT": Fraction(-1, 3)})},
        {"templates": (BUY, replace(SELL, venue="a"))},
        {"user": Tx("u", "b", Swap("BBT", "ETH", 500), label="user")},
        {"tracked": frozenset({"miner", "u"})},
        {"objective": AccountBalanceValue},
    ],
    ids=[
        "fee_policy", "negative_price", "two_templates_on_one_pool",
        "user_swap_sandwiched_on_the_templates_pool", "tracked_user_in_the_tail",
        "not_a_player_delta",
    ],
)
def test_no_bound_outside_its_conditions(changes):
    assert _bound_case(**changes) is None


def _searches_with_and_without_the_bound(monkeypatch, cases):
    """Each case's search with the bound, then with it disabled, and the
    number of skeletons each run sized."""
    sized = []
    optimize = insertion.optimize_alpha

    def counting(problem):
        sized.append(problem.skeleton)
        return optimize(problem)

    monkeypatch.setattr(insertion, "optimize_alpha", counting)
    runs = []
    for disabled in (False, True):
        if disabled:
            monkeypatch.setattr(insertion, "_value_bound", lambda *args: None)
        results = []
        for space, state, objective, hi in cases:
            try:
                results.append(search_with_insertion(
                    space, SearchBudget(mode="exhaustive"), objective, state, 1, hi
                ))
            except EmptyFeasibleError as e:
                results.append(repr(e))
        runs.append((results, len(sized)))
        del sized[:]
    return runs


def test_the_bound_changes_no_search_result(monkeypatch):
    cases = []
    for seed in range(40):
        space, state, objective, hi = _random_case(seed)
        cases.append((space, state, objective, min(hi, 300)))
    for name in sorted(DIFFERENTIAL):
        scenario = DIFFERENTIAL[name]()
        space, objective, state = _setup(scenario)
        cases.append((space, state, objective, scenario.insertion_bounds[1]))
    (bounded, sized_bounded), (unbounded, sized_unbounded) = (
        _searches_with_and_without_the_bound(monkeypatch, cases)
    )
    assert bounded == unbounded
    assert sized_bounded < sized_unbounded


@pytest.mark.parametrize("censor", [False, True])
def test_the_insertion_walk_yields_increasing_keys(censor):
    # A skeleton whose bound ties the incumbent is skipped: its larger key
    # would lose the tie-break.
    spaces = [(_counterexample()[0], _counterexample()[3])]
    spaces += [_random_case(seed)[:2] for seed in range(20)]
    for space, state in spaces:
        space = replace(space, allow_censor=censor)
        for reduction in (0, _SLEEP, _FULL):
            tree = _Tree(space, reduction, frozenset({"miner"}), state.contracts)
            keys = list(tree.walk())
            assert len(keys) > 1
            assert all(a < b for a, b in zip(keys, keys[1:]))
