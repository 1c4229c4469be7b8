"""EV, k-MEV, weighted MEV, and ordering spreads."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from mevsearch.contracts import AmmPool, Pricebet
from mevsearch.metrics import (
    MinerModel,
    PlayerDelta,
    Valuation,
    ev,
    value_spread,
    wmev,
)
from mevsearch.ordering import OrderingSpace, SearchBudget
from mevsearch.state import Bet, GetReward, State, Swap, Tx, apply_sequence

from conftest import unpruned_search

EXH = SearchBudget(mode="exhaustive")


def miner(accounts=("miner",), **kw):
    return MinerModel(accounts=frozenset(accounts), **kw)


def test_ev_empty_space_is_zero():
    state = State({("miner", "ETH"): 100}, {"amm": AmmPool("BBT", "ETH", 100, 100, 0)}, 0)
    space = OrderingSpace(mempool=())
    report = ev(miner(), space, state, Valuation(primary="ETH"), EXH)
    assert report.best_value == 0 and report.exhaustive


def test_ev_arbitrage_matches_hand_enumeration():
    # Two misaligned fee-less pools; the miner's round trip (fixed size) must
    # be placed after the user's sell for maximal profit.  Oracle: enumerate
    # every insertion arrangement directly.
    pool_a = AmmPool("BBT", "ETH", 1_000, 1_000, fee_bps=0)
    pool_b = AmmPool("BBT", "ETH", 10_000, 10_000, fee_bps=0)
    state = State(
        {("u", "ETH"): 400, ("miner", "ETH"): 10_000, ("miner", "BBT"): 10_000},
        {"a": pool_a, "b": pool_b},
        0,
    )
    user = Tx("u", "a", Swap("ETH", "BBT", 400))
    t_sell = Tx("miner", "a", Swap("BBT", "ETH", 100), origin="miner")
    t_buy = Tx("miner", "b", Swap("ETH", "BBT", 120), origin="miner")
    space = OrderingSpace(mempool=(user,), templates=(t_buy, t_sell), allow_insert=True)
    valuation = Valuation(primary="ETH", mode="oracle_priced", prices={"BBT": Fraction(1)})
    objective = PlayerDelta.from_state(miner().accounts, valuation, state)
    report = unpruned_search(space, EXH, objective, state)

    def value(seq):
        res = apply_sequence(state, list(seq), "skip_invalid")
        delta = 0
        for token in ("ETH", "BBT"):
            delta += res.state.balance("miner", token) - state.balance("miner", token)
        return delta

    best = None
    for included in itertools.chain.from_iterable(
        itertools.combinations((t_buy, t_sell), r) for r in range(3)
    ):
        for chosen in itertools.permutations(included):
            for arrangement in itertools.permutations((user,) + chosen):
                best = value(arrangement) if best is None else max(best, value(arrangement))
    assert report.best_value == best > 0


def test_ev_identity_feasible_nonnegative():
    state = State({("u0", "BBT"): 500, ("u1", "ETH"): 300}, {"a": AmmPool("BBT", "ETH", 5_000, 5_000, 30)}, 0)
    mempool = (Tx("u0", "a", Swap("BBT", "ETH", 500)), Tx("u1", "a", Swap("ETH", "BBT", 300)))
    report = ev(miner(), OrderingSpace(mempool=mempool), state, Valuation(primary="ETH"), EXH)
    assert report.best_value >= 0


def test_k1_equals_single_block_ev():
    # One block: the transaction arriving in block 1 takes no part.
    state, space = _two_block_bet_scenario()
    val = Valuation(primary="ETH")
    one_block = replace(space, mempool=space.mempool[:1])
    assert ev(miner(), space, state, val, EXH) == ev(miner(), one_block, state, val, EXH)


def _two_block_bet_scenario():
    # Flipping the oracle needs both waves of incoming primary-token sells;
    # the miner holds exactly the stake, so one block is never profitable.
    pool = AmmPool("BBT", "ETH", 100, 98, fee_bps=0)
    bet = Pricebet(oracle="pool", token="ETH", deadline=5)
    state = State(
        {("u0", "ETH"): 1, ("u1", "ETH"): 2, ("miner", "ETH"): 100},
        {"pool": pool, "bet": bet},
        0,
    )
    mempool = (
        Tx("u0", "pool", Swap("ETH", "BBT", 1), arrival_block=0),
        Tx("u1", "pool", Swap("ETH", "BBT", 2), arrival_block=1),
    )
    templates = (
        Tx("miner", "bet", Bet(), origin="miner"),
        Tx("miner", "bet", GetReward(), origin="miner"),
    )
    space = OrderingSpace(mempool=mempool, templates=templates, allow_insert=True)
    return state, space


def test_cross_block_profit_needs_two_blocks():
    state, space = _two_block_bet_scenario()
    val = Valuation(primary="ETH")
    one = ev(miner(), replace(space, k=1), state, val, EXH)
    two = ev(miner(), replace(space, k=2), state, val, EXH)
    assert one.best_value == 0
    assert two.best_value == 100
    assert two.best_value > one.best_value

    # Independent brute force over both block partitions: every split of
    # {u0-or-delay} x template placements, evaluated with block numbers.
    u0, u1 = space.mempool
    bet_tx, claim_tx = space.templates
    best = 0
    for u0_block in (0, 1):
        for b1_tpl in itertools.chain.from_iterable(
            itertools.permutations((bet_tx, claim_tx), r) for r in range(3)
        ):
            rest = tuple(t for t in (bet_tx, claim_tx) if t not in b1_tpl)
            for b2_tpl_all in itertools.chain.from_iterable(
                itertools.combinations(rest, r) for r in range(len(rest) + 1)
            ):
                block1_items = (list(b1_tpl) + [u0]) if u0_block == 0 else list(b1_tpl)
                block2_core = [u1] + ([u0] if u0_block == 1 else []) + list(b2_tpl_all)
                for block1 in itertools.permutations(block1_items):
                    for block2 in itertools.permutations(block2_core):
                        current = state
                        ok = True
                        for block_index, block in enumerate((block1, block2)):
                            current = current.with_block(state.block_number + block_index)
                            for tx in block:
                                nxt = None
                                try:
                                    from mevsearch.state import apply_tx

                                    nxt = apply_tx(current, tx)
                                except Exception:
                                    nxt = None
                                if nxt is None:
                                    if tx.origin == "mempool":
                                        continue
                                    ok = False
                                    break
                                current = nxt
                            if not ok:
                                break
                        if ok:
                            delta = current.balance("miner", "ETH") - 100
                            best = max(best, delta)
    assert best == two.best_value


def test_k_mev_monotone_in_k():
    state, space = _two_block_bet_scenario()
    val = Valuation(primary="ETH")
    values = [ev(miner(), replace(space, k=k), state, val, EXH).best_value for k in (1, 2, 3)]
    assert values[0] <= values[1] <= values[2]


GREEDY = SearchBudget(mode="randomized", max_paths=1000)


def _duplicate_label_scenario():
    # Two users push ETH into the pool under one label; the miner then sells
    # BBT into the richer pool.  Replaying either user twice would overstate
    # the value.
    state = State(
        {("u0", "ETH"): 100_000, ("u1", "ETH"): 400_000, ("miner", "BBT"): 300_000},
        {"p": AmmPool("BBT", "ETH", 1_000_000, 1_000_000, fee_bps=0)},
        0,
    )
    mempool = (
        Tx("u0", "p", Swap("ETH", "BBT", 100_000), label="dup"),
        Tx("u1", "p", Swap("ETH", "BBT", 200_000), label="dup"),
    )
    templates = (Tx("miner", "p", Swap("BBT", "ETH", 300_000), origin="miner", label="sell"),)
    return state, OrderingSpace(mempool=mempool, templates=templates, allow_insert=True)


@pytest.mark.parametrize(
    "make", [_two_block_bet_scenario, _duplicate_label_scenario], ids=["two_block_bet", "duplicate_label"]
)
def test_greedy_multiblock_is_lower_bound(make):
    state, space = make()
    val = Valuation(primary="ETH")
    exact = ev(miner(), replace(space, k=2), state, val, EXH)
    greedy = ev(miner(), replace(space, k=2), state, val, GREEDY)
    assert greedy.best_value <= exact.best_value


def _late_arrival():
    """The miner's sell pays most after the user's block-1 buy."""
    state = State(
        {("late", "ETH"): 200_000, ("miner", "BBT"): 300_000},
        {"p": AmmPool("BBT", "ETH", 1_000_000, 1_000_000, fee_bps=0)},
        0,
    )
    mempool = (Tx("late", "p", Swap("ETH", "BBT", 200_000), label="late", arrival_block=1),)
    templates = (Tx("miner", "p", Swap("BBT", "ETH", 300_000), origin="miner", label="sell"),)
    return state, OrderingSpace(mempool=mempool, templates=templates, allow_insert=True)


def test_greedy_multiblock_schedules_late_arrivals():
    state, space = _late_arrival()
    val = Valuation(primary="ETH")
    exact = ev(miner(), replace(space, k=2), state, val, EXH)
    greedy = ev(miner(), replace(space, k=2), state, val, GREEDY)
    assert exact.best_ordering == ("|", "late", "sell")
    # greedy sells in block 0, then must place the block-1 arrival
    assert greedy.best_ordering == ("sell", "|", "late")
    assert greedy.best_value < exact.best_value


def test_the_greedy_wmev_series_is_a_lower_bound_on_k_mev():
    # Without an increment the per-k values come from the greedy pass, even
    # under an exhaustive budget: the block-1 arrival is placed after the
    # sell, so 2-MEV's extra is missed.
    state, space = _late_arrival()
    val = Valuation(primary="ETH")
    player = miner(hash_fraction=Fraction(1, 2))
    series = wmev(player, state, space, 2, val, EXH).per_block_mev
    exact = tuple(ev(player, replace(space, k=k), state, val, EXH).best_value for k in (1, 2))
    assert series == (230769, 230769)
    assert exact == (230769, 317646)
    assert all(value <= bound for value, bound in zip(series, exact))


def test_unknown_budget_mode_is_rejected():
    from mevsearch.state import ScenarioError

    state, space = _two_block_bet_scenario()
    player = miner(hash_fraction=Fraction(1, 2))
    with pytest.raises(ScenarioError, match="unknown budget mode"):
        ev(player, replace(space, k=2), state, Valuation(primary="ETH"), SearchBudget(mode="greedy"))
    # the weighted-MEV series runs the greedy search without going through search()
    with pytest.raises(ScenarioError, match="unknown budget mode"):
        wmev(player, state, space, 2, Valuation(primary="ETH"), SearchBudget(mode="greedy"))


# -- weighted MEV ------------------------------------------------------------

def test_wmev_geometric_closed_form():
    for f, m in ((Fraction(1, 10), 5), (Fraction(1, 4), 3), (Fraction(1, 2), 2)):
        player = miner(hash_fraction=f, per_block_increment=m)
        result = wmev(player, State(), OrderingSpace(mempool=()), 64, Valuation(primary="ETH"), EXH)
        closed = f * m / (1 - f)
        assert abs(result.total - closed) <= Fraction(1, 10**9) * closed
        assert result.tail_bound is not None
        assert result.total + result.tail_bound == closed


def test_wmev_single_block_probability():
    # Over a one-block horizon WMEV is p_1 = f(1-f) times the exact
    # single-block MEV, with no tail reported.
    state, space = _duplicate_label_scenario()
    val = Valuation(primary="ETH")
    result = wmev(miner(hash_fraction=Fraction(1, 2)), state, space, 1, val, EXH)
    one = ev(miner(), space, state, val, EXH)
    assert one.best_value > 0
    assert result.total == Fraction(1, 4) * one.best_value
    assert result.tail_bound is None


def test_wmev_zero_hash_fraction():
    player = miner(hash_fraction=Fraction(0), per_block_increment=7)
    result = wmev(player, State(), OrderingSpace(mempool=()), 16, Valuation(primary="ETH"), EXH)
    assert result.total == 0


def test_wmev_linear_in_probabilities():
    # The total is the p_k-weighted sum of the per-block values, p_k = f^k (1-f).
    f = Fraction(1, 3)
    r1, r3 = (
        wmev(miner(hash_fraction=f, per_block_increment=m), State(), OrderingSpace(mempool=()), 8,
             Valuation(primary="ETH"), EXH)
        for m in (9, 27)
    )
    assert r1.probabilities == tuple(f ** k * (1 - f) for k in range(1, 9))
    assert r1.total == sum(p * v for p, v in zip(r1.probabilities, r1.per_block_mev))
    assert r3.total == 3 * r1.total


# -- spreads -----------------------------------------------------------------

def test_spread_single_tx_is_zero():
    state = State({("u", "BBT"): 100}, {"a": AmmPool("BBT", "ETH", 1_000, 1_000, 0)}, 0)
    space = OrderingSpace(mempool=(Tx("u", "a", Swap("BBT", "ETH", 100)),))
    result = value_spread("u", space, state, Valuation(primary="ETH"), EXH)
    assert result.b_high == result.b_low and result.spread == 0


def test_backrun_pattern_user_best_when_last():
    # One big seller plus bots buying the sold token: the seller's best
    # ordering executes after the bots, the worst executes first.
    pool = AmmPool("BBT", "ETH", 1_000_000, 1_000_000, fee_bps=30)
    state = State(
        {
            ("A", "BBT"): 50_000,
            ("D1", "ETH"): 30_000,
            ("D2", "ETH"): 9_000,
            ("D3", "ETH"): 14_000,
        },
        {"amm": pool},
        0,
    )
    mempool = (
        Tx("A", "amm", Swap("BBT", "ETH", 50_000), label="A"),
        Tx("D1", "amm", Swap("ETH", "BBT", 30_000), label="D1"),
        Tx("D2", "amm", Swap("ETH", "BBT", 9_000), label="D2"),
        Tx("D3", "amm", Swap("ETH", "BBT", 14_000), label="D3"),
    )
    space = OrderingSpace(mempool=mempool)
    result = value_spread("A", space, state, Valuation(primary="ETH"), EXH)
    assert result.spread > 0
    assert result.best_ordering[-1] == "A"
    assert result.worst_ordering[0] == "A"


def test_spread_same_direction_primary_in_is_zero():
    # Sellers of the primary token spend a fixed amount regardless of order.
    pool = AmmPool("BBT", "ETH", 1_000_000, 1_000_000, fee_bps=30)
    state = State({(f"u{i}", "ETH"): 10_000 for i in range(4)}, {"amm": pool}, 0)
    mempool = tuple(Tx(f"u{i}", "amm", Swap("ETH", "BBT", 2_000 + i)) for i in range(4))
    space = OrderingSpace(mempool=mempool)
    result = value_spread("u2", space, state, Valuation(primary="ETH"), EXH)
    assert result.spread == 0


def test_spread_rejects_insertion_space():
    import pytest
    from mevsearch.state import ScenarioError

    space = OrderingSpace(mempool=(), allow_insert=True)
    with pytest.raises(ScenarioError):
        value_spread("u", space, State(), Valuation(primary="ETH"), EXH)


def test_spread_invariant_under_disjoint_venue_permutation():
    # permuting transactions on a pool the beneficiary never touches cannot
    # change the beneficiary's spread
    pool_a = AmmPool("BBT", "ETH", 50_000, 50_000, fee_bps=30)
    pool_b = AmmPool("GEM", "ETH", 80_000, 80_000, fee_bps=30)
    balances = {
        ("A", "BBT"): 3_000,
        ("x", "ETH"): 2_000,
        ("y", "GEM"): 1_500,
        ("z", "ETH"): 900,
    }
    others = [
        Tx("x", "b", Swap("ETH", "GEM", 2_000), label="x"),
        Tx("y", "b", Swap("GEM", "ETH", 1_500), label="y"),
        Tx("z", "b", Swap("ETH", "GEM", 900), label="z"),
    ]
    spreads = set()
    for perm in itertools.permutations(others):
        state = State(dict(balances), {"a": pool_a, "b": pool_b}, 0)
        mempool = (Tx("A", "a", Swap("BBT", "ETH", 3_000), label="A"),) + perm
        space = OrderingSpace(mempool=mempool)
        result = value_spread("A", space, state, Valuation(primary="ETH"), EXH)
        spreads.add((result.b_high, result.b_low))
    assert len(spreads) == 1


def test_spread_rejects_randomized_multiblock_budget():
    import pytest
    from mevsearch.state import ScenarioError

    state = State({("u", "BBT"): 10}, {"amm": AmmPool("BBT", "ETH", 1_000, 1_000, 0)}, 0)
    space = OrderingSpace(mempool=(Tx("u", "amm", Swap("BBT", "ETH", 10)),), k=2)
    # the greedy multi-block search has no worst ordering to report
    with pytest.raises(ScenarioError, match="exhaustive budget"):
        value_spread("u", space, state, Valuation(primary="ETH"), SearchBudget(mode="randomized"))
    exact = value_spread("u", space, state, Valuation(primary="ETH"), EXH)
    assert exact.exhaustive and exact.b_high >= exact.b_low
