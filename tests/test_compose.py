"""Composability verdicts, the two-pool arbitrage bound, oracle attacks."""

import itertools
import random
from fractions import Fraction

import pytest

from mevsearch.compose import (
    ComposabilityVerdict,
    build_pricebet_scenario,
    check_composability,
    liquidity_metrics,
    oracle_liquidation_mev,
)
from mevsearch.contracts import AmmPool, MakerBook, Pricebet
from mevsearch.metrics import MinerModel, Valuation, ev, value_spread
from mevsearch.ordering import OrderingSpace, SearchBudget
from mevsearch.state import Liquidate, State, Swap, Tx, apply_sequence

from conftest import (
    TwoAmmInstance,
    matches_bet_strategy_shape,
    roundtrip_alpha_star,
    two_amm_roundtrip,
    two_amm_roundtrip_exact,
)

EXH = SearchBudget(mode="exhaustive")


def inst(a_bbt, a_eth, b_bbt, b_eth, fee=0):
    return TwoAmmInstance(
        AmmPool("BBT", "ETH", a_bbt, a_eth, fee_bps=fee),
        AmmPool("BBT", "ETH", b_bbt, b_eth, fee_bps=fee),
    )


def test_roundtrip_spec_point():
    # pools (100,100) and (100,90): starting at B with one token nets
    # floor(10000/9200) - 1 = 0 in integers, +2/23 in exact rationals.
    instance = inst(100, 100, 100, 90)
    assert instance.profitable_start() == "B"
    assert two_amm_roundtrip(instance, "B", 1) == 0
    exact = two_amm_roundtrip_exact(instance, "B", 1)
    assert exact == Fraction(10_000, 9_200) - 1 == Fraction(2, 23)
    assert instance.delta == (100 * 100 - 100 * 90) // 200 == 5


def test_aligned_pools_never_profit():
    rng = random.Random(42)
    for _ in range(50):
        b = rng.randint(10, 10**6)
        e = rng.randint(10, 10**6)
        scale = rng.randint(1, 50)
        instance = inst(b, e, b * scale, e * scale)
        assert instance.aligned
        for alpha in (1, 7, e // 2 + 1, e, 3 * e):
            for start in ("A", "B"):
                assert two_amm_roundtrip_exact(instance, start, alpha) <= 0
                assert two_amm_roundtrip(instance, start, alpha) <= 0


def test_misaligned_pools_profit_below_delta():
    rng = random.Random(7)
    for _ in range(100):
        b = rng.randint(100, 10**6)
        e = rng.randint(100, 10**6)
        b2 = rng.randint(100, 10**6)
        e2 = rng.randint(100, 10**6)
        instance = inst(b, e, b2, e2)
        if instance.aligned or instance.delta < 2:
            continue
        start = instance.profitable_start()
        alpha = rng.randint(1, instance.delta - 1)
        assert two_amm_roundtrip_exact(instance, start, alpha) > 0


def test_profit_sign_changes_at_delta():
    instance = inst(1_000, 1_000, 1_000, 900)
    start = instance.profitable_start()
    delta_exact = Fraction(1_000 * 1_000 - 1_000 * 900, 2_000)  # = 50
    for alpha in range(1, 2 * instance.delta):
        profit = two_amm_roundtrip_exact(instance, start, alpha)
        assert (profit > 0) == (alpha < delta_exact)


def test_integer_profit_brackets_rational():
    rng = random.Random(9)
    for _ in range(200):
        b, e = rng.randint(50, 10**5), rng.randint(50, 10**5)
        b2, e2 = rng.randint(50, 10**5), rng.randint(50, 10**5)
        instance = inst(b, e, b2, e2)
        alpha = rng.randint(1, max(e, e2))
        for start in ("A", "B"):
            exact = two_amm_roundtrip_exact(instance, start, alpha)
            integer = two_amm_roundtrip(instance, start, alpha)
            assert integer <= exact < integer + 2


def test_alpha_star_closed_form_matches_dense_grid():
    # pools (100,100)/(100,90): maximizer ~2.434, peak profit ~0.1316
    instance = inst(100, 100, 100, 90)
    start = instance.profitable_start()
    star = roundtrip_alpha_star(instance, start)
    grid_best = max(
        (two_amm_roundtrip_exact(instance, start, Fraction(i, 100)), Fraction(i, 100))
        for i in range(1, 501)
    )
    assert abs(star - grid_best[1]) <= Fraction(1, 100)
    assert abs(star - Fraction(2434, 1000)) <= Fraction(1, 100)
    assert abs(grid_best[0] - Fraction(1316, 10_000)) <= Fraction(1, 1_000)


def test_chained_swaps_with_fees_lose_to_fee_less():
    instance_free = inst(10_000, 10_000, 10_000, 9_000, fee=0)
    instance_fee = inst(10_000, 10_000, 10_000, 9_000, fee=30)
    start = instance_free.profitable_start()
    for alpha in (10, 100, 400):
        assert two_amm_roundtrip(instance_fee, start, alpha) <= two_amm_roundtrip(
            instance_free, start, alpha
        )


# -- composability ------------------------------------------------------------

def test_disjoint_contract_is_zero_composable():
    pool = AmmPool("BBT", "ETH", 1_000, 1_000, fee_bps=0)
    state = State({("u", "BBT"): 100, ("miner", "ETH"): 50}, {"amm": pool}, 0)
    space = OrderingSpace(mempool=(Tx("u", "amm", Swap("BBT", "ETH", 100)),))
    other = AmmPool("GOLD", "SILVER", 10_000, 10_000)
    verdict = check_composability(
        state, "other", other, MinerModel(accounts=frozenset({"miner"})),
        Fraction(0), space, Valuation(primary="ETH"), EXH,
    )
    assert verdict.composable and verdict.status == "composable"
    assert verdict.mev_before == verdict.mev_after


def test_verdict_monotone_in_epsilon():
    scn = build_pricebet_scenario(
        pool_other=1_000,
        pool_eth=900,
        mempool_eth_in=(60, 80),
        mempool_other_in=(50,),
        player_eth=100,
    )
    for eps1, eps2 in ((Fraction(0), Fraction(1, 2)), (Fraction(1, 10), Fraction(3))):
        v1 = check_composability(
            scn.state, scn.bet_id, scn.bet_contract, scn.player, eps1, scn.space,
            scn.valuation, EXH,
        )
        v2 = check_composability(
            scn.state, scn.bet_id, scn.bet_contract, scn.player, eps2, scn.space,
            scn.valuation, EXH,
        )
        if v1.composable:
            assert v2.composable


def test_pricebet_small_liquidity_branch():
    # l_e <= b - e (and well inside the flip bound): deploying the bet
    # changes nothing the miner can exploit.
    scn = build_pricebet_scenario(
        pool_other=2_000,
        pool_eth=1_000,
        mempool_eth_in=(100, 80),
        mempool_other_in=(60,),
        player_eth=120,
    )
    metrics = liquidity_metrics(scn)
    assert metrics.liquid_eth <= 2_000 - 1_000
    verdict = check_composability(
        scn.state, scn.bet_id, scn.bet_contract, scn.player, Fraction(0), scn.space,
        scn.valuation, EXH,
    )
    assert verdict.composable
    assert verdict.mev_after == verdict.mev_before


def test_pricebet_exploitable_branch_with_witness_shape():
    # e' > b - e and the player holds the stake: the bet is not composable
    # and the witness realizes the four-step strategy.  The paired-token
    # inflow is large enough that the flip is temporary, so the claim must
    # land strictly between the two runs.
    scn = build_pricebet_scenario(
        pool_other=1_000,
        pool_eth=900,
        mempool_eth_in=(60, 80),
        mempool_other_in=(200,),
        player_eth=100,
    )
    metrics = liquidity_metrics(scn)
    assert metrics.mempool_eth_in > 1_000 - 900 and metrics.player_eth >= 100
    verdict = check_composability(
        scn.state, scn.bet_id, scn.bet_contract, scn.player, Fraction(0), scn.space,
        scn.valuation, EXH,
    )
    assert not verdict.composable
    assert verdict.status == "not composable (witness found)"
    assert verdict.mev_after - verdict.mev_before >= 100
    assert verdict.witness is not None
    assert matches_bet_strategy_shape(
        verdict.witness, "t0", "t1", scn.eth_in_labels, scn.other_in_labels
    )


# -- liquidation insertion ----------------------------------------------------

def _maker_scenario():
    pool = AmmPool("DAI", "ETH", 20_000, 10_000, fee_bps=0)  # price 2 DAI/ETH
    book = MakerBook(
        loan_token="DAI",
        collateral_token="ETH",
        price_source="pool",
        collateral={"victim": 900},
        debt={"victim": 1_100},
    )
    # 2*900 = 1800 >= 1.5*1100 = 1650: safe until the pool price moves.
    state = State(
        {("u", "ETH"): 2_000, ("u2", "DAI"): 1_500, ("miner", "ETH"): 0},
        {"pool": pool, "book": book},
        0,
    )
    mempool = (
        Tx("u", "pool", Swap("ETH", "DAI", 2_000)),   # pushes the price down
        Tx("u2", "pool", Swap("DAI", "ETH", 1_500)),  # pushes it back up
    )
    valuation = Valuation(primary="ETH", mode="oracle_priced", prices={"DAI": Fraction(1, 2)})
    return state, OrderingSpace(mempool=mempool), valuation


def test_liquidation_insertion_beats_no_insertion():
    state, space, valuation = _maker_scenario()
    player = MinerModel(accounts=frozenset({"miner"}))
    with_liq = oracle_liquidation_mev(player, state, space, valuation, EXH)
    without = ev(player, space, state, valuation, EXH)
    assert with_liq.best_value > without.best_value
    assert without.best_value == 0
    assert with_liq.best_value == 900  # entire collateral, valued at par


def test_liquidation_matches_hand_enumeration():
    state, space, valuation = _maker_scenario()
    player = MinerModel(accounts=frozenset({"miner"}))
    report = oracle_liquidation_mev(player, state, space, valuation, EXH)

    liq = Tx("miner", "book", Liquidate("victim"), origin="miner")
    best = None
    for include_liq in (False, True):
        extra = (liq,) if include_liq else ()
        for arrangement in itertools.permutations(space.mempool + extra):
            res = apply_sequence(state, list(arrangement), "skip_invalid")
            value = res.state.balance("miner", "ETH") + (
                res.state.balance("miner", "DAI") // 2
            )
            best = value if best is None else max(best, value)
    assert report.best_value == best


def test_safe_cdps_add_nothing():
    pool = AmmPool("DAI", "ETH", 20_000, 10_000, fee_bps=0)
    book = MakerBook(
        loan_token="DAI", collateral_token="ETH", price_source="pool",
        collateral={"v": 1_000}, debt={"v": 100},
    )
    state = State({("u", "ETH"): 50, ("miner", "ETH"): 0}, {"pool": pool, "book": book}, 0)
    space = OrderingSpace(mempool=(Tx("u", "pool", Swap("ETH", "DAI", 50)),))
    valuation = Valuation(primary="ETH", mode="oracle_priced", prices={"DAI": Fraction(1, 2)})
    player = MinerModel(accounts=frozenset({"miner"}))
    report = oracle_liquidation_mev(player, state, space, valuation, EXH)
    assert report.best_value == 0


def test_liquidatable_at_identity_keeps_identity_profit():
    pool = AmmPool("DAI", "ETH", 20_000, 10_000, fee_bps=0)
    book = MakerBook(
        loan_token="DAI", collateral_token="ETH", price_source="pool",
        collateral={"v": 600}, debt={"v": 1_000},  # 1200 < 1500: underwater now
    )
    state = State({("miner", "ETH"): 0}, {"pool": pool, "book": book}, 0)
    space = OrderingSpace(mempool=())
    valuation = Valuation(primary="ETH")
    player = MinerModel(accounts=frozenset({"miner"}))
    report = oracle_liquidation_mev(player, state, space, valuation, EXH)
    assert report.best_value == 600


# -- bribery ------------------------------------------------------------------

def test_bribery_spread_puts_the_seller_last():
    pool = AmmPool("BBT", "ETH", 100_000, 100_000, fee_bps=30)
    state = State(
        {("A", "BBT"): 9_000, ("D1", "ETH"): 4_000, ("D2", "ETH"): 2_500},
        {"amm": pool},
        0,
    )
    mempool = (
        Tx("A", "amm", Swap("BBT", "ETH", 9_000), label="A"),
        Tx("D1", "amm", Swap("ETH", "BBT", 4_000), label="D1"),
        Tx("D2", "amm", Swap("ETH", "BBT", 2_500), label="D2"),
    )
    space = OrderingSpace(mempool=mempool)
    valuation = Valuation(primary="ETH")
    bound = value_spread("A", space, state, valuation, EXH)
    assert bound.spread == bound.b_high - bound.b_low > 0
    assert bound.best_ordering[-1] == "A"


def test_bribery_zero_spread_mempool():
    pool = AmmPool("BBT", "ETH", 100_000, 100_000, fee_bps=0)
    state = State({("A", "BBT"): 500}, {"amm": pool}, 0)
    space = OrderingSpace(mempool=(Tx("A", "amm", Swap("BBT", "ETH", 500)),))
    bound = value_spread("A", space, state, Valuation(primary="ETH"), EXH)
    assert bound.spread == 0
