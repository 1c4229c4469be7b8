"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here, not configured elsewhere:
  1. two-pool counterexample profit within 5% of 123 ETH, strictly > 76 ETH
  2. 1000 seeded no-fee pool pairs, zero lemma counterexamples
  3. 200 seeded instances (<= 6 txs): pruned == unpruned extremes exactly
  4. 100-instance corpus: 1% of paths reaches >= 70% of optimum in >= 90
  5. weighted-MEV geometric closed form within 1e-9 relative at horizon 64
  6. price-bet composability dichotomy with the four-step witness shape
  7. liquidation insertion beats no-insertion and matches a hand brute force
  8. 9-transaction exhaustive search: under 30 minutes, wall clock
     non-increasing within 15% from 1 to 8 workers, bit-identical reports
  9. five invariant suites, 10^4 generative cases each, zero violations
"""

import itertools
import json
import random
import time
from fractions import Fraction

from click.testing import CliRunner

from mevsearch.cli import main as cli_main
from mevsearch.compose import (
    build_pricebet_scenario,
    check_composability,
    liquidity_metrics,
    oracle_liquidation_mev,
)
from mevsearch.contracts import AmmPool, MakerBook, Pricebet, maker_price, maker_safe
from mevsearch.corpus import convergence_corpus, measure_convergence
from mevsearch.metrics import (
    AccountBalanceValue,
    MinerModel,
    Valuation,
    ev,
    wmev,
)
from mevsearch.ordering import OrderingSpace, SearchBudget, search
from mevsearch.scenario import Scenario, TokenDecl, save_scenario
from mevsearch.state import (
    AddLiquidity,
    Bet,
    CdpManipulate,
    GetReward,
    Liquidate,
    RemoveLiquidity,
    State,
    Swap,
    Tx,
    apply_tx,
    total_supply,
)

from conftest import (
    TwoAmmInstance,
    matches_bet_strategy_shape,
    pruning_corpus,
    two_amm_roundtrip_exact,
    unpruned_search,
)

WAD = 10**18
EXH = SearchBudget(mode="exhaustive")


def _passed(n, message):
    print(f"ACCEPTANCE {n} PASS: {message}")


def test_criterion_1_counterexample_reproduction(tmp_path):
    deep = AmmPool("COMP", "ETH", 107495485843438764484770, 49835502094518088853633, fee_bps=30)
    thin = AmmPool("COMP", "ETH", 5945498629669852264883, 2615599823603823616442, fee_bps=30)
    user = "697323163401596485410334513241460920685086001293"
    scenario = Scenario(
        tokens=(TokenDecl("ETH", primary=True), TokenDecl("COMP")),
        balances={(user, "COMP"): 1300 * WAD, ("miner", "ETH"): 10_000 * WAD},
        contracts={"sushiswap": deep, "uniswapv2": thin},
        mempool=(Tx(user, "uniswapv2", Swap("COMP", "ETH", 1300 * WAD)),),
        miner_account="miner",
        templates=(
            Tx("miner", "uniswapv2", Swap("ETH", "COMP", None, exact_out=True), origin="miner"),
            Tx("miner", "sushiswap", Swap("COMP", "ETH", None), origin="miner"),
        ),
        allow_reorder=True,
        allow_censor=False,
        allow_insert=True,
        budget=EXH,
        insertion_bounds=(1, 10**22 - 1),
    )
    path = tmp_path / "counterexample.json"
    save_scenario(scenario, path)

    runner = CliRunner()
    start = time.time()
    values = {}
    for command in ("optimize-insert", "mev"):
        result = runner.invoke(cli_main, [command, "--scenario", str(path)], catch_exceptions=False)
        assert result.exit_code == 0
        values[command] = int(json.loads(result.output)["best_value"])
    elapsed = time.time() - start

    target = 123 * WAD
    for command, best in values.items():
        assert abs(best - target) <= target * 5 // 100, f"{command}: {best}"
        assert best > 76 * WAD
    assert values["optimize-insert"] == values["mev"]
    _passed(1, f"both commands report {values['mev'] / WAD:.3f} ETH "
               f"(123 +- 5%, > 76) in {elapsed:.1f}s")


def test_criterion_2_two_amm_lemma_suite():
    rng = random.Random(2024)
    checked_misaligned = checked_aligned = 0
    i = 0
    while checked_misaligned < 900 or checked_aligned < 100:
        i += 1
        if checked_aligned < 100 and i % 10 == 0:
            b, e = rng.randint(10**3, 10**6), rng.randint(10**3, 10**6)
            scale = rng.randint(1, 100)
            instance = TwoAmmInstance(
                AmmPool("BBT", "ETH", b, e, 0), AmmPool("BBT", "ETH", b * scale, e * scale, 0)
            )
            assert instance.aligned
            for start in ("A", "B"):
                for alpha in (1, rng.randint(2, 10**6), e, 10 * e):
                    assert two_amm_roundtrip_exact(instance, start, alpha) <= 0
            checked_aligned += 1
        else:
            instance = TwoAmmInstance(
                AmmPool("BBT", "ETH", rng.randint(10**3, 10**9), rng.randint(10**3, 10**9), 0),
                AmmPool("BBT", "ETH", rng.randint(10**3, 10**9), rng.randint(10**3, 10**9), 0),
            )
            if instance.aligned or instance.delta < 2:
                continue
            alpha = rng.randint(1, instance.delta - 1)
            profit = two_amm_roundtrip_exact(instance, instance.profitable_start(), alpha)
            assert profit > 0, f"instance {i}: alpha={alpha} profit={profit}"
            checked_misaligned += 1
    _passed(2, f"{checked_misaligned} misaligned + {checked_aligned} aligned instances, "
               "zero counterexamples")


def test_criterion_3_pruning_losslessness():
    instances = pruning_corpus(seed=31337, count=200, max_txs=6)
    start = time.time()
    collapsed_any = False
    for scenario in instances:
        state = scenario.initial_state()
        space = scenario.space()
        objective = AccountBalanceValue(scenario.beneficiary, scenario.get_valuation())
        pruned = search(space, EXH, objective, state)
        full = unpruned_search(space, EXH, objective, state)
        assert pruned.best_value == full.best_value
        assert pruned.worst_value == full.worst_value
        collapsed_any = collapsed_any or pruned.paths_explored < full.paths_explored
    assert collapsed_any
    _passed(3, f"200 instances, pruned extremes exact in {time.time() - start:.1f}s")


def test_criterion_4_sampling_convergence():
    start = time.time()
    instances = convergence_corpus(seed=0, count=100)
    result = measure_convergence(instances, seed=0)
    # stated hit rate 90%; the criterion allows relaxing to 85% across seeds
    assert result.hits >= 90, f"only {result.hits}/100 instances reached 70%"
    _passed(4, f"{result.hits}/100 instances reach >= 70% of the optimum with 1% "
               f"of pruned paths ({time.time() - start:.0f}s)")


def test_criterion_5_wmev_closed_form():
    for f in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
        m = 7
        player = MinerModel(accounts=frozenset({"miner"}), hash_fraction=f, per_block_increment=m)
        result = wmev(player, State(), OrderingSpace(mempool=()), 64, Valuation(primary="ETH"), EXH)
        closed = f * m / (1 - f)
        assert abs(result.total - closed) <= closed * Fraction(1, 10**9)
    _passed(5, "f in {0.1, 0.25, 0.5}: truncated series matches f*m/(1-f) within 1e-9")


def test_criterion_6_composability_dichotomy():
    # (a) small liquid holdings: deploying the bet adds nothing
    safe = build_pricebet_scenario(
        pool_other=2_000, pool_eth=1_000,
        mempool_eth_in=(100, 80), mempool_other_in=(60,),
        player_eth=120,
    )
    metrics = liquidity_metrics(safe)
    assert metrics.liquid_eth <= 2_000 - 1_000
    verdict_a = check_composability(
        safe.state, safe.bet_id, safe.bet_contract, safe.player, Fraction(0), safe.space,
        safe.valuation, EXH,
    )
    assert verdict_a.composable and verdict_a.mev_after == verdict_a.mev_before

    # (b) inflow exceeds the reserve gap and the player holds the stake
    hot = build_pricebet_scenario(
        pool_other=1_000, pool_eth=900,
        mempool_eth_in=(60, 80), mempool_other_in=(200,),
        player_eth=100,
    )
    metrics = liquidity_metrics(hot)
    assert metrics.mempool_eth_in > 1_000 - 900 and metrics.player_eth >= 100
    verdict_b = check_composability(
        hot.state, hot.bet_id, hot.bet_contract, hot.player, Fraction(0), hot.space,
        hot.valuation, EXH,
    )
    assert not verdict_b.composable
    assert verdict_b.mev_after - verdict_b.mev_before >= 100
    assert verdict_b.witness is not None
    assert matches_bet_strategy_shape(
        verdict_b.witness, "t0", "t1", hot.eth_in_labels, hot.other_in_labels
    )
    _passed(6, f"(a) 0-composable with equal MEV; (b) witness {verdict_b.witness} "
               f"gains {verdict_b.mev_after - verdict_b.mev_before} ETH in the four-step shape")


def test_criterion_7_liquidation_insertion():
    pool = AmmPool("DAI", "ETH", 20_000, 10_000, fee_bps=0)
    book = MakerBook(
        loan_token="DAI", collateral_token="ETH", price_source="pool",
        collateral={"victim": 900}, debt={"victim": 1_100},  # near threshold
    )
    state = State(
        {("u", "ETH"): 2_000, ("u2", "DAI"): 1_500},
        {"pool": pool, "book": book},
        0,
    )
    mempool = (
        Tx("u", "pool", Swap("ETH", "DAI", 2_000)),
        Tx("u2", "pool", Swap("DAI", "ETH", 1_500)),
    )
    space = OrderingSpace(mempool=mempool)
    valuation = Valuation(primary="ETH", mode="oracle_priced", prices={"DAI": Fraction(1, 2)})
    player = MinerModel(accounts=frozenset({"miner"}))

    with_insertion = oracle_liquidation_mev(player, state, space, valuation, EXH)
    without = ev(player, space, state, valuation, EXH)
    assert with_insertion.best_value > without.best_value

    # hand-enumerated 4-transaction brute force
    from mevsearch.state import apply_sequence

    liq = Tx("miner", "book", Liquidate("victim"), origin="miner")
    best = None
    for include in (False, True):
        extra = (liq,) if include else ()
        for arrangement in itertools.permutations(mempool + extra):
            res = apply_sequence(state, list(arrangement), "skip_invalid")
            value = res.state.balance("miner", "ETH") + res.state.balance("miner", "DAI") // 2
            best = value if best is None else max(best, value)
    assert with_insertion.best_value == best
    _passed(7, f"insertion MEV {with_insertion.best_value} > {without.best_value} without; "
               "matches the 4-tx brute force exactly")


def test_criterion_8_parallel_performance():
    from mevsearch.corpus import make_spread_instance

    scenario = make_spread_instance(900, 2, 9, n_pools=2, fee_bps=30, whale_txs=2)
    state = scenario.initial_state()
    space = scenario.space()
    assert len(space.mempool) == 9
    objective = AccountBalanceValue(scenario.beneficiary, scenario.get_valuation())

    timings = {}
    reports = {}
    # Seven interleaved rounds, each worker count timed once per round, and
    # the minimum per count: a burst of scheduler noise hits every count alike.
    for _ in range(7):
        for workers in (1, 2, 4, 8):
            t0 = time.time()
            report = search(space, EXH, objective, state, workers=workers)
            dt = time.time() - t0
            timings[workers] = min(timings.get(workers, dt), dt)
            reports[workers] = report

    assert timings[1] < 30 * 60, "exhaustive 9-transaction search must finish within 30 minutes"
    assert all(reports[w] == reports[1] for w in (2, 4, 8)), "reports must be bit-identical"
    series = [timings[w] for w in (1, 2, 4, 8)]
    for earlier, later in zip(series, series[1:]):
        assert later <= earlier * 1.15, f"wall clock regressed beyond 15%: {timings}"
    _passed(8, "9-tx exhaustive search: " +
            ", ".join(f"{w}w={timings[w]:.2f}s" for w in (1, 2, 4, 8)) +
            f" over {reports[1].paths_explored} pruned paths, identical reports")


# -- criterion 9: generative invariant suites ---------------------------------

def _random_world(rng):
    fee = rng.choice([0, 0, 30])
    pool = AmmPool("DAI", "ETH", rng.randint(1_000, 10**6), rng.randint(1_000, 10**6), fee_bps=fee)
    pool2 = AmmPool(
        "DAI", "ETH", rng.randint(1_000, 10**6), rng.randint(1_000, 10**6), fee_bps=fee,
        lp_total=10**6, lp_shares={"lp": 10**6},
    )
    book = MakerBook(
        loan_token="DAI", collateral_token="ETH", price_source="p1",
        collateral={"v": rng.randint(0, 2_000), "w": rng.randint(0, 500)},
        debt={"v": rng.randint(0, 2_000), "w": rng.randint(0, 500)},
        efficient_auction=rng.random() < 0.3,
    )
    bet = Pricebet(oracle="p1", token="ETH", deadline=rng.randint(0, 3),
                   stake=rng.randint(10, 120), reward=0, pot=rng.randint(10, 150))
    bet = Pricebet(oracle="p1", token="ETH", deadline=bet.deadline, stake=bet.stake,
                   reward=2 * bet.stake, pot=bet.stake)
    balances = {}
    for actor in ("a", "b", "c", "lp"):
        balances[(actor, "ETH")] = rng.randint(0, 3_000)
        balances[(actor, "DAI")] = rng.randint(0, 3_000)
    return State(balances, {"p1": pool, "p2": pool2, "book": book, "bet": bet},
                 rng.randint(0, 2))


def _random_tx(rng):
    actor = rng.choice(["a", "b", "c", "lp"])
    kind = rng.randrange(6)
    if kind == 0:
        direction = rng.getrandbits(1)
        return Tx(actor, rng.choice(["p1", "p2"]),
                  Swap("DAI" if direction else "ETH", "ETH" if direction else "DAI",
                       rng.randint(0, 4_000), exact_out=rng.random() < 0.2))
    if kind == 1:
        return Tx(actor, "p2", AddLiquidity(rng.randint(0, 2_000), rng.randint(0, 2_000)))
    if kind == 2:
        return Tx(actor, "p2", RemoveLiquidity(rng.randint(0, 2_000)))
    if kind == 3:
        sub = rng.choice(["deposit_collateral", "pay_loan", "withdraw_collateral", "withdraw_loan"])
        return Tx(actor, "book", CdpManipulate(sub, rng.randint(0, 2_000)))
    if kind == 4:
        return Tx(actor, "book", Liquidate(rng.choice(["v", "w"])))
    return Tx(actor, "bet", rng.choice([Bet(), GetReward()]))


def _expected_supply_delta(state, tx):
    """Loan issuance mints, repayment and efficient-auction liquidation burn."""
    action = tx.action
    if type(action) is CdpManipulate:
        if action.kind == "withdraw_loan":
            return {"DAI": action.qty}
        if action.kind == "pay_loan":
            return {"DAI": -action.qty}
    if type(action) is Liquidate:
        book = state.contracts[tx.venue]
        if book.efficient_auction:
            return {"DAI": -book.debt.get(action.victim, 0)}
    return {}


def test_criterion_9_invariant_suites():
    rng = random.Random(90210)
    cases = {"atomicity": 0, "conservation": 0, "product": 0, "maker": 0, "pricebet": 0}
    target = 10_000
    start = time.time()
    while min(cases.values()) < target:
        state = _random_world(rng)
        claims_paid = 0
        for _ in range(rng.randint(4, 14)):
            tx = _random_tx(rng)
            snapshot = State(dict(state.balances), dict(state.contracts), state.block_number)
            supply_before = {t: total_supply(state, t) for t in ("ETH", "DAI")}
            product_before = None
            if type(tx.action) is Swap:
                pool = state.contracts[tx.venue]
                product_before = pool.reserve_x * pool.reserve_y
            result = apply_tx(state, tx)

            if result is None:
                assert state == snapshot, "failed transaction must leave no trace"
                cases["atomicity"] += 1
                continue
            assert state == snapshot, "a transaction must not modify its input state"
            cases["atomicity"] += 1

            expected = _expected_supply_delta(state, tx)
            for token in ("ETH", "DAI"):
                delta = total_supply(result, token) - supply_before[token]
                assert delta == expected.get(token, 0), (tx, token, delta)
            cases["conservation"] += 1

            if product_before is not None:
                pool = result.contracts[tx.venue]
                assert pool.reserve_x * pool.reserve_y >= product_before
                cases["product"] += 1

            if type(tx.action) is CdpManipulate:
                book = result.contracts[tx.venue]
                old_book = state.contracts[tx.venue]
                coll = book.collateral.get(tx.actor, 0)
                debt = book.debt.get(tx.actor, 0)
                price = maker_price(result, book)
                improved = (
                    coll >= old_book.collateral.get(tx.actor, 0)
                    and debt <= old_book.debt.get(tx.actor, 0)
                )
                assert maker_safe(price, book, coll, debt) or improved
                cases["maker"] += 1

            if type(tx.action) is GetReward:
                claims_paid += 1
                assert claims_paid <= 1, "a bet record can settle at most once"
            state = result
        cases["pricebet"] += 1
    _passed(9, "zero violations: " +
            ", ".join(f"{k}={v}" for k, v in sorted(cases.items())) +
            f" cases in {time.time() - start:.0f}s")
