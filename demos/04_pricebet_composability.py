"""Walkthrough: when does adding a price bet leave extractable value alone?

Two states around the same pool and bet contract.  With little liquid ETH
around, deploying the bet changes nothing a miner can exploit (0-composable).
With enough pending ETH inflow, the miner bets, stacks the inflows to flip
the oracle momentarily, claims double, and lets the rest of the mempool swing
the price back.

Writes demos/data/pricebet_compose.json (the exploitable variant).
"""

from fractions import Fraction
from pathlib import Path

from mevsearch.compose import build_pricebet_scenario, check_composability, liquidity_metrics
from mevsearch.ordering import SearchBudget
from mevsearch.scenario import Scenario, TokenDecl, save_scenario

DATA = Path(__file__).parent / "data"
EXH = SearchBudget(mode="exhaustive")


def run(title, scn):
    print(title)
    metrics = liquidity_metrics(scn)
    pool = scn.state.contracts[scn.pool_id]
    gap = pool.reserve_x - pool.reserve_y
    print(f"  pool (paired, ETH) = ({pool.reserve_x}, {pool.reserve_y}); reserve gap = {gap}")
    print(f"  liquid ETH = mempool inflow {metrics.mempool_eth_in} + player {metrics.player_eth}"
          f" = {metrics.liquid_eth}")
    verdict = check_composability(
        scn.state, scn.bet_id, scn.bet_contract, scn.player, Fraction(0), scn.space,
        scn.valuation, EXH,
    )
    print(f"  MEV before deploy: {verdict.mev_before}   after: {verdict.mev_after}")
    print(f"  verdict: {verdict.status}")
    if verdict.witness:
        print(f"  witness ordering: {verdict.witness}")
    print()
    return verdict


safe = build_pricebet_scenario(
    pool_other=2_000, pool_eth=1_000,
    mempool_eth_in=(100, 80), mempool_other_in=(60,),
    player_eth=120,
)
run("Small liquidity: the flip is out of reach, the bet composes.", safe)

exploitable = build_pricebet_scenario(
    pool_other=1_000, pool_eth=900,
    mempool_eth_in=(60, 80), mempool_other_in=(200,),
    player_eth=100,
)
verdict = run("Ample inflow (e' > gap) and the player holds the stake:", exploitable)
assert verdict.mev_after - verdict.mev_before >= 100

scenario = Scenario(
    tokens=(TokenDecl("ETH", primary=True, decimals=0), TokenDecl("BBT", decimals=0)),
    balances=dict(exploitable.state.balances),
    contracts=dict(exploitable.state.contracts),
    mempool=exploitable.space.mempool,
    miner_account="miner",
    templates=exploitable.space.templates,
    allow_reorder=True,
    allow_censor=False,
    allow_insert=True,
    budget=SearchBudget(mode="exhaustive"),
    new_contract=(exploitable.bet_id, exploitable.bet_contract),
)
DATA.mkdir(exist_ok=True)
save_scenario(scenario, DATA / "pricebet_compose.json")
print(f"Exploitable scenario written to {DATA / 'pricebet_compose.json'}")
