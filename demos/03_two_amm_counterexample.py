"""Walkthrough: the two-pool arbitrage left on the table by a real backrun.

A user dumps 1300 COMP into the smaller of two COMP/ETH pools.  The miner
inserts a buy on the drained pool and a sell of the same size on the deeper
pool, then optimizes that size.  The historical arbitrageur cleared about
76 ETH here; the optimized insertion clears about 123 ETH.

Writes demos/data/two_amm_counterexample.json (the scenario file used by the
CLI demos) and the profit-vs-size curve.
"""

from pathlib import Path

from mevsearch import AmmPool, OrderingSpace, SearchBudget, State, Swap, Tx
from mevsearch.insertion import InsertionProblem, profit_curve, search_with_insertion
from mevsearch.metrics import PlayerDelta, Valuation
from mevsearch.ordering import SearchBudget
from mevsearch.scenario import Scenario, TokenDecl, save_scenario

WAD = 10**18
DATA = Path(__file__).parent / "data"

deep_pool = AmmPool("COMP", "ETH", 107495485843438764484770, 49835502094518088853633, fee_bps=30)
thin_pool = AmmPool("COMP", "ETH", 5945498629669852264883, 2615599823603823616442, fee_bps=30)
user = "697323163401596485410334513241460920685086001293"

scenario = Scenario(
    tokens=(TokenDecl("ETH", primary=True), TokenDecl("COMP")),
    balances={(user, "COMP"): 1300 * WAD, ("miner", "ETH"): 10_000 * WAD},
    contracts={"sushiswap": deep_pool, "uniswapv2": thin_pool},
    mempool=(Tx(user, "uniswapv2", Swap("COMP", "ETH", 1300 * WAD), label="user-sell"),),
    miner_account="miner",
    templates=(
        Tx("miner", "uniswapv2", Swap("ETH", "COMP", None, exact_out=True), origin="miner", label="buy"),
        Tx("miner", "sushiswap", Swap("COMP", "ETH", None), origin="miner", label="sell"),
    ),
    allow_reorder=True,
    allow_censor=False,
    allow_insert=True,
    budget=SearchBudget(mode="exhaustive"),
    insertion_bounds=(1, 10**22 - 1),
)
DATA.mkdir(exist_ok=True)
save_scenario(scenario, DATA / "two_amm_counterexample.json")

state = scenario.initial_state()
space = scenario.space()
objective = PlayerDelta.from_state(frozenset({"miner"}), Valuation(primary="ETH"), state)

print("Pools (COMP, ETH):")
print(f"  deep  pool: {deep_pool.reserve_x} / {deep_pool.reserve_y}")
print(f"  thin  pool: {thin_pool.reserve_x} / {thin_pool.reserve_y}")
print(f"User sells 1300 COMP on the thin pool; miner picks a trade size in (0, 10^22).")

result = search_with_insertion(space, scenario.budget, objective, state, *scenario.insertion_bounds)
print(f"\nBest ordering: {result.report.best_ordering}")
print(f"Optimal insertion size: {result.alpha / WAD:.3f} COMP")
print(f"Miner profit: {result.report.best_value / WAD:.4f} ETH  (historical arb made ~76 ETH)")

problem = InsertionProblem(state, result.skeleton, *scenario.insertion_bounds, objective)
rows = ["alpha,profit"]
for alpha, profit in profit_curve(problem, samples=96):
    rows.append(f"{alpha},{'' if profit is None else profit}")
(DATA / "two_amm_profit_curve.csv").write_text("\n".join(rows) + "\n")
print(f"\nProfit curve written to {DATA / 'two_amm_profit_curve.csv'}")
positive = [r for r in rows[1:] if r.split(',')[1] and int(r.split(',')[1]) > 0]
print(f"Sizes with positive profit on the sampled grid: {len(positive)} of {len(rows) - 1}")
