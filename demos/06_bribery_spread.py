"""Walkthrough: the bribe a trader would pay for their best ordering.

One user sells a large position while several bots buy the dip.  The user's
outcome swings between "executed before the bots" (worst) and "executed after
them" (best); that spread is revenue a miner can capture through a bribery
contract without trading at all.
"""

from mevsearch import AmmPool, OrderingSpace, SearchBudget, State, Swap, Tx
from mevsearch.metrics import Valuation, value_spread

pool = AmmPool("YFI", "ETH", 1_000 * 10**18, 30_000 * 10**18, fee_bps=30)
state = State(
    balances={
        ("A", "YFI"): 22 * 10**18,
        ("B", "ETH"): 60 * 10**18,
        ("C", "ETH"): 103 * 10**18,
        ("D", "ETH"): 300 * 10**18,
    },
    contracts={"sushi": pool},
)
mempool = (
    Tx("A", "sushi", Swap("YFI", "ETH", 22 * 10**18), label="A"),
    Tx("B", "sushi", Swap("ETH", "YFI", 60 * 10**18), label="B"),
    Tx("C", "sushi", Swap("ETH", "YFI", 103 * 10**18), label="C"),
    Tx("D", "sushi", Swap("ETH", "YFI", 300 * 10**18), label="D"),
)
space = OrderingSpace(mempool=mempool)

bound = value_spread("A", space, state, Valuation(primary="ETH"), SearchBudget(mode="exhaustive"))
WAD = 10**18
print("A sells 22 YFI; B, C, D buy the dip with ETH.")
print(f"  best ordering for A:  {bound.best_ordering}  -> {bound.b_high / WAD:.4f} ETH")
print(f"  worst ordering for A: {bound.worst_ordering} -> {bound.b_low / WAD:.4f} ETH")
print(f"  spread b_high - b_low = {bound.spread / WAD:.4f} ETH")
print()
print("A rational trader pays up to the spread for the good ordering, so a")
print("bribery contract adds exactly this much extractable value for the")
print(f"miner ({bound.paths_explored} orderings examined).")
assert bound.best_ordering[-1] == "A" and bound.worst_ordering[0] == "A"
