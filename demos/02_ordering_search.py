"""Walkthrough: the miner's feasible orderings and the pruned search.

Counts the feasible sequences of a small mempool under the different miner
powers, shows how runs of identical trades collapse, and runs a best/worst search
for a beneficiary.
"""

from mevsearch import (
    AmmPool,
    OrderingSpace,
    SearchBudget,
    State,
    Swap,
    Tx,
    count_sequences,
    search,
    value_spread,
)
from mevsearch.metrics import Valuation

pool = AmmPool("TKN", "ETH", 1_000_000, 1_000_000, fee_bps=30)
state = State(
    balances={
        ("whale", "TKN"): 50_000,
        ("u1", "ETH"): 30_000,
        ("u2", "ETH"): 9_000,
        ("u3", "TKN"): 14_000,
        ("u4", "ETH"): 11_000,
    },
    contracts={"amm": pool},
)
mempool = (
    Tx("whale", "amm", Swap("TKN", "ETH", 50_000), label="whale-sell"),
    Tx("u1", "amm", Swap("ETH", "TKN", 30_000), label="u1-buy"),
    Tx("u2", "amm", Swap("ETH", "TKN", 9_000), label="u2-buy"),
    Tx("u3", "amm", Swap("TKN", "ETH", 14_000), label="u3-sell"),
    Tx("u4", "amm", Swap("ETH", "TKN", 9_000), label="u4-buy"),
)

print("Sequence counts for 5 pending transactions:")
for reorder, censor in ((False, False), (True, False), (True, True)):
    sp = OrderingSpace(mempool=mempool, allow_reorder=reorder, allow_censor=censor)
    raw = count_sequences(sp, pruning=False)
    pruned = count_sequences(sp, pruning=True, tracked=frozenset({"whale"}))
    print(f"  reorder={reorder!s:<5} censor={censor!s:<5} raw={raw:>6} pruned={pruned:>6}")

print("\nu2 and u4 make the same trade (9,000 ETH for TKN) and neither is")
print("tracked, so either order leaves the same pool and one order is kept;")
print("distinct trades and the tracked whale's position still vary freely.")

valuation = Valuation(primary="ETH")
spread = value_spread("whale", OrderingSpace(mempool=mempool), state, valuation,
                      SearchBudget(mode="exhaustive"))
print(f"\nWhale's best ordering  {spread.best_ordering} -> {spread.b_high} ETH")
print(f"Whale's worst ordering {spread.worst_ordering} -> {spread.b_low} ETH")
print(f"Spread (the bribe a miner could extract): {spread.spread} ETH")
print(f"Paths explored: {spread.paths_explored} (exhaustive={spread.exhaustive})")

budget = SearchBudget(mode="randomized", max_paths=10, seed=1, tractability_threshold=0)
sampled = value_spread("whale", OrderingSpace(mempool=mempool), state, valuation, budget)
print(f"\nSampling 10 orderings finds a spread of {sampled.spread} ETH "
      f"({100 * sampled.spread // max(1, spread.spread)}% of exhaustive)")
