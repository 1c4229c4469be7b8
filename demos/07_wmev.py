"""Walkthrough: weighting multi-block extraction by the chance of getting
those blocks.

A miner with hash fraction f appends exactly k consecutive blocks with
probability f^k (1-f).  If each extra block adds a constant m to the
extractable value, the weighted sum telescopes to f*m/(1-f); the truncated
series at horizon 64 agrees to far better than one part in a billion.

Writes demos/data/wmev_scenario.json (a minimal scenario for the CLI).
"""

from fractions import Fraction
from pathlib import Path

from mevsearch import AmmPool, MinerModel, OrderingSpace, SearchBudget, State, wmev
from mevsearch.metrics import Valuation
from mevsearch.scenario import Scenario, TokenDecl, save_scenario

DATA = Path(__file__).parent / "data"

print(" f      m   truncated WMEV (horizon 64)        closed form f*m/(1-f)")
for f, m in ((Fraction(1, 10), 5), (Fraction(1, 4), 3), (Fraction(1, 2), 2)):
    player = MinerModel(accounts=frozenset({"miner"}), hash_fraction=f, per_block_increment=m)
    result = wmev(player, State(), OrderingSpace(mempool=()), 64,
                  Valuation(primary="ETH"), SearchBudget(mode="exhaustive"))
    closed = f * m / (1 - f)
    rel = abs(result.total - closed) / closed
    print(f" {str(f):<5} {m:>2}   {float(result.total):<22.15f}"
          f"      {float(closed):<10.6f} (rel err {float(rel):.2e},"
          f" tail bound {float(result.tail_bound):.2e})")

scenario = Scenario(
    tokens=(TokenDecl("ETH", primary=True, decimals=0), TokenDecl("TKN", decimals=0)),
    balances={("u", "TKN"): 500},
    contracts={"amm": AmmPool("TKN", "ETH", 5_000, 5_000, fee_bps=30)},
    mempool=(),
    miner_account="miner",
    templates=(),
    allow_reorder=True,
    allow_censor=False,
    allow_insert=False,
    budget=SearchBudget(mode="exhaustive"),
)
DATA.mkdir(exist_ok=True)
save_scenario(scenario, DATA / "wmev_scenario.json")
print(f"Minimal scenario written to {DATA / 'wmev_scenario.json'}")
