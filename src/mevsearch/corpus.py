"""Seeded random scenario generation and the sampling-convergence experiment.

Instances are reorder-only AMM scenarios with one designated beneficiary (a
"whale" whose ordering-dependent outcome is the quantity of interest), built
deterministically from a seed: the same (seed, count, txs) always produces
byte-identical scenario files.  ``gen_corpus`` is the CLI's suite and
``convergence_corpus`` the experiment's; the tests draw their own corpora
from ``make_spread_instance`` too.

The convergence experiment (``measure_convergence``) has one setting, the
paper's: sample 1% of the paths (``PATH_FRACTION``) and count a hit at 70%
of the exact spread (``TARGET_RATIO``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .contracts import AmmPool
from .metrics import Valuation, value_spread
from .ordering import _RUN, SearchBudget, _Tree
from .scenario import Scenario, TokenDecl
from .state import ScenarioError, Swap, Tx

WAD = 10**18
WHALE = "whale"
PATH_FRACTION = Fraction(1, 100)
TARGET_RATIO = Fraction(7, 10)


def _instance_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def make_spread_instance(
    seed: int,
    index: int,
    n_txs: int,
    n_pools: int = 2,
    fee_bps: int = 30,
    whale_txs: int = 2,
) -> Scenario:
    """One reorder-only instance: ``n_txs`` swaps across ``n_pools`` pools,
    ``whale_txs`` of them by the beneficiary, prices valued at the first
    pool's initial spot rate."""
    rng = _instance_rng(seed, index)
    pools: dict[str, object] = {}
    reserves: list[tuple[int, int]] = []
    eth0 = rng.randint(500, 5_000) * WAD
    ratio = rng.randint(50, 200)
    tkn0 = eth0 * 100 // ratio
    reserves.append((tkn0, eth0))
    for p in range(1, n_pools):
        skew = rng.randint(90, 112)
        reserves.append((tkn0 * 100 // skew, eth0 * skew // 100))
    for p, (rx, ry) in enumerate(reserves):
        pools[f"pool{p}"] = AmmPool("TKN", "ETH", rx, ry, fee_bps=fee_bps)

    balances: dict[tuple[str, str], int] = {}
    mempool: list[Tx] = []
    whale_slots = sorted(rng.sample(range(n_txs), min(whale_txs, n_txs)))
    for i in range(n_txs):
        venue = f"pool{rng.randrange(n_pools)}"
        pool: AmmPool = pools[venue]  # type: ignore[assignment]
        is_whale = i in whale_slots
        actor = WHALE if is_whale else f"u{i}"
        per_mille = rng.randint(30, 80) if is_whale else rng.randint(2, 40)
        sell_tkn = rng.getrandbits(1) == 1
        if sell_tkn:
            amount = pool.reserve_x * per_mille // 1000
            token_in, token_out = "TKN", "ETH"
        else:
            amount = pool.reserve_y * per_mille // 1000
            token_in, token_out = "ETH", "TKN"
        key = (actor, token_in)
        balances[key] = balances.get(key, 0) + amount
        mempool.append(Tx(actor, venue, Swap(token_in, token_out, amount), label=f"m{i}"))

    valuation = Valuation(
        primary="ETH", mode="oracle_priced", prices={"TKN": Fraction(eth0, tkn0)}
    )
    return Scenario(
        tokens=(TokenDecl("ETH", primary=True), TokenDecl("TKN")),
        balances=balances,
        contracts=pools,
        mempool=tuple(mempool),
        miner_account="miner",
        templates=(),
        allow_reorder=True,
        allow_censor=False,
        allow_insert=False,
        valuation=valuation,
        budget=SearchBudget(mode="exhaustive", seed=seed),
        beneficiary=WHALE,
    )


def convergence_corpus(seed: int, count: int = 100) -> list[Scenario]:
    """7-9 transaction instances for the sampling-convergence experiment."""
    out = []
    for i in range(count):
        rng = _instance_rng(seed, 20_000 + i)
        n = rng.choice([7, 7, 8, 8, 8, 9])
        out.append(make_spread_instance(seed, 20_000 + i, n, n_pools=2, fee_bps=30, whale_txs=2))
    return out


def gen_corpus(seed: int, count: int, txs: int) -> list[Scenario]:
    """Scenario suite for the CLI: fixed transaction count per instance."""
    return [
        make_spread_instance(seed, i, txs, n_pools=2, fee_bps=30, whale_txs=min(2, txs))
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# Convergence measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergencePoint:
    index: int
    paths_total: int
    paths_sampled: int
    exhaustive_spread: int
    sampled_spread: int

    @property
    def ratio(self) -> Fraction:
        if self.exhaustive_spread == 0:
            return Fraction(1)
        return Fraction(self.sampled_spread, self.exhaustive_spread)


@dataclass(frozen=True)
class ConvergenceResult:
    points: tuple[ConvergencePoint, ...]

    @property
    def hits(self) -> int:
        return sum(1 for p in self.points if p.ratio >= TARGET_RATIO)


def measure_convergence(instances: list[Scenario], seed: int = 0) -> ConvergenceResult:
    """For each instance: exhaustive best-ordering spread of the beneficiary
    versus the spread found by sampling ``PATH_FRACTION`` of the pruned
    paths.  A point "hits" when the sampled spread reaches ``TARGET_RATIO``
    of the exhaustive one.

    The paths are counted with identical swaps as the only independent
    pairs (``_RUN``): the experiment's budget is a fraction of the
    orderings, not of the footprint classes, which are far fewer.  Run keys
    read no state, so the tree counts its constructions from its context
    table without applying a transaction or enumerating a key; the exact
    spread comes from the search's own fold, with footprints too.  Both are
    exact."""
    points = []
    for i, scenario in enumerate(instances):
        beneficiary = scenario.beneficiary
        if beneficiary is None:
            raise ScenarioError(f"convergence instance {i} has no beneficiary")
        state, space = scenario.initial_state(), scenario.space()
        valuation = scenario.get_valuation()
        total = _Tree(space, _RUN, frozenset({beneficiary})).count()
        exact = value_spread(beneficiary, space, state, valuation, SearchBudget(mode="exhaustive"))
        budget = max(1, int(total * PATH_FRACTION))
        sampled = value_spread(
            beneficiary,
            space,
            state,
            valuation,
            SearchBudget(mode="randomized", max_paths=budget, seed=seed * 7_919 + i,
                         tractability_threshold=0),
        )
        points.append(
            ConvergencePoint(
                index=i,
                paths_total=total,
                paths_sampled=sampled.paths_explored,
                exhaustive_spread=exact.spread,
                sampled_spread=sampled.spread,
            )
        )
    return ConvergenceResult(points=tuple(points))
