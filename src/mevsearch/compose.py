"""Economic composability checks and the contract-pair attack analyses.

A new contract is epsilon-composable with a state when deploying it raises
the miner-extractable value by at most a (1+epsilon) factor.  Randomized
budgets can only ever exhibit violations, so verdicts carry an explicit
status: a sampled search that finds nothing reports "no violation found",
never "composable".

The attack analyses are the price-bet dichotomy (``liquidity_metrics`` and
the fixed-shape ``build_pricebet_scenario``: one BBT/ETH pool, a 100-stake
bet, the miner's bet and claim templates) and oracle-priced liquidations
(``oracle_liquidation_mev``: one liquidation template per open CDP
position).  The closed forms the tests check these against (the two-AMM
round trip, the bet strategy's shape) live in ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .contracts import AmmPool, MakerBook, Pricebet
from .metrics import MinerModel, Valuation, ev
from .ordering import EvReport, OrderingSpace, SearchBudget
from .state import Bet, GetReward, Liquidate, MINER, ScenarioError, State, Swap, Tx


@dataclass(frozen=True)
class ComposabilityVerdict:
    epsilon: Fraction
    mev_before: int
    mev_after: int
    composable: bool
    status: str  # "composable" | "no violation found" | "not composable (witness found)"
    witness: tuple[str, ...] | None


def check_composability(
    state: State,
    contract_id: str,
    contract,
    player: MinerModel,
    epsilon: Fraction,
    space: OrderingSpace,
    valuation: Valuation,
    budget: SearchBudget,
    workers: int = 1,
) -> ComposabilityVerdict:
    """Compare MEV before and after deploying ``contract`` under identical
    search spaces and budgets.

    Templates that target the new contract are harmless in the before-state:
    they hit an unknown venue and fail, i.e. the miner simply cannot use them
    yet.  The verdict witness is the best ordering of the after-state search.
    """
    if epsilon < 0:
        raise ScenarioError("epsilon must be non-negative")
    before = ev(player, space, state, valuation, budget, workers=workers)
    after_state = state.deploy(contract_id, contract)
    after = ev(player, space, after_state, valuation, budget, workers=workers)

    composable = Fraction(after.best_value) <= (1 + epsilon) * before.best_value
    if not composable:
        status = "not composable (witness found)"
        witness = after.best_ordering
    else:
        status = "composable" if (before.exhaustive and after.exhaustive) else "no violation found"
        witness = None
    return ComposabilityVerdict(
        epsilon=epsilon,
        mev_before=before.best_value,
        mev_after=after.best_value,
        composable=composable,
        status=status,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Price-bet oracle scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiquidityMetrics:
    """Liquid tokens around one pool: pending mempool inflows plus the
    player's free balances (l = inflow + player holding, per side)."""

    mempool_eth_in: int
    mempool_other_in: int
    player_eth: int
    player_other: int

    @property
    def liquid_eth(self) -> int:
        return self.mempool_eth_in + self.player_eth


def liquidity_metrics(scn: PricebetScenario) -> LiquidityMetrics:
    """The liquidity around a price-bet scenario's pool, its valuation's
    primary token being the ETH side."""
    state, pool_id, primary = scn.state, scn.pool_id, scn.valuation.primary
    pool = state.contracts.get(pool_id)
    if not isinstance(pool, AmmPool) or not pool.has_token(primary):
        raise ScenarioError(f"{pool_id!r} is not a pool over the primary token")
    other = pool.token_y if pool.token_x == primary else pool.token_x
    eth_in = other_in = 0
    for tx in scn.space.mempool:
        a = tx.action
        if tx.venue == pool_id and type(a) is Swap and not a.exact_out and a.amount:
            if a.token_in == primary:
                eth_in += a.amount
            elif a.token_in == other:
                other_in += a.amount
    accounts = sorted(scn.player.accounts)
    player_eth = sum(state.balance(acct, primary) for acct in accounts)
    player_other = sum(state.balance(acct, other) for acct in accounts)
    return LiquidityMetrics(eth_in, other_in, player_eth, player_other)


# ---------------------------------------------------------------------------
# Oracle-priced liquidations
# ---------------------------------------------------------------------------

def liquidation_templates(state: State, miner: str) -> tuple[Tx, ...]:
    """One liquidation template per open position in each CDP book."""
    templates: list[Tx] = []
    for venue in sorted(state.contracts):
        book = state.contracts[venue]
        if not isinstance(book, MakerBook):
            continue
        holders = sorted(set(book.collateral) | set(book.debt))
        for victim in holders:
            if book.debt.get(victim, 0) > 0 or book.collateral.get(victim, 0) > 0:
                templates.append(Tx(miner, venue, Liquidate(victim), origin="miner"))
    return tuple(templates)


def oracle_liquidation_mev(
    player: MinerModel,
    state: State,
    space: OrderingSpace,
    valuation: Valuation,
    budget: SearchBudget,
) -> EvReport:
    """MEV when the miner may insert liquidations of every open position,
    ordered freely among the oracle-moving mempool transactions."""
    templates = liquidation_templates(state, space.miner)
    extended = replace(
        space, templates=space.templates + templates, allow_insert=True
    )
    return ev(player, extended, state, valuation, budget)


# ---------------------------------------------------------------------------
# Scenario builder for the oracle-bet dichotomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PricebetScenario:
    state: State
    space: OrderingSpace
    pool_id: str
    bet_id: str
    bet_contract: object
    player: MinerModel
    valuation: Valuation
    eth_in_labels: set[str]
    other_in_labels: set[str]


def build_pricebet_scenario(
    pool_other: int,
    pool_eth: int,
    mempool_eth_in: tuple[int, ...],
    mempool_other_in: tuple[int, ...],
    player_eth: int,
) -> PricebetScenario:
    """Deterministic mempool around one fee-less BBT/ETH pool (b BBT, e
    ETH) with the given inflow totals, plus a price bet on ETH (stake 100,
    deadline block 10) ready to deploy and the miner's bet/claim insertion
    templates.  The miner holds ``player_eth`` ETH and may reorder and
    insert, not censor.

    Each inflow amount becomes one swap by a distinct user funded exactly.
    """
    if pool_other <= pool_eth:
        raise ScenarioError("builder expects the pool to hold more of the paired token")
    pool = AmmPool("BBT", "ETH", pool_other, pool_eth, fee_bps=0)
    balances: dict[tuple[str, str], int] = {(MINER, "ETH"): player_eth}
    mempool: list[Tx] = []
    eth_in_labels: set[str] = set()
    other_in_labels: set[str] = set()
    for i, amount in enumerate(mempool_eth_in):
        user = f"e{i}"
        balances[(user, "ETH")] = amount
        label = f"m{len(mempool)}"
        mempool.append(Tx(user, "amm", Swap("ETH", "BBT", amount), label=label))
        eth_in_labels.add(label)
    for i, amount in enumerate(mempool_other_in):
        user = f"b{i}"
        balances[(user, "BBT")] = amount
        label = f"m{len(mempool)}"
        mempool.append(Tx(user, "amm", Swap("BBT", "ETH", amount), label=label))
        other_in_labels.add(label)

    bet = Pricebet(oracle="amm", token="ETH", deadline=10)
    space = OrderingSpace(
        mempool=tuple(mempool),
        templates=(
            Tx(MINER, "bet", Bet(), origin="miner"),
            Tx(MINER, "bet", GetReward(), origin="miner"),
        ),
        allow_insert=True,
    ).labeled()
    state = State(balances, {"amm": pool}, 0)
    player = MinerModel(accounts=frozenset((MINER,)))
    valuation = Valuation(primary="ETH")
    return PricebetScenario(
        state=state,
        space=space,
        pool_id="amm",
        bet_id="bet",
        bet_contract=bet,
        player=player,
        valuation=valuation,
        eth_in_labels=eth_in_labels,
        other_in_labels=other_in_labels,
    )
