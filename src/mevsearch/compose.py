"""Economic composability checks and the contract-pair attack analyses.

A new contract is epsilon-composable with a state when deploying it raises
the miner-extractable value by at most a (1+epsilon) factor.  Randomized
budgets can only ever exhibit violations, so verdicts carry an explicit
status: a sampled search that finds nothing reports "no violation found",
never "composable".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .contracts import AmmPool, MakerBook, Pricebet, amm_swap_exact_in
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


def liquidity_metrics(
    state: State, space: OrderingSpace, pool_id: str, player: MinerModel, primary: str
) -> LiquidityMetrics:
    pool = state.contracts.get(pool_id)
    if not isinstance(pool, AmmPool) or not pool.has_token(primary):
        raise ScenarioError(f"{pool_id!r} is not a pool over the primary token")
    other = pool.token_y if pool.token_x == primary else pool.token_x
    eth_in = other_in = 0
    for tx in space.mempool:
        a = tx.action
        if tx.venue == pool_id and type(a) is Swap and not a.exact_out and a.amount:
            if a.token_in == primary:
                eth_in += a.amount
            elif a.token_in == other:
                other_in += a.amount
    player_eth = sum(state.balance(acct, primary) for acct in sorted(player.accounts))
    player_other = sum(state.balance(acct, other) for acct in sorted(player.accounts))
    return LiquidityMetrics(eth_in, other_in, player_eth, player_other)


def pricebet_templates(miner: str, bet_venue: str) -> tuple[Tx, Tx]:
    """The two insertions of the oracle-manipulation strategy."""
    return (
        Tx(miner, bet_venue, Bet(), origin="miner"),
        Tx(miner, bet_venue, GetReward(), origin="miner"),
    )


def matches_bet_strategy_shape(
    ordering: tuple[str, ...],
    bet_label: str,
    reward_label: str,
    eth_in_labels: set[str],
    other_in_labels: set[str],
) -> bool:
    """Does an ordering realize the four-step manipulation: bet placed, every
    primary-token inflow before the claim, every outflow after it?"""
    pos = {lbl: i for i, lbl in enumerate(ordering)}
    if bet_label not in pos or reward_label not in pos:
        return False
    claim = pos[reward_label]
    if pos[bet_label] > claim:
        return False
    if any(pos[lbl] > claim for lbl in eth_in_labels if lbl in pos):
        return False
    if any(pos[lbl] < claim for lbl in other_in_labels if lbl in pos):
        return False
    return True


# ---------------------------------------------------------------------------
# Two-AMM arbitrage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoAmmInstance:
    """Two constant-product pools over the same token pair.  By convention
    reserve_x is the non-primary side (b) and reserve_y the primary (e)."""

    pool_a: AmmPool
    pool_b: AmmPool

    def __post_init__(self):
        same = {self.pool_a.token_x, self.pool_a.token_y} == {
            self.pool_b.token_x,
            self.pool_b.token_y,
        }
        if not same:
            raise ScenarioError("pools must share one token pair")

    @property
    def delta(self) -> int:
        """Size bound below which a round trip profits when prices disagree:
        |b*e' - b'*e| / (b + b'), floor."""
        a, b = self.pool_a, self.pool_b
        return abs(a.reserve_x * b.reserve_y - b.reserve_x * a.reserve_y) // (
            a.reserve_x + b.reserve_x
        )

    @property
    def aligned(self) -> bool:
        a, b = self.pool_a, self.pool_b
        return a.reserve_x * b.reserve_y == b.reserve_x * a.reserve_y

    def profitable_start(self) -> str:
        """Which pool to deposit primary tokens into first: the one valuing
        them more (cross-multiplied comparison)."""
        a, b = self.pool_a, self.pool_b
        return "A" if a.reserve_x * b.reserve_y > b.reserve_x * a.reserve_y else "B"

    def pools(self, start: str) -> tuple[AmmPool, AmmPool]:
        if start == "A":
            return self.pool_a, self.pool_b
        if start == "B":
            return self.pool_b, self.pool_a
        raise ScenarioError("start must be 'A' or 'B'")


def two_amm_roundtrip(instance: TwoAmmInstance, start: str, alpha: int) -> int:
    """Integer profit of depositing ``alpha`` primary tokens into ``start``,
    swapping the proceeds through the other pool, and netting out.

    Fee-less pools use the composed closed form (one floor); with fees the
    two swaps are chained exactly as they would execute.
    """
    if alpha <= 0:
        raise ScenarioError("alpha must be positive")
    first, second = instance.pools(start)
    if first.fee_bps == 0 and second.fee_bps == 0:
        b, e = first.reserve_x, first.reserve_y
        b2, e2 = second.reserve_x, second.reserve_y
        out = (e2 * b * alpha) // (b2 * e + b2 * alpha + b * alpha)
        return out - alpha
    res1 = amm_swap_exact_in(first, first.token_y, alpha)
    if res1 is None:
        raise ScenarioError("first leg rejected the trade")
    _, mid = res1
    if mid == 0:
        return -alpha
    res2 = amm_swap_exact_in(second, second.token_x, mid)
    if res2 is None:
        raise ScenarioError("second leg rejected the trade")
    _, out = res2
    return out - alpha


def two_amm_roundtrip_exact(instance: TwoAmmInstance, start: str, alpha) -> Fraction:
    """No-rounding, no-fee rational profit of the composed two-hop trade."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ScenarioError("alpha must be positive")
    first, second = instance.pools(start)
    b, e = first.reserve_x, first.reserve_y
    b2, e2 = second.reserve_x, second.reserve_y
    return (e2 * b * alpha) / (b2 * e + b2 * alpha + b * alpha) - alpha


def roundtrip_alpha_star(instance: TwoAmmInstance, start: str, scale: int = 10**9) -> Fraction:
    """Closed-form maximizer (sqrt(b'e * be') - b'e)/(b + b') of the no-fee
    rational profit, as a Fraction accurate to 1/scale."""
    first, second = instance.pools(start)
    b, e = first.reserve_x, first.reserve_y
    b2, e2 = second.reserve_x, second.reserve_y
    root = Fraction(math.isqrt(b2 * e * b * e2 * scale * scale), scale)
    return (root - b2 * e) / (b + b2)


# ---------------------------------------------------------------------------
# Oracle-priced liquidations
# ---------------------------------------------------------------------------

def liquidation_templates(state: State, miner: str, book_ids: list[str] | None = None) -> tuple[Tx, ...]:
    """One liquidation template per open position in each CDP book."""
    templates: list[Tx] = []
    for venue in sorted(state.contracts):
        if book_ids is not None and venue not in book_ids:
            continue
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
    book_ids: list[str] | None = None,
    workers: int = 1,
) -> EvReport:
    """MEV when the miner may insert liquidations of every open position,
    ordered freely among the oracle-moving mempool transactions."""
    templates = liquidation_templates(state, space.miner, book_ids)
    extended = replace(
        space, templates=space.templates + templates, allow_insert=True
    )
    return ev(player, extended, state, valuation, budget, workers=workers)


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
    player_other: int = 0,
    stake: int = 100,
    deadline: int = 10,
    allow_censor: bool = False,
    primary: str = "ETH",
    other: str = "BBT",
    miner: str = MINER,
) -> PricebetScenario:
    """Deterministic mempool around one fee-less pool (b other-tokens, e
    primary) with the given inflow totals, plus a price-bet contract ready to
    deploy and the bet/claim insertion templates.

    Each inflow amount becomes one swap by a distinct user funded exactly.
    """
    if pool_other <= pool_eth:
        raise ScenarioError("builder expects the pool to hold more of the paired token")
    pool = AmmPool(other, primary, pool_other, pool_eth, fee_bps=0)
    balances: dict[tuple[str, str], int] = {(miner, primary): player_eth}
    if player_other:
        balances[(miner, other)] = player_other
    mempool: list[Tx] = []
    eth_in_labels: set[str] = set()
    other_in_labels: set[str] = set()
    for i, amount in enumerate(mempool_eth_in):
        user = f"e{i}"
        balances[(user, primary)] = amount
        label = f"m{len(mempool)}"
        mempool.append(Tx(user, "amm", Swap(primary, other, amount), label=label))
        eth_in_labels.add(label)
    for i, amount in enumerate(mempool_other_in):
        user = f"b{i}"
        balances[(user, other)] = amount
        label = f"m{len(mempool)}"
        mempool.append(Tx(user, "amm", Swap(other, primary, amount), label=label))
        other_in_labels.add(label)

    bet = Pricebet(
        oracle="amm", token=primary, deadline=deadline, stake=stake, reward=2 * stake, pot=stake
    )
    templates = pricebet_templates(miner, "bet")
    space = OrderingSpace(
        mempool=tuple(mempool),
        templates=templates,
        allow_reorder=True,
        allow_censor=allow_censor,
        allow_insert=True,
        miner=miner,
    ).labeled()
    state = State(balances, {"amm": pool}, 0)
    player = MinerModel(accounts=frozenset((miner,)))
    valuation = Valuation(primary=primary)
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
