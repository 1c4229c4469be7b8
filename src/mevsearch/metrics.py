"""Value metrics over ordering searches: EV, k-MEV, weighted MEV, spreads.

All values are exact: balances are ints, prices and probabilities are
`fractions.Fraction`, and valued amounts floor once per token (floor of the
price times the balance delta, matching integer settlement).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .ordering import EvReport, OrderingSpace, SearchBudget, _greedy_k_blocks, search
from .state import ScenarioError, State

PRIMARY_ONLY = "primary_only"
ORACLE_PRICED = "oracle_priced"


@dataclass(frozen=True)
class Valuation:
    """How to value an account in primary-token units.

    ``primary_only`` counts only the primary token balance.  ``oracle_priced``
    additionally values every token with a reference price (a rational number
    of primary units per base unit); tokens without a declared price count
    as zero.
    """

    primary: str
    mode: str = PRIMARY_ONLY
    prices: dict[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in (PRIMARY_ONLY, ORACLE_PRICED):
            raise ScenarioError(f"unknown valuation mode: {self.mode!r}")
        if self.prices.get(self.primary, Fraction(1)) != 1:
            raise ScenarioError("primary token price must be exactly 1")

    def token_value(self, token: str, amount: int) -> int:
        """floor(price * amount); exact pass-through for the primary token."""
        if token == self.primary:
            return amount
        if self.mode == PRIMARY_ONLY:
            return 0
        price = self.prices.get(token)
        if price is None:
            return 0
        return (price.numerator * amount) // price.denominator


def account_totals(state: State, accounts: frozenset[str]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for (acct, token), amount in state.balances.items():
        if acct in accounts:
            totals[token] = totals.get(token, 0) + amount
    return totals


def account_value(state: State, accounts: frozenset[str], valuation: Valuation) -> int:
    """Valued balance of a set of accounts (floor per token)."""
    total = 0
    for token, amount in account_totals(state, accounts).items():
        total += valuation.token_value(token, amount)
    return total


@dataclass(frozen=True)
class PlayerDelta:
    """Objective: valued balance change of the player's accounts since the
    base state (floor applied to the per-token delta, as the EV formula
    prices acquired tokens)."""

    accounts: frozenset[str]
    valuation: Valuation
    base: tuple[tuple[str, int], ...]

    @classmethod
    def from_state(cls, accounts: frozenset[str], valuation: Valuation, state: State) -> "PlayerDelta":
        totals = account_totals(state, accounts)
        return cls(accounts, valuation, tuple(sorted(totals.items())))

    @property
    def tracked(self) -> frozenset[str]:
        return self.accounts

    def value(self, state: State) -> int:
        base = dict(self.base)
        total = 0
        for token, amount in account_totals(state, self.accounts).items():
            total += self.valuation.token_value(token, amount - base.pop(token, 0))
        for token, amount in base.items():
            total += self.valuation.token_value(token, -amount)
        return total


@dataclass(frozen=True)
class AccountBalanceValue:
    """Objective: absolute valued balance of one account (spread metric)."""

    account: str
    valuation: Valuation

    @property
    def tracked(self) -> frozenset[str]:
        return frozenset((self.account,))

    def value(self, state: State) -> int:
        return account_value(state, self.tracked, self.valuation)


@dataclass(frozen=True)
class MinerModel:
    """A player's accounts plus its block-production model.

    Block probabilities either follow the geometric law p_k = f^k (1-f) for a
    hash fraction f, or are given explicitly (p_1, p_2, ...).  The optional
    ``per_block_increment`` switches k-MEV to the constant-increment model
    k*m used by the weighted-MEV closed form.
    """

    accounts: frozenset[str]
    hash_fraction: Fraction | None = None
    block_probs: tuple[Fraction, ...] | None = None
    per_block_increment: int | None = None

    def __post_init__(self):
        if self.hash_fraction is not None:
            if not 0 <= self.hash_fraction < 1:
                raise ScenarioError("hash fraction must satisfy 0 <= f < 1")
        if self.block_probs is not None:
            if any(p < 0 for p in self.block_probs):
                raise ScenarioError("block probabilities must be non-negative")
            if sum(self.block_probs, Fraction(0)) > 1:
                raise ScenarioError("block probabilities must sum to at most 1")

    def probability(self, k: int) -> Fraction:
        if self.block_probs is not None:
            return self.block_probs[k - 1] if k <= len(self.block_probs) else Fraction(0)
        if self.hash_fraction is not None:
            f = self.hash_fraction
            return f ** k * (1 - f)
        raise ScenarioError("miner model has no block-probability law")


@dataclass(frozen=True)
class ValueSpread:
    """Best/worst valued balance of a beneficiary over the feasible
    orderings; the spread is the realizable bribe for picking the best."""

    beneficiary: str
    b_high: int
    b_low: int
    best_ordering: tuple[str, ...]
    worst_ordering: tuple[str, ...]
    paths_explored: int
    exhaustive: bool

    @property
    def spread(self) -> int:
        return self.b_high - self.b_low


def ev(
    player: MinerModel,
    space: OrderingSpace,
    state: State,
    valuation: Valuation,
    budget: SearchBudget,
    workers: int = 1,
    pruning: bool = True,
    want_worst: bool = False,
) -> EvReport:
    """Extractable value: the best valued balance delta of the player's
    accounts over the feasible block constructions."""
    objective = PlayerDelta.from_state(player.accounts, valuation, state)
    return search(
        space, budget, objective, state, pruning=pruning, want_worst=want_worst, workers=workers
    )


def k_mev(
    player: MinerModel,
    state: State,
    space: OrderingSpace,
    k: int,
    valuation: Valuation,
    budget: SearchBudget,
    workers: int = 1,
    pruning: bool = True,
) -> EvReport:
    """Extractable value over k-block constructions.

    Exact joint search under an exhaustive budget; greedy per-block
    concatenation (a lower bound) otherwise.
    """
    if k < 1:
        raise ScenarioError("k must be >= 1")
    return ev(player, replace(space, k=k), state, valuation, budget, workers=workers, pruning=pruning)


@dataclass(frozen=True)
class WmevResult:
    total: Fraction
    per_block_mev: tuple[int, ...]
    probabilities: tuple[Fraction, ...]
    tail_bound: Fraction | None
    # operating cost is reported beside the value, never folded into it
    mining_cost: int = 0

    @property
    def net_of_cost(self) -> Fraction:
        return self.total - self.mining_cost


def wmev(
    player: MinerModel,
    state: State,
    space: OrderingSpace,
    horizon: int,
    valuation: Valuation,
    budget: SearchBudget,
    pruning: bool = True,
    mining_cost: int = 0,
) -> WmevResult:
    """Probability-weighted MEV, truncated at ``horizon`` blocks.

    With the constant-increment model (k-MEV = k*m) the truncated sum
    converges to f*m/(1-f); the geometric tail beyond the horizon is reported
    exactly in that case.  Otherwise per-k values come from one greedy
    multi-block pass.
    """
    if horizon < 1:
        raise ScenarioError("horizon must be >= 1")
    probs = tuple(player.probability(k) for k in range(1, horizon + 1))

    if player.per_block_increment is not None:
        m = player.per_block_increment
        values = tuple(k * m for k in range(1, horizon + 1))
        tail: Fraction | None
        if player.hash_fraction is not None:
            f = player.hash_fraction
            if f == 0:
                tail = Fraction(0)
            else:
                kk = horizon + 1
                tail = m * f ** kk * (kk - (kk - 1) * f) / (1 - f)
        else:
            tail = Fraction(0)
    else:
        objective = PlayerDelta.from_state(player.accounts, valuation, state)
        _, per_block = _greedy_k_blocks(
            state, replace(space, k=horizon), objective, budget, pruning, workers=1
        )
        values = tuple(per_block)
        tail = Fraction(0) if player.block_probs is not None else None

    total = sum((p * v for p, v in zip(probs, values)), Fraction(0))
    return WmevResult(
        total=total,
        per_block_mev=values,
        probabilities=probs,
        tail_bound=tail,
        mining_cost=mining_cost,
    )


def value_spread(
    beneficiary: str,
    space: OrderingSpace,
    state: State,
    valuation: Valuation,
    budget: SearchBudget,
    workers: int = 1,
    pruning: bool = True,
    allow_insertions: bool = False,
) -> ValueSpread:
    """Highest and lowest valued balance the beneficiary can end the block
    with, over reorder/censor orderings (insertions excluded by default)."""
    if space.allow_insert and not allow_insertions:
        raise ScenarioError("value_spread expects a reorder/censor-only space")
    if space.k > 1 and budget.mode != "exhaustive":
        # the greedy multi-block search tracks no worst ordering
        raise ScenarioError("value_spread over k > 1 blocks needs an exhaustive budget")
    objective = AccountBalanceValue(beneficiary, valuation)
    report = search(
        space, budget, objective, state, pruning=pruning, want_worst=True, workers=workers
    )
    return ValueSpread(
        beneficiary=beneficiary,
        b_high=report.best_value,
        b_low=report.worst_value,
        best_ordering=report.best_ordering,
        worst_ordering=report.worst_ordering,
        paths_explored=report.paths_explored,
        exhaustive=report.exhaustive,
    )
