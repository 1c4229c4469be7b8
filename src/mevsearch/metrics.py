"""Value metrics over ordering searches: EV, k-MEV, weighted MEV, spreads.

All values are exact: balances are ints, prices and probabilities are
`fractions.Fraction`, and valued amounts floor once per token (floor of the
price times the balance delta, matching integer settlement).

An objective (``PlayerDelta``, ``AccountBalanceValue``) names the accounts it
``tracked`` and its ``value(state)`` reads nothing but those accounts'
balances.  The search relies on this contract, the sampler and the exhaustive
search alike: the sampler evaluates only the transactions whose footprints
reach a tracked balance, and only up to the last one that touches a tracked
balance or may raise, and an exhaustive search values every construction
under a node whose remaining transactions touch no tracked balance at that
node's state (see ``ordering``), so a ``value`` that read anything else could
see a state missing the others.  The exhaustive search collapses, and the
sampler stops at that last transaction, only for these two classes, by exact
type: under a subclass the exhaustive search values every construction and
the sampler applies each slice whole.  Nor may ``value`` depend on the order of the state's dicts: an
exhaustive search values a state once for all the states equal to it up to
that order.

Both objectives value ``deltas(state)``, each token's tracked total minus
the base (``AccountBalanceValue``'s base is empty), with ``valuation``.  The
integer kernels of swap-only searches and insertion tails read only
``tracked``, ``valuation`` and ``deltas``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .ordering import EvReport, OrderingSpace, SearchBudget, _greedy_k_blocks, search
from .state import ScenarioError, State

PRIMARY_ONLY = "primary_only"
ORACLE_PRICED = "oracle_priced"
_ZERO, _ONE = Fraction(0), Fraction(1)


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

    def price(self, token: str) -> Fraction:
        """Primary units per base unit of ``token``: 1 for the primary token,
        0 for a token this valuation does not price."""
        if token == self.primary:
            return _ONE
        if self.mode == PRIMARY_ONLY:
            return _ZERO
        return self.prices.get(token, _ZERO)

    def token_value(self, token: str, amount: int) -> int:
        """floor(price * amount); exact pass-through for the primary token."""
        if token == self.primary:
            return amount
        price = self.price(token)
        return (price.numerator * amount) // price.denominator


def account_totals(state: State, accounts: frozenset[str]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for (acct, token), amount in state.balances.items():
        if acct in accounts:
            totals[token] = totals.get(token, 0) + amount
    return totals


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

    def deltas(self, state: State) -> dict[str, int]:
        """Per token, the tracked accounts' total in ``state`` minus the base."""
        deltas = account_totals(state, self.accounts)
        for token, amount in self.base:
            deltas[token] = deltas.get(token, 0) - amount
        return deltas

    def value(self, state: State) -> int:
        total = 0  # floor per token
        for token, delta in self.deltas(state).items():
            total += self.valuation.token_value(token, delta)
        return total


@dataclass(frozen=True)
class AccountBalanceValue:
    """Objective: absolute valued balance of one account (spread metric)."""

    account: str
    valuation: Valuation

    @property
    def tracked(self) -> frozenset[str]:
        return frozenset((self.account,))

    def deltas(self, state: State) -> dict[str, int]:
        """Per token, the account's total in ``state`` (the base is empty)."""
        return account_totals(state, self.tracked)

    def value(self, state: State) -> int:
        total = 0  # floor per token
        for token, amount in self.deltas(state).items():
            total += self.valuation.token_value(token, amount)
        return total


@dataclass(frozen=True)
class MinerModel:
    """A player's accounts plus its block-production model.

    Block probabilities follow the geometric law p_k = f^k (1-f) for a hash
    fraction f.  The optional ``per_block_increment`` switches k-MEV to the
    constant-increment model k*m used by the weighted-MEV closed form.
    """

    accounts: frozenset[str]
    hash_fraction: Fraction | None = None
    per_block_increment: int | None = None

    def __post_init__(self):
        if self.hash_fraction is not None:
            if not 0 <= self.hash_fraction < 1:
                raise ScenarioError("hash fraction must satisfy 0 <= f < 1")

    def probability(self, k: int) -> Fraction:
        f = self.hash_fraction
        if f is None:
            raise ScenarioError("miner model has no block-probability law")
        return f ** k * (1 - f)


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
) -> EvReport:
    """Extractable value: the best valued balance delta of the player's
    accounts over the feasible block constructions.

    k-MEV is ``ev`` of ``replace(space, k=k)``: an exact joint search under
    an exhaustive budget, a greedy per-block concatenation (a lower bound)
    otherwise."""
    objective = PlayerDelta.from_state(player.accounts, valuation, state)
    return search(space, budget, objective, state, workers=workers)


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
    mining_cost: int = 0,
) -> WmevResult:
    """Probability-weighted MEV, truncated at ``horizon`` blocks.

    With the constant-increment model (k-MEV = k*m) the truncated sum
    converges to f*m/(1-f); the geometric tail beyond the horizon is reported
    exactly in that case.  Otherwise per-k values come from one greedy
    multi-block pass, and no tail is reported.
    """
    if horizon < 1:
        raise ScenarioError("horizon must be >= 1")
    probs = tuple(player.probability(k) for k in range(1, horizon + 1))

    tail: Fraction | None = None
    if player.per_block_increment is not None:
        m = player.per_block_increment
        values = tuple(k * m for k in range(1, horizon + 1))
        f, kk = player.hash_fraction, horizon + 1
        tail = Fraction(m * f ** kk * (kk - (kk - 1) * f), 1 - f)
    else:
        objective = PlayerDelta.from_state(player.accounts, valuation, state)
        _, per_block = _greedy_k_blocks(state, replace(space, k=horizon), objective, budget)
        values = tuple(per_block)

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
) -> ValueSpread:
    """Highest and lowest valued balance the beneficiary can end the block
    with, over reorder/censor orderings (insertions excluded)."""
    if space.allow_insert:
        raise ScenarioError("value_spread expects a reorder/censor-only space")
    if space.k > 1 and budget.mode != "exhaustive":
        # the greedy multi-block search tracks no worst ordering
        raise ScenarioError("value_spread over k > 1 blocks needs an exhaustive budget")
    objective = AccountBalanceValue(beneficiary, valuation)
    report = search(space, budget, objective, state, workers=workers)
    return ValueSpread(
        beneficiary=beneficiary,
        b_high=report.best_value,
        b_low=report.worst_value,
        best_ordering=report.best_ordering,
        worst_ordering=report.worst_ordering,
        paths_explored=report.paths_explored,
        exhaustive=report.exhaustive,
    )
