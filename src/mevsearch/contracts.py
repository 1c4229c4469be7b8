"""Executable contract models: constant-product AMM, CDP book, price bet.

All arithmetic is exact integer arithmetic.  Price comparisons are
cross-multiplied (no division anywhere in a guard), and every operation
either returns a full successor state or ``None``.  ``swap_amounts`` is the one
swap rule: it holds the deployed-AMM rounding (floor on exact-input output,
floor+1 on exact-output input) and the trade's bottom outcomes, for the
search's ``State`` path (through ``amm_swap``) and for insertion's integer
kernel alike.

Each contract model is a frozen dataclass plus one transition rule per action
it accepts.  A rule takes ``(state, tx, contract)``, checks its guards and
returns ``state.settle(moves, venue, new_contract)``; ``_EXECUTORS`` maps
contract type and action type to the rule.  Adding a contract model means one
dataclass, its rules, one ``_EXECUTORS`` row, its codec in ``scenario`` and its
branch in ``ordering._footprint`` (until it has one, the sleep sets treat its
transactions as dependent on every other).

Contracts compare and hash by value, and ``ordering``'s DAG fold keys its
states by them.  A model's dict fields are ``field(hash=False)``, so a
contract hashes by its other fields and compares by all of them, each dict
by its items in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .state import (
    AddLiquidity,
    Bet,
    CDP_KINDS,
    CdpManipulate,
    GetReward,
    Liquidate,
    RemoveLiquidity,
    ScenarioError,
    State,
    Swap,
    Tx,
)

FEE_DENOM = 10_000


@dataclass(frozen=True, slots=True)
class AmmPool:
    """Constant-product pool over ``token_x``/``token_y``.

    ``fee_bps`` generalizes the deployed 0.3% fee: an input of ``a`` trades as
    ``a * (10000 - fee_bps) / 10000`` while the full ``a`` enters the
    reserves.  ``lp_shares`` maps accounts to liquidity-provider shares.
    """

    token_x: str
    token_y: str
    reserve_x: int
    reserve_y: int
    fee_bps: int = 30
    lp_total: int = 0
    lp_shares: dict[str, int] = field(default_factory=dict, hash=False)

    def reserve(self, token: str) -> int:
        if token == self.token_x:
            return self.reserve_x
        if token == self.token_y:
            return self.reserve_y
        raise ScenarioError(f"token {token!r} not in pool")

    def has_token(self, token: str) -> bool:
        return token in (self.token_x, self.token_y)


@dataclass(frozen=True, slots=True)
class MakerBook:
    """Simplified single-collateral CDP contract.

    Loans are denominated in ``loan_token`` (minted on withdrawal, burned on
    repayment); collateral is held in ``collateral_token``.  The liquidation
    ratio is ``ratio_num/ratio_den`` (default 3/2).  Prices come from the
    ``price_source`` pool's reserves, or from ``oracle_price`` when an
    ingested oracle update overrides them; either way guards compare
    price*collateral against threshold*debt fully cross-multiplied.

    ``efficient_auction`` switches the liquidation payout from the
    miner-optimal outcome (liquidator receives the entire collateral for
    free) to the perfectly-efficient auction (liquidator repays the debt and
    receives collateral of equal value at the oracle price).
    """

    loan_token: str
    collateral_token: str
    price_source: str
    ratio_num: int = 3
    ratio_den: int = 2
    collateral: dict[str, int] = field(default_factory=dict, hash=False)
    debt: dict[str, int] = field(default_factory=dict, hash=False)
    oracle_price: tuple[int, int] | None = None
    efficient_auction: bool = False


@dataclass(frozen=True, slots=True)
class Pricebet:
    """Single-shot bet that the oracle pool will value the paired token above
    the primary token (strictly more primary-token reserve than paired-token
    reserve) before ``deadline``.

    The contract is created holding ``pot`` (the 100 house tokens of the
    modeled contract); a bet locks ``stake`` more and a winning claim pays
    ``reward``.  At most one claim can ever settle.
    """

    oracle: str
    token: str
    deadline: int
    stake: int = 100
    reward: int = 200
    pot: int = 100
    has_bet: bool = False
    player: str | None = None
    settled: bool = False


Contract = AmmPool | MakerBook | Pricebet


def holding(contract: object, token: str) -> int:
    """Tokens held inside a contract (for supply accounting)."""
    if isinstance(contract, AmmPool):
        if token == contract.token_x:
            return contract.reserve_x
        if token == contract.token_y:
            return contract.reserve_y
        return 0
    if isinstance(contract, MakerBook):
        if token == contract.collateral_token:
            return sum(contract.collateral.values())
        return 0
    if isinstance(contract, Pricebet):
        return contract.pot if token == contract.token else 0
    raise ScenarioError(f"unknown contract type: {type(contract)!r}")


# ---------------------------------------------------------------------------
# AMM math
# ---------------------------------------------------------------------------

def swap_amounts(
    reserve_in: int, reserve_out: int, amount: int, fee_bps: int, exact_out: bool
) -> tuple[int, int] | None:
    """``(paid, received)`` of one constant-product trade: the one swap rule.
    Exact input pays ``amount`` for the floored fee-adjusted output; exact
    output receives ``amount`` for the deployed floor + 1.  ``None`` (bottom)
    on a non-positive amount, an empty reserve, or an exact output of at
    least the output reserve; a zero output is not bottom."""
    if amount <= 0 or reserve_in <= 0 or reserve_out <= 0 or exact_out and amount >= reserve_out:
        return None
    if exact_out:
        paid = reserve_in * amount * FEE_DENOM // ((reserve_out - amount) * (FEE_DENOM - fee_bps))
        return paid + 1, amount
    in_after_fee = amount * (FEE_DENOM - fee_bps)
    return amount, in_after_fee * reserve_out // (reserve_in * FEE_DENOM + in_after_fee)


def amm_out_given_in_exact(
    reserve_in: int, reserve_out: int, amount_in: Fraction | int, fee_bps: int = 0
) -> Fraction:
    """No-rounding rational oracle for the exact-input formula."""
    in_after_fee = Fraction(amount_in) * (FEE_DENOM - fee_bps)
    return in_after_fee * reserve_out / (reserve_in * FEE_DENOM + in_after_fee)


def amm_in_given_out_exact(
    reserve_in: int, reserve_out: int, amount_out: int, fee_bps: int = 0
) -> Fraction:
    """No-rounding rational oracle for the exact-output formula."""
    return Fraction(
        reserve_in * amount_out * FEE_DENOM, (reserve_out - amount_out) * (FEE_DENOM - fee_bps)
    )


def amm_swap(pool: AmmPool, swap: Swap) -> tuple[AmmPool, int, int] | None:
    """Trade ``swap`` (bound amount, either mode) on ``pool``; returns the
    successor pool and the trader's ``(paid, received)``, or ``None`` when a
    token is foreign, the tokens are the same or ``swap_amounts`` fails."""
    token_in, token_out = swap.token_in, swap.token_out
    x, y = pool.reserve_x, pool.reserve_y
    if token_in == token_out:
        return None
    if token_in == pool.token_x and token_out == pool.token_y:
        amounts = swap_amounts(x, y, swap.amount, pool.fee_bps, swap.exact_out)
        if amounts is None:
            return None
        paid, received = amounts
        x, y = x + paid, y - received
    elif token_in == pool.token_y and token_out == pool.token_x:
        amounts = swap_amounts(y, x, swap.amount, pool.fee_bps, swap.exact_out)
        if amounts is None:
            return None
        paid, received = amounts
        x, y = x - received, y + paid
    else:
        return None
    # The successor is built directly, not through ``replace``: this is the
    # search's hottest allocation.  It shares ``lp_shares``, as ``replace`` does.
    pool = AmmPool(pool.token_x, pool.token_y, x, y, pool.fee_bps, pool.lp_total, pool.lp_shares)
    return pool, paid, received


def amm_swap_exact_in(pool: AmmPool, token_in: str, amount_in: int) -> tuple[AmmPool, int] | None:
    """Sell ``amount_in`` of ``token_in`` to the pool: ``amm_swap`` of an
    exact-input trade for the pool's other token; returns (pool, output)."""
    token_out = pool.token_y if token_in == pool.token_x else pool.token_x
    res = amm_swap(pool, Swap(token_in, token_out, amount_in))
    return None if res is None else (res[0], res[2])


def amm_add_liquidity(pool: AmmPool, account: str, amount_x: int, amount_y: int) -> tuple[AmmPool, int] | None:
    """Deposit both tokens, minting shares pro-rata (isqrt bootstrap)."""
    if amount_x <= 0 or amount_y <= 0:
        return None
    if pool.lp_total == 0:
        minted = math.isqrt(amount_x * amount_y)
    else:
        if pool.reserve_x <= 0 or pool.reserve_y <= 0:
            return None
        minted = min(
            amount_x * pool.lp_total // pool.reserve_x,
            amount_y * pool.lp_total // pool.reserve_y,
        )
    if minted <= 0:
        return None
    shares = dict(pool.lp_shares)
    shares[account] = shares.get(account, 0) + minted
    new_pool = AmmPool(
        pool.token_x, pool.token_y, pool.reserve_x + amount_x, pool.reserve_y + amount_y,
        pool.fee_bps, pool.lp_total + minted, shares,
    )
    return new_pool, minted


def amm_remove_liquidity(pool: AmmPool, account: str, shares: int) -> tuple[AmmPool, int, int] | None:
    """Burn shares, returning the pro-rata floor of each reserve."""
    if shares <= 0 or shares > pool.lp_total:
        return None
    if pool.lp_shares.get(account, 0) < shares:
        return None
    out_x = shares * pool.reserve_x // pool.lp_total
    out_y = shares * pool.reserve_y // pool.lp_total
    new_shares = dict(pool.lp_shares)
    new_shares[account] -= shares
    if new_shares[account] == 0:
        del new_shares[account]
    new_pool = AmmPool(
        pool.token_x, pool.token_y, pool.reserve_x - out_x, pool.reserve_y - out_y,
        pool.fee_bps, pool.lp_total - shares, new_shares,
    )
    return new_pool, out_x, out_y


# ---------------------------------------------------------------------------
# Maker guards
# ---------------------------------------------------------------------------

def maker_price(state: State, book: MakerBook) -> tuple[int, int]:
    """Price of one collateral token in loan tokens, as (numerator, denominator).

    Read straight from the price source pool's reserves (loan reserve over
    collateral reserve) and never materialized as a quotient.
    """
    if book.oracle_price is not None:
        return book.oracle_price
    pool = state.contracts.get(book.price_source)
    if not isinstance(pool, AmmPool):
        raise ScenarioError(f"price source {book.price_source!r} is not an AMM pool")
    return pool.reserve(book.loan_token), pool.reserve(book.collateral_token)


def maker_safe(price: tuple[int, int], book: MakerBook, collateral: int, debt: int) -> bool:
    """price*collateral >= threshold*debt, cross-multiplied."""
    num, den = price
    return num * collateral * book.ratio_den >= book.ratio_num * debt * den


# ---------------------------------------------------------------------------
# Transition rules: each checks its guards, then settles its moves
# ---------------------------------------------------------------------------

# Successors are built directly, not through ``dataclasses.replace``, which
# costs several times a constructor call on the search's paths.

def _book(book: MakerBook, collateral: dict[str, int], debt: dict[str, int]) -> MakerBook:
    return MakerBook(
        book.loan_token, book.collateral_token, book.price_source, book.ratio_num,
        book.ratio_den, collateral, debt, book.oracle_price, book.efficient_auction,
    )


def _bet(bet: Pricebet, pot: int, has_bet: bool, player: str | None, settled: bool) -> Pricebet:
    return Pricebet(
        bet.oracle, bet.token, bet.deadline, bet.stake, bet.reward, pot, has_bet, player, settled
    )


def _exec_swap(state: State, tx: Tx, pool: AmmPool) -> State | None:
    action = tx.action
    if action.amount is None:
        raise ScenarioError("swap has an unbound insertion-size parameter")
    res = amm_swap(pool, action)
    if res is None or state.balances.get((tx.actor, action.token_in), 0) < res[1]:
        return None
    new_pool, paid, received = res
    moves = ((tx.actor, action.token_in, -paid), (tx.actor, action.token_out, received))
    return state.settle(moves, tx.venue, new_pool)


def _exec_add_liquidity(state: State, tx: Tx, pool: AmmPool) -> State | None:
    action = tx.action
    if (
        state.balances.get((tx.actor, pool.token_x), 0) < action.amount_x
        or state.balances.get((tx.actor, pool.token_y), 0) < action.amount_y
    ):
        return None
    res = amm_add_liquidity(pool, tx.actor, action.amount_x, action.amount_y)
    if res is None:
        return None
    moves = ((tx.actor, pool.token_x, -action.amount_x), (tx.actor, pool.token_y, -action.amount_y))
    return state.settle(moves, tx.venue, res[0])


def _exec_remove_liquidity(state: State, tx: Tx, pool: AmmPool) -> State | None:
    res = amm_remove_liquidity(pool, tx.actor, tx.action.shares)
    if res is None:
        return None
    new_pool, out_x, out_y = res
    moves = ((tx.actor, pool.token_x, out_x), (tx.actor, pool.token_y, out_y))
    return state.settle(moves, tx.venue, new_pool)


def _exec_cdp(state: State, tx: Tx, book: MakerBook) -> State | None:
    action = tx.action
    if action.kind not in CDP_KINDS:
        raise ScenarioError(f"unknown CDP action: {action.kind!r}")
    if action.qty < 0:
        return None
    qty = action.qty
    actor = tx.actor
    coll = book.collateral.get(actor, 0)
    debt = book.debt.get(actor, 0)

    if action.kind == "deposit_collateral":
        if state.balances.get((actor, book.collateral_token), 0) < qty:
            return None
        move = (actor, book.collateral_token, -qty)
        new_book = _book(book, {**book.collateral, actor: coll + qty}, book.debt)

    elif action.kind == "pay_loan":
        if state.balances.get((actor, book.loan_token), 0) < qty or debt < qty:
            return None
        move = (actor, book.loan_token, -qty)
        new_book = _book(book, book.collateral, {**book.debt, actor: debt - qty})

    elif action.kind == "withdraw_collateral":
        price = maker_price(state, book)
        if coll < qty or not maker_safe(price, book, coll - qty, debt):
            return None
        move = (actor, book.collateral_token, qty)
        new_book = _book(book, {**book.collateral, actor: coll - qty}, book.debt)

    else:  # withdraw_loan
        price = maker_price(state, book)
        if not maker_safe(price, book, coll, debt + qty):
            return None
        move = (actor, book.loan_token, qty)
        new_book = _book(book, book.collateral, {**book.debt, actor: debt + qty})

    return state.settle((move,), tx.venue, new_book)


def _exec_liquidate(state: State, tx: Tx, book: MakerBook) -> State | None:
    victim = tx.action.victim
    coll = book.collateral.get(victim, 0)
    debt = book.debt.get(victim, 0)
    price = maker_price(state, book)
    if maker_safe(price, book, coll, debt):
        return None

    if book.efficient_auction:
        # Perfectly efficient two-phase auction: the liquidator repays the
        # debt and receives collateral of equal oracle value.
        num, den = price
        if num <= 0:
            return None
        seized = min(debt * den // num, coll)
        if state.balances.get((tx.actor, book.loan_token), 0) < debt:
            return None
        moves = ((tx.actor, book.loan_token, -debt), (tx.actor, book.collateral_token, seized))
    else:
        # Miner-optimal outcome: the entire collateral for nothing.
        seized = coll
        moves = ((tx.actor, book.collateral_token, coll),)

    new_book = _book(book, {**book.collateral, victim: coll - seized}, {**book.debt, victim: 0})
    return state.settle(moves, tx.venue, new_book)


def _exec_bet(state: State, tx: Tx, bet: Pricebet) -> State | None:
    if bet.has_bet:
        return None
    if state.balances.get((tx.actor, bet.token), 0) < bet.stake:
        return None
    new_bet = _bet(bet, bet.pot + bet.stake, True, tx.actor, bet.settled)
    return state.settle(((tx.actor, bet.token, -bet.stake),), tx.venue, new_bet)


def _exec_getreward(state: State, tx: Tx, bet: Pricebet) -> State | None:
    if not bet.has_bet or bet.settled or bet.player != tx.actor:
        return None
    if state.block_number > bet.deadline:
        return None
    if bet.pot < bet.reward:
        return None
    oracle = state.contracts.get(bet.oracle)
    if not isinstance(oracle, AmmPool) or not oracle.has_token(bet.token):
        raise ScenarioError(f"price bet oracle {bet.oracle!r} is not a pool over {bet.token!r}")
    primary_reserve = oracle.reserve(bet.token)
    other_token = oracle.token_y if oracle.token_x == bet.token else oracle.token_x
    other_reserve = oracle.reserve(other_token)
    if primary_reserve <= other_reserve:
        return None
    new_bet = _bet(bet, bet.pot - bet.reward, bet.has_bet, bet.player, True)
    return state.settle(((tx.actor, bet.token, bet.reward),), tx.venue, new_bet)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

# Contract type -> action type -> transition rule.
_EXECUTORS = {
    AmmPool: {
        Swap: _exec_swap,
        AddLiquidity: _exec_add_liquidity,
        RemoveLiquidity: _exec_remove_liquidity,
    },
    MakerBook: {CdpManipulate: _exec_cdp, Liquidate: _exec_liquidate},
    Pricebet: {Bet: _exec_bet, GetReward: _exec_getreward},
}


def execute(state: State, tx: Tx, contract: object) -> State | None:
    """Run ``tx`` against ``contract``; returns the new state or ``None``.

    An action the contract has no rule for is the bottom outcome.
    """
    rules = _EXECUTORS.get(type(contract))
    if rules is None:
        raise ScenarioError(f"unknown contract type at venue {tx.venue!r}")
    rule = rules.get(type(tx.action))
    return None if rule is None else rule(state, tx, contract)
