"""Ledger state, transactions and atomic application.

The system state is a balance ledger (account, token) -> amount plus the
internal state of every deployed contract, tagged with a block number.
Amounts are plain Python ints (arbitrary precision, so 256-bit reserves are
exact); they must never go negative -- every operation guards its debits and
returns ``None`` (the bottom outcome) instead of leaving partial effects.

States are treated as immutable snapshots, so they can be shared freely
across worker processes.  ``State.settle`` is the one copy-on-write step:
every transition builds its successor through it and never mutates its input.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

MEMPOOL = "mempool"
MINER = "miner"


class UnknownVenueError(KeyError):
    """A transaction names a venue with no deployed contract."""


class ScenarioError(ValueError):
    """A scenario or transaction is structurally malformed."""


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Swap:
    """Trade against a constant-product pool.

    ``amount`` is the exact input amount, or the exact output amount when
    ``exact_out`` is set.  ``amount=None`` marks an unresolved insertion-size
    parameter (only legal on miner templates; must be bound before applying).
    """

    token_in: str
    token_out: str
    amount: int | None
    exact_out: bool = False


@dataclass(frozen=True, slots=True)
class AddLiquidity:
    amount_x: int
    amount_y: int


@dataclass(frozen=True, slots=True)
class RemoveLiquidity:
    shares: int


CDP_KINDS = ("deposit_collateral", "pay_loan", "withdraw_collateral", "withdraw_loan")


@dataclass(frozen=True, slots=True)
class CdpManipulate:
    kind: str
    qty: int


@dataclass(frozen=True, slots=True)
class Liquidate:
    victim: str


@dataclass(frozen=True, slots=True)
class Bet:
    pass


@dataclass(frozen=True, slots=True)
class GetReward:
    pass


Action = Swap | AddLiquidity | RemoveLiquidity | CdpManipulate | Liquidate | Bet | GetReward


@dataclass(frozen=True, slots=True)
class Tx:
    """One transaction: an actor performing an action at a venue.

    ``origin`` distinguishes pending user transactions from miner-inserted
    templates.  ``fee`` is optional gas-fee metadata (inert unless a fee
    policy is supplied).  ``arrival_block`` is the 0-based wave in which the
    transaction enters the mempool; wave w is schedulable from block w+1 of a
    multi-block construction.
    """

    actor: str
    venue: str
    action: Action
    origin: str = MEMPOOL
    label: str = ""
    fee: int = 0
    arrival_block: int = 0

    def with_label(self, label: str) -> "Tx":
        return replace(self, label=label)


@dataclass(frozen=True, slots=True)
class FeePolicy:
    """Transfer each transaction's gas fee to ``collector`` in ``token``."""

    collector: str
    token: str


@dataclass(slots=True)
class State:
    """Snapshot of balances and contract internals at a block height."""

    balances: dict[tuple[str, str], int] = field(default_factory=dict)
    contracts: dict[str, object] = field(default_factory=dict)
    block_number: int = 0

    def balance(self, account: str, token: str) -> int:
        return self.balances.get((account, token), 0)

    def with_block(self, block_number: int) -> "State":
        # Dicts are shared: transitions copy-on-write through settle.
        return State(self.balances, self.contracts, block_number)

    def settle(self, moves, venue: str | None = None, contract: object = None) -> "State":
        """The successor state: each ``(account, token, delta)`` of ``moves``
        added to the balances and, when ``venue`` is given, ``contract``
        deployed there.  The balances, and the contracts when ``venue`` is
        given, are copied; ``self`` is left as it was."""
        balances = dict(self.balances)
        for account, token, delta in moves:
            key = (account, token)
            balances[key] = balances.get(key, 0) + delta
        contracts = self.contracts
        if venue is not None:
            contracts = dict(contracts)
            contracts[venue] = contract
        return State(balances, contracts, self.block_number)

    def deploy(self, venue: str, contract: object) -> "State":
        if venue in self.contracts:
            raise ScenarioError(f"contract id already in use: {venue}")
        return self.settle((), venue, contract)


@dataclass(frozen=True, slots=True)
class SequenceResult:
    """Outcome of applying a transaction list.

    ``applied`` holds the indices that executed successfully.  In strict mode
    a failure leaves ``state`` equal to the input state and sets
    ``failed_index``; in skip-invalid mode failing transactions become no-ops
    and ``failed_index`` stays ``None``.
    """

    state: State
    applied: tuple[int, ...]
    failed_index: int | None = None

    @property
    def ok(self) -> bool:
        return self.failed_index is None


# Bound after the names above: contracts imports them from this module.
from . import contracts  # noqa: E402


def apply_tx(state: State, tx: Tx, fee_policy: FeePolicy | None = None) -> State | None:
    """Apply one transaction atomically.

    Returns the successor state, or ``None`` when the contract outputs the
    bottom value (failed guard, insufficient balance).  The input state is
    never modified.  Raises :class:`UnknownVenueError` for an unregistered
    venue and :class:`ScenarioError` for structurally bad transactions
    (unbound insertion amount, unknown action kind).
    """
    contract = state.contracts.get(tx.venue)
    if contract is None:
        raise UnknownVenueError(tx.venue)

    if fee_policy is not None and tx.fee > 0:
        token = fee_policy.token
        if state.balances.get((tx.actor, token), 0) < tx.fee:
            return None
        state = state.settle(((tx.actor, token, -tx.fee), (fee_policy.collector, token, tx.fee)))

    return contracts.execute(state, tx, contract)


def apply_sequence(
    state: State,
    txs: list[Tx] | tuple[Tx, ...],
    mode: str = "strict",
    fee_policy: FeePolicy | None = None,
) -> SequenceResult:
    """Apply transactions in order.

    strict: the first bottom outcome invalidates the whole sequence; the
    result carries the untouched input state and the failing index.
    skip_invalid: failing transactions (including unknown venues, which model
    not-yet-deployed contracts during search) become no-ops and are simply
    absent from ``applied``.
    """
    if mode not in ("strict", "skip_invalid"):
        raise ScenarioError(f"unknown apply mode: {mode!r}")
    skip = mode == "skip_invalid"
    current = state
    applied: list[int] = []
    for i, tx in enumerate(txs):
        try:
            nxt = apply_tx(current, tx, fee_policy)
        except UnknownVenueError:
            if skip:
                nxt = None
            else:
                raise
        if nxt is None:
            if skip:
                continue
            return SequenceResult(state, (), failed_index=i)
        current = nxt
        applied.append(i)
    return SequenceResult(current, tuple(applied))


def total_supply(state: State, token: str) -> int:
    """Sum of ``token`` over all accounts and contract holdings.

    CDP loan issuance mints (and repayment burns) the loan token, mirroring
    the modeled contract; every other operation conserves this sum exactly.
    """
    total = 0
    for (_, tok), amount in state.balances.items():
        if tok == token:
            total += amount
    for contract in state.contracts.values():
        total += contracts.holding(contract, token)
    return total
