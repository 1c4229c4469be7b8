"""Chronological event logs and replay validation.

Logs are flat CSV with a header row, one record per contract event, sorted
by (block_number, tx_index).  The columns are ``Record``'s fields, in order;
integer cells of the optional fields are left blank when zero.  Sparse
columns per kind:

    swap              actor, token_in, amount_in (token_out for readability)
    liquidity_add     actor, amount_x, amount_y
    liquidity_remove  actor, shares
    cdp               actor, sub_kind, qty
    liquidate         actor, victim
    price_update      price_num, price_den   (CDP book oracle override)
    fee_update        actor, debt_value      (post-stability-fee debt)

``reverted`` marks records the export knows failed on-chain; they are
skipped.  Its cell is blank, ``0`` or ``false`` (not reverted), or ``1`` or
``true``.  A ``price_update`` needs a ``price_den`` of at least 1, and no
integer cell may be negative: amounts, debts and prices never are.  Replay
recomputes swap outputs from the model, so the final reserves measure model
fidelity; actors are funded on demand (exports do not carry wallet
balances).
"""

from __future__ import annotations

import csv
from dataclasses import MISSING, Field, dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path

from .contracts import AmmPool, MakerBook
from .state import (
    AddLiquidity,
    CdpManipulate,
    Liquidate,
    RemoveLiquidity,
    State,
    Swap,
    Tx,
    apply_tx,
)
from .scenario import ParseError, _amount, _shaped, read_json_object


@dataclass(frozen=True)
class Record:
    venue: str
    block_number: int
    tx_index: int
    kind: str
    actor: str = ""
    token_in: str = ""
    amount_in: int = 0
    token_out: str = ""
    amount_x: int = 0
    amount_y: int = 0
    shares: int = 0
    sub_kind: str = ""
    qty: int = 0
    victim: str = ""
    price_num: int = 0
    price_den: int = 0
    debt_value: int = 0
    reverted: bool = False


_FIELDS = fields(Record)
_INT_FIELDS = [f for f in _FIELDS if f.type == "int"]
COLUMNS = [f.name for f in _FIELDS]

# Record kind -> (action type, ((column, action field), ...)).
_TX_KINDS = {
    "swap": (Swap, (("token_in", "token_in"), ("token_out", "token_out"), ("amount_in", "amount"))),
    "liquidity_add": (AddLiquidity, (("amount_x", "amount_x"), ("amount_y", "amount_y"))),
    "liquidity_remove": (RemoveLiquidity, (("shares", "shares"),)),
    "cdp": (CdpManipulate, (("sub_kind", "kind"), ("qty", "qty"))),
    "liquidate": (Liquidate, (("victim", "victim"),)),
}
KINDS = (*_TX_KINDS, "price_update", "fee_update")


# The spellings of a boolean cell.
_FLAG_CELLS = {"": False, "0": False, "1": True, "false": False, "true": True}


def _cell_from_csv(row: dict, f: Field, line: int):
    # The module postpones its annotations, so ``f.type`` is the source text.
    raw = (row.get(f.name) or "").strip()
    if f.type == "bool":
        if raw not in _FLAG_CELLS:
            raise ParseError(
                f"line {line}", f"column {f.name!r}: expected blank, 0, 1, true or false: {raw!r}"
            )
        return _FLAG_CELLS[raw]
    if f.type == "str":
        return raw
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"line {line}", f"column {f.name!r}: not an integer: {raw!r}") from None


def _cell_to_csv(record: Record, f: Field):
    value = getattr(record, f.name)
    if f.type == "bool":
        return "1" if value else ""
    if f.type == "int" and f.default is not MISSING:  # block_number and tx_index always show
        return value or ""
    return value


def read_event_log(path: str | Path) -> list[Record]:
    records: list[Record] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or "kind" not in reader.fieldnames:
                raise ParseError("line 1", "missing header row")
            for line, row in enumerate(reader, start=2):
                kind = (row.get("kind") or "").strip()
                if kind not in KINDS:
                    raise ParseError(f"line {line}", f"unknown record type {kind!r}")
                record = Record(**{f.name: _cell_from_csv(row, f, line) for f in _FIELDS})
                if kind == "price_update" and record.price_den < 1:
                    raise ParseError(f"line {line}", f"price_den {record.price_den} below minimum 1")
                for f in _INT_FIELDS:
                    value = getattr(record, f.name)
                    if value < 0:
                        raise ParseError(
                            f"line {line}", f"column {f.name!r}: value {value} below minimum 0"
                        )
                records.append(record)
        except UnicodeDecodeError as e:
            raise ParseError(f"line {reader.line_num + 1}", f"not UTF-8 text: {e}") from None
    order = [(r.block_number, r.tx_index) for r in records]
    if order != sorted(order):
        raise ParseError("$", "records must be sorted by (block_number, tx_index)")
    return records


def write_event_log(records: list[Record], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for r in records:
            writer.writerow([_cell_to_csv(r, f) for f in _FIELDS])


def record_to_tx(record: Record) -> Tx | None:
    """Transaction equivalent of a record; None for book-keeping records."""
    if record.kind not in _TX_KINDS:
        return None
    action_type, columns = _TX_KINDS[record.kind]
    action = action_type(**{name: getattr(record, column) for column, name in columns})
    return Tx(record.actor, record.venue, action)


@dataclass(frozen=True)
class ReplayFailure:
    index: int
    record: Record
    reason: str


def replay(state: State, records: list[Record]) -> tuple[State, list[ReplayFailure], dict[str, int]]:
    """Apply a log in order; returns (final state, failures, swaps per venue).

    An actor's input balance is topped up before each transfer-in, since
    chain exports carry no wallet balances; the top-up is kept only when
    the transaction applies.
    """
    failures: list[ReplayFailure] = []
    swap_counts: dict[str, int] = {}
    for i, record in enumerate(records):
        if record.reverted:
            continue
        contract = state.contracts.get(record.venue)
        if contract is None:
            failures.append(ReplayFailure(i, record, "unknown venue"))
            continue

        tx = record_to_tx(record)
        if tx is None:  # a book-keeping record: price_update or fee_update
            if not isinstance(contract, MakerBook):
                failures.append(ReplayFailure(i, record, f"{record.kind} on a non-book venue"))
            else:
                if record.kind == "price_update":
                    book = replace(contract, oracle_price=(record.price_num, record.price_den))
                else:
                    book = replace(contract, debt={**contract.debt, record.actor: record.debt_value})
                state = state.with_block(record.block_number).settle((), record.venue, book)
            continue

        state = state.with_block(record.block_number)
        nxt = apply_tx(_fund_for(state, record, contract), tx)
        if nxt is None:
            failures.append(ReplayFailure(i, record, "transaction invalid at replay state"))
            continue
        state = nxt
        if record.kind == "swap":
            swap_counts[record.venue] = swap_counts.get(record.venue, 0) + 1
    return state, failures, swap_counts


def _fund_for(state: State, record: Record, contract) -> State:
    needs: list[tuple[str, int]] = []
    if record.kind == "swap":
        needs.append((record.token_in, record.amount_in))
    elif record.kind == "liquidity_add" and isinstance(contract, AmmPool):
        needs.append((contract.token_x, record.amount_x))
        needs.append((contract.token_y, record.amount_y))
    elif record.kind == "cdp" and record.sub_kind == "deposit_collateral" and isinstance(contract, MakerBook):
        needs.append((contract.collateral_token, record.qty))
    elif record.kind == "cdp" and record.sub_kind == "pay_loan" and isinstance(contract, MakerBook):
        needs.append((contract.loan_token, record.qty))
    return state.settle(
        (record.actor, token, amount - state.balance(record.actor, token))
        for token, amount in needs
        if state.balance(record.actor, token) < amount
    )


# ---------------------------------------------------------------------------
# Diffing against an expected final snapshot
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldDiff:
    venue: str
    field: str
    actual: int
    expected: int
    tolerance: int

    @property
    def abs_diff(self) -> int:
        return abs(self.actual - self.expected)

    @property
    def rel_diff(self) -> Fraction | None:
        if self.expected == 0:
            return None if self.actual == 0 else Fraction(1)
        return Fraction(self.abs_diff, abs(self.expected))

    @property
    def within(self) -> bool:
        return self.abs_diff <= self.tolerance


@dataclass(frozen=True)
class ReplayReport:
    diffs: tuple[FieldDiff, ...]
    failures: tuple[ReplayFailure, ...]
    swap_counts: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(d.within for d in self.diffs)

    def exceeding(self) -> list[FieldDiff]:
        return [d for d in self.diffs if not d.within]


def contract_snapshot(contract) -> dict[str, int]:
    """Flat integer view of a contract's comparable fields."""
    if isinstance(contract, AmmPool):
        return {"reserve_x": contract.reserve_x, "reserve_y": contract.reserve_y}
    if isinstance(contract, MakerBook):
        out: dict[str, int] = {}
        for acct in sorted(contract.collateral):
            out[f"collateral:{acct}"] = contract.collateral[acct]
        for acct in sorted(contract.debt):
            out[f"debt:{acct}"] = contract.debt[acct]
        return out
    raise ParseError("<expected>", f"no snapshot for contract {contract!r}")


def replay_validate(
    state: State,
    records: list[Record],
    expected: dict[str, dict[str, int]],
    amm_tolerance_per_swap: int = 1,
) -> ReplayReport:
    """Replay a log and diff the final contract fields against an expected
    snapshot.  AMM reserves tolerate the accumulated rounding (one base unit
    per applied swap); book fields must match exactly.
    """
    final, failures, swap_counts = replay(state, records)
    diffs: list[FieldDiff] = []
    for venue in sorted(expected):
        contract = final.contracts.get(venue)
        if contract is None:
            raise ParseError(f"$.{venue}", "expected snapshot names an unknown venue")
        snapshot = contract_snapshot(contract)
        tolerance = (
            amm_tolerance_per_swap * swap_counts.get(venue, 0)
            if isinstance(contract, AmmPool)
            else 0
        )
        for fname in sorted(expected[venue]):
            if fname not in snapshot:
                raise ParseError(f"$.{venue}.{fname}", "unknown field in expected snapshot")
            diffs.append(
                FieldDiff(
                    venue=venue,
                    field=fname,
                    actual=snapshot[fname],
                    expected=expected[venue][fname],
                    tolerance=tolerance,
                )
            )
    return ReplayReport(diffs=tuple(diffs), failures=tuple(failures), swap_counts=swap_counts)


def load_expected(path: str | Path) -> dict[str, dict[str, int]]:
    return {
        venue: {
            fname: _amount(value, f"$.{venue}.{fname}")
            for fname, value in _shaped(snapshot, dict, f"$.{venue}").items()
        }
        for venue, snapshot in read_json_object(path).items()
    }
