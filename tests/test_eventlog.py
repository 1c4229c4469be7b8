"""Event-log ingestion, replay fidelity, and diff reporting."""

import re
from dataclasses import replace
from fractions import Fraction

import pytest

from mevsearch.contracts import AmmPool, MakerBook, Pricebet
from mevsearch.eventlog import (
    _TX_KINDS,
    KINDS,
    Record,
    contract_snapshot,
    read_event_log,
    record_to_tx,
    replay,
    replay_validate,
    write_event_log,
)
from mevsearch.scenario import ParseError
from mevsearch.state import (
    AddLiquidity,
    Bet,
    CdpManipulate,
    Liquidate,
    RemoveLiquidity,
    State,
    Swap,
    Tx,
    apply_tx,
)

_KIND_OF = {action_type: kind for kind, (action_type, _) in _TX_KINDS.items()}


def log_from_sequence(state: State, txs: list[Tx], block_number: int = 0) -> tuple[list[Record], State]:
    """Engine-side log writer: execute a sequence strictly and emit one
    record per transaction (round-trip fixture for replay validation)."""
    records: list[Record] = []
    current = state
    for i, tx in enumerate(txs):
        nxt = apply_tx(current, tx)
        if nxt is None:
            raise ParseError(f"$.txs[{i}]", "sequence invalid while writing log")
        kind = _KIND_OF.get(type(tx.action))
        if kind is None:
            raise ParseError(f"$.txs[{i}]", "bets are not loggable events")
        _, columns = _TX_KINDS[kind]
        record = Record(
            venue=tx.venue, block_number=block_number, tx_index=i, kind=kind, actor=tx.actor,
            **{column: getattr(tx.action, name) for column, name in columns},
        )
        if record_to_tx(record).action != tx.action:
            # e.g. an exact-output swap: its record would replay as exact-input
            raise ParseError(f"$.txs[{i}]", f"a {kind} record cannot carry {tx.action!r}")
        records.append(record)
        current = nxt
    return records, current


def fresh_amm_state(rx=10_000_000, ry=8_000_000, fee=30):
    return State({}, {"pair": AmmPool("TKN", "ETH", rx, ry, fee_bps=fee)}, 0)


def test_csv_round_trip(tmp_path):
    records = [
        Record(venue="pair", block_number=1, tx_index=0, kind="swap", actor="a",
               token_in="TKN", amount_in=5, token_out="ETH"),
        Record(venue="pair", block_number=1, tx_index=1, kind="liquidity_add",
               actor="lp", amount_x=10, amount_y=8),
        Record(venue="pair", block_number=1, tx_index=2, kind="liquidity_remove",
               actor="lp", shares=4),
        Record(venue="book", block_number=1, tx_index=3, kind="cdp", actor="v",
               sub_kind="withdraw_loan", qty=9),
        Record(venue="book", block_number=1, tx_index=4, kind="liquidate", actor="k",
               victim="v"),
        Record(venue="book", block_number=2, tx_index=0, kind="price_update",
               price_num=3, price_den=2),
        Record(venue="book", block_number=2, tx_index=1, kind="fee_update",
               actor="v", debt_value=123),
        Record(venue="pair", block_number=3, tx_index=0, kind="swap", actor="b",
               token_in="ETH", amount_in=7, token_out="TKN", reverted=True),
    ]
    assert {r.kind for r in records} == set(KINDS)
    path = tmp_path / "log.csv"
    write_event_log(records, path)
    assert read_event_log(path) == records


def test_logged_actions_convert_back_to_their_transactions():
    pool = AmmPool("DAI", "ETH", 2_000, 1_000, fee_bps=0)
    book = MakerBook(loan_token="DAI", collateral_token="ETH", price_source="pool")
    state = State(
        {("v", "ETH"): 300, ("a", "ETH"): 1_000, ("lp", "DAI"): 400, ("lp", "ETH"): 200},
        {"pool": pool, "book": book},
        0,
    )
    txs = [
        Tx("v", "book", CdpManipulate("deposit_collateral", 300)),
        Tx("v", "book", CdpManipulate("withdraw_loan", 350)),
        Tx("v", "book", CdpManipulate("pay_loan", 50)),
        Tx("v", "book", CdpManipulate("withdraw_collateral", 10)),
        Tx("lp", "pool", AddLiquidity(400, 200)),
        Tx("lp", "pool", RemoveLiquidity(100)),
        Tx("a", "pool", Swap("ETH", "DAI", 1_000)),
        Tx("keeper", "book", Liquidate("v")),
    ]
    records, _ = log_from_sequence(state, txs, block_number=5)
    assert [record_to_tx(r) for r in records] == txs
    assert [(r.block_number, r.tx_index) for r in records] == [(5, i) for i in range(len(txs))]


@pytest.mark.parametrize(
    "tx, message",
    [
        # its record would replay as an exact-input swap
        (Tx("a", "pool", Swap("ETH", "DAI", 10, exact_out=True)), "a swap record cannot carry"),
        (Tx("a", "bet", Bet()), "bets are not loggable events"),
    ],
    ids=["exact_out_swap", "bet"],
)
def test_unloggable_actions_rejected(tx, message):
    state = State(
        {("a", "ETH"): 1_000},
        {"pool": AmmPool("DAI", "ETH", 2_000, 1_000, fee_bps=0), "bet": Pricebet("pool", "ETH", 10)},
        0,
    )
    assert apply_tx(state, tx) is not None
    with pytest.raises(ParseError, match=message):
        log_from_sequence(state, [tx])


def test_unsorted_log_rejected(tmp_path):
    records = [
        Record(venue="p", block_number=2, tx_index=0, kind="swap", actor="a", token_in="T", amount_in=1),
        Record(venue="p", block_number=1, tx_index=0, kind="swap", actor="a", token_in="T", amount_in=1),
    ]
    path = tmp_path / "log.csv"
    write_event_log(records, path)
    with pytest.raises(ParseError):
        read_event_log(path)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("venue,block_number,tx_index,kind,actor\npair,1,0,teleport,a\n")
    with pytest.raises(ParseError):
        read_event_log(path)


def test_engine_generated_log_replays_to_zero_diff(tmp_path):
    state = State(
        {("a", "TKN"): 100_000, ("b", "ETH"): 50_000, ("lp", "TKN"): 9_000, ("lp", "ETH"): 7_000},
        {"pair": AmmPool("TKN", "ETH", 1_000_000, 800_000, fee_bps=30)},
        0,
    )
    txs = [
        Tx("a", "pair", Swap("TKN", "ETH", 60_000)),
        Tx("lp", "pair", AddLiquidity(9_000, 7_000)),
        Tx("b", "pair", Swap("ETH", "TKN", 50_000)),
        Tx("a", "pair", Swap("TKN", "ETH", 40_000)),
    ]
    records, final = log_from_sequence(state, txs)
    expected = {"pair": contract_snapshot(final.contracts["pair"])}
    report = replay_validate(state.with_block(0), records, expected)
    assert report.ok
    assert all(d.abs_diff == 0 for d in report.diffs)


def test_corrupted_amount_localizes_diff(tmp_path):
    state = State(
        {("a", "TKN"): 100_000, ("b", "ETH"): 100_000},
        {"pair": AmmPool("TKN", "ETH", 10_000_000, 8_000_000, fee_bps=30)},
        0,
    )
    txs = [
        Tx("a", "pair", Swap("TKN", "ETH", 30_000)),
        Tx("b", "pair", Swap("ETH", "TKN", 20_000)),
    ]
    records, final = log_from_sequence(state, txs)
    expected = {"pair": contract_snapshot(final.contracts["pair"])}
    corrupted = [
        r if i != 1 else Record(**{**r.__dict__, "amount_in": r.amount_in + 999})
        for i, r in enumerate(records)
    ]
    report = replay_validate(state, corrupted, expected)
    assert not report.ok
    bad_fields = {d.field for d in report.exceeding()}
    assert bad_fields == {"reserve_x", "reserve_y"}


def test_replay_against_independent_straight_line_simulator():
    # Oracle: a standalone recomputation of the pair's reserve trajectory,
    # written here without the package's pool type.
    import random

    rng = random.Random(31)
    rx, ry = 10**22, 7 * 10**21
    records = []
    expected_rx, expected_ry = rx, ry
    for i in range(60):
        sell_tkn = rng.getrandbits(1) == 1
        amount = rng.randint(10**18, 5 * 10**20)
        if sell_tkn:
            out = amount * 9970 * expected_ry // (expected_rx * 10_000 + amount * 9970)
            expected_rx += amount
            expected_ry -= out
            records.append(
                Record(venue="pair", block_number=i, tx_index=0, kind="swap",
                       actor=f"u{i}", token_in="TKN", amount_in=amount, token_out="ETH")
            )
        else:
            out = amount * 9970 * expected_rx // (expected_ry * 10_000 + amount * 9970)
            expected_ry += amount
            expected_rx -= out
            records.append(
                Record(venue="pair", block_number=i, tx_index=0, kind="swap",
                       actor=f"u{i}", token_in="ETH", amount_in=amount, token_out="TKN")
            )
    state = State({}, {"pair": AmmPool("TKN", "ETH", rx, ry, fee_bps=30)}, 0)
    report = replay_validate(state, records, {"pair": {"reserve_x": expected_rx, "reserve_y": expected_ry}})
    assert report.ok
    assert all(d.abs_diff == 0 for d in report.diffs)
    assert report.swap_counts == {"pair": 60}

    # A no-rounding rational accountant stays within one unit per swap.
    # (Exact fractions compound denominators per step, so check a prefix.)
    prefix = records[:10]
    frx, fry = Fraction(rx), Fraction(ry)
    for r in prefix:
        fee_in = Fraction(r.amount_in * 9970, 10_000)
        if r.token_in == "TKN":
            out = fee_in * fry / (frx + fee_in)
            frx, fry = frx + r.amount_in, fry - out
        else:
            out = fee_in * frx / (fry + fee_in)
            fry, frx = fry + r.amount_in, frx - out
    final_pool = contract_snapshot(replay(state, prefix)[0].contracts["pair"])
    assert abs(final_pool["reserve_x"] - frx) <= 10
    assert abs(final_pool["reserve_y"] - fry) <= 10


def test_maker_log_with_oracle_updates_matches_exactly():
    pool = AmmPool("DAI", "ETH", 2_000, 1_000, fee_bps=0)
    book = MakerBook(loan_token="DAI", collateral_token="ETH", price_source="pool")
    state = State({}, {"pool": pool, "book": book}, 0)
    records = [
        Record(venue="book", block_number=1, tx_index=0, kind="cdp", actor="v",
               sub_kind="deposit_collateral", qty=300),
        Record(venue="book", block_number=1, tx_index=1, kind="cdp", actor="v",
               sub_kind="withdraw_loan", qty=350),
        Record(venue="book", block_number=2, tx_index=0, kind="fee_update", actor="v",
               debt_value=360),
        Record(venue="book", block_number=3, tx_index=0, kind="price_update",
               price_num=1, price_den=1),
        Record(venue="book", block_number=4, tx_index=0, kind="liquidate", actor="keeper",
               victim="v"),
    ]
    report = replay_validate(
        state, records,
        {"book": {"collateral:v": 0, "debt:v": 0}},
    )
    assert report.ok
    assert [d.rel_diff for d in report.diffs] == [None, None]
    # Before the liquidation the position is still open: against an
    # expected 0, any difference is a relative difference of 1.
    early = replay_validate(state, records[:2], {"book": {"collateral:v": 0, "debt:v": 0}})
    assert [(d.actual, d.rel_diff) for d in early.diffs] == [(300, 1), (350, 1)]
    final, failures, _ = replay(state, records)
    assert not failures
    assert final.balance("keeper", "ETH") == 300


def test_reverted_records_are_skipped():
    state = fresh_amm_state(1_000, 1_000, fee=0)
    records = [
        Record(venue="pair", block_number=1, tx_index=0, kind="swap", actor="a",
               token_in="TKN", amount_in=500, token_out="ETH", reverted=True),
    ]
    final, failures, counts = replay(state, records)
    assert not failures and counts == {}
    assert contract_snapshot(final.contracts["pair"]) == {"reserve_x": 1_000, "reserve_y": 1_000}


def test_replay_skips_a_record_it_cannot_apply_and_goes_on():
    book = MakerBook(loan_token="DAI", collateral_token="ETH", price_source="pair", debt={"d": 40})
    state = State({}, {**fresh_amm_state(1_000, 1_000, fee=0).contracts, "book": book}, 0)
    records = [
        Record(venue="nowhere", block_number=1, tx_index=0, kind="swap", actor="a",
               token_in="TKN", amount_in=100, token_out="ETH"),
        # the pool holds no DAI
        Record(venue="pair", block_number=1, tx_index=1, kind="swap", actor="b",
               token_in="DAI", amount_in=100, token_out="ETH"),
        Record(venue="pair", block_number=2, tx_index=0, kind="swap", actor="c",
               token_in="TKN", amount_in=1_000, token_out="ETH"),
        Record(venue="book", block_number=2, tx_index=1, kind="cdp", actor="d",
               sub_kind="pay_loan", qty=40),
        # e owes nothing
        Record(venue="book", block_number=2, tx_index=2, kind="cdp", actor="e",
               sub_kind="pay_loan", qty=10),
    ]
    final, failures, counts = replay(state, records)
    assert [(f.index, f.reason) for f in failures] == [
        (0, "unknown venue"),
        (1, "transaction invalid at replay state"),
        (4, "transaction invalid at replay state"),
    ]
    assert counts == {"pair": 1}
    assert contract_snapshot(final.contracts["pair"]) == {"reserve_x": 2_000, "reserve_y": 500}
    assert contract_snapshot(final.contracts["book"]) == {"debt:d": 0}
    assert (final.balance("a", "ETH"), final.balance("b", "ETH"), final.balance("c", "ETH")) == (0, 0, 500)
    # a failed record keeps no top-up; d's top-up paid its loan
    assert final.balance("b", "DAI") == 0
    assert (final.balance("d", "DAI"), final.balance("e", "DAI")) == (0, 0)
    assert final.block_number == 2


@pytest.mark.parametrize(
    "cell, reverted",
    [("", False), ("0", False), ("false", False), ("1", True), ("true", True)],
)
def test_reverted_cell_spellings(tmp_path, cell, reverted):
    path = tmp_path / "log.csv"
    path.write_text(
        "venue,block_number,tx_index,kind,price_num,price_den,reverted\n"
        f"book,1,0,price_update,1,1,{cell}\n"
    )
    assert read_event_log(path)[0].reverted is reverted


@pytest.mark.parametrize("cell", ["TRUE", "True", "yes", "2"])
def test_other_reverted_cells_rejected(tmp_path, cell):
    path = tmp_path / "log.csv"
    path.write_text(
        "venue,block_number,tx_index,kind,price_num,price_den,reverted\n"
        "book,1,0,price_update,1,1,\n"
        f"book,1,1,price_update,1,1,{cell}\n"
    )
    message = f"line 3: column 'reverted': expected blank, 0, 1, true or false: '{cell}'"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        read_event_log(path)


@pytest.mark.parametrize("den", ["", "0", "-1"])
def test_price_update_below_unit_denominator_rejected(tmp_path, den):
    path = tmp_path / "log.csv"
    path.write_text(
        "venue,block_number,tx_index,kind,price_num,price_den\n"
        "book,1,0,price_update,1,1\n"
        f"book,2,0,price_update,1,{den}\n"
    )
    with pytest.raises(ParseError, match=f"^line 3: price_den {int(den or 0)} below minimum 1$"):
        read_event_log(path)


@pytest.mark.parametrize(
    "header, row, column",
    [
        ("actor,token_in,amount_in,token_out", "swap,a,TKN,-5,ETH", "amount_in"),
        ("actor,debt_value", "fee_update,v,-7", "debt_value"),
        ("price_num,price_den", "price_update,-3,2", "price_num"),
    ],
    ids=["amount_in", "debt_value", "price_num"],
)
def test_negative_integer_cells_rejected(tmp_path, header, row, column):
    path = tmp_path / "log.csv"
    path.write_text(f"venue,block_number,tx_index,kind,{header}\npair,1,0,{row}\n")
    value = next(cell for cell in row.split(",") if cell.startswith("-"))
    message = f"line 2: column '{column}': value {value} below minimum 0"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        read_event_log(path)


def test_book_keeping_records_update_only_a_book():
    book = MakerBook(loan_token="DAI", collateral_token="ETH", price_source="pair", debt={"v": 5})
    state = State({}, {"pair": AmmPool("DAI", "ETH", 100, 100), "book": book}, 0)
    updates = [
        Record(venue=venue, block_number=1, tx_index=i, kind=kind, actor="v",
               price_num=3, price_den=2, debt_value=9)
        for i, (venue, kind) in enumerate(
            [("pair", "price_update"), ("pair", "fee_update"), ("book", "price_update"), ("book", "fee_update")]
        )
    ]
    final, failures, counts = replay(state, updates)
    assert [(f.index, f.reason) for f in failures] == [
        (0, "price_update on a non-book venue"),
        (1, "fee_update on a non-book venue"),
    ]
    assert counts == {} and final.contracts["pair"] == state.contracts["pair"]
    assert final.contracts["book"] == replace(book, oracle_price=(3, 2), debt={"v": 9})
    assert final.block_number == 1
