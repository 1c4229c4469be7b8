"""Core state machine: atomicity, conservation, sequencing."""

import pytest

from mevsearch.contracts import AmmPool, Pricebet
from mevsearch.state import (
    Bet,
    CdpManipulate,
    Liquidate,
    State,
    Swap,
    Tx,
    UnknownVenueError,
    apply_sequence,
    apply_tx,
    total_supply,
)

from conftest import maker_state, pool_state, simple_pool


def test_swap_exceeding_balance_is_bottom():
    st = pool_state({("alice", "BBT"): 10}, {"amm": simple_pool()})
    out = apply_tx(st, Tx("alice", "amm", Swap("BBT", "ETH", 11)))
    assert out is None


def test_invalid_leaves_state_bit_identical():
    st = pool_state({("alice", "BBT"): 10}, {"amm": simple_pool()})
    snapshot = State(dict(st.balances), dict(st.contracts), st.block_number)
    assert apply_tx(st, Tx("alice", "amm", Swap("BBT", "ETH", 11))) is None
    assert st == snapshot


def test_bet_moves_exactly_the_stake():
    bet = Pricebet(oracle="pool", token="ETH", deadline=5)
    st = pool_state(
        {("alice", "ETH"): 100},
        {"pool": simple_pool(), "bet": bet},
    )
    out = apply_tx(st, Tx("alice", "bet", Bet()))
    assert out is not None
    assert out.balance("alice", "ETH") == 0
    new_bet = out.contracts["bet"]
    assert new_bet.pot == bet.pot + 100
    assert new_bet.has_bet and new_bet.player == "alice"


def test_unknown_venue_raises_and_skip_mode_swallows():
    st = pool_state({("alice", "BBT"): 10}, {"amm": simple_pool()})
    tx = Tx("alice", "nowhere", Swap("BBT", "ETH", 1))
    with pytest.raises(UnknownVenueError):
        apply_tx(st, tx)
    res = apply_sequence(st, [tx], "skip_invalid")
    assert res.ok and res.applied == () and res.state == st


def test_empty_sequence_is_identity():
    st = pool_state({("alice", "BBT"): 10}, {"amm": simple_pool()})
    res = apply_sequence(st, [])
    assert res.ok and res.state == st and res.applied == ()


def test_dependent_pair_orders():
    # B sells the ETH that only A's swap provides.
    st = pool_state({("u", "BBT"): 100}, {"amm": simple_pool()})
    tx_a = Tx("u", "amm", Swap("BBT", "ETH", 100))  # yields ~90 ETH
    tx_b = Tx("u", "amm", Swap("ETH", "BBT", 50))
    ok = apply_sequence(st, [tx_a, tx_b])
    assert ok.ok and ok.applied == (0, 1)
    bad = apply_sequence(st, [tx_b, tx_a])
    assert not bad.ok and bad.failed_index == 0
    assert bad.state == st
    assert apply_sequence(st, (tx_a, tx_b), "strict").ok
    assert not apply_sequence(st, (tx_b, tx_a), "strict").ok


def test_skip_invalid_records_applied_indices():
    st = pool_state({("u", "BBT"): 100}, {"amm": simple_pool()})
    tx_a = Tx("u", "amm", Swap("BBT", "ETH", 100))
    tx_b = Tx("u", "amm", Swap("ETH", "BBT", 50))
    res = apply_sequence(st, [tx_b, tx_a, tx_b], "skip_invalid")
    assert res.ok and res.applied == (1, 2)


def test_sequence_matches_independent_recomputation():
    # Straight-line oracle: recompute reserves with the closed-form floor.
    pool = simple_pool(10_000, 8_000, fee_bps=30)
    st = pool_state({("u", "BBT"): 10_000, ("u", "ETH"): 10_000}, {"amm": pool})
    trades = [("BBT", 500), ("BBT", 700), ("ETH", 300), ("BBT", 90), ("ETH", 1200)]
    txs = [
        Tx("u", "amm", Swap(t, "ETH" if t == "BBT" else "BBT", a)) for t, a in trades
    ]
    res = apply_sequence(st, txs)
    assert res.ok

    rx, ry = 10_000, 8_000  # BBT, ETH
    for token_in, amount in trades:
        if token_in == "BBT":
            out = amount * 9970 * ry // (rx * 10_000 + amount * 9970)
            rx, ry = rx + amount, ry - out
        else:
            out = amount * 9970 * rx // (ry * 10_000 + amount * 9970)
            rx, ry = rx - out, ry + amount
    final = res.state.contracts["amm"]
    assert (final.reserve_x, final.reserve_y) == (rx, ry)


def test_total_supply_fresh_and_after_swap():
    st = pool_state({("alice", "BBT"): 10, ("bob", "ETH"): 7}, {"amm": simple_pool()})
    assert total_supply(st, "BBT") == 10 + 1000
    assert total_supply(st, "ETH") == 7 + 1000
    out = apply_tx(st, Tx("alice", "amm", Swap("BBT", "ETH", 10)))
    assert total_supply(out, "BBT") == 1010
    assert total_supply(out, "ETH") == 1007


def test_total_supply_after_liquidate_unchanged():
    st = maker_state(collateral={"victim": 100}, debt={"victim": 150})
    before_eth = total_supply(st, "ETH")
    before_dai = total_supply(st, "DAI")
    out = apply_tx(st, Tx("keeper", "book", Liquidate("victim")))
    assert out is not None
    assert total_supply(out, "ETH") == before_eth
    assert total_supply(out, "DAI") == before_dai
    assert out.balance("keeper", "ETH") == 100


def test_loan_issuance_mints_and_repayment_burns():
    st = maker_state(collateral={"u": 90}, balances={("u", "DAI"): 0})
    out = apply_tx(st, Tx("u", "book", CdpManipulate("withdraw_loan", 100)))
    assert out is not None
    assert total_supply(out, "DAI") - total_supply(st, "DAI") == 100
    back = apply_tx(out, Tx("u", "book", CdpManipulate("pay_loan", 40)))
    assert total_supply(back, "DAI") - total_supply(out, "DAI") == -40


def test_block_number_visibility():
    pool = AmmPool("BBT", "ETH", 100, 101, fee_bps=0)
    bet = Pricebet(oracle="pool", token="ETH", deadline=3, has_bet=True, player="alice", pot=200)
    st = State({}, {"pool": pool, "bet": bet}, 3)
    from mevsearch.state import GetReward

    assert apply_tx(st, Tx("alice", "bet", GetReward())) is not None
    late = st.with_block(4)
    assert apply_tx(late, Tx("alice", "bet", GetReward())) is None


def test_fee_metadata_inert_unless_policy_given():
    from mevsearch.state import FeePolicy

    st = pool_state({("alice", "BBT"): 100, ("alice", "ETH"): 3}, {"amm": simple_pool()})
    tx = Tx("alice", "amm", Swap("BBT", "ETH", 100), fee=2)
    plain = apply_tx(st, tx)
    assert plain.balance("miner", "ETH") == 0  # metadata ignored by default

    charged = apply_tx(st, tx, FeePolicy(collector="miner", token="ETH"))
    assert charged.balance("miner", "ETH") == 2
    assert charged.balance("alice", "ETH") == plain.balance("alice", "ETH") - 2
    assert total_supply(charged, "ETH") == total_supply(st, "ETH")

    broke = pool_state({("alice", "BBT"): 100}, {"amm": simple_pool()})
    assert apply_tx(broke, tx, FeePolicy(collector="miner", token="ETH")) is None
