"""Contract models against the closed forms and a no-rounding oracle."""

from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mevsearch.contracts import (
    _EXECUTORS,
    AmmPool,
    _bet,
    _book,
    MakerBook,
    Pricebet,
    amm_add_liquidity,
    amm_in_given_out_exact,
    amm_out_given_in_exact,
    amm_remove_liquidity,
    amm_swap,
    amm_swap_exact_in,
    swap_amounts,
)
from mevsearch.state import (
    AddLiquidity,
    Bet,
    CdpManipulate,
    GetReward,
    Liquidate,
    RemoveLiquidity,
    ScenarioError,
    State,
    Swap,
    Tx,
    apply_tx,
)

from conftest import WAD, maker_state, pool_state, pricebet_state, simple_pool

reserves = st.integers(min_value=10, max_value=10**27)
amounts = st.integers(min_value=1, max_value=10**24)
fees = st.sampled_from([0, 5, 30, 100])


def out_given_in(reserve_in, reserve_out, amount_in, fee_bps):
    """Output of an exact-input trade under the one swap rule; nothing
    traded receives nothing, though ``swap_amounts`` calls that bottom."""
    if amount_in == 0:
        return 0
    paid, received = swap_amounts(reserve_in, reserve_out, amount_in, fee_bps, False)
    assert paid == amount_in
    return received


def in_given_out(reserve_in, reserve_out, amount_out, fee_bps):
    """Input cost of an exact-output trade under the one swap rule."""
    paid, received = swap_amounts(reserve_in, reserve_out, amount_out, fee_bps, True)
    assert received == amount_out
    return paid


def test_equal_reserves_half_out():
    assert out_given_in(100, 100, 100, 0) == 50


def test_fee_formula_matches_rational_oracle_spec_point():
    # 1 ETH into a 100/100 WAD pool at 30 bps, evaluated without rounding.
    out = out_given_in(100 * WAD, 100 * WAD, 1 * WAD, 30)
    oracle = amm_out_given_in_exact(100 * WAD, 100 * WAD, 1 * WAD, 30)
    assert out == oracle.numerator // oracle.denominator
    assert out == 997 * WAD * 100 * WAD // (100 * WAD * 1000 + 997 * WAD)


def test_counterexample_pool_sell_matches_oracle():
    # The two-AMM instance's user trade: 1300 COMP into the smaller pool.
    rx, ry = 5945498629669852264883, 2615599823603823616442
    amount = 1300 * WAD
    out = out_given_in(rx, ry, amount, 30)
    oracle = amm_out_given_in_exact(rx, ry, amount, 30)
    assert out == oracle.numerator // oracle.denominator
    assert abs(out - 468 * WAD) < WAD  # ~468 ETH for 1300 COMP


@given(rx=reserves, ry=reserves, amount=amounts, fee=fees)
@settings(max_examples=200, deadline=None)
def test_exact_in_floor_of_rational(rx, ry, amount, fee):
    out = out_given_in(rx, ry, amount, fee)
    oracle = amm_out_given_in_exact(rx, ry, amount, fee)
    assert out == oracle.numerator // oracle.denominator
    assert 0 <= out < ry


@given(rx=reserves, ry=reserves, amount=amounts, fee=fees)
@settings(max_examples=200, deadline=None)
def test_exact_out_floor_of_rational_plus_one(rx, ry, amount, fee):
    if amount >= ry:
        return
    oracle = amm_in_given_out_exact(rx, ry, amount, fee)
    assert in_given_out(rx, ry, amount, fee) == oracle.numerator // oracle.denominator + 1


@given(rx=reserves, ry=reserves, amount=amounts, fee=fees)
@settings(max_examples=200, deadline=None)
def test_product_never_decreases_across_swaps(rx, ry, amount, fee):
    pool = AmmPool("X", "Y", rx, ry, fee_bps=fee)
    res = amm_swap_exact_in(pool, "X", amount)
    assert res is not None
    new_pool, _ = res
    assert new_pool.reserve_x * new_pool.reserve_y >= rx * ry


@given(rx=reserves, ry=reserves, fee=fees, data=st.data())
@settings(max_examples=200, deadline=None)
def test_exact_out_covers_requested_output(rx, ry, fee, data):
    pool = AmmPool("X", "Y", rx, ry, fee_bps=fee)
    want = data.draw(st.integers(min_value=1, max_value=ry - 1), label="want")
    res = amm_swap(pool, Swap("X", "Y", want, exact_out=True))
    assert res is not None
    new_pool, cost, received = res
    assert received == want
    assert new_pool.reserve_y == ry - want and new_pool.reserve_x == rx + cost
    # paying the computed cost through the forward formula yields >= want
    assert out_given_in(rx, ry, cost, fee) >= want
    # and one base unit less would not (deployed +1 rounding is tight to 1)
    if cost > 1:
        assert out_given_in(rx, ry, cost - 2, fee) < want


def test_exact_out_requires_output_below_reserve():
    pool = simple_pool(100, 100)
    assert amm_swap(pool, Swap("BBT", "ETH", 100, exact_out=True)) is None
    assert amm_swap(pool, Swap("BBT", "ETH", 99, exact_out=True)) is not None


def test_zero_output_trade_still_settles():
    pool = simple_pool(10**12, 5, fee_bps=0)
    res = amm_swap_exact_in(pool, "BBT", 10)
    assert res is not None
    new_pool, out = res
    assert out == 0 and new_pool.reserve_x == 10**12 + 10


# (reserve_x, reserve_y, token_in, token_out, amount, modes) of every bottom
# outcome of a swap, on a BBT/ETH pool.
BOTTOM_SWAPS = {
    "zero_amount": (1000, 1000, "BBT", "ETH", 0, (False, True)),
    "negative_amount": (1000, 1000, "BBT", "ETH", -1, (False, True)),
    "empty_input_reserve": (0, 1000, "BBT", "ETH", 10, (False, True)),
    "empty_output_reserve": (1000, 0, "BBT", "ETH", 10, (False, True)),
    "exact_output_equal_to_the_reserve": (1000, 1000, "BBT", "ETH", 1000, (True,)),
    "foreign_token": (1000, 1000, "DAI", "ETH", 10, (False, True)),
    "token_swapped_for_itself": (1000, 1000, "ETH", "ETH", 10, (False, True)),
}


@pytest.mark.parametrize("case", BOTTOM_SWAPS)
def test_every_bottom_swap_is_none_on_every_path(case):
    rx, ry, token_in, token_out, amount, modes = BOTTOM_SWAPS[case]
    pool = simple_pool(rx, ry, fee_bps=30)
    rich = pool_state({("u", token): 10**9 for token in ("BBT", "ETH", "DAI")}, {"amm": pool})
    for exact_out in modes:
        swap = Swap(token_in, token_out, amount, exact_out)
        if pool.has_token(token_in) and pool.has_token(token_out) and token_in != token_out:
            reserves = pool.reserve(token_in), pool.reserve(token_out)
            assert swap_amounts(*reserves, amount, pool.fee_bps, exact_out) is None, exact_out
        assert amm_swap(pool, swap) is None, exact_out
        assert apply_tx(rich, Tx("u", "amm", swap)) is None, exact_out


@given(rx=reserves, ry=reserves, fee=fees, forward=st.booleans(), exact_out=st.booleans(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_amm_swap_moves_the_reserves_by_exactly_its_amounts(rx, ry, fee, forward, exact_out, data):
    pool = AmmPool("X", "Y", rx, ry, fee_bps=fee)
    token_in, token_out = ("X", "Y") if forward else ("Y", "X")
    r_in, r_out = pool.reserve(token_in), pool.reserve(token_out)
    amount = data.draw(st.integers(min_value=1, max_value=r_out - 1) if exact_out else amounts, label="amount")
    res = amm_swap(pool, Swap(token_in, token_out, amount, exact_out))
    assert res is not None
    new_pool, paid, received = res
    assert (received if exact_out else paid) == amount
    assert new_pool.reserve(token_in) == r_in + paid
    assert new_pool.reserve(token_out) == r_out - received
    assert (new_pool.token_x, new_pool.token_y, new_pool.fee_bps) == ("X", "Y", fee)


def test_path_independence_of_fee_less_rational_model():
    # In exact rationals with no fee, same-direction final reserves are
    # order-independent: x_final = x + sum(inputs), y_final = x*y/x_final.
    import itertools

    x0, y0 = Fraction(977), Fraction(1553)
    trades = [Fraction(11), Fraction(170), Fraction(3)]
    finals = set()
    for perm in itertools.permutations(trades):
        x, y = x0, y0
        for a in perm:
            out = a * y / (x + a)
            x, y = x + a, y - out
        finals.add((x, y))
    assert len(finals) == 1
    assert finals == {(x0 + sum(trades), x0 * y0 / (x0 + sum(trades)))}


# -- liquidity ---------------------------------------------------------------

def test_remove_all_returns_entire_reserves():
    pool, minted = amm_add_liquidity(AmmPool("X", "Y", 0, 0, fee_bps=0), "lp", 500, 700)
    assert minted == pool.lp_total
    out = amm_remove_liquidity(pool, "lp", minted)
    assert out is not None
    emptied, out_x, out_y = out
    assert (out_x, out_y) == (500, 700)
    assert emptied.lp_total == 0 and emptied.lp_shares == {}


def test_remove_more_shares_than_owned_is_bottom():
    pool, _ = amm_add_liquidity(AmmPool("X", "Y", 0, 0, fee_bps=0), "lp", 500, 700)
    pool2, minted = amm_add_liquidity(pool, "u", 50, 70)
    assert amm_remove_liquidity(pool2, "u", minted + 1) is None
    assert amm_remove_liquidity(pool2, "u", pool2.lp_total + 1) is None


def test_add_remove_round_trip_deficit_below_two_units():
    # Brute force over small reserve/share grids.  Precondition for the bound:
    # the share supply is at least as granular as either reserve (each of the
    # two floors then loses under one base unit).
    from math import gcd

    saw_loss = False
    for rx in range(3, 40, 7):
        for ry in range(5, 60, 9):
            for extra in (0, 1, 7):
                total = max(rx, ry) + extra
                pool = AmmPool(
                    "X", "Y", rx, ry, fee_bps=0, lp_total=total, lp_shares={"seed": total}
                )
                g = gcd(rx, ry)
                for t in (1, 2, 3):
                    dep_x, dep_y = (rx // g) * t, (ry // g) * t
                    added = amm_add_liquidity(pool, "u", dep_x, dep_y)
                    assert added is not None
                    pool2, minted = added
                    removed = amm_remove_liquidity(pool2, "u", minted)
                    assert removed is not None
                    _, back_x, back_y = removed
                    assert back_x <= dep_x and back_y <= dep_y
                    assert dep_x - back_x < 2 and dep_y - back_y < 2
                    saw_loss = saw_loss or back_x < dep_x or back_y < dep_y
    assert saw_loss  # the bound is not vacuous on this grid


def test_add_liquidity_insufficient_balance_is_bottom():
    st = pool_state({("u", "BBT"): 5, ("u", "ETH"): 10}, {"amm": simple_pool()})
    from mevsearch.state import AddLiquidity

    assert apply_tx(st, Tx("u", "amm", AddLiquidity(6, 10))) is None


# -- maker -------------------------------------------------------------------

def test_withdraw_loan_guard_cross_multiplied():
    st = maker_state(collateral={"u": 100}, debt={"u": 0})
    # price 2, threshold 3/2: max loan = 2*100/1.5 = 133.33 -> 133 ok, 134 not
    ok = apply_tx(st, Tx("u", "book", CdpManipulate("withdraw_loan", 133)))
    assert ok is not None
    assert apply_tx(st, Tx("u", "book", CdpManipulate("withdraw_loan", 134))) is None


def test_withdraw_collateral_example_199_vs_225():
    st = maker_state(collateral={"u": 100}, debt={"u": 150})
    # 2*(100-1) = 198 < 1.5*150 = 225 -> bottom
    assert apply_tx(st, Tx("u", "book", CdpManipulate("withdraw_collateral", 1))) is None


def test_deposit_zero_collateral_is_noop_success():
    st = maker_state(collateral={"u": 5}, balances={("u", "ETH"): 0})
    out = apply_tx(st, Tx("u", "book", CdpManipulate("deposit_collateral", 0)))
    assert out is not None
    assert out.contracts["book"].collateral["u"] == 5
    assert out.balances == st.balances


def test_liquidate_underwater_refined_payout():
    st = maker_state(collateral={"v": 100}, debt={"v": 150})
    # 2*100 = 200 < 1.5*150 = 225: underwater, keeper takes all 100 ETH
    out = apply_tx(st, Tx("k", "book", Liquidate("v")))
    assert out is not None
    book = out.contracts["book"]
    assert out.balance("k", "ETH") == 100
    assert book.collateral["v"] == 0 and book.debt["v"] == 0


def test_liquidate_safe_position_is_bottom():
    st = maker_state(price_x=300, collateral={"v": 100}, debt={"v": 150})
    # 3*100 = 300 >= 225
    assert apply_tx(st, Tx("k", "book", Liquidate("v"))) is None


def test_liquidate_zero_debt_is_bottom():
    st = maker_state(collateral={"v": 0}, debt={"v": 0})
    assert apply_tx(st, Tx("k", "book", Liquidate("v"))) is None


def test_liquidate_efficient_auction_mode():
    st = maker_state(collateral={"v": 100}, debt={"v": 150}, balances={("k", "DAI"): 150}, efficient=True)
    out = apply_tx(st, Tx("k", "book", Liquidate("v")))
    assert out is not None
    # price 2: keeper repays 150 DAI, receives 150/2 = 75 ETH; 25 ETH remain.
    assert out.balance("k", "DAI") == 0
    assert out.balance("k", "ETH") == 75
    book = out.contracts["book"]
    assert book.collateral["v"] == 25 and book.debt["v"] == 0


def test_maker_oracle_price_override():
    st = maker_state(collateral={"v": 100}, debt={"v": 150})
    from dataclasses import replace

    book = st.contracts["book"]
    st.contracts["book"] = replace(book, oracle_price=(3, 1))
    assert apply_tx(st, Tx("k", "book", Liquidate("v"))) is None  # 300 >= 225


def test_maker_guard_soundness_generative():
    import random

    rng = random.Random(5)
    for _ in range(300):
        price = rng.randint(1, 50)
        coll = rng.randint(0, 200)
        debt = rng.randint(0, 200)
        qty = rng.randint(0, 100)
        st = maker_state(
            price_x=price * 100,
            price_y=100,
            collateral={"u": coll},
            debt={"u": debt},
            balances={("u", "ETH"): 300, ("u", "DAI"): 300},
        )
        kind = rng.choice(["deposit_collateral", "pay_loan", "withdraw_collateral", "withdraw_loan"])
        out = apply_tx(st, Tx("u", "book", CdpManipulate(kind, qty)))
        if out is None:
            continue
        book = out.contracts["book"]
        c2, d2 = book.collateral.get("u", 0), book.debt.get("u", 0)
        safe_after = price * c2 * 2 >= 3 * d2
        improved = c2 >= coll and d2 <= debt
        assert safe_after or improved


# -- pricebet ----------------------------------------------------------------

def test_pricebet_reward_path():
    st = pricebet_state(reserve_eth=101, reserve_bbt=100)
    st1 = apply_tx(st, Tx("alice", "bet", Bet()))
    assert st1 is not None
    st2 = apply_tx(st1, Tx("alice", "bet", GetReward()))
    assert st2 is not None
    assert st2.balance("alice", "ETH") == 200
    assert st2.contracts["bet"].settled


def test_pricebet_equal_reserves_no_reward():
    st = pricebet_state(reserve_eth=100, reserve_bbt=100)
    st1 = apply_tx(st, Tx("alice", "bet", Bet()))
    assert apply_tx(st1, Tx("alice", "bet", GetReward())) is None


def test_pricebet_expired_claim():
    st = pricebet_state(deadline=2, block_number=3)
    st1 = apply_tx(st, Tx("alice", "bet", Bet()))
    assert apply_tx(st1, Tx("alice", "bet", GetReward())) is None


def test_pricebet_single_settlement_and_wrong_player():
    st = pricebet_state(player_eth=300)
    st1 = apply_tx(st, Tx("alice", "bet", Bet()))
    assert apply_tx(st1, Tx("mallory", "bet", GetReward())) is None
    st2 = apply_tx(st1, Tx("alice", "bet", GetReward()))
    assert apply_tx(st2, Tx("alice", "bet", GetReward())) is None
    # second bet on a settled record is also rejected
    assert apply_tx(st2, Tx("alice", "bet", Bet())) is None



def test_actions_without_a_rule_are_bottom_and_unknown_contracts_raise():
    actions = (
        Swap("ETH", "DAI", 10),
        AddLiquidity(10, 10),
        RemoveLiquidity(1),
        CdpManipulate("deposit_collateral", 1),
        Liquidate("alice"),
        Bet(),
        GetReward(),
    )
    pool = simple_pool(token_x="DAI", token_y="ETH")
    book = MakerBook(loan_token="DAI", collateral_token="ETH", price_source="pool")
    bet = Pricebet(oracle="pool", token="ETH", deadline=5)
    state = State({("alice", "ETH"): 10**6, ("alice", "DAI"): 10**6}, {"pool": pool, "book": book, "bet": bet})
    snapshot = State(dict(state.balances), dict(state.contracts), state.block_number)
    assert set(_EXECUTORS) == {AmmPool, MakerBook, Pricebet}
    assert {type(a) for a in actions} == {t for rules in _EXECUTORS.values() for t in rules}
    missing = 0
    for venue in ("pool", "book", "bet"):
        for action in actions:
            if type(action) not in _EXECUTORS[type(state.contracts[venue])]:
                assert apply_tx(state, Tx("alice", venue, action)) is None, (venue, action)
                missing += 1
    assert missing == 3 * len(actions) - sum(len(rules) for rules in _EXECUTORS.values())
    assert state == snapshot

    odd = state.deploy("odd", object())
    with pytest.raises(ScenarioError, match="unknown contract type at venue 'odd'"):
        apply_tx(odd, Tx("alice", "odd", Bet()))


def test_successors_are_built_field_for_field_as_replace_builds_them():
    """The successor builders keep every field they are not given: each
    field of these contracts differs from its default, so a field added to
    a contract and left out of its builder fails here."""
    pool = AmmPool("DAI", "ETH", 1_000, 2_000, fee_bps=5, lp_total=7, lp_shares={"lp": 7})
    book = MakerBook("DAI", "ETH", "pool", 5, 3, {"v": 9}, {"v": 4}, (3, 2), True)
    bet = Pricebet("pool", "ETH", 9, 7, 11, 13, has_bet=True, player="p", settled=True)
    for contract in (pool, book, bet):
        assert all(
            getattr(contract, f.name) != f.default_factory() if callable(f.default_factory)
            else getattr(contract, f.name) != f.default
            for f in fields(contract)
        ), contract
    assert _book(book, {"w": 1}, {"w": 2}) == replace(book, collateral={"w": 1}, debt={"w": 2})
    assert _bet(bet, 17, False, None, False) == replace(
        bet, pot=17, has_bet=False, player=None, settled=False
    )
    added, minted = amm_add_liquidity(pool, "lp", 1_000, 2_000)
    assert minted == 7 and added == replace(
        pool, reserve_x=2_000, reserve_y=4_000, lp_total=14, lp_shares={"lp": 14}
    )
    removed, _, _ = amm_remove_liquidity(pool, "lp", 7)
    assert removed == replace(pool, reserve_x=0, reserve_y=0, lp_total=0, lp_shares={})


def _changed(value):
    """A value of the same kind that differs from ``value``: a dict with its
    first entry's value moved (a position), or a bumped scalar."""
    if type(value) is dict:
        first = next(iter(value))
        return {**value, first: value[first] + 1}
    if type(value) is bool:
        return not value
    if type(value) is int:
        return value + 1
    if type(value) is tuple:
        return value[0] + 1, value[1]
    return value + "x"


def test_contracts_compare_and_hash_by_value():
    """Every contract model is a value: dicts that hold the same items in
    another insertion order make an equal contract with an equal hash, and a
    change to any one field makes an unequal one.  The DAG fold keys its
    states by the contracts, so it relies on both."""
    samples = {
        AmmPool: AmmPool("DAI", "ETH", 1_000, 2_000, fee_bps=5, lp_total=7,
                         lp_shares={"lp": 3, "mm": 4}),
        MakerBook: MakerBook("DAI", "ETH", "pool", 5, 3, {"v": 9, "w": 2}, {"v": 4, "w": 1},
                             (3, 2), True),
        Pricebet: Pricebet("pool", "ETH", 9, 7, 11, 13, has_bet=True, player="p", settled=True),
    }
    assert set(samples) == set(_EXECUTORS)
    for contract in samples.values():
        dicts = {f.name: getattr(contract, f.name) for f in fields(contract)
                 if type(getattr(contract, f.name)) is dict}
        assert all(len(d) > 1 for d in dicts.values()), contract
        reordered = replace(contract, **{name: dict(reversed(d.items())) for name, d in dicts.items()})
        assert all(list(getattr(reordered, name)) != list(d) for name, d in dicts.items())
        assert reordered == contract and hash(reordered) == hash(contract)
        assert len({contract, reordered}) == 1
        for f in fields(contract):
            other = replace(contract, **{f.name: _changed(getattr(contract, f.name))})
            assert other != contract and other not in {contract}, f.name
