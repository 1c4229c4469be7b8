"""Scenario serialization: round trips, strictness, determinism."""

import json
from fractions import Fraction

import pytest

from mevsearch.contracts import AmmPool, MakerBook, Pricebet
from mevsearch.corpus import gen_corpus, make_spread_instance
from mevsearch.metrics import Valuation
from mevsearch.ordering import SearchBudget
from mevsearch.scenario import (
    ParseError,
    Scenario,
    TokenDecl,
    dumps_canonical,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from mevsearch.state import (
    Action,
    AddLiquidity,
    Bet,
    CdpManipulate,
    GetReward,
    Liquidate,
    RemoveLiquidity,
    Swap,
    Tx,
)


def full_scenario() -> Scenario:
    pool = AmmPool("BBT", "ETH", 10**21, 9 * 10**20, fee_bps=30,
                   lp_total=10**20, lp_shares={"lp": 6 * 10**19, "alice": 4 * 10**19})
    book = MakerBook(
        loan_token="BBT",
        collateral_token="ETH",
        price_source="amm",
        collateral={"v": 10**18},
        debt={"v": 10**18},
        oracle_price=(3, 2),
        efficient_auction=True,
    )
    bet = Pricebet(oracle="amm", token="ETH", deadline=12, stake=100, reward=200, pot=100,
                   has_bet=True, player="bob", settled=True)
    return Scenario(
        tokens=(TokenDecl("ETH", primary=True), TokenDecl("BBT")),
        balances={("alice", "BBT"): 5 * 10**18, ("miner", "ETH"): 10**20},
        contracts={"amm": pool, "book": book},
        mempool=(
            Tx("alice", "amm", Swap("BBT", "ETH", 10**18), label="m0"),
            Tx("alice", "book", Liquidate("v"), label="m1", arrival_block=1),
            Tx("alice", "amm", Swap("BBT", "ETH", 3 * 10**17, exact_out=True), label="m2", fee=21),
            Tx("lp", "amm", AddLiquidity(10**18, 9 * 10**17), label="m3", fee=5, arrival_block=1),
            Tx("lp", "amm", RemoveLiquidity(10**9), label="m4"),
            Tx("v", "book", CdpManipulate("withdraw_loan", 7), label="m5", fee=1, arrival_block=2),
            Tx("alice", "bet", GetReward(), label="m6"),
        ),
        miner_account="miner",
        templates=(
            Tx("miner", "amm", Swap("ETH", "BBT", None, exact_out=True), origin="miner", label="t0"),
            Tx("miner", "bet", Bet(), origin="miner", label="t1", fee=3, arrival_block=1),
        ),
        allow_reorder=True,
        allow_censor=True,
        allow_insert=True,
        k=2,
        valuation=Valuation(primary="ETH", mode="oracle_priced", prices={"BBT": Fraction(9, 10)}),
        budget=SearchBudget(mode="randomized", max_paths=1234, seed=99, tractability_threshold=8),
        epsilon=Fraction(1, 20),
        insertion_bounds=(1, 10**22 - 1),
        new_contract=("bet", bet),
        beneficiary="alice",
        block_number=7,
    )


def test_round_trip_semantic_identity(tmp_path):
    s = full_scenario()
    # every action type, with every optional transaction field set somewhere
    assert {type(tx.action) for tx in s.mempool + s.templates} == set(Action.__args__)
    path = tmp_path / "scn.json"
    save_scenario(s, path)
    s2 = load_scenario(path)
    assert scenario_to_dict(s2) == scenario_to_dict(s)
    assert s2.initial_state() == s.initial_state()
    assert s2.space() == s.space()
    assert s2.epsilon == s.epsilon and s2.insertion_bounds == s.insertion_bounds
    # a second save is byte-identical
    path2 = tmp_path / "scn2.json"
    save_scenario(s2, path2)
    assert path.read_text() == path2.read_text()


def test_saved_amounts_are_decimal_strings(tmp_path):
    path = tmp_path / "scn.json"
    save_scenario(full_scenario(), path)
    doc = json.loads(path.read_text())
    for acct, tokens in doc["accounts"].items():
        for token, amount in tokens.items():
            assert isinstance(amount, str) and amount.isdigit()
    for contract in doc["contracts"]:
        if contract["type"] == "amm":
            assert isinstance(contract["reserve_x"], str)
            assert isinstance(contract["reserve_y"], str)
    for tx in doc["mempool"]:
        if tx["type"] == "swap":
            assert tx["amount"] is None or isinstance(tx["amount"], str)


def shaped_doc() -> dict:
    return {
        "schema_version": 1,
        "tokens": [{"id": "ETH", "primary": True}, {"id": "BBT"}],
        "accounts": {"u": {"BBT": "10"}},
        "contracts": [
            {"id": "amm", "type": "amm", "token_x": "BBT", "token_y": "ETH",
             "reserve_x": "1000", "reserve_y": "1000"}
        ],
        "mempool": [
            {"actor": "u", "venue": "amm", "type": "swap", "token_in": "BBT",
             "token_out": "ETH", "amount": "10"}
        ],
        "miner": {"account": "miner", "flags": {"reorder": True}},
        "budget": {"mode": "exhaustive"},
        "valuation": {"mode": "primary_only"},
    }


WRONG_SHAPES = [
    (("accounts",), [1], "$.accounts: expected a JSON object"),
    (("accounts", "u"), [], "$.accounts.u: expected a JSON object"),
    (("tokens",), [1], "$.tokens[0]: expected a JSON object"),
    (("contracts",), [1], "$.contracts[0]: expected a JSON object"),
    (("mempool",), [1], "$.mempool[0]: expected a JSON object"),
    (("miner",), [], "$.miner: expected a JSON object"),
    (("miner", "flags"), [], "$.miner.flags: expected a JSON object"),
    (("budget",), [], "$.budget: expected a JSON object"),
    (("valuation",), [], "$.valuation: expected a JSON object"),
]


@pytest.mark.parametrize(
    "keys, value, message", WRONG_SHAPES, ids=[".".join(k) for k, _, _ in WRONG_SHAPES]
)
def test_wrong_shaped_section_rejected(keys, value, message):
    doc = shaped_doc()
    scenario_from_dict(doc)  # the unchanged document loads
    *parents, last = keys
    section = doc
    for key in parents:
        section = section[key]
    section[last] = value
    with pytest.raises(ParseError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == message


REJECTED_DOCS = [
    ("duplicate token", lambda d: d["tokens"].append({"id": "BBT"}),
     "$.tokens: duplicate token ids"),
    ("unknown account token", lambda d: d["accounts"]["u"].update(DAI="1"),
     "$.accounts.u: unknown token 'DAI'"),
    ("duplicate contract", lambda d: d["contracts"].append(dict(d["contracts"][0])),
     "$.contracts[1]: duplicate contract id 'amm'"),
    ("new contract deployed", lambda d: d.update(new_contract=d["contracts"][0]),
     "$.new_contract: contract id 'amm' already deployed"),
    ("unknown priced token", lambda d: d["valuation"].update(prices={"DAI": "1"}),
     "$.valuation.prices: unknown token 'DAI'"),
    ("unknown contract type", lambda d: d["contracts"][0].update(type="vault"),
     "$.contracts[0]: unknown contract type 'vault'"),
]


@pytest.mark.parametrize(
    "edit, message", [r[1:] for r in REJECTED_DOCS], ids=[r[0] for r in REJECTED_DOCS]
)
def test_inconsistent_document_rejected(edit, message):
    doc = shaped_doc()
    edit(doc)
    with pytest.raises(ParseError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == message


def test_wrong_shaped_entries_and_contract_sections_rejected():
    doc = shaped_doc()
    doc["tokens"] = {"ETH": {"primary": True}}
    with pytest.raises(ParseError, match=r"^\$\.tokens: expected a JSON array$"):
        scenario_from_dict(doc)
    doc = shaped_doc()
    doc["contracts"][0]["lp_shares"] = ["u"]
    with pytest.raises(ParseError, match=r"^\$\.contracts\[0\]\.lp_shares: expected a JSON object$"):
        scenario_from_dict(doc)
    doc = shaped_doc()
    doc["mempool"][0]["type"] = ["swap"]  # unhashable: no table lookup
    with pytest.raises(ParseError, match="unknown transaction type"):
        scenario_from_dict(doc)


def test_unknown_cdp_action_is_reported_before_its_fields():
    doc = shaped_doc()
    doc["contracts"].append(
        {"id": "book", "type": "maker", "loan_token": "BBT", "collateral_token": "ETH",
         "price_source": "amm"}
    )
    doc["mempool"] = [{"actor": "u", "venue": "book", "type": "cdp", "kind": "borrow"}]
    with pytest.raises(ParseError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == "$.mempool[0]: unknown CDP action 'borrow'"


def test_floats_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1, "tokens": [{"id": "ETH", "primary": true, "decimals": 1.5}]}')
    with pytest.raises(ParseError):
        load_scenario(path)


def test_unknown_venue_rejected():
    doc = {
        "schema_version": 1,
        "tokens": [{"id": "ETH", "primary": True}],
        "accounts": {},
        "contracts": [],
        "mempool": [
            {"actor": "a", "venue": "ghost", "type": "swap", "token_in": "ETH", "token_out": "ETH", "amount": "1"}
        ],
    }
    with pytest.raises(ParseError) as err:
        scenario_from_dict(doc)
    assert "ghost" in str(err.value)


@pytest.mark.parametrize("fee_bps", [10_000, 20_000])
def test_pool_fee_of_the_whole_input_rejected(fee_bps):
    doc = {
        "schema_version": 1,
        "tokens": [{"id": "ETH", "primary": True}, {"id": "BBT"}],
        "contracts": [
            {"id": "amm", "type": "amm", "token_x": "BBT", "token_y": "ETH",
             "reserve_x": "1000", "reserve_y": "1000", "fee_bps": fee_bps},
        ],
    }
    with pytest.raises(ParseError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == f"$.contracts[0].fee_bps: value {fee_bps} above maximum 9999"
    doc["contracts"][0]["fee_bps"] = 9_999
    assert scenario_from_dict(doc).contracts["amm"].fee_bps == 9_999


def test_pool_of_one_token_rejected():
    # Adding liquidity to such a pool would debit one balance twice.
    doc = {
        "schema_version": 1,
        "tokens": [{"id": "ETH", "primary": True}],
        "contracts": [
            {"id": "amm", "type": "amm", "token_x": "ETH", "token_y": "ETH",
             "reserve_x": "1000", "reserve_y": "1000"},
        ],
    }
    with pytest.raises(ParseError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == "$.contracts[0]: pool pairs token 'ETH' with itself"


def test_requires_exactly_one_primary():
    doc = {"schema_version": 1, "tokens": [{"id": "ETH"}, {"id": "BBT"}]}
    with pytest.raises(ParseError):
        scenario_from_dict(doc)


def test_wrong_schema_version():
    with pytest.raises(ParseError):
        scenario_from_dict({"schema_version": 2, "tokens": [{"id": "E", "primary": True}]})


def test_unresolved_amount_only_on_templates():
    doc = {
        "schema_version": 1,
        "tokens": [{"id": "ETH", "primary": True}, {"id": "BBT"}],
        "contracts": [
            {"id": "amm", "type": "amm", "token_x": "BBT", "token_y": "ETH",
             "reserve_x": "10", "reserve_y": "10"}
        ],
        "mempool": [
            {"actor": "a", "venue": "amm", "type": "swap", "token_in": "BBT",
             "token_out": "ETH", "amount": None}
        ],
    }
    with pytest.raises(ParseError):
        scenario_from_dict(doc)


def test_gen_corpus_is_deterministic(tmp_path):
    a = [dumps_canonical(scenario_to_dict(s)) for s in gen_corpus(7, 5, 6)]
    b = [dumps_canonical(scenario_to_dict(s)) for s in gen_corpus(7, 5, 6)]
    assert a == b
    c = [dumps_canonical(scenario_to_dict(s)) for s in gen_corpus(8, 5, 6)]
    assert a != c


def test_generated_instance_loads_and_runs(tmp_path):
    s = make_spread_instance(3, 1, 5)
    path = tmp_path / "g.json"
    save_scenario(s, path)
    loaded = load_scenario(path)
    state = loaded.initial_state()
    assert loaded.beneficiary == "whale"
    assert any(acct == "whale" for (acct, _tok) in state.balances)


def test_template_actor_must_be_miner():
    doc = {
        "schema_version": 1,
        "tokens": [{"id": "ETH", "primary": True}, {"id": "BBT"}],
        "contracts": [
            {"id": "amm", "type": "amm", "token_x": "BBT", "token_y": "ETH",
             "reserve_x": "10", "reserve_y": "10"}
        ],
        "miner": {
            "account": "miner",
            "templates": [
                {"actor": "mallory", "venue": "amm", "type": "swap",
                 "token_in": "BBT", "token_out": "ETH", "amount": "1"}
            ],
        },
    }
    with pytest.raises(ParseError) as err:
        scenario_from_dict(doc)
    assert "miner" in str(err.value)
