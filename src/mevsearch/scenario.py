"""Scenario files: the serialized unit of analysis.

A scenario bundles tokens, initial balances, deployed contracts, the pending
mempool, the miner's configuration (account, templates, action flags, block
count), a valuation, a search budget, and optional analysis inputs (epsilon,
insertion bounds, a contract to deploy, a spread beneficiary).

Format: JSON with every amount as a decimal string of base units.  Floats
are rejected outright so values survive round trips bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import Field, dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from .contracts import FEE_DENOM, AmmPool, MakerBook, Pricebet
from .metrics import MinerModel, Valuation
from .ordering import OrderingSpace, SearchBudget
from .state import (
    AddLiquidity,
    Bet,
    CDP_KINDS,
    CdpManipulate,
    GetReward,
    Liquidate,
    RemoveLiquidity,
    State,
    Swap,
    Tx,
)

SCHEMA_VERSION = 1
# Insertion sizes are EVM words; the sizing grid also spaces its points in
# floats, which a range beyond about 10^308 would overflow.
MAX_TRADE_SIZE = 2**256 - 1


class ParseError(ValueError):
    """Malformed scenario or log input; carries the offending path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _reject_float(value: str):
    raise ParseError("<number>", f"float literal {value!r}: amounts must be decimal strings")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ParseError(path, f"missing required field {key!r}")
    return obj[key]


_JSON_KINDS = {dict: "object", list: "array"}


def _shaped(value, kind: type, path: str):
    """``value``, checked to be a JSON object (``kind=dict``) or array (``kind=list``)."""
    if not isinstance(value, kind):
        raise ParseError(path, f"expected a JSON {_JSON_KINDS[kind]}")
    return value


def _text(value, path: str) -> str:
    """``value``, checked to be a JSON string: ids are used as dict keys."""
    if not isinstance(value, str):
        raise ParseError(path, f"expected a string, got {value!r}")
    return value


def _require_text(obj: dict, key: str, path: str) -> str:
    return _text(_require(obj, key, path), f"{path}.{key}")


def _optional_text(obj: dict, key: str, path: str) -> str | None:
    value = obj.get(key)
    return None if value is None else _text(value, f"{path}.{key}")


def _flag(obj: dict, key: str, path: str, default: bool = False) -> bool:
    """``obj[key]`` (``default`` when absent), checked to be a JSON boolean."""
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ParseError(f"{path}.{key}", f"expected true or false, got {value!r}")
    return value


def _amount(value, path: str, minimum: int = 0, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ParseError(path, f"expected a decimal string, got {value!r}")
    try:
        out = int(value)
    except ValueError:
        raise ParseError(path, f"not a decimal integer: {value!r}") from None
    if out < minimum:
        raise ParseError(path, f"value {out} below minimum {minimum}")
    if maximum is not None and out > maximum:
        raise ParseError(path, f"value {out} above maximum {maximum}")
    return out


def _fraction(obj, path: str) -> Fraction:
    if not isinstance(obj, dict):
        raise ParseError(path, "expected {num, den}")
    num = _amount(_require(obj, "num", path), f"{path}.num", minimum=-(10**77))
    den = _amount(_require(obj, "den", path), f"{path}.den", minimum=1)
    return Fraction(num, den)


def _fraction_json(f: Fraction) -> dict:
    return {"num": str(f.numerator), "den": str(f.denominator)}


@dataclass(frozen=True)
class TokenDecl:
    id: str
    primary: bool = False
    decimals: int = 18


@dataclass
class Scenario:
    tokens: tuple[TokenDecl, ...]
    balances: dict[tuple[str, str], int]
    contracts: dict[str, object]
    mempool: tuple[Tx, ...]
    miner_account: str
    templates: tuple[Tx, ...]
    allow_reorder: bool
    allow_censor: bool
    allow_insert: bool
    k: int = 1
    charge_fees: bool = False
    valuation: Valuation | None = None
    budget: SearchBudget = field(default_factory=SearchBudget)
    epsilon: Fraction = Fraction(0)
    insertion_bounds: tuple[int, int] | None = None
    new_contract: tuple[str, object] | None = None
    beneficiary: str | None = None
    block_number: int = 0

    @property
    def primary(self) -> str:
        return next(t.id for t in self.tokens if t.primary)

    def initial_state(self) -> State:
        return State(dict(self.balances), dict(self.contracts), self.block_number)

    def space(self) -> OrderingSpace:
        return OrderingSpace(
            mempool=self.mempool,
            templates=self.templates,
            allow_reorder=self.allow_reorder,
            allow_censor=self.allow_censor,
            allow_insert=self.allow_insert,
            miner=self.miner_account,
            k=self.k,
            charge_fees=self.charge_fees,
            fee_token=self.primary,
        ).labeled()

    def player(self) -> MinerModel:
        return MinerModel(accounts=frozenset((self.miner_account,)))

    def get_valuation(self) -> Valuation:
        return self.valuation if self.valuation is not None else Valuation(primary=self.primary)


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

_ACTIONS = {
    "swap": Swap,
    "add_liquidity": AddLiquidity,
    "remove_liquidity": RemoveLiquidity,
    "cdp": CdpManipulate,
    "liquidate": Liquidate,
    "bet": Bet,
    "get_reward": GetReward,
}
_ACTION_NAMES = {action_type: name for name, action_type in _ACTIONS.items()}


def _field_from_json(obj: dict, f: Field, path: str, origin: str):
    # ``state`` postpones its annotations, so ``f.type`` is the source text.
    if f.type == "bool":
        return _flag(obj, f.name, path, f.default)
    if f.type == "str":
        return _require_text(obj, f.name, path)
    value = _require(obj, f.name, path)
    if value is None and f.type == "int | None":
        if origin != "miner":
            raise ParseError(path, f"only miner templates may leave the {f.name} unresolved")
        return None
    return _amount(value, f"{path}.{f.name}")


def tx_from_json(obj: dict, path: str, origin: str) -> Tx:
    _shaped(obj, dict, path)
    actor = _require_text(obj, "actor", path)
    venue = _require_text(obj, "venue", path)
    kind = _require(obj, "type", path)
    action_type = _ACTIONS.get(kind) if isinstance(kind, str) else None
    if action_type is None:
        expected = tuple(_ACTIONS)
        raise ParseError(path, f"unknown transaction type {kind!r} (expected one of {expected})")
    if action_type is CdpManipulate and _require(obj, "kind", path) not in CDP_KINDS:
        raise ParseError(path, f"unknown CDP action {obj['kind']!r}")
    values = {f.name: _field_from_json(obj, f, path, origin) for f in fields(action_type)}
    action = action_type(**values)
    return Tx(
        actor=actor,
        venue=venue,
        action=action,
        origin=origin,
        label=_text(obj.get("label", ""), f"{path}.label"),
        fee=_amount(obj.get("fee", 0), f"{path}.fee"),
        arrival_block=_amount(obj.get("arrival_block", 0), f"{path}.arrival_block"),
    )


def tx_to_json(tx: Tx) -> dict:
    a = tx.action
    if type(a) not in _ACTION_NAMES:
        raise ParseError("<tx>", f"unknown action {a!r}")
    out: dict = {"actor": tx.actor, "venue": tx.venue, "type": _ACTION_NAMES[type(a)]}
    for f in fields(a):
        value = getattr(a, f.name)
        if f.type == "bool":
            if value:
                out[f.name] = True
        elif f.type == "str":
            out[f.name] = value
        else:
            out[f.name] = None if value is None else str(value)
    if tx.label:
        out["label"] = tx.label
    if tx.fee:
        out["fee"] = str(tx.fee)
    if tx.arrival_block:
        out["arrival_block"] = tx.arrival_block
    return out


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------

def contract_from_json(obj: dict, path: str, primary: str) -> tuple[str, object]:
    _shaped(obj, dict, path)
    cid = _require_text(obj, "id", path)
    kind = _require(obj, "type", path)
    if kind == "amm":
        token_x = _require_text(obj, "token_x", path)
        token_y = _require_text(obj, "token_y", path)
        if token_x == token_y:
            raise ParseError(path, f"pool pairs token {token_x!r} with itself")
        contract: object = AmmPool(
            token_x=token_x,
            token_y=token_y,
            reserve_x=_amount(_require(obj, "reserve_x", path), f"{path}.reserve_x"),
            reserve_y=_amount(_require(obj, "reserve_y", path), f"{path}.reserve_y"),
            # A fee of the whole input would leave nothing to trade.
            fee_bps=_amount(obj.get("fee_bps", 30), f"{path}.fee_bps", maximum=FEE_DENOM - 1),
            lp_total=_amount(obj.get("lp_total", 0), f"{path}.lp_total"),
            lp_shares={
                acct: _amount(v, f"{path}.lp_shares.{acct}")
                for acct, v in _shaped(obj.get("lp_shares", {}), dict, f"{path}.lp_shares").items()
            },
        )
    elif kind == "maker":
        ratio = _shaped(obj.get("ratio", {"num": 3, "den": 2}), dict, f"{path}.ratio")
        oracle_price = None
        if obj.get("oracle_price") is not None:
            f = _fraction(obj["oracle_price"], f"{path}.oracle_price")
            oracle_price = (f.numerator, f.denominator)
        contract = MakerBook(
            loan_token=_require_text(obj, "loan_token", path),
            collateral_token=_require_text(obj, "collateral_token", path),
            price_source=_require_text(obj, "price_source", path),
            ratio_num=_amount(_require(ratio, "num", f"{path}.ratio"), f"{path}.ratio.num", 1),
            ratio_den=_amount(_require(ratio, "den", f"{path}.ratio"), f"{path}.ratio.den", 1),
            collateral={
                acct: _amount(v, f"{path}.collateral.{acct}")
                for acct, v in _shaped(obj.get("collateral", {}), dict, f"{path}.collateral").items()
            },
            debt={
                acct: _amount(v, f"{path}.debt.{acct}")
                for acct, v in _shaped(obj.get("debt", {}), dict, f"{path}.debt").items()
            },
            oracle_price=oracle_price,
            efficient_auction=_flag(obj, "efficient_auction", path),
        )
    elif kind == "pricebet":
        stake = _amount(obj.get("stake", 100), f"{path}.stake")
        contract = Pricebet(
            oracle=_require_text(obj, "oracle", path),
            token=primary,
            deadline=_amount(_require(obj, "deadline", path), f"{path}.deadline"),
            stake=stake,
            reward=_amount(obj.get("reward", 2 * stake), f"{path}.reward"),
            pot=_amount(obj.get("pot", stake), f"{path}.pot"),
            has_bet=_flag(obj, "has_bet", path),
            player=_optional_text(obj, "player", path),
            settled=_flag(obj, "settled", path),
        )
    else:
        raise ParseError(path, f"unknown contract type {kind!r}")
    return cid, contract


def contract_to_json(cid: str, contract: object) -> dict:
    if isinstance(contract, AmmPool):
        out = {
            "id": cid,
            "type": "amm",
            "token_x": contract.token_x,
            "token_y": contract.token_y,
            "reserve_x": str(contract.reserve_x),
            "reserve_y": str(contract.reserve_y),
            "fee_bps": contract.fee_bps,
        }
        if contract.lp_total:
            out["lp_total"] = str(contract.lp_total)
            out["lp_shares"] = {a: str(v) for a, v in sorted(contract.lp_shares.items())}
        return out
    if isinstance(contract, MakerBook):
        out = {
            "id": cid,
            "type": "maker",
            "loan_token": contract.loan_token,
            "collateral_token": contract.collateral_token,
            "price_source": contract.price_source,
            "ratio": {"num": contract.ratio_num, "den": contract.ratio_den},
            "collateral": {a: str(v) for a, v in sorted(contract.collateral.items())},
            "debt": {a: str(v) for a, v in sorted(contract.debt.items())},
        }
        if contract.oracle_price is not None:
            out["oracle_price"] = {"num": str(contract.oracle_price[0]), "den": str(contract.oracle_price[1])}
        if contract.efficient_auction:
            out["efficient_auction"] = True
        return out
    if isinstance(contract, Pricebet):
        out = {
            "id": cid,
            "type": "pricebet",
            "oracle": contract.oracle,
            "deadline": contract.deadline,
            "stake": str(contract.stake),
            "reward": str(contract.reward),
            "pot": str(contract.pot),
        }
        if contract.has_bet:
            out["has_bet"] = True
            out["player"] = contract.player
        if contract.settled:
            out["settled"] = True
        return out
    raise ParseError("<contract>", f"unknown contract {contract!r}")


# ---------------------------------------------------------------------------
# Scenario load/save
# ---------------------------------------------------------------------------

def scenario_from_dict(doc: dict) -> Scenario:
    if _require(doc, "schema_version", "$") != SCHEMA_VERSION:
        raise ParseError("$.schema_version", f"unsupported version {doc['schema_version']!r}")

    tokens = []
    for i, t in enumerate(_shaped(_require(doc, "tokens", "$"), list, "$.tokens")):
        _shaped(t, dict, f"$.tokens[{i}]")
        tokens.append(
            TokenDecl(
                id=_require_text(t, "id", f"$.tokens[{i}]"),
                primary=_flag(t, "primary", f"$.tokens[{i}]"),
                decimals=_amount(t.get("decimals", 18), f"$.tokens[{i}].decimals"),
            )
        )
    primaries = [t for t in tokens if t.primary]
    if len(primaries) != 1:
        raise ParseError("$.tokens", "exactly one token must be flagged primary")
    primary = primaries[0].id
    token_ids = {t.id for t in tokens}
    if len(token_ids) != len(tokens):
        raise ParseError("$.tokens", "duplicate token ids")

    balances: dict[tuple[str, str], int] = {}
    for acct, per_token in _shaped(doc.get("accounts", {}), dict, "$.accounts").items():
        for token, amount in _shaped(per_token, dict, f"$.accounts.{acct}").items():
            if token not in token_ids:
                raise ParseError(f"$.accounts.{acct}", f"unknown token {token!r}")
            balances[(acct, token)] = _amount(amount, f"$.accounts.{acct}.{token}")

    contracts: dict[str, object] = {}
    for i, c in enumerate(_shaped(doc.get("contracts", []), list, "$.contracts")):
        cid, contract = contract_from_json(c, f"$.contracts[{i}]", primary)
        if cid in contracts:
            raise ParseError(f"$.contracts[{i}]", f"duplicate contract id {cid!r}")
        contracts[cid] = contract

    new_contract = None
    if doc.get("new_contract") is not None:
        cid, contract = contract_from_json(doc["new_contract"], "$.new_contract", primary)
        if cid in contracts:
            raise ParseError("$.new_contract", f"contract id {cid!r} already deployed")
        new_contract = (cid, contract)

    known_venues = set(contracts) | ({new_contract[0]} if new_contract else set())

    miner = _shaped(doc.get("miner", {}), dict, "$.miner")
    miner_account = _text(miner.get("account", "miner"), "$.miner.account")
    flags = _shaped(miner.get("flags", {}), dict, "$.miner.flags")

    def load_txs(objs, path, origin):
        txs = []
        for i, obj in enumerate(_shaped(objs, list, path)):
            tx = tx_from_json(obj, f"{path}[{i}]", origin)
            if tx.venue not in known_venues:
                raise ParseError(f"{path}[{i}].venue", f"unknown venue {tx.venue!r}")
            txs.append(tx)
        return tuple(txs)

    mempool = load_txs(doc.get("mempool", []), "$.mempool", "mempool")
    templates = load_txs(miner.get("templates", []), "$.miner.templates", "miner")
    for i, tx in enumerate(templates):
        if tx.actor != miner_account:
            raise ParseError(
                f"$.miner.templates[{i}].actor",
                f"templates must act as the miner account {miner_account!r}",
            )

    valuation = None
    if doc.get("valuation") is not None:
        v = _shaped(doc["valuation"], dict, "$.valuation")
        prices = {}
        for token, frac in _shaped(v.get("prices", {}), dict, "$.valuation.prices").items():
            if token not in token_ids:
                raise ParseError("$.valuation.prices", f"unknown token {token!r}")
            prices[token] = _fraction(frac, f"$.valuation.prices.{token}")
        valuation = Valuation(primary=primary, mode=v.get("mode", "primary_only"), prices=prices)

    b = _shaped(doc.get("budget", {}), dict, "$.budget")
    budget = SearchBudget(
        mode=b.get("mode", "randomized"),
        max_paths=_amount(b.get("max_paths", 400_000), "$.budget.max_paths", 1),
        seed=_amount(b.get("seed", 0), "$.budget.seed"),
        tractability_threshold=_amount(b.get("tractability_threshold", 9), "$.budget.tractability_threshold"),
    )

    insertion_bounds = None
    if doc.get("insertion_bounds") is not None:
        ib = _shaped(doc["insertion_bounds"], dict, "$.insertion_bounds")
        insertion_bounds = tuple(
            _amount(_require(ib, key, "$.insertion_bounds"), f"$.insertion_bounds.{key}", 1,
                    MAX_TRADE_SIZE)
            for key in ("alpha_min", "alpha_max")
        )

    epsilon = Fraction(0)
    if doc.get("epsilon") is not None:
        epsilon = _fraction(doc["epsilon"], "$.epsilon")

    return Scenario(
        tokens=tuple(tokens),
        balances=balances,
        contracts=contracts,
        mempool=mempool,
        miner_account=miner_account,
        templates=templates,
        allow_reorder=_flag(flags, "reorder", "$.miner.flags", True),
        allow_censor=_flag(flags, "censor", "$.miner.flags"),
        allow_insert=_flag(flags, "insert", "$.miner.flags"),
        k=_amount(miner.get("k", 1), "$.miner.k", 1),
        charge_fees=_flag(miner, "charge_fees", "$.miner"),
        valuation=valuation,
        budget=budget,
        epsilon=epsilon,
        insertion_bounds=insertion_bounds,
        new_contract=new_contract,
        beneficiary=_optional_text(doc, "beneficiary", "$"),
        block_number=_amount(doc.get("block_number", 0), "$.block_number"),
    )


def scenario_to_dict(s: Scenario) -> dict:
    accounts: dict[str, dict[str, str]] = {}
    for (acct, token), amount in sorted(s.balances.items()):
        accounts.setdefault(acct, {})[token] = str(amount)
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "tokens": [
            {"id": t.id, **({"primary": True} if t.primary else {}), "decimals": t.decimals}
            for t in s.tokens
        ],
        "accounts": accounts,
        "contracts": [contract_to_json(cid, c) for cid, c in sorted(s.contracts.items())],
        "mempool": [tx_to_json(tx) for tx in s.mempool],
        "miner": {
            "account": s.miner_account,
            "templates": [tx_to_json(tx) for tx in s.templates],
            "flags": {
                "reorder": s.allow_reorder,
                "censor": s.allow_censor,
                "insert": s.allow_insert,
            },
            "k": s.k,
            "charge_fees": s.charge_fees,
        },
        "budget": {
            "mode": s.budget.mode,
            "max_paths": s.budget.max_paths,
            "seed": s.budget.seed,
            "tractability_threshold": s.budget.tractability_threshold,
        },
    }
    if s.valuation is not None:
        doc["valuation"] = {
            "mode": s.valuation.mode,
            "prices": {
                t: _fraction_json(p) for t, p in sorted(s.valuation.prices.items()) if t != s.primary
            },
        }
    if s.epsilon != 0:
        doc["epsilon"] = _fraction_json(s.epsilon)
    if s.insertion_bounds is not None:
        doc["insertion_bounds"] = {
            "alpha_min": str(s.insertion_bounds[0]),
            "alpha_max": str(s.insertion_bounds[1]),
        }
    if s.new_contract is not None:
        doc["new_contract"] = contract_to_json(*s.new_contract)
    if s.beneficiary is not None:
        doc["beneficiary"] = s.beneficiary
    if s.block_number:
        doc["block_number"] = s.block_number
    return doc


def read_json_object(path: str | Path) -> dict:
    """The JSON object stored at ``path``; float literals are rejected."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_float=_reject_float)
    except UnicodeDecodeError as e:
        raise ParseError("$", f"not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError("$", f"invalid JSON: {e}") from None
    except RecursionError:
        raise ParseError("$", "JSON nests deeper than the recursion limit") from None
    return _shaped(doc, dict, "$")


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(read_json_object(path))


def save_scenario(s: Scenario, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(scenario_to_dict(s)))


def dumps_canonical(doc: dict) -> str:
    """Stable serialization: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
