"""The benchmark's four workloads.

Each workload makes a pool of instances from the seed through the public API,
writes every instance out as scenario JSON and loads it back with
``scenario.load_scenario`` (so the timed calls see exactly what a user's file
would give them), answers one instance per call, and checks every answer
independently of the search that produced it.

The answering functions are looked up on their modules at call time, so the
tracer's in-place wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from mevsearch import compose, corpus, insertion, metrics, scenario, state
from mevsearch.contracts import MakerBook
from mevsearch.ordering import OrderingSpace, SearchBudget
from mevsearch.state import CdpManipulate, Liquidate, Tx

EXHAUSTIVE = SearchBudget(mode="exhaustive")

# Criterion 1: the two-AMM counterexample's optimum, in wei.
COUNTEREXAMPLE_ALPHA = 1361442650470666519273
COUNTEREXAMPLE_VALUE = 123061201464936859816


@dataclass(frozen=True)
class Instance:
    """One loaded scenario plus the derived inputs its answer call takes."""

    index: int
    scenario: scenario.Scenario
    state: state.State
    space: OrderingSpace
    valuation: metrics.Valuation


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool_size: int
    workers: int
    make: Callable[[int, int, dict], scenario.Scenario]
    answer: Callable[[Instance, int], object]
    summary: Callable[[object], dict]
    verify: Callable[[Instance, object], list[str]]


def _labelled(space) -> dict[str, Tx]:
    return {tx.label: tx for tx in space.mempool + space.templates}


def _replay(inst_state, space, txs, objective) -> int:
    """Objective after applying a witness ordering in skip-invalid mode."""
    result = state.apply_sequence(inst_state, txs, "skip_invalid", space.fee_policy())
    return objective.value(result.state)


def _txs(space, ordering) -> tuple[Tx, ...]:
    by_label = _labelled(space)
    return tuple(by_label[label] for label in ordering)


# ---------------------------------------------------------------------------
# exhaustive-spread and sampled-spread: metrics.value_spread
# ---------------------------------------------------------------------------

def _spread_answer(budget_of: Callable[[Instance], SearchBudget]):
    def answer(inst: Instance, workers: int):
        return metrics.value_spread(
            inst.scenario.beneficiary, inst.space, inst.state, inst.valuation,
            budget_of(inst), workers=workers,
        )
    return answer


def _spread_summary(r) -> dict:
    return {
        "b_high": str(r.b_high),
        "b_low": str(r.b_low),
        "best_ordering": list(r.best_ordering),
        "worst_ordering": list(r.worst_ordering),
        "exhaustive": r.exhaustive,
    }


def _spread_verify(expect_exhaustive: bool):
    def verify(inst: Instance, r) -> list[str]:
        problems = []
        objective = metrics.AccountBalanceValue(inst.scenario.beneficiary, inst.valuation)
        if r.b_high < r.b_low:
            problems.append(f"best {r.b_high} < worst {r.b_low}")
        for name, ordering, value in (
            ("best", r.best_ordering, r.b_high),
            ("worst", r.worst_ordering, r.b_low),
        ):
            got = _replay(inst.state, inst.space, _txs(inst.space, ordering), objective)
            if got != value:
                problems.append(f"{name} ordering replays to {got}, reported {value}")
        if r.exhaustive != expect_exhaustive:
            problems.append(f"exhaustive={r.exhaustive}, expected {expect_exhaustive}")
        return problems
    return verify


def _make_exhaustive(seed: int, index: int, size: dict) -> scenario.Scenario:
    return corpus.make_spread_instance(
        seed, index, size["txs"], n_pools=2, fee_bps=30, whale_txs=2
    )


def _make_sampled(seed: int, index: int, size: dict) -> scenario.Scenario:
    sc = corpus.make_spread_instance(seed, index, size["txs"], n_pools=2, fee_bps=30, whale_txs=2)
    # As criterion 4 does: sampling forced even where counting would fit.
    sc.budget = SearchBudget(
        mode="randomized", max_paths=size["max_paths"], seed=seed * 7_919 + index,
        tractability_threshold=0,
    )
    return sc


# ---------------------------------------------------------------------------
# insertion-sizing: insertion.search_with_insertion
# ---------------------------------------------------------------------------

def _counterexample_path() -> Path:
    return Path(__file__).resolve().parent.parent / "demos" / "data" / "two_amm_counterexample.json"


def _make_insertion(seed: int, index: int, size: dict) -> scenario.Scenario:
    """Instance 0 is the criterion-1 file itself; the others scale both
    pools' reserves by 0.9-1.1 and the user's trade by 0.8-1.2."""
    base = scenario.load_scenario(_counterexample_path())
    if index == 0:
        return base
    rng = random.Random(seed * 1_000_003 + 500_000 + index)
    contracts = {}
    for cid in sorted(base.contracts):
        pool = base.contracts[cid]
        contracts[cid] = dataclasses.replace(
            pool,
            reserve_x=pool.reserve_x * rng.randint(900, 1100) // 1000,
            reserve_y=pool.reserve_y * rng.randint(900, 1100) // 1000,
        )
    (user_tx,) = base.mempool
    amount = user_tx.action.amount * rng.randint(800, 1200) // 1000
    balances = dict(base.balances)
    balances[(user_tx.actor, user_tx.action.token_in)] = amount
    user_tx = dataclasses.replace(user_tx, action=dataclasses.replace(user_tx.action, amount=amount))
    return dataclasses.replace(base, contracts=contracts, balances=balances, mempool=(user_tx,))


def _insertion_objective(inst: Instance):
    return metrics.PlayerDelta.from_state(
        frozenset((inst.scenario.miner_account,)), inst.valuation, inst.state
    )


def _insertion_answer(inst: Instance, workers: int):
    return insertion.search_with_insertion(
        inst.space, inst.scenario.budget, _insertion_objective(inst), inst.state,
        *inst.scenario.insertion_bounds,
    )


def _insertion_summary(r) -> dict:
    return {
        "best_value": str(r.report.best_value),
        "best_ordering": list(r.report.best_ordering),
        "alpha": None if r.alpha is None else str(r.alpha),
        "exhaustive": r.report.exhaustive,
    }


def _insertion_verify(inst: Instance, r) -> list[str]:
    problems = []
    objective = _insertion_objective(inst)
    skeleton = _txs(inst.space, r.report.best_ordering)
    bound = skeleton if r.alpha is None else insertion.bind_alpha(skeleton, r.alpha)
    got = _replay(inst.state, inst.space, bound, objective)
    if got != r.report.best_value:
        problems.append(f"best ordering replays to {got}, reported {r.report.best_value}")
    if r.alpha is not None:
        problem = insertion.InsertionProblem(
            inst.state, skeleton, *inst.scenario.insertion_bounds, objective,
            inst.space.fee_policy(),
        )
        profit = insertion.evaluate_alpha(problem, r.alpha)
        if profit != r.report.best_value:
            problems.append(f"evaluate_alpha gives {profit} at alpha {r.alpha}")
    if inst.index == 0 and (r.alpha, r.report.best_value) != (
        COUNTEREXAMPLE_ALPHA, COUNTEREXAMPLE_VALUE
    ):
        problems.append(f"counterexample answer alpha={r.alpha} value={r.report.best_value}")
    return problems


# ---------------------------------------------------------------------------
# compose-parallel: compose.check_composability
# ---------------------------------------------------------------------------

def _make_compose(seed: int, index: int, size: dict) -> scenario.Scenario:
    """A fee-less BBT/ETH pool that prices both a not-yet-deployed price bet
    and a CDP book.  ETH inflows push the pool past the bet's threshold and
    the book's victim under water at once, so the bet always adds value and
    every verdict carries a witness to replay."""
    rng = random.Random(seed * 1_000_003 + 700_000 + index)
    pool_other = rng.randint(1_000, 2_000)
    gap = rng.randint(50, 150)
    pool_eth = pool_other - gap
    n = size["eth_swaps"]
    # Together the inflows always exceed the reserve gap.
    eth_in = tuple(rng.randint(gap // n + 1, 2 * gap // n + 1) for _ in range(n))
    other_in = (rng.randint(gap // 2, 2 * gap),)
    built = compose.build_pricebet_scenario(
        pool_other=pool_other, pool_eth=pool_eth,
        mempool_eth_in=eth_in, mempool_other_in=other_in,
        player_eth=rng.randint(100, 300),
    )
    # Collateral in ETH priced by the pool (BBT per ETH): the victim is safe
    # at the opening price and under water once ETH flows in; the borrower's
    # loan is safe only while the price has not fallen.
    victim_coll = rng.randint(200, 600)
    borrower_coll = rng.randint(200, 600)
    book = MakerBook(
        loan_token="BBT", collateral_token="ETH", price_source=built.pool_id,
        collateral={"v0": victim_coll, "c0": borrower_coll},
        debt={"v0": 2 * victim_coll * pool_other // (3 * pool_eth)},
    )
    loan = 2 * borrower_coll * pool_other // (3 * pool_eth) - 1
    mempool = built.space.mempool + (
        Tx("c0", "book", CdpManipulate("withdraw_loan", loan), label=f"m{len(built.space.mempool)}"),
    )
    templates = built.space.templates + (
        Tx(built.space.miner, "book", Liquidate("v0"), origin="miner", label="t2"),
    )
    contracts = dict(built.state.contracts)
    contracts["book"] = book
    return scenario.Scenario(
        tokens=(scenario.TokenDecl("ETH", primary=True), scenario.TokenDecl("BBT")),
        balances=dict(built.state.balances),
        contracts=contracts,
        mempool=mempool,
        miner_account=built.space.miner,
        templates=templates,
        allow_reorder=True,
        allow_censor=False,
        allow_insert=True,
        budget=EXHAUSTIVE,
        epsilon=Fraction(0),
        new_contract=(built.bet_id, built.bet_contract),
    )


def _compose_answer(inst: Instance, workers: int):
    cid, contract = inst.scenario.new_contract
    return compose.check_composability(
        inst.state, cid, contract, inst.scenario.player(), inst.scenario.epsilon,
        inst.space, inst.valuation, inst.scenario.budget, workers=workers,
    )


def _compose_summary(v) -> dict:
    return {
        "mev_before": str(v.mev_before),
        "mev_after": str(v.mev_after),
        "composable": v.composable,
        "status": v.status,
        "witness": None if v.witness is None else list(v.witness),
    }


def _compose_verify(inst: Instance, v) -> list[str]:
    problems = []
    if v.mev_after < v.mev_before:
        problems.append(f"mev_after {v.mev_after} < mev_before {v.mev_before}")
    if v.composable != (v.mev_after <= (1 + inst.scenario.epsilon) * v.mev_before):
        problems.append(f"verdict composable={v.composable} contradicts its values")
    if v.witness is None:
        problems.append("no witness: these inputs are built so the bet adds value")
        return problems
    cid, contract = inst.scenario.new_contract
    after = inst.state.deploy(cid, contract)
    objective = metrics.PlayerDelta.from_state(inst.scenario.player().accounts, inst.valuation, after)
    got = _replay(after, inst.space, _txs(inst.space, v.witness), objective)
    if got != v.mev_after:
        problems.append(f"witness replays to {got}, reported mev_after {v.mev_after}")
    return problems


# ---------------------------------------------------------------------------
# Registry, sizes and the input pipeline
# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exhaustive-spread",
            "exact best and worst value_spread on 7-tx two-pool instances: prefix-sharing DFS, "
            "apply_tx on exact-input swaps and the objective do nearly all the work",
            48, 1, _make_exhaustive, _spread_answer(lambda inst: EXHAUSTIVE),
            _spread_summary, _spread_verify(True),
        ),
        Workload(
            "sampled-spread",
            "randomized value_spread, 2000 samples of 12-tx instances: every sample replays its whole "
            "sequence through apply_sequence, with no prefix sharing and no pruning",
            48, 1, _make_sampled, _spread_answer(lambda inst: inst.scenario.budget),
            _spread_summary, _spread_verify(False),
        ),
        Workload(
            "insertion-sizing",
            "search_with_insertion on the criterion-1 counterexample and seeded variants: "
            "the alpha optimiser and exact-output swaps dominate, the DFS is trivial",
            8, 1, _make_insertion, _insertion_answer, _insertion_summary, _insertion_verify,
        ),
        Workload(
            "compose-parallel",
            "check_composability at 2 workers on price-bet plus CDP scenarios: the process "
            "pool, non-swap contract paths, insert branching and the unknown-venue path",
            48, 2, _make_compose, _compose_answer, _compose_summary, _compose_verify,
        ),
    )
}

# Input sizes per workload; ``tiny`` is the smoke test's.
SIZES = {
    "full": {"exhaustive-spread": {"txs": 7}, "sampled-spread": {"txs": 12, "max_paths": 2_000},
             "insertion-sizing": {}, "compose-parallel": {"eth_swaps": 2}},
    "tiny": {"exhaustive-spread": {"txs": 4}, "sampled-spread": {"txs": 6, "max_paths": 50},
             "insertion-sizing": {}, "compose-parallel": {"eth_swaps": 1}},
}


def build(workload: Workload, seed: int, work_dir: Path, size: str = "full",
          pool_size: int | None = None) -> tuple[list[Instance], float, float]:
    """Generate the instance pool, round-trip it through scenario JSON and
    derive each call's inputs.  Returns (instances, generate_s, load_s)."""
    params = SIZES[size][workload.name]
    count = workload.pool_size if pool_size is None else pool_size
    t0 = time.perf_counter()
    made = [workload.make(seed, i, params) for i in range(count)]
    t1 = time.perf_counter()
    work_dir.mkdir(parents=True, exist_ok=True)
    instances = []
    for i, sc in enumerate(made):
        path = work_dir / f"{workload.name}-{seed}-{i}.json"
        scenario.save_scenario(sc, path)
        loaded = scenario.load_scenario(path)
        path.unlink()
        instances.append(
            Instance(i, loaded, loaded.initial_state(), loaded.space(), loaded.get_valuation())
        )
    t2 = time.perf_counter()
    return instances, t1 - t0, t2 - t1


def digest(summary: dict) -> str:
    """Short hash of an answer's canonical JSON (``paths_explored`` is never
    part of a summary: new pruning may change it)."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
