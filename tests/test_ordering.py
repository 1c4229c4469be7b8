"""Enumeration, pruning, work-unit splitting, forked workers, and search determinism."""

import itertools
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from mevsearch import contracts, ordering
from mevsearch.contracts import AmmPool, swap_amounts
from mevsearch.corpus import make_spread_instance
from mevsearch.metrics import AccountBalanceValue, PlayerDelta, Valuation
from mevsearch.ordering import (
    EvReport,
    OrderingSpace,
    SearchBudget,
    count_sequences,
    search,
    _FULL,
    _Tree,
    _compiled,
    _work_units,
)
from mevsearch.scenario import load_scenario
from mevsearch.state import ScenarioError, State, Swap, Tx, apply_sequence

from conftest import (
    VALUATION,
    mixed_instance,
    pool_state,
    pruning_corpus,
    reference_sample_sequences,
    simple_pool,
    unpruned_search,
)

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def swaps(n, venue="amm", token_in="BBT", actor=None, amount=None):
    # Distinct amounts 10, 11, ... unless one ``amount`` is given for all.
    token_out = "ETH" if token_in == "BBT" else "BBT"
    return tuple(
        Tx(actor or f"u{i}", venue, Swap(token_in, token_out, amount or 10 + i))
        for i in range(n)
    )


def mixed_state(n_users=6, pools=("amm",)):
    balances = {}
    for i in range(n_users):
        balances[(f"u{i}", "BBT")] = 10_000
        balances[(f"u{i}", "ETH")] = 10_000
        balances[("whale", "BBT")] = 10_000
        balances[("whale", "ETH")] = 10_000
    return State(balances, {p: simple_pool(100_000, 100_000, fee_bps=30) for p in pools}, 0)


def test_reorder_only_counts():
    sp = OrderingSpace(mempool=swaps(3))
    assert count_sequences(sp, pruning=False) == 6
    # three distinct trades: no run collapses
    assert count_sequences(sp, pruning=True) == 6


def test_reorder_censor_counts():
    sp = OrderingSpace(mempool=swaps(3), allow_censor=True)
    assert count_sequences(sp, pruning=False) == 16  # sum over ordered subsets


def test_same_direction_run_prunes_to_one():
    sp = OrderingSpace(mempool=swaps(3, amount=10))
    assert count_sequences(sp, pruning=True) == 1


def test_all_flags_off_is_identity_only():
    sp = OrderingSpace(mempool=swaps(3), allow_reorder=False)
    assert list(_Tree(sp, 0, frozenset()).walk()) == [(0, 1, 2)]


def test_censor_only_is_subsequences():
    sp = OrderingSpace(mempool=swaps(4), allow_reorder=False, allow_censor=True)
    seqs = list(_Tree(sp, 0, frozenset()).walk())
    assert len(seqs) == 16
    assert all(list(s) == sorted(s) for s in seqs)


def test_insertion_weaves_templates():
    sp = OrderingSpace(
        mempool=swaps(1),
        templates=(Tx("miner", "amm", Swap("ETH", "BBT", 5), origin="miner"),),
        allow_insert=True,
    )
    # m0 | t0,m0 | m0,t0
    assert count_sequences(sp, pruning=False) == 3


def test_miner_owned_swaps_are_not_collapsed():
    mempool = swaps(2, amount=10) + (Tx("miner", "amm", Swap("BBT", "ETH", 50)),)
    sp = OrderingSpace(mempool=mempool)
    # classes are indexed by the set of user swaps before the miner's: 4
    assert count_sequences(sp, pruning=True) == 4
    assert count_sequences(sp, pruning=False) == 6


def test_tracked_actor_blocks_pruning():
    sp = OrderingSpace(mempool=swaps(3, amount=10))
    # u1 tracked: classes indexed by the subset of {u0, u2} executed before it
    assert count_sequences(sp, pruning=True, tracked=frozenset({"u1"})) == 4


def _split_covers_stream(sp, state=None, tracked=frozenset()):
    # The work units of a parallel search: the sequences shorter than 2 items,
    # plus the whole subtree under every depth-2 node, and under every quiet
    # node above depth 2, walked from its context.  Together they must be the
    # full stream, each sequence once, and so must the units' offers.
    tree = _Tree(sp, _FULL, tracked, None if state is None else state.contracts)
    full = list(tree.walk())
    short, units = _work_units(tree)
    assert all(len(key) < 2 for key in short)
    keys, weight = list(short), len(short)
    for prefix, node in units:
        sub = list(tree.walk(node, prefix))
        assert len(prefix) == 2 or len(prefix) < 2 and tree.expand(node)[2]
        assert all(k[:len(prefix)] == prefix for k in sub)
        keys.extend(sub)
        weight += sum(w for _, _, w in tree.offers(node, prefix))
    assert len(full) == len(set(full)) > 1
    assert sorted(keys) == sorted(full) and weight == len(full)
    return tree


def test_work_units_cover_stream_exactly_once():
    tpl = (
        Tx("miner", "amm", Swap("ETH", "BBT", 5), origin="miner"),
        Tx("miner", "amm", Swap("BBT", "ETH", 5), origin="miner"),
    )
    mixed = swaps(2) + swaps(2, token_in="ETH", actor="w")
    _split_covers_stream(OrderingSpace(mempool=swaps(4), allow_censor=True))
    # Quiet nodes above depth 2: with nothing tracked the root is quiet, and
    # with u0 tracked every node past u0's trade is.
    censored = OrderingSpace(mempool=swaps(4), allow_censor=True)
    tree = _split_covers_stream(censored, mixed_state())
    assert _work_units(tree) == ([], [((), 0)])
    tree = _split_covers_stream(censored, mixed_state(), frozenset({"u0"}))
    assert [prefix for prefix, _ in _work_units(tree)[1]][:2] == [(0,), (1, 0)]
    _split_covers_stream(OrderingSpace(mempool=mixed, allow_reorder=False, allow_censor=True))
    _split_covers_stream(OrderingSpace(mempool=mixed, templates=tpl, allow_insert=True))
    _split_covers_stream(
        OrderingSpace(mempool=mixed, templates=tpl, allow_reorder=False, allow_insert=True)
    )
    # k = 2 with an arrival wave: every other transaction arrives in block 1
    wave = tuple(replace(tx, arrival_block=i % 2) for i, tx in enumerate(mixed))
    _split_covers_stream(OrderingSpace(mempool=wave, templates=tpl[:1], allow_insert=True, k=2))
    _split_covers_stream(OrderingSpace(mempool=wave, allow_censor=True, k=2), mixed_state())
    # Two pools: the whale's swaps on amm2 commute with the users' on amm, so the
    # depth-2 units start with sleepers.
    two_pools = swaps(2) + swaps(2, venue="amm2", token_in="ETH", actor="whale")
    state = mixed_state(pools=("amm", "amm2"))
    for sp in (
        OrderingSpace(mempool=two_pools),
        OrderingSpace(mempool=two_pools, templates=tpl, allow_insert=True),
        OrderingSpace(mempool=two_pools, templates=tpl, allow_reorder=False, allow_insert=True),
        OrderingSpace(mempool=two_pools, allow_censor=True),
        OrderingSpace(mempool=wave[:2] + two_pools[2:], templates=tpl[:1], allow_insert=True, k=2),
    ):
        for st in (None, state):
            tree = _split_covers_stream(sp, st)
            assert any(tree.indep)


def test_exact_k_block_search_same_at_any_worker_count(monkeypatch):
    from mevsearch.metrics import MinerModel, ev

    monkeypatch.setattr(ordering, "FORK_CROSSOVER", 0)  # fork this small tree too
    state = mixed_state()
    mempool = (
        Tx("whale", "amm", Swap("BBT", "ETH", 5_000)),
        Tx("u0", "amm", Swap("ETH", "BBT", 900), arrival_block=1),
        Tx("u1", "amm", Swap("BBT", "ETH", 700)),
        Tx("u2", "amm", Swap("ETH", "BBT", 1_500), arrival_block=1),
    )
    templates = (Tx("whale", "amm", Swap("ETH", "BBT", 2_000), origin="miner"),)
    sp = OrderingSpace(mempool=mempool, templates=templates, allow_insert=True, miner="whale", k=2)
    player = MinerModel(accounts=frozenset({"whale"}))
    budget = SearchBudget(mode="exhaustive")
    reports = [ev(player, sp, state, Valuation(primary="ETH"), budget, workers=w) for w in (1, 2)]
    assert reports[0].exhaustive and reports[0].paths_explored > 100
    assert "|" in reports[0].best_ordering
    assert reports[0] == reports[1]


def test_exhaustive_search_matches_brute_force():
    state = mixed_state()
    mempool = (
        Tx("whale", "amm", Swap("BBT", "ETH", 5_000)),
        Tx("u0", "amm", Swap("BBT", "ETH", 900)),
        Tx("u1", "amm", Swap("ETH", "BBT", 700)),
        Tx("u2", "amm", Swap("ETH", "BBT", 1_500)),
        Tx("u3", "amm", Swap("BBT", "ETH", 300)),
    )
    sp = OrderingSpace(mempool=mempool).labeled()
    objective = AccountBalanceValue("whale", Valuation(primary="ETH"))

    best = worst = None
    for perm in itertools.permutations(range(5)):
        res = apply_sequence(state, [sp.mempool[i] for i in perm], "skip_invalid")
        v = objective.value(res.state)
        best = v if best is None else max(best, v)
        worst = v if worst is None else min(worst, v)

    for fold in (unpruned_search, search):
        rep = fold(sp, SearchBudget(mode="exhaustive"), objective, state)
        assert rep.exhaustive
        assert rep.best_value == best
        assert rep.worst_value == worst


def test_parallel_reports_are_identical(monkeypatch):
    monkeypatch.setattr(ordering, "FORK_CROSSOVER", 0)  # fork this small tree too
    state = mixed_state()
    mempool = (
        Tx("whale", "amm", Swap("BBT", "ETH", 5_000)),
        Tx("u0", "amm", Swap("BBT", "ETH", 900)),
        Tx("u1", "amm", Swap("ETH", "BBT", 700)),
        Tx("u2", "amm", Swap("ETH", "BBT", 1_500)),
        Tx("u3", "amm", Swap("BBT", "ETH", 300)),
        Tx("u4", "amm", Swap("ETH", "BBT", 40)),
    )
    sp = OrderingSpace(mempool=mempool)
    objective = AccountBalanceValue("whale", Valuation(primary="ETH"))
    reports = [
        search(sp, SearchBudget(mode="exhaustive"), objective, state, workers=w)
        for w in (1, 2, 3, 4)
    ]
    assert all(r == reports[0] for r in reports[1:])


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"max_paths": 0}, "budget max_paths must be >= 1, got 0"),
        ({"seed": -1}, "budget seed must be >= 0, got -1"),
        ({"tractability_threshold": -1}, "budget tractability_threshold must be >= 0, got -1"),
    ],
)
def test_a_budget_checks_its_fields_when_built(fields, message):
    with pytest.raises(ScenarioError) as raised:
        SearchBudget(**fields)
    assert str(raised.value) == message
    # the bounds themselves are accepted
    SearchBudget(max_paths=1, seed=0, tractability_threshold=0)


def test_randomized_determinism_and_soundness():
    state = mixed_state()
    mempool = tuple(
        Tx(f"u{i}", "amm", Swap("BBT" if i % 2 else "ETH", "ETH" if i % 2 else "BBT", 500 + 37 * i))
        for i in range(7)
    ) + (Tx("whale", "amm", Swap("BBT", "ETH", 7_000)),)
    sp = OrderingSpace(mempool=mempool)
    objective = AccountBalanceValue("whale", Valuation(primary="ETH"))
    exact = search(sp, SearchBudget(mode="exhaustive"), objective, state)
    budget = SearchBudget(mode="randomized", max_paths=30, seed=11, tractability_threshold=0)
    s1 = search(sp, budget, objective, state)
    s2 = search(sp, budget, objective, state)
    assert s1 == s2
    assert not s1.exhaustive and s1.paths_explored <= 30
    assert s1.best_value <= exact.best_value
    # full-coverage randomized budget collapses to the exhaustive answer
    full = search(sp, SearchBudget(mode="randomized", max_paths=10**6, seed=3), objective, state)
    assert full.exhaustive and full.best_value == exact.best_value


def _just_fitting_cases():
    """(state, space, objective): six swaps on two pools, which compile to
    ints, and three trees that do not: the liquidation scenario, the price
    bet after its deployment, and a mixed instance with fees and censoring."""
    state = mixed_state(pools=("amm", "amm2"))
    directions = (("ETH", "BBT"), ("BBT", "ETH"))
    mempool = tuple(
        Tx(f"u{i}", "amm" if i < 3 else "amm2", Swap(*directions[i % 2], 400 + 53 * i)) for i in range(5)
    ) + (Tx("whale", "amm", Swap("BBT", "ETH", 6_000)),)
    yield state, OrderingSpace(mempool=mempool), AccountBalanceValue("whale", Valuation(primary="ETH"))
    for name in ("liquidation", "pricebet_compose"):
        sc = load_scenario(DATA / f"{name}.json")
        state = sc.initial_state()
        if sc.new_contract is not None:
            state = state.deploy(*sc.new_contract)
        yield state, sc.space(), PlayerDelta.from_state(sc.player().accounts, sc.get_valuation(), state)
    state, space = mixed_instance(1_009, True, True, True, 1, fees=True)
    yield state, space, PlayerDelta.from_state(frozenset({"miner"}), VALUATION, state)


def test_capped_attempt_is_exact_when_the_classes_just_fit(monkeypatch):
    # The capped attempt of the name is now the count gate: a randomized
    # budget whose max_paths the tree's count fits folds exactly, through the
    # exhaustive dispatch, at any worker count, forked if the tree compiles.
    monkeypatch.setattr(ordering, "FORK_CROSSOVER", 0)
    for case, (state, sp, objective) in enumerate(_just_fitting_cases()):
        tree = _Tree(sp, _FULL, objective.tracked, state.contracts)
        assert len(tree.items) <= SearchBudget().tractability_threshold
        assert (_compiled(tree, state, objective, sp.fee_policy()) is None) == (case > 0)
        exact = search(sp, SearchBudget(mode="exhaustive"), objective, state)
        classes = exact.paths_total
        fits = SearchBudget(mode="randomized", max_paths=classes, seed=5)
        for workers in (1, 2):
            assert search(sp, fits, objective, state, workers=workers) == exact, case
        over = search(sp, replace(fits, max_paths=classes - 1), objective, state)
        assert not over.exhaustive and over.paths_total is None
        assert over.paths_explored == classes - 1
        assert over.worst_value >= exact.worst_value and over.best_value <= exact.best_value
        if case == 0:
            assert classes < 720  # the sleep sets reduce the 6! orderings


def test_best_value_at_least_identity_order():
    state = mixed_state()
    mempool = (
        Tx("whale", "amm", Swap("BBT", "ETH", 5_000)),
        Tx("u0", "amm", Swap("ETH", "BBT", 2_000)),
        Tx("u1", "amm", Swap("BBT", "ETH", 900)),
    )
    sp = OrderingSpace(mempool=mempool)
    objective = AccountBalanceValue("whale", Valuation(primary="ETH"))
    identity_value = objective.value(apply_sequence(state, list(mempool), "skip_invalid").state)
    sampled = search(
        sp, SearchBudget(mode="randomized", max_paths=1, seed=0, tractability_threshold=0),
        objective, state,
    )
    assert sampled.best_value >= identity_value


def test_censoring_never_decreases_best_value():
    state = mixed_state()
    mempool = (
        Tx("whale", "amm", Swap("BBT", "ETH", 5_000)),
        Tx("u0", "amm", Swap("BBT", "ETH", 4_000)),
        Tx("u1", "amm", Swap("ETH", "BBT", 1_000)),
        Tx("u2", "amm", Swap("BBT", "ETH", 2_500)),
    )
    objective = AccountBalanceValue("whale", Valuation(primary="ETH"))
    plain = search(OrderingSpace(mempool=mempool), SearchBudget(mode="exhaustive"), objective, state)
    censoring = search(
        OrderingSpace(mempool=mempool, allow_censor=True), SearchBudget(mode="exhaustive"), objective, state
    )
    assert censoring.best_value >= plain.best_value


def test_tie_break_is_lexicographic_smallest():
    # two no-op orderings tie at value 0; the identity key must win
    state = pool_state({("a", "BBT"): 0, ("b", "BBT"): 0}, {"amm": simple_pool()})
    mempool = (Tx("a", "amm", Swap("BBT", "ETH", 5)), Tx("b", "amm", Swap("BBT", "ETH", 6)))
    sp = OrderingSpace(mempool=mempool)
    objective = PlayerDelta.from_state(frozenset({"miner"}), Valuation(primary="ETH"), state)
    rep = unpruned_search(sp, SearchBudget(mode="exhaustive"), objective, state)
    assert rep.best_ordering == ("m0", "m1")
    assert rep.worst_ordering == ("m0", "m1")


def test_skip_invalid_semantics_in_search():
    # u0's swap only succeeds after u1 funds it; orderings where it fails
    # are still feasible sequences with the failure censored.
    pool = simple_pool(1_000, 1_000, fee_bps=0)
    state = State({("u1", "BBT"): 500}, {"amm": pool}, 0)
    mempool = (
        Tx("u0", "amm", Swap("ETH", "BBT", 100)),  # u0 has nothing yet
        Tx("u1", "amm", Swap("BBT", "ETH", 500)),
    )
    sp = OrderingSpace(mempool=mempool)
    objective = AccountBalanceValue("u0", Valuation(primary="ETH"))
    rep = unpruned_search(sp, SearchBudget(mode="exhaustive"), objective, state)
    assert rep.paths_explored == 2
    assert rep.best_value == 0


def test_pruning_equivalence_small_instances():
    # mini version of the acceptance criterion: pruned == unpruned extremes
    for scenario in pruning_corpus(seed=123, count=12, max_txs=5):
        state = scenario.initial_state()
        space = scenario.space()
        valuation = scenario.get_valuation()
        objective = AccountBalanceValue(scenario.beneficiary, valuation)
        pruned = search(space, SearchBudget(mode="exhaustive"), objective, state)
        full = unpruned_search(space, SearchBudget(mode="exhaustive"), objective, state)
        assert pruned.best_value == full.best_value
        assert pruned.worst_value == full.worst_value
        assert pruned.paths_explored <= full.paths_explored


def test_sampler_stops_after_a_run_of_duplicate_draws(monkeypatch):
    import random
    from types import SimpleNamespace

    rngs = []

    class RecordedRandom(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            rngs.append(self)

    monkeypatch.setattr(ordering, "random", SimpleNamespace(Random=RecordedRandom))
    # reorder off, censor off: the identity is the only ordering
    sp = OrderingSpace(mempool=swaps(10), allow_reorder=False)
    objective = AccountBalanceValue("u0", Valuation(primary="ETH"))
    budget = SearchBudget(mode="randomized", max_paths=10_000, tractability_threshold=0)
    rep = search(sp, budget, objective, mixed_state(10))
    assert not rep.exhaustive and rep.paths_explored == 1
    # the sampler's stream is where exactly MAX_DUPLICATE_RUN shuffles of
    # the 10 items leave a fresh generator
    fresh = random.Random(budget.seed)
    for _ in range(ordering.MAX_DUPLICATE_RUN):
        fresh.shuffle(list(range(10)))
    assert [rng.getstate() for rng in rngs] == [fresh.getstate()]


@pytest.mark.parametrize(
    "flags",
    [
        {},
        {"allow_reorder": False, "allow_censor": True},
        {"allow_censor": True},
        {"allow_insert": True},
        {"allow_reorder": False, "allow_insert": True},
        {"allow_censor": True, "allow_insert": True},
    ],
    ids=["reorder", "censor_in_order", "censor", "insert", "insert_in_order", "censor_insert"],
)
def test_the_sampler_draws_the_stdlib_shuffle_stream(flags):
    # The inlined Fisher-Yates draws on getrandbits what Random.shuffle
    # draws: the same samples, list for list, under every flag set, each
    # stop rule included.
    templates = swaps(2, actor="miner", token_in="ETH")
    stops = set()
    for n in (1, 3, 8):
        sp = OrderingSpace(mempool=swaps(n), templates=templates, **flags)
        tree = _Tree(sp, _FULL, frozenset({"u0"}), mixed_state().contracts)
        for seed in range(12):
            for max_paths in (1, 2, 7, 60, 400):
                budget = SearchBudget(max_paths=max_paths, seed=seed, tractability_threshold=0)
                expected = reference_sample_sequences(tree, budget)
                assert ordering._sample_sequences(tree, budget) == expected, (n, seed, max_paths)
                stops.add(len(expected) == max_paths)
    # some runs fill max_paths, some stop early on draws seen before
    assert stops == {True, False}


# -- forked workers ------------------------------------------------------------

def _count_forks(monkeypatch, cpus=8, crossover=0):
    """Let ``cpus`` CPUs be usable, fork every compiled tree with more than
    ``crossover`` collapsed offers (``None`` keeps the module's crossover),
    and record the pid of every worker that ``os.fork`` starts from this
    process."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    if cpus is not None:
        monkeypatch.setattr(ordering, "_usable_cpus", lambda: cpus)
    if crossover is not None:
        monkeypatch.setattr(ordering, "FORK_CROSSOVER", crossover)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _units(sp, state, objective):
    tree = _Tree(sp, _FULL, objective.tracked, state.contracts)
    return tree, _work_units(tree)[1]


def _k2_corpus_case():
    scenario = make_spread_instance(5, 0, 6)
    space = scenario.space()
    wave = tuple(replace(tx, arrival_block=i % 2) for i, tx in enumerate(space.mempool))
    objective = AccountBalanceValue(scenario.beneficiary, scenario.get_valuation())
    return replace(space, mempool=wave, k=2), scenario.initial_state(), objective


def _censor_corpus_case():
    scenario = make_spread_instance(5, 1, 6)
    objective = AccountBalanceValue(scenario.beneficiary, scenario.get_valuation())
    return replace(scenario.space(), allow_censor=True), scenario.initial_state(), objective


def _few_units_case():
    sp = OrderingSpace(mempool=swaps(3))
    return sp, mixed_state(), AccountBalanceValue("u0", Valuation(primary="ETH"))


def _nothing_to_fork_case():
    sp = OrderingSpace(mempool=swaps(1), allow_censor=True)
    return sp, mixed_state(), AccountBalanceValue("u0", Valuation(primary="ETH"))


@pytest.mark.parametrize(
    "case, has_units",
    [
        (_k2_corpus_case, lambda n: n > 8),
        (_censor_corpus_case, lambda n: n > 8),
        (_few_units_case, lambda n: 1 < n < 8),
        (_nothing_to_fork_case, lambda n: n == 0),
    ],
    ids=["k2_corpus", "censor_corpus", "few_units", "nothing_to_fork"],
)
def test_reports_are_the_same_at_any_worker_count(monkeypatch, case, has_units):
    sp, state, objective = case()
    _, units = _units(sp, state, objective)
    assert has_units(len(units))
    forks = _count_forks(monkeypatch)
    reports = {}
    for workers in (1, 2, 3, 8):
        del forks[:]
        reports[workers] = search(
            sp, SearchBudget(mode="exhaustive"), objective, state, workers=workers
        )
        assert len(forks) == max(1, min(workers, len(units))) - 1
        _assert_no_child_left()
    assert reports[1].exhaustive and reports[1].paths_explored > 1
    assert all(reports[w] == reports[1] for w in (2, 3, 8))


def test_workers_are_capped_by_the_cpus_the_process_may_use(monkeypatch):
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("the platform reports no CPU affinity")
    state = mixed_state()
    sp = OrderingSpace(mempool=swaps(4), allow_censor=True)
    objective = AccountBalanceValue("u0", Valuation(primary="ETH"))
    serial = search(sp, SearchBudget(mode="exhaustive"), objective, state)
    forks = _count_forks(monkeypatch, cpus=None)
    for cpus, workers, expected_forks in (({0}, 2, 0), ({0, 1, 2}, 8, 2)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(cpus))
        del forks[:]
        assert search(sp, SearchBudget(mode="exhaustive"), objective, state, workers=workers) == serial
        assert len(forks) == expected_forks
        _assert_no_child_left()


def _alternating(n):
    """Swaps on one pool in alternating directions: no two of them commute.
    Their sizes grow unevenly, so on ``mixed_state``'s pool no two sets of
    them leave the same reserves."""
    sizes = (300 + 41 * i + 7 * i * i for i in range(n))
    return tuple(
        Tx(f"u{i}", "amm", Swap("BBT" if i % 2 else "ETH", "ETH" if i % 2 else "BBT", size))
        for i, size in enumerate(sizes)
    )


def _u0():
    return AccountBalanceValue("u0", Valuation(primary="ETH"))


class _SwapsOnPaths:
    """``contracts.swap_amounts`` for ``_alternating`` swaps on the pool of
    ``mixed_state``, calling ``check(items, reserves)`` before each trade:
    ``items`` is the set of swaps on the path the trade ends, and
    ``reserves`` the pool's ``(x, y)`` before it.  The set is recovered from
    the reserves, recorded after each trade: two orders of one set may
    leave the same reserves, two sets do not.  The int fold looks the rule
    up at call time, so a test can make a step raise, stall or exit."""

    def __init__(self, check):
        self.check = check
        self.items = {tx.action.amount: i for i, tx in enumerate(_alternating(5))}
        self.moved = {(100_000, 100_000): frozenset()}

    def __call__(self, reserve_in, reserve_out, amount, fee_bps, exact_out):
        item = self.items[amount]
        # Odd items sell BBT, the pool's x token.
        xy = (lambda a, b: (a, b)) if item % 2 else (lambda a, b: (b, a))
        before = xy(reserve_in, reserve_out)
        items = self.moved[before] | {item}
        self.check(items, before)
        paid, received = swap_amounts(reserve_in, reserve_out, amount, fee_bps, exact_out)
        assert self.moved.setdefault(xy(reserve_in + paid, reserve_out - received), items) == items
        return paid, received


def _leaf_of(items, reserves):
    return ValueError(f"leaf of {[f'u{i}' for i in sorted(items)]} from {reserves}")


def _raises_past_depth2(items, reserves):
    """Raises on the third swap of every path without u0's; the message
    names the swaps and the reserves they start from, so it tells the paths
    apart."""
    if len(items) == 3 and 0 not in items:
        raise _leaf_of(items, reserves)


def test_a_failing_search_raises_the_lowest_indexed_units_error(monkeypatch):
    from mevsearch.ordering import _fold

    state = mixed_state()
    sp = OrderingSpace(mempool=_alternating(5), allow_censor=True)
    # u4 tracked: the only quiet node above depth 2 is the one past u4's
    # trade, the last unit, so the units before it are the depth-2 nodes in
    # walk order, as the interleaved shares below assume.
    objective = AccountBalanceValue("u4", Valuation(primary="ETH"))
    tree, units = _units(sp, state, objective)
    ints = _compiled(tree, state, objective, sp.fee_policy())
    assert units[-1][0] == (4,) and tree.expand(units[-1][1])[2]
    monkeypatch.setattr(contracts, "swap_amounts", _SwapsOnPaths(_raises_past_depth2))
    errors = {}
    for index, (prefix, node) in enumerate(units):
        try:
            _fold(tree, state, objective, ints, tree.offers(node, prefix))
        except ValueError as e:
            errors[index] = str(e)
    first = min(errors)
    # At two processes the first failure is in the worker's share while the
    # parent's own share fails later, at a unit of its own.
    assert first % 2 == 1 and any(index % 2 == 0 for index in errors)
    assert len(set(errors.values())) == len(errors)

    _count_forks(monkeypatch)
    for workers in (1, 2, 2, 3, 3):
        with pytest.raises(ValueError) as info:
            search(sp, SearchBudget(mode="exhaustive"), objective, state, workers=workers)
        assert str(info.value) == errors[first]
        _assert_no_child_left()


def _exit_outside(pid):
    """A check that exits every process but ``pid`` without a result."""

    def check(items, reserves):
        if os.getpid() != pid:
            os._exit(3)

    return check


def test_a_worker_that_exits_without_a_result_gives_the_one_worker_report(monkeypatch):
    sp = OrderingSpace(mempool=_alternating(4))
    state = mixed_state()
    serial = search(sp, SearchBudget(mode="exhaustive"), _u0(), state)
    monkeypatch.setattr(contracts, "swap_amounts", _SwapsOnPaths(_exit_outside(os.getpid())))
    forks = _count_forks(monkeypatch)
    # The worker's empty reply sends the search back to one process.
    assert search(sp, SearchBudget(mode="exhaustive"), _u0(), state, workers=2) == serial
    assert len(forks) == 1
    _assert_no_child_left()


def _raises_at_two_leaves(items, reserves):
    """Raises one message at the 1-item leaf ``(u2,)`` and another at the
    depth-2 leaf ``(u0, u1)``; a one-worker walk reaches ``(u0, u1)``
    first."""
    if items in ({2}, {0, 1}):
        raise _leaf_of(items, reserves)


def test_a_failing_search_raises_the_one_worker_error(monkeypatch):
    state = mixed_state()
    sp = OrderingSpace(mempool=_alternating(4), allow_censor=True)
    monkeypatch.setattr(contracts, "swap_amounts", _SwapsOnPaths(_raises_at_two_leaves))
    _count_forks(monkeypatch)
    for workers in (1, 2, 3):
        with pytest.raises(ValueError, match=re.escape("leaf of ['u0', 'u1']")):
            search(sp, SearchBudget(mode="exhaustive"), _u0(), state, workers=workers)
        _assert_no_child_left()


@pytest.mark.parametrize("failing_fork", [0, 1])
def test_a_fork_that_fails_gives_the_one_worker_report(monkeypatch, failing_fork):
    state = mixed_state()
    sp = OrderingSpace(mempool=_alternating(4), allow_censor=True)
    objective = _u0()
    budget = SearchBudget(mode="exhaustive")
    serial = search(sp, budget, objective, state)
    forks = _count_forks(monkeypatch)
    counting_fork = os.fork

    def fork():
        if len(forks) == failing_fork:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork)
    assert search(sp, budget, objective, state, workers=3) == serial
    assert len(forks) == failing_fork
    _assert_no_child_left()


class _Interrupted(BaseException):
    pass


def _stall_outside(pid):
    """A check that stalls in every process but ``pid``, and then raises
    ``_Interrupted``, as it does at once in ``pid``."""

    def check(items, reserves):
        if os.getpid() != pid:
            time.sleep(60)
        raise _Interrupted

    return check


def test_the_workers_are_killed_when_the_parents_own_share_stops(monkeypatch):
    monkeypatch.setattr(contracts, "swap_amounts", _SwapsOnPaths(_stall_outside(os.getpid())))
    forks = _count_forks(monkeypatch)
    t0 = time.monotonic()
    with pytest.raises(_Interrupted):
        search(
            OrderingSpace(mempool=_alternating(4)), SearchBudget(mode="exhaustive"),
            _u0(), mixed_state(), workers=3,
        )
    assert len(forks) == 2
    assert time.monotonic() - t0 < 30
    _assert_no_child_left()


class _TwoArgumentError(Exception):
    """Pickles, but cannot be rebuilt from its ``args``: ``pickle.loads``
    calls ``__init__`` with the one formatted message."""

    def __init__(self, where, why):
        super().__init__(f"{where}: {why}")


def _refuse(in_the_parent, pid):
    """A check that raises ``_TwoArgumentError`` outside ``pid``, and in
    ``pid`` too when ``in_the_parent``."""

    def check(items, reserves):
        if in_the_parent or os.getpid() != pid:
            raise _TwoArgumentError("leaf", "refused")

    return check


def test_a_worker_failure_that_cannot_be_unpickled_gives_the_one_worker_outcome(monkeypatch):
    sp = OrderingSpace(mempool=_alternating(4))
    state = mixed_state()
    budget = SearchBudget(mode="exhaustive")
    serial = search(sp, budget, _u0(), state)
    forks = _count_forks(monkeypatch)
    # Every step fails: the exception is raised as it is at any worker count.
    monkeypatch.setattr(contracts, "swap_amounts", _SwapsOnPaths(_refuse(True, os.getpid())))
    for workers in (1, 2):
        with pytest.raises(_TwoArgumentError, match="^leaf: refused$"):
            search(sp, budget, _u0(), state, workers=workers)
        _assert_no_child_left()
    assert len(forks) == 1
    # Only the worker's steps fail: the one-process fold that follows does not.
    monkeypatch.setattr(contracts, "swap_amounts", _SwapsOnPaths(_refuse(False, os.getpid())))
    assert search(sp, budget, _u0(), state, workers=2) == serial
    assert len(forks) == 2
    _assert_no_child_left()


def test_a_tree_that_does_not_compile_folds_in_one_process(monkeypatch):
    # The DAG fold's memo pays only where it is shared, so it is never split.
    forks = _count_forks(monkeypatch)
    for state, sp, objective in list(_just_fitting_cases())[1:3]:
        tree = _Tree(sp, _FULL, objective.tracked, state.contracts)
        assert _compiled(tree, state, objective, sp.fee_policy()) is None
        assert len(_work_units(tree)[1]) > 1
        budget = SearchBudget(mode="exhaustive")
        one = search(sp, budget, objective, state)
        for workers in (2, 3, 8):
            assert search(sp, budget, objective, state, workers=workers) == one
        assert forks == []


def _spread_case(seed, n):
    scenario = make_spread_instance(seed, 2, n, n_pools=2, fee_bps=30, whale_txs=2)
    objective = AccountBalanceValue(scenario.beneficiary, scenario.get_valuation())
    return scenario.space(), scenario.initial_state(), objective


def test_only_a_tree_above_the_crossover_forks(monkeypatch):
    # Criterion 8's tree collapses to a few hundred offers, below the
    # crossover: it folds in one process at every worker count, so the
    # criterion compares like with like.  A 10-swap spread forks.
    forks = _count_forks(monkeypatch, crossover=None)
    for (seed, n), forked in (((900, 9), False), ((900, 10), True)):
        sp, state, objective = _spread_case(seed, n)
        tree = _Tree(sp, _FULL, objective.tracked, state.contracts)
        assert (tree.count_offers() > ordering.FORK_CROSSOVER) == forked
        one = search(sp, SearchBudget(mode="exhaustive"), objective, state)
        for workers in (2, 4, 8):
            del forks[:]
            assert search(sp, SearchBudget(mode="exhaustive"), objective, state, workers=workers) == one
            assert len(forks) == (workers - 1 if forked else 0)
            _assert_no_child_left()


def test_a_search_deeper_than_the_recursion_limit_is_a_scenario_error():
    message = (
        f"the search nests deeper than the recursion limit of {sys.getrecursionlimit()} "
        "frames; lower k or the number of transactions"
    )
    sc = load_scenario(DATA / "liquidation.json")
    state = sc.initial_state()
    objective = PlayerDelta.from_state(sc.player().accounts, sc.get_valuation(), state)
    assert sc.budget.mode == "exhaustive"
    with pytest.raises(ScenarioError) as info:
        search(replace(sc.space(), k=1000), sc.budget, objective, state)
    assert str(info.value) == message and info.value.__suppress_context__
    with pytest.raises(ScenarioError) as info:
        count_sequences(OrderingSpace(mempool=swaps(1_100), allow_reorder=False))
    assert str(info.value) == message


def test_importing_the_package_loads_no_process_pool():
    import mevsearch

    src = os.path.dirname(os.path.dirname(mevsearch.__file__))
    code = (
        "import sys, mevsearch\n"
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "[]"
