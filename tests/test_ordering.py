"""Enumeration, pruning, work-unit splitting, forked workers, and search determinism."""

import itertools
import os
import re
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from mevsearch.contracts import AmmPool
from mevsearch.corpus import make_spread_instance
from mevsearch.metrics import AccountBalanceValue, PlayerDelta, Valuation
from mevsearch.ordering import (
    EvReport,
    OrderingSpace,
    SearchBudget,
    count_sequences,
    iter_sequences,
    search,
    _FULL,
    _Tree,
)
from mevsearch.state import State, Swap, Tx, apply_sequence

from conftest import pool_state, simple_pool


def swaps(n, venue="amm", token_in="BBT", actor=None):
    token_out = "ETH" if token_in == "BBT" else "BBT"
    return tuple(
        Tx(actor or f"u{i}", venue, Swap(token_in, token_out, 10 + i)) for i in range(n)
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


def test_reorder_censor_counts():
    sp = OrderingSpace(mempool=swaps(3), allow_censor=True)
    assert count_sequences(sp, pruning=False) == 16  # sum over ordered subsets


def test_same_direction_run_prunes_to_one():
    sp = OrderingSpace(mempool=swaps(3))
    assert count_sequences(sp, pruning=True) == 1


def test_all_flags_off_is_identity_only():
    sp = OrderingSpace(mempool=swaps(3), allow_reorder=False)
    assert list(iter_sequences(sp, pruning=False)) == [(0, 1, 2)]


def test_censor_only_is_subsequences():
    sp = OrderingSpace(mempool=swaps(4), allow_reorder=False, allow_censor=True)
    seqs = list(iter_sequences(sp, pruning=False))
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
    mempool = swaps(2) + (Tx("miner", "amm", Swap("BBT", "ETH", 50)),)
    sp = OrderingSpace(mempool=mempool)
    # classes are indexed by the set of user swaps before the miner's: 4
    assert count_sequences(sp, pruning=True) == 4
    assert count_sequences(sp, pruning=False) == 6


def test_tracked_actor_blocks_pruning():
    sp = OrderingSpace(mempool=swaps(3))
    # u1 tracked: classes indexed by the subset of {u0, u2} executed before it
    assert count_sequences(sp, pruning=True, tracked=frozenset({"u1"})) == 4


def _split_covers_stream(sp, state=None):
    # The work units of a parallel search: the sequences shorter than 2 items
    # from the walk cut at depth 2, plus the whole subtree under every
    # depth-2 node.  Together they must be the full stream, each sequence once.
    tree = _Tree(sp, _FULL, frozenset(), None if state is None else state.contracts)
    full = [key for key, _ in tree.walk(state)]
    units = []
    for key, _ in tree.walk(state, max_len=2):
        if len(key) < 2:
            units.append(key)
        else:
            sub = [k for k, _ in tree.walk(state, prefix=key)]
            assert all(k[:2] == key for k in sub)
            units.extend(sub)
    assert len(full) == len(set(full)) > 1
    assert sorted(units) == sorted(full)
    return tree


def test_work_units_cover_stream_exactly_once():
    tpl = (
        Tx("miner", "amm", Swap("ETH", "BBT", 5), origin="miner"),
        Tx("miner", "amm", Swap("BBT", "ETH", 5), origin="miner"),
    )
    mixed = swaps(2) + swaps(2, token_in="ETH", actor="w")
    _split_covers_stream(OrderingSpace(mempool=swaps(4), allow_censor=True))
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


def test_exact_k_block_search_same_at_any_worker_count():
    from mevsearch.metrics import MinerModel, k_mev

    state = mixed_state()
    mempool = (
        Tx("whale", "amm", Swap("BBT", "ETH", 5_000)),
        Tx("u0", "amm", Swap("ETH", "BBT", 900), arrival_block=1),
        Tx("u1", "amm", Swap("BBT", "ETH", 700)),
        Tx("u2", "amm", Swap("ETH", "BBT", 1_500), arrival_block=1),
    )
    templates = (Tx("whale", "amm", Swap("ETH", "BBT", 2_000), origin="miner"),)
    sp = OrderingSpace(mempool=mempool, templates=templates, allow_insert=True, miner="whale")
    player = MinerModel(accounts=frozenset({"whale"}))
    budget = SearchBudget(mode="exhaustive")
    reports = [
        k_mev(player, state, sp, 2, Valuation(primary="ETH"), budget, workers=w) for w in (1, 2)
    ]
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

    for pruning in (False, True):
        rep = search(sp, SearchBudget(mode="exhaustive"), objective, state, pruning=pruning, want_worst=True)
        assert rep.exhaustive
        assert rep.best_value == best
        assert rep.worst_value == worst


def test_parallel_reports_are_identical():
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
        search(sp, SearchBudget(mode="exhaustive"), objective, state, want_worst=True, workers=w)
        for w in (1, 2, 3, 4)
    ]
    assert all(r == reports[0] for r in reports[1:])


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


def test_capped_attempt_is_exact_when_the_classes_just_fit():
    state = mixed_state(pools=("amm", "amm2"))
    directions = (("ETH", "BBT"), ("BBT", "ETH"))
    mempool = tuple(
        Tx(f"u{i}", "amm" if i < 3 else "amm2", Swap(*directions[i % 2], 400 + 53 * i)) for i in range(5)
    ) + (Tx("whale", "amm", Swap("BBT", "ETH", 6_000)),)
    sp = OrderingSpace(mempool=mempool)
    objective = AccountBalanceValue("whale", Valuation(primary="ETH"))
    exact = search(sp, SearchBudget(mode="exhaustive"), objective, state, want_worst=True)
    classes = exact.paths_total
    assert classes < 720  # the sleep sets reduce the 6! orderings
    fits = SearchBudget(mode="randomized", max_paths=classes, seed=5)
    assert search(sp, fits, objective, state, want_worst=True) == exact
    over = search(sp, replace(fits, max_paths=classes - 1), objective, state, want_worst=True)
    assert not over.exhaustive and over.paths_total is None
    assert over.paths_explored == classes - 1
    assert over.worst_value >= exact.worst_value and over.best_value <= exact.best_value


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
    rep = search(sp, SearchBudget(mode="exhaustive"), objective, state, pruning=False, want_worst=True)
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
    rep = search(sp, SearchBudget(mode="exhaustive"), objective, state, pruning=False)
    assert rep.paths_explored == 2
    assert rep.best_value == 0


def test_pruning_equivalence_small_instances():
    # mini version of the acceptance criterion: pruned == unpruned extremes
    from mevsearch.corpus import pruning_corpus
    from mevsearch.metrics import value_spread

    for scenario in pruning_corpus(seed=123, count=12, max_txs=5):
        state = scenario.initial_state()
        space = scenario.space()
        valuation = scenario.get_valuation()
        objective = AccountBalanceValue(scenario.beneficiary, valuation)
        pruned = search(space, SearchBudget(mode="exhaustive"), objective, state, pruning=True, want_worst=True)
        full = search(space, SearchBudget(mode="exhaustive"), objective, state, pruning=False, want_worst=True)
        assert pruned.best_value == full.best_value
        assert pruned.worst_value == full.worst_value
        assert pruned.paths_explored <= full.paths_explored


def test_sampler_stops_after_a_run_of_duplicate_draws(monkeypatch):
    import random
    from types import SimpleNamespace

    from mevsearch import ordering

    draws = []

    class CountingRandom(random.Random):
        def shuffle(self, x):
            draws.append(len(x))
            super().shuffle(x)

    monkeypatch.setattr(ordering, "random", SimpleNamespace(Random=CountingRandom))
    # reorder off, censor off: the identity is the only ordering
    sp = OrderingSpace(mempool=swaps(10), allow_reorder=False)
    objective = AccountBalanceValue("u0", Valuation(primary="ETH"))
    budget = SearchBudget(mode="randomized", max_paths=10_000, tractability_threshold=0)
    rep = search(sp, budget, objective, mixed_state(10))
    assert not rep.exhaustive and rep.paths_explored == 1
    assert len(draws) == ordering.MAX_DUPLICATE_RUN


# -- forked workers ------------------------------------------------------------

def _count_forks(monkeypatch, cpus=8):
    """Let ``cpus`` CPUs be usable, and record the pid of every worker that
    ``os.fork`` starts from this process."""
    from mevsearch import ordering

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
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _units(sp, state, objective):
    tree = _Tree(sp, _FULL, objective.tracked, state.contracts)
    return tree, [key for key, _ in tree.walk(state, max_len=2) if len(key) == 2]


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
            sp, SearchBudget(mode="exhaustive"), objective, state, want_worst=True, workers=workers
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
    """Swaps on one pool in alternating directions: no two of them commute."""
    return tuple(
        Tx(f"u{i}", "amm", Swap("BBT" if i % 2 else "ETH", "ETH" if i % 2 else "BBT", 300 + 41 * i))
        for i in range(n)
    )


class _RaisesPastDepth2:
    """Raises at every leaf that applied 3 or more swaps, none of them u0's;
    the message names the balances the leaf moved, so it tells leaves
    apart."""

    tracked = frozenset()

    def __init__(self, state):
        self.initial = state.balances

    def value(self, state):
        moved = sorted(
            (key, amount) for key, amount in state.balances.items() if self.initial[key] != amount
        )
        actors = {actor for (actor, _), _ in moved}
        if len(actors) >= 3 and "u0" not in actors:
            raise ValueError(f"leaf moved {moved}")
        return 0


def test_a_failing_search_raises_the_lowest_indexed_units_error(monkeypatch):
    from mevsearch.ordering import _fold_walk

    state = mixed_state()
    sp = OrderingSpace(mempool=_alternating(5), allow_censor=True)
    objective = _RaisesPastDepth2(state)
    tree, units = _units(sp, state, objective)
    errors = {}
    for index, unit in enumerate(units):
        try:
            _fold_walk(tree.walk(state, unit), objective)
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


class _ExitsOutsideTheTestProcess:
    tracked = frozenset()

    def __init__(self):
        self.pid = os.getpid()

    def value(self, state):
        if os.getpid() != self.pid:
            os._exit(3)
        return 0


def test_a_worker_that_exits_without_a_result_is_a_one_line_error(monkeypatch):
    forks = _count_forks(monkeypatch)
    with pytest.raises(RuntimeError) as info:
        search(
            OrderingSpace(mempool=_alternating(4)), SearchBudget(mode="exhaustive"),
            _ExitsOutsideTheTestProcess(), mixed_state(), workers=2,
        )
    assert len(forks) == 1
    assert re.fullmatch(
        r"search worker \d+ exited with status 3 without sending its result", str(info.value)
    )
    _assert_no_child_left()


class _Interrupted(BaseException):
    pass


class _StallsOutsideTheTestProcess(_ExitsOutsideTheTestProcess):
    def value(self, state):
        if os.getpid() != self.pid:
            time.sleep(60)
        raise _Interrupted


def test_the_workers_are_killed_when_the_parents_own_share_stops(monkeypatch):
    forks = _count_forks(monkeypatch)
    t0 = time.monotonic()
    with pytest.raises(_Interrupted):
        search(
            OrderingSpace(mempool=_alternating(4)), SearchBudget(mode="exhaustive"),
            _StallsOutsideTheTestProcess(), mixed_state(), workers=3,
        )
    assert len(forks) == 2
    assert time.monotonic() - t0 < 30
    _assert_no_child_left()


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
