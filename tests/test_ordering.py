"""Enumeration, pruning, work-unit splitting, and search determinism."""

import itertools
from dataclasses import replace

from mevsearch.contracts import AmmPool
from mevsearch.metrics import AccountBalanceValue, PlayerDelta, Valuation
from mevsearch.ordering import (
    EvReport,
    OrderingSpace,
    SearchBudget,
    count_sequences,
    iter_sequences,
    search,
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
    tree = _Tree(sp, True, frozenset())
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
