"""Footprint sleep sets: soundness, the leaf set, and pruned-vs-unpruned reports.

The sleep-set reduction keeps one construction per class of orderings that
differ only by swapping adjacent independent items, the lexicographically
smallest one.  These tests check the reduction three ways: every pair the
static footprints call independent commutes bit for bit from reachable
states, and every pair of identical swaps commutes but for its two actors'
balances; the reduced walk's keys are exactly the lexicographic normal forms
of the unreduced keys, with and without identical swaps; and on a corpus
mixing pools, a CDP book, a price bet, fees, censoring, insertion, fixed
order and two blocks, and on one of pools with liquidity adds and removes,
reduced and unreduced search agree on every report field but the path
counts.  Identical trades collapse on repeated-trade instances, fees paid
or not, without changing a report; a run of two distinct trades, whose
order moves a tracked trade's output by a wei of rounding, is walked in both
orders; and the walks with and without a state prune alike.

The sampler evaluates only the objective's slice of each sample, sharing
prefixes in sorted order.  On the same corpus, and on two-pool spreads where
the beneficiary trades one pool, every sampled report equals the one of an
evaluator that replays each sample whole.

Swap-only trees fold on ints.  On the pruning corpus, seeded one- to
three-pool spreads, and a space that meets every swap outcome, the compiled
fold's best, worst and path count equal those of the same fold on the
``State`` path, exhaustive and sampled, for both objectives; outside its
conditions the kernel is not taken.

Every tree counts from its context table as many constructions as its walk
yields, under each reduction, at one to three blocks.  On the mixed corpus,
three-block spreads, the demo scenarios, spaces whose two orderings
leave equal balances but different contracts, a price bet and a CDP book
on one pool before and after the bet is deployed, and a claim whose states
before and after a block break differ only in their block, the fold over
(context, state) pairs gives the key-driven fold's best, worst, witnesses
and path count, and raises the same error; an item that raises only where
no construction lies is never applied.

Every exact fold collapses quiet suffixes.  On that corpus, and on a space
whose fee payer is untracked but pays the tracked miner, the reduced search
gives the unreduced one's report, path counts aside, or raises its error.
Each fold applies each key only up to the first context where nothing
placeable touches a tracked balance or may raise, derived here from the
footprints: the compiled fold one swap step per prefix of those paths, the
fold over (context, state) pairs one step per distinct (state, item) pair
and one objective call per distinct state that a path reaches.
"""

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

from mevsearch import contracts, ordering
from mevsearch.compose import build_pricebet_scenario
from mevsearch.contracts import AmmPool, MakerBook, Pricebet
from mevsearch.corpus import convergence_corpus, make_spread_instance, measure_convergence
from mevsearch.metrics import AccountBalanceValue, PlayerDelta, Valuation, value_spread
from mevsearch.ordering import (
    _FULL,
    _RUN,
    _SLEEP,
    BLOCK_BREAK,
    OrderingSpace,
    SearchBudget,
    _Tree,
    _sample_sequences,
    count_sequences,
    search,
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
    UnknownVenueError,
    apply_sequence,
    apply_tx,
)

from conftest import VALUATION, mixed_instance, pruning_corpus, unpruned_search

EXH = SearchBudget(mode="exhaustive")
# (reorder, censor, insert, k): every combination, the hardest one first.
FLAGS = list(itertools.product((False, True), (True, False), (True, False), (2, 1)))


def differential_corpus():
    return [
        mixed_instance(1_000 + i, *flags, fees=i < len(FLAGS)) for i, flags in enumerate(FLAGS * 2)
    ]


def identical_trades_instance(seed: int, reorder: bool, censor: bool, k: int, fees: bool):
    """Two pools and a mempool of five swaps drawn from three trades, so
    that identical trades repeat, plus a miner swap template.

    Each actor trades once and holds either enough or too little of what it
    sells.  With k = 2 the last transaction arrives in the second block;
    with fees some actors cannot pay theirs.
    """
    rng = random.Random(seed)
    state = State(
        {
            **{(f"u{i}", tok): rng.choice((30, 400)) for i in range(5) for tok in ("ETH", "TKN")},
            ("miner", "ETH"): 200,
        },
        {
            "pool0": AmmPool("TKN", "ETH", rng.randint(900, 1_100), rng.randint(900, 1_100),
                             fee_bps=rng.choice([0, 30])),
            "pool1": AmmPool("TKN", "ETH", rng.randint(900, 1_100), rng.randint(900, 1_100),
                             fee_bps=rng.choice([0, 30])),
        },
        0,
    )
    trades = [
        (rng.choice(("pool0", "pool1")), *rng.choice((("TKN", "ETH"), ("ETH", "TKN"))),
         rng.choice((50, 120)))
        for _ in range(3)
    ]
    actors = [f"u{i}" for i in range(5)]
    rng.shuffle(actors)
    # The first two actors make the same trade.
    picks = [trades[0], trades[0]] + [rng.choice(trades) for _ in range(3)]
    mempool = tuple(
        Tx(actor, venue, Swap(token_in, token_out, amount),
           fee=rng.choice((0, 1, 5)) if fees else 0, arrival_block=int(k == 2 and i == 4))
        for i, (actor, (venue, token_in, token_out, amount)) in enumerate(zip(actors, picks))
    )
    space = OrderingSpace(
        mempool=mempool,
        templates=(Tx("miner", "pool0", Swap("ETH", "TKN", 60), origin="miner"),),
        allow_reorder=reorder,
        allow_censor=censor,
        allow_insert=True,
        k=k,
        charge_fees=fees,
        fee_token="ETH",
    )
    return state, space


# (reorder, censor, k, fees) of the identical-trades instances.
IDENTICAL_FLAGS = list(itertools.product((True, False), (True, False), (1, 2), (False, True)))


def identical_trades_tracked(i: int) -> frozenset[str]:
    """The accounts the ``i``-th identical-trades case tracks: one user, and
    the miner when the case pays fees."""
    return frozenset({"miner", f"u{i % 5}"}) if i % 2 else frozenset({f"u{i % 5}"})


def _step(state, tx, fee_policy):
    try:
        nxt = apply_tx(state, tx, fee_policy)
    except UnknownVenueError:
        nxt = None
    return state if nxt is None else nxt


def test_independent_items_commute_bit_for_bit():
    checked = 0
    for seed, (state, space) in enumerate(differential_corpus()):
        tree = _Tree(space, _SLEEP, frozenset(), state.contracts)
        items, fee_policy = tree.items, tree.space.fee_policy()
        rng = random.Random(seed)
        for _ in range(4):
            # a state reached by a random prefix of the items
            st = state
            for i in rng.sample(range(len(items)), rng.randint(0, len(items))):
                st = _step(st, items[i], fee_policy)
            for i, j in itertools.combinations(range(len(items)), 2):
                if tree.indep[i] >> j & 1:
                    ij = _step(_step(st, items[i], fee_policy), items[j], fee_policy)
                    ji = _step(_step(st, items[j], fee_policy), items[i], fee_policy)
                    assert ij == ji, (seed, items[i], items[j])
                    checked += 1
    assert checked > 100


def test_identical_swaps_commute_but_for_their_actors_balances():
    checked = moved = 0
    for i, flags in enumerate(IDENTICAL_FLAGS):
        for seed in range(4_000 + 10 * i, 4_010 + 10 * i):
            state, space = identical_trades_instance(seed, *flags)
            tree = _Tree(space, _RUN, identical_trades_tracked(i), state.contracts)
            items, fee_policy = tree.items, tree.space.fee_policy()
            pairs = [(a, b) for a, b in itertools.combinations(range(len(items)), 2)
                     if tree.indep[a] >> b & 1]
            rng = random.Random(seed)
            for _ in range(4):
                # a state reached by a random prefix of the other items
                prefix = rng.sample(range(len(items)), rng.randint(0, len(items)))
                st = state
                for j in prefix:
                    st = _step(st, items[j], fee_policy)
                for a, b in pairs:
                    if a in prefix or b in prefix:
                        continue
                    ab = _step(_step(st, items[a], fee_policy), items[b], fee_policy)
                    ba = _step(_step(st, items[b], fee_policy), items[a], fee_policy)
                    actors = {items[a].actor, items[b].actor}
                    assert (ab.contracts, ab.block_number) == (ba.contracts, ba.block_number)
                    assert {k: v for k, v in ab.balances.items() if k[0] not in actors} == {
                        k: v for k, v in ba.balances.items() if k[0] not in actors
                    }, (seed, items[a], items[b])
                    checked += 1
                    moved += ab != ba
    assert checked > 100
    # the actors' outputs do trade places, so the exception is needed
    assert moved > 0


def liquidity_instance(seed: int, censor: bool):
    """Two pools whose LP shares three accounts hold, and a mempool of five
    transactions drawn from swaps, adds and removes on either pool."""
    rng = random.Random(seed)
    lps = ("u0", "u1", "u2")

    def pool(token):
        shares = {u: rng.randint(100, 400) for u in lps}
        return AmmPool(token, "ETH", rng.randint(2_000, 4_000), rng.randint(1_000, 2_000),
                       fee_bps=rng.choice([0, 30]), lp_total=sum(shares.values()),
                       lp_shares=shares)

    state = State(
        {(u, tok): 600 for u in lps for tok in ("ETH", "DAI", "TKN")},
        {"pool0": pool("DAI"), "pool1": pool("TKN")},
        0,
    )

    def draw():
        actor = rng.choice(lps)
        venue = rng.choice(("pool0", "pool1"))
        other = "DAI" if venue == "pool0" else "TKN"
        kind = rng.randrange(3)
        if kind == 0:
            token_in, token_out = rng.choice(((other, "ETH"), ("ETH", other)))
            action = Swap(token_in, token_out, rng.randint(20, 300))
        elif kind == 1:
            action = AddLiquidity(rng.randint(10, 400), rng.randint(10, 300))
        else:
            action = RemoveLiquidity(rng.randint(10, 250))
        return Tx(actor, venue, action)

    space = OrderingSpace(mempool=tuple(draw() for _ in range(5)), allow_censor=censor)
    return state, space


def test_liquidity_actions_commute_and_reduce_losslessly():
    reduced_total = full_total = liquidity_pairs = 0
    for seed in range(12):
        for censor in (True, False):
            state, space = liquidity_instance(3_000 + seed, censor)
            tree = _Tree(space, _FULL, frozenset(), state.contracts)
            items = tree.items
            rng = random.Random(seed)
            for _ in range(4):
                st = state
                for i in rng.sample(range(len(items)), rng.randint(0, len(items))):
                    st = _step(st, items[i], None)
                for i, j in itertools.combinations(range(len(items)), 2):
                    if tree.indep[i] >> j & 1:
                        ij = _step(_step(st, items[i], None), items[j], None)
                        ji = _step(_step(st, items[j], None), items[i], None)
                        assert ij == ji, (seed, items[i], items[j])
                        liquidity_pairs += type(items[i].action) is not Swap or type(
                            items[j].action
                        ) is not Swap
            objective = PlayerDelta.from_state(frozenset({"u0"}), VALUATION, state)
            reduced = search(space, EXH, objective, state)
            full = unpruned_search(space, EXH, objective, state)
            assert replace(reduced, paths_explored=0, paths_total=0) == replace(
                full, paths_explored=0, paths_total=0
            ), (seed, censor)
            reduced_total += reduced.paths_explored
            full_total += full.paths_explored
    assert liquidity_pairs > 0
    assert reduced_total < full_total


def test_a_contract_type_with_no_footprint_branch_depends_on_everything(monkeypatch):
    @dataclass(frozen=True)
    class Vault:
        pass

    def deposit(state, tx, vault):
        if state.balances.get((tx.actor, "ETH"), 0) < 10:
            return None
        return state.settle(((tx.actor, "ETH", -10), ("vault", "ETH", 10)))

    monkeypatch.setitem(contracts._EXECUTORS, Vault, {Bet: deposit})
    pool = AmmPool("TKN", "ETH", 1_000, 1_000, fee_bps=0)
    state = State({("u", "ETH"): 15}, {"vault": Vault(), "pool": pool}, 0)
    into_vault = Tx("u", "vault", Bet())
    buy = Tx("u", "pool", Swap("ETH", "TKN", 10))
    # the two spend the same ETH, so only one of them succeeds
    assert _step(_step(state, into_vault, None), buy, None) != _step(
        _step(state, buy, None), into_vault, None
    )
    tree = _Tree(OrderingSpace(mempool=(into_vault, buy)), _FULL, frozenset(), state.contracts)
    assert not tree.indep[0] >> 1 & 1 and not tree.indep[1] >> 0 & 1


def test_footprints_follow_what_each_action_reads_and_writes():
    state, _ = mixed_instance(0, True, False, True, 1, False)
    mempool = (
        Tx("u0", "pool0", Swap("DAI", "ETH", 10)),  # 0
        Tx("u1", "pool1", Swap("TKN", "ETH", 10)),  # 1: other pool, other actor
        Tx("u0", "pool1", Swap("TKN", "ETH", 10)),  # 2: shares u0's ETH with 0
        Tx("v", "book", CdpManipulate("withdraw_loan", 5)),  # 3: reads pool0's price
        Tx("p", "bet", GetReward()),  # 4: reads pool1, the oracle
        Tx("p", "bet", Bet()),  # 5: same bet as 4
        Tx("u2", "nowhere", Swap("DAI", "ETH", 10)),  # 6: unknown venue
    )
    templates = (Tx("miner", "book", Liquidate("v"), origin="miner"),)  # 7
    space = OrderingSpace(mempool=mempool, templates=templates, allow_insert=True)
    tree = _Tree(space, _FULL, frozenset(), state.contracts)

    def independent(i, j):
        assert (tree.indep[i] >> j & 1) == (tree.indep[j] >> i & 1)
        return bool(tree.indep[i] >> j & 1)

    assert independent(0, 1) and not independent(0, 2)
    assert not independent(3, 0) and independent(3, 1)
    assert not independent(4, 1) and not independent(4, 2) and independent(4, 0)
    assert not independent(4, 5)
    assert not independent(7, 3) and not independent(7, 0) and independent(7, 1)
    assert all(independent(6, j) for j in range(8) if j != 6)
    # fees: every fee payer touches the collector's fee-token balance
    charged = replace(
        space, mempool=tuple(replace(tx, fee=1) for tx in mempool), charge_fees=True,
        fee_token="ETH",
    )
    tree = _Tree(charged, _FULL, frozenset(), state.contracts)
    assert not any(independent(i, j) for i, j in itertools.combinations(range(6), 2))
    assert not independent(7, 1)
    # fixed order: two mempool items never change places
    tree = _Tree(replace(space, allow_reorder=False), _FULL, frozenset(), state.contracts)
    assert not independent(0, 1) and independent(7, 1)
    # no contracts to read the tokens from: only swaps have footprints
    tree = _Tree(space, _FULL, frozenset(), None)
    assert independent(0, 1) and not independent(3, 1) and not independent(7, 1)


def _normal_forms(keys, indep):
    """The lexicographically smallest key of each class of ``keys`` under
    swaps of adjacent independent items, by brute force."""
    forms = set()
    for key in keys:
        seen = {key}
        todo = [key]
        while todo:
            cur = todo.pop()
            for p in range(len(cur) - 1):
                a, b = cur[p], cur[p + 1]
                if a != BLOCK_BREAK and b != BLOCK_BREAK and indep[a] >> b & 1:
                    nxt = cur[:p] + (b, a) + cur[p + 2:]
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
        forms.add(min(seen))
    return forms


def _oracle_spaces():
    # Two pools with fees of 30 bps.
    spread = make_spread_instance(3, 1, 5, n_pools=2, fee_bps=30, whale_txs=1)
    yield spread.initial_state(), spread.space(), frozenset()
    yield spread.initial_state(), replace(spread.space(), allow_censor=True), frozenset()
    # The mixed instances, every actor tracked.
    for seed, flags in enumerate(FLAGS[::3]):
        state, space = mixed_instance(2_000 + seed, *flags, fees=seed % 2 == 0)
        actors = frozenset(tx.actor for tx in space.mempool + space.templates)
        yield state, space, actors


def _oracle_cases():
    """(state, space, tracked, reduction): the spaces above under ``_FULL``
    and then ``_RUN``, and the identical-trades cases, whose actors are
    untracked but for one user, under both."""
    spaces = list(_oracle_spaces())
    for reduction in (_FULL, _RUN):
        for case in spaces:
            yield *case, reduction
    for i, flags in enumerate(IDENTICAL_FLAGS):
        case = *identical_trades_instance(4_000 + i, *flags), identical_trades_tracked(i)
        for reduction in (_RUN, _FULL):
            yield *case, reduction


@pytest.mark.parametrize("case", range(len(list(_oracle_cases()))))
def test_reduced_walk_keeps_exactly_the_lexicographic_normal_forms(case):
    state, space, tracked, reduction = list(_oracle_cases())[case]
    unreduced_keys = list(_Tree(space, 0, tracked, state.contracts).walk())
    reduced = _Tree(space, reduction, tracked, state.contracts)
    reduced_keys = list(reduced.walk())
    assert len(reduced_keys) == len(set(reduced_keys))
    assert set(reduced_keys) == _normal_forms(unreduced_keys, reduced.indep)
    if case == 0:
        assert len(reduced_keys) < len(unreduced_keys)


def test_reduced_and_unreduced_search_agree_on_the_mixed_corpus():
    reduced_total = full_total = 0
    for i, (state, space) in enumerate(differential_corpus()):
        if i % 2:
            objective = PlayerDelta.from_state(frozenset({"miner"}), VALUATION, state)
        else:
            objective = AccountBalanceValue("p" if i % 4 else "u0", VALUATION)
        reduced = search(space, EXH, objective, state)
        full = unpruned_search(space, EXH, objective, state)
        assert replace(reduced, paths_explored=0, paths_total=0) == replace(
            full, paths_explored=0, paths_total=0
        ), (i, space)
        assert reduced.paths_explored <= full.paths_explored
        reduced_total += reduced.paths_explored
        full_total += full.paths_explored
        if i == 0:
            assert space.k == 2 and space.allow_censor and space.allow_insert
            assert not space.allow_reorder and space.charge_fees
            assert search(
                space, EXH, objective, state, workers=2
            ) == reduced
    assert reduced_total < full_total


def test_identical_trades_collapse_without_changing_the_report():
    collapsed = 0
    for i, flags in enumerate(IDENTICAL_FLAGS):
        state, space = identical_trades_instance(4_000 + i, *flags)
        if i % 2:
            objective = PlayerDelta.from_state(identical_trades_tracked(i), VALUATION, state)
        else:
            objective = AccountBalanceValue(f"u{i % 5}", VALUATION)
        reduced = search(space, EXH, objective, state)
        full = unpruned_search(space, EXH, objective, state)
        assert replace(reduced, paths_explored=0, paths_total=0) == replace(
            full, paths_explored=0, paths_total=0
        ), (i, space)
        sleep_only = _Tree(space, _SLEEP, objective.tracked, state.contracts)
        collapsed += sum(1 for _ in sleep_only.walk()) - reduced.paths_explored
    assert collapsed > 0


def test_fee_paying_identical_swaps_prune_without_changing_the_report():
    reduced_total = full_total = 0
    for i, flags in enumerate(IDENTICAL_FLAGS):
        if not flags[3]:
            continue
        for seed in range(4_100 + 10 * i, 4_103 + 10 * i):
            state, space = identical_trades_instance(seed, *flags)
            for objective in (
                PlayerDelta.from_state(frozenset({"miner"}), VALUATION, state),
                AccountBalanceValue(f"u{seed % 5}", VALUATION),
            ):
                reduced = search(space, EXH, objective, state)
                full = unpruned_search(space, EXH, objective, state)
                assert replace(reduced, paths_explored=0, paths_total=0) == replace(
                    full, paths_explored=0, paths_total=0
                ), (seed, flags)
                reduced_total += reduced.paths_explored
                full_total += full.paths_explored
    assert reduced_total < full_total
    # Items 0 and 1 are identical pool1 swaps and only item 0 pays a fee:
    # their footprints meet at the miner's fee balance, yet they commute, so
    # (2, 0, 1) and (1, 2, 0) are one class.
    state, space = identical_trades_instance(4_257, True, True, 1, True)
    assert space.mempool[0].action == space.mempool[1].action
    assert space.mempool[0].fee != space.mempool[1].fee
    tree = _Tree(space, _FULL, frozenset({"miner"}), state.contracts)
    assert sum(1 for _ in tree.walk()) == 777


# _FULL key counts of the fee-free identical-trades cases (IDENTICAL_FLAGS[0::2]).
FEE_FREE_IDENTICAL_KEYS = (472, 2512, 62, 428, 64, 748, 5, 90)


def test_fee_free_identical_trades_walk_the_same_keys():
    got = tuple(
        sum(1 for _ in _Tree(space, _FULL, identical_trades_tracked(i), state.contracts).walk())
        for i, flags in enumerate(IDENTICAL_FLAGS)
        if not flags[3]
        for state, space in [identical_trades_instance(4_000 + i, *flags)]
    )
    assert got == FEE_FREE_IDENTICAL_KEYS


# (TKN reserve, ETH reserve, first sale, second sale, whale sale): after the
# two sales in either order the TKN reserve is the same and the ETH reserves
# differ by one wei, which moves the whale's output by one.
ROUNDING_RUNS = (
    (924, 1_024, 23, 52, 1_355),
    (1_010, 1_055, 20, 43, 956),
    (959, 1_073, 48, 73, 970),
)


@pytest.mark.parametrize("censor", (False, True))
@pytest.mark.parametrize("pool", ROUNDING_RUNS)
def test_a_run_of_distinct_trades_is_walked_in_both_orders(pool, censor):
    rx, ry, first, second, whale_sells = pool
    # Either account may hold the larger sale, so one of the two mempools
    # puts the worse run order against the index order.
    for a, b in ((first, second), (second, first)):
        state = State(
            {("u0", "TKN"): a, ("u1", "TKN"): b, ("whale", "TKN"): whale_sells},
            {"amm": AmmPool("TKN", "ETH", rx, ry, fee_bps=30)},
            0,
        )
        mempool = (
            Tx("u0", "amm", Swap("TKN", "ETH", a)),
            Tx("u1", "amm", Swap("TKN", "ETH", b)),
            Tx("whale", "amm", Swap("TKN", "ETH", whale_sells)),
        )
        space = OrderingSpace(mempool=mempool, allow_reorder=True, allow_censor=censor)
        objective = AccountBalanceValue("whale", VALUATION)
        u0_first, u1_first = (
            objective.value(apply_sequence(state, [mempool[i] for i in order]).state)
            for order in ((0, 1, 2), (1, 0, 2))
        )
        assert u0_first != u1_first
        reduced = search(space, EXH, objective, state)
        full = unpruned_search(space, EXH, objective, state)
        assert replace(reduced, paths_explored=0, paths_total=0) == replace(
            full, paths_explored=0, paths_total=0
        ), (pool, a, b)


@pytest.mark.parametrize("u4_buys", [11_000, 9_000])
def test_the_walk_prunes_alike_with_and_without_a_state(u4_buys):
    # Demo 02's pool and mempool, with u4 buying as much as u2 (9,000) or not.
    state = State(
        {("whale", "TKN"): 50_000, ("u1", "ETH"): 30_000, ("u2", "ETH"): 9_000,
         ("u3", "TKN"): 14_000, ("u4", "ETH"): 11_000},
        {"amm": AmmPool("TKN", "ETH", 1_000_000, 1_000_000, fee_bps=30)},
        0,
    )
    mempool = (
        Tx("whale", "amm", Swap("TKN", "ETH", 50_000)),
        Tx("u1", "amm", Swap("ETH", "TKN", 30_000)),
        Tx("u2", "amm", Swap("ETH", "TKN", 9_000)),
        Tx("u3", "amm", Swap("TKN", "ETH", 14_000)),
        Tx("u4", "amm", Swap("ETH", "TKN", u4_buys)),
    )
    objective = AccountBalanceValue("whale", Valuation(primary="ETH"))
    for reorder, censor in ((False, False), (True, False), (True, True)):
        space = OrderingSpace(mempool=mempool, allow_reorder=reorder, allow_censor=censor)
        stateless = count_sequences(space, pruning=True, tracked=objective.tracked)
        assert search(space, EXH, objective, state).paths_explored == stateless


def test_insertion_skeletons_reduce_on_two_pools():
    pool = AmmPool("TKN", "ETH", 10_000, 10_000, fee_bps=30)
    state = State({("u0", "TKN"): 500, ("u1", "TKN"): 500}, {"a": pool, "b": pool}, 0)
    space = OrderingSpace(
        mempool=(Tx("u0", "a", Swap("TKN", "ETH", 300)), Tx("u1", "b", Swap("TKN", "ETH", 200))),
        templates=(Tx("miner", "a", Swap("ETH", "TKN", None), origin="miner"),),
        allow_insert=True,
    )
    # m0 and m1 commute, and so do m1 and the template on pool a
    assert count_sequences(space, pruning=False) == 8
    assert count_sequences(space, pruning=True) == 3
    tree = _Tree(space, _SLEEP, frozenset({"miner"}), state.contracts)
    assert list(tree.walk()) == [(0, 1), (0, 1, 2), (1, 2, 0)]


# Criterion 4's first ten points, as the run rule alone counts the paths.
CONVERGENCE_POINTS = (
    (40320, 403, 69878639771512354664, 69878639771512354664),
    (40320, 403, 52257789094494040518, 52257335714319935297),
    (35280, 352, 40720969433191467428, 40720969433191467428),
    (5040, 50, 5637676672843875848, 5637676003627973260),
    (5040, 50, 13347339350018046561, 13346967435757172938),
    (362880, 3628, 9532350935625353341, 9532350935625353341),
    (5040, 50, 7766893793711783164, 7766893793711783164),
    (5040, 50, 18409987349122606640, 16160863379114271987),
    (40320, 403, 31219552526242206129, 31219552526242206129),
    (35280, 352, 28937300163704751028, 28937300163704751028),
)


def test_convergence_budget_is_sized_by_the_run_rule_count():
    result = measure_convergence(convergence_corpus(seed=0, count=10), seed=0)
    got = tuple(
        (p.paths_total, p.paths_sampled, p.exhaustive_spread, p.sampled_spread)
        for p in result.points
    )
    assert got == CONVERGENCE_POINTS


def test_a_convergence_instance_without_a_beneficiary_is_a_scenario_error():
    instances = convergence_corpus(seed=0, count=2)
    instances[1] = replace(instances[1], beneficiary=None)
    with pytest.raises(ScenarioError, match="^convergence instance 1 has no beneficiary$"):
        measure_convergence(instances, seed=0)


# ---------------------------------------------------------------------------
# The fold builds states only along paths to a construction
# ---------------------------------------------------------------------------

def _dead_cut_spread():
    scenario = make_spread_instance(1, 0, 7)
    objective = AccountBalanceValue(scenario.beneficiary, scenario.get_valuation())
    return scenario.initial_state(), scenario.space(), objective


def _differential_case(index, account=None):
    state, space = differential_corpus()[index]
    return state, space, AccountBalanceValue(account or ("p" if index % 4 else "u0"), VALUATION)


def _count_steps(monkeypatch):
    """Lists that collect every ``ordering.apply_tx`` call (a step on the
    ``State`` path) and every ``contracts.swap_amounts`` call (a step of the
    integer kernel, and every swap that ``apply_tx`` prices)."""
    calls, swaps = [], []
    real_apply_tx, real_swap_amounts = ordering.apply_tx, contracts.swap_amounts

    def counting_apply_tx(st, tx, fee_policy=None):
        calls.append(tx)
        return real_apply_tx(st, tx, fee_policy)

    def counting_swap_amounts(*args):
        swaps.append(args)
        return real_swap_amounts(*args)

    monkeypatch.setattr(ordering, "apply_tx", counting_apply_tx)
    monkeypatch.setattr(contracts, "swap_amounts", counting_swap_amounts)
    return calls, swaps


def _deadline_claim():
    """k = 2: u0's trade wins the miner's bet, whose deadline is the start
    block, and the miner may claim it in either block; u1 trades at another
    pool.  After u0's trade the claim pays in block 0 and fails in block 1,
    from the same balances and contracts: only the block number tells the
    two states apart."""
    oracle = AmmPool("TKN", "ETH", 900, 1_000, fee_bps=0)
    other = AmmPool("DAI", "ETH", 1_000, 1_000, fee_bps=0)
    bet = Pricebet("oracle", "TKN", deadline=0, pot=200, has_bet=True, player="miner")
    state = State(
        {("u0", "TKN"): 300, ("u1", "ETH"): 50},
        {"oracle": oracle, "pool1": other, "bet": bet},
        0,
    )
    space = OrderingSpace(
        mempool=(
            Tx("u0", "oracle", Swap("TKN", "ETH", 300)),
            Tx("u1", "pool1", Swap("ETH", "DAI", 50)),
        ),
        templates=(Tx("miner", "bet", GetReward(), origin="miner"),),
        allow_insert=True,
        k=2,
    )
    return state, space, AccountBalanceValue("miner", VALUATION)


def _collateral_deposits():
    """Three actors deposit collateral into one CDP book, under censoring.
    The deposits depend on each other through the book, so every order is
    walked, and u0's and u1's in either order leave the book's collateral
    dict with the same items in another insertion order.  Only p's balance
    is tracked, so every path runs on to p's deposit."""
    state = State(
        {("u0", "ETH"): 10, ("u1", "ETH"): 20, ("p", "ETH"): 30},
        {"pool": AmmPool("DAI", "ETH", 1_000, 1_000), "book": MakerBook("DAI", "ETH", "pool")},
        0,
    )
    space = OrderingSpace(
        mempool=tuple(
            Tx(actor, "book", CdpManipulate("deposit_collateral", qty))
            for actor, qty in (("u0", 10), ("u1", 20), ("p", 30))
        ),
        allow_censor=True,
    )
    return state, space, AccountBalanceValue("p", VALUATION)


def _replayed(state, items, key, fee_policy):
    """The state that ``key`` reaches from ``state``: each block replayed
    whole by ``apply_sequence`` in skip-invalid mode, each ``BLOCK_BREAK``
    advancing the block number."""
    blocks = [[]]
    for i in key:
        if i == BLOCK_BREAK:
            blocks.append([])
        else:
            blocks[-1].append(items[i])
    for b, txs in enumerate(blocks):
        if b:
            state = state.with_block(state.block_number + 1)
        state = apply_sequence(state, txs, "skip_invalid", fee_policy).state
    return state


def _quiet_after(state, space, tracked):
    """A predicate on key prefixes of a space with reordering on: can
    nothing still placeable after the prefix touch a ``tracked`` balance or
    raise?  The
    placeable items are the mempool items the prefix has not placed, the
    templates it has not placed in its last block when inserting, and every
    template while a block follows."""
    tree = _Tree(space, 0, tracked, state.contracts)
    items, n_mem, deployed = tree.items, len(tree.items) - len(tree.templates), state.contracts

    def loud(tx):
        prints = ordering._footprint(tx, deployed, space)
        return (
            prints is None
            or any(type(key) is tuple and key[0] in tracked for key in prints)
            or ordering._may_raise(tx, deployed)
        )

    def quiet(prefix):
        block = prefix.count(BLOCK_BREAK)
        last = prefix[len(prefix) - prefix[::-1].index(BLOCK_BREAK):] if block else prefix
        placeable = [i for i in range(n_mem) if i not in prefix]
        if space.allow_insert:
            placeable += [i for i in tree.templates if block < space.k - 1 or i not in last]
        return not any(loud(items[i]) for i in placeable)

    return quiet


def _distinct(values):
    """How many distinct values, compared by ``==``: a ``State`` does not
    hash."""
    seen = []
    for value in values:
        if value not in seen:
            seen.append(value)
    return len(seen)


@pytest.mark.parametrize(
    "case, censor_and_k, compiles",
    [
        (_dead_cut_spread, (False, 1), True),
        (lambda: _differential_case(11), (True, 1), False),
        # No item of case 14 reaches p, but one pays the miner a fee.
        (lambda: _differential_case(14, "miner"), (False, 2), False),
        (_deadline_claim, (False, 2), False),
        (_collateral_deposits, (True, 1), False),
    ],
    ids=["dead_cut_spread", "censor", "k2", "deadline", "deposits"],
)
def test_an_exhaustive_search_applies_each_prefix_of_its_keys_once(
    monkeypatch, case, censor_and_k, compiles
):
    state, space, objective = case()
    assert (space.allow_censor, space.k, space.allow_reorder) == (*censor_and_k, True)
    tree = _Tree(space, _FULL, objective.tracked, state.contracts)
    keys = list(tree.walk())
    # Each key is applied up to its first quiet context: every construction
    # past it has the value of the state there.
    quiet = _quiet_after(state, space, objective.tracked)
    paths = {next(key[:d] for d in range(len(key) + 1) if d == len(key) or quiet(key[:d]))
             for key in keys}
    prefixes = {
        path[:d] for path in paths for d in range(1, len(path) + 1) if path[d - 1] != BLOCK_BREAK
    }
    # The oracle of the DAG fold: the distinct (state, item) pairs over those
    # prefixes, and the distinct states the paths reach, each state compared
    # by value and block number.
    items, fee_policy = tree.items, space.fee_policy()
    edges = _distinct(
        (_replayed(state, items, prefix[:-1], fee_policy), prefix[-1]) for prefix in prefixes
    )
    leaves = _distinct(_replayed(state, items, path, fee_policy) for path in paths)
    cuts = []
    real_dead = _Tree._dead

    def counting_dead(tree, *args):
        cut = real_dead(tree, *args)
        cuts.append(cut)
        return cut

    values = []
    real_value = AccountBalanceValue.value

    def counting_value(objective, st):
        values.append(st)
        return real_value(objective, st)

    calls, swaps = _count_steps(monkeypatch)
    monkeypatch.setattr(_Tree, "_dead", counting_dead)
    monkeypatch.setattr(AccountBalanceValue, "value", counting_value)
    report = search(space, EXH, objective, state)
    assert report.paths_explored == len(keys)
    # the walk cuts subtrees that hold no construction, except under censoring
    assert any(cuts) != space.allow_censor
    if compiles:
        # the swap-only tree folds on ints: one swap step per prefix of the
        # paths, no State
        assert (len(swaps), len(calls), len(values)) == (len(prefixes), 0, 0)
    else:
        # a tree that does not compile steps each distinct (state, item) pair
        # once and values each distinct state a path reaches once; in
        # ``deadline`` the two trades create their balances in either order,
        # so a state key that read the balances' dict order would step 18
        # pairs, not 16; in ``deposits`` u0 and u1 fill the book's collateral
        # in either order, so a key that read that dict's order would step 9
        # pairs, not 8, and value 10 states, not 8
        assert (len(calls), len(values)) == (edges, leaves)
        assert edges < len(prefixes) and leaves < len(keys)


# ---------------------------------------------------------------------------
# Objective slicing in the sampler
# ---------------------------------------------------------------------------

def _whole_replay(tree, state, objective, ints, offers):
    """``ordering._fold`` without slices, shared prefixes or ints: every key
    replayed whole on the ``State`` path, ``ints`` and the offers' paths
    ignored.  Sampled keys hold no ``BLOCK_BREAK``."""
    items, fee_policy = tree.items, tree.space.fee_policy()
    reducer = ordering._Reducer()
    for key, _, weight in offers:
        txs = [items[i] for i in key]
        state_after = apply_sequence(state, txs, "skip_invalid", fee_policy).state
        reducer.offer(objective.value(state_after), key, weight)
    return reducer


def _sampled(seed, max_paths=60):
    return SearchBudget(max_paths=max_paths, seed=seed, tractability_threshold=0)


def _all_items(tree):
    return (1 << len(tree.items)) - 1


def _record_cuts(monkeypatch):
    """Wrap ``ordering._fold``: a list that gets, per fold, whether some
    offer's path stops short of its key's slice (the relevant items)."""
    cuts = []
    real_fold = ordering._fold

    def fold(tree, state, objective, ints, offers):
        offers = list(offers)
        cuts.append(any(
            len(path) < sum(tree.relevant >> i & 1 for i in key) for key, path, _ in offers
        ))
        return real_fold(tree, state, objective, ints, offers)

    monkeypatch.setattr(ordering, "_fold", fold)
    return cuts


def _sampled_outcome(state, space, objective, budget):
    """A sampled search's report, or the type and the message of the
    exception it raised."""
    try:
        return search(space, budget, objective, state)
    except Exception as e:
        return type(e), str(e)


def _sampled_dag_cases():
    """Some of ``_dag_cases()`` with the package's own objectives: a raiser
    of each kind under assorted flags, then the three-block cuts, the wave
    spreads and the twins."""
    cases = [case for case in _dag_cases() if ordering._own_objective(case[2])]
    corpus = 2 * len(differential_corpus())  # each corpus case, then its raiser
    return cases[1:corpus:6] + cases[corpus:]


def test_sliced_sampling_equals_whole_replay_on_the_mixed_corpus(monkeypatch):
    cases = [
        (state, space, PlayerDelta.from_state(frozenset({"miner"}), VALUATION, state) if i % 2
         else AccountBalanceValue("p" if i % 4 else "u0", VALUATION))
        for i, (state, space) in enumerate(differential_corpus())
    ]
    trees = [
        _Tree(replace(space, k=1), _FULL, objective.tracked, state.contracts)
        for state, space, objective in cases
    ]
    # the slice cut items from some samples, all of them from a few
    assert sum(tree.relevant != _all_items(tree) for tree in trees) >= 10
    assert any(tree.relevant == 0 for tree in trees)
    # the fee that u0 pays the tracked miner keeps u0's swap a seed: a path
    # stops at it, not before
    cases += [_fees_to_the_tracked_miner(), *_sampled_dag_cases()]
    records = _record_cuts(monkeypatch)
    sliced, cut = [], []
    for i, (state, space, objective) in enumerate(cases):
        del records[:]
        sliced.append(_sampled_outcome(state, space, objective, _sampled(i)))
        cut.append(any(records))
    # the corpus covers greedy blocks, fixed order, fees, censoring and
    # insertion, and the raisers raise
    assert {space.k for _, space, _ in cases} == {1, 2, 3}
    assert sum(type(outcome) is tuple for outcome in sliced) >= 8
    # paths stop at their last seed item in some searches, the fee case's too
    assert cut[len(trees)] and 10 < sum(cut) < len(cases)
    monkeypatch.setattr(ordering, "_fold", _whole_replay)
    for i, (state, space, objective) in enumerate(cases):
        oracle = _sampled_outcome(state, space, objective, _sampled(i))
        assert sliced[i] == oracle, (i, space)


def _one_pool_whale_spreads():
    for index in range(6):
        sc = make_spread_instance(7, index, 8, n_pools=2, fee_bps=30, whale_txs=1)
        space = sc.space()
        yield sc, space if index % 2 else replace(space, allow_censor=True)


def test_sliced_sampling_equals_whole_replay_on_one_pool_whale_spreads(monkeypatch):
    cases = list(_one_pool_whale_spreads())
    records = _record_cuts(monkeypatch)
    sliced = [
        value_spread(sc.beneficiary, space, sc.initial_state(), sc.valuation, _sampled(i, 300))
        for i, (sc, space) in enumerate(cases)
    ]
    # every search stops paths at the whale's trade
    assert records == [True] * len(cases)
    cut = 0
    for sc, space in cases:
        tree = _Tree(space, _FULL, frozenset({sc.beneficiary}), sc.initial_state().contracts)
        cut += tree.relevant != _all_items(tree)
    assert cut == len(cases)  # the whale trades one of the two pools
    monkeypatch.setattr(ordering, "_fold", _whole_replay)
    for i, (sc, space) in enumerate(cases):
        oracle = value_spread(
            sc.beneficiary, space, sc.initial_state(), sc.valuation, _sampled(i, 300)
        )
        assert sliced[i] == oracle, i


def _two_pool_instance():
    """The whale and two users trade pool0; three users trade pool1, which
    no tracked balance reaches."""
    pool = AmmPool("TKN", "ETH", 1_000_000, 1_000_000, fee_bps=30)
    mempool = (
        Tx("whale", "pool0", Swap("ETH", "TKN", 50_000)),
        Tx("u1", "pool1", Swap("TKN", "ETH", 30_000)),
        Tx("u2", "pool0", Swap("TKN", "ETH", 40_000)),
        Tx("u3", "pool1", Swap("ETH", "TKN", 20_000)),
        Tx("u4", "pool1", Swap("TKN", "ETH", 10_000)),
        Tx("u5", "pool0", Swap("ETH", "TKN", 60_000)),
    )
    balances = {(tx.actor, tx.action.token_in): tx.action.amount for tx in mempool}
    return State(balances, {"pool0": pool, "pool1": pool}, 0), OrderingSpace(mempool=mempool)


@pytest.mark.parametrize("censor", (False, True))
def test_sampling_applies_each_shared_prefix_of_the_slice_once(monkeypatch, censor):
    state, space = _two_pool_instance()
    space = replace(space, allow_censor=censor)
    objective = AccountBalanceValue("whale", VALUATION)
    budget = _sampled(0, 200)
    tree = _Tree(space, _FULL, objective.tracked, state.contracts)
    assert tree.relevant == 0b100101  # the pool0 items
    seqs = _sample_sequences(tree, budget)
    # each projection stops at the whale's trade, the one seed item
    projections = set()
    for seq in seqs:
        proj = tuple(i for i in seq if tree.relevant >> i & 1)
        projections.add(proj[:proj.index(0) + 1] if 0 in proj else ())
    prefixes = {proj[:d] for proj in projections for d in range(1, len(proj) + 1)}

    calls, swaps = _count_steps(monkeypatch)
    report = search(space, budget, objective, state)
    # the swap-only tree folds on ints: one swap step per prefix, no State
    assert (len(swaps), len(calls)) == (len(prefixes), 0)
    assert len(swaps) < sum(len(seq) for seq in seqs)  # the whole-replay count
    if not censor:
        # every ordering of the three pool0 swaps, cut after the whale's
        assert len(prefixes) == 3 + 4 + 2
    else:
        # some projection extends another, so a state on the stack is reused whole
        assert any(proj[:-1] in projections for proj in projections if proj)
    monkeypatch.setattr(ordering, "_fold", _whole_replay)
    assert search(space, budget, objective, state) == report


@pytest.mark.parametrize("compiled", (True, False), ids=["kernel", "state_path"])
def test_an_over_cap_search_applies_no_step_before_it_samples(monkeypatch, compiled):
    sc = make_spread_instance(900, 2, 9)
    state, space = sc.initial_state(), replace(sc.space(), allow_censor=True)
    budget = SearchBudget(max_paths=1_000, seed=3)
    tree = _Tree(space, _FULL, frozenset({sc.beneficiary}), state.contracts)
    assert len(tree.items) == budget.tractability_threshold
    assert tree.count() > budget.max_paths
    if not compiled:
        monkeypatch.setattr(ordering, "_compiled", lambda *args: None)
    calls, swaps = _count_steps(monkeypatch)
    outcomes = []
    for threshold in (9, 0):
        before = len(calls), len(swaps)
        report = value_spread(
            sc.beneficiary, space, state, sc.valuation,
            replace(budget, tractability_threshold=threshold),
        )
        outcomes.append((report, len(calls) - before[0], len(swaps) - before[1]))
    # The count tells the tree is over the cap; then only the samples run.
    assert outcomes[0] == outcomes[1]
    report, steps, swap_steps = outcomes[0]
    assert not report.exhaustive and swap_steps > 0
    assert (steps > 0) != compiled


def test_the_count_gate_stops_once_it_passes_max_paths(monkeypatch):
    # Sixteen swaps on two pools: the full count builds 65,536 contexts.
    # Under a threshold above the item count the gate counts only until it
    # passes max_paths, so the search reaches the sampler after a few
    # hundred contexts, with the report of a threshold of 0.
    sc = make_spread_instance(900, 1, 16)
    state = sc.initial_state()
    budget = SearchBudget(max_paths=1_000, seed=3, tractability_threshold=30)
    trees = []

    class Recorded(_Tree):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            trees.append(self)

    monkeypatch.setattr(ordering, "_Tree", Recorded)
    reports = [
        value_spread(sc.beneficiary, sc.space(), state, sc.valuation,
                     replace(budget, tractability_threshold=threshold))
        for threshold in (30, 0)
    ]
    assert reports[0] == reports[1] and not reports[0].exhaustive
    assert len(trees[0]._contexts) < 2_000
    assert trees[0].count(0, budget.max_paths) > budget.max_paths
    assert trees[0].count() == 2_612_736_000 and len(trees[0]._contexts) == 65_536


def test_a_contract_type_with_no_footprint_branch_disables_the_slice(monkeypatch):
    @dataclass(frozen=True)
    class Vault:
        pass

    def deposit(state, tx, vault):
        if state.balances.get((tx.actor, "ETH"), 0) < 10:
            return None
        return state.settle(((tx.actor, "ETH", -10), ("vault", "ETH", 10)))

    monkeypatch.setitem(contracts._EXECUTORS, Vault, {Bet: deposit})
    state, space = _two_pool_instance()
    state = State({**state.balances, ("u1", "ETH"): 15}, {**state.contracts, "vault": Vault()}, 0)
    objective = AccountBalanceValue("whale", VALUATION)
    tree = _Tree(space, _FULL, objective.tracked, state.contracts)
    assert tree.relevant != _all_items(tree)
    space = replace(space, mempool=space.mempool + (Tx("u1", "vault", Bet()),))
    tree = _Tree(space, _FULL, objective.tracked, state.contracts)
    assert tree.relevant == _all_items(tree)
    # without footprints the sleep sets are off, and so is the slice
    assert _Tree(space, _RUN, objective.tracked, state.contracts).relevant == _all_items(tree)
    sliced = search(space, _sampled(1, 100), objective, state)
    monkeypatch.setattr(ordering, "_fold", _whole_replay)
    assert search(space, _sampled(1, 100), objective, state) == sliced


# Items whose application raises, each reaching no tracked balance.
RAISERS = {
    "unbound template": (Tx("miner", "pool1", Swap("ETH", "TKN", None), origin="miner"), {}),
    "unknown CDP action": (
        Tx("v", "book", CdpManipulate("borrow", 5)),
        {"book": MakerBook("TKN", "ETH", "pool1")},
    ),
    "CDP price source not a pool": (
        Tx("v", "book", CdpManipulate("withdraw_loan", 5)),
        {"book": MakerBook("TKN", "ETH", "nowhere")},
    ),
    "claim oracle not a pool": (
        Tx("p", "bet", GetReward()),
        {"bet": Pricebet("nowhere", "ETH", deadline=5, pot=300, has_bet=True, player="p")},
    ),
}


@pytest.mark.parametrize("raiser", RAISERS)
def test_an_item_that_raises_still_raises_outside_the_objectives_reach(raiser):
    tx, deployed = RAISERS[raiser]
    state, space = _two_pool_instance()
    state = State(state.balances, {**state.contracts, **deployed}, 0)
    if tx.origin == "miner":
        space = replace(space, templates=(tx,), allow_insert=True)
    else:
        space = replace(space, mempool=space.mempool + (tx,))
    objective = PlayerDelta.from_state(frozenset({"whale"}), VALUATION, state)
    tree = _Tree(space, _FULL, objective.tracked, state.contracts)
    assert tree.relevant >> len(tree.items) - 1 & 1  # the raiser is the last item
    with pytest.raises(ScenarioError):
        search(space, _sampled(0), objective, state)


# ---------------------------------------------------------------------------
# The integer kernel against the State path
# ---------------------------------------------------------------------------

def _folded(tree, state, objective, budget):
    """Best, worst, path count and exhaustiveness of one fold of the tree."""
    reducer, exhaustive = ordering._search_tree(tree, state, objective, budget, 1)
    return reducer.best, reducer.worst, reducer.paths, exhaustive


def _assert_kernel_equals_state_path(monkeypatch, state, space, objective, budget):
    """The compiled fold and the same fold with compilation forced off give
    the same reducer; returns the number of constructions folded."""
    tree = _Tree(space, _FULL, objective.tracked, state.contracts)
    assert ordering._compiled(tree, state, objective, tree.space.fee_policy()) is not None
    kernel = _folded(tree, state, objective, budget)
    with monkeypatch.context() as patch:
        patch.setattr(ordering, "_compiled", lambda *args: None)
        assert _folded(tree, state, objective, budget) == kernel, space
    return kernel[2]


def _objectives(state, beneficiary, valuation):
    return (
        AccountBalanceValue(beneficiary, valuation),
        PlayerDelta.from_state(frozenset({beneficiary}), valuation, state),
    )


def test_the_kernel_equals_the_state_path_on_the_pruning_corpus(monkeypatch):
    for i, sc in enumerate(pruning_corpus(seed=5, count=24)):
        state, space = sc.initial_state(), sc.space()
        if i % 3 == 0:
            space = replace(space, allow_censor=True)
        for objective in _objectives(state, sc.beneficiary, sc.get_valuation()):
            _assert_kernel_equals_state_path(monkeypatch, state, space, objective, EXH)


@pytest.mark.parametrize("n_pools", (1, 2, 3))
def test_the_kernel_equals_the_state_path_on_seeded_spreads(monkeypatch, n_pools):
    for index in range(4):
        sc = make_spread_instance(11, index, 5 + index % 3, n_pools=n_pools, fee_bps=30)
        state, space = sc.initial_state(), sc.space()
        for objective in _objectives(state, sc.beneficiary, sc.get_valuation()):
            for budget in (EXH, _sampled(index, 40)):
                _assert_kernel_equals_state_path(monkeypatch, state, space, objective, budget)


def _edge_instance():
    """Every swap outcome the kernel must reproduce.  The whale's second
    trade sells tokens only its first one buys, and its third swaps ETH for
    ETH at a pool that holds ETH on both sides, which no token check alone
    would refuse; u4's exact output equals pool1's reserve until the whale's
    sale refills it; the other swaps are at an unknown venue, in a token
    pool0 does not hold, beyond u5's balance, of nothing, and beyond any
    reserve."""
    state = State(
        {
            ("whale", "ETH"): 30_000,
            ("u1", "TKN"): 10_000,
            ("u2", "DAI"): 500,
            ("u3", "ETH"): 500,
            ("u4", "ETH"): 10**8,
            ("u5", "TKN"): 4_000,
            ("miner", "ETH"): 20_000,
        },
        {
            "pool0": AmmPool("TKN", "ETH", 1_000_000, 500_000, fee_bps=30),
            "pool1": AmmPool("TKN", "ETH", 800_000, 420_000, fee_bps=0),
            "flat": AmmPool("ETH", "ETH", 1_000, 1_000),
        },
        0,
    )
    mempool = (
        Tx("whale", "pool0", Swap("ETH", "TKN", 20_000)),
        Tx("whale", "pool1", Swap("TKN", "ETH", 30_000)),
        Tx("u4", "pool1", Swap("ETH", "TKN", 800_000, exact_out=True)),
        Tx("u1", "nowhere", Swap("TKN", "ETH", 1_000)),
        Tx("u2", "pool0", Swap("DAI", "ETH", 100)),
        Tx("whale", "flat", Swap("ETH", "ETH", 100)),
        Tx("u5", "pool0", Swap("TKN", "ETH", 5_000)),
        Tx("u3", "pool0", Swap("ETH", "TKN", 0), arrival_block=1),
        Tx("u4", "pool0", Swap("ETH", "TKN", 2_000_000, exact_out=True), arrival_block=1),
    )
    templates = (Tx("miner", "pool1", Swap("ETH", "TKN", 9_000), origin="miner"),)
    return state, OrderingSpace(mempool=mempool, templates=templates)


def _two_blocks(space, **flags):
    """The whale's trades and u4's exact output, then block 1's arrivals."""
    return replace(space, k=2, mempool=space.mempool[:3] + space.mempool[-2:], **flags)


EDGE_SPACES = {
    "reorder": lambda space: space,
    "censor": lambda space: replace(space, allow_censor=True),
    "fixed_order_insert": lambda space: replace(
        space, allow_reorder=False, allow_censor=True, allow_insert=True),
    "k2": _two_blocks,
    "k2_censor_insert": lambda space: _two_blocks(space, allow_censor=True, allow_insert=True),
}


@pytest.mark.parametrize("flags", EDGE_SPACES)
@pytest.mark.parametrize("player", ("whale", "miner"))
def test_the_kernel_equals_the_state_path_on_every_swap_outcome(monkeypatch, flags, player):
    state, space = _edge_instance()
    space = EDGE_SPACES[flags](space)
    valuation = Valuation("ETH", "oracle_priced", {"TKN": Fraction(3, 7)})
    for objective in _objectives(state, player, valuation):
        budgets = [EXH] if space.k > 1 else [EXH, _sampled(3, 50)]
        paths = [
            _assert_kernel_equals_state_path(monkeypatch, state, space, objective, budget)
            for budget in budgets
        ]
        assert paths[0] > 1


def test_the_edge_instance_meets_each_outcome():
    """The edge instance's swaps fail and succeed as its docstring says."""
    state, space = _edge_instance()
    whale_buy, whale_sell, u4_exact, *odd = space.mempool
    assert _step(state, whale_sell, None) is state
    after = _step(_step(state, whale_buy, None), whale_sell, None)
    assert after.contracts["pool1"].reserve_x > 800_000
    assert _step(state, u4_exact, None) is state
    assert _step(after, u4_exact, None) is not after
    for tx in odd:
        assert _step(after, tx, None) is after, tx


class _Scaled(AccountBalanceValue):
    """An objective the kernel does not know: twice the balance's value."""

    def value(self, state):
        return 2 * super().value(state)


NOT_COMPILED = {
    "fee_policy": lambda state, space: (
        state, replace(space, charge_fees=True, fee_token="ETH",
                       mempool=tuple(replace(tx, fee=1) for tx in space.mempool))),
    "non_swap_item": lambda state, space: (
        state, replace(space, mempool=space.mempool + (Tx("u2", "pool0", AddLiquidity(10, 10)),))),
    "swap_at_a_book": lambda state, space: (
        State(state.balances, {**state.contracts, "book": MakerBook("TKN", "ETH", "pool1")}, 0),
        replace(space, mempool=space.mempool + (Tx("u5", "book", Swap("TKN", "ETH", 10)),))),
    "unbound_template": lambda state, space: (
        state, replace(space, allow_insert=True,
                       templates=(Tx("miner", "pool0", Swap("ETH", "TKN", None), origin="miner"),))),
    "custom_objective": lambda state, space: (state, space),
}


@pytest.mark.parametrize("case", NOT_COMPILED)
def test_a_tree_outside_the_kernels_conditions_folds_on_states(monkeypatch, case):
    state, space = _two_pool_instance()
    state, space = NOT_COMPILED[case](state, space)
    objective = AccountBalanceValue("whale", VALUATION)
    if case == "custom_objective":
        objective = _Scaled("whale", VALUATION)
    tree = _Tree(space, _FULL, objective.tracked, state.contracts)
    assert ordering._compiled(tree, state, objective, tree.space.fee_policy()) is None
    calls, _ = _count_steps(monkeypatch)
    if case == "unbound_template":
        with pytest.raises(ScenarioError, match="^swap has an unbound insertion-size parameter$"):
            search(space, EXH, objective, state)
    else:
        search(space, EXH, objective, state)
    assert calls  # the State path ran


# ---------------------------------------------------------------------------
# The context table: counts, and the fold over (context, state) pairs
# ---------------------------------------------------------------------------

def _three_block_cuts():
    """Mixed instances cut to three transactions, one arriving per block,
    and a liquidation template, with fees and insertion, censored or not."""
    for seed, censor in enumerate((False, True)):
        state, space = mixed_instance(6_100 + seed, True, censor, True, 3, fees=True)
        mempool = tuple(replace(tx, arrival_block=i % 3) for i, tx in enumerate(space.mempool[:3]))
        yield state, replace(space, mempool=mempool, templates=space.templates[:1])


def _wave_spreads():
    """(state, space, beneficiary): pruning-corpus spreads dealt over one to
    three blocks, so that later waves hold lower indices and the walk's
    order is not the keys' order; half of them censored."""
    for i, sc in enumerate(pruning_corpus(11, 12, max_txs=5)):
        space, k = sc.space(), 1 + i % 3
        mempool = tuple(replace(tx, arrival_block=j % k) for j, tx in enumerate(space.mempool))
        space = replace(space, mempool=mempool, k=k, allow_censor=i % 2 == 0)
        yield sc.initial_state(), space, sc.beneficiary


def _count_cases():
    """(state, space, tracked): the mixed corpus's flags at k = 1 and 2, its
    three-block cuts, the identical-trade instances and the wave spreads."""
    for seed, flags in enumerate(FLAGS):
        yield *mixed_instance(6_000 + seed, *flags, fees=seed % 2 == 0), frozenset({"miner"})
    for state, space in _three_block_cuts():
        yield state, space, frozenset({"miner"})
    for i, flags in enumerate(IDENTICAL_FLAGS):
        yield *identical_trades_instance(6_200 + i, *flags), identical_trades_tracked(i)
    for state, space, beneficiary in _wave_spreads():
        yield state, space, frozenset({beneficiary})


def test_the_context_table_counts_what_the_walk_yields():
    seen = set()
    for state, space, tracked in _count_cases():
        seen.add((space.k, space.allow_censor, space.allow_insert))
        for reduction in (0, _RUN, _SLEEP, _FULL):
            tree = _Tree(space, reduction, tracked, state.contracts)
            assert tree.count() == sum(1 for _ in tree.walk()), (space, reduction)
    assert {(k, True, True) for k in (1, 2, 3)} <= seen


def _fold_outcome(fold):
    """A fold's best, worst and path count, or the type and the message of
    the exception it raised: a pair."""
    try:
        reducer = fold()
    except Exception as e:
        return type(e), str(e)
    return reducer.best, reducer.worst, reducer.paths


def _assert_dag_equals_tree_fold(tree, state, objective):
    """The fold over (context, state) pairs against the key-driven fold of
    the same tree; returns the outcome."""

    dag = _fold_outcome(lambda: ordering._DagFold(tree, objective).fold(state))
    ints = ordering._compiled(tree, state, objective, tree.space.fee_policy())
    offers = ((key, key, 1) for key in tree.walk())
    assert dag == _fold_outcome(lambda: ordering._fold(tree, state, objective, ints, offers))
    return dag


class _RaisesOnSomeLeaves(AccountBalanceValue):
    """Raises at the leaves where every balance together sums to 1 modulo
    11, naming the balances, so that leaves raise different errors, and
    most searches raise only past their first leaves."""

    def value(self, state):
        if sum(state.balances.values()) % 11 == 1:
            raise ValueError(f"leaf of {sorted(state.balances.items())}")
        return super().value(state)


def _dag_cases():
    """(state, space, objective): the mixed corpus at k = 1 and 2 with both
    objectives, and again with one of ``RAISERS`` or an objective that
    raises at some leaves; its three-block cuts; the wave spreads; the
    twins; and the composability check's price bet and CDP book."""
    for i, (state, space) in enumerate(differential_corpus()):
        if i % 2:
            objective = PlayerDelta.from_state(frozenset({"miner"}), VALUATION, state)
        else:
            objective = AccountBalanceValue("p" if i % 4 else "u0", VALUATION)
        yield state, space, objective
        if i % 4 == 0:
            yield state, space, _RaisesOnSomeLeaves(objective.account, VALUATION)
        tx, deployed = list(RAISERS.values())[i % len(RAISERS)]
        raising = State(state.balances, {**state.contracts, **deployed}, 0)
        if tx.origin == "miner":
            yield raising, replace(space, templates=(tx,), allow_insert=True), objective
        else:
            yield raising, replace(space, mempool=space.mempool[:3] + (tx,)), objective
    for state, space in _three_block_cuts():
        yield state, space, PlayerDelta.from_state(frozenset({"miner"}), VALUATION, state)
    for state, space, beneficiary in _wave_spreads():
        yield state, space, AccountBalanceValue(beneficiary, VALUATION)
    yield from _twins()
    yield from _compose_shapes()


def _compose_shapes():
    """The shape of a composability check: a fee-less BBT/ETH pool that is
    the oracle of a price bet and the price source of a CDP book, two ETH-in
    swaps, a BBT-in swap and a loan withdrawal in the mempool, and bet,
    claim and liquidation templates with insertion.  Each instance comes
    before the bet is deployed, where its templates hit an unknown venue and
    many constructions tie, and after."""
    for seed in range(2):
        rng = random.Random(7_000 + seed)
        pool_other = rng.randint(1_000, 2_000)
        gap = rng.randint(50, 150)
        pool_eth = pool_other - gap
        built = build_pricebet_scenario(
            pool_other=pool_other, pool_eth=pool_eth,
            mempool_eth_in=tuple(rng.randint(gap // 2 + 1, gap + 1) for _ in range(2)),
            mempool_other_in=(rng.randint(gap // 2, 2 * gap),), player_eth=rng.randint(100, 300),
        )
        # The victim goes under water once ETH flows in; the borrower's loan
        # is safe only while the price has not fallen.
        victim, borrower = rng.randint(200, 600), rng.randint(200, 600)
        book = MakerBook(
            "BBT", "ETH", built.pool_id, collateral={"v0": victim, "c0": borrower},
            debt={"v0": 2 * victim * pool_other // (3 * pool_eth)},
        )
        loan = 2 * borrower * pool_other // (3 * pool_eth) - 1
        withdraw = Tx("c0", "book", CdpManipulate("withdraw_loan", loan))
        liquidate = Tx("miner", "book", Liquidate("v0"), origin="miner")
        space = replace(
            built.space,
            mempool=built.space.mempool + (withdraw,),
            templates=built.space.templates + (liquidate,),
        )
        before = State(built.state.balances, {**built.state.contracts, "book": book}, 0)
        for state in (before, before.deploy(built.bet_id, built.bet_contract)):
            objective = PlayerDelta.from_state(built.player.accounts, built.valuation, state)
            yield state, space, objective


def _twins():
    """u0 can afford one of two equal actions at twin contracts: either
    order leaves the same balances, but a different twin changed, and a
    third transaction then reads one twin.  The twins are pools, where their
    reserves differ, and CDP books, where their collateral dicts do."""
    pool = AmmPool("TKN", "ETH", 1_000, 1_000, fee_bps=30)
    state = State({("u0", "ETH"): 10, ("u2", "ETH"): 50}, {"p": pool, "q": pool}, 0)
    mempool = (
        Tx("u0", "p", Swap("ETH", "TKN", 10)),
        Tx("u0", "q", Swap("ETH", "TKN", 10)),
        Tx("u2", "p", Swap("ETH", "TKN", 50)),
    )
    yield state, OrderingSpace(mempool=mempool), AccountBalanceValue("u2", VALUATION)
    book = MakerBook("DAI", "ETH", "pool")
    prices = AmmPool("DAI", "ETH", 2_000, 1_000, fee_bps=0)
    state = State({("u0", "ETH"): 10}, {"pool": prices, "b": book, "c": book}, 0)
    mempool = (
        Tx("u0", "b", CdpManipulate("deposit_collateral", 10)),
        Tx("u0", "c", CdpManipulate("deposit_collateral", 10)),
        Tx("u0", "c", CdpManipulate("withdraw_collateral", 10)),
    )
    yield state, OrderingSpace(mempool=mempool), AccountBalanceValue("u0", VALUATION)


def test_the_dag_fold_equals_the_tree_fold_on_the_mixed_corpus(monkeypatch):
    # Every tree takes the State path, swap-only ones too.
    monkeypatch.setattr(ordering, "_compiled", lambda *args: None)
    failed = []
    real_apply_tx = ordering.apply_tx

    def recording_apply_tx(st, tx, fee_policy=None):
        nxt = real_apply_tx(st, tx, fee_policy)
        failed.append(nxt is None)
        return nxt

    monkeypatch.setattr(ordering, "apply_tx", recording_apply_tx)
    errors, spaces = set(), []
    for state, space, objective in _dag_cases():
        tree = _Tree(space, _FULL, objective.tracked, state.contracts)
        outcome = _assert_dag_equals_tree_fold(tree, state, objective)
        if len(outcome) == 2:
            errors.add(outcome[0])
        spaces.append(space)
    # failing transactions, fees, censoring, insertion and one to three blocks
    assert any(failed) and not all(failed)
    assert {(sp.charge_fees, sp.allow_censor, sp.allow_insert) for sp in spaces} >= {
        (True, True, True), (False, False, False)}
    assert {sp.k for sp in spaces} == {1, 2, 3}
    # the raisers, and the objective that raises, raise the same error both ways
    assert errors == {ScenarioError, ValueError}


def _fees_to_the_tracked_miner():
    """The miner's swap, u0's swap paying the miner a fee, and u1's swap:
    with the miner tracked, u0's swap is not quiet though u0 is not
    tracked, so a context where it is still placeable is not quiet."""
    pool = AmmPool("TKN", "ETH", 2_000, 1_000, fee_bps=30)  # TKN cheap against VALUATION
    state = State({("u0", "ETH"): 100, ("u1", "TKN"): 100, ("miner", "ETH"): 200}, {"pool": pool}, 0)
    space = OrderingSpace(
        mempool=(
            Tx("u0", "pool", Swap("ETH", "TKN", 50), fee=5),
            Tx("u1", "pool", Swap("TKN", "ETH", 40)),
        ),
        templates=(Tx("miner", "pool", Swap("ETH", "TKN", 60), origin="miner"),),
        allow_censor=True,
        allow_insert=True,
        charge_fees=True,
        fee_token="ETH",
    )
    return state, space, PlayerDelta.from_state(frozenset({"miner"}), VALUATION, state)


def _search_outcome(fold, state, space, objective):
    """A search's report, path counts aside, or the type and the message of
    the exception it raised."""
    try:
        report = fold(space, EXH, objective, state)
    except Exception as e:
        return type(e), str(e)
    return replace(report, paths_explored=0, paths_total=0)


def test_the_reduced_search_equals_the_unreduced_one_on_the_dag_corpus():
    # The unreduced tree has no footprints, so it collapses no subtree.
    cases = [*_dag_cases(), _fees_to_the_tracked_miner()]
    state, space, objective = cases[-1]
    assert _Tree(space, _FULL, objective.tracked, state.contracts).quiet == 0b010
    quiet = errors = 0
    for state, space, objective in cases:
        assert _Tree(space, 0, objective.tracked, state.contracts).quiet == 0
        quiet += _Tree(space, _FULL, objective.tracked, state.contracts).quiet != 0
        outcome = _search_outcome(search, state, space, objective)
        assert outcome == _search_outcome(unpruned_search, state, space, objective), space
        errors += type(outcome) is tuple
    assert quiet > len(cases) // 2 and errors > 10


@pytest.mark.parametrize("name", ["pricebet_compose", "liquidation"])
def test_the_dag_fold_equals_the_tree_fold_on_the_demo_scenarios(name):
    from pathlib import Path

    from mevsearch.scenario import load_scenario

    sc = load_scenario(Path(__file__).resolve().parent.parent / "demos" / "data" / f"{name}.json")
    states = [sc.initial_state()]
    if sc.new_contract is not None:
        states.append(states[0].deploy(*sc.new_contract))
    for k in (1, 2, 3):
        space = replace(sc.space(), k=k)
        for state in states:
            objective = PlayerDelta.from_state(sc.player().accounts, sc.get_valuation(), state)
            tree = _Tree(space, _FULL, objective.tracked, state.contracts)
            assert ordering._compiled(tree, state, objective, tree.space.fee_policy()) is None
            paths = _assert_dag_equals_tree_fold(tree, state, objective)[2]
            assert paths == tree.count() > 1


def test_the_dag_fold_tells_apart_states_that_differ_only_in_their_block():
    state, space, objective = _deadline_claim()
    tree = _Tree(space, _FULL, objective.tracked, state.contracts)
    trade, claim = tree.items[0], tree.items[2]
    won = _step(state, trade, None)
    late = won.with_block(1)
    assert _step(won, claim, None) is not won and _step(late, claim, None) is late
    keys = set(tree.walk())
    assert {(0, 1, 2, BLOCK_BREAK), (0, BLOCK_BREAK, 1, 2)} <= keys
    # The claim pays only in block 0.  A fold that numbered states without
    # their block would let a claim in block 1 pay as it does in block 0,
    # and pick a smaller key, (|, 0, 1, 2), as the best witness.
    best, worst, paths = _assert_dag_equals_tree_fold(tree, state, objective)
    assert best == (200, (0, 1, 2, BLOCK_BREAK)) and worst[0] == 0
    assert paths == tree.count() == len(keys)


def test_an_item_that_raises_only_where_no_construction_lies_is_never_applied(monkeypatch):
    @dataclass(frozen=True)
    class Trap:
        pass

    pool0 = AmmPool("DAI", "ETH", 1_000, 1_000, fee_bps=0)
    pool1 = AmmPool("TKN", "ETH", 1_000, 1_000, fee_bps=0)

    def spring(state, tx, trap):
        if state.contracts["pool0"] is pool0 and state.contracts["pool1"] is not pool1:
            raise ScenarioError("sprung")
        return None

    monkeypatch.setitem(contracts._EXECUTORS, Trap, {Bet: spring})
    state = State(
        {("u0", "DAI"): 100, ("u1", "TKN"): 100, ("u2", "DAI"): 100},
        {"pool0": pool0, "pool1": pool1, "trap": Trap()},
        0,
    )
    m0, m1 = Tx("u0", "pool0", Swap("DAI", "ETH", 50)), Tx("u1", "pool1", Swap("TKN", "ETH", 50))
    w, trap = Tx("u2", "pool0", Swap("DAI", "ETH", 30)), Tx("t", "trap", Bet())
    with pytest.raises(ScenarioError, match="^sprung$"):
        _step(_step(state, m1, None), trap, None)
    objective = AccountBalanceValue("u0", VALUATION)
    tree = _Tree(OrderingSpace(mempool=(m0, m1, w, trap)), _FULL, objective.tracked, state.contracts)
    # Told that the trap commutes with both pool0 trades, the walk applies
    # it only after them: after m1 and the trap, m0 and w sleep for good.
    for i in (0, 2):
        tree.indep[i] |= 1 << 3
        tree.indep[3] |= 1 << i
    node = dict(tree.expand(dict(tree.expand(0)[1])[1])[1])[3]
    assert tree.count(node) == 0
    assert all(key.index(3) > key.index(0) for key in tree.walk())
    # Neither fold applies the trap where it springs.
    best, worst, paths = _assert_dag_equals_tree_fold(tree, state, objective)
    assert paths == tree.count() > 1
