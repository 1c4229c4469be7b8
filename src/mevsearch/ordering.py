"""Feasible block construction and ordering search.

The miner action model: starting from the pending mempool, a miner may
reorder transactions, censor them (drop any subset), and insert its own
template transactions at arbitrary positions, per the space's flags, over
``k`` consecutive blocks.  One walker enumerates every feasible construction
exactly once, depth-first: each step either closes the block (``BLOCK_BREAK``;
the next block admits its arrival wave and re-offers the templates) or appends
a transaction.  Given a state, it applies each step in skip-invalid mode,
sharing state prefixes (a user transaction that fails under some ordering is
censored-by-failure, not a dead branch); without one it yields index
sequences only.  Searches reduce the objective's values to the best/worst
with a deterministic tie-break: among equal values the lexicographically
smallest item-index sequence wins, so reports are identical for any worker
count.  With ``workers > 1``, exhaustive searches (any ``k``) run the
subtrees under the walker's depth-2 prefixes in a process pool.

Pruning collapses permutations within maximal runs of same-direction
exact-input swaps on the same pool into one representative ordered by mempool
index.  Constant-product math is only order-independent up to integer
rounding, so the search verifies every collapse: an inversion is skipped only
when swapping the adjacent pair provably leaves the pool state bit-identical
and both actors are single-shot accounts the objective ignores (their own
balances then never influence anything downstream).  Repeated identical
trades always collapse; distinct wei-scale trades collapse exactly when the
rounding happens to agree, which keeps the reduction lossless for any
objective.  The stateless enumeration API applies the syntactic rule only.

Instances too large to enumerate fall back to seeded uniform sampling of
orderings (Fisher-Yates shuffles, deduplicated) ; the original mempool order
is always evaluated first, so the reported best is never below the untouched
ordering's value.  Multi-block spaces under a randomized budget are searched
greedily, one block at a time.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import get_context

from .state import (
    FeePolicy,
    MINER,
    ScenarioError,
    State,
    Swap,
    Tx,
    UnknownVenueError,
    apply_sequence,
    apply_tx,
)

BLOCK_BREAK = -1  # sequence-key marker between blocks of a k-block construction
BLOCK_BREAK_LABEL = "|"
# The sampler gives up after this many draws in a row that it had seen before.
MAX_DUPLICATE_RUN = 1000


@dataclass(frozen=True, slots=True)
class OrderingSpace:
    """The set of block sequences a miner can build from a mempool.

    With every flag off the only feasible sequence is the mempool's original
    order.  ``k`` is the number of consecutive blocks under construction;
    mempool transactions with ``arrival_block == w`` become schedulable in
    block ``w`` (0-based) and later.  Templates are the miner's own
    transactions, re-offered each block, each usable at most once per block.
    """

    mempool: tuple[Tx, ...]
    templates: tuple[Tx, ...] = ()
    allow_reorder: bool = True
    allow_censor: bool = False
    allow_insert: bool = False
    miner: str = MINER
    k: int = 1
    charge_fees: bool = False
    fee_token: str = ""

    def labeled(self) -> "OrderingSpace":
        """Fill in default labels (m0.., t0..) where missing."""
        mem = tuple(
            tx if tx.label else tx.with_label(f"m{i}") for i, tx in enumerate(self.mempool)
        )
        tpl = tuple(
            tx if tx.label else tx.with_label(f"t{i}") for i, tx in enumerate(self.templates)
        )
        return replace(self, mempool=mem, templates=tpl)

    def fee_policy(self) -> FeePolicy | None:
        if not self.charge_fees:
            return None
        if not self.fee_token:
            raise ScenarioError("charge_fees requires fee_token")
        return FeePolicy(self.miner, self.fee_token)


@dataclass(frozen=True, slots=True)
class SearchBudget:
    """Exhaustive coverage when the pruned space fits, else seeded sampling.

    ``tractability_threshold`` is the transaction count up to which the
    pruned space is counted (and fully explored when it fits in
    ``max_paths``); above it the engine samples ``max_paths`` orderings.
    """

    mode: str = "randomized"  # "exhaustive" forces full enumeration
    max_paths: int = 400_000
    seed: int = 0
    tractability_threshold: int = 9


@dataclass(frozen=True, slots=True)
class EvReport:
    """Search outcome: best (and optionally worst) value with witnesses."""

    best_value: int
    best_ordering: tuple[str, ...]
    paths_explored: int
    exhaustive: bool
    worst_value: int | None = None
    worst_ordering: tuple[str, ...] | None = None
    paths_total: int | None = None


# ---------------------------------------------------------------------------
# Item bookkeeping
# ---------------------------------------------------------------------------

def _run_key(tx: Tx, tracked: frozenset[str]):
    """Equivalence key for prunable swaps; None acts as a barrier."""
    a = tx.action
    if type(a) is Swap and not a.exact_out and a.amount is not None and tx.actor not in tracked:
        return (tx.venue, a.token_in, a.token_out)
    return None


def _guarded_tracked(items: tuple[Tx, ...], tracked: frozenset[str]) -> frozenset[str]:
    """Also treat multi-shot actors as tracked: an account with several
    transactions can gate later guards through its own balance, so its swaps
    must never be commuted away."""
    counts: dict[str, int] = {}
    for tx in items:
        counts[tx.actor] = counts.get(tx.actor, 0) + 1
    return tracked | {actor for actor, n in counts.items() if n > 1}


def _commutes(state: State, tx_p: Tx, tx_c: Tx) -> bool:
    """Would swapping this adjacent same-pool, same-direction pair leave the
    pool bit-identical?

    Both actors are single-shot and untracked, so only the pool's final
    reserves can influence anything downstream; validity of either swap is
    order-independent (neither touches the other's balance).
    """
    from .contracts import AmmPool, amm_swap_exact_in

    pool0 = state.contracts.get(tx_p.venue)
    if not isinstance(pool0, AmmPool):
        return True  # both orders are no-ops on a non-pool venue

    def step(pool, tx):
        a = tx.action
        if state.balances.get((tx.actor, a.token_in), 0) < a.amount:
            return pool
        res = amm_swap_exact_in(pool, a.token_in, a.amount)
        return pool if res is None else res[0]

    return step(step(pool0, tx_p), tx_c) == step(step(pool0, tx_c), tx_p)


def _labels_for(items: tuple[Tx, ...], key: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(BLOCK_BREAK_LABEL if i == BLOCK_BREAK else items[i].label for i in key)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

class _Tree:
    """The feasible constructions of a space, as a tree of item choices.

    Items are the mempool transactions that arrive within the ``k`` blocks,
    in mempool order, followed by the templates; a construction's key is its
    tuple of item indices, with ``BLOCK_BREAK`` between blocks.
    """

    __slots__ = ("space", "items", "keys", "waves", "templates")

    def __init__(self, space: OrderingSpace, pruning: bool, tracked: frozenset[str]):
        if space.k < 1:
            raise ScenarioError("k must be >= 1")
        space = space.labeled()
        mempool = tuple(tx for tx in space.mempool if 0 <= tx.arrival_block < space.k)
        self.space = space
        self.items = mempool + space.templates
        self.waves = tuple(
            tuple(i for i, tx in enumerate(mempool) if tx.arrival_block == block)
            for block in range(space.k)
        )
        self.templates = tuple(range(len(mempool), len(self.items)))
        tracked = _guarded_tracked(self.items, tracked | {space.miner})
        self.keys = [_run_key(tx, tracked) if pruning else None for tx in self.items]

    def walk(self, state: State | None, prefix: tuple[int, ...] = (), max_len: int | None = None):
        """Yield ``(key, state)`` once for every feasible construction whose
        key extends ``prefix``.

        With a state, each step is applied in skip-invalid mode and a pruning
        collapse is taken only when ``_commutes`` verifies it; without one,
        the yielded states are ``None`` and only the syntactic rule applies.
        With ``max_len`` the walk stops at that depth and also yields every
        node there, complete or not: those nodes are work-unit prefixes.
        """
        items, keys, waves, templates = self.items, self.keys, self.waves, self.templates
        space = self.space
        reorder, censor, insert = space.allow_reorder, space.allow_censor, space.allow_insert
        free = reorder or censor
        last = space.k - 1
        fee_policy = None if state is None else space.fee_policy()
        n_prefix = len(prefix)
        seq: list[int] = []

        def node(st, block, mem_rem, tpl_rem, prev_key, prev_idx, prev_state):
            depth = len(seq)
            if depth == max_len:
                yield tuple(seq), st
                return
            want = prefix[depth] if depth < n_prefix else None
            if block == last:
                # Without censoring, every admitted transaction is placed.
                if want is None and (censor or not mem_rem):
                    yield tuple(seq), st
            elif want is None or want == BLOCK_BREAK:
                seq.append(BLOCK_BREAK)
                yield from node(
                    None if st is None else st.with_block(st.block_number + 1),
                    block + 1, mem_rem + waves[block + 1], templates, None, -1, None,
                )
                seq.pop()
            mem_choices = mem_rem if free else mem_rem[:1]
            n_mem_choices = len(mem_choices)
            for pos, idx in enumerate(mem_choices + tpl_rem if insert else mem_choices):
                if want is not None and idx != want:
                    continue
                key = keys[idx]
                if (
                    key is not None
                    and key == prev_key
                    and idx < prev_idx
                    and (st is None or _commutes(prev_state, items[prev_idx], items[idx]))
                ):
                    continue
                if pos < n_mem_choices:
                    # Without reordering, the skipped transactions are censored for good.
                    nxt_mem = mem_rem[:pos] + mem_rem[pos + 1:] if reorder else mem_rem[pos + 1:]
                    nxt_tpl = tpl_rem
                else:
                    pos -= n_mem_choices
                    nxt_mem, nxt_tpl = mem_rem, tpl_rem[:pos] + tpl_rem[pos + 1:]
                nxt = st
                if st is not None:
                    try:
                        applied = apply_tx(st, items[idx], fee_policy)
                    except UnknownVenueError:
                        applied = None
                    if applied is not None:
                        nxt = applied
                seq.append(idx)
                yield from node(nxt, block, nxt_mem, nxt_tpl, key, idx, st)
                seq.pop()

        return node(state, 0, waves[0], templates, None, -1, None)


def iter_sequences(
    space: OrderingSpace, pruning: bool = True, tracked: frozenset[str] = frozenset()
):
    """Yield every feasible single-block sequence exactly once, as tuples of
    item indices (mempool 0..n-1 in original order, then templates).

    Applies the syntactic collapse rule (index-sorted runs of single-shot
    untracked same-direction swaps); the stateful search additionally
    verifies each collapse against the integer pool arithmetic.
    """
    if space.k != 1:
        raise ScenarioError("iter_sequences enumerates single-block spaces")
    for key, _ in _Tree(space, pruning, tracked).walk(None):
        yield key


def count_sequences(
    space: OrderingSpace, pruning: bool = True, tracked: frozenset[str] = frozenset()
) -> int:
    """Number of feasible (pruned) sequences of a single-block space."""
    return sum(1 for _ in iter_sequences(space, pruning, tracked))


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

class _OverBudget(Exception):
    """Raised by a capped exhaustive attempt when the space is too large."""


class _Reducer:
    """Deterministic max/min fold over (value, sequence-key) pairs."""

    __slots__ = ("best", "worst", "paths", "want_worst", "cap")

    def __init__(self, want_worst: bool, cap: int | None = None):
        self.best = None  # (value, key)
        self.worst = None
        self.paths = 0
        self.want_worst = want_worst
        self.cap = cap

    def offer(self, value: int, key: tuple[int, ...]) -> None:
        self.paths += 1
        if self.cap is not None and self.paths > self.cap:
            raise _OverBudget
        b = self.best
        if b is None or value > b[0] or (value == b[0] and key < b[1]):
            self.best = (value, key)
        if self.want_worst:
            w = self.worst
            if w is None or value < w[0] or (value == w[0] and key < w[1]):
                self.worst = (value, key)

    def merge(self, other: "_Reducer") -> None:
        """Fold in another (uncapped) reducer's extremes and path count."""
        paths = self.paths + other.paths
        for cand in (other.best, other.worst):
            if cand is not None:
                self.offer(*cand)
        self.paths = paths

    def report(self, items: tuple[Tx, ...], exhaustive: bool) -> EvReport:
        """The report, with witness labels built for the final keys only."""
        (best_value, best_key), worst = self.best, self.worst
        return EvReport(
            best_value=best_value,
            best_ordering=_labels_for(items, best_key),
            paths_explored=self.paths,
            exhaustive=exhaustive,
            worst_value=None if worst is None else worst[0],
            worst_ordering=None if worst is None else _labels_for(items, worst[1]),
            paths_total=self.paths if exhaustive else None,
        )


def _fold_walk(walk, objective, reducer: _Reducer) -> _Reducer:
    value_of = objective.value
    offer = reducer.offer
    for key, st in walk:
        offer(value_of(st), key)
    return reducer


_WORKER_SHARED = None


def _init_worker(shared) -> None:
    global _WORKER_SHARED
    _WORKER_SHARED = shared


def _unit_task(prefix: tuple[int, ...]) -> _Reducer:
    tree, state, objective, want_worst = _WORKER_SHARED
    return _fold_walk(tree.walk(state, prefix), objective, _Reducer(want_worst))


def _exhaustive(
    tree: _Tree, state: State, objective, want_worst: bool, workers: int, cap: int | None = None
) -> _Reducer:
    """Fold every construction of the tree.  ``cap`` (single worker only)
    raises ``_OverBudget`` once more than that many have been seen."""
    reducer = _Reducer(want_worst, cap)
    if workers <= 1:
        return _fold_walk(tree.walk(state), objective, reducer)

    # Depth-2 prefixes load-balance far better than first items.  Sequences
    # shorter than 2 are folded here; every longer one extends exactly one
    # depth-2 prefix, whose subtree is one work unit.
    units: list[tuple[int, ...]] = []
    for key, st in tree.walk(state, max_len=2):
        if len(key) < 2:
            reducer.offer(objective.value(st), key)
        else:
            units.append(key)
    pool_size = max(1, min(workers, len(units), os.cpu_count() or 1))
    with ProcessPoolExecutor(
        max_workers=pool_size,
        mp_context=get_context("fork"),
        initializer=_init_worker,
        initargs=((tree, state, objective, want_worst),),
    ) as pool:
        for other in pool.map(_unit_task, units, chunksize=1):
            reducer.merge(other)
    return reducer


# ---------------------------------------------------------------------------
# Randomized sampling
# ---------------------------------------------------------------------------

def _sample_sequences(tree: _Tree, budget: SearchBudget) -> list[tuple[int, ...]]:
    """Distinct single-block orderings sampled uniformly: identity first, then
    seeded Fisher-Yates shuffles, without replacement.

    Stops at ``max_paths`` orderings, after 50 x ``max_paths`` draws, or after
    ``MAX_DUPLICATE_RUN`` draws in a row that were all seen before (the space
    is then all but exhausted).
    """
    space = tree.space
    rng = random.Random(budget.seed)
    idx_mem = list(tree.waves[0])
    idx_tpl = list(tree.templates)
    n_mem = len(idx_mem)
    identity = tuple(idx_mem)
    seen = {identity}
    out = [identity]
    attempts = duplicates = 0
    max_attempts = max(50 * budget.max_paths, 1000)
    while len(out) < budget.max_paths and attempts < max_attempts and duplicates < MAX_DUPLICATE_RUN:
        attempts += 1
        chosen = list(idx_mem) if not space.allow_censor else [
            i for i in idx_mem if rng.getrandbits(1)
        ]
        if space.allow_insert and idx_tpl:
            chosen += [i for i in idx_tpl if rng.getrandbits(1)]
        rng.shuffle(chosen)
        if not space.allow_reorder:
            # keep mempool items in original relative order, templates where they fell
            mem_sorted = iter(sorted(i for i in chosen if i < n_mem))
            chosen = [next(mem_sorted) if i < n_mem else i for i in chosen]
        seq = tuple(chosen)
        if seq in seen:
            duplicates += 1
        else:
            duplicates = 0
            seen.add(seq)
            out.append(seq)
    return out


def _evaluate_sequences(
    tree: _Tree, state: State, seqs: list[tuple[int, ...]], objective, want_worst: bool
) -> _Reducer:
    reducer = _Reducer(want_worst)
    items = tree.items
    fee_policy = tree.space.fee_policy()
    for seq in seqs:
        res = apply_sequence(state, [items[i] for i in seq], "skip_invalid", fee_policy)
        reducer.offer(objective.value(res.state), seq)
    return reducer


# ---------------------------------------------------------------------------
# Multi-block construction (greedy)
# ---------------------------------------------------------------------------

def _greedy_k_blocks(
    state: State,
    space: OrderingSpace,
    objective,
    budget: SearchBudget,
    pruning: bool,
    workers: int,
) -> tuple[EvReport, list[int]]:
    """Greedy per-block concatenation; returns the report and the cumulative
    objective value after each block (used by the weighted-MEV series)."""
    space = space.labeled()
    pending: list[Tx] = []
    labels: list[str] = []
    paths = 0
    per_block: list[int] = []
    current = state
    for b in range(space.k):
        pending += [tx for tx in space.mempool if tx.arrival_block == b]
        sub = replace(space, mempool=tuple(pending), k=1)
        rep = search(sub, budget, objective, state=current, pruning=pruning, workers=workers)
        paths += rep.paths_explored
        chosen = list(rep.best_ordering)
        by_label = {tx.label: tx for tx in sub.mempool + sub.templates}
        txs = [by_label[lbl] for lbl in chosen]
        res = apply_sequence(current, txs, "skip_invalid", space.fee_policy())
        current = res.state.with_block(res.state.block_number + 1)
        chosen_set = set(chosen)
        pending = [tx for tx in sub.mempool if tx.label not in chosen_set]
        if b:
            labels.append(BLOCK_BREAK_LABEL)
        labels.extend(chosen)
        per_block.append(objective.value(current))
    report = EvReport(
        best_value=per_block[-1] if per_block else objective.value(current),
        best_ordering=tuple(labels),
        paths_explored=paths,
        exhaustive=False,
    )
    return report, per_block


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def search(
    space: OrderingSpace,
    budget: SearchBudget,
    objective,
    state: State,
    pruning: bool = True,
    want_worst: bool = False,
    workers: int = 1,
) -> EvReport:
    """Best (and optionally worst) objective value over the feasible space.

    Exhaustive whenever ``budget`` allows full coverage of the pruned space;
    otherwise seeded uniform sampling without replacement (greedy per-block
    search for ``k > 1``).  Reports are bit-identical for any ``workers``
    value.
    """
    if budget.mode not in ("exhaustive", "randomized"):
        raise ScenarioError(f"unknown budget mode: {budget.mode!r}")
    if space.k > 1 and budget.mode == "randomized":
        report, _ = _greedy_k_blocks(state, space, objective, budget, pruning, workers)
        return report

    tree = _Tree(space, pruning, objective.tracked)
    if budget.mode == "exhaustive":
        return _exhaustive(tree, state, objective, want_worst, workers).report(tree.items, True)

    # Randomized budget: tractable instances get one capped exhaustive
    # attempt; if the pruned space fits in max_paths the result is exact.
    if len(tree.items) <= budget.tractability_threshold:
        try:
            reducer = _exhaustive(tree, state, objective, want_worst, 1, cap=budget.max_paths)
        except _OverBudget:
            pass
        else:
            return reducer.report(tree.items, True)

    seqs = _sample_sequences(tree, budget)
    return _evaluate_sequences(tree, state, seqs, objective, want_worst).report(tree.items, False)
