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
count.  With ``workers > 1``, exhaustive searches (any ``k``) split the
subtrees under the walker's depth-2 prefixes between forked workers, the
parent folding one share itself.

Two reductions cut the walk; both keep the values and witnesses exact.

Sleep sets (Godefroid, LNCS 1032, 1996).  Every item has a static footprint:
its venue, the actor's balances in the tokens the action can move, a CDP
book's price source or a claim's oracle pool, and the fee-token balances of
the actor and the collector when fees are charged.  Two items with disjoint
footprints commute bit for bit from any state, failures included, since
neither can change what the other reads.  After item ``b`` the walk puts to
sleep every item below ``b`` that was on offer, and keeps asleep every
sleeper independent of ``b``; a sleeping item is not placed until an item it
depends on wakes it, and a block break wakes all.  With reordering off, two
mempool items never count as independent.  The walk then reaches exactly one
construction per class of orderings that differ by swapping adjacent
independent items: the lexicographically smallest (its normal form,
Anisimov & Knuth, 1979).  Without censoring, a node where some transaction
can never wake up has no construction under it and is cut.

Run collapse.  Within maximal runs of same-direction exact-input swaps on one
pool, permutations collapse into one representative ordered by mempool
index.  Constant-product math is only order-independent up to integer
rounding, so the search verifies every collapse: an inversion is skipped only
when swapping the adjacent pair provably leaves the pool state bit-identical
and both actors are single-shot accounts the objective ignores (their own
balances then never influence anything downstream).  Repeated identical
trades always collapse; distinct wei-scale trades collapse exactly when the
rounding happens to agree.  The stateless enumeration API applies the
syntactic rule only.

Why the witnesses do not move: a skipped construction always has a smaller
key with the same value (the sleeping item moved forward, or the verified
pair swapped).  So the smallest key among the best-valued constructions is
never skipped, and the same holds for the worst.  Only ``paths_explored`` and
``paths_total`` change: they count the constructions left after reduction,
one per equivalence class, not the raw orderings.

Instances too large to enumerate fall back to seeded uniform sampling of
orderings (Fisher-Yates shuffles, deduplicated); the original mempool order
is always evaluated first, so the reported best is never below the untouched
ordering's value.  Multi-block spaces under a randomized budget are searched
greedily, one block at a time.

Sampling evaluates only the objective's slice of each sample (cone of
influence: Clarke, Grumberg & Peled, 1999; Weiser, 1984).  An item is
relevant when it is connected, through footprints that share a key, to an
item that touches a balance of an account the objective tracks, or to one
whose application may raise.  Every other item has a footprint disjoint from
every relevant one, so it commutes with all of them and can move to the end
of the sample, where it writes no balance the objective reads: the value of
the relevant items alone is the sample's value, bit for bit.  Without
footprints (the sleep sets off, or one item dependent on everything) every
item is relevant.  The projections are evaluated in sorted order, each one
starting from the state of its longest common prefix with the one before, so
a prefix shared by many samples is applied once.  Each sample keeps its own
key, so the reports do not change.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
from dataclasses import dataclass, replace
from itertools import islice

from . import contracts
from .state import (
    CDP_KINDS,
    CdpManipulate,
    FeePolicy,
    GetReward,
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

    def __post_init__(self):
        if self.mode not in ("exhaustive", "randomized"):
            raise ScenarioError(f"unknown budget mode: {self.mode!r}")
        if self.max_paths < 1:
            raise ScenarioError(f"budget max_paths must be >= 1, got {self.max_paths}")


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

# Reduction levels of the walker, as bit flags.
_RUN = 1  # collapse verified same-direction swap runs
_SLEEP = 2  # footprint sleep sets
_FULL = _RUN | _SLEEP


def _footprint(tx: Tx, deployed, space: OrderingSpace) -> frozenset | None:
    """Everything ``tx`` can read or write, from any state: its venue, the
    actor's balances in the tokens the action can move, a CDP book's price
    source or a claim's oracle pool, and the actor's and the collector's
    fee-token balances when a fee is charged.  ``None`` (dependent on every
    item) when the action's tokens live in a contract and ``deployed`` is
    not given, or when the venue holds a contract of a type with no branch
    here, whose rules may move anything."""
    action = tx.action
    keys = {tx.venue}
    contract = None if deployed is None else deployed.get(tx.venue)
    if contract is not None and not isinstance(
        contract, (contracts.AmmPool, contracts.MakerBook, contracts.Pricebet)
    ):
        return None
    if type(action) is Swap:
        tokens = (action.token_in, action.token_out)
    elif deployed is None:
        return None
    else:
        tokens = ()
        if isinstance(contract, contracts.AmmPool):
            tokens = (contract.token_x, contract.token_y)
        elif isinstance(contract, contracts.MakerBook):
            tokens = (contract.loan_token, contract.collateral_token)
            keys.add(contract.price_source)
        elif isinstance(contract, contracts.Pricebet):
            tokens = (contract.token,)
            if type(action) is GetReward:
                keys.add(contract.oracle)
    keys.update((tx.actor, token) for token in tokens)
    if space.charge_fees and tx.fee > 0:
        keys.update(((tx.actor, space.fee_token), (space.miner, space.fee_token)))
    return frozenset(keys)


def _may_raise(tx: Tx, deployed) -> bool:
    """Can applying ``tx`` raise instead of succeeding or failing?  An
    unbound insertion size, an unknown CDP action, and a CDP book's price
    source or a claim's oracle that is not a pool over the tokens it prices.
    Contract types do not change during a search, so neither does this."""
    action = tx.action
    if type(action) is Swap:
        return action.amount is None
    contract = deployed.get(tx.venue)
    if isinstance(contract, contracts.MakerBook):
        if type(action) is CdpManipulate and action.kind not in CDP_KINDS:
            return True
        source = deployed.get(contract.price_source)
        return contract.oracle_price is None and not (
            isinstance(source, contracts.AmmPool)
            and source.has_token(contract.loan_token)
            and source.has_token(contract.collateral_token)
        )
    if isinstance(contract, contracts.Pricebet) and type(action) is GetReward:
        oracle = deployed.get(contract.oracle)
        return not (isinstance(oracle, contracts.AmmPool) and oracle.has_token(contract.token))
    return False


def _relevant(items: tuple[Tx, ...], prints: list[frozenset], tracked, deployed) -> int:
    """Bitmask of the items whose footprint-connected component holds a
    balance of a ``tracked`` account or an item that may raise."""
    holders: dict = {}
    for i, keys in enumerate(prints):
        for key in keys:
            holders[key] = holders.get(key, 0) | 1 << i
    todo = 0
    for i, tx in enumerate(items):
        if _may_raise(tx, deployed) or any(
            type(key) is tuple and key[0] in tracked for key in prints[i]
        ):
            todo |= 1 << i
    relevant = 0
    while todo:
        low = todo & -todo
        relevant |= low
        for key in prints[low.bit_length() - 1]:
            todo |= holders[key]
        todo &= ~relevant
    return relevant


def _step(state: State, tx: Tx, fee_policy: FeePolicy | None) -> State:
    """``tx`` applied in skip-invalid mode: the successor, or ``state`` itself
    when ``tx`` fails or its venue holds no contract.  ``apply_tx`` is looked
    up on this module at call time, so tracing can wrap it."""
    try:
        nxt = apply_tx(state, tx, fee_policy)
    except UnknownVenueError:
        return state
    return state if nxt is None else nxt


def _commutes(state: State, tx_p: Tx, tx_c: Tx) -> bool:
    """Would swapping this adjacent same-pool, same-direction pair leave the
    pool bit-identical?

    Both actors are single-shot and untracked, so only the pool's final
    reserves can influence anything downstream; validity of either swap is
    order-independent (neither touches the other's balance).  The swap math
    is looked up on the module at call time, so tracing can wrap it.
    """
    pool0 = state.contracts.get(tx_p.venue)
    if not isinstance(pool0, contracts.AmmPool):
        return True  # both orders are no-ops on a non-pool venue

    def step(pool, tx):
        a = tx.action
        if state.balances.get((tx.actor, a.token_in), 0) < a.amount:
            return pool
        res = contracts.amm_swap_exact_in(pool, a.token_in, a.amount)
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

    The one independence test has a static half and a dynamic half.  Static:
    ``indep[i]`` is the bitmask of the items whose footprints are disjoint
    from item ``i``'s (with reordering off, two mempool items never count as
    independent).  Dynamic: ``runs[i]`` is item ``i``'s run key, and two
    adjacent items of equal run key swap when ``_commutes`` verifies it.  Run
    keys go to exact-input swaps by single-shot actors the objective does not
    track: an account with several transactions can gate later guards through
    its own balance.

    ``relevant`` is the bitmask of the items the objective can see: those
    footprint-connected to a balance of a tracked account or to an item that
    may raise.  Without footprints every item is relevant.  Only the sampler
    reads it.
    """

    __slots__ = ("space", "items", "waves", "templates", "runs", "indep", "relevant")

    def __init__(
        self, space: OrderingSpace, reduction: int, tracked: frozenset[str], deployed=None
    ):
        if space.k < 1:
            raise ScenarioError("k must be >= 1")
        space = space.labeled()
        mempool = tuple(tx for tx in space.mempool if 0 <= tx.arrival_block < space.k)
        items = mempool + space.templates
        self.space = space
        self.items = items
        self.waves = tuple(
            tuple(i for i, tx in enumerate(mempool) if tx.arrival_block == block)
            for block in range(space.k)
        )
        self.templates = tuple(range(len(mempool), len(items)))

        counts: dict[str, int] = {}
        for tx in items:
            counts[tx.actor] = counts.get(tx.actor, 0) + 1
        self.runs = [
            (tx.venue, tx.action.token_in, tx.action.token_out)
            if reduction & _RUN
            and type(tx.action) is Swap
            and not tx.action.exact_out
            and tx.action.amount is not None
            and counts[tx.actor] == 1
            and tx.actor not in tracked
            and tx.actor != space.miner
            else None
            for tx in items
        ]

        n = len(items)
        self.indep = [0] * n
        self.relevant = (1 << n) - 1
        if reduction & _SLEEP:
            prints = [_footprint(tx, deployed, space) for tx in items]
            if None not in prints:
                self.relevant = _relevant(items, prints, tracked, deployed)
            for i in range(n):
                for j in range(i):
                    if (
                        prints[i] is not None
                        and prints[j] is not None
                        and prints[i].isdisjoint(prints[j])
                        and (space.allow_reorder or i >= len(mempool))
                    ):
                        self.indep[i] |= 1 << j
                        self.indep[j] |= 1 << i

    def _dead(self, sleep: int, mem_rem: tuple[int, ...], tpl_rem: tuple[int, ...]) -> bool:
        """Can some remaining mempool item never be placed?  Only the awake
        remaining items, and the sleepers that depend on something
        placeable, can be; without censoring the node then has no leaf."""
        indep = self.indep
        mem_bits = 0
        for i in mem_rem:
            mem_bits |= 1 << i
        reach = mem_bits
        for i in tpl_rem:
            reach |= 1 << i
        reach &= ~sleep
        asleep = sleep
        while True:
            woken = 0
            rest = asleep
            while rest:
                low = rest & -rest
                rest ^= low
                if reach & ~indep[low.bit_length() - 1]:
                    woken |= low
            if not woken:
                return bool(asleep & mem_bits)
            reach |= woken
            asleep ^= woken

    def walk(self, state: State | None, prefix: tuple[int, ...] = (), max_len: int | None = None):
        """Yield ``(key, state)`` once for every construction whose key
        extends ``prefix`` and survives the reduction.

        Item ``b`` is skipped when it is asleep, or when it collapses with
        the item before it.  After ``b`` the sleep mask becomes
        ``(sleep | the choices below b) & indep[b]``; it resets at
        ``BLOCK_BREAK``.  The mask does not depend on which siblings were
        walked, so a walk that follows ``prefix`` builds the same subtree as
        the full walk.  Without censoring, a node of the last block where
        some transaction can never wake up is cut.

        With a state, each step is applied in skip-invalid mode and a run
        collapse is taken only when ``_commutes`` verifies it; without one,
        the yielded states are ``None`` and collapses are not verified.
        With ``max_len`` the walk stops at that depth and also yields every
        node there, complete or not: those nodes are work-unit prefixes.
        """
        items, runs, indep, waves, templates = (
            self.items, self.runs, self.indep, self.waves, self.templates,
        )
        space = self.space
        reorder, censor, insert = space.allow_reorder, space.allow_censor, space.allow_insert
        free = reorder or censor
        last = space.k - 1
        fee_policy = None if state is None else space.fee_policy()
        sleepy = any(indep)
        n_prefix = len(prefix)
        seq: list[int] = []

        def node(st, block, mem_rem, tpl_rem, prev_run, prev_idx, prev_state, sleep):
            depth = len(seq)
            if depth == max_len:
                yield tuple(seq), st
                return
            want = prefix[depth] if depth < n_prefix else None
            if block == last:
                if sleep and mem_rem and not censor and self._dead(
                    sleep, mem_rem, tpl_rem if insert else ()
                ):
                    return
                # Without censoring, every admitted transaction is placed.
                if want is None and (censor or not mem_rem):
                    yield tuple(seq), st
            elif want is None or want == BLOCK_BREAK:
                seq.append(BLOCK_BREAK)
                yield from node(
                    None if st is None else st.with_block(st.block_number + 1),
                    block + 1, mem_rem + waves[block + 1], templates, None, -1, None, 0,
                )
                seq.pop()
            mem_choices = mem_rem if free else mem_rem[:1]
            n_mem_choices = len(mem_choices)
            choices = mem_choices + tpl_rem if insert else mem_choices
            offered = 0
            if sleepy:
                for idx in choices:
                    offered |= 1 << idx
            for pos, idx in enumerate(choices):
                if want is not None and idx != want:
                    continue
                if sleep >> idx & 1:
                    continue
                run = runs[idx]
                if (
                    run is not None
                    and run == prev_run
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
                nxt = None if st is None else _step(st, items[idx], fee_policy)
                seq.append(idx)
                yield from node(
                    nxt, block, nxt_mem, nxt_tpl, run, idx, st,
                    (sleep | offered & ((1 << idx) - 1)) & indep[idx],
                )
                seq.pop()

        return node(state, 0, waves[0], templates, None, -1, None, 0)


def iter_sequences(
    space: OrderingSpace, pruning: bool = True, tracked: frozenset[str] = frozenset()
):
    """Yield every feasible single-block sequence exactly once, as tuples of
    item indices (mempool 0..n-1 in original order, then templates).

    With ``pruning``, keeps one sequence per class of swaps of adjacent
    independent items, where only swaps have footprints (there are no
    contracts to read other actions' tokens from), and applies the syntactic
    collapse rule (index-sorted runs of single-shot untracked same-direction
    swaps); the stateful search additionally verifies each collapse against
    the integer pool arithmetic.
    """
    if space.k != 1:
        raise ScenarioError("iter_sequences enumerates single-block spaces")
    for key, _ in _Tree(space, _FULL if pruning else 0, tracked).walk(None):
        yield key


def count_sequences(
    space: OrderingSpace, pruning: bool = True, tracked: frozenset[str] = frozenset()
) -> int:
    """Number of feasible (pruned) sequences of a single-block space."""
    return sum(1 for _ in iter_sequences(space, pruning, tracked))


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

class _Reducer:
    """Deterministic max/min fold over (value, sequence-key) pairs."""

    __slots__ = ("best", "worst", "paths")

    def __init__(self):
        self.best = None  # (value, key)
        self.worst = None
        self.paths = 0

    def offer(self, value: int, key: tuple[int, ...]) -> None:
        self.paths += 1
        b = self.best
        if b is None or value > b[0] or (value == b[0] and key < b[1]):
            self.best = (value, key)
        w = self.worst
        if w is None or value < w[0] or (value == w[0] and key < w[1]):
            self.worst = (value, key)

    def merge(self, other: "_Reducer") -> None:
        """Fold in another reducer's extremes and path count."""
        paths = self.paths + other.paths
        if other.best is not None:
            self.offer(*other.best)
            self.offer(*other.worst)
        self.paths = paths

    def report(self, items: tuple[Tx, ...], exhaustive: bool, want_worst: bool) -> EvReport:
        """The report, with witness labels built for the final keys only;
        the worst is left out unless the caller asked for it."""
        (best_value, best_key), (worst_value, worst_key) = self.best, self.worst
        return EvReport(
            best_value=best_value,
            best_ordering=_labels_for(items, best_key),
            paths_explored=self.paths,
            exhaustive=exhaustive,
            worst_value=worst_value if want_worst else None,
            worst_ordering=_labels_for(items, worst_key) if want_worst else None,
            paths_total=self.paths if exhaustive else None,
        )


def _fold_walk(walk, objective) -> _Reducer:
    """Fold every ``(key, state)`` pair of ``walk``."""
    reducer = _Reducer()
    value_of = objective.value
    offer = reducer.offer
    for key, st in walk:
        offer(value_of(st), key)
    return reducer


def _fold_share(tree: _Tree, state: State, objective, units, first: int, step: int):
    """Fold the subtrees of ``units[first::step]`` into one reducer.  The
    share stops at its first failing unit; the failure comes back as
    ``(unit index, exception)`` in place of raising."""
    reducer = _Reducer()
    for index in range(first, len(units), step):
        try:
            reducer.merge(_fold_walk(tree.walk(state, units[index]), objective))
        except Exception as e:
            return reducer, (index, e)
    return reducer, None


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform says."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _exhaustive(tree: _Tree, state: State, objective, workers: int) -> _Reducer:
    """Fold every construction of the tree.

    With ``workers > 1`` the subtrees under the walk's depth-2 prefixes are
    the work units, split over ``procs = min(workers, units, usable CPUs)``
    processes: ``procs - 1`` forked workers, the parent folding one share
    itself.  Process ``j`` folds the interleaved share ``units[j::procs]``,
    and each worker pickles its reducer back over its own pipe.  The merge
    does not depend on the order of its folds, and after the short
    sequences a failure re-raises the one of the lowest-indexed failing
    unit, so neither reports nor errors depend on the number of processes.
    Every worker is reaped before this returns or raises, and killed first
    if the parent stops before it has the worker's result.
    """
    if workers <= 1:
        return _fold_walk(tree.walk(state), objective)

    # Depth-2 prefixes load-balance far better than first items.  Sequences
    # shorter than 2 are folded here; every longer one extends exactly one
    # depth-2 prefix, whose subtree is one work unit.
    shallow = list(tree.walk(state, max_len=2))
    reducer = _fold_walk(((key, st) for key, st in shallow if len(key) < 2), objective)
    units = [key for key, _ in shallow if len(key) == 2]
    procs = max(1, min(workers, len(units), _usable_cpus()))
    pids: list[int] = []  # forked and not yet reaped
    pipes = []
    try:
        for first in range(1, procs):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    data = pickle.dumps(_fold_share(tree, state, objective, units, first, procs))
                    with os.fdopen(write_fd, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            pids.append(pid)
            pipes.append(os.fdopen(read_fd, "rb"))
        shares = [_fold_share(tree, state, objective, units, 0, procs)]
        for pipe in pipes:
            data = pipe.read()
            pid = pids[0]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pids[0]
            if code or not data:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise RuntimeError(f"search worker {pid} {how} without sending its result")
            shares.append(pickle.loads(data))
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    for share, _ in shares:
        reducer.merge(share)
    return reducer


# ---------------------------------------------------------------------------
# Randomized sampling
# ---------------------------------------------------------------------------

def _sample_sequences(tree: _Tree, budget: SearchBudget) -> list[tuple[int, ...]]:
    """Distinct single-block orderings sampled uniformly: identity first, then
    seeded Fisher-Yates shuffles, without replacement.

    Stops at ``max_paths`` orderings, after ``max(50 x max_paths, 1000)``
    draws, or after ``MAX_DUPLICATE_RUN`` draws in a row that were all seen
    before (the space is then all but exhausted).
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


def _evaluate_sequences(tree: _Tree, state: State, seqs: list[tuple[int, ...]]):
    """Yield ``(key, state)`` for every sampled sequence, in the order of
    their projections, where the state is that of the sequence's relevant
    items alone, applied in skip-invalid mode.

    The objective reads that state's tracked balances exactly as it would
    read the whole sequence's (see the module docstring).  The projections
    are walked in sorted order over a stack of states, ``stack[d]`` being
    the state after the first ``d`` items of the previous projection, so a
    projection applies only the items past its longest common prefix with
    the one before it: one ``apply_tx`` per distinct non-empty prefix.  The
    fold does not depend on the order of its offers.
    """
    items, relevant = tree.items, tree.relevant
    fee_policy = tree.space.fee_policy()
    # A projection is a string with one character, chr(index), per relevant
    # item.  It sorts as the tuple of indices would, and it is freed when the
    # fold ends, where thousands of tuples of assorted lengths would stay
    # behind in the interpreter's tuple free lists.
    code = [chr(i) if relevant >> i & 1 else "" for i in range(len(items))]
    stack = [state]
    prev = ""
    for proj, seq in sorted(("".join([code[i] for i in seq]), seq) for seq in seqs):
        if proj != prev:
            common = 0
            for a, b in zip(proj, prev):
                if a != b:
                    break
                common += 1
            del stack[common + 1:]
            st = stack[common]
            for c in proj[common:]:
                st = _step(st, items[ord(c)], fee_policy)
                stack.append(st)
            prev = proj
        yield seq, stack[-1]


def _search_tree(
    tree: _Tree, state: State, objective, budget: SearchBudget, workers: int
) -> tuple[_Reducer, bool]:
    """Fold the tree under the budget; also says whether the fold was
    exhaustive.  A randomized budget gives tractable trees one capped
    exhaustive attempt (exact when the pruned space fits in ``max_paths``)
    and samples single-block orderings otherwise."""
    if budget.mode == "exhaustive":
        return _exhaustive(tree, state, objective, workers), True
    if len(tree.items) <= budget.tractability_threshold:
        # One construction past the cap tells a space that fits from one that does not.
        reducer = _fold_walk(islice(tree.walk(state), budget.max_paths + 1), objective)
        if reducer.paths <= budget.max_paths:
            return reducer, True
    seqs = _sample_sequences(tree, budget)
    return _fold_walk(_evaluate_sequences(tree, state, seqs), objective), False


# ---------------------------------------------------------------------------
# Multi-block construction (greedy)
# ---------------------------------------------------------------------------

def _greedy_k_blocks(
    state: State,
    space: OrderingSpace,
    objective,
    budget: SearchBudget,
    reduction: int,
    workers: int,
) -> tuple[EvReport, list[int]]:
    """Greedy per-block concatenation; returns the report and the cumulative
    objective value after each block (used by the weighted-MEV series).

    Each block is a one-block search over the transactions pending so far,
    including that block's arrivals; whatever its best construction leaves
    out stays pending for the next block."""
    space = space.labeled()
    fee_policy = space.fee_policy()
    pending: tuple[Tx, ...] = ()
    chosen: list[Tx | None] = []  # None marks a block break
    paths = 0
    per_block: list[int] = []
    current = state
    for b in range(space.k):
        pending += tuple(replace(tx, arrival_block=0) for tx in space.mempool if tx.arrival_block == b)
        tree = _Tree(
            replace(space, mempool=pending, k=1), reduction, objective.tracked, current.contracts
        )
        reducer, _ = _search_tree(tree, current, objective, budget, workers)
        paths += reducer.paths
        key = reducer.best[1]
        txs = [tree.items[i] for i in key]
        res = apply_sequence(current, txs, "skip_invalid", fee_policy)
        current = res.state.with_block(res.state.block_number + 1)
        taken = set(key)
        # The first len(pending) items are the pending transactions, in order.
        pending = tuple(tx for i, tx in enumerate(tree.items[:len(pending)]) if i not in taken)
        if b:
            chosen.append(None)
        chosen += txs
        per_block.append(objective.value(current))
    report = EvReport(
        best_value=per_block[-1],
        best_ordering=tuple(BLOCK_BREAK_LABEL if tx is None else tx.label for tx in chosen),
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

    Exhaustive whenever ``budget`` allows full coverage of the reduced space;
    otherwise seeded uniform sampling without replacement (greedy per-block
    search for ``k > 1``).  ``pruning`` turns both reductions on or off;
    under an exhaustive budget the values and witnesses do not depend on it.
    Reports are bit-identical for any ``workers`` value.
    """
    return _search(space, budget, objective, state, _FULL if pruning else 0, want_worst, workers)


def _search(
    space: OrderingSpace,
    budget: SearchBudget,
    objective,
    state: State,
    reduction: int,
    want_worst: bool,
    workers: int,
) -> EvReport:
    if space.k > 1 and budget.mode == "randomized":
        report, _ = _greedy_k_blocks(state, space, objective, budget, reduction, workers)
        return report

    tree = _Tree(space, reduction, objective.tracked, state.contracts)
    reducer, exhaustive = _search_tree(tree, state, objective, budget, workers)
    return reducer.report(tree.items, exhaustive, want_worst)
