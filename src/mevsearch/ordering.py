"""Feasible block construction and ordering search.

The miner action model: starting from the pending mempool, a miner may
reorder transactions, censor them (drop any subset), and insert its own
template transactions at arbitrary positions, per the space's flags, over
``k`` consecutive blocks.  One walker enumerates every feasible construction
exactly once, depth-first: each step either closes the block (``BLOCK_BREAK``;
the next block admits its arrival wave and re-offers the templates) or appends
a transaction.  Searches reduce the objective's values to the best/worst with
a deterministic tie-break: among equal values the lexicographically smallest
item-index sequence wins, items being numbered by arrival block and then
mempool position (``_Tree``), so reports are identical for any worker count.
With ``workers > 1``, the exact search of a tree that compiles (below), at
any ``k``, splits the subtrees under its depth-2 nodes between forked
workers, the parent folding one share itself, when the tree has more than
``FORK_CROSSOVER`` collapsed offers (below); if any part of that fails, the
search is folded again in one process, so the report or error is the
one-worker one.  Every other exact search folds in one process.

One context table drives every walk and count.  The subtree under a walk
node depends only on the node's context: the block, the bitmask of the
remaining mempool items and templates, and the sleep mask (below).
``_Tree.expand`` gives a context's leaf flag and children once, and the table
keeps them: ``walk`` yields keys from it in increasing order, reading no
state, and ``count`` sums it without enumerating a key.

Folds apply items in skip-invalid mode (a user transaction that fails under
some ordering is censored-by-failure, not a dead branch), and a step runs
only on a path that ends in a construction, so the first error in walk order
is the one a search raises.  The exact fold of a tree that compiles (below)
is one recursion over the context table, ``_fold_tree``: it trades each step
on the way down and undoes it on return.  The sampler's ``_fold`` applies
each sampled path from the state of its longest common prefix with the path
before, through ``_fold_tree`` too when the tree compiles.  The exact fold of
any other tree folds the DAG instead of the tree: under a node, the keys
depend only on the context and the values only on the state, and putting a
prefix in front of suffixes keeps their order, so the number of
constructions under a node and its best and worst values, each with its
smallest suffix, depend only on the (context, state) pair (sleep sets
with state caching: Godefroid, LNCS 1032, 1996; stateful partial-order
reduction: Yang, Chen, Gopalakrishnan & Kirby, SPIN 2008).  ``_DagFold``
memoises the best and worst value on the pair, visiting the children in walk
order and stepping into a child only where its count is not zero, so the
steps and errors are those of the tree fold.  The path count is the context
table's, and each witness is read back from the root afterwards, the
traceback of dynamic programming (Bellman, 1957): at each node, the smallest
item whose child's memo holds the extreme.  So the witnesses are the tree
fold's too, and reading them back applies no step and calls no objective.  It
numbers each state once, by its block number and its key: its balances' items
and its contracts, which compare and hash by value (``contracts``).  It keeps
the number each (state, item) pair steps to and the value of each leaf state,
so a step runs once per distinct (state, item) pair and the objective once
per distinct leaf state, however many contexts reach them.  The number holds
the block number because a claim reads it (a price bet's deadline), and a
block break changes nothing else.
The memo pays only where it is shared, so this fold runs in one process at
any worker count (split over forked workers, each process would build its
own memo and apply more steps in all).

Every exact fold collapses quiet suffixes (the suffix case of the cone of
influence, below; where a branch-and-bound bound is tight: Land & Doig,
1960).  An item is quiet when it has a footprint (below) holding no balance
of a tracked account and cannot raise; a context is quiet when every item
still placeable under it is: the remaining mempool items and templates, the
later waves, and the templates re-offered before the last block.  Every
construction under a quiet node then has the value of the node's state,
since the objective reads only tracked balances (``metrics``), so the fold
offers that value once, weighted by the node's count of constructions and
keyed by its least key, the first one the walk yields there, and applies no
step past the node: the best, worst, witnesses and path counts are those of
the uncollapsed fold.  The collapse needs footprints and the deployed
contracts, so the unreduced tree never collapses, and it trusts only the
package's own objectives, by exact type.  A fork costs more than a small
fold saves, so a compiled tree forks only when its count of collapsed
offers, a capped count of the context table that stops at quiet nodes,
passes ``FORK_CROSSOVER``.

Swap-only trees fold on plain ints.  When no fee is charged, the objective is
a ``PlayerDelta`` or an ``AccountBalanceValue``, and every item is a ``Swap``
of a bound size at a venue that holds an ``AmmPool`` or nothing, the fold
compiles the items once (``_SwapInts``, the compiler that insertion's
``_SwapTail`` also uses): each touched balance and each pool reserve is a
slot of an int list, each step is one ``contracts.swap_amounts`` call with
``_exec_swap``'s balance guard, undone as the recursion returns from it or as
``_fold_tree`` backs up to the common prefix of the next sampled path or work
unit.  The values are bit for bit those of the ``State`` path, which every
other tree takes and which is the kernel's test oracle.

Two sources of independence cut the walk; both keep the values and
witnesses exact.

Sleep sets (Godefroid, LNCS 1032, 1996).  Every item has a static footprint:
its venue, the actor's balances in the tokens the action can move, a CDP
book's price source or a claim's oracle pool, and the fee-token balances of
the actor and the collector when fees are charged.  Two items with disjoint
footprints commute bit for bit from any state, failures included, since
neither can change what the other reads.  So do two identical exact-input
swaps (one pool, direction and amount) by single-shot accounts the objective
does not track, the miner excepted, except for their two actors' balances:
each one's validity reads only its own actor's balances, and the pool sees
the same amounts in either order (the miner collects the same fees, too).
The outputs may trade places, but nothing reads those balances again.
After item ``b`` the walk puts to sleep every item below ``b`` that was on
offer, and keeps asleep every sleeper independent of ``b``; a sleeping item
is not placed until an item it depends on wakes it, and a block break wakes
all.  With reordering off, two mempool items never count as independent.
The walk then reaches exactly one construction per class of orderings that
differ by swapping adjacent independent items: the lexicographically
smallest (its normal form, Anisimov & Knuth, 1979).  Without censoring, a
node where some transaction can never wake up has no construction under it
and is cut.

Why the witnesses do not move: a skipped construction always has a smaller
key with the same value (the sleeping item moved forward).  So the smallest
key among the best-valued constructions is never skipped, and the same holds
for the worst.  Only ``paths_explored`` and ``paths_total`` change: they
count the constructions left after reduction, one per equivalence class, not
the raw orderings.

A randomized budget folds a tree of at most ``tractability_threshold`` items
exactly when the context table counts at most ``max_paths`` constructions, and
otherwise samples orderings before any step, deduplicated.  A draw keeps each
item on a coin flip where censoring or inserting lets it go, then shuffles
the kept items: seeded Fisher-Yates on the stream that ``random.Random.shuffle``
draws through ``getrandbits``, so the orderings of each drawn subset are
uniform (when censoring, not all orderings at once).  The original mempool
order is always evaluated first, so the reported best is never below the
untouched ordering's value.  Multi-block spaces under a randomized budget are
searched greedily.

Sampling evaluates only the objective's slice of each sample (cone of
influence: Clarke, Grumberg & Peled, 1999; Weiser, 1984).  An item is
relevant when it is connected, through footprints that share a key, to an
item that touches a balance of an account the objective tracks, or to one
whose application may raise.  Every other item has a footprint disjoint from
every relevant one, so it commutes with all of them and can move to the end
of the sample, where it writes no balance the objective reads: the value of
the relevant items alone is the sample's value, bit for bit.  Without
footprints (the sleep sets off, or one item dependent on everything) every
item is relevant.  For the package's own objectives a path then ends at its
last seed item, one that touches a tracked balance or may raise: the quiet
items after it cannot move the value or raise, as in the collapse above.
The paths are sorted and go through the same fold, so a prefix shared by
many samples is applied once, and a path shared by several is valued once.
Each sample keeps its own key, so the reports do not change.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import sys
from dataclasses import dataclass, replace

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
_UNSEEN = object()  # a cached entry not computed yet
# The sampler gives up after this many draws in a row that it had seen before.
MAX_DUPLICATE_RUN = 1000
# An exact search forks workers only for a compiled tree with more collapsed
# offers than this (``_Tree.count_offers``).  On a 2-CPU host, two-pool
# spreads of 360-930 offers mostly folded slower at 2 workers than at 1 (a
# fork costs a few ms), and from about 1,000 offers (8-12 ms in one process)
# mostly faster.
FORK_CROSSOVER = 1_000


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
    pruned space is counted (and folded exactly when it fits in
    ``max_paths``); above it the engine samples ``max_paths`` orderings.  The
    count visits each context once, up to 2^n of them for n mutually
    dependent transactions, but stops once it passes ``max_paths``.  A budget
    checks itself when built, as a scenario file does: a known ``mode``,
    ``max_paths`` at least 1, and ``seed`` and ``tractability_threshold`` at
    least 0.
    """

    mode: str = "randomized"  # "exhaustive" forces full enumeration
    max_paths: int = 400_000
    seed: int = 0
    tractability_threshold: int = 9

    def __post_init__(self):
        if self.mode not in ("exhaustive", "randomized"):
            raise ScenarioError(f"unknown budget mode: {self.mode!r}")
        for name, low in (("max_paths", 1), ("seed", 0), ("tractability_threshold", 0)):
            if getattr(self, name) < low:
                raise ScenarioError(f"budget {name} must be >= {low}, got {getattr(self, name)}")


@dataclass(frozen=True, slots=True)
class EvReport:
    """Search outcome: best and worst value with witnesses.  Only the greedy
    multi-block report (``k > 1`` under a randomized budget) and insertion
    sizing's report carry no worst."""

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

# The walker's sources of independence, as bit flags.
_RUN = 1  # identical swaps
_SLEEP = 2  # disjoint footprints
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


def _seeds(items: tuple[Tx, ...], prints: list[frozenset], tracked, deployed) -> int:
    """Bitmask of the items that touch a balance of a ``tracked`` account
    or may raise: the items the objective can see directly."""
    seeds = 0
    for i, tx in enumerate(items):
        if _may_raise(tx, deployed) or any(
            type(key) is tuple and key[0] in tracked for key in prints[i]
        ):
            seeds |= 1 << i
    return seeds


def _relevant(prints: list[frozenset], seeds: int) -> int:
    """Bitmask of the items whose footprint-connected component holds one
    of ``seeds``."""
    holders: dict = {}
    for i, keys in enumerate(prints):
        for key in keys:
            holders[key] = holders.get(key, 0) | 1 << i
    todo, relevant = seeds, 0
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


def _labels_for(items: tuple[Tx, ...], key: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(BLOCK_BREAK_LABEL if i == BLOCK_BREAK else items[i].label for i in key)


# ---------------------------------------------------------------------------
# Swaps on plain ints
# ---------------------------------------------------------------------------

class _SwapInts:
    """Swaps on constant-product pools, compiled to plain ints.

    Each touched ``(actor, token)`` balance gets a slot of ``balances`` and
    each pool an ``(x, y)`` pair of ``reserves``, as ``state`` holds them.
    Transaction ``j`` becomes ``steps[j] = (i, o, amount, fee_bps, exact_out,
    pay, get)``: the input and output sides' reserve slots, its size
    (``None`` while open), the pool's fee, its mode, and the actor's paying
    and receiving balance slots.  The step is ``None`` where ``apply_tx``
    never moves anything: no contract at the venue, a token the pool does
    not hold, or a token swapped for itself.

    ``value_at(balances)`` is the objective's ``value`` at those balances: a
    constant for the tokens no step moves, plus ``token_value(token, offset +
    the token's tracked slots)`` per moved token, ``offset`` being the
    token's ``deltas`` in ``state`` minus its tracked slots there.  So it
    takes the floors ``value(state)`` takes.  The objective must offer
    ``tracked``, ``valuation`` and ``deltas`` and read nothing else, and
    ``txs`` must pass ``_swaps_only``.
    """

    def __init__(self, state: State, txs: tuple[Tx, ...], objective):
        slots: dict[tuple[str, str], int] = {}
        pools: dict[str, int] = {}
        reserves: list[int] = []
        steps = []
        for tx in txs:
            swap, pool = tx.action, state.contracts.get(tx.venue)
            if (
                pool is None
                or swap.token_in == swap.token_out
                or {swap.token_in, swap.token_out} != {pool.token_x, pool.token_y}
            ):
                steps.append(None)
                continue
            if tx.venue not in pools:
                pools[tx.venue] = len(reserves)
                reserves += (pool.reserve_x, pool.reserve_y)
            at = pools[tx.venue]
            i, o = (at, at + 1) if swap.token_in == pool.token_x else (at + 1, at)
            pay = slots.setdefault((tx.actor, swap.token_in), len(slots))
            get = slots.setdefault((tx.actor, swap.token_out), len(slots))
            steps.append((i, o, swap.amount, pool.fee_bps, swap.exact_out, pay, get))
        self.steps = tuple(steps)
        self.reserves = reserves
        self.balances = [state.balance(*key) for key in slots]

        deltas = objective.deltas(state)
        tracked = objective.tracked
        touched: dict[str, list[int]] = {}
        for (actor, token), slot in slots.items():
            if actor in tracked:
                touched.setdefault(token, []).append(slot)
        token_value = objective.valuation.token_value
        self.constant = sum(token_value(t, d) for t, d in deltas.items() if t not in touched)
        self.tokens = tuple(
            (token, deltas.get(token, 0) - sum(self.balances[s] for s in ss), tuple(ss))
            for token, ss in touched.items()
        )
        self.token_value = token_value

    def value_at(self, balances: list[int]) -> int:
        total = self.constant
        for token, amount, slots in self.tokens:
            for slot in slots:
                amount += balances[slot]
            total += self.token_value(token, amount)
        return total


def _swaps_only(state: State, txs: tuple[Tx, ...]) -> bool:
    """Is every transaction a ``Swap`` at a venue that holds an ``AmmPool``
    or nothing?"""
    for tx in txs:
        pool = state.contracts.get(tx.venue)
        if type(tx.action) is not Swap or pool is not None and type(pool) is not contracts.AmmPool:
            return False
    return True


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

class _Tree:
    """The feasible constructions of a space, as a tree of item choices.

    Items are the mempool transactions that arrive within the ``k`` blocks,
    numbered by arrival block and then mempool position, followed by the
    templates; a construction's key is its tuple of item indices, with
    ``BLOCK_BREAK`` between blocks, so the items a block can place always
    hold the indices above those it has placed.  ``walk`` yields the keys in
    increasing order without reading a state; ``_fold_tree`` folds a
    compiled tree in the same order, quiet subtrees collapsed, and
    ``_DagFold`` any other tree.

    A walk node's subtree depends only on its *context*: the block, the
    bitmask of the remaining mempool items and templates (templates only
    when inserting), and the sleep mask.  Contexts are numbered as they are
    met, the root being 0, and ``expand`` computes each one's branching
    once; ``walk``, ``count`` and the DAG fold all read that table.

    Two items commute when ``indep[i]`` has bit ``j``: under ``_SLEEP`` when
    their footprints are disjoint, under ``_RUN`` when they have the same run
    key, and with reordering off never for two mempool items.  Run keys go to
    exact-input swaps of a bound amount by single-shot actors the objective
    does not track, the miner excepted: an account with several transactions
    can gate later guards through its own balance.

    ``relevant`` is the bitmask of the items the objective can see: those
    footprint-connected to a balance of a tracked account or to an item that
    may raise.  Without footprints every item is relevant.  Only the sampler
    reads it.  ``quiet`` is the bitmask of the items that touch no tracked
    balance and cannot raise; it is 0 without footprints or without the
    deployed contracts.  A context is quiet when every item still placeable
    under it is quiet (``expand``); a sampled path ends at its last item
    that is not.
    """

    __slots__ = (
        "space", "items", "templates", "indep", "relevant", "quiet",
        "_mem", "_admit", "_later", "_contexts", "_ids", "_rows", "_counts", "_offers", "_least",
    )

    def __init__(
        self, space: OrderingSpace, reduction: int, tracked: frozenset[str], deployed=None
    ):
        if space.k < 1:
            raise ScenarioError("k must be >= 1")
        if space.k > sys.getrecursionlimit():
            # Every construction holds k - 1 block breaks, and the counts and
            # folds recurse once per key element: fail before the tables of k.
            raise too_deep()
        space = space.labeled()
        mempool = sorted(
            (tx for tx in space.mempool if 0 <= tx.arrival_block < space.k),
            key=lambda tx: tx.arrival_block,
        )
        items = tuple(mempool) + space.templates
        n_mem, n = len(mempool), len(items)
        self.space = space
        self.items = items
        self.templates = range(n_mem, n)

        counts: dict[str, int] = {}
        for tx in items:
            counts[tx.actor] = counts.get(tx.actor, 0) + 1
        runs = [
            (tx.venue, tx.action.token_in, tx.action.token_out, tx.action.amount)
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

        prints = [_footprint(tx, deployed, space) if reduction & _SLEEP else None for tx in items]
        if None in prints:
            self.relevant, self.quiet = (1 << n) - 1, 0
        else:
            seeds = _seeds(items, prints, tracked, deployed)
            self.relevant = _relevant(prints, seeds)
            self.quiet = 0 if deployed is None else (1 << n) - 1 & ~seeds
        # _mem: the mempool items; _admit[block]: what the block adds to the
        # remaining items, its arrival wave and, when inserting, the
        # templates; _later[block]: what the block breaks after it add.
        self._mem = (1 << n_mem) - 1
        self._admit = [(1 << n) - 1 ^ self._mem if space.allow_insert else 0] * space.k
        for i, tx in enumerate(mempool):
            self._admit[tx.arrival_block] |= 1 << i
        self._later = [0] * space.k
        for block in range(space.k - 2, -1, -1):
            self._later[block] = self._later[block + 1] | self._admit[block + 1]
        self.indep = [0] * n
        for i in range(n):
            for j in range(i):
                if (space.allow_reorder or i >= n_mem) and (
                    runs[i] is not None and runs[i] == runs[j]
                    or prints[i] is not None
                    and prints[j] is not None
                    and prints[i].isdisjoint(prints[j])
                ):
                    self.indep[i] |= 1 << j
                    self.indep[j] |= 1 << i

        # Context i is _contexts[i]; _rows[i] is its expansion, _UNSEEN until
        # it is needed; _counts maps a context to its number of constructions,
        # _offers to its number of collapsed offers, _least to its least key.
        root = (0, self._admit[0], 0)
        self._contexts = [root]
        self._ids = {root: 0}
        self._rows: list = [_UNSEEN]
        self._counts: dict[int, int] = {}
        self._offers: dict[int, int] = {}
        self._least: dict[int, tuple[int, ...]] = {}

    def _dead(self, sleep: int, rem: int) -> bool:
        """Can some remaining mempool item never be placed?  Only the awake
        remaining items, and the sleepers that depend on something
        placeable, can be; without censoring the node then has no leaf."""
        indep = self.indep
        reach = rem & ~sleep
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
                return bool(asleep & self._mem)
            reach |= woken
            asleep ^= woken

    def _number(self, context: tuple) -> int:
        node = self._ids.get(context)
        if node is None:
            node = self._ids[context] = len(self._contexts)
            self._contexts.append(context)
            self._rows.append(_UNSEEN)
        return node

    def expand(self, node: int):
        """``(leaf, ((item, child), ...), quiet)`` for context ``node``:
        whether the node is a construction, its children in walk order, each
        with its own context's number, and whether the node is quiet.  A cut
        node is no construction, has no child and is not quiet.

        An item is skipped when it is asleep, and for no other reason.
        After ``b`` the sleep mask becomes ``(sleep | the choices below b) &
        indep[b]``; it resets at ``BLOCK_BREAK``, the first child of a node
        before the last block.  With reordering off, only the lowest
        remaining mempool item is a choice, unless censoring, and placing a
        mempool item censors the ones below it for good.  Without censoring,
        a node of the last block where some transaction can never wake up is
        cut, and a node of the last block is a construction only once every
        admitted transaction is placed.  The items still placeable are the
        remaining mempool items and templates, and what later block breaks
        add (``_later``); the node is quiet when all of them are.
        """
        row = self._rows[node]
        if row is not _UNSEEN:
            return row
        block, rem, sleep = self._contexts[node]
        space, indep, number = self.space, self.indep, self._number
        reorder, censor = space.allow_reorder, space.allow_censor
        mem = rem & self._mem
        children = []
        if block == space.k - 1:
            if not censor and sleep & mem and self._dead(sleep, rem):
                row = self._rows[node] = (False, (), False)
                return row
            leaf = censor or not mem
        else:
            leaf = False
            children.append((BLOCK_BREAK, number((block + 1, mem | self._admit[block + 1], 0))))
        # Without reordering or censoring, the mempool's only choice is its lowest item.
        choices = rem if reorder or censor else rem ^ mem & mem - 1
        rest = choices & ~sleep
        while rest:
            bit = rest & -rest
            rest ^= bit
            idx = bit.bit_length() - 1
            # Without reordering, the skipped transactions are censored for good.
            nxt_rem = rem & -(bit << 1) if not reorder and bit & mem else rem ^ bit
            nxt_sleep = (sleep | choices & bit - 1) & indep[idx]
            children.append((idx, number((block, nxt_rem, nxt_sleep))))
        quiet = bool(self.quiet) and not (self._later[block] | rem) & ~self.quiet
        row = self._rows[node] = (leaf, tuple(children), quiet)
        return row

    def count(self, node: int = 0, cap: float = float("inf")) -> int:
        """The number of constructions under context ``node``, without
        enumerating them; once the sum passes ``cap`` it stops there and
        returns the partial sum.  Only exact counts are kept."""
        n = self._counts.get(node)
        if n is None:
            leaf, children, _ = self.expand(node)
            n = int(leaf)
            for _, child in children:
                n += self.count(child, cap - n)
                if n > cap:
                    return n
            self._counts[node] = n
        return n

    def walk(self, node: int = 0, prefix: tuple[int, ...] = ()):
        """Yield the key of every construction under context ``node`` that
        survives the reduction, once each, depth-first, each behind
        ``prefix``."""
        leaf, children, _ = self.expand(node)
        if leaf:
            yield prefix
        for item, child in children:
            yield from self.walk(child, prefix + (item,))

    def least(self, node: int) -> tuple[int, ...]:
        """The smallest key under context ``node``, which holds a
        construction, the first one the walk yields there: ``()`` at a
        construction, else the first child's item that holds a construction
        followed by its least key."""
        key = self._least.get(node)
        if key is None:
            leaf, children, _ = self.expand(node)
            key = () if leaf else next(
                (item,) + self.least(child) for item, child in children if self.count(child)
            )
            self._least[node] = key
        return key

    def count_offers(self, node: int = 0, cap: float = float("inf")) -> int:
        """The number of offers an exact fold makes under context ``node``,
        one per construction outside quiet subtrees and one per quiet node
        that holds any, capped as ``count`` is: ``count`` stopping at quiet
        nodes."""
        n = self._offers.get(node)
        if n is None:
            leaf, children, quiet = self.expand(node)
            if quiet:
                n = int(self.count(node) > 0)
            else:
                n = int(leaf)
                for _, child in children:
                    n += self.count_offers(child, cap - n)
                    if n > cap:
                        return n
            self._offers[node] = n
        return n


def count_sequences(
    space: OrderingSpace, pruning: bool = True, tracked: frozenset[str] = frozenset()
) -> int:
    """Number of feasible single-block sequences.

    With ``pruning``, counts one sequence per class of swaps of adjacent
    independent items, as ``search`` does: identical swaps, and items with
    disjoint footprints, where only swaps have footprints (there are no
    contracts to read other actions' tokens from).  The tree counts from its
    context table, without enumerating a sequence.
    """
    if space.k != 1:
        raise ScenarioError("count_sequences counts single-block spaces")
    try:
        return _Tree(space, _FULL if pruning else 0, tracked).count()
    except RecursionError:
        raise too_deep() from None


def too_deep() -> ScenarioError:
    """The error of a search or count that nests deeper than the recursion
    limit: the walk, the counts, the least key and both exact folds recurse
    once per item and block break of a construction.  A tree of more blocks
    than the limit raises it when it is built."""
    return ScenarioError(
        f"the search nests deeper than the recursion limit of {sys.getrecursionlimit()} "
        "frames; lower k or the number of transactions"
    )


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

    def offer(self, value: int, key: tuple[int, ...], paths: int = 1) -> None:
        """Count ``paths`` constructions, ``key`` valued ``value`` among them."""
        self.paths += paths
        b = self.best
        if b is None or value > b[0] or (value == b[0] and key < b[1]):
            self.best = (value, key)
        w = self.worst
        if w is None or value < w[0] or (value == w[0] and key < w[1]):
            self.worst = (value, key)

    def merge(self, other: "_Reducer") -> None:
        """Fold in another reducer's path count and extremes, each extreme
        offered as a construction that adds no path.  Only ``_fold_forked``
        merges, once per worker."""
        self.paths += other.paths
        if other.best is not None:
            self.offer(*other.best, 0)
            self.offer(*other.worst, 0)

    def report(self, items: tuple[Tx, ...], exhaustive: bool) -> EvReport:
        """The report, with witness labels built for the final keys only."""
        (best_value, best_key), (worst_value, worst_key) = self.best, self.worst
        return EvReport(
            best_value=best_value,
            best_ordering=_labels_for(items, best_key),
            paths_explored=self.paths,
            exhaustive=exhaustive,
            worst_value=worst_value,
            worst_ordering=_labels_for(items, worst_key),
            paths_total=self.paths if exhaustive else None,
        )


def _own_objective(objective) -> bool:
    """Is the objective exactly a ``PlayerDelta`` or an
    ``AccountBalanceValue``, whose ``value`` reads nothing but the tracked
    balances, through ``valuation`` and ``deltas``?  The integer kernels
    (this module's and insertion's), the collapse of quiet subtrees and
    insertion's no-rounding bound trust no other objective, subclasses
    included."""
    from .metrics import AccountBalanceValue, PlayerDelta  # metrics imports this module

    return type(objective) in (PlayerDelta, AccountBalanceValue)


def _compiled(tree: _Tree, state: State, objective, fee_policy) -> _SwapInts | None:
    """The tree's items compiled to ints, when nothing but swaps and the
    objective's balances can matter: no fee policy, an ``_own_objective``,
    and every item a ``Swap`` of a bound size at a venue that holds an
    ``AmmPool`` or nothing.  An unbound size raises on the ``State`` path,
    so such a tree does not compile."""
    items = tree.items
    if (
        fee_policy is not None
        or not _own_objective(objective)
        or not _swaps_only(state, items)
        or any(tx.action.amount is None for tx in items)
    ):
        return None
    return _SwapInts(state, items, objective)


def _fold(tree: _Tree, state: State, objective, ints: _SwapInts | None, offers) -> _Reducer:
    """Fold the objective's value of every offer into one reducer.

    Each offer is a ``(key, path)`` pair: a construction keyed ``key`` and
    valued at the state ``path`` reaches from ``state``, each item applied
    in skip-invalid mode, each ``BLOCK_BREAK`` advancing the block number.
    A path applies only the steps past its longest common prefix with the
    one before it, and a path equal to the one before reuses its value, so
    fed sorted paths the fold applies one step per distinct non-empty
    prefix.  It does not depend on the order of its offers.  The sampler
    and the tests' key oracle fold here.

    When the tree compiles (``ints``, the caller's ``_compiled``), no
    ``State`` is built: the offers fold on the int lists of ``_SwapInts``
    through ``_fold_tree``.  Otherwise the states sit on a stack,
    ``stack[d]`` being the state after the first ``d`` steps of the
    previous path, and each step is one ``_step``.
    """
    if ints is not None:
        return _fold_tree(tree, ints, (), offers)
    items, fee_policy = tree.items, tree.space.fee_policy()
    reducer = _Reducer()
    offer, value_of = reducer.offer, objective.value
    stack = [state]
    prev: tuple[int, ...] = ()
    worth = _UNSEEN  # the value at the state ``prev`` reaches
    for key, path in offers:
        if path != prev or worth is _UNSEEN:
            common = 0
            for a, b in zip(path, prev):
                if a != b:
                    break
                common += 1
            del stack[common + 1:]
            st = stack[common]
            for i in path[common:]:
                if i == BLOCK_BREAK:
                    st = st.with_block(st.block_number + 1)
                else:
                    st = _step(st, items[i], fee_policy)
                stack.append(st)
            prev = path
            worth = value_of(st)
        offer(worth, key)
    return reducer


def _fold_tree(tree: _Tree, ints: _SwapInts, units, offers=()) -> _Reducer:
    """The fold of a compiled tree on the int lists of ``ints``, into one
    reducer: first the ``(key, path)`` offers, valued as ``_fold`` values
    them, then the constructions under each work unit ``(prefix, context)``
    of ``units``.

    Each step trades on the int lists: one ``swap_amounts`` call with
    ``_exec_swap``'s balance guard, a failing swap moving nothing as in
    skip-invalid mode, and a block break moving nothing, since no swap reads
    the block number.  ``goto`` takes the lists from the path applied now to
    the next offer's path or unit's prefix: it pops the undo of each step
    back to their longest common prefix, then trades the rest, so sorted
    paths and consecutive units apply a shared prefix once.  An offer whose
    path equals the one before reuses its value.

    One recursion over the context table walks and folds a unit.  At a
    quiet node it offers the node's value once, weighted by its count and
    keyed by its least key; at a construction it offers the value; then,
    for each child that holds a construction, it trades the child's step,
    recurses, and undoes the trade on return.  So a step runs only on a
    path that ends in a construction, in walk order, and the first error in
    walk order is the one raised.  The trade is written out in the
    recursion and in ``goto``, where a call per step would cost more than
    the rest.  A unit's count fills the count of every context under it,
    which the recursion reads; offers alone count nothing.  The recursion
    calls itself through its closure, a reference cycle that would keep the
    tree alive until the cyclic collector ran, so it is deleted on the way
    out.
    """
    rows, counts, least = tree._rows, tree._counts, tree.least
    steps = ints.steps + (None,)  # steps[BLOCK_BREAK] moves nothing
    # Copies, so a fold leaves ``ints`` as it found it, even if it raises.
    balances, reserves, value = ints.balances[:], ints.reserves[:], ints.value_at
    # Looked up at call time, so a test can count the steps.
    swap_amounts = contracts.swap_amounts
    reducer = _Reducer()
    offer = reducer.offer

    def rec(node, prefix):
        leaf, children, quiet = rows[node]
        if quiet:
            offer(value(balances), prefix + least(node), counts[node])
            return
        if leaf:
            offer(value(balances), prefix, 1)
        for item, child in children:
            if counts[child]:
                step = steps[item]
                path = prefix + (item,)
                if step is None:
                    rec(child, path)
                    continue
                i, o, amount, fee_bps, exact_out, pay, get = step
                amounts = swap_amounts(reserves[i], reserves[o], amount, fee_bps, exact_out)
                if amounts is None or balances[pay] < amounts[0]:
                    rec(child, path)
                    continue
                paid, received = amounts
                balances[pay] -= paid
                balances[get] += received
                reserves[i] += paid
                reserves[o] -= received
                rec(child, path)
                balances[pay] += paid
                balances[get] -= received
                reserves[i] -= paid
                reserves[o] += received

    at: tuple[int, ...] = ()  # the path applied now
    undos: list = []  # undos[d] undoes step d of ``at``, None where it moved nothing

    def goto(path):
        nonlocal at
        common = 0
        for a, b in zip(path, at):
            if a != b:
                break
            common += 1
        while len(undos) > common:
            undo = undos.pop()
            if undo is not None:
                pay, get, i, o, paid, received = undo
                balances[pay] += paid
                balances[get] -= received
                reserves[i] -= paid
                reserves[o] += received
        for item in path[common:]:
            step, undo = steps[item], None
            if step is not None:
                i, o, amount, fee_bps, exact_out, pay, get = step
                amounts = swap_amounts(reserves[i], reserves[o], amount, fee_bps, exact_out)
                if amounts is not None and balances[pay] >= amounts[0]:
                    paid, received = amounts
                    balances[pay] -= paid
                    balances[get] += received
                    reserves[i] += paid
                    reserves[o] -= received
                    undo = pay, get, i, o, paid, received
            undos.append(undo)
        at = path

    try:
        worth = _UNSEEN  # the value at the state ``at`` reaches
        for key, path in offers:
            if path != at or worth is _UNSEEN:
                goto(path)
                worth = value(balances)
            offer(worth, key)
        for prefix, node in units:
            if tree.count(node):
                goto(prefix)
                rec(node, prefix)
    finally:
        del rec
    return reducer


class _DagFold:
    """The exact fold of a tree that does not compile, over the DAG of
    (context, state) pairs, in one process whatever the worker count: one
    memo serves the whole tree.

    Three tables make each distinct thing happen once:

    - the state table numbers each state by ``(block_number, key)``
      (``intern``) and keeps ``(state, key)`` per number;
    - the transition table ``moves[sid, item]`` holds the number of the
      state after ``item`` from state ``sid`` (``step``), so each distinct
      (state, item) pair is stepped and keyed once; a failed step maps a
      number to itself;
    - the leaf-value table ``values[sid]`` holds the objective's value of a
      state, so each distinct leaf state is valued once.

    ``summary(node, sid)`` is the ``(best, worst)`` pair of values of the
    constructions under a walk node from state ``sid``, memoised on
    ``(node, sid)``: a construction's value, and the max and min over the
    children's pairs; for an ``_own_objective``, a quiet node's pair is its
    state's value.  It keeps no path count, which depends on the context
    alone (``_Tree.count``), and no key: ``fold`` reads each witness back
    (``witness``).  The number carries the block number because a claim
    reads it (a price bet's deadline), and a ``BLOCK_BREAK`` changes nothing
    else.  A state's key is the frozenset of its balances' items and the
    tuple of its contracts, which compare and hash by value (``contracts``):
    equal keys are equal states up to the order of their dicts, which no
    transition rule or objective reads.  The contracts line up venue by
    venue because a step never adds or removes a venue (``apply_tx`` raises
    where the venue holds no contract, and every rule settles at that venue,
    in place).
    """

    __slots__ = (
        "tree", "items", "fee_policy", "value", "collapse", "memo", "ids", "states", "moves", "values",
    )

    def __init__(self, tree: _Tree, objective):
        self.tree = tree
        self.items = tree.items
        self.fee_policy = tree.space.fee_policy()
        self.value = objective.value
        self.collapse = _own_objective(objective)
        self.memo: dict = {}
        self.ids: dict = {}
        self.states: list = []
        self.moves: dict = {}
        self.values: dict = {}

    def fold(self, state: State) -> _Reducer:
        """The reducer of every construction from ``state``: the root's
        summary, its path count ``tree.count(0)``, and each extreme's
        witness read back (``witness``)."""
        sid = self.intern(state, self.key(state))
        best, worst = self.summary(0, sid)
        reducer = _Reducer()
        reducer.paths = self.tree.count(0)
        if best is not None:
            reducer.best = best, self.witness(sid, best)
            reducer.worst = worst, self.witness(sid, worst)
        return reducer

    def key(self, state: State) -> tuple:
        """The key of ``state``: its balances' items and its contracts."""
        return frozenset(state.balances.items()), tuple(state.contracts.values())

    def intern(self, state: State, key: tuple) -> int:
        """The number of ``state``, whose key is ``key``."""
        ids = self.ids
        ident = state.block_number, key
        sid = ids.get(ident)
        if sid is None:
            sid = ids[ident] = len(self.states)
            self.states.append((state, key))
        return sid

    def step(self, sid: int, item: int) -> int:
        """The number of the state after ``item`` from state ``sid``."""
        nxt = self.moves.get((sid, item))
        if nxt is None:
            state, key = self.states[sid]
            if item == BLOCK_BREAK:
                nxt = self.intern(state.with_block(state.block_number + 1), key)
            else:
                after = _step(state, self.items[item], self.fee_policy)
                nxt = sid if after is state else self.intern(after, self.key(after))
            self.moves[sid, item] = nxt
        return nxt

    def summary(self, node: int, sid: int) -> tuple:
        done = self.memo.get((node, sid))
        if done is not None:
            return done
        tree = self.tree
        leaf, children, quiet = tree.expand(node)
        best = worst = None
        if quiet and self.collapse and tree.count(node):
            # Every construction below has this state's value.
            leaf, children = True, ()
        if leaf:
            best = worst = self.values.get(sid)
            if best is None:
                best = worst = self.values[sid] = self.value(self.states[sid][0])
        for item, child in children:
            # A step runs only on a path that ends in a construction.
            if tree.count(child):
                high, low = self.summary(child, self.step(sid, item))
                if best is None:
                    best, worst = high, low
                else:
                    if high > best:
                        best = high
                    if low < worst:
                        worst = low
        done = self.memo[node, sid] = best, worst
        return done

    def witness(self, sid: int, target: int) -> tuple[int, ...]:
        """The smallest key from the root, at state ``sid``, of a
        construction valued ``target``, an extreme of the root's summary,
        read back from the memo with no step and no objective call.  At a
        collapsed quiet node the key ends with the node's least key; at a
        construction valued ``target`` it ends; otherwise it follows the
        first child in walk order, the smallest item, whose pair holds
        ``target``.  ``target`` is the same extreme of every node on the
        way, so a child reaches it exactly where its pair holds it."""
        tree, memo, moves = self.tree, self.memo, self.moves
        node, key = 0, []
        while True:
            leaf, children, quiet = tree.expand(node)
            if quiet and self.collapse and tree.count(node):
                return tuple(key) + tree.least(node)
            if leaf and self.values[sid] == target:
                return tuple(key)
            item, node, sid = next(
                (item, child, moves[sid, item])
                for item, child in children
                if tree.count(child) and target in memo[child, moves[sid, item]]
            )
            key.append(item)


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform says."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _work_units(tree: _Tree) -> tuple[list, list]:
    """The keys shorter than 2 items, and the work units, in walk order,
    read off the context table as (prefix, context) pairs: the depth-2
    nodes, and the quiet nodes above them, each of which ``_fold_tree``
    folds whole.  Every other key lies under exactly one unit's node; a
    short key is a construction of its own, which ``_fold_tree`` takes as
    the offer ``(key, key)``.  Depth-2 prefixes load-balance far better
    than first items."""
    short, units = [], [((), 0)]
    for _ in range(2):
        level, units = units, []
        for prefix, node in level:
            leaf, children, quiet = tree.expand(node)
            if quiet:
                units.append((prefix, node))
                continue
            if leaf:
                short.append(prefix)
            units += [(prefix + (item,), child) for item, child in children]
    return short, units


def _fold_forked(tree: _Tree, ints: _SwapInts, workers: int) -> _Reducer:
    """Fold every construction of a compiled tree over forked workers.

    The work units (``_work_units``) are split over ``procs = min(workers,
    units, usable CPUs)`` processes: ``procs - 1`` forked workers, the
    parent folding one share itself.  Process ``j`` folds the interleaved
    share ``units[j::procs]`` in one ``_fold_tree``, from the context table
    counted before the fork; share 0 first offers the keys shorter than 2,
    each as its own path.  Each worker pickles its reducer back over its own
    pipe; a worker that raises exits without writing anything, so its empty
    reply fails to unpickle here.  The merge does not depend on the order of
    its folds, so the report does not depend on the number of processes.
    Every worker is killed and reaped before this returns or raises.
    """
    short, units = _work_units(tree)
    procs = max(1, min(workers, len(units), _usable_cpus()))
    tree.count(0)  # once, before the fork, for every share

    def share(j, offers=()):
        return _fold_tree(tree, ints, units[j::procs], offers)

    pids: list[int] = []
    pipes = []
    try:
        for j in range(1, procs):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            with os.fdopen(write_fd, "wb") as writer:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        writer.write(pickle.dumps(share(j)))
                        writer.close()
                        status = 0
                    finally:
                        os._exit(status)
                pids.append(pid)
        reducer = share(0, [(key, key) for key in short])
        for pipe in pipes:
            reducer.merge(pickle.loads(pipe.read()))
        return reducer
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# Randomized sampling
# ---------------------------------------------------------------------------

def _sample_sequences(tree: _Tree, budget: SearchBudget) -> list[tuple[int, ...]]:
    """Distinct single-block orderings, without replacement: identity first,
    then seeded draws.  A draw keeps each mempool item (when censoring) and
    each template (when inserting) on a coin flip and shuffles the kept
    items.  The shuffle is ``random.Random.shuffle`` inlined on its stream:
    from the last position ``i`` down to 1, draw ``getrandbits((i +
    1).bit_length())`` until it is at most ``i`` (as
    ``_randbelow_with_getrandbits`` does), and swap, with the ``(i, bits)``
    plan built once per length.  So the orderings of each drawn subset are
    uniform, and a seed draws what the stdlib shuffle draws.

    Stops at ``max_paths`` orderings, after ``max(50 x max_paths, 1000)``
    draws, or after ``MAX_DUPLICATE_RUN`` draws in a row that were all seen
    before (the space is then all but exhausted).
    """
    space = tree.space
    rng = random.Random(budget.seed)
    getrandbits = rng.getrandbits
    n_mem = len(tree.items) - len(tree.templates)
    idx_mem = list(range(n_mem))
    idx_tpl = list(tree.templates)
    identity = tuple(idx_mem)
    seen = {identity}
    out = [identity]
    plans: dict[int, list[tuple[int, int]]] = {}
    attempts = duplicates = 0
    max_attempts = max(50 * budget.max_paths, 1000)
    while len(out) < budget.max_paths and attempts < max_attempts and duplicates < MAX_DUPLICATE_RUN:
        attempts += 1
        chosen = list(idx_mem) if not space.allow_censor else [
            i for i in idx_mem if getrandbits(1)
        ]
        if space.allow_insert and idx_tpl:
            chosen += [i for i in idx_tpl if getrandbits(1)]
        n = len(chosen)
        plan = plans.get(n)
        if plan is None:
            plan = plans[n] = [(i, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
        for i, k in plan:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            chosen[i], chosen[j] = chosen[j], chosen[i]
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


def _search_tree(
    tree: _Tree, state: State, objective, budget: SearchBudget, workers: int
) -> tuple[_Reducer, bool]:
    """Fold the tree under the budget; also says whether the fold was
    exhaustive.  The fold is exact under an exhaustive budget, and under a
    randomized one when the tree has at most ``tractability_threshold`` items
    and counts at most ``max_paths`` constructions (``_Tree.count`` capped,
    which applies no step); otherwise it samples single-block orderings.

    The tree is compiled once (``_compiled``), for either fold.  An exact
    fold of a tree that does not compile is one ``_DagFold``, in this
    process, and of a compiled tree one ``_fold_tree``.  A compiled tree
    with ``workers > 1`` and more than ``FORK_CROSSOVER`` collapsed offers
    is first folded over forked workers (``_fold_forked``); a smaller one
    folds in this process.  If anything in that attempt raises
    an ``Exception`` (a step, the objective, a fork, a pipe, or a worker
    that sends nothing), the workers are killed and reaped and the tree is
    folded in this process instead.  The outcome, report or exception, is then the
    one-worker outcome by construction; a failed worker or fork costs time,
    not the answer.  A ``BaseException`` such as ``KeyboardInterrupt``
    propagates once the workers are killed.
    """
    ints = _compiled(tree, state, objective, tree.space.fee_policy())
    if budget.mode == "exhaustive" or (
        len(tree.items) <= budget.tractability_threshold
        and tree.count(0, budget.max_paths) <= budget.max_paths
    ):
        if ints is None:
            return _DagFold(tree, objective).fold(state), True
        if workers > 1 and tree.count_offers(0, FORK_CROSSOVER) > FORK_CROSSOVER:
            try:
                return _fold_forked(tree, ints, workers), True
            except Exception:
                pass  # the one-process fold below raises the one-worker error, if any
        return _fold_tree(tree, ints, [((), 0)]), True
    # Each sample is valued at its slice, its relevant items alone, and for
    # an ``_own_objective`` the slice stops at its last seed item: the quiet
    # items after it touch no tracked balance and cannot raise, so the state
    # there has the sample's value.  The paths are folded in sorted order,
    # each keyed by its own sample, and raise what sorted slices would: a
    # step raises only at a seed item, so within a path, and two samples'
    # shortest raising prefixes are equal or diverge where both their paths
    # and their slices do, so either order first meets the least of them.
    # A path is kept as a string with one character, chr(index), per item:
    # it sorts as the tuple of indices would, and it is freed when the fold
    # ends, where thousands of tuples of assorted lengths would stay behind
    # in the interpreter's tuple free lists.  Each path tuple is built at its
    # exact size as it is folded.  Building only the tuples, sorted without
    # the strings, was slower on ``sampled-spread`` (38.5-42.2 answers/s
    # against 42.0-46.6 on seeds 1-3, 8-s ``bench/run.py`` runs, 2 CPUs),
    # so each path is built twice.
    relevant = tree.relevant
    quiet = tree.quiet if _own_objective(objective) else 0
    code = [chr(i) if relevant >> i & 1 else "" for i in range(len(tree.items))]
    tail = "".join([c for i, c in enumerate(code) if quiet >> i & 1])
    seqs = _sample_sequences(tree, budget)
    paths = sorted(("".join([code[i] for i in seq]).rstrip(tail), seq) for seq in seqs)
    offers = ((seq, tuple([ord(c) for c in path])) for path, seq in paths)
    return _fold(tree, state, objective, ints, offers), False


# ---------------------------------------------------------------------------
# Multi-block construction (greedy)
# ---------------------------------------------------------------------------

def _greedy_k_blocks(
    state: State,
    space: OrderingSpace,
    objective,
    budget: SearchBudget,
) -> tuple[EvReport, list[int]]:
    """Greedy per-block concatenation; returns the report and the cumulative
    objective value after each block (used by the weighted-MEV series).

    Each block is a one-block search over the transactions pending so far,
    including that block's arrivals; whatever its best construction leaves
    out stays pending for the next block.  Each block is folded in this
    process."""
    space = space.labeled()
    fee_policy = space.fee_policy()
    pending: tuple[Tx, ...] = ()
    chosen: list[Tx | None] = []  # None marks a block break
    paths = 0
    per_block: list[int] = []
    current = state
    for b in range(space.k):
        pending += tuple(replace(tx, arrival_block=0) for tx in space.mempool if tx.arrival_block == b)
        tree = _Tree(replace(space, mempool=pending, k=1), _FULL, objective.tracked, current.contracts)
        reducer, _ = _search_tree(tree, current, objective, budget, 1)
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
    workers: int = 1,
) -> EvReport:
    """Best and worst objective value over the feasible space.

    Exhaustive whenever ``budget`` allows full coverage of the reduced space;
    otherwise seeded uniform sampling without replacement (greedy per-block
    search for ``k > 1``, whose report alone carries no worst).  The
    reductions are exact: under an exhaustive budget the values and
    witnesses are those of the unreduced space.  Reports are bit-identical,
    and errors the same, for any ``workers`` value.  A space deeper than the
    recursion limit is a ``ScenarioError`` (``too_deep``).
    """
    try:
        if space.k > 1 and budget.mode == "randomized":
            report, _ = _greedy_k_blocks(state, space, objective, budget)
            return report
        tree = _Tree(space, _FULL, objective.tracked, state.contracts)
        reducer, exhaustive = _search_tree(tree, state, objective, budget, workers)
        return reducer.report(tree.items, exhaustive)
    except RecursionError:
        raise too_deep() from None
