"""Sizing miner insertions: optimize the shared trade size of a template
pair inside a fixed ordering skeleton, and profit-vs-size curves.

The profit of a two-hop constant-product round trip is strictly concave in
the trade size in the rational model; with fees and floor rounding the
integer profile can wiggle, so the ternary search is guarded by a coarse
geometric grid and an exhaustive local scan around the best candidate.
Every range takes this one path; a range of at most ``GRID_POINTS`` sizes is
scanned whole, because the grid is then the whole range.  One skeleton costs
at most ``GRID_POINTS + 2*LOCAL_SPAN + 1 + 2*ceil(log_{3/2} range) + 3``
distinct evaluations, so ``search_with_insertion`` costs at most
``MAX_SKELETONS`` times that.

Nothing before a skeleton's first open template depends on the size, so an
``InsertionProblem`` applies that prefix once, the first time it is
evaluated, and one evaluation binds and applies only the tail from the first
open template on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .ordering import _SLEEP, EvReport, OrderingSpace, SearchBudget, _Tree, _labels_for
from .state import FeePolicy, ScenarioError, State, Swap, Tx, UnknownVenueError, apply_tx

LOCAL_SPAN = 2048
GRID_POINTS = 1024


class EmptyFeasibleError(ValueError):
    """No trade size in bounds yields a valid sequence."""


def has_unresolved_amount(tx: Tx) -> bool:
    return type(tx.action) is Swap and tx.action.amount is None


def bind_alpha(txs: tuple[Tx, ...], alpha: int) -> tuple[Tx, ...]:
    """Fill the shared unresolved trade size into every open template.

    The bound ``Tx`` and ``Swap`` are built from their fields directly, which
    costs a fraction of ``dataclasses.replace``; a field added to either class
    must be added here too.
    """
    return tuple(
        Tx(
            tx.actor,
            tx.venue,
            Swap(tx.action.token_in, tx.action.token_out, alpha, tx.action.exact_out),
            tx.origin,
            tx.label,
            tx.fee,
            tx.arrival_block,
        )
        if has_unresolved_amount(tx)
        else tx
        for tx in txs
    )


@dataclass(frozen=True)
class InsertionProblem:
    """A fully concrete ordering except for one shared trade size.

    ``alpha_min``/``alpha_max`` are the inclusive integer bounds (a strict
    budget clause like 0 < a < 10^22 becomes [1, 10^22 - 1]).  The objective
    is evaluated on the final state with the search's semantics: a user
    transaction that fails is censored-by-failure (a no-op), while a miner
    template that fails makes the size infeasible, since the same ordering
    without that template is a skeleton of its own.

    The items before the first open template do not depend on the size: the
    first evaluation applies them once and keeps the state they leave, and
    every evaluation applies only the tail.  The cached state lives as long
    as the problem; a prefix that raises caches nothing and raises again.
    """

    state: State
    skeleton: tuple[Tx, ...]
    alpha_min: int
    alpha_max: int
    objective: object
    fee_policy: FeePolicy | None = None

    def __post_init__(self):
        if self.alpha_min < 1 or self.alpha_min > self.alpha_max:
            raise ScenarioError("need 1 <= alpha_min <= alpha_max")
        if not any(has_unresolved_amount(tx) for tx in self.skeleton):
            raise ScenarioError("skeleton has no unresolved trade size")
        for tx in self.skeleton:
            if tx.origin == "mempool" and has_unresolved_amount(tx):
                raise ScenarioError("only miner templates may be unresolved")

    @cached_property
    def _prefix(self) -> tuple[State | None, tuple[Tx, ...]]:
        """(state after the items before the first open template, or ``None``
        when a template among them fails; the items from it on)."""
        first = next(i for i, tx in enumerate(self.skeleton) if has_unresolved_amount(tx))
        return _apply(self.state, self.skeleton[:first], self.fee_policy), self.skeleton[first:]


def _apply(state: State, txs: tuple[Tx, ...], fee_policy) -> State | None:
    """State after concrete transactions; ``None`` when a template fails."""
    for tx in txs:
        try:
            nxt = apply_tx(state, tx, fee_policy)
        except UnknownVenueError:
            nxt = None
        if nxt is not None:
            state = nxt
        elif tx.origin != "mempool":
            return None
    return state


def _evaluate(state: State, txs: tuple[Tx, ...], objective, fee_policy) -> int | None:
    """Objective after a concrete skeleton; ``None`` when a template fails."""
    end = _apply(state, txs, fee_policy)
    return None if end is None else objective.value(end)


def evaluate_alpha(problem: InsertionProblem, alpha: int) -> int | None:
    """Objective at one trade size; ``None`` when the size is infeasible.

    Only the tail from the first open template is bound and applied, to the
    state the problem's α-free prefix left.
    """
    state, tail = problem._prefix
    if state is None:
        return None
    return _evaluate(state, bind_alpha(tail, alpha), problem.objective, problem.fee_policy)


@dataclass(frozen=True)
class AlphaResult:
    alpha: int
    profit: int


def _geometric_grid(lo: int, hi: int, points: int) -> list[int]:
    """Distinct integers spread geometrically across [lo, hi]."""
    if hi - lo + 1 <= points:
        return list(range(lo, hi + 1))
    grid = {lo, hi}
    span = hi / lo
    for i in range(1, points - 1):
        grid.add(min(hi, max(lo, round(lo * span ** (i / (points - 1))))))
    return sorted(grid)


def optimize_alpha(problem: InsertionProblem) -> AlphaResult:
    """Best integer trade size and its exact profit.

    A ``GRID_POINTS`` geometric grid sweep (the whole range when it is that
    small), an integer ternary search (unimodality assumption) whose final
    window is scanned, and an exhaustive scan of +-``LOCAL_SPAN`` around the
    best candidate; ternary probes never become the best by themselves, and
    ties break toward the smallest size.  That is at most ``GRID_POINTS +
    2*LOCAL_SPAN + 1 + 2*ceil(log_{3/2} range) + 3`` distinct evaluations.
    """
    lo, hi = problem.alpha_min, problem.alpha_max
    cache: dict[int, int | None] = {}

    def f(x: int) -> int | None:
        if x not in cache:
            cache[x] = evaluate_alpha(problem, x)
        return cache[x]

    def better(x: int, best: tuple[int, int] | None) -> tuple[int, int] | None:
        v = f(x)
        if v is None:
            return best
        if best is None or v > best[1] or (v == best[1] and x < best[0]):
            return (x, v)
        return best

    best: tuple[int, int] | None = None
    for x in _geometric_grid(lo, hi, GRID_POINTS):
        best = better(x, best)

    # Integer ternary search; invalid sizes count as minus infinity.
    a, b = lo, hi
    while b - a > 2:
        m1 = a + (b - a) // 3
        m2 = b - (b - a) // 3
        v1, v2 = f(m1), f(m2)
        if v1 is None and v2 is None:
            # infeasible plateau: shrink toward the best guess so far
            pivot = best[0] if best is not None else (a + b) // 2
            if pivot <= m1:
                b = m2 - 1
            elif pivot >= m2:
                a = m1 + 1
            else:
                a, b = m1 + 1, m2 - 1
        elif v2 is None or (v1 is not None and v1 >= v2):
            b = m2 - 1
        else:
            a = m1 + 1
    for x in range(a, b + 1):
        best = better(x, best)

    if best is not None:
        center = best[0]
        for x in range(max(lo, center - LOCAL_SPAN), min(hi, center + LOCAL_SPAN) + 1):
            best = better(x, best)

    if best is None:
        raise EmptyFeasibleError("no feasible trade size in bounds")
    return AlphaResult(*best)


def profit_curve(problem: InsertionProblem, samples: int) -> list[tuple[int, int | None]]:
    """(size, profit) rows on a geometric grid; infeasible sizes yield None."""
    if samples < 2:
        raise ScenarioError("need at least 2 samples")
    return [
        (x, evaluate_alpha(problem, x))
        for x in _geometric_grid(problem.alpha_min, problem.alpha_max, samples)
    ]


# ---------------------------------------------------------------------------
# Joint ordering + size search
# ---------------------------------------------------------------------------

MAX_SKELETONS = 20_000


@dataclass(frozen=True)
class InsertionSearchResult:
    report: EvReport
    alpha: int | None
    skeleton: tuple[Tx, ...]  # the best ordering's transactions, templates unresolved


def search_with_insertion(
    space: OrderingSpace,
    budget: SearchBudget,
    objective,
    state: State,
    alpha_min: int,
    alpha_max: int,
) -> InsertionSearchResult:
    """Best value over orderings whose miner templates share one unresolved
    trade size: every candidate skeleton is size-optimized and the best
    (value, ordering) wins with the usual smallest-key tie-break.

    The skeletons are enumerated exhaustively (at most ``MAX_SKELETONS``).
    ``budget`` is accepted but unused; callers pass it positionally, as they
    do to ``search``.
    """
    if alpha_min < 1 or alpha_min > alpha_max:
        raise ScenarioError("need 1 <= alpha_min <= alpha_max")
    if space.k != 1:
        raise ScenarioError("insertion sizing searches single-block spaces (k = 1)")
    # Footprints do not depend on the size, so equivalent skeletons have equal
    # values at every size: sleep sets apply, but unverified run collapses
    # would not.
    tree = _Tree(space, _SLEEP, objective.tracked, state.contracts)
    fee_policy = tree.space.fee_policy()
    best: tuple[int, tuple[int, ...], int | None] | None = None  # (value, key, alpha)
    paths = 0
    for key, _ in tree.walk(None):
        paths += 1
        if paths > MAX_SKELETONS:
            raise ScenarioError("insertion search needs a small ordering space")
        txs = tuple(tree.items[i] for i in key)
        alpha: int | None = None
        if any(has_unresolved_amount(tx) for tx in txs):
            problem = InsertionProblem(state, txs, alpha_min, alpha_max, objective, fee_policy)
            try:
                res = optimize_alpha(problem)
            except EmptyFeasibleError:
                continue
            value, alpha = res.profit, res.alpha
        else:
            value = _evaluate(state, txs, objective, fee_policy)
            if value is None:
                continue
        if best is None or value > best[0] or (value == best[0] and key < best[1]):
            best = (value, key, alpha)
    if best is None:
        raise EmptyFeasibleError("no feasible sequence in the insertion space")
    value, key, alpha = best
    report = EvReport(
        best_value=value,
        best_ordering=_labels_for(tree.items, key),
        paths_explored=paths,
        exhaustive=True,
    )
    return InsertionSearchResult(report, alpha, tuple(tree.items[i] for i in key))
