"""Sizing miner insertions: optimize the shared trade size of a template
pair inside a fixed ordering skeleton, and profit-vs-size curves.

The profit of a two-hop constant-product round trip is strictly concave in
the trade size in the rational model; with fees and floor rounding the
integer profile can wiggle, so the ternary search is guarded by a coarse
geometric grid and an exhaustive local scan around the best candidate.
Ranges small enough to scan outright are scanned outright.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .ordering import EvReport, OrderingSpace, SearchBudget, _labels_for, iter_sequences
from .state import FeePolicy, ScenarioError, State, Swap, Tx, UnknownVenueError, apply_tx

LOCAL_SPAN = 2048
GRID_POINTS = 1024
EXHAUSTIVE_RANGE = 1 << 20


class EmptyFeasibleError(ValueError):
    """No trade size in bounds yields a valid sequence."""


def has_unresolved_amount(tx: Tx) -> bool:
    return type(tx.action) is Swap and tx.action.amount is None


def bind_alpha(txs: tuple[Tx, ...], alpha: int) -> tuple[Tx, ...]:
    """Fill the shared unresolved trade size into every open template."""
    return tuple(
        replace(tx, action=replace(tx.action, amount=alpha)) if has_unresolved_amount(tx) else tx
        for tx in txs
    )


@dataclass(frozen=True)
class InsertionProblem:
    """A fully concrete ordering except for one shared trade size.

    ``alpha_min``/``alpha_max`` are the inclusive integer bounds (a strict
    budget clause like 0 < a < 10^22 becomes [1, 10^22 - 1]).  The objective
    is evaluated on the final state; a sequence where any transaction fails
    is worth minus infinity.
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


def evaluate_alpha(problem: InsertionProblem, alpha: int) -> int | None:
    """Objective at one trade size; ``None`` when the sequence is invalid."""
    state = problem.state
    for tx in bind_alpha(problem.skeleton, alpha):
        try:
            nxt = apply_tx(state, tx, problem.fee_policy)
        except UnknownVenueError:
            return None
        if nxt is None:
            return None
        state = nxt
    return problem.objective.value(state)


@dataclass(frozen=True)
class AlphaResult:
    alpha: int
    profit: int
    evaluations: int


def _geometric_grid(lo: int, hi: int, points: int) -> list[int]:
    """Distinct integers spread geometrically across [lo, hi]."""
    if hi - lo + 1 <= points:
        return list(range(lo, hi + 1))
    grid = {lo, hi}
    span = hi / lo
    for i in range(1, points - 1):
        grid.add(min(hi, max(lo, round(lo * span ** (i / (points - 1))))))
    return sorted(grid)


def _optimize(
    f_raw: Callable[[int], int | None],
    lo: int,
    hi: int,
    grid_points: int,
    local_span: int,
    exhaustive_range: int,
) -> AlphaResult:
    cache: dict[int, int | None] = {}

    def f(x: int) -> int | None:
        if x not in cache:
            cache[x] = f_raw(x)
        return cache[x]

    def better(x: int, best: tuple[int, int] | None) -> tuple[int, int] | None:
        v = f(x)
        if v is None:
            return best
        if best is None or v > best[1] or (v == best[1] and x < best[0]):
            return (x, v)
        return best

    best: tuple[int, int] | None = None

    if hi - lo + 1 <= exhaustive_range:
        for x in range(lo, hi + 1):
            best = better(x, best)
        if best is None:
            raise EmptyFeasibleError("no feasible trade size in bounds")
        return AlphaResult(best[0], best[1], len(cache))

    for x in _geometric_grid(lo, hi, grid_points):
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
        for x in range(max(lo, center - local_span), min(hi, center + local_span) + 1):
            best = better(x, best)

    if best is None:
        raise EmptyFeasibleError("no feasible trade size in bounds")
    return AlphaResult(best[0], best[1], len(cache))


def optimize_alpha(
    problem: InsertionProblem,
    grid_points: int = GRID_POINTS,
    local_span: int = LOCAL_SPAN,
    exhaustive_range: int = EXHAUSTIVE_RANGE,
) -> AlphaResult:
    """Best integer trade size and its exact profit.

    Small ranges are scanned exhaustively.  Large ranges combine a geometric
    grid sweep, an integer ternary search (unimodality assumption), and an
    exhaustive scan of +-``local_span`` around the best candidate; ties break
    toward the smallest size.
    """
    return _optimize(
        lambda x: evaluate_alpha(problem, x),
        problem.alpha_min,
        problem.alpha_max,
        grid_points,
        local_span,
        exhaustive_range,
    )


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


def _evaluate_skeleton(state: State, txs: tuple[Tx, ...], objective, fee_policy) -> int | None:
    """Search semantics inside a skeleton: a failing mempool transaction is
    censored-by-failure; a failing miner template invalidates the size (the
    same ordering without it is enumerated separately)."""
    current = state
    for tx in txs:
        try:
            nxt = apply_tx(current, tx, fee_policy)
        except UnknownVenueError:
            nxt = None
        if nxt is None:
            if tx.origin != "mempool":
                return None
            continue
        current = nxt
    return objective.value(current)


def search_with_insertion(
    space: OrderingSpace,
    budget: SearchBudget,
    objective,
    state: State,
    alpha_min: int,
    alpha_max: int,
    pruning: bool = False,
) -> InsertionSearchResult:
    """Best value over orderings whose miner templates share one unresolved
    trade size: every candidate skeleton is size-optimized and the best
    (value, ordering) wins with the usual smallest-key tie-break."""
    if alpha_min < 1 or alpha_min > alpha_max:
        raise ScenarioError("need 1 <= alpha_min <= alpha_max")
    if space.k != 1:
        raise ScenarioError("insertion sizing searches single-block spaces (k = 1)")
    space = space.labeled()
    items = tuple(tx for tx in space.mempool if tx.arrival_block == 0) + space.templates
    fee_policy = space.fee_policy()
    best: tuple[int, tuple[int, ...], tuple[str, ...], int | None] | None = None
    paths = 0
    for seq in iter_sequences(space, pruning=pruning, tracked=objective.tracked):
        paths += 1
        if paths > MAX_SKELETONS:
            raise ScenarioError("insertion search needs a small ordering space")
        txs = tuple(items[i] for i in seq)
        alpha: int | None = None
        if any(has_unresolved_amount(tx) for tx in txs):
            try:
                res = _optimize(
                    lambda x, txs=txs: _evaluate_skeleton(
                        state, bind_alpha(txs, x), objective, fee_policy
                    ),
                    alpha_min,
                    alpha_max,
                    GRID_POINTS,
                    LOCAL_SPAN,
                    EXHAUSTIVE_RANGE,
                )
            except EmptyFeasibleError:
                continue
            value, alpha = res.profit, res.alpha
        else:
            v = _evaluate_skeleton(state, txs, objective, fee_policy)
            if v is None:
                continue
            value = v
        if best is None or value > best[0] or (value == best[0] and seq < best[1]):
            best = (value, seq, _labels_for(items, seq), alpha)
    if best is None:
        raise EmptyFeasibleError("no feasible sequence in the insertion space")
    report = EvReport(
        best_value=best[0],
        best_ordering=best[2],
        paths_explored=paths,
        exhaustive=True,
    )
    return InsertionSearchResult(report=report, alpha=best[3])
