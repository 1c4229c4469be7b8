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
evaluated, and an evaluation applies only the tail from there on.  When no
fee policy is set, the objective is a ``PlayerDelta`` and every tail item is
a ``Swap`` at a venue holding an ``AmmPool`` or nothing, the tail compiles
once to an integer kernel (``_SwapTail``, by ``ordering._SwapInts`` as for
swap-only searches) that reads α directly: it moves plain ints, prices each
step with ``contracts.swap_amounts``, the swap rule ``apply_tx`` runs too,
and builds no ``Tx`` or ``State``.  Any other tail is bound by
``bind_alpha`` and applied through ``apply_tx``, the kernel's test oracle.

Branch and bound (Land & Doig, 1960).  Once the search holds an incumbent,
a skeleton is sized only when an integer upper bound on its value beats it;
a later skeleton that ties loses the tie-break, since the walk yields keys
in increasing order.  A skeleton is also skipped when the bound proves every
size infeasible.  The bound exists when:

1. no fee policy is set, the objective is a ``PlayerDelta`` and every price
   is >= 0;
2. after dropping every user transaction of the tail whose footprint is
   disjoint from every later tail item's, that touches no tracked balance
   and that cannot raise (it commutes to the end, where the objective cannot
   see it), every item left is a constant-product swap by a tracked actor,
   each on a pool of its own.

Then each swap trades against its pool's reserves after the prefix, with or
without rounding.  The exact-input output is floored and the exact-output
cost is floor + 1, so each token's delta is at most its no-rounding delta,
and the value is at most the floor of the priced no-rounding value U.  U is
concave (optimal arbitrage on constant-product pools is a convex problem:
Angeris et al., arXiv 1911.03380), so its integer maximum is at the first
size k with U(k+1) <= U(k).  That size is seeded by bisecting a float
estimate of U' and refined by Newton steps on the exact U', and it is kept
only when U(k+1) <= U(k) and U(k) > U(k-1) hold exactly; otherwise, or when
the estimate cannot be formed, a binary search on U(a+1) > U(a) finds it.
No float decides the bound.  A size must stay below an exact-output swap's
output reserve, and at most the trader's balance when the first template is
exact-input; an empty range proves the skeleton infeasible.  A tail that
trades twice on one pool has no bound: a later swap can profit from the
rounding of an earlier one, so the integer value can exceed U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .contracts import (
    FEE_DENOM,
    AmmPool,
    amm_in_given_out_exact,
    amm_out_given_in_exact,
    swap_amounts,
)
from .metrics import PlayerDelta
from .ordering import (
    _FULL,
    EvReport,
    OrderingSpace,
    SearchBudget,
    _labels_for,
    _may_raise,
    _SwapInts,
    _swaps_only,
    _Tree,
)
from .state import MEMPOOL, FeePolicy, ScenarioError, State, Swap, Tx, UnknownVenueError, apply_tx

LOCAL_SPAN = 2048
GRID_POINTS = 1024
NEWTON_STEPS = 8  # a cap: from its float seed the bound's maximiser takes 0 or 1 steps


class EmptyFeasibleError(ValueError):
    """No trade size in bounds yields a valid sequence."""


def has_unresolved_amount(tx: Tx) -> bool:
    return type(tx.action) is Swap and tx.action.amount is None


def bind_alpha(txs: tuple[Tx, ...], alpha: int) -> tuple[Tx, ...]:
    """Fill the shared unresolved trade size into every open template.

    The bound ``Tx`` and ``Swap`` are built from their fields directly, which
    costs a fraction of ``dataclasses.replace``; a field added to either class
    must be added here too.  Its callers: ``evaluate_alpha``'s ``apply_tx``
    path, ``bench/workloads.py``'s verifier and the tests.
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
    every evaluation applies only the tail, on the integer kernel when the
    tail has one.  The cached state and kernel live as long as the problem;
    a prefix that raises caches nothing and raises again.
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

    @cached_property
    def _kernel(self) -> _SwapTail | None:
        """The tail compiled to ints, or ``None`` when it needs ``_apply``:
        a fee policy, an objective other than ``PlayerDelta``, or a tail
        item other than a ``Swap`` at a venue holding an ``AmmPool`` or
        nothing."""
        state, tail = self._prefix
        if state is None or self.fee_policy is not None or type(self.objective) is not PlayerDelta:
            return None
        return _SwapTail(state, tail, self.objective) if _swaps_only(state, tail) else None


class _SwapTail(_SwapInts):
    """A swap-only tail, compiled to plain ints by ``ordering._SwapInts``.

    An evaluation reads α itself and binds nothing: an open template's step
    (compiled amount ``None``) trades α, any other step its own amount.  It
    copies the balances and reserves and makes one ``swap_amounts`` call per
    step, with ``_exec_swap``'s balance guard, so the rounding and the bottom
    outcomes are those of ``apply_tx``.  A failing user swap is a no-op and a
    failing template makes the size infeasible, as in ``_apply``; a step that
    never moves anything (no contract at the venue, a foreign token, a token
    swapped for itself) fails.  The value is ``value_at``'s: the prefix's
    ``PlayerDelta.deltas`` plus the tail's moves, floored per token as
    ``PlayerDelta.value`` does.  ``value`` repeats ``value_at``'s loop: one
    more call per evaluation shows in sizing time.
    """

    def __init__(self, state: State, tail: tuple[Tx, ...], objective: PlayerDelta):
        super().__init__(state, tail, objective)
        self.templates = tuple(tx.origin != MEMPOOL for tx in tail)

    def value(self, alpha: int) -> int | None:
        """Objective at size ``alpha``; ``None`` when a template fails."""
        balances = self.balances.copy()
        reserves = self.reserves.copy()
        for template, step in zip(self.templates, self.steps):
            if step is not None:
                i, o, amount, fee_bps, exact_out, pay, get = step
                amounts = swap_amounts(reserves[i], reserves[o], alpha if amount is None else amount,
                                       fee_bps, exact_out)
                if amounts is not None and balances[pay] >= amounts[0]:
                    paid, received = amounts
                    balances[pay] -= paid
                    balances[get] += received
                    reserves[i] += paid
                    reserves[o] -= received
                    continue
            if template:
                return None
        total = self.constant
        for token, amount, slots in self.tokens:
            for slot in slots:
                amount += balances[slot]
            total += self.token_value(token, amount)
        return total


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

    Only the tail from the first open template is applied, to the state the
    α-free prefix left: on the problem's integer kernel, which reads α and
    binds nothing, or else bound by ``bind_alpha`` and run by ``apply_tx``.
    """
    state, tail = problem._prefix
    if state is None:
        return None
    kernel = problem._kernel
    if kernel is not None:
        return kernel.value(alpha)
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
# The no-rounding bound
# ---------------------------------------------------------------------------

def _value_bound(problem: InsertionProblem, tree: _Tree, key: tuple[int, ...]) -> int | None:
    """An integer that no size's value exceeds, or ``None`` when the tail
    has no such bound; ``key`` holds the skeleton's item indices in ``tree``.

    Raises ``EmptyFeasibleError`` when every size is provably infeasible:
    the prefix fails, or the necessary conditions on the size leave an
    empty range.
    """
    state, tail = problem._prefix
    if state is None:
        raise EmptyFeasibleError("a template before the first open one fails")
    objective = problem.objective
    if problem.fee_policy is not None or type(objective) is not PlayerDelta:
        return None
    price = objective.valuation.price
    if any(price(token) < 0 for token in objective.valuation.prices):
        return None
    tracked = objective.tracked
    deployed = state.contracts
    tail_keys = key[len(key) - len(tail):]
    # One (reserve_in, reserve_out, fee_bps, exact_out, price_in, price_out)
    # term per kept swap, with its amount (None while open).
    swaps = []
    venues = set()
    later = 0
    for tx, item in zip(reversed(tail), reversed(tail_keys)):
        mask, later = later, later | 1 << item
        if (
            tx.origin == MEMPOOL
            and tree.indep[item] & mask == mask
            and tx.actor not in tracked
            and not _may_raise(tx, deployed)
        ):
            continue  # commutes to the end, where the objective cannot see it
        swap, pool = tx.action, deployed.get(tx.venue)
        if (
            tx.origin == MEMPOOL
            or type(swap) is not Swap
            or not isinstance(pool, AmmPool)
            or tx.actor not in tracked
            or tx.venue in venues
            or {swap.token_in, swap.token_out} != {pool.token_x, pool.token_y}
        ):
            return None
        if swap.amount is not None and (
            swap.amount < 1 or swap.exact_out and swap.amount >= pool.reserve(swap.token_out)
        ):
            return None
        venues.add(tx.venue)
        term = (pool.reserve(swap.token_in), pool.reserve(swap.token_out), pool.fee_bps,
                swap.exact_out, price(swap.token_in), price(swap.token_out))
        swaps.append((term, swap.amount))

    # Size-free terms: the tracked balances after the prefix, and the swaps
    # of concrete templates.
    deltas = objective.deltas(state)
    fixed = sum((price(token) * delta for token, delta in deltas.items()), Fraction(0))
    fixed += sum(_gain(term, amount) for term, amount in swaps if amount is not None)
    terms = [term for term, amount in swaps if amount is None]

    lo, hi = problem.alpha_min, problem.alpha_max
    first = tail[0]
    if not first.action.exact_out:
        hi = min(hi, state.balance(first.actor, first.action.token_in))
    for _, reserve_out, _, exact_out, _, _ in terms:
        if exact_out:
            hi = min(hi, reserve_out - 1)
    if lo > hi:
        raise EmptyFeasibleError("no feasible trade size in bounds")

    @cache
    def upper(alpha: int) -> Fraction:
        return fixed + sum(_gain(term, alpha) for term in terms)

    alpha = _seeded_argmax(upper, terms, lo, hi)
    if alpha is None:
        # U is concave: the first size where it stops rising is its maximum.
        while lo < hi:
            mid = (lo + hi) // 2
            if upper(mid + 1) > upper(mid):
                lo = mid + 1
            else:
                hi = mid
        alpha = lo
    best = upper(alpha)
    return best.numerator // best.denominator


def _gain(term, amount: int) -> Fraction:
    """Priced change of the trader's balances when the swap of ``term``, a
    ``(reserve_in, reserve_out, fee_bps, exact_out, price_in, price_out)``
    tuple, trades ``amount`` without rounding."""
    reserve_in, reserve_out, fee_bps, exact_out, price_in, price_out = term
    if exact_out:
        paid, received = amm_in_given_out_exact(reserve_in, reserve_out, amount, fee_bps), amount
    else:
        paid, received = amount, amm_out_given_in_exact(reserve_in, reserve_out, amount, fee_bps)
    return price_out * received - price_in * paid


def _slope(terms, alpha: int):
    """(U'(alpha), U''(alpha)) of the open swaps' no-rounding gains, one
    ``(reserve_in, reserve_out, fee_bps, exact_out, price_in, price_out)``
    per swap: exact with ``Fraction`` prices, an estimate with floats."""
    slope = curvature = 0
    for reserve_in, reserve_out, fee_bps, exact_out, price_in, price_out in terms:
        scaled = FEE_DENOM - fee_bps
        if exact_out:
            rest = reserve_out - alpha
            marginal = price_in * (reserve_in * FEE_DENOM * reserve_out) / (scaled * rest * rest)
            slope += price_out - marginal
            curvature -= 2 * marginal / rest
        else:
            den = reserve_in * FEE_DENOM + alpha * scaled
            marginal = price_out * (scaled * reserve_out) / den * (reserve_in * FEE_DENOM) / den
            slope += marginal - price_in
            curvature -= 2 * marginal * scaled / den
    return slope, curvature


def _seeded_argmax(upper, terms, lo: int, hi: int) -> int | None:
    """The size the bound's binary search returns, found from a seed: the
    first size where a float estimate of U' stops being positive, refined by
    Newton steps on the exact U'.  The steps are taken in ints, because near
    10^21 a float cannot tell neighbouring sizes apart.  The size k is
    returned only when U(k+1) <= U(k) (or k = hi) and U(k) > U(k-1) (or
    k = lo) hold exactly, which on a concave U singles out the binary
    search's answer; ``None`` when that check fails or the estimate cannot
    be formed (a value beyond float range)."""
    a, b = lo, hi
    try:
        estimate = [(*term[:4], float(term[4]), float(term[5])) for term in terms]
        while a < b:
            mid = (a + b) // 2
            slope = _slope(estimate, mid)[0]
            if not math.isfinite(slope):
                return None
            if slope > 0:
                a = mid + 1
            else:
                b = mid
    except (OverflowError, ZeroDivisionError):
        return None
    k = a
    for _ in range(NEWTON_STEPS):
        slope, curvature = _slope(terms, k)
        if not curvature:
            break
        nxt = min(hi, max(lo, k - round(slope / curvature)))
        if nxt == k:
            break
        k = nxt
    value = upper(k)
    if (k == hi or upper(k + 1) <= value) and (k == lo or value > upper(k - 1)):
        return k
    return None


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
    trade size: every candidate skeleton is size-optimized unless its bound
    cannot beat the best value so far, and the best (value, ordering) wins
    with the usual smallest-key tie-break.  A skipped skeleton still counts
    in ``paths_explored`` and toward ``MAX_SKELETONS``.

    The skeletons are enumerated exhaustively (at most ``MAX_SKELETONS``).
    ``budget`` is accepted but unused; callers pass it positionally, as they
    do to ``search``.
    """
    if alpha_min < 1 or alpha_min > alpha_max:
        raise ScenarioError("need 1 <= alpha_min <= alpha_max")
    if space.k != 1:
        raise ScenarioError("insertion sizing searches single-block spaces (k = 1)")
    tree = _Tree(space, _FULL, objective.tracked, state.contracts)
    fee_policy = tree.space.fee_policy()
    best: tuple[int, tuple[int, ...], int | None] | None = None  # (value, key, alpha)
    paths = 0
    for key in tree.walk():
        paths += 1
        if paths > MAX_SKELETONS:
            raise ScenarioError("insertion search needs a small ordering space")
        txs = tuple(tree.items[i] for i in key)
        alpha: int | None = None
        if any(has_unresolved_amount(tx) for tx in txs):
            problem = InsertionProblem(state, txs, alpha_min, alpha_max, objective, fee_policy)
            try:
                if best is not None:
                    # On a tie the incumbent's smaller key wins.
                    bound = _value_bound(problem, tree, key)
                    if bound is not None and bound <= best[0]:
                        continue
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
