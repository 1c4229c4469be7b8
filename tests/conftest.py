"""Shared builders for small deterministic fixtures."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

from mevsearch.contracts import AmmPool, MakerBook, Pricebet, amm_swap_exact_in
from mevsearch.corpus import _instance_rng, make_spread_instance
from mevsearch.metrics import Valuation
from mevsearch.ordering import MAX_DUPLICATE_RUN, OrderingSpace, _search_tree, _Tree
from mevsearch.scenario import Scenario
from mevsearch.state import Bet, CdpManipulate, GetReward, Liquidate, ScenarioError, State, Swap, Tx

WAD = 10**18


def simple_pool(reserve_x=1000, reserve_y=1000, fee_bps=0, token_x="BBT", token_y="ETH"):
    return AmmPool(token_x, token_y, reserve_x, reserve_y, fee_bps=fee_bps)


def pool_state(balances=None, pools=None, block_number=0):
    return State(dict(balances or {}), dict(pools or {}), block_number)


def unpruned_search(space, budget, objective, state):
    """``search`` of the unreduced tree, in one process: the oracle that
    the reductions must match under an exhaustive budget."""
    tree = _Tree(space, 0, objective.tracked, state.contracts)
    reducer, exhaustive = _search_tree(tree, state, objective, budget, 1)
    return reducer.report(tree.items, exhaustive)


def reference_sample_sequences(tree, budget):
    """The sampler's draws through ``random.Random.shuffle``: the stream
    oracle that ``ordering._sample_sequences`` must match list for list.
    Identity first, then seeded shuffles of the kept items, without
    replacement; stops at ``max_paths`` orderings, after ``max(50 x
    max_paths, 1000)`` draws, or after ``MAX_DUPLICATE_RUN`` draws in a row
    that were all seen before."""
    space = tree.space
    rng = random.Random(budget.seed)
    n_mem = len(tree.items) - len(tree.templates)
    idx_mem = list(range(n_mem))
    idx_tpl = list(tree.templates)
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


@pytest.fixture
def eth_valuation():
    return Valuation(primary="ETH")


@pytest.fixture
def priced_valuation():
    return Valuation(primary="ETH", mode="oracle_priced", prices={"BBT": Fraction(1, 2)})


def maker_state(
    price_x=200,
    price_y=100,
    collateral=None,
    debt=None,
    balances=None,
    efficient=False,
):
    """CDP book priced by a pool holding (price_x DAI, price_y ETH)."""
    pool = AmmPool("DAI", "ETH", price_x, price_y, fee_bps=0)
    book = MakerBook(
        loan_token="DAI",
        collateral_token="ETH",
        price_source="pool",
        collateral=dict(collateral or {}),
        debt=dict(debt or {}),
        efficient_auction=efficient,
    )
    return State(dict(balances or {}), {"pool": pool, "book": book}, 0)


def pricebet_state(reserve_eth=101, reserve_bbt=100, player_eth=100, deadline=5, block_number=0):
    pool = AmmPool("BBT", "ETH", reserve_bbt, reserve_eth, fee_bps=0)
    bet = Pricebet(oracle="pool", token="ETH", deadline=deadline)
    return State({("alice", "ETH"): player_eth}, {"pool": pool, "bet": bet}, block_number)


VALUATION = Valuation(primary="ETH", mode="oracle_priced",
                      prices={"DAI": Fraction(1, 2), "TKN": Fraction(1, 1)})


def mixed_instance(seed: int, reorder: bool, censor: bool, insert: bool, k: int, fees: bool):
    """Two pools, a CDP book priced by pool0, a price bet on pool1, and
    optionally fees paid to the miner in ETH.

    The mempool holds one swap on each pool and then, drawn from swaps, CDP
    actions, the bet and its claim, three more transactions (two when k = 2);
    some actors trade twice.
    Templates are a miner liquidation and a miner swap.  With k = 2 one
    transaction arrives in the second block.
    """
    rng = random.Random(seed)
    state = State(
        {
            **{(u, tok): 400 for u in ("u0", "u1", "u2") for tok in ("ETH", "DAI", "TKN")},
            ("v", "DAI"): 300,
            ("v", "ETH"): 50,
            ("p", "ETH"): 120,
            ("miner", "ETH"): 200,
        },
        {
            "pool0": AmmPool("DAI", "ETH", rng.randint(2_000, 4_000), rng.randint(1_000, 2_000),
                             fee_bps=rng.choice([0, 30])),
            "pool1": AmmPool("TKN", "ETH", rng.randint(900, 1_100), rng.randint(900, 1_100),
                             fee_bps=rng.choice([0, 30])),
            "book": MakerBook("DAI", "ETH", "pool0", collateral={"v": 900},
                              debt={"v": rng.randint(1_000, 1_400)}),
            "bet": Pricebet(oracle="pool1", token="ETH", deadline=rng.randint(0, 1)),
        },
        0,
    )

    def swap(actor):
        venue = rng.choice(("pool0", "pool1"))
        other = "DAI" if venue == "pool0" else "TKN"
        token_in, token_out = rng.choice(((other, "ETH"), ("ETH", other)))
        return Tx(actor, venue, Swap(token_in, token_out, rng.randint(20, 300)))

    extras = [
        lambda: swap(rng.choice(("u0", "u1", "u2", "p"))),
        lambda: Tx("v", "book", CdpManipulate(
            rng.choice(("withdraw_loan", "deposit_collateral", "pay_loan")), rng.randint(10, 200))),
        lambda: Tx("p", "bet", Bet()),
        lambda: Tx("p", "bet", GetReward()),
    ]
    first = swap("u0")
    second = replace(swap("u1"), venue="pool1" if first.venue == "pool0" else "pool0")
    second = replace(second, action=Swap(
        *(("DAI", "ETH") if second.venue == "pool0" else ("TKN", "ETH")), 150))
    n_extra = 2 if k == 2 else 3
    mempool = [first, second] + [rng.choice(extras)() for _ in range(n_extra)]
    rng.shuffle(mempool)
    mempool = [
        replace(tx, fee=rng.choice((0, 0, 1, 5)) if fees else 0,
                arrival_block=int(k == 2 and i == len(mempool) - 1))
        for i, tx in enumerate(mempool)
    ]
    templates = (
        Tx("miner", "book", Liquidate("v"), origin="miner"),
        Tx("miner", "pool1", Swap("ETH", "TKN", 60), origin="miner"),
    )[: 1 if k == 2 else 2]
    space = OrderingSpace(
        mempool=tuple(mempool),
        templates=templates if insert else (),
        allow_reorder=reorder,
        allow_censor=censor,
        allow_insert=insert,
        k=k,
        charge_fees=fees,
        fee_token="ETH",
    )
    return state, space


def pruning_corpus(seed: int, count: int = 200, max_txs: int = 6) -> list[Scenario]:
    """Small fee-less instances for the pruned-vs-unpruned equivalence check."""
    out = []
    for i in range(count):
        rng = _instance_rng(seed, 10_000 + i)
        n = rng.randint(3, max_txs)
        out.append(
            make_spread_instance(
                seed, 10_000 + i, n, n_pools=rng.randint(1, 2), fee_bps=0, whale_txs=1
            )
        )
    return out


# ---------------------------------------------------------------------------
# The price-bet strategy's shape
# ---------------------------------------------------------------------------

def matches_bet_strategy_shape(
    ordering: tuple[str, ...],
    bet_label: str,
    reward_label: str,
    eth_in_labels: set[str],
    other_in_labels: set[str],
) -> bool:
    """Does an ordering realize the four-step manipulation: bet placed, every
    primary-token inflow before the claim, every outflow after it?"""
    pos = {lbl: i for i, lbl in enumerate(ordering)}
    if bet_label not in pos or reward_label not in pos:
        return False
    claim = pos[reward_label]
    if pos[bet_label] > claim:
        return False
    if any(pos[lbl] > claim for lbl in eth_in_labels if lbl in pos):
        return False
    if any(pos[lbl] < claim for lbl in other_in_labels if lbl in pos):
        return False
    return True


# ---------------------------------------------------------------------------
# Two-AMM arbitrage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoAmmInstance:
    """Two constant-product pools over the same token pair.  By convention
    reserve_x is the non-primary side (b) and reserve_y the primary (e)."""

    pool_a: AmmPool
    pool_b: AmmPool

    def __post_init__(self):
        same = {self.pool_a.token_x, self.pool_a.token_y} == {
            self.pool_b.token_x,
            self.pool_b.token_y,
        }
        if not same:
            raise ScenarioError("pools must share one token pair")

    @property
    def delta(self) -> int:
        """Size bound below which a round trip profits when prices disagree:
        |b*e' - b'*e| / (b + b'), floor."""
        a, b = self.pool_a, self.pool_b
        return abs(a.reserve_x * b.reserve_y - b.reserve_x * a.reserve_y) // (
            a.reserve_x + b.reserve_x
        )

    @property
    def aligned(self) -> bool:
        a, b = self.pool_a, self.pool_b
        return a.reserve_x * b.reserve_y == b.reserve_x * a.reserve_y

    def profitable_start(self) -> str:
        """Which pool to deposit primary tokens into first: the one valuing
        them more (cross-multiplied comparison)."""
        a, b = self.pool_a, self.pool_b
        return "A" if a.reserve_x * b.reserve_y > b.reserve_x * a.reserve_y else "B"

    def pools(self, start: str) -> tuple[AmmPool, AmmPool]:
        if start == "A":
            return self.pool_a, self.pool_b
        if start == "B":
            return self.pool_b, self.pool_a
        raise ScenarioError("start must be 'A' or 'B'")


def two_amm_roundtrip(instance: TwoAmmInstance, start: str, alpha: int) -> int:
    """Integer profit of depositing ``alpha`` primary tokens into ``start``,
    swapping the proceeds through the other pool, and netting out.

    Fee-less pools use the composed closed form (one floor); with fees the
    two swaps are chained exactly as they would execute.
    """
    if alpha <= 0:
        raise ScenarioError("alpha must be positive")
    first, second = instance.pools(start)
    if first.fee_bps == 0 and second.fee_bps == 0:
        b, e = first.reserve_x, first.reserve_y
        b2, e2 = second.reserve_x, second.reserve_y
        out = (e2 * b * alpha) // (b2 * e + b2 * alpha + b * alpha)
        return out - alpha
    res1 = amm_swap_exact_in(first, first.token_y, alpha)
    if res1 is None:
        raise ScenarioError("first leg rejected the trade")
    _, mid = res1
    if mid == 0:
        return -alpha
    res2 = amm_swap_exact_in(second, second.token_x, mid)
    if res2 is None:
        raise ScenarioError("second leg rejected the trade")
    _, out = res2
    return out - alpha


def two_amm_roundtrip_exact(instance: TwoAmmInstance, start: str, alpha) -> Fraction:
    """No-rounding, no-fee rational profit of the composed two-hop trade."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ScenarioError("alpha must be positive")
    first, second = instance.pools(start)
    b, e = first.reserve_x, first.reserve_y
    b2, e2 = second.reserve_x, second.reserve_y
    return (e2 * b * alpha) / (b2 * e + b2 * alpha + b * alpha) - alpha


def roundtrip_alpha_star(instance: TwoAmmInstance, start: str, scale: int = 10**9) -> Fraction:
    """Closed-form maximizer (sqrt(b'e * be') - b'e)/(b + b') of the no-fee
    rational profit, as a Fraction accurate to 1/scale."""
    first, second = instance.pools(start)
    b, e = first.reserve_x, first.reserve_y
    b2, e2 = second.reserve_x, second.reserve_y
    root = Fraction(math.isqrt(b2 * e * b * e2 * scale * scale), scale)
    return (root - b2 * e) / (b + b2)
