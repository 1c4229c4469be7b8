"""Deterministic DeFi state machine and ordering-search toolkit.

Models constant-product AMMs, a simplified CDP contract, and a price-betting
contract as exact-integer state transitions; enumerates miner-feasible block
constructions (reordering, censoring, insertion) with lossless run pruning
and a seeded randomized fallback; and computes extractable-value metrics,
composability verdicts, and insertion-size optima on top of the search.
"""

__version__ = "0.1.0"

from .contracts import AmmPool, MakerBook, Pricebet
from .metrics import MinerModel, Valuation, ValueSpread, ev, k_mev, value_spread, wmev
from .ordering import EvReport, OrderingSpace, SearchBudget, count_sequences, iter_sequences, search
from .state import (
    AddLiquidity,
    Bet,
    Block,
    CdpManipulate,
    GetReward,
    Liquidate,
    RemoveLiquidity,
    State,
    Swap,
    Tx,
    UnknownVenueError,
    apply_sequence,
    apply_tx,
    block_valid,
    total_supply,
)

__all__ = [
    "AddLiquidity",
    "AmmPool",
    "Bet",
    "Block",
    "CdpManipulate",
    "EvReport",
    "GetReward",
    "Liquidate",
    "MakerBook",
    "MinerModel",
    "OrderingSpace",
    "Pricebet",
    "RemoveLiquidity",
    "SearchBudget",
    "State",
    "Swap",
    "Tx",
    "UnknownVenueError",
    "Valuation",
    "ValueSpread",
    "apply_sequence",
    "apply_tx",
    "block_valid",
    "count_sequences",
    "ev",
    "iter_sequences",
    "k_mev",
    "search",
    "total_supply",
    "value_spread",
    "wmev",
]
