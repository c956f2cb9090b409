"""Quoted derivatives: two-sided quotes, their position bounds and payoffs.

Quantities on a :class:`Quote` are stored as quoted (contracts at the best bid
and ask); ``position_bounds`` converts them to option counts via the market lot
size.  Cash is not an instrument: wealth not spent on quotes is held as cash,
which costs and pays 1 per unit, so the program assembler folds it into the
loss rows as the budget minus the quotes' acquisition cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class OptionKind(str, Enum):
    CALL = "call"
    PUT = "put"


@dataclass(frozen=True)
class Quote:
    """One two-sided option quote.

    ``bid_qty``/``ask_qty`` are contract counts at the best quotes; ``bid_price``
    and ``ask_price`` are USD per option.  Crossed quotes (bid above ask) are
    legal and only flagged: rejecting them would make arbitrage detection
    untestable.
    """

    id: str
    kind: OptionKind
    strike: float
    maturity: int
    bid_price: float
    ask_price: float
    bid_qty: float
    ask_qty: float

    def __post_init__(self):
        for name in ("strike", "bid_price", "ask_price", "bid_qty", "ask_qty"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"quote {name} must be finite, got {getattr(self, name)}")
        if self.strike <= 0:
            raise ValueError(f"strike must be positive, got {self.strike}")
        if self.maturity < 1:
            raise ValueError(f"maturity period must be >= 1, got {self.maturity}")
        if self.bid_qty < 0 or self.ask_qty < 0:
            raise ValueError("quote quantities must be nonnegative")

    @property
    def crossed(self) -> bool:
        return self.bid_price > self.ask_price


def position_bounds(quote: Quote, lot_size: float) -> tuple[float, float]:
    """Option-count position interval (lower, upper) = (-bid_qty*lot, ask_qty*lot) of a quote."""
    if lot_size <= 0:
        raise ValueError(f"lot size must be positive, got {lot_size}")
    return -quote.bid_qty * lot_size, quote.ask_qty * lot_size


def option_payoff(kind: OptionKind, strike: float, levels: np.ndarray) -> np.ndarray:
    """Payoff per option at an array of maturity levels: calls pay
    (X_m - K)+ and puts (K - X_m)+ at their own maturity m."""
    if kind is OptionKind.CALL:
        return np.maximum(levels - strike, 0.0)
    return np.maximum(strike - levels, 0.0)
