"""Quoted derivatives: two-sided quotes, acquisition costs, position boxes, payoffs.

Quantities on a :class:`Quote` are stored as quoted (contracts at the best bid
and ask); ``position_bounds`` converts them to option counts via the market lot
size.  Cash is not an instrument: wealth not spent on quotes is held as cash,
which costs and pays 1 per unit, so the program assembler folds it into the
loss rows as the budget minus the quotes' acquisition cost.
"""
from __future__ import annotations

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
        if self.strike <= 0:
            raise ValueError(f"strike must be positive, got {self.strike}")
        if self.maturity < 1:
            raise ValueError(f"maturity period must be >= 1, got {self.maturity}")
        if self.bid_qty < 0 or self.ask_qty < 0:
            raise ValueError("quote quantities must be nonnegative")

    @property
    def crossed(self) -> bool:
        return self.bid_price > self.ask_price

    @property
    def zero_width(self) -> bool:
        return self.bid_price == self.ask_price


@dataclass(frozen=True)
class PositionBox:
    """Admissible interval for one quote's position, in options."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower <= 0.0 <= self.upper):
            raise ValueError(f"position box [{self.lower}, {self.upper}] must contain 0")

    def contains(self, qty: float) -> bool:
        return self.lower <= qty <= self.upper


def acquisition_cost(quote: Quote, qty: float) -> float:
    """USD cost of acquiring ``qty`` options: ask side for buys, bid side for sells.

    Continuous, convex and positively homogeneous in ``qty``; zero at zero.
    Bound checking is the program assembler's job, not done here.
    """
    if qty >= 0.0:
        return quote.ask_price * qty
    return quote.bid_price * qty


def position_bounds(quote: Quote, lot_size: float) -> PositionBox:
    """Option-count position interval [-bid_qty*lot, ask_qty*lot] for one quote."""
    if lot_size <= 0:
        raise ValueError(f"lot size must be positive, got {lot_size}")
    return PositionBox(-quote.bid_qty * lot_size, quote.ask_qty * lot_size)


def quoted_payoff(quote: Quote, path) -> float:
    """Payoff per option at the quote's own maturity, given index path (X_1,...,X_T).

    Calls pay (X_m - K)+, puts (K - X_m)+ at maturity m; nothing at other
    periods.  With zero interest, settling at own maturity or at the horizon
    are equivalent.
    """
    level = path[quote.maturity - 1]
    if level <= 0:
        raise ValueError("index levels must be positive")
    if quote.kind is OptionKind.CALL:
        return max(level - quote.strike, 0.0)
    return max(quote.strike - level, 0.0)


def option_payoff(kind: OptionKind, strike: float, levels: np.ndarray) -> np.ndarray:
    """Payoff per option at an array of maturity levels: the vectorized
    counterpart of :func:`quoted_payoff`, for scenario grids."""
    if kind is OptionKind.CALL:
        return np.maximum(levels - strike, 0.0)
    return np.maximum(strike - levels, 0.0)
