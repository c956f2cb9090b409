"""Semi-static hedging and utility-indifference pricing of exotic claims
against quoted option chains with bid-ask spreads, finite quantities and
proportional index transaction costs."""

from .claims import (
    Claim,
    asian_call,
    claim_breakpoints,
    claim_payout,
    knockout_call,
    lookback_call,
    lookback_digital,
    vanilla_call,
)
from .instruments import OptionKind, Quote, position_bounds
from .pricing import (
    AgentSpec,
    Market,
    PriceReport,
    find_arbitrage,
    indifference_buy,
    indifference_sell,
    optimal_value,
    price_report,
    subhedge_cost,
    superhedge_cost,
)
from .scenario import QuadratureGrid, VGParams, build_grid, simulate_paths
from .solver import SolveSettings, Solution, minimize, solve_lp

__version__ = "0.1.0"

__all__ = [
    "AgentSpec",
    "Claim",
    "Market",
    "OptionKind",
    "PriceReport",
    "QuadratureGrid",
    "Quote",
    "SolveSettings",
    "Solution",
    "VGParams",
    "asian_call",
    "build_grid",
    "claim_breakpoints",
    "claim_payout",
    "find_arbitrage",
    "indifference_buy",
    "indifference_sell",
    "knockout_call",
    "lookback_call",
    "lookback_digital",
    "minimize",
    "optimal_value",
    "position_bounds",
    "price_report",
    "simulate_paths",
    "solve_lp",
    "subhedge_cost",
    "superhedge_cost",
    "vanilla_call",
]
