"""Semi-static hedging and utility-indifference pricing of exotic claims
against quoted option chains with bid-ask spreads, finite quantities and
proportional index transaction costs.

When this package is the first to import numpy and none of
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set,
numpy's OpenBLAS loads at one thread; set ``OPENBLAS_NUM_THREADS`` to choose
another count (see ``semistatic.blas``)."""

import os as _os
import sys as _sys

# OpenBLAS starts its worker threads while it loads, and they spin idle beside
# the solver's one-thread systems (``semistatic.blas``).  The variable lives
# only for numpy's import: os.environ and child processes keep the caller's.
if "numpy" not in _sys.modules and not any(
        name in _os.environ
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]
del _os, _sys

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
