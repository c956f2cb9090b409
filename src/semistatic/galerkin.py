"""Finite-dimensional program assembly: indicator basis for dynamic index
strategies, buy/sell splitting of option positions, and the proportional
transaction-cost variant on the underlying.

The decision vector is laid out as

    [x+ per quote | x- per quote | dynamic trading variables]

where the dynamic block is either a time-0 position plus piecewise-constant
rebalance coefficients per period (frictionless), or nonnegative per-cell
purchase/sale legs per trading period (transaction costs).  Cash is not a
variable: the agent spends the budget w on quotes at the ask (buys) or the bid
(sells) and holds the rest, cash = w - cost @ y, which costs and pays 1.  Every
grid point therefore contributes one affine loss-argument row

    a_i = claim_i - w + sum_j (price_j - payoff_ij) y_j - dynamic gain_i

with price_j the ask for a buy column and minus the bid for a sell column, and
the expected-loss objective is sum_i m_i * exp(kappa * a_i) with
kappa = risk_aversion / reference_wealth.  The program has only its boxes (and
pointwise rows, where a caller adds them); terminal wealth is w - a_i + claim_i.

A leg is the assembled program with its own claim offsets.  The claim and the
budget enter only through the offsets claim_i - w (``liability_offsets``), so
every quantity priced on one strategy space (the baseline, seller and buyer
values, the super- and subhedging costs) is ``program.leg(claim_terms)`` of
one assembled program: same rows, boxes, start, cost and layout.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .claims import claim_payout_grid
from .instruments import option_payoff, position_bounds
from .scenario import QuadratureGrid


def trading_cells(strikes) -> tuple[tuple[float, float], ...]:
    """Half-open cells [K_n, K_(n+1)) partitioning (0, inf), with K_0 = 0 and
    the top edge at +inf.  An empty strike list yields the single full cell."""
    ks = sorted(set(float(k) for k in strikes))
    edges = [0.0] + ks + [np.inf]
    return tuple((a, b) for a, b in zip(edges, edges[1:]))


def cell_index(strikes, x) -> np.ndarray:
    """Cell number of level(s) ``x`` under the strike partition (left-closed)."""
    ks = np.asarray(sorted(set(float(k) for k in strikes)))
    return np.searchsorted(ks, np.asarray(x, dtype=float), side="right")


@dataclass(frozen=True)
class VariableBlock:
    name: str
    start: int
    size: int

    @property
    def slice(self) -> slice:
        return slice(self.start, self.start + self.size)


@dataclass(frozen=True)
class DecisionLayout:
    """Names, slices and cell geometry of the decision vector."""

    mode: str  # "frictionless" | "transaction_cost"
    quote_ids: tuple[str, ...]
    names: tuple[str, ...]
    blocks: dict = field(hash=False, default_factory=dict)
    cells: dict = field(hash=False, default_factory=dict)  # period -> ((lo, hi), ...)
    dropped: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        return len(self.names)

    def block(self, name: str) -> VariableBlock:
        return self.blocks[name]

    def net_positions(self, y: np.ndarray) -> dict[str, float]:
        """Net option count per quote id (buys minus sells), zeros included."""
        out = dict.fromkeys(self.quote_ids, 0.0)
        for name, value in zip(self.names, y):
            tag, _, qid = name.partition(":")
            if tag == "buy":
                out[qid] += float(value)
            elif tag == "sell":
                out[qid] -= float(value)
        return out

    def dynamic_coefficients(self, y: np.ndarray) -> dict:
        """Dynamic-leg variables by name (z0/z-cells or dz legs)."""
        dyn = self.block("dynamic")
        return {
            name: float(value)
            for name, value in zip(self.names[dyn.start :], y[dyn.slice])
        }


@dataclass(frozen=True, eq=False)
class AssembledProgram:
    """Discretized convex program.

    Loss-argument rows are ``offsets + rows @ y``; the objective is either the
    exponential sum over those rows ("exp_sum") or ``cost @ y`` ("linear").
    ``point_upper`` (if set) bounds every row from above, which expresses
    pointwise payout-domination constraints.  The offsets already subtract
    ``budget``, and the cash left after buying the positions ``y`` is
    ``budget - cost @ y``.
    """

    objective: str  # "exp_sum" | "linear"
    layout: DecisionLayout
    rows: np.ndarray          # (M, n)
    offsets: np.ndarray       # (M,)
    masses: np.ndarray        # (M,)
    kappa: float
    cost: np.ndarray          # (n,) acquisition-cost row; the LP objective
    budget: float
    point_upper: np.ndarray | None
    lower: np.ndarray
    upper: np.ndarray
    start: np.ndarray
    grid: QuadratureGrid

    @property
    def variable_count(self) -> int:
        return self.rows.shape[1]

    @property
    def constraint_count(self) -> int:
        """Scalar inequality faces: pointwise rows and finite box edges."""
        n = 0 if self.point_upper is None else self.point_upper.shape[0]
        return n + int(np.isfinite(self.lower).sum()) + int(np.isfinite(self.upper).sum())

    def loss_arguments(self, y: np.ndarray) -> np.ndarray:
        return self.offsets + self.rows @ y

    def portfolio_payout(self, y: np.ndarray) -> np.ndarray:
        """Terminal wealth per grid point, cash included (claim liability excluded)."""
        return self.budget - self.rows @ y

    def leg(self, claim_terms, budget: float | None = None) -> AssembledProgram:
        """This strategy space against ``claim_terms`` in full, at ``budget`` or its own."""
        w = self.budget if budget is None else float(budget)
        return replace(self, offsets=liability_offsets(claim_terms, self.grid, w), budget=w)


def _strikes_by_period(quotes, periods: int) -> list[list[float]]:
    out: list[list[float]] = [[] for _ in range(periods)]
    for q in quotes:
        if q.maturity <= periods:
            out[q.maturity - 1].append(q.strike)
    return [sorted(set(s)) for s in out]


def claim_liability(claim_terms, grid: QuadratureGrid) -> np.ndarray:
    """USD owed per grid point on the (claim, units) terms; sold units count positive."""
    offsets = np.zeros(grid.size)
    for claim, units in claim_terms or ():
        offsets = offsets + units * claim.contract_size * claim_payout_grid(claim, grid.points)
    return offsets


def liability_offsets(claim_terms, grid: QuadratureGrid, budget: float) -> np.ndarray:
    """Offsets of the loss rows: the liability on ``claim_terms`` less the budget."""
    return claim_liability(claim_terms, grid) - budget


def _assemble(quotes, claim_terms, agent, grid, lot_size, budget, delta_pct):
    quotes = list(quotes)
    T = grid.periods
    points = grid.points
    M = points.shape[0]
    spot = grid.spot
    basis_strikes = _strikes_by_period(quotes, T)

    names: list[str] = []
    columns: list[np.ndarray] = []
    cost_coeffs: list[float] = []
    lower: list[float] = []
    upper: list[float] = []
    start: list[float] = []

    payoff = [option_payoff(q.kind, q.strike, points[:, q.maturity - 1]) for q in quotes]
    boxes = [position_bounds(q, lot_size) for q in quotes]
    for j, q in enumerate(quotes):
        names.append(f"buy:{q.id}")
        columns.append(q.ask_price - payoff[j])
        cost_coeffs.append(q.ask_price)
        lower.append(0.0)
        upper.append(boxes[j].upper)
        start.append(0.5 * min(boxes[j].upper, 1.0))
    for j, q in enumerate(quotes):
        names.append(f"sell:{q.id}")
        columns.append(payoff[j] - q.bid_price)
        cost_coeffs.append(-q.bid_price)
        lower.append(0.0)
        upper.append(-boxes[j].lower)
        start.append(0.5 * min(-boxes[j].lower, 1.0))

    rebalance_cells = {s: trading_cells(basis_strikes[s - 1]) for s in range(1, T)}

    if delta_pct is None:
        # frictionless: the row carries -sum_(t=0..T-1) z_t(X_t) (X_(t+1) - X_t)
        # with z_0 a single scalar (X_0 is known)
        names.append("z0")
        columns.append(-(points[:, 0] - spot))
        cost_coeffs.append(0.0)
        lower.append(-np.inf)
        upper.append(np.inf)
        start.append(0.0)
        for s in range(1, T):
            idx = cell_index(basis_strikes[s - 1], points[:, s - 1])
            dx = points[:, s] - points[:, s - 1]
            for n, (lo, hi) in enumerate(rebalance_cells[s]):
                names.append(f"z{s}[{lo:g},{hi:g})")
                columns.append(-np.where(idx == n, dx, 0.0))
                cost_coeffs.append(0.0)
                lower.append(-np.inf)
                upper.append(np.inf)
                start.append(0.0)
        mode = "frictionless"
        layout_cells = rebalance_cells
    else:
        if delta_pct < 0:
            raise ValueError("transaction cost percentage must be nonnegative")
        d = delta_pct / 100.0
        # nonnegative purchase/sale legs per trading period and cell; the row
        # carries +sum_t S_t(dz_t) where the horizon liquidation -X_T z_(T-1)
        # is costless and folded into every leg's column
        x_T = points[:, T - 1]
        layout_cells = {0: ((0.0, np.inf),), **rebalance_cells}
        for s in range(0, T):
            level = np.full(M, spot) if s == 0 else points[:, s - 1]
            idx = (
                np.zeros(M, dtype=int)
                if s == 0
                else cell_index(basis_strikes[s - 1], points[:, s - 1])
            )
            for n, (lo, hi) in enumerate(layout_cells[s]):
                mask = idx == n
                names.append(f"dzbuy{s}[{lo:g},{hi:g})")
                columns.append(np.where(mask, (1.0 + d) * level - x_T, 0.0))
                names.append(f"dzsell{s}[{lo:g},{hi:g})")
                columns.append(np.where(mask, -(1.0 - d) * level + x_T, 0.0))
                cost_coeffs.extend([0.0, 0.0])
                lower.extend([0.0, 0.0])
                upper.extend([np.inf, np.inf])
                start.extend([1e-2, 1e-2])
        mode = "transaction_cost"

    rows = np.column_stack(columns)
    cost = np.array(cost_coeffs)
    lower_arr = np.array(lower)
    upper_arr = np.array(upper)
    start_arr = np.array(start)

    # drop variables fixed by a zero-width box, and variables whose columns
    # are identically zero (such as dynamic cells no grid point activates).
    # Dynamic variables whose cells carry negligible probability mass are
    # unidentifiable from the objective and would drift to arbitrary values,
    # so they go too.
    J = len(quotes)
    touched = np.abs(rows).max(axis=0) > 0
    keep = (upper_arr - lower_arr > 0) & touched
    active_mass = grid.masses @ (rows[:, 2 * J :] != 0)
    keep[2 * J :] &= active_mass >= 1e-12
    dropped = tuple(n for n, k in zip(names, keep) if not k)
    rows = rows[:, keep]
    cost = cost[keep]
    lower_arr, upper_arr, start_arr = lower_arr[keep], upper_arr[keep], start_arr[keep]
    kept_names = tuple(n for n, k in zip(names, keep) if k)

    n_buy = int(keep[:J].sum())
    n_options = n_buy + int(keep[J : 2 * J].sum())
    blocks = {
        "buy": VariableBlock("buy", 0, n_buy),
        "sell": VariableBlock("sell", n_buy, n_options - n_buy),
        "dynamic": VariableBlock("dynamic", n_options, rows.shape[1] - n_options),
    }
    layout = DecisionLayout(
        mode=mode,
        quote_ids=tuple(q.id for q in quotes),
        names=kept_names,
        blocks=blocks,
        cells=layout_cells,
        dropped=dropped,
    )

    w = agent.initial_wealth if budget is None else float(budget)
    return AssembledProgram(
        objective="exp_sum",
        layout=layout,
        rows=rows,
        offsets=liability_offsets(claim_terms, grid, w),
        masses=grid.masses,
        kappa=agent.risk_aversion / agent.initial_wealth,
        cost=cost,
        budget=w,
        point_upper=None,
        lower=lower_arr,
        upper=upper_arr,
        start=start_arr,
        grid=grid,
    )


def assemble_frictionless(
    quotes, claim_terms, agent, grid: QuadratureGrid, lot_size: float = 100.0,
    budget: float | None = None,
) -> AssembledProgram:
    """Discretized optimal-investment program with a perfectly liquid index.

    ``claim_terms`` is a sequence of (claim, units); positive units are sold
    claims and add their payout to the loss argument.
    """
    return _assemble(quotes, claim_terms, agent, grid, lot_size, budget, None)


def assemble_transaction_cost(
    quotes, claim_terms, agent, grid: QuadratureGrid, delta_pct: float,
    lot_size: float = 100.0, budget: float | None = None,
) -> AssembledProgram:
    """Variant with a proportional cost of ``delta_pct`` percent on index trades
    at t = 0..T-1; the horizon liquidation is costless."""
    return _assemble(quotes, claim_terms, agent, grid, lot_size, budget, float(delta_pct))
