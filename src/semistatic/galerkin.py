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

The assemblers read only what the columns depend on (quotes, grid, lot size,
index cost) and return the bare strategy space: budget 0, no claim, no risk
scale.  Everything else derives from it by three methods, each the one place
its decision lives: ``leg`` sets the claim offsets claim_i - w, the budget
and kappa; ``keep`` takes a column subset and records the rest in
``layout.dropped`` (the assembler's drop rule, the static-only strategies);
``epigraph`` lifts the rows to [rows | -1] for the least level t with
a_i(y) - t <= point_upper_i (the hedging LPs, the phase-1 slack).  The one
column kernel, ``strategy_columns``, evaluates every variable on any (M, T)
path array: the grid's points or simulated paths.
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
    """Names and cell geometry of the decision vector."""

    mode: str  # "frictionless" | "transaction_cost"
    quote_ids: tuple[str, ...]
    names: tuple[str, ...]
    cells: dict = field(hash=False, default_factory=dict)  # period -> ((lo, hi), ...)
    dropped: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        return len(self.names)

    def block(self, name: str) -> VariableBlock:
        """The "buy", "sell" or "dynamic" block, read off the ``buy:`` and
        ``sell:`` name prefixes; the dynamic variables follow the options."""
        tags = [n.partition(":")[0] for n in self.names]
        n_buy, n_sell = tags.count("buy"), tags.count("sell")
        start, size = {
            "buy": (0, n_buy),
            "sell": (n_buy, n_sell),
            "dynamic": (n_buy + n_sell, self.size - n_buy - n_sell),
        }[name]
        return VariableBlock(name, start, size)

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
    ``budget - cost @ y``.  ``kappa`` is None on a bare strategy space, which
    no exponential solve accepts.
    """

    objective: str  # "exp_sum" | "linear"
    layout: DecisionLayout
    rows: np.ndarray          # (M, n)
    offsets: np.ndarray       # (M,)
    masses: np.ndarray        # (M,)
    kappa: float | None
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

    def leg(self, claim_terms, budget: float, kappa: float | None = None) -> AssembledProgram:
        """This strategy space against ``claim_terms`` in full at ``budget``,
        with the risk scale ``kappa`` or its own."""
        return replace(
            self,
            offsets=claim_liability(claim_terms, self.grid) - budget,
            budget=float(budget),
            kappa=self.kappa if kappa is None else kappa,
        )

    def keep(self, mask) -> AssembledProgram:
        """The columns where ``mask`` is true; the others join ``layout.dropped``."""
        mask = np.asarray(mask, dtype=bool)
        names = self.layout.names
        layout = replace(
            self.layout,
            names=tuple(n for n, k in zip(names, mask) if k),
            dropped=self.layout.dropped + tuple(n for n, k in zip(names, mask) if not k),
        )
        return replace(
            self,
            layout=layout,
            rows=self.rows[:, mask],
            cost=self.cost[mask],
            lower=self.lower[mask],
            upper=self.upper[mask],
            start=self.start[mask],
        )

    def epigraph(self, point_upper, level_lower: float, level_start: float) -> AssembledProgram:
        """The linear program: minimize a level t over (y, t) subject to
        a_i(y) - t <= point_upper_i on this program's loss rows, t >= level_lower,
        started at (start, level_start).  The level is the last column; the
        layout names only y."""
        M, n = self.rows.shape
        return replace(
            self,
            objective="linear",
            rows=np.hstack([self.rows, -np.ones((M, 1))]),
            cost=np.append(np.zeros(n), 1.0),
            point_upper=point_upper,
            lower=np.append(self.lower, level_lower),
            upper=np.append(self.upper, np.inf),
            start=np.append(self.start, level_start),
        )


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


def strategy_columns(quotes, points: np.ndarray, spot: float, delta_pct: float | None = None):
    """Names, loss-row columns (M, n) and rebalance cells per period of every
    strategy variable on the paths ``points`` (M, T), in layout order.

    The trading cells of period s are those of the strikes quoted for
    maturity s.  Without ``delta_pct`` the index trades without cost; with
    it, index trades at t = 0..T-1 cost ``delta_pct`` percent and the
    horizon liquidation is costless.
    """
    quotes = list(quotes)
    M, T = points.shape
    basis_strikes = _strikes_by_period(quotes, T)
    payoff = [option_payoff(q.kind, q.strike, points[:, q.maturity - 1]) for q in quotes]
    names = [f"buy:{q.id}" for q in quotes] + [f"sell:{q.id}" for q in quotes]
    columns = [q.ask_price - p for q, p in zip(quotes, payoff)]
    columns += [p - q.bid_price for q, p in zip(quotes, payoff)]
    cells = {s: trading_cells(basis_strikes[s - 1]) for s in range(1, T)}

    if delta_pct is None:
        # frictionless: the row carries -sum_(t=0..T-1) z_t(X_t) (X_(t+1) - X_t)
        # with z_0 a single scalar (X_0 is known)
        names.append("z0")
        columns.append(-(points[:, 0] - spot))
        for s in range(1, T):
            idx = cell_index(basis_strikes[s - 1], points[:, s - 1])
            dx = points[:, s] - points[:, s - 1]
            for n, (lo, hi) in enumerate(cells[s]):
                names.append(f"z{s}[{lo:g},{hi:g})")
                columns.append(-np.where(idx == n, dx, 0.0))
        return tuple(names), np.column_stack(columns), cells

    if delta_pct < 0:
        raise ValueError("transaction cost percentage must be nonnegative")
    d = delta_pct / 100.0
    # nonnegative purchase/sale legs per trading period and cell; the row
    # carries +sum_t S_t(dz_t) where the horizon liquidation -X_T z_(T-1)
    # is costless and folded into every leg's column
    x_T = points[:, T - 1]
    cells = {0: ((0.0, np.inf),), **cells}
    for s in range(0, T):
        level = np.full(M, spot) if s == 0 else points[:, s - 1]
        idx = np.zeros(M, dtype=int) if s == 0 else cell_index(basis_strikes[s - 1], level)
        for n, (lo, hi) in enumerate(cells[s]):
            mask = idx == n
            names += [f"dzbuy{s}[{lo:g},{hi:g})", f"dzsell{s}[{lo:g},{hi:g})"]
            columns.append(np.where(mask, (1.0 + d) * level - x_T, 0.0))
            columns.append(np.where(mask, -(1.0 - d) * level + x_T, 0.0))
    return tuple(names), np.column_stack(columns), cells


def _assemble(quotes, grid, lot_size, delta_pct):
    quotes = list(quotes)
    names, rows, cells = strategy_columns(quotes, grid.points, grid.spot, delta_pct)
    frictionless = delta_pct is None
    J, dynamic = len(quotes), len(names) - 2 * len(quotes)
    boxes = [position_bounds(q, lot_size) for q in quotes]
    upper = np.array([b.upper for b in boxes] + [-b.lower for b in boxes] + [np.inf] * dynamic)
    lower = np.concatenate([np.zeros(2 * J), np.full(dynamic, -np.inf if frictionless else 0.0)])
    start = np.concatenate(
        [0.5 * np.minimum(upper[: 2 * J], 1.0), np.full(dynamic, 0.0 if frictionless else 1e-2)]
    )
    space = AssembledProgram(
        objective="exp_sum",
        layout=DecisionLayout(
            mode="frictionless" if frictionless else "transaction_cost",
            quote_ids=tuple(q.id for q in quotes),
            names=names,
            cells=cells,
        ),
        rows=rows,
        offsets=np.zeros(grid.size),
        masses=grid.masses,
        kappa=None,
        cost=np.concatenate(
            [[q.ask_price for q in quotes], [-q.bid_price for q in quotes], np.zeros(dynamic)]
        ),
        budget=0.0,
        point_upper=None,
        lower=lower,
        upper=upper,
        start=start,
        grid=grid,
    )
    # drop variables fixed by a zero-width box, and variables whose columns
    # are identically zero (such as dynamic cells no grid point activates).
    # Dynamic variables whose cells carry negligible probability mass are
    # unidentifiable from the objective and would drift to arbitrary values,
    # so they go too.
    keep = (upper - lower > 0) & (np.abs(rows).max(axis=0) > 0)
    keep[2 * J :] &= grid.masses @ (rows[:, 2 * J :] != 0) >= 1e-12
    return space.keep(keep)


def assemble_frictionless(
    quotes, grid: QuadratureGrid, lot_size: float = 100.0
) -> AssembledProgram:
    """Strategy space of the quotes with a perfectly liquid index, on ``grid``."""
    return _assemble(quotes, grid, lot_size, None)


def assemble_transaction_cost(
    quotes, grid: QuadratureGrid, delta_pct: float, lot_size: float = 100.0
) -> AssembledProgram:
    """Strategy space with a proportional cost of ``delta_pct`` percent on index
    trades at t = 0..T-1; the horizon liquidation is costless."""
    return _assemble(quotes, grid, lot_size, float(delta_pct))