"""Top-level financial quantities: optimal expected-loss values, buyer and
seller indifference prices (closed form under exponential loss, plus a generic
bisection), super- and subhedging costs on the truncated scenario grid, and
arbitrage detection.

Sign conventions: positive claim units are sold claims and enter the loss
argument with a plus sign; prices are USD per claim unit times ``units``.
The risk scale kappa = risk_aversion / initial_wealth is frozen at the agent's
reference wealth and never rescaled when budgets shift.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .claims import Claim, claim_breakpoints
from .galerkin import (
    AssembledProgram,
    assemble_frictionless,
    assemble_transaction_cost,
)
from .instruments import OptionKind, Quote
from .scenario import QuadratureGrid, VGParams, build_grid
from .solver import SolveSettings, Solution, feasibility_start, minimize, solve_lp

INFEASIBLE_SENTINEL = float("inf")


class SolverFailure(RuntimeError):
    """A pricing leg could not be solved to an acceptable status."""


@dataclass(frozen=True)
class AgentSpec:
    """Investor description: reference wealth, exponential risk aversion and an
    optional baseline liability carried before any claim is priced."""

    initial_wealth: float
    risk_aversion: float
    baseline_claim: Claim | None = None
    baseline_units: float = 0.0

    def __post_init__(self):
        if self.initial_wealth <= 0:
            raise ValueError("initial wealth must be positive")
        if self.risk_aversion <= 0:
            raise ValueError("risk aversion must be positive")

    def baseline_terms(self) -> list:
        if self.baseline_claim is None or self.baseline_units == 0.0:
            return []
        return [(self.baseline_claim, self.baseline_units)]


_LP_AGENT = AgentSpec(1.0, 1.0)


@dataclass(frozen=True)
class Market:
    """Tradable universe: quotes, lot size, index model and grid geometry.

    ``grid_strikes`` optionally overrides the per-period node ladders; by
    default the quadrature nodes are the quoted strikes per maturity.
    """

    quotes: tuple[Quote, ...]
    model: VGParams
    lot_size: float = 100.0
    truncation: tuple[tuple[float, float], ...] | None = None
    grid_strikes: tuple[tuple[float, ...], ...] | None = None
    density_nodes: int = 400
    guard_fraction: float = 0.02

    def _truncation(self) -> tuple[tuple[float, float], ...]:
        if self.truncation is not None:
            return tuple(tuple(t) for t in self.truncation)
        return ((1000.0, 3000.0),) * self.model.periods

    def _guard_levels(self, period: int) -> tuple[float, ...]:
        # Each period's node range must sit strictly inside the next period's,
        # so every trading cell sees the index move both ways on the grid;
        # otherwise the discretized model has spurious one-sided cells.
        if self.guard_fraction <= 0:
            return ()
        lo, hi = self._truncation()[period - 1]
        margin = self.guard_fraction * (hi - lo) * (self.model.periods - period + 1)
        return (lo + margin, hi - margin)

    def strike_sets(self) -> list[list[float]]:
        T = self.model.periods
        out: list[list[float]] = [[] for _ in range(T)]
        for q in self.quotes:
            if q.maturity <= T:
                out[q.maturity - 1].append(q.strike)
        sets = [sorted(set(s)) for s in out]
        if self.grid_strikes is not None:
            sets = [sorted(set(list(sets[t]) + list(self.grid_strikes[t]))) for t in range(T)]
        return sets

    def grid_for(self, claim_terms=()) -> QuadratureGrid:
        T = self.model.periods
        merged = [[] for _ in range(T)]
        for claim, _units in claim_terms or ():
            for t, bps in enumerate(claim_breakpoints(claim)):
                if t < T:
                    merged[t].extend(bps)
        sets = self.strike_sets()
        sets = [
            sorted(set(sets[t]) | set(self._guard_levels(t + 1))) for t in range(T)
        ]
        if any(len(s) == 0 for s in sets):
            raise ValueError(
                "no grid nodes for some period: no quoted strikes, no grid_strikes "
                "override, and guard nodes disabled"
            )
        return build_grid(
            self.model,
            sets,
            breakpoints=merged,
            truncation=self._truncation(),
            n_nodes=self.density_nodes,
        )

    def without_quote(self, kind: OptionKind, strike: float, maturity: int) -> "Market":
        kept = tuple(
            q
            for q in self.quotes
            if not (q.kind is kind and q.strike == strike and q.maturity == maturity)
        )
        return replace(self, quotes=kept)


def _claim_terms(agent: AgentSpec, claim: Claim | None, units: float) -> list:
    terms = agent.baseline_terms()
    if claim is not None and units != 0.0:
        terms.append((claim, units))
    return terms


def _assemble(market, claim_terms, agent, grid, budget, delta_pct, allow_dynamic=True):
    if delta_pct is None:
        program = assemble_frictionless(
            market.quotes, claim_terms, agent, grid, market.lot_size, budget=budget
        )
    else:
        program = assemble_transaction_cost(
            market.quotes, claim_terms, agent, grid, delta_pct, market.lot_size, budget=budget
        )
    if not allow_dynamic:
        program = _strip_dynamic(program)
    return program


def _strip_dynamic(program: AssembledProgram) -> AssembledProgram:
    dyn = program.layout.block("dynamic")
    keep = np.ones(program.variable_count, dtype=bool)
    keep[dyn.slice] = False
    layout = replace(
        program.layout,
        names=tuple(n for n, k in zip(program.layout.names, keep) if k),
        blocks={
            **{k: v for k, v in program.layout.blocks.items() if k != "dynamic"},
            "dynamic": replace(dyn, size=0),
        },
        dropped=program.layout.dropped
        + tuple(n for n, k in zip(program.layout.names, keep) if not k),
    )
    return replace(
        program,
        layout=layout,
        rows=program.rows[:, keep],
        cost=program.cost[keep],
        lower=program.lower[keep],
        upper=program.upper[keep],
        start=program.start[keep],
    )


def optimal_value(
    market: Market,
    agent: AgentSpec,
    claim: Claim | None = None,
    claim_units: float = 0.0,
    budget: float | None = None,
    delta_pct: float | None = None,
    grid: QuadratureGrid | None = None,
    settings: SolveSettings | None = None,
    allow_dynamic: bool = True,
    return_solution: bool = False,
):
    """Optimal expected exponential loss for the given budget and claim terms.

    Strictly decreasing in the budget (unspent wealth is held as cash).  Returns the
    optimum value, or (value, Solution) with ``return_solution``.
    """
    terms = _claim_terms(agent, claim, claim_units)
    if grid is None:
        grid = market.grid_for(terms)
    program = _assemble(market, terms, agent, grid, budget, delta_pct, allow_dynamic)
    solution = minimize(program, settings)
    if solution.status in ("infeasible", "unbounded"):
        raise SolverFailure(f"optimal-value solve ended with status {solution.status}")
    if return_solution:
        return solution.objective, solution
    return solution.objective


def _log_value(market, agent, terms, budget, delta_pct, grid, settings, allow_dynamic=True):
    """(log optimal value, Solution, AssembledProgram) of one exponential leg."""
    program = _assemble(market, terms, agent, grid, budget, delta_pct, allow_dynamic)
    solution = minimize(program, settings)
    if solution.status in ("infeasible", "unbounded"):
        raise SolverFailure(f"solve ended with status {solution.status}")
    return solution.log_objective, solution, program


def indifference_sell(
    market: Market,
    agent: AgentSpec,
    claim: Claim,
    units: float = 1.0,
    delta_pct: float | None = None,
    grid: QuadratureGrid | None = None,
    settings: SolveSettings | None = None,
) -> float:
    """Least selling price leaving the optimal expected loss unchanged:
    (w / lambda) * log(phi(w, base + claim) / phi(w, base))."""
    terms = _claim_terms(agent, claim, units)
    if grid is None:
        grid = market.grid_for(terms)
    log_with, *_ = _log_value(market, agent, terms, None, delta_pct, grid, settings)
    log_base, *_ = _log_value(market, agent, agent.baseline_terms(), None, delta_pct, grid, settings)
    return agent.initial_wealth / agent.risk_aversion * (log_with - log_base)


def indifference_buy(
    market: Market,
    agent: AgentSpec,
    claim: Claim,
    units: float = 1.0,
    delta_pct: float | None = None,
    grid: QuadratureGrid | None = None,
    settings: SolveSettings | None = None,
) -> float:
    """Greatest buying price leaving the optimal expected loss unchanged."""
    terms = _claim_terms(agent, claim, -units)
    if grid is None:
        grid = market.grid_for(_claim_terms(agent, claim, units))
    log_base, *_ = _log_value(market, agent, agent.baseline_terms(), None, delta_pct, grid, settings)
    log_minus, *_ = _log_value(market, agent, terms, None, delta_pct, grid, settings)
    return agent.initial_wealth / agent.risk_aversion * (log_base - log_minus)


def indifference_bisection(
    market: Market,
    agent: AgentSpec,
    claim: Claim,
    units: float = 1.0,
    side: str = "sell",
    delta_pct: float | None = None,
    grid: QuadratureGrid | None = None,
    settings: SolveSettings | None = None,
    width_tol: float = 1e-8,
    max_doublings: int = 60,
) -> float:
    """Indifference price by budget line search, agnostic of the loss form.

    Finds the compensation making the optimal value with the claim match the
    baseline; the bracket is expanded by doubling and then bisected until its
    width is below ``width_tol * initial_wealth``.
    """
    if side not in ("sell", "buy"):
        raise ValueError("side must be 'sell' or 'buy'")
    terms = _claim_terms(agent, claim, units if side == "sell" else -units)
    if grid is None:
        grid = market.grid_for(_claim_terms(agent, claim, units))
    base_log, *_ = _log_value(market, agent, agent.baseline_terms(), None, delta_pct, grid, settings)

    sign = 1.0 if side == "sell" else -1.0

    def shortfall(price):
        # positive while the compensated position is still worse than baseline
        log_v, *_ = _log_value(
            market, agent, terms, agent.initial_wealth + sign * price, delta_pct, grid, settings
        )
        return sign * (log_v - base_log)

    w = agent.initial_wealth
    lo, hi = 0.0, 0.0
    f0 = shortfall(0.0)
    if f0 == 0.0:
        return 0.0
    step = w / 64.0
    if f0 > 0:
        hi = step
        for _ in range(max_doublings):
            if shortfall(hi) <= 0:
                break
            lo, hi = hi, hi * 2.0
        else:
            raise SolverFailure("bisection bracket expansion failed")
    else:
        lo = -step
        for _ in range(max_doublings):
            if shortfall(lo) > 0:
                break
            hi, lo = lo, lo * 2.0
        else:
            raise SolverFailure("bisection bracket expansion failed")

    while hi - lo > width_tol * w:
        mid = 0.5 * (lo + hi)
        if shortfall(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class HedgePortfolio:
    """Positions bought with a budget ``cost``: net options per quote, the
    cash left over, and the dynamic-leg coefficients by variable name."""

    positions: dict
    cash: float
    dynamic: dict
    cost: float


def _portfolio(program: AssembledProgram, y: np.ndarray, budget: float) -> HedgePortfolio:
    """The positions ``y`` of ``program`` bought with ``budget``; the rest is cash."""
    layout = program.layout
    return HedgePortfolio(
        positions=layout.net_positions(y),
        cash=budget - float(program.cost @ y),
        dynamic=layout.dynamic_coefficients(y),
        cost=budget,
    )


def _least_dominating_wealth(market, claim, units, delta_pct, grid, settings, allow_dynamic):
    """Least initial wealth w whose strategy dominates the claim at every grid
    point: minimize w subject to a_i(y) - w <= 0, with the loss rows a_i
    assembled at budget 0 and w as the LP's last variable, started one above
    the largest loss at the program's start.  Returns (HedgePortfolio or
    None, Solution)."""
    program = _assemble(market, [(claim, units)], _LP_AGENT, grid, 0.0, delta_pct, allow_dynamic)
    M, n = program.rows.shape
    rows = np.hstack([program.rows, -np.ones((M, 1))])
    # the program keeps a view of the LP's rows, so the grid-sized matrix exists once
    program = replace(program, rows=rows[:, :n])
    start = program.start
    lp = replace(
        program,
        objective="linear",
        rows=rows,
        cost=np.append(np.zeros(n), 1.0),
        point_upper=np.zeros(M),
        lower=np.append(program.lower, -np.inf),
        upper=np.append(program.upper, np.inf),
        start=np.append(start, max(0.5, float(program.loss_arguments(start).max()) + 1.0)),
    )
    solution = solve_lp(lp, settings)
    if solution.status == "infeasible":
        return None, solution
    return _portfolio(program, solution.x[:n], solution.objective), solution


def superhedge_cost(
    market: Market,
    claim: Claim,
    units: float = 1.0,
    delta_pct: float | None = None,
    grid: QuadratureGrid | None = None,
    settings: SolveSettings | None = None,
    allow_dynamic: bool = True,
):
    """Least cost of a portfolio whose payout dominates the claim at every grid
    point.  Returns (cost, HedgePortfolio, Solution); infeasibility yields an
    infinite sentinel."""
    if grid is None:
        grid = market.grid_for([(claim, units)])
    portfolio, solution = _least_dominating_wealth(
        market, claim, units, delta_pct, grid, settings, allow_dynamic
    )
    if portfolio is None:
        return INFEASIBLE_SENTINEL, None, solution
    return portfolio.cost, portfolio, solution


def subhedge_cost(
    market: Market,
    claim: Claim,
    units: float = 1.0,
    delta_pct: float | None = None,
    grid: QuadratureGrid | None = None,
    settings: SolveSettings | None = None,
    allow_dynamic: bool = True,
):
    """Greatest revenue from a portfolio dominated by the claim at every grid
    point (least cost of superhedging the negated claim, sign flipped)."""
    if grid is None:
        grid = market.grid_for([(claim, units)])
    portfolio, solution = _least_dominating_wealth(
        market, claim, -units, delta_pct, grid, settings, allow_dynamic
    )
    if portfolio is None:
        return -INFEASIBLE_SENTINEL, None, solution
    return -portfolio.cost, portfolio, solution


@dataclass(frozen=True)
class ArbitrageReport:
    found: bool
    expected_excess: float
    min_uniform_slack: float
    strategy: HedgePortfolio | None = None
    payout_floor: float = float("nan")
    solution: Solution | None = None


def find_arbitrage(
    market: Market,
    budget: float,
    delta_pct: float | None = None,
    settings: SolveSettings | None = None,
    excess_tol: float = 1e-6,
    quick: bool = False,
) -> ArbitrageReport:
    """Search for a strategy whose payout is at least ``budget`` in every grid
    scenario with expected payout strictly above it.

    Phase-1 slack minimization decides whether any strategy clears the floor;
    when one does, the expected-loss program constrained to the floor is solved
    and its expected excess reported.  The excess must beat
    ``excess_tol * budget`` for a find.  With ``quick``, only the phase-1
    uniform slack is computed (a lower bound on the expected excess), which is
    decisive unless the best strategy touches the floor somewhere.

    The reported ``strategy`` is the expected-loss optimum under the floor, not
    the strategy that maximizes the uniform excess.  Its positions need not be
    the riskless combination that phase-1 found: with crossed quotes it may
    trade only as much of the rich quote as the floor requires.

    ``min_uniform_slack`` lies above the true minimum uniform slack by at most
    ``2.5e-10 * (1 + |budget|)`` in absolute terms, however large the excess;
    the quick-mode ``expected_excess`` (its negative) lies below the maximum
    uniform excess by at most the same amount.
    """
    agent = AgentSpec(initial_wealth=budget, risk_aversion=2.0)
    grid = market.grid_for(())
    program = _assemble(market, [], agent, grid, budget, delta_pct)
    program = replace(program, point_upper=np.full(grid.size, -budget))

    margin = 1e-9 * (1.0 + abs(budget))
    s_star, feasible = feasibility_start(program, settings)
    if s_star >= -margin or feasible is None:
        return ArbitrageReport(found=False, expected_excess=0.0, min_uniform_slack=s_star)
    if quick:
        found = -s_star > excess_tol * abs(budget)
        return ArbitrageReport(
            found=found, expected_excess=-s_star, min_uniform_slack=s_star
        )

    solution = minimize(replace(program, start=feasible), settings)
    if solution.status in ("infeasible", "unbounded"):
        return ArbitrageReport(found=False, expected_excess=0.0, min_uniform_slack=s_star)
    payout = program.portfolio_payout(solution.x)
    excess = float(program.masses @ payout) - budget
    if excess <= excess_tol * abs(budget):
        return ArbitrageReport(found=False, expected_excess=excess, min_uniform_slack=s_star)
    return ArbitrageReport(
        found=True,
        expected_excess=excess,
        min_uniform_slack=s_star,
        strategy=_portfolio(program, solution.x, budget),
        payout_floor=float(payout.min()),
        solution=solution,
    )


@dataclass
class PriceReport:
    """Buyer/seller indifference prices and hedging-cost band for one claim."""

    claim: str
    units: float
    seller_price: float
    buyer_price: float
    subhedge: float
    superhedge: float
    delta_pct: float | None
    truncation: tuple
    flags: dict = field(default_factory=dict)
    legs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "units": self.units,
            "prices": {
                "subhedge": self.subhedge,
                "buyer": self.buyer_price,
                "seller": self.seller_price,
                "superhedge": self.superhedge,
            },
            "delta_pct": self.delta_pct,
            "truncation": [list(t) for t in self.truncation],
            "flags": self.flags,
            "legs": self.legs,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=1)


def _leg_diag(solution: Solution) -> dict:
    return {
        "status": solution.status,
        "outer_iterations": solution.outer_iterations,
        "newton_iterations": solution.newton_iterations,
        "kkt_residual": solution.kkt_residual,
    }


def _bounds_active(program: AssembledProgram, y: np.ndarray, rel: float = 1e-6) -> bool:
    for block in ("buy", "sell"):
        sl = program.layout.block(block).slice
        ub = program.upper[sl]
        finite = np.isfinite(ub)
        if finite.any() and np.any(ub[finite] - y[sl][finite] <= rel * (1.0 + ub[finite])):
            return True
    return False


def price_report(
    market: Market,
    agent: AgentSpec,
    claim: Claim,
    units: float = 1.0,
    delta_pct: float | None = None,
    exclude_claim_quote: bool = False,
    settings: SolveSettings | None = None,
    check_arbitrage: bool = True,
) -> PriceReport:
    """All four prices for one claim on a shared scenario grid, with solver
    diagnostics per leg and precondition flags.

    ``exclude_claim_quote`` removes the quoted instrument matching a vanilla
    claim (same kind, strike and horizon) from the hedging set, which keeps its
    pricing nontrivial.
    """
    hedging = market
    if exclude_claim_quote:
        hedging = market.without_quote(OptionKind.CALL, claim.strike, market.model.periods)

    terms = _claim_terms(agent, claim, units)
    grid = hedging.grid_for(terms)
    w, lam = agent.initial_wealth, agent.risk_aversion

    log_base, sol_base, _ = _log_value(
        hedging, agent, agent.baseline_terms(), None, delta_pct, grid, settings
    )
    log_sell, sol_sell, sell_prog = _log_value(
        hedging, agent, terms, None, delta_pct, grid, settings
    )
    minus = _claim_terms(agent, claim, -units)
    log_buy, sol_buy, _ = _log_value(hedging, agent, minus, None, delta_pct, grid, settings)
    seller = w / lam * (log_sell - log_base)
    buyer = w / lam * (log_base - log_buy)

    sup, _sup_port, sol_sup = superhedge_cost(hedging, claim, units, delta_pct, grid, settings)
    sub, _sub_port, sol_sub = subhedge_cost(hedging, claim, units, delta_pct, grid, settings)

    # every exponential leg shares the seller's layout and boxes
    bounds_active = _bounds_active(sell_prog, sol_sell.x) or _bounds_active(sell_prog, sol_buy.x)
    arbitrage = None
    if check_arbitrage:
        arbitrage = find_arbitrage(hedging, agent.initial_wealth, delta_pct, settings, quick=True)

    tol = 1e-6 * w
    ordering_ok = (sub <= buyer + tol) and (buyer <= seller + tol) and (seller <= sup + tol)

    flags = {
        "bounds_active": bool(bounds_active),
        "arbitrage_detected": None if arbitrage is None else bool(arbitrage.found),
        "ordering_ok": bool(ordering_ok),
        "superhedge_infeasible": not np.isfinite(sup),
        "subhedge_infeasible": not np.isfinite(sub),
        "grid_points": int(grid.size),
    }
    legs = {
        "baseline": _leg_diag(sol_base),
        "seller": _leg_diag(sol_sell),
        "buyer": _leg_diag(sol_buy),
        "superhedge": _leg_diag(sol_sup),
        "subhedge": _leg_diag(sol_sub),
    }
    return PriceReport(
        claim=claim.label,
        units=units,
        seller_price=seller,
        buyer_price=buyer,
        subhedge=sub,
        superhedge=sup,
        delta_pct=delta_pct,
        truncation=grid.truncation,
        flags=flags,
        legs=legs,
    )
