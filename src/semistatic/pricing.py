"""Top-level financial quantities: optimal expected-loss values, buyer and
seller indifference prices (closed form under exponential loss), super- and
subhedging costs on the truncated scenario grid, and arbitrage detection.

Every price is an optimal value over one strategy space assembled from the
quotes and the scenario grid alone; the agent and the claim enter only
through ``leg``, ``keep`` and ``epigraph`` (see ``galerkin``).  A price report
builds one grid and assembles one space for its six solves, run as two
stacks of legs (``solver.solve_legs``): the baseline, seller and buyer
log-values, then the super- and subhedging LPs and the hedging LP of the
zero claim, which decides the arbitrage flag.  The buyer's price
and the subhedge are sign duals: indifference_buy(u) is
-indifference_sell(-u), and subhedge_cost(u) is -superhedge_cost(-u).

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
    _strikes_by_period,
    assemble_frictionless,
    assemble_transaction_cost,
)
from .instruments import OptionKind, Quote
from .scenario import DEFAULT_TRUNCATION, QuadratureGrid, VGParams, build_grid
from .solver import SolveSettings, Solution, feasibility_start, solve_legs

# an arbitrage's uniform excess, -w0 of the zero claim's hedging LP, must
# beat this share of the budget (``_arbitrage``)
ARBITRAGE_EXCESS_TOL = 1e-6
# Each period's node range must sit strictly inside the next period's, so
# every trading cell sees the index move both ways on the grid; otherwise the
# discretized model has spurious one-sided cells.  Guard nodes sit this share
# of the truncation box, per remaining period, inside each period's box.
GUARD_FRACTION = 0.02


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

    @property
    def kappa(self) -> float:
        """The risk scale of the exponential loss, frozen at the reference wealth."""
        return self.risk_aversion / self.initial_wealth

    def baseline_terms(self) -> list:
        if self.baseline_claim is None or self.baseline_units == 0.0:
            return []
        return [(self.baseline_claim, self.baseline_units)]


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

    def __post_init__(self):
        T = self.model.periods
        if self.truncation is not None and len(self.truncation) != T:
            raise ValueError(f"need one truncation pair per period, got "
                             f"{len(self.truncation)} for T={T}")
        for q in self.quotes:
            if q.maturity > T:
                raise ValueError(f"quote {q.id!r} matures in period {q.maturity}, "
                                 f"past the model's {T} periods")

    def _truncation(self) -> tuple[tuple[float, float], ...]:
        if self.truncation is not None:
            return tuple(tuple(t) for t in self.truncation)
        return (DEFAULT_TRUNCATION,) * self.model.periods

    def _guard_levels(self, period: int) -> tuple[float, ...]:
        lo, hi = self._truncation()[period - 1]
        margin = GUARD_FRACTION * (hi - lo) * (self.model.periods - period + 1)
        return (lo + margin, hi - margin)

    def strike_sets(self) -> list[list[float]]:
        sets = _strikes_by_period(self.quotes, self.model.periods)
        if self.grid_strikes is not None:
            sets = [sorted(set(s) | set(extra)) for s, extra in zip(sets, self.grid_strikes)]
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
        return build_grid(
            self.model,
            sets,
            breakpoints=merged,
            truncation=self._truncation(),
            n_nodes=self.density_nodes,
        )


def _claim_terms(agent: AgentSpec, claim: Claim | None, units: float) -> list:
    terms = agent.baseline_terms()
    if claim is not None and units != 0.0:
        terms.append((claim, units))
    return terms


def _hedging_market(market: Market, claim: Claim, exclude_claim_quote: bool) -> Market:
    """The hedging set: ``market``, without the call quoted at the claim's
    strike and horizon when ``exclude_claim_quote``, which keeps the pricing
    of a vanilla claim nontrivial."""
    if not exclude_claim_quote:
        return market
    T = market.model.periods
    kept = tuple(
        q
        for q in market.quotes
        if not (q.kind is OptionKind.CALL and q.strike == claim.strike and q.maturity == T)
    )
    return replace(market, quotes=kept)


def _assemble(market, grid, delta_pct, allow_dynamic=True) -> AssembledProgram:
    """The strategy space of ``market`` on ``grid``; without the dynamic legs
    unless ``allow_dynamic``."""
    if delta_pct is None:
        space = assemble_frictionless(market.quotes, grid, market.lot_size)
    else:
        space = assemble_transaction_cost(market.quotes, grid, delta_pct, market.lot_size)
    if not allow_dynamic:
        space = space.keep(np.arange(space.variable_count) < space.layout.options)
    return space


def _optima(programs, settings: SolveSettings | None) -> list[Solution]:
    """The minimized exponential-sum ``programs``, legs of one space solved
    as one stack; an unbounded leg raises SolverFailure."""
    solutions = solve_legs(programs, settings)
    for solution in solutions:
        if solution.status == "unbounded":
            raise SolverFailure(f"solve ended with status {solution.status}")
    return solutions


def _optimum(program: AssembledProgram, settings: SolveSettings | None) -> Solution:
    """The minimized ``program``; an unbounded leg raises SolverFailure."""
    (solution,) = _optima([program], settings)
    return solution


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
) -> float:
    """Optimal expected exponential loss for the given budget and claim terms.

    Strictly decreasing in the budget (unspent wealth is held as cash).
    """
    terms = _claim_terms(agent, claim, claim_units)
    if grid is None:
        grid = market.grid_for(terms)
    w = agent.initial_wealth if budget is None else budget
    program = _assemble(market, grid, delta_pct, allow_dynamic).leg(terms, w, agent.kappa)
    return _optimum(program, settings).objective


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
    w = agent.initial_wealth
    program = _assemble(market, grid, delta_pct).leg(agent.baseline_terms(), w, agent.kappa)
    log_with = _optimum(program.leg(terms, w), settings).log_objective
    log_base = _optimum(program, settings).log_objective
    return w / agent.risk_aversion * (log_with - log_base)


def indifference_buy(
    market: Market,
    agent: AgentSpec,
    claim: Claim,
    units: float = 1.0,
    delta_pct: float | None = None,
    grid: QuadratureGrid | None = None,
    settings: SolveSettings | None = None,
) -> float:
    """Greatest buying price leaving the optimal expected loss unchanged: the
    selling price of ``-units``, sign flipped."""
    return -indifference_sell(market, agent, claim, -units, delta_pct, grid, settings)


def _portfolio(program: AssembledProgram, y: np.ndarray, budget: float) -> list[tuple[str, float]]:
    """The positions ``y`` of ``program`` bought with ``budget`` as
    (instrument, position) rows: the cash left over, then each quote's net
    position and each dynamic variable (``DecisionLayout.holdings``)."""
    return [("cash", budget - float(program.cost @ y)), *program.layout.holdings(y)]


def _hedging_lp(program: AssembledProgram, claim_terms) -> AssembledProgram:
    """The LP of the least initial wealth w whose strategy in ``program``
    dominates the liability ``claim_terms`` at every grid point: minimize w
    subject to a_i(y) - w <= 0 on the leg's loss rows a_i at budget 0.  It is
    the leg's epigraph, with w free, so always feasible, and started where
    ``epigraph`` starts it."""
    return program.leg(claim_terms, 0.0).epigraph()


def _least_dominating_wealth(program: AssembledProgram, claim_terms, settings):
    """The least dominating wealth of ``_hedging_lp``, solved alone
    (``feasibility_start``): (w, its portfolio rows (``_portfolio``),
    Solution)."""
    w, y, solution = feasibility_start(program.leg(claim_terms, 0.0), settings)
    return w, _portfolio(program, y, w), solution


def _arbitrage(solution: Solution, budget: float) -> bool:
    """Whether the zero claim's hedging LP ``solution`` shows an arbitrage
    at ``budget``: it is unbounded, or its least wealth w0 lies below
    -ARBITRAGE_EXCESS_TOL * budget, so that a strategy's payout beats the
    budget by more than that in every grid scenario."""
    return solution.status == "unbounded" or -solution.objective > ARBITRAGE_EXCESS_TOL * budget


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
    point.  Returns (cost, portfolio rows, Solution), the rows as ``_portfolio``
    gives them; an unbounded solve has a cost below the solver's objective floor."""
    terms = [(claim, units)]
    if grid is None:
        grid = market.grid_for(terms)
    space = _assemble(market, grid, delta_pct, allow_dynamic)
    return _least_dominating_wealth(space, terms, settings)


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
    point: the superhedging cost of ``-units``, sign flipped."""
    cost, rows, solution = superhedge_cost(market, claim, -units, delta_pct, grid, settings,
                                           allow_dynamic)
    return -cost, rows, solution


@dataclass(frozen=True)
class ArbitrageReport:
    """``find_arbitrage``'s answer.  ``min_uniform_slack`` is the zero claim's
    least wealth w0, the least over strategies of the largest shortfall of
    the payout below the budget, whose minus is the greatest uniform excess.
    A find also reports its strategy as portfolio rows (``_portfolio``) at the
    budget, that strategy's expected payout less the budget and its least
    payout over the grid; no find reports an expected excess of 0."""

    found: bool
    expected_excess: float
    min_uniform_slack: float
    strategy: list | None = None
    payout_floor: float = float("nan")


def find_arbitrage(
    market: Market,
    budget: float,
    delta_pct: float | None = None,
    settings: SolveSettings | None = None,
) -> ArbitrageReport:
    """Search for a strategy whose payout beats ``budget`` by the same
    positive amount in every grid scenario, on the market's own grid (quoted
    strikes and guard nodes, no claim breakpoints): the hedging LP of the
    zero claim (``_hedging_lp``), solved alone.  Its least wealth w0 decides
    the find by the rule of a price report's flag (``_arbitrage``).

    The reported ``strategy`` is the LP's optimum, which maximizes the
    uniform excess -w0; it is the solver's point on the optimal face, not
    the best strategy by any second criterion.  ``min_uniform_slack`` is w0,
    whose solve stops by the LP gap rule ``gap_tol * (1 + |w0|)``.
    """
    if budget <= 0:
        raise ValueError("the arbitrage budget must be positive")
    space = _assemble(market, market.grid_for(()), delta_pct)
    w0, y, solution = feasibility_start(space.leg((), 0.0), settings)
    if not _arbitrage(solution, budget):
        return ArbitrageReport(found=False, expected_excess=0.0, min_uniform_slack=w0)
    payout = budget - space.factors.product(y)
    return ArbitrageReport(
        found=True,
        expected_excess=float(space.masses @ payout) - budget,
        min_uniform_slack=w0,
        strategy=_portfolio(space, y, budget),
        payout_floor=float(payout.min()),
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
        write_json(path, self.to_dict())


def write_json(path, payload) -> None:
    """Every JSON report's bytes: sorted keys, one space of indent."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)


def _leg_diag(solution: Solution) -> dict:
    return {
        "status": solution.status,
        "outer_iterations": solution.outer_iterations,
        "newton_iterations": solution.newton_iterations,
        "kkt_residual": solution.kkt_residual,
    }


def _bounds_active(program: AssembledProgram, solutions, rel: float = 1e-6) -> bool:
    """True when a quote's quantity limit binds at any of the ``solutions``."""
    options = slice(0, program.layout.options)
    ub = program.upper[options]
    finite = np.isfinite(ub)
    return any(
        np.any(ub[finite] - s.x[options][finite] <= rel * (1.0 + ub[finite])) for s in solutions
    )


def price_report(
    market: Market,
    agent: AgentSpec,
    claim: Claim,
    units: float = 1.0,
    delta_pct: float | None = None,
    exclude_claim_quote: bool = False,
    settings: SolveSettings | None = None,
) -> PriceReport:
    """All four prices for one claim as legs of one assembled program on a
    shared scenario grid, with solver diagnostics per leg and precondition
    flags.

    ``exclude_claim_quote`` removes the quoted instrument matching a vanilla
    claim (same kind, strike and horizon) from the hedging set.

    ``arbitrage_detected`` holds when the least wealth covering the zero
    claim in the same space shows an arbitrage at w (``_arbitrage``).
    """
    hedging = _hedging_market(market, claim, exclude_claim_quote)
    terms = _claim_terms(agent, claim, units)
    grid = hedging.grid_for(terms)
    w, lam = agent.initial_wealth, agent.risk_aversion
    space = _assemble(hedging, grid, delta_pct)
    baseline = space.leg(agent.baseline_terms(), w, agent.kappa)

    # two stacks of legs on the one space: the exponential legs, then the
    # hedging LPs of the claim sold, the claim bought and the zero claim
    sol_base, sol_sell, sol_buy = _optima(
        [baseline, baseline.leg(terms, w), baseline.leg(_claim_terms(agent, claim, -units), w)],
        settings)
    seller = w / lam * (sol_sell.log_objective - sol_base.log_objective)
    buyer = w / lam * (sol_base.log_objective - sol_buy.log_objective)

    sol_sup, sol_sub, sol_zero = solve_legs(
        [_hedging_lp(space, t) for t in ([(claim, units)], [(claim, -units)], ())], settings)
    sup, sub = sol_sup.objective, -sol_sub.objective

    tol = 1e-6 * w
    ordering_ok = (sub <= buyer + tol) and (buyer <= seller + tol) and (seller <= sup + tol)

    flags = {
        "bounds_active": _bounds_active(space, (sol_base, sol_sell, sol_buy)),
        "arbitrage_detected": _arbitrage(sol_zero, w),
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
