import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from semistatic.claims import knockout_call, vanilla_call
from semistatic.fixtures import BASE_MODEL, small_market, synthetic_chain
from semistatic.galerkin import (
    assemble_frictionless,
    assemble_transaction_cost,
    cell_index,
    strategy_factors,
    trading_cells,
)
from semistatic.instruments import OptionKind, Quote, option_payoff
from semistatic.pricing import AgentSpec, Market, _assemble, optimal_value
from semistatic.scenario import VGParams, build_grid
from semistatic.solver import SolveSettings, minimize

from oracles import claim_payout, index_trade_cost, objective_and_gradient, quoted_payoff

AGENT = AgentSpec(initial_wealth=100000.0, risk_aversion=2.0)


def path_levels(grid):
    """The grid's points as simulated paths: every period's levels (M, 1)."""
    return [grid.points[:, [t]] for t in range(grid.periods)]


def agent_leg(space, claim_terms=()):
    """``space`` against ``claim_terms`` at AGENT's wealth and risk scale."""
    return space.leg(claim_terms, AGENT.initial_wealth, AGENT.kappa)


class TestBasis:
    def test_indicator(self):
        # the indicator of cell 1 is 1 exactly on [2000, 2400)
        assert trading_cells((2000.0, 2400.0))[1] == (2000.0, 2400.0)
        levels = np.array([1999.0, 2000.0, 2200.0, 2400.0])
        np.testing.assert_array_equal(cell_index((2000.0, 2400.0), levels) == 1,
                                      [False, True, True, False])

    def test_unbounded_top_cell(self):
        assert trading_cells((2000.0, 2400.0))[2] == (2400.0, np.inf)
        assert int(cell_index((2000.0, 2400.0), 9999.0)) == 2

    def test_cells_partition(self):
        cells = trading_cells((2000.0, 2400.0))
        assert cells == ((0.0, 2000.0), (2000.0, 2400.0), (2400.0, np.inf))
        # cells for an empty strike list collapse to the full half-line
        assert trading_cells(()) == ((0.0, np.inf),)

    def test_left_closed_convention(self):
        # a level exactly at a strike belongs to the right cell
        assert int(cell_index((2000.0, 2400.0), 2400.0)) == 2
        assert int(cell_index((2000.0, 2400.0), 2399.999)) == 1


def test_index_trade_cost():
    assert index_trade_cost(1.0, 2360.0, 0.1) == pytest.approx(2362.36)
    assert index_trade_cost(-1.0, 2360.0, 0.1) == pytest.approx(-2357.64)
    assert index_trade_cost(0.0, 2360.0, 5.0) == 0.0


def _independent_loss(program, quotes, claim_terms, spot, wealth, y):
    """Straightforward per-path evaluation of the loss argument, sharing no
    code with the assembler's row construction.  The wealth not spent on
    quotes is held as cash: cash = wealth - acquisition cost."""
    layout = program.layout
    names = layout.names
    values = dict(zip(names, y))
    cash = wealth
    for q in quotes:
        cash -= q.ask_price * values.get(f"buy:{q.id}", 0.0)
        cash += q.bid_price * values.get(f"sell:{q.id}", 0.0)
    # the trading cells of each period: one at t = 0, then the strikes of maturity t
    cells = [trading_cells({q.strike for q in quotes if q.maturity == t})
             for t in range(program.grid.periods)]
    out = np.empty(program.grid.size)
    for i, path in enumerate(program.grid.points):
        total = 0.0
        for claim, units in claim_terms:
            total += units * claim.contract_size * claim_payout(claim, path)
        for q in quotes:
            pos = values.get(f"buy:{q.id}", 0.0) - values.get(f"sell:{q.id}", 0.0)
            total -= pos * quoted_payoff(q, path)
        total -= cash
        levels = [spot] + list(path)
        if not any(name.startswith("dz") for name in names + layout.dropped):
            for t in range(len(path)):
                z = 0.0
                for lo, hi in cells[t]:
                    if lo <= levels[t] < hi:
                        z = values.get(f"z{t}[{lo:g},{hi:g})" if t else "z0", 0.0)
                total -= z * (levels[t + 1] - levels[t])
        else:
            d = program_delta(program)
            holding = 0.0
            for t in range(len(path)):
                buy = sell = 0.0
                for lo, hi in cells[t]:
                    if lo <= levels[t] < hi:
                        buy = values.get(f"dzbuy{t}[{lo:g},{hi:g})", 0.0)
                        sell = values.get(f"dzsell{t}[{lo:g},{hi:g})", 0.0)
                total += index_trade_cost(buy, levels[t], d) + index_trade_cost(-sell, levels[t], d)
                holding += buy - sell
            total -= holding * levels[-1]  # costless horizon liquidation
        out[i] = total
    return out


def program_delta(program):
    # recover delta from a stored buy column: coefficient is (1 + d) * X_t
    for name in program.layout.names:
        if name.startswith("dzbuy0"):
            j = program.layout.names.index(name)
            col = program.rows[:, j]
            live = np.abs(col) > 0
            level = program.grid.spot
            x_T = program.grid.points[live, -1][0]
            return ((col[live][0] + x_T) / level - 1.0) * 100.0
    raise AssertionError("no period-0 buy leg found")


@pytest.fixture(scope="module")
def market():
    return small_market()


@pytest.fixture(scope="module")
def claim_terms():
    return [(knockout_call(2350.0, 2400.0), 1.0)]


def test_rows_match_independent_evaluator(market, claim_terms):
    grid = market.grid_for(claim_terms)
    program = agent_leg(assemble_frictionless(market.quotes, grid, market.lot_size), claim_terms)
    rng = np.random.default_rng(17)
    y = rng.uniform(-3.0, 3.0, size=program.variable_count)
    got = program.loss_arguments(y)
    want = _independent_loss(
        program, market.quotes, claim_terms, market.model.spot, AGENT.initial_wealth, y
    )
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)


def test_transaction_rows_match_independent_evaluator(market, claim_terms):
    grid = market.grid_for(claim_terms)
    space = assemble_transaction_cost(market.quotes, grid, 0.7, market.lot_size)
    program = agent_leg(space, claim_terms)
    rng = np.random.default_rng(23)
    y = rng.uniform(0.0, 3.0, size=program.variable_count)
    got = program.loss_arguments(y)
    want = _independent_loss(
        program, market.quotes, claim_terms, market.model.spot, AGENT.initial_wealth, y
    )
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)


def test_cash_only_program(agent=AGENT):
    empty = Market(quotes=(), model=BASE_MODEL)
    value = optimal_value(empty, agent, allow_dynamic=False)
    assert value == pytest.approx(np.exp(-agent.risk_aversion), abs=1e-8)


def test_paper_scale_counts():
    strikes = tuple(float(k) for k in range(1500, 2501, 5))
    quotes = []
    for t in (1, 2):
        for kind in (OptionKind.CALL, OptionKind.PUT):
            for k in strikes:
                quotes.append(
                    Quote(
                        id=f"{kind.value}:{k}:{t}", kind=kind, strike=k, maturity=t,
                        bid_price=1.0, ask_price=2.0, bid_qty=10, ask_qty=10,
                    )
                )
    assert len(quotes) == 804
    coarse = tuple(float(k) for k in range(1500, 2501, 100))
    market = Market(quotes=tuple(quotes), model=BASE_MODEL, grid_strikes=(coarse, coarse))
    grid = market.grid_for(())
    tracemalloc.start()
    try:
        program = assemble_frictionless(quotes, grid, 100.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert program.variable_count > 1700
    assert np.isfinite(program.lower).sum() + np.isfinite(program.upper).sum() > 2700  # box edges
    # the rows are stored as factors: everything the program holds, its grid
    # included, is below 1% of the dense rows' M * n doubles, and assembly
    # allocates no dense (M, n) array on the way
    M, n = program.factors.shape
    assert peak < 0.05 * M * n * 8
    assert M == grid.size
    held = (program, program.factors, program.grid)
    arrays = {id(v): v for part in held for v in vars(part).values() if isinstance(v, np.ndarray)}
    assert sum(a.nbytes for a in arrays.values()) < 0.01 * M * n * 8


def test_two_point_hand_instance():
    model = VGParams(theta=0.0, sigma=0.1206, nu=0.0031, spot=2200.0, horizons=(1 / 12,))
    quote = Quote(id="C", kind=OptionKind.CALL, strike=2200.0, maturity=1,
                  bid_price=50.0, ask_price=60.0, bid_qty=1, ask_qty=1)
    grid = build_grid(model, [(2000.0, 2400.0)], truncation=[(1800.0, 2600.0)])
    program = agent_leg(assemble_frictionless([quote], grid, 100.0))
    # variables: buy, sell, z0; cash is the wealth left after the quotes
    assert program.layout.names == ("buy:C", "sell:C", "z0")
    y = np.array([2.0, 1.0, 0.25])
    m1, m2 = grid.masses
    w = AGENT.initial_wealth
    kappa = AGENT.risk_aversion / w
    # hand-assembled: payoffs (0, 200), price moves (-200, +200), ask 60, bid 50
    cash = w - 60.0 * 2.0 + 50.0 * 1.0
    a1 = -(2.0 - 1.0) * 0.0 - cash - 0.25 * (2000.0 - 2200.0)
    a2 = -(2.0 - 1.0) * 200.0 - cash - 0.25 * (2400.0 - 2200.0)
    want_value = m1 * np.exp(kappa * a1) + m2 * np.exp(kappa * a2)
    value, grad = objective_and_gradient(program, y)
    assert value == pytest.approx(want_value, rel=1e-12)
    w1 = m1 * np.exp(kappa * a1) * kappa
    w2 = m2 * np.exp(kappa * a2) * kappa
    want_grad = np.array(
        [w1 * (60.0 - 0.0) + w2 * (60.0 - 200.0), w1 * (0.0 - 50.0) + w2 * (200.0 - 50.0),
         w1 * 200.0 + w2 * (-200.0)]
    )
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12)


def test_zero_cost_equals_frictionless(market):
    rng = np.random.default_rng(31)
    strikes = (2250.0, 2350.0, 2450.0)
    for trial in range(5):
        model = VGParams(
            theta=float(rng.uniform(-0.1, 0.1)),
            sigma=float(rng.uniform(0.08, 0.2)),
            nu=0.0031,
            spot=2360.0,
            horizons=(1 / 12, 2 / 12),
        )
        quotes = synthetic_chain(model, strikes=strikes, qty_seed=trial)
        mkt = Market(quotes=tuple(quotes), model=model)
        grid = mkt.grid_for(())
        v_fl = optimal_value(mkt, AGENT, grid=grid)
        v_tc = optimal_value(mkt, AGENT, grid=grid, delta_pct=0.0)
        assert v_tc == pytest.approx(v_fl, rel=1e-6)


def test_high_cost_freezes_dynamic_leg(market):
    grid = market.grid_for(())
    program = agent_leg(assemble_transaction_cost(market.quotes, grid, 10.0, market.lot_size))
    solution = minimize(program)
    dyn = program.layout.holdings(solution.x)[len(market.quotes):]
    assert max(abs(v) for _, v in dyn) < 1e-6


def test_no_simultaneous_buy_and_sell(market):
    grid = market.grid_for(())
    program = agent_leg(assemble_frictionless(market.quotes, grid, market.lot_size))
    solution = minimize(program, SolveSettings(gap_tol=1e-12))
    held = dict(zip(program.layout.names, solution.x))
    both = [held[f"buy:{q}"] * held[f"sell:{q}"] for q in program.layout.quote_ids
            if f"buy:{q}" in held and f"sell:{q}" in held]
    assert both and max(both) <= 1e-7


def test_dynamic_columns_are_measurable(market):
    # a rebalance coefficient's column may only be active where X_t is in its cell
    grid = market.grid_for(())
    program = assemble_frictionless(market.quotes, grid, market.lot_size)
    for j, name in enumerate(program.layout.names):
        if not name.startswith("z1["):
            continue
        lo = float(name.split("[")[1].split(",")[0])
        hi_txt = name.split(",")[1].rstrip(")")
        hi = np.inf if hi_txt == "inf" else float(hi_txt)
        col = program.rows[:, j]
        in_cell = (grid.points[:, 0] >= lo) & (grid.points[:, 0] < hi)
        assert np.all(col[~in_cell] == 0.0)
        dx = grid.points[:, 1] - grid.points[:, 0]
        np.testing.assert_allclose(col[in_cell], -dx[in_cell])


def test_option_columns_carry_price_minus_payoff(market):
    grid = market.grid_for(())
    program = agent_leg(assemble_frictionless(market.quotes, grid, market.lot_size))
    q = market.quotes[0]
    payoff = np.array([quoted_payoff(q, path) for path in grid.points])
    j_buy = program.layout.names.index(f"buy:{q.id}")
    j_sell = program.layout.names.index(f"sell:{q.id}")
    np.testing.assert_array_equal(program.rows[:, j_buy], q.ask_price - payoff)
    np.testing.assert_array_equal(program.rows[:, j_sell], payoff - q.bid_price)
    assert program.cost[j_buy] == q.ask_price
    assert program.cost[j_sell] == -q.bid_price
    np.testing.assert_array_equal(program.offsets, np.full(grid.size, -AGENT.initial_wealth))



@pytest.mark.parametrize("delta_pct", [None, 0.7])
def test_column_kernel_equals_assembled_rows(market, claim_terms, delta_pct):
    # the kernel that evaluates a strategy on simulated paths is the one that
    # built the program's rows: on the grid it gives them bit for bit
    grid = market.grid_for(claim_terms)
    program = _assemble(market, grid, delta_pct)
    names, factors, dropped = strategy_factors(market.quotes, path_levels(grid), grid.spot,
                                               delta_pct)
    columns = factors.dense()
    # without masses every column stays; on the grid the kept and the
    # dropped names split the kernel's, each in the kernel's order
    assert dropped == ()
    kept = set(program.layout.names)
    assert tuple(n for n in names if n in kept) == program.layout.names
    assert tuple(n for n in names if n not in kept) == program.layout.dropped
    at = [names.index(name) for name in program.layout.names]
    np.testing.assert_array_equal(columns[:, at], program.rows)


@pytest.mark.parametrize("delta_pct", [None, 0.7])
def test_dense_rows_spell_each_quote_bit_for_bit(market, delta_pct):
    # the factors hold a quote once, as a net column beside one cash column;
    # dense() spells its buy column ask - payoff and its sell column
    # payoff - bid out with the kernel's own floats
    grid = market.grid_for(())
    program = _assemble(market, grid, delta_pct)
    quotes = {q.id: q for q in market.quotes}
    names, factors, _ = strategy_factors(market.quotes, path_levels(grid), grid.spot, delta_pct)
    columns = factors.dense()

    def kernel_rows(program):
        out = []
        for name in program.layout.names:
            tag, _, qid = name.partition(":")
            if tag in ("buy", "sell"):
                q = quotes[qid]
                payoff = option_payoff(q.kind, q.strike, grid.points[:, q.maturity - 1])
                out.append(q.ask_price - payoff if tag == "buy" else payoff - q.bid_price)
            else:
                out.append(columns[:, names.index(name)])
        return np.column_stack(out)

    rows = kernel_rows(program)
    np.testing.assert_array_equal(program.rows, rows)
    np.testing.assert_array_equal(columns[:, [names.index(n) for n in program.layout.names]], rows)
    # the hedging LPs' epigraph adds a column of -1
    lifted = program.epigraph()
    np.testing.assert_array_equal(lifted.rows, np.column_stack([rows, -np.ones(grid.size)]))
    # one quote without a bid quantity, one without an ask quantity and one
    # without either: the first two keep their other side as a full column,
    # the third goes, and the cash column stays for the rest
    first, second, third, *rest = market.quotes
    one_sided = _assemble(replace(market, quotes=(
        replace(first, bid_qty=0), replace(second, ask_qty=0),
        replace(third, bid_qty=0, ask_qty=0), *rest)), grid, delta_pct)
    sides = {f"sell:{first.id}", f"buy:{second.id}", f"buy:{third.id}", f"sell:{third.id}"}
    assert set(one_sided.layout.dropped) == set(program.layout.dropped) | sides
    np.testing.assert_array_equal(one_sided.rows, kernel_rows(one_sided))
    np.testing.assert_array_equal(one_sided.epigraph().rows,
                                  np.column_stack([kernel_rows(one_sided), -np.ones(grid.size)]))
    assert one_sided.factors.net_layout.quotes == program.factors.net_layout.quotes - 3
    assert one_sided.factors.width == program.factors.width - 1
    # without a quote of both sides the cash column goes too
    sells = _assemble(replace(market, quotes=tuple(replace(q, ask_qty=0) for q in market.quotes)),
                      grid, delta_pct)
    assert sells.layout.options == len(market.quotes)
    np.testing.assert_array_equal(sells.rows, kernel_rows(sells))
    assert sells.factors.net_layout.quotes == 0 and (sells.factors.order >= 0).all()


@pytest.mark.parametrize("delta_pct", [None, 0.1])
@pytest.mark.parametrize("claim", ["zero", "sold", "bought"])
def test_epigraph_starts_inside_its_rows(market, claim_terms, claim, delta_pct):
    # the level starts max_i g_i + margin, g_i = a_i(start) and
    # margin = max(1, max|g|), which leaves every row a slack between margin
    # and 3 margin; the claims are those of a report's three hedging LPs
    grid = market.grid_for(claim_terms)
    units = {"zero": 0.0, "sold": 1.0, "bought": -1.0}[claim]
    terms = [(c, units * u) for c, u in claim_terms]
    leg = _assemble(market, grid, delta_pct).leg(terms, 0.0)
    lifted = leg.epigraph()
    slack = -lifted.loss_arguments(lifted.start)
    gap = leg.loss_arguments(leg.start)
    margin = max(1.0, np.abs(gap).max())
    assert slack.min() == pytest.approx(margin, rel=1e-9)
    assert slack.max() <= 3.0 * slack.min()
    np.testing.assert_array_equal(lifted.start[:-1], leg.start)


@pytest.mark.parametrize("delta_pct", [None, 0.1])
def test_start_is_centred_in_each_box(market, claim_terms, delta_pct):
    # a variable with a finite lower bound starts min(width, 1) / 2 above it,
    # a free one at 0; the frictionless start is the quote sides' half-way
    # point, capped at 1/2, and 0 for every index position
    space = _assemble(market, market.grid_for(claim_terms), delta_pct)
    lower, upper, start = space.lower, space.upper, space.start
    bounded = np.isfinite(lower)
    np.testing.assert_array_equal(start[bounded],
                                  lower[bounded] + 0.5 * np.minimum(upper - lower, 1.0)[bounded])
    np.testing.assert_array_equal(start[~bounded], 0.0)
    options = space.layout.options
    if delta_pct is None:
        assert not bounded[options:].any()
        np.testing.assert_array_equal(
            start, np.concatenate([0.5 * np.minimum(upper[:options], 1.0),
                                   np.zeros(space.variable_count - options)]))
    else:
        assert bounded.all()
        np.testing.assert_array_equal(start[options:], 0.5)


def test_static_only_space_is_the_quote_columns(market):
    # the quotes' columns of the dynamic space at any index cost; of the
    # dropped names only the quote sides, here a side without quantity
    first = market.quotes[0]
    market = replace(market, quotes=(replace(first, bid_qty=0), *market.quotes[1:]))
    grid = market.grid_for(())
    program = _assemble(market, grid, None)
    n_options = program.layout.options
    for delta_pct in (None, 0.1):
        static = _assemble(market, grid, delta_pct, allow_dynamic=False)
        assert n_options > 0 and static.layout.options == static.variable_count
        assert static.layout.names == program.layout.names[:n_options]
        assert static.layout.dropped == (f"sell:{first.id}",)
        np.testing.assert_array_equal(static.rows, program.rows[:, :n_options])
        for field in ("cost", "lower", "upper", "start"):
            np.testing.assert_array_equal(getattr(static, field),
                                          getattr(program, field)[:n_options])
