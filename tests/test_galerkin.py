import numpy as np
import pytest

from semistatic.claims import claim_payout, knockout_call, vanilla_call
from semistatic.fixtures import BASE_MODEL, small_market, synthetic_chain
from semistatic.galerkin import (
    assemble_frictionless,
    assemble_transaction_cost,
    basis_element,
    basis_value,
    cell_index,
    index_trade_cost,
    strategy_position,
    trading_cells,
)
from semistatic.instruments import OptionKind, Quote, quoted_payoff
from semistatic.pricing import AgentSpec, Market, optimal_value
from semistatic.scenario import VGParams, build_grid
from semistatic.solver import SolveSettings, minimize, objective_and_gradient

AGENT = AgentSpec(initial_wealth=100000.0, risk_aversion=2.0)


class TestBasis:
    def test_indicator(self):
        elem = basis_element((2000.0, 2400.0), period=1, cell=1)
        assert (elem.lo, elem.hi) == (2000.0, 2400.0)
        assert basis_value(elem, 1, 2200.0) == 1.0
        assert basis_value(elem, 2, 2200.0) == 0.0

    def test_unbounded_top_cell(self):
        elem = basis_element((2000.0, 2400.0), period=1, cell=2)
        assert elem.hi == np.inf
        assert basis_value(elem, 1, 9999.0) == 1.0

    def test_cells_partition(self):
        cells = trading_cells((2000.0, 2400.0))
        assert cells == ((0.0, 2000.0), (2000.0, 2400.0), (2400.0, np.inf))
        # cells for an empty strike list collapse to the full half-line
        assert trading_cells(()) == ((0.0, np.inf),)

    def test_left_closed_convention(self):
        # a level exactly at a strike belongs to the right cell
        assert int(cell_index((2000.0, 2400.0), 2400.0)) == 2
        assert int(cell_index((2000.0, 2400.0), 2399.999)) == 1


class TestStrategyPosition:
    def test_zero_everywhere(self):
        assert strategy_position((2000.0, 2400.0), (0.0, 0.0, 0.0), 2100.0) == 0.0

    def test_single_cell(self):
        assert strategy_position((2000.0, 2400.0), (0.0, 5.0, 0.0), 2200.0) == 5.0
        assert strategy_position((2000.0, 2400.0), (0.0, 5.0, 0.0), 1800.0) == 0.0

    def test_at_strike_takes_right_cell(self):
        assert strategy_position((2000.0, 2400.0), (1.0, 2.0, 3.0), 2000.0) == 2.0

    def test_coefficient_count_checked(self):
        with pytest.raises(ValueError):
            strategy_position((2000.0,), (1.0, 2.0, 3.0), 2100.0)


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
    out = np.empty(program.grid.size)
    for i, path in enumerate(program.grid.points):
        total = 0.0
        for claim, units in claim_terms:
            total += units * claim.contract_size * claim_payout(claim, path)
        for q in quotes:
            pos = values.get(f"buy:{q.id}", 0.0) - values.get(f"sell:{q.id}", 0.0)
            total -= pos * quoted_payoff(q, path)
        total -= cash
        if layout.mode == "frictionless":
            levels = [spot] + list(path)
            for t in range(len(path)):
                if t == 0:
                    z = values.get("z0", 0.0)
                else:
                    z = 0.0
                    for lo, hi in layout.cells.get(t, ()):
                        if lo <= levels[t] < hi:
                            z = values.get(f"z{t}[{lo:g},{hi:g})", 0.0)
                total -= z * (levels[t + 1] - levels[t])
        else:
            d = program_delta(program)
            levels = [spot] + list(path)
            holding = 0.0
            for t in range(len(path)):
                buy = sell = 0.0
                for lo, hi in layout.cells.get(t, ()):
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
    program = assemble_frictionless(market.quotes, claim_terms, AGENT, grid, market.lot_size)
    rng = np.random.default_rng(17)
    y = rng.uniform(-3.0, 3.0, size=program.variable_count)
    got = program.loss_arguments(y)
    want = _independent_loss(
        program, market.quotes, claim_terms, market.model.spot, AGENT.initial_wealth, y
    )
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)


def test_transaction_rows_match_independent_evaluator(market, claim_terms):
    grid = market.grid_for(claim_terms)
    program = assemble_transaction_cost(
        market.quotes, claim_terms, AGENT, grid, 0.7, market.lot_size
    )
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
    program = assemble_frictionless(quotes, [], AGENT, grid, 100.0)
    assert program.variable_count > 1700
    assert program.constraint_count > 2700


def test_two_point_hand_instance():
    model = VGParams(theta=0.0, sigma=0.1206, nu=0.0031, spot=2200.0, horizons=(1 / 12,))
    quote = Quote(id="C", kind=OptionKind.CALL, strike=2200.0, maturity=1,
                  bid_price=50.0, ask_price=60.0, bid_qty=1, ask_qty=1)
    grid = build_grid(model, [(2000.0, 2400.0)], truncation=[(1800.0, 2600.0)])
    program = assemble_frictionless([quote], [], AGENT, grid, 100.0)
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
    program = assemble_transaction_cost(market.quotes, [], AGENT, grid, 10.0, market.lot_size)
    solution = minimize(program)
    dyn = program.layout.dynamic_coefficients(solution.x)
    assert max(abs(v) for v in dyn.values()) < 1e-6


def test_no_simultaneous_buy_and_sell(market):
    grid = market.grid_for(())
    program = assemble_frictionless(market.quotes, [], AGENT, grid, market.lot_size)
    solution = minimize(program, SolveSettings(gap_tol=1e-12))
    buys = solution.x[program.layout.block("buy").slice]
    sells = solution.x[program.layout.block("sell").slice]
    assert float((buys * sells).max()) <= 1e-7


def test_dynamic_columns_are_measurable(market):
    # a rebalance coefficient's column may only be active where X_t is in its cell
    grid = market.grid_for(())
    program = assemble_frictionless(market.quotes, [], AGENT, grid, market.lot_size)
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
    program = assemble_frictionless(market.quotes, [], AGENT, grid, market.lot_size)
    q = market.quotes[0]
    payoff = np.array([quoted_payoff(q, path) for path in grid.points])
    j_buy = program.layout.names.index(f"buy:{q.id}")
    j_sell = program.layout.names.index(f"sell:{q.id}")
    np.testing.assert_array_equal(program.rows[:, j_buy], q.ask_price - payoff)
    np.testing.assert_array_equal(program.rows[:, j_sell], payoff - q.bid_price)
    assert program.cost[j_buy] == q.ask_price
    assert program.cost[j_sell] == -q.bid_price
    np.testing.assert_array_equal(program.offsets, np.full(grid.size, -AGENT.initial_wealth))


def test_program_json_dump(tmp_path, market):
    import json

    grid = market.grid_for(())
    program = assemble_frictionless(market.quotes, [], AGENT, grid, market.lot_size)
    out = tmp_path / "program.json"
    program.to_json(out)
    doc = json.loads(out.read_text())
    assert doc["variable_count"] == program.variable_count
    assert doc["constraint_count"] == program.constraint_count
    np.testing.assert_allclose(np.array(doc["rows"]), program.rows)
