import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from semistatic.claims import knockout_call, lookback_call, lookback_digital, vanilla_call
from semistatic.fixtures import (
    BASE_MODEL,
    crossed_quote_market,
    planted_arbitrage_market,
    small_market,
    synthetic_market,
)
from semistatic import cli, pricing, solver
from semistatic.instruments import OptionKind, Quote
from semistatic.pricing import (
    AgentSpec,
    Market,
    _assemble,
    find_arbitrage,
    indifference_buy,
    indifference_sell,
    optimal_value,
    price_report,
    subhedge_cost,
    superhedge_cost,
)
from semistatic.solver import SolveSettings

from oracles import highs_value, indifference_bisection


@pytest.fixture(scope="module")
def knockout():
    return knockout_call(2350.0, 2400.0)


class TestOptimalValue:
    @pytest.mark.parametrize("delta_pct", [None, 0.1])
    @pytest.mark.parametrize("make_market", [small_market, synthetic_market])
    def test_budget_shift_identity(self, agent, make_market, delta_pct):
        # cash enters every loss row alike, so a budget shifted by a scales
        # the optimal expected loss by exp(-kappa a), with or without index
        # costs; the log values are accurate to gap_tol each
        market = make_market()
        grid = market.grid_for(())
        tol = 2 * SolveSettings().gap_tol
        w = agent.initial_wealth
        base = optimal_value(market, agent, delta_pct=delta_pct, grid=grid)
        for a in (-5000.0, 250.0, 20000.0):
            shifted = optimal_value(market, agent, budget=w + a, delta_pct=delta_pct, grid=grid)
            assert abs(np.log(shifted) - (np.log(base) - agent.kappa * a)) <= tol

    def test_investing_beats_cash(self, market_small, agent):
        value = optimal_value(market_small, agent)
        assert np.log(value) < -agent.risk_aversion

    def test_strictly_decreasing_in_budget(self, market_small, agent):
        grid = market_small.grid_for(())
        v1 = optimal_value(market_small, agent, budget=90000.0, grid=grid)
        v2 = optimal_value(market_small, agent, budget=110000.0, grid=grid)
        assert v2 < v1


class TestIndifferencePrices:
    def test_zero_claim_prices_nothing(self, market_small, agent, knockout):
        assert indifference_sell(market_small, agent, knockout, units=0.0) == 0.0
        assert indifference_buy(market_small, agent, knockout, units=0.0) == 0.0

    def test_buyer_below_seller(self, market_small, agent, knockout):
        grid = market_small.grid_for([(knockout, 1.0)])
        sell = indifference_sell(market_small, agent, knockout, grid=grid)
        buy = indifference_buy(market_small, agent, knockout, grid=grid)
        assert buy <= sell + 1e-6 * agent.initial_wealth
        assert sell > 0

    def test_sell_of_negated_claim_is_minus_buy(self, market_small, agent, knockout):
        grid = market_small.grid_for([(knockout, 1.0)])
        sell_neg = indifference_sell(market_small, agent, knockout, units=-1.0, grid=grid)
        buy = indifference_buy(market_small, agent, knockout, units=1.0, grid=grid)
        assert sell_neg == pytest.approx(-buy, abs=1e-9)

    def test_bisection_agrees_with_closed_form(self, market_small, agent, knockout):
        grid = market_small.grid_for([(knockout, 1.0)])
        for side, closed in (
            ("sell", indifference_sell(market_small, agent, knockout, grid=grid)),
            ("buy", indifference_buy(market_small, agent, knockout, grid=grid)),
        ):
            searched = indifference_bisection(market_small, agent, knockout, side=side, grid=grid)
            assert searched == pytest.approx(closed, abs=1e-6 * agent.initial_wealth)

    def test_seller_price_convex_nondecreasing_in_units(self, market_small, agent, knockout):
        grid = market_small.grid_for([(knockout, 1.0)])
        p = {
            u: indifference_sell(market_small, agent, knockout, units=u, grid=grid)
            for u in (0.5, 1.0, 2.0)
        }
        assert p[0.5] <= p[1.0] <= p[2.0]
        # increasing difference quotients along the ray
        assert (p[2.0] - p[1.0]) / 1.0 >= (p[1.0] - p[0.5]) / 0.5 - 1e-9

    def test_report_seller_carries_the_baseline(self, market_small, agent):
        claim = knockout_call(2250.0, 2300.0)
        carrying = replace(agent, baseline_claim=claim, baseline_units=1.0)
        report = price_report(market_small, carrying, claim, 2.0)
        assert report.seller_price == indifference_sell(market_small, carrying, claim, 2.0)


UNITS = st.floats(-3.0, 3.0).map(lambda u: round(u, 3))


@settings(max_examples=15, deadline=None)
@given(u=UNITS, v=UNITS)
@example(u=1.0, v=1.0)
@example(u=0.5, v=2.0)
@example(u=2.0, v=-1.0)
def test_seller_price_telescopes_through_the_baseline(market_small, agent, u, v):
    # selling u + v units at once costs the same as selling u, then v on top
    # of a baseline of u: the log values telescope, up to the solver's error
    claim = knockout_call(2250.0, 2300.0)
    grid = market_small.grid_for([(claim, 1.0)])
    carrying = replace(agent, baseline_claim=claim, baseline_units=u)
    whole = indifference_sell(market_small, agent, claim, u + v, grid=grid)
    parts = (indifference_sell(market_small, agent, claim, u, grid=grid)
             + indifference_sell(market_small, carrying, claim, v, grid=grid))
    assert whole == pytest.approx(parts, abs=1e-6)


class TestReplication:
    def test_all_four_prices_equal_the_quote(self, market_replication, agent):
        quote = market_replication.quotes[0]
        claim = vanilla_call(quote.strike)
        report = price_report(market_replication, agent, claim)
        per_option = claim.contract_size
        for price in (report.subhedge, report.buyer_price, report.seller_price, report.superhedge):
            assert price / per_option == pytest.approx(quote.ask_price, rel=1e-4)
        assert not report.flags["bounds_active"]
        assert report.flags["ordering_ok"]

    def test_legs_stay_finite_where_slacks_cancel(self, market_replication, agent):
        # a zero-spread quote in effectively unlimited quantity: no leg may
        # build a non-finite iterate on the way to its optimum
        claim = vanilla_call(market_replication.quotes[0].strike)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = price_report(market_replication, agent, claim)
        for name, leg in report.legs.items():
            assert leg["status"] == "optimal", name
            assert np.isfinite(leg["kkt_residual"]), name


class TestHedgingBounds:
    def test_digital_superhedge_cash_only(self, agent):
        empty = Market(quotes=(), model=BASE_MODEL)
        claim = lookback_digital(2350.0, 10.0, contract_size=1.0)
        cost, portfolio, solution = superhedge_cost(empty, claim, allow_dynamic=False)
        assert solution.status == "optimal"
        assert cost == pytest.approx(10.0, abs=1e-6)
        assert dict(portfolio)["cash"] == pytest.approx(10.0, abs=1e-6)

    def test_zero_claim_bounds_are_zero(self, market_small, knockout):
        sup, _, _ = superhedge_cost(market_small, knockout, units=0.0)
        sub, _, _ = subhedge_cost(market_small, knockout, units=0.0)
        assert sup == pytest.approx(0.0, abs=1e-6)
        assert sub == pytest.approx(0.0, abs=1e-6)

    def test_superhedge_covers_pointwise(self, market_small, knockout):
        grid = market_small.grid_for([(knockout, 1.0)])
        cost, portfolio, solution = superhedge_cost(market_small, knockout, grid=grid)
        assert solution.status == "optimal"
        assert cost >= 0

    def test_nonnegative_claim_subhedge_without_instruments(self, agent):
        empty = Market(quotes=(), model=BASE_MODEL)
        claim = lookback_call(2350.0)
        revenue, _, solution = subhedge_cost(empty, claim, allow_dynamic=False)
        assert solution.status == "optimal"
        assert revenue == pytest.approx(0.0, abs=1e-6)


def lp_gap(w0):
    """The LP gap rule at the default settings: gap_tol * (1 + |w0|)."""
    return SolveSettings().gap_tol * (1.0 + abs(w0))


class TestArbitrage:
    def test_crossed_quotes_found(self):
        market = crossed_quote_market()
        w = 100000.0
        cheap, rich = market.quotes
        # premise: the cheap quote is above intrinsic value, so buying it and
        # trading the index is not riskless on its own
        assert cheap.ask_price > market.model.spot - cheap.strike
        report = find_arbitrage(market, w)
        assert report.found
        # uniform riskless profit equals the crossed gap times the quantity cap
        gap = rich.bid_price - cheap.ask_price
        qty = cheap.ask_qty * market.lot_size
        assert report.min_uniform_slack == pytest.approx(-gap * qty, rel=1e-6)
        assert report.expected_excess >= gap * qty - 1.0
        assert report.payout_floor >= w - 1e-4
        # the reported strategy maximizes the uniform excess: it buys the
        # cheap quote to its cap and sells as many of the rich one, short of
        # that quote's larger cap, as each further sale would be a naked call
        positions = dict(report.strategy)
        assert positions["XA"] == pytest.approx(qty, rel=1e-6)
        assert positions["XB"] == pytest.approx(-qty, rel=1e-6)
        assert rich.bid_qty * market.lot_size > qty

    def test_single_fair_quote_none(self):
        ladder = tuple(float(k) for k in range(2000, 2701, 50))
        quote = Quote(
            id="F", kind=OptionKind.CALL, strike=2350.0, maturity=2,
            bid_price=30.0, ask_price=75.0, bid_qty=100, ask_qty=100,
        )
        market = Market(quotes=(quote,), model=BASE_MODEL, grid_strikes=(ladder, ladder))
        report = find_arbitrage(market, 100000.0)
        assert not report.found

    def test_friction_removes_planted_arbitrage(self):
        # a deep in-the-money call offered `edge` below its cash-and-short-index
        # bound: riskless with a free index, not once index trades cost 0.1%
        edge, contracts = 0.5, 2
        market = planted_arbitrage_market(edge=edge, contracts=contracts)
        budget = 1e5
        free = find_arbitrage(market, budget)
        assert free.found
        assert free.min_uniform_slack == pytest.approx(
            -edge * contracts * market.lot_size, abs=lp_gap(free.min_uniform_slack)
        )
        # with costs the best uniform excess is that of holding cash: zero
        costly = find_arbitrage(market, budget, delta_pct=0.1)
        assert not costly.found
        assert 0.0 <= costly.min_uniform_slack <= lp_gap(costly.min_uniform_slack)
        # arbitrage vanishes under costs: the least wealth does not fall as
        # they rise from none.  A zero cost is left out: there the cost model
        # keeps its position in the cells it drops for their negligible mass,
        # where the frictionless model closes it, and it finds no arbitrage
        slacks = [find_arbitrage(market, budget, delta_pct=d).min_uniform_slack
                  for d in (None, 0.01, 0.1)]
        assert all(b >= a - lp_gap(a) for a, b in zip(slacks, slacks[1:]))

    @pytest.mark.parametrize("delta_pct", [None, 0.1])
    def test_packaged_chain_is_one_lp_solve(self, monkeypatch, delta_pct):
        # the search is one interior-point solve, the zero claim's hedging LP,
        # and its least wealth is HiGHS's
        market = cli._market(cli.load_config())
        solves = []
        interior_point = solver._interior_point

        def counted(*args):
            solves.append(type(args[0]).__name__)
            return interior_point(*args)

        monkeypatch.setattr(solver, "_interior_point", counted)
        report = find_arbitrage(market, 1e5, delta_pct)
        assert solves == ["_LinearObjective"]
        assert not report.found and report.strategy is None
        exact = highs_value(pricing._hedging_lp(_assemble(market, market.grid_for(()), delta_pct),
                                                ()))
        assert report.min_uniform_slack == pytest.approx(exact, abs=lp_gap(exact))

    @pytest.mark.parametrize("make_market, delta_pct, expected", [
        (planted_arbitrage_market, None, True),
        (planted_arbitrage_market, 0.1, False),
        (crossed_quote_market, None, True),
        (crossed_quote_market, 0.1, True),
        (synthetic_market, None, False),
        (synthetic_market, 0.1, False),
    ])
    def test_report_flag_agrees_with_find_arbitrage(self, agent, knockout, make_market,
                                                     delta_pct, expected):
        # the report asks its own space, on the claim's grid, for the least
        # wealth that covers nothing; find_arbitrage searches the market's grid
        market = make_market()
        report = price_report(market, agent, knockout, delta_pct=delta_pct)
        assert all(leg["status"] == "optimal" for leg in report.legs.values())
        assert report.flags["arbitrage_detected"] == expected
        found = find_arbitrage(market, agent.initial_wealth, delta_pct)
        assert found.found == expected
        # the least wealth is the zero claim's hedging LP on the market's grid
        exact = highs_value(pricing._hedging_lp(_assemble(market, market.grid_for(()), delta_pct),
                                                ()))
        assert found.min_uniform_slack == pytest.approx(exact, abs=lp_gap(exact))


class TestPriceReport:
    def test_fields_and_ordering(self, market_small, agent, knockout):
        report = price_report(market_small, agent, knockout)
        assert report.claim == knockout.label
        assert report.flags["ordering_ok"]
        assert report.subhedge <= report.buyer_price + 1e-4
        assert report.buyer_price <= report.seller_price + 1e-4
        assert report.seller_price <= report.superhedge + 1e-4
        d = report.to_dict()
        assert set(d["prices"]) == {"subhedge", "buyer", "seller", "superhedge"}

    def test_dominance_across_claims(self, market_small, agent):
        grid_claims = [
            knockout_call(2350.0, 2400.0),
            vanilla_call(2350.0),
            lookback_call(2350.0),
        ]
        sells = [
            indifference_sell(market_small, agent, c) for c in grid_claims
        ]
        assert sells[0] <= sells[1] + 1e-6 * agent.initial_wealth
        assert sells[1] <= sells[2] + 1e-6 * agent.initial_wealth

    def test_exclude_claim_quote(self, market_small, agent):
        claim = vanilla_call(2400.0)
        hedged = price_report(market_small, agent, claim)
        naked = price_report(market_small, agent, claim, exclude_claim_quote=True)
        # without the replicating quote the spread must widen (or stay equal)
        hedged_spread = hedged.seller_price - hedged.buyer_price
        naked_spread = naked.seller_price - naked.buyer_price
        assert naked_spread >= hedged_spread - 1e-6

    def test_bounds_active_sees_the_baseline_leg(self, monkeypatch, market_small, agent,
                                                 knockout):
        # the price order needs every exponential optimum free of binding
        # limits, the baseline's too: a limit binding there alone sets the flag
        assert not price_report(market_small, agent, knockout).flags["bounds_active"]
        optima = pricing._optima

        def baseline_at_its_limits(programs, settings):
            solutions = optima(programs, settings)
            for i, program in enumerate(programs):
                if np.all(program.offsets == -agent.initial_wealth):  # the leg without a claim
                    options = program.layout.options
                    solutions[i] = replace(solutions[i], x=np.r_[program.upper[:options],
                                                                 solutions[i].x[options:]])
            return solutions

        monkeypatch.setattr(pricing, "_optima", baseline_at_its_limits)
        report = price_report(market_small, agent, knockout)
        assert report.flags["bounds_active"]

    @pytest.mark.parametrize("delta_pct", [None, 0.1])
    def test_stacked_legs_equal_their_solves_alone(self, monkeypatch, market_chain, agent,
                                                   knockout, delta_pct):
        # a report solves its legs as two stacks; each leg's solve is bit for
        # bit the one it gets alone, through the single-price functions
        stacks = []
        solve_legs = solver.solve_legs

        def recorded(programs, *args, **kwargs):
            stacks.append(solve_legs(programs, *args, **kwargs))
            return stacks[-1]

        monkeypatch.setattr(solver, "solve_legs", recorded)
        monkeypatch.setattr(pricing, "solve_legs", recorded)
        grid = market_chain.grid_for([(knockout, 1.0)])
        report = price_report(market_chain, agent, knockout, delta_pct=delta_pct)
        (base, sell, buy), (sup, sub, _) = stacks
        assert [len(stack) for stack in stacks] == [3, 3]
        del stacks[:]
        args = (market_chain, agent, knockout, 1.0, delta_pct, grid)
        assert indifference_sell(*args) == report.seller_price
        assert indifference_buy(*args) == report.buyer_price
        assert superhedge_cost(market_chain, knockout, 1.0, delta_pct, grid)[0] == report.superhedge
        assert subhedge_cost(market_chain, knockout, 1.0, delta_pct, grid)[0] == report.subhedge
        alone = [solution for (solution,) in stacks]  # one leg per solve
        for stacked, single in zip((sell, base, buy, base, sup, sub), alone):
            assert stacked.status == single.status == "optimal"
            assert stacked.newton_iterations == single.newton_iterations
            assert stacked.objective == single.objective
            assert stacked.kkt_residual == single.kkt_residual
            np.testing.assert_array_equal(stacked.x, single.x)
            for key in ("lower", "upper"):
                np.testing.assert_array_equal(stacked.duals[key], single.duals[key])

    def test_centred_starts_bound_the_newton_systems(self, market_chain, agent, knockout):
        # the transaction-cost legs start halfway into their boxes and the LP
        # level a margin above its rows; the counts repeat at any BLAS thread
        # count (each solve runs on one)
        report = price_report(market_chain, agent, knockout, delta_pct=0.1)
        systems = {side: leg["newton_iterations"] for side, leg in report.legs.items()}
        assert all(leg["status"] == "optimal" for leg in report.legs.values())
        assert max(systems[side] for side in ("baseline", "seller", "buyer")) <= 20
        assert max(systems[side] for side in ("superhedge", "subhedge")) <= 30

    def test_report_json(self, tmp_path, market_small, agent, knockout):
        import json

        report = price_report(market_small, agent, knockout)
        out = tmp_path / "report.json"
        report.to_json(out)
        doc = json.loads(out.read_text())
        assert doc["claim"] == knockout.label
        assert doc["legs"]["seller"]["status"] == "optimal"


class TestStaticValue:
    def test_removing_options_cannot_help(self, market_small, agent):
        grid = market_small.grid_for(())
        with_quotes = optimal_value(market_small, agent, grid=grid)
        bare = Market(
            quotes=(),
            model=market_small.model,
            grid_strikes=tuple(tuple(s) for s in market_small.strike_sets()),
        )
        without = optimal_value(bare, agent, grid=grid)
        assert without >= with_quotes - 1e-9


STRIKE_LADDER = (2100.0, 2200.0, 2300.0, 2400.0, 2500.0, 2600.0)


@st.composite
def small_market_cases(draw):
    """A ``small_market`` variant and a claim to price on it."""
    strikes = draw(st.permutations(STRIKE_LADDER))[: draw(st.integers(2, 5))]
    contracts = draw(st.integers(10, 1000))
    k = draw(st.sampled_from((2250.0, 2300.0, 2350.0, 2400.0, 2450.0)))
    claim = draw(st.sampled_from((
        knockout_call(k, k + 50.0),
        lookback_digital(k),
        vanilla_call(k),
    )))
    units = draw(st.sampled_from((0.5, 1.0, 3.0)))
    delta_pct = draw(st.sampled_from((None, 0.1)))
    return small_market(strikes=tuple(sorted(strikes)), contracts=contracts), claim, units, delta_pct


@settings(max_examples=20, deadline=None)
@given(small_market_cases())
def test_semistatic_band_inside_static_and_dynamic_bands(agent, case):
    # Semi-static strategies include the static ones (no index trading) and
    # the dynamic ones (no quotes), so either class alone can only widen the
    # super/subhedging band.  The four prices are ordered when no quantity
    # limit binds at the exponential optima: those legs then equal the legs
    # without limits, whose strategies add up and whose band lies inside
    # this one.  Both statements are about optima, so an example with a leg
    # that stops short of optimal is discarded.
    market, claim, units, delta_pct = case
    report = price_report(market, agent, claim, units, delta_pct)
    grid = market.grid_for([(claim, units)])
    bare = Market(quotes=(), model=market.model)
    bands = [
        fn(claim=claim, units=units, delta_pct=delta_pct, grid=grid, **restricted)
        for restricted in (dict(market=market, allow_dynamic=False), dict(market=bare))
        for fn in (superhedge_cost, subhedge_cost)
    ]
    statuses = [leg["status"] for leg in report.legs.values()] + [b[2].status for b in bands]
    assume(all(status == "optimal" for status in statuses))
    event(f"bounds_active={report.flags['bounds_active']}")

    tol = 1e-6 * agent.initial_wealth
    assert report.buyer_price <= report.seller_price + tol
    if not report.flags["bounds_active"]:
        assert report.subhedge <= report.buyer_price + tol
        assert report.seller_price <= report.superhedge + tol
    for (sup, _, _), (sub, _, _) in (bands[:2], bands[2:]):
        assert report.superhedge <= sup + tol
        assert report.subhedge >= sub - tol


def at_least(later, earlier):
    return later >= earlier - 1e-9 * (1.0 + abs(earlier))


def hedging_band(market, claim, units, delta_pct, grid):
    """(superhedge, subhedge) on ``grid``; an example with a leg short of optimal is discarded."""
    (sup, _, sup_solution), (sub, _, sub_solution) = (
        fn(market, claim, units, delta_pct, grid=grid) for fn in (superhedge_cost, subhedge_cost)
    )
    assume(sup_solution.status == "optimal" and sub_solution.status == "optimal")
    return sup, sub


@settings(max_examples=20, deadline=None)
@given(small_market_cases(), st.data())
def test_hedging_bounds_widen_with_friction_and_fewer_quotes(case, data):
    # Every index trade's loss row grows with the cost, pointwise, so a
    # higher cost cannot lower the superhedge or raise the subhedge.  A
    # market without one quote whose trading cells stay the same offers a
    # subset of the strategies, with the same consequence.  The grid is
    # fixed, because its nodes follow the quoted strikes.
    market, claim, units, delta_pct = case
    grid = market.grid_for([(claim, units)])
    bands = [hedging_band(market, claim, units, delta, grid) for delta in (0.0, 0.05, 0.1)]
    for (sup, sub), (wider_sup, wider_sub) in zip(bands, bands[1:]):
        assert at_least(wider_sup, sup) and at_least(-wider_sub, -sub)

    drop = data.draw(st.integers(0, len(market.quotes) - 1), label="dropped quote")
    fewer = replace(market, quotes=market.quotes[:drop] + market.quotes[drop + 1:])
    same_cells = _assemble(fewer, grid, delta_pct).layout.cells == _assemble(
        market, grid, delta_pct
    ).layout.cells
    event(f"same_cells={same_cells}")
    if same_cells:
        sup, sub = hedging_band(market, claim, units, delta_pct, grid)
        wider_sup, wider_sub = hedging_band(fewer, claim, units, delta_pct, grid)
        assert at_least(wider_sup, sup) and at_least(-wider_sub, -sub)


@pytest.mark.xfail(strict=True, reason="the assembler drops dynamic cells of mass < 1e-12, "
                   "which a coarser partition can keep; see ROADMAP item 4")
def test_superhedge_cannot_fall_when_a_strike_leaves_the_partition():
    # Without the only maturity-1 quote at 2100 the cells [0, 2100) and
    # [2100, 2200) of period 1 merge.  The full market drops z1[0,2100): its
    # one grid level, the guard node at 1080, carries mass below 1e-12.  The
    # merged cell keeps that freedom, and the superhedge, a pointwise bound,
    # falls from 7734.3 to 7644.2.
    market = small_market(strikes=(2100.0, 2200.0), contracts=10)
    claim = knockout_call(2250.0, 2300.0)
    grid = market.grid_for([(claim, 0.5)])
    fewer = replace(market, quotes=market.quotes[1:])
    (sup, _, solution), (fewer_sup, _, fewer_solution) = (
        superhedge_cost(m, claim, 0.5, grid=grid) for m in (market, fewer)
    )
    assert solution.status == fewer_solution.status == "optimal"
    assert at_least(fewer_sup, sup)
