import warnings

import numpy as np
import pytest

from semistatic.claims import knockout_call, lookback_call, lookback_digital, vanilla_call
from semistatic.fixtures import BASE_MODEL, crossed_quote_market
from semistatic.instruments import OptionKind, Quote
from semistatic.pricing import (
    AgentSpec,
    Market,
    find_arbitrage,
    indifference_bisection,
    indifference_buy,
    indifference_sell,
    optimal_value,
    price_report,
    subhedge_cost,
    superhedge_cost,
)


@pytest.fixture(scope="module")
def knockout():
    return knockout_call(2350.0, 2400.0)


class TestOptimalValue:
    def test_budget_shift_identity(self, market_small, agent):
        grid = market_small.grid_for(())
        base = optimal_value(market_small, agent, grid=grid)
        w = agent.initial_wealth
        for h in (-0.1 * w, 0.01 * w, 0.5 * w):
            shifted = optimal_value(market_small, agent, budget=w + h, grid=grid)
            target = base * np.exp(-agent.risk_aversion * h / w)
            assert shifted == pytest.approx(target, rel=1e-9)

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


class TestReplication:
    def test_all_four_prices_equal_the_quote(self, market_replication, agent):
        quote = market_replication.quotes[0]
        claim = vanilla_call(quote.strike)
        report = price_report(market_replication, agent, claim, check_arbitrage=False)
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
            report = price_report(market_replication, agent, claim, check_arbitrage=False)
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
        assert portfolio.cash == pytest.approx(10.0, abs=1e-6)

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
        # the reported strategy is the expected-loss optimum under the floor:
        # it buys the cheap quote to its cap and sells only as much of the
        # rich one as the floor needs, but no strategy clears the floor
        # without selling some
        positions = report.strategy.positions
        assert positions["XA"] == pytest.approx(qty, rel=1e-6)
        assert positions["XB"] < -1e-3 * qty

    def test_single_fair_quote_none(self):
        ladder = tuple(float(k) for k in range(2000, 2701, 50))
        quote = Quote(
            id="F", kind=OptionKind.CALL, strike=2350.0, maturity=2,
            bid_price=30.0, ask_price=75.0, bid_qty=100, ask_qty=100,
        )
        market = Market(quotes=(quote,), model=BASE_MODEL, grid_strikes=(ladder, ladder))
        report = find_arbitrage(market, 100000.0)
        assert not report.found

    def test_quick_mode_matches_on_clear_cases(self):
        market = crossed_quote_market()
        quick = find_arbitrage(market, 100000.0, quick=True)
        assert quick.found
        assert quick.expected_excess == pytest.approx(1500.0, rel=1e-6)


class TestPriceReport:
    def test_fields_and_ordering(self, market_small, agent, knockout):
        report = price_report(market_small, agent, knockout, check_arbitrage=False)
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
        hedged = price_report(market_small, agent, claim, check_arbitrage=False)
        naked = price_report(
            market_small, agent, claim, exclude_claim_quote=True, check_arbitrage=False
        )
        # without the replicating quote the spread must widen (or stay equal)
        hedged_spread = hedged.seller_price - hedged.buyer_price
        naked_spread = naked.seller_price - naked.buyer_price
        assert naked_spread >= hedged_spread - 1e-6

    def test_report_json(self, tmp_path, market_small, agent, knockout):
        import json

        report = price_report(market_small, agent, knockout, check_arbitrage=False)
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
