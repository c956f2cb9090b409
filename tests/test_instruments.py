import numpy as np
import pytest

from semistatic.instruments import OptionKind, Quote, position_bounds

from oracles import acquisition_cost, quoted_payoff


def make_quote(**overrides):
    fields = dict(
        id="C2300",
        kind=OptionKind.CALL,
        strike=2300.0,
        maturity=2,
        bid_price=79.5,
        ask_price=81.8,
        bid_qty=48,
        ask_qty=51,
    )
    fields.update(overrides)
    return Quote(**fields)


class TestAcquisitionCost:
    def test_buy_side(self):
        assert acquisition_cost(make_quote(), 100.0) == pytest.approx(8180.0)

    def test_zero(self):
        assert acquisition_cost(make_quote(), 0.0) == 0.0

    def test_sell_side(self):
        assert acquisition_cost(make_quote(), -100.0) == pytest.approx(-7950.0)

    def test_convexity(self):
        q = make_quote()
        rng = np.random.default_rng(7)
        for _ in range(200):
            q1, q2 = rng.uniform(-500, 500, size=2)
            a = rng.uniform()
            mid = acquisition_cost(q, a * q1 + (1 - a) * q2)
            assert mid <= a * acquisition_cost(q, q1) + (1 - a) * acquisition_cost(q, q2) + 1e-9

    def test_strictly_convex_across_zero_when_spread_positive(self):
        q = make_quote()
        # chord between a sale and a purchase lies strictly above the kink
        assert 0.5 * acquisition_cost(q, -10) + 0.5 * acquisition_cost(q, 10) > 0.0

    def test_equals_max_of_bid_ask_lines(self):
        q = make_quote()
        for qty in (-321.5, -1.0, 0.0, 2.0, 88.25):
            assert acquisition_cost(q, qty) == pytest.approx(
                max(q.bid_price * qty, q.ask_price * qty)
            )


class TestPositionBounds:
    def test_contract_conversion(self):
        assert position_bounds(make_quote(), 100.0) == (-4800.0, 5100.0)

    def test_degenerate(self):
        assert position_bounds(make_quote(bid_qty=0, ask_qty=0), 100.0) == (0.0, 0.0)

    def test_put_row(self):
        q = make_quote(id="P2370", kind=OptionKind.PUT, strike=2370.0, maturity=1,
                       bid_price=28.6, ask_price=30.5, bid_qty=275, ask_qty=322)
        assert position_bounds(q, 100.0) == (-27500.0, 32200.0)

    def test_rejects_bad_lot(self):
        with pytest.raises(ValueError):
            position_bounds(make_quote(), 0.0)


class TestQuotedPayoff:
    def test_call_at_maturity(self):
        q = make_quote(strike=2300.0, maturity=2)
        assert quoted_payoff(q, (2360.0, 2360.0)) == pytest.approx(60.0)

    def test_put_first_period(self):
        q = make_quote(id="P2370", kind=OptionKind.PUT, strike=2370.0, maturity=1)
        assert quoted_payoff(q, (2360.0, 9999.0)) == pytest.approx(10.0)

    def test_out_of_the_money(self):
        q = make_quote(strike=2500.0, maturity=2)
        assert quoted_payoff(q, (2400.0, 2450.0)) == 0.0

    def test_piecewise_linear_with_single_kink(self):
        q = make_quote(strike=2300.0, maturity=1)
        xs = np.linspace(2100.0, 2500.0, 81)
        vals = np.array([quoted_payoff(q, (x, x)) for x in xs])
        # linear below and above the strike, kink exactly at it
        below = xs <= 2300.0
        assert np.allclose(vals[below], 0.0)
        assert np.allclose(vals[~below], xs[~below] - 2300.0)


class TestQuoteFlags:
    def test_crossed_is_flagged_not_rejected(self):
        q = make_quote(bid_price=10.0, ask_price=5.0)
        assert q.crossed
        assert not make_quote().crossed

    def test_invariants(self):
        with pytest.raises(ValueError):
            make_quote(strike=-1.0)
        with pytest.raises(ValueError):
            make_quote(maturity=0)
        with pytest.raises(ValueError):
            make_quote(bid_qty=-3)

    @pytest.mark.parametrize("field", ["strike", "bid_price", "ask_price", "bid_qty", "ask_qty"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            make_quote(**{field: value})
