"""Packaged synthetic markets.

The desk-scale quote chain stands in for a proprietary exchange snapshot: two
maturities, strikes 1500 to 2500 in steps of 50, spreads and contract counts
shaped like real index-option quotes.  Mid prices are expectations under a
martingale tilt of the scenario-grid masses, so the frictionless chain admits
no riskless strategy against its own grid; a deliberately cheap deep
in-the-money call can be planted on top to create one.

The chain is sensitive to rounding: deep in-the-money mids land on tick
boundaries, so one ulp in a grid mass or in a tilt root can move a quote by
a tick.  A change in how the grid's densities are rounded may therefore move
a few such quotes by one tick; the packaged CSV is data, and stays within a
tick of the chain generated here.  The tilt's root finder is a port of
scipy's C Brent solver, so that generating a chain imports numpy only.
"""
from __future__ import annotations

import math

import numpy as np

from .instruments import OptionKind, Quote, option_payoff
from .pricing import Market
from .scenario import QuadratureGrid, VGParams

BASE_MODEL = VGParams(
    theta=0.0, sigma=0.1206, nu=0.0031, spot=2360.0, horizons=(1.0 / 12.0, 2.0 / 12.0)
)
DEFAULT_MATURITIES = ("4/21/2017", "5/19/2017")
DEFAULT_STRIKES = tuple(float(k) for k in range(1500, 2501, 50))
TICK = 0.05


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Brent's root of ``f`` in [xa, xb], step for step scipy's C ``brentq``:
    ``scipy.optimize.brentq`` with the same ``xtol`` and its default relative
    tolerance 4 eps and 100 iterations gives the same bits."""
    rtol, maxiter = 4.0 * float(np.finfo(float).eps), 100
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations")


def _tilt(weights: np.ndarray, values: np.ndarray, target: float) -> np.ndarray:
    """Exponentially tilt ``weights`` so the mean of ``values`` hits ``target``
    (clamped just inside the value range)."""
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo
    if span <= 0:
        return weights / weights.sum()
    target = min(max(target, lo + 1e-6 * span), hi - 1e-6 * span)
    s = (values - target) / span

    def mean_gap(gamma):
        w = weights * np.exp(gamma * s)
        return float(w @ s) / float(w.sum())

    bracket = 1.0
    while mean_gap(-bracket) * mean_gap(bracket) > 0:
        bracket *= 2.0
        if bracket > 1e6:
            raise RuntimeError("martingale tilt failed to bracket")
    gamma = _brentq(mean_gap, -bracket, bracket, xtol=1e-14)
    w = weights * np.exp(gamma * s)
    return w / w.sum()


def martingale_grid_measure(grid: QuadratureGrid) -> np.ndarray:
    """Strictly positive grid measure with E[X_1] = spot and, per period-1
    node, E[X_2 | X_1] = X_1 (up to edge clamping); flattened like ``masses``."""
    if grid.periods != 2:
        raise ValueError("martingale tilt implemented for two-period grids")
    n1, n2 = (len(s) for s in grid.node_sets)
    m = grid.masses.reshape(n1, n2)
    x1, x2 = grid.node_sets
    rows = np.empty_like(m)
    for i in range(n1):
        rows[i] = _tilt(m[i], x2, float(x1[i]))
    marginal = _tilt(m.sum(axis=1), x1, grid.spot)
    return (marginal[:, None] * rows).ravel()


def _round_out(mid: float, half_spread: float) -> tuple[float, float]:
    bid = round(float(np.floor((mid - half_spread) / TICK)) * TICK, 2)
    ask = round(float(np.ceil((mid + half_spread) / TICK)) * TICK, 2)
    return max(bid, 0.0), ask


def _ticker(maturity_date: str, kind: OptionKind, strike: float) -> str:
    letter = "C" if kind is OptionKind.CALL else "P"
    return f"SPX US {maturity_date} {letter}{strike:g} Index"


def _pricing_grid(model: VGParams, strikes, truncation=None) -> QuadratureGrid:
    """The exact grid a quote-less Market over these strikes would price on,
    guard nodes included, so chain mids live on the engine's own scenarios."""
    shell = Market(
        quotes=(),
        model=model,
        truncation=truncation,
        grid_strikes=tuple(tuple(float(k) for k in strikes) for _ in range(model.periods)),
    )
    return shell.grid_for(())


def synthetic_chain(
    model: VGParams = BASE_MODEL,
    strikes=DEFAULT_STRIKES,
    maturities=DEFAULT_MATURITIES,
    truncation=None,
    spread_floor: float = 0.8,
    spread_rel: float = 0.03,
    min_mid: float = 0.25,
    qty_range: tuple[int, int] = (40, 400),
    qty_seed: int = 20170321,
) -> list[Quote]:
    """Deterministic two-maturity chain priced off the martingale grid measure."""
    grid = _pricing_grid(model, strikes, truncation)
    q_measure = martingale_grid_measure(grid)
    rng = np.random.default_rng(np.random.SeedSequence(qty_seed))
    quotes: list[Quote] = []
    for t, date in enumerate(maturities[: model.periods], start=1):
        for kind in (OptionKind.CALL, OptionKind.PUT):
            for k in strikes:
                mid = float(q_measure @ option_payoff(kind, k, grid.points[:, t - 1]))
                if mid < min_mid:
                    continue
                half = 0.5 * max(spread_floor, spread_rel * mid)
                bid, ask = _round_out(mid, half)
                bid_qty, ask_qty = rng.integers(qty_range[0], qty_range[1], size=2)
                quotes.append(
                    Quote(
                        id=_ticker(date, kind, k),
                        kind=kind,
                        strike=float(k),
                        maturity=t,
                        bid_price=bid,
                        ask_price=ask,
                        bid_qty=int(bid_qty),
                        ask_qty=int(ask_qty),
                    )
                )
    return quotes


def synthetic_market(model: VGParams = BASE_MODEL, **chain_kwargs) -> Market:
    return Market(quotes=tuple(synthetic_chain(model, **chain_kwargs)), model=model)


def planted_arbitrage_market(
    model: VGParams = BASE_MODEL, edge: float = 0.5, contracts: int = 2, **chain_kwargs
) -> Market:
    """Synthetic chain plus a deep in-the-money call offered below its
    cash-and-short-index replication bound by ``edge`` USD per option.

    Buying the call and shorting the index locks in the edge per option when
    the index trades freely, so the frictionless market admits a riskless
    strategy; the edge is below the index round-trip cost at a 0.1 percent
    transaction cost and below half the synthetic-short spread, so it is not
    exploitable once either friction applies.
    """
    quotes = synthetic_chain(model, **chain_kwargs)
    strike = 2000.0
    ask = model.spot - strike - edge
    planted = Quote(
        id=f"SPX US {DEFAULT_MATURITIES[0]} C{strike:g} Index#planted",
        kind=OptionKind.CALL,
        strike=strike,
        maturity=1,
        bid_price=ask - 0.5,
        ask_price=ask,
        bid_qty=0,
        ask_qty=contracts,
    )
    return Market(quotes=tuple(quotes + [planted]), model=model)


def crossed_quote_market(
    model: VGParams = BASE_MODEL,
    strike: float = 2350.0,
    low_ask: float = 40.0,
    high_bid: float = 45.0,
    contracts: int = 3,
) -> Market:
    """Two quotes on the identical option, one selling below the other's bid:
    buying the cheap one and selling the rich one books the gap risklessly.

    Premise: both prices lie above the call's intrinsic value S0 - K and
    below its superhedging cost on the ladder grid (10 and about 419 for the
    defaults).  Then neither quote is riskless on its own against the index,
    and the crossing is the only riskless profit: ``contracts`` lots at
    ``high_bid - low_ask`` each.
    """
    cheap = Quote(
        id="XA", kind=OptionKind.CALL, strike=strike, maturity=2,
        bid_price=low_ask - 1.0, ask_price=low_ask, bid_qty=0, ask_qty=contracts,
    )
    rich = Quote(
        id="XB", kind=OptionKind.CALL, strike=strike, maturity=2,
        bid_price=high_bid, ask_price=high_bid + 1.0, bid_qty=contracts + 2, ask_qty=0,
    )
    ladder = tuple(float(k) for k in range(2000, 2701, 50))
    return Market(
        quotes=(cheap, rich), model=model, grid_strikes=(ladder, ladder)
    )


def replication_market(
    model: VGParams = BASE_MODEL, strike: float = 2350.0, contracts: float = 1e7
) -> Market:
    """One zero-spread horizon call priced exactly at the martingale grid
    measure, in effectively unlimited quantity, on a full grid ladder."""
    grid = _pricing_grid(model, DEFAULT_STRIKES)
    q_measure = martingale_grid_measure(grid)
    price = float(q_measure @ option_payoff(OptionKind.CALL, strike, grid.points[:, -1]))
    quote = Quote(
        id=f"RC{strike:g}",
        kind=OptionKind.CALL,
        strike=strike,
        maturity=model.periods,
        bid_price=price,
        ask_price=price,
        bid_qty=contracts,
        ask_qty=contracts,
    )
    return Market(
        quotes=(quote,),
        model=model,
        grid_strikes=(tuple(DEFAULT_STRIKES),) * model.periods,
    )


def small_market(
    model: VGParams | None = None,
    strikes=(2200.0, 2300.0, 2400.0, 2500.0),
    contracts: int = 500,
) -> Market:
    """A few model-priced quotes on a coarse ladder, for fast unit tests."""
    model = model or BASE_MODEL
    quotes = synthetic_chain(
        model, strikes=strikes, qty_range=(contracts, contracts + 1), qty_seed=5
    )
    return Market(quotes=tuple(quotes), model=model)
