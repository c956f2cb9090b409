"""The row factors' products against the dense products of independent rows."""
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from semistatic import cli
from semistatic.claims import knockout_call
from semistatic.fixtures import (
    crossed_quote_market,
    planted_arbitrage_market,
    replication_market,
    small_market,
    synthetic_market,
)
from semistatic.galerkin import RowFactors, strategy_factors
from semistatic.pricing import Market, _assemble
from semistatic.scenario import VGParams

from conftest import make_exp_program

REL = 1e-13
ONE_PERIOD = VGParams(theta=0.0, sigma=0.1206, nu=0.0031, spot=2360.0, horizons=(1.0 / 12.0,))
THREE_PERIODS = replace(ONE_PERIOD, horizons=(1.0 / 12.0, 2.0 / 12.0, 3.0 / 12.0))


def close(value, reference, bound):
    """Within REL times ``bound`` of ``reference``, entry by entry, where
    ``bound`` is the same product of absolute values: the standard rounding
    bound of a sum of products (Higham 2002, sec. 3.1), which holds however
    far the sum cancels."""
    return np.all(np.abs(value - reference) <= REL * bound)


def net_rows(factors, rows):
    """R_net, the rows on the factors' net coordinates, read off the dense
    ``rows``: a quote's net column is its buy column less its ask, and the
    cash column is ones."""
    p, J, positions, _, variables, ask, _ = factors.net_layout
    net = np.ones((rows.shape[0], factors.width))
    net[:, positions[:p]] = rows[:, variables[:p]]
    net[:, positions[p:p + J]] = rows[:, variables[p:p + J]] - ask
    return net


def net_map(factors):
    """P (N, n) in program column order, with R = R_net P: a quote's net
    coordinate is x+ - x-, the cash coordinate ask x+ - bid x-."""
    p, J, positions, _, variables, ask, bid = factors.net_layout
    P = np.zeros((factors.width, variables.size))
    P[positions[:p], variables[:p]] = 1.0
    P[positions[p:p + J], variables[p:p + J]] = 1.0
    P[positions[p:p + J], variables[p + J:]] = -1.0
    if J:
        P[positions[-1], variables[p:p + J]] = ask
        P[positions[-1], variables[p + J:]] = -bid
    return P


def check_dense_products(factors, rows, weights):
    """The factors spell out ``rows`` (program column order); R_net w,
    R_net^T v and the Gram equal the products of the net rows, and
    R = R_net P."""
    np.testing.assert_array_equal(factors.dense(), rows)
    net = net_rows(factors, rows)
    P = np.abs(net_map(factors))
    rng = np.random.default_rng(7)
    x = rng.standard_normal(rows.shape[1])
    w = rng.standard_normal(net.shape[1])
    v = rng.standard_normal(rows.shape[0])

    def gram(m):
        return m.T @ (weights[:, None] * m)

    assert close(factors.gram(weights), gram(net), gram(np.abs(net)))
    # each A and B column moved by a constant on every row
    shift = np.zeros(factors.width)
    shift[:factors.width - factors.cell_count] = rng.standard_normal(factors.width - factors.cell_count)
    moved = net + shift
    assert close(factors.gram(weights, shift), gram(moved), gram(np.abs(moved)))
    assert close(factors.matvec(w), net @ w, np.abs(net) @ np.abs(w))
    assert close(factors.rmatvec(v), net.T @ v, np.abs(net).T @ np.abs(v))
    assert close(factors.product(x), rows @ x, np.abs(net) @ (P @ np.abs(x)))
    order = factors.net_layout.variables
    assert close(factors.net_t(factors.rmatvec(v)), (rows.T @ v)[order],
                 (P.T @ (np.abs(net).T @ np.abs(v)))[order])


def grid_market(periods):
    market = small_market()
    if periods == 1:
        quotes = tuple(q for q in market.quotes if q.maturity == 1)
        return Market(quotes=quotes, model=ONE_PERIOD)
    if periods == 3:
        later = tuple(replace(q, id=f"{q.id}@3", maturity=3)
                      for q in market.quotes if q.maturity == 2)
        return Market(quotes=market.quotes + later, model=THREE_PERIODS)
    return market


def grid_program(periods, delta_pct):
    market = grid_market(periods)
    return market, _assemble(market, market.grid_for(()), delta_pct)


def kernel_rows(market, program, delta_pct):
    """The program's rows from the column kernel on the grid points as paths,
    which puts every column in A: dense, and built without the factoring."""
    grid = program.grid
    levels = [grid.points[:, [t]] for t in range(grid.periods)]
    names, factors, _ = strategy_factors(market.quotes, levels, grid.spot, delta_pct)
    return factors.dense()[:, [names.index(name) for name in program.layout.names]]


@pytest.mark.parametrize("delta_pct", [None, 0.1])
@pytest.mark.parametrize("periods", [1, 2, 3])
def test_stacked_products_equal_each_leg_alone(periods, delta_pct):
    # the solver runs legs as a stack; every product gives each leg the bits
    # it gets alone, and a stack of one the bits of an unstacked product
    _, program = grid_program(periods, delta_pct)
    lifted = program.epigraph()
    for factors in (program.factors, lifted.factors):
        (M, n), N = factors.shape, factors.width
        rng = np.random.default_rng(periods)
        w, v, y = (rng.standard_normal((3, size)) for size in (N, M, n))
        weights = rng.random((3, M))
        shift = rng.standard_normal((3, N))
        shift[:, N - factors.cell_count:] = 0.0
        stacked = [(factors.matvec(w), factors.matvec, (w,)),
                   (factors.rmatvec(v), factors.rmatvec, (v,)),
                   (factors.net(y), factors.net, (y,)),
                   (factors.net_t(w), factors.net_t, (w,)),
                   (factors.gram(weights), factors.gram, (weights,)),
                   (factors.gram(weights, shift), factors.gram, (weights, shift))]
        for out, product, args in stacked:
            for leg in range(3):
                alone = product(*(a[leg] for a in args))
                np.testing.assert_array_equal(out[leg], alone)
                np.testing.assert_array_equal(product(*(a[leg:leg + 1] for a in args))[0], alone)


@pytest.mark.parametrize("delta_pct", [None, 0.1])
@pytest.mark.parametrize("periods", [1, 2, 3])
def test_assembled_programs(periods, delta_pct):
    market, program = grid_program(periods, delta_pct)
    factors = program.factors
    rows = kernel_rows(market, program, delta_pct)
    check_dense_products(factors, rows, program.masses)
    # the barrier's face weights 1/s^2 span many decades
    check_dense_products(factors, rows, np.geomspace(1e-6, 1e6, rows.shape[0]))
    # every column is in one factor; only dynamic columns are cell slots,
    # one slot per row without costs, two per trading period with them
    held = np.concatenate([factors.order[factors.order >= 0], factors.sell[factors.sell >= 0]])
    assert sorted(held) == list(range(program.variable_count))
    # each quote is one net column at its buy variable, beside one cash column in A
    p, J, positions, _, variables, _, _ = factors.net_layout
    names = program.layout.names
    assert J == len(program.layout.quote_ids)
    buys, sells = variables[p:p + J], variables[p + J:]
    assert [names[j].replace("buy:", "sell:") for j in buys] == [names[j] for j in sells]
    assert list(factors.order[positions[p:p + J]]) == list(buys)
    assert factors.width == p + J + 1 and factors.order[positions[-1]] == -1
    assert positions[-1] < factors.lead.shape[1]
    cell_columns = factors.order[factors.width - factors.cell_count:]
    assert set(cell_columns) <= set(range(program.layout.options, program.variable_count))
    slots = {1: 0, 2: 1, 3: 1} if delta_pct is None else {1: 0, 2: 2, 3: 4}
    assert factors.cells.shape[0] == slots[periods]
    if periods > 1:
        assert factors.lead.shape[1] and factors.last.shape[1] and factors.cell_count


def contract_markets():
    """The two-period markets, each bare and on a knock-out call's grid, and
    two three-period ones, bare; (id, market, claim terms)."""
    ladder = tuple(float(k) for k in range(1500, 2501, 50))
    knockout = ((knockout_call(2350.0, 2400.0), 1.0),)
    two = {
        "packaged": lambda: cli._market(cli.load_config()),
        "small": small_market,
        "planted": planted_arbitrage_market,
        "crossed": crossed_quote_market,
        "synthetic": synthetic_market,
        "replication": replication_market,
        "step-50": lambda: replace(synthetic_market(), grid_strikes=(ladder, ladder)),
    }
    for name, build in two.items():
        yield pytest.param(build, (), id=name)
        yield pytest.param(build, knockout, id=f"{name}-knockout")
    yield pytest.param(lambda: grid_market(3), (), id="three-periods")
    yield pytest.param(lambda: Market(quotes=(), model=THREE_PERIODS), (),
                       id="three-periods-no-quotes")


@pytest.mark.parametrize("build, terms", contract_markets())
def test_each_slot_of_a_row_holds_its_own_cell_column(build, terms):
    # the products add the slots of a row one by one, so two nonzero slots
    # of one row may not share a cell column; a slot whose cell was dropped
    # holds 0 at column 0, where it may meet another slot
    market = build()
    grid = market.grid_for(terms)
    slots = 0
    for delta_pct in (None, 0.0, 0.1, 0.7):
        for dynamic in (True, False):
            program = _assemble(market, grid, delta_pct, allow_dynamic=dynamic)
            for factors in (program.factors, program.factors.levelled):
                cells, nonzero = factors.cells, factors.values != 0
                assert np.all((cells >= 0) & (cells < factors.cell_count))
                for j, l in itertools.combinations(range(len(cells)), 2):
                    shared = (cells[j] == cells[l])[:, None] & nonzero[j] & nonzero[l]
                    assert not shared.any(), (delta_pct, dynamic, j, l)
                slots = max(slots, len(cells))
    # the transaction-cost spaces hold two slots per trading period after
    # the first, whose legs are columns of B
    assert slots == 2 * (market.model.periods - 1)


def one_sided_markets(market):
    """``market`` with one quote without a bid quantity, one without an ask
    quantity and one without either; and with sells only, which has no cash
    column."""
    first, second, third, *rest = market.quotes
    yield replace(market, quotes=(replace(first, bid_qty=0), replace(second, ask_qty=0),
                                  replace(third, bid_qty=0, ask_qty=0), *rest))
    yield replace(market, quotes=tuple(replace(q, ask_qty=0) for q in market.quotes))


@pytest.mark.parametrize("delta_pct", [None, 0.1])
@pytest.mark.parametrize("periods", [2, 3])
def test_products_of_one_sided_quotes(periods, delta_pct):
    # a quote with one side is a plain column.  The last trading period's
    # cell [0, 2200) carries too little mass, so its slot column goes, and
    # the rows in that cell keep a zero slot
    leg = "z" if delta_pct is None else "dzbuy"
    for market in one_sided_markets(grid_market(periods)):
        program = _assemble(market, market.grid_for(()), delta_pct)
        factors = program.factors
        check_dense_products(factors, kernel_rows(market, program, delta_pct), program.masses)
        assert f"{leg}{periods - 1}[0,2200)" in program.layout.dropped
        slots = factors.order[factors.width - factors.cell_count:]
        assert f"{leg}{periods - 1}[2200,2300)" in {program.layout.names[c] for c in slots}
        static = _assemble(market, program.grid, delta_pct, allow_dynamic=False)
        assert static.factors.cells.shape[0] == 0 and static.factors.cell_count == 0
        check_dense_products(static.factors, kernel_rows(market, static, delta_pct),
                             program.masses)


def test_wealth_column_lands_in_the_leading_group():
    for delta_pct in (None, 0.1):
        market, program = grid_program(2, delta_pct)
        M, n = program.factors.shape
        lifted = program.epigraph()
        rows = np.hstack([kernel_rows(market, program, delta_pct), -np.ones((M, 1))])
        check_dense_products(lifted.factors, rows, program.masses)
        assert n in lifted.factors.order[:lifted.factors.lead.shape[1]]


def test_program_without_a_grid_is_dense():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((9, 4))
    program = make_exp_program(
        rows=rows, offsets=np.zeros(9), masses=np.full(9, 1 / 9),
        kappa=1.0, lower=[-1.0] * 4, upper=[1.0] * 4, start=[0.0] * 4,
    )
    check_dense_products(program.factors, rows, rng.random(9))
    assert program.factors.grid_shape == (9, 1) and program.factors.lead.shape == (9, 4)


@settings(max_examples=60, deadline=None)
# R_net w cancels to 1.42e-5 from terms of about 0.1: a bound relative to
# the product itself fails there, one on its terms does not
@example(grid=(1, 1), widths=(1, 4, 0, 5), seed=0)
@given(
    grid=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    widths=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3), st.integers(1, 5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_product_grids(grid, widths, seed):
    # random factors against rows spelled out one slot entry at a time; the
    # slots of a row hold distinct cell columns, as the kernel's do
    (lead, last), (n_a, n_b, n_slots, n_cells) = grid, widths
    assume(n_slots <= n_cells)
    rng = np.random.default_rng(seed)
    cells = np.array([rng.choice(n_cells, n_slots, replace=False)
                      for _ in range(lead)], dtype=np.intp).T
    n = n_a + n_b + n_cells
    factors = RowFactors(
        lead=rng.standard_normal((lead, n_a)),
        last=rng.standard_normal((last, n_b)),
        cells=cells,
        values=rng.standard_normal((n_slots, lead, last)),
        cell_count=n_cells,
        order=rng.permutation(n),
        sell=np.full(n, -1, dtype=np.intp),
        ask=np.zeros(n),
        bid=np.zeros(n),
    )
    by_factor = np.zeros((lead, last, n))
    by_factor[:, :, :n_a] = factors.lead[:, None, :]
    by_factor[:, :, n_a:n_a + n_b] = factors.last[None, :, :]
    for j in range(n_slots):
        for i in range(lead):
            by_factor[i, :, n_a + n_b + cells[j, i]] += factors.values[j, i]
    rows = np.empty((lead * last, factors.shape[1]))
    rows[:, factors.order] = by_factor.reshape(lead * last, -1)
    weights = rng.random(lead * last) * 10.0 ** rng.uniform(-3, 3, lead * last)
    check_dense_products(factors, rows, weights)
