"""The barrier solver's product-grid row operator against the dense products."""
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semistatic.fixtures import small_market
from semistatic.galerkin import assemble_frictionless, assemble_transaction_cost
from semistatic.pricing import Market
from semistatic.scenario import VGParams
from semistatic.solver import _RowOperator

from conftest import make_exp_program

REL = 1e-13
ONE_PERIOD = VGParams(theta=0.0, sigma=0.1206, nu=0.0031, spot=2360.0, horizons=(1.0 / 12.0,))


def relative_error(value, reference):
    return float(np.linalg.norm(value - reference) / np.linalg.norm(reference))


def check_dense_products(rows, grid, weights):
    """The operator's Gram, R y and R^T v equal the dense products; returns it."""
    op = _RowOperator(rows, grid)
    rng = np.random.default_rng(7)
    y = rng.standard_normal(rows.shape[1])
    v = rng.standard_normal(rows.shape[0])
    assert relative_error(op.gram(weights), rows.T @ (weights[:, None] * rows)) <= REL
    assert relative_error(op.matvec(y), rows @ y) <= REL
    assert relative_error(op.rmatvec(v), rows.T @ v) <= REL
    return op


def grid_program(periods, delta_pct):
    market = small_market()
    if periods == 1:
        quotes = tuple(q for q in market.quotes if q.maturity == 1)
        market = Market(quotes=quotes, model=ONE_PERIOD)
    grid = market.grid_for(())
    if delta_pct is None:
        return assemble_frictionless(market.quotes, grid, market.lot_size)
    return assemble_transaction_cost(market.quotes, grid, delta_pct, market.lot_size)


@pytest.mark.parametrize("delta_pct", [None, 0.1])
@pytest.mark.parametrize("periods", [1, 2])
def test_assembled_programs(periods, delta_pct):
    program = grid_program(periods, delta_pct)
    weights = program.masses
    op = check_dense_products(program.rows, program.grid, weights)
    # every column is in one group; T = 2 leaves only the rebalance cells or
    # the period-1 dz legs dense
    groups = np.sort(np.concatenate([op._a, op._b, op._c]))
    assert (groups == np.arange(program.variable_count)).all()
    if periods == 2:
        assert op._a.size and op._b.size
        dynamic = program.layout.block("dynamic")
        assert set(op._c) <= set(range(dynamic.start, dynamic.start + dynamic.size))
    # the barrier's face weights 1/s^2 span many decades
    spread = np.geomspace(1e-6, 1e6, program.rows.shape[0])
    check_dense_products(program.rows, program.grid, spread)


def test_wealth_column_lands_in_the_leading_group():
    program = grid_program(2, None)
    M, n = program.rows.shape
    rows = np.hstack([program.rows, -np.ones((M, 1))])
    op = check_dense_products(rows, program.grid, program.masses)
    assert n in op._a


def test_near_constant_column_stays_dense():
    # grouping is by exact equality: one point off by 1e-9 relative keeps a
    # maturity-1 option column out of the leading group
    program = grid_program(2, None)
    rows = program.rows.copy()
    op = _RowOperator(rows, program.grid)
    column = op._a[0]
    rows[1, column] *= 1.0 + 1e-9
    op = check_dense_products(rows, program.grid, program.masses)
    assert column in op._c


def test_program_without_a_grid_is_dense():
    rng = np.random.default_rng(3)
    program = make_exp_program(
        rows=rng.standard_normal((9, 4)), offsets=np.zeros(9), masses=np.full(9, 1 / 9),
        kappa=1.0, lower=[-1.0] * 4, upper=[1.0] * 4, start=[0.0] * 4,
    )
    op = check_dense_products(program.rows, program.grid, rng.random(9))
    assert op._grid_shape == (9, 1) and op._a.size == 4


def test_points_off_the_product_order_are_dense():
    program = grid_program(2, None)
    shuffled = types.SimpleNamespace(point_index=program.grid.point_index[::-1])
    op = check_dense_products(program.rows, shuffled, program.masses)
    assert op._grid_shape == (program.rows.shape[0], 1)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    counts=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_product_grids(shape, counts, seed):
    rng = np.random.default_rng(seed)
    lead, last = int(np.prod(shape[:-1])), shape[-1]
    n_a, n_b, n_rest = counts
    columns = [np.repeat(rng.standard_normal(lead), last) for _ in range(n_a)]
    columns += [np.tile(rng.standard_normal(last), lead) for _ in range(n_b)]
    columns += [rng.standard_normal(lead * last) for _ in range(n_rest)]
    columns.append(-np.ones(lead * last))
    rows = np.column_stack(columns)[:, rng.permutation(len(columns))]
    grid = types.SimpleNamespace(point_index=np.indices(shape).reshape(len(shape), -1).T)
    weights = rng.random(lead * last) * 10.0 ** rng.uniform(-3, 3, lead * last)
    check_dense_products(rows, grid, weights)
