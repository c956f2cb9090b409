import os

import numpy as np
import pytest

import semistatic

from semistatic.fixtures import (
    BASE_MODEL,
    replication_market,
    small_market,
    synthetic_market,
)
from semistatic.galerkin import AssembledProgram, DecisionLayout, RowFactors
from semistatic.pricing import AgentSpec


@pytest.fixture(scope="session")
def base_model():
    return BASE_MODEL


@pytest.fixture(scope="session")
def agent():
    return AgentSpec(initial_wealth=100000.0, risk_aversion=2.0)


@pytest.fixture(scope="session")
def market_small():
    return small_market()


@pytest.fixture(scope="session")
def market_chain():
    return synthetic_market()


@pytest.fixture(scope="session")
def market_replication():
    return replication_market()


def stub_layout(n: int) -> DecisionLayout:
    return DecisionLayout(
        quote_ids=(),
        names=tuple(f"y{i}" for i in range(n)),
    )


def dense_factors(rows) -> RowFactors:
    """Rows without a grid or quotes: every column in A, N_T = 1, and P the
    identity."""
    M, n = rows.shape
    return RowFactors(rows, np.zeros((1, 0)), np.zeros((0, M), dtype=np.intp),
                      np.zeros((0, M, 1)), 0, np.arange(n),
                      np.full(n, -1, dtype=np.intp), np.zeros(n), np.zeros(n))


def make_exp_program(rows, offsets, masses, kappa, lower, upper, start, *,
                     point_upper=None, cost=None, grid=None):
    """Hand-built exponential-sum program for solver-level tests."""
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[1]
    return AssembledProgram(
        objective="exp_sum",
        layout=stub_layout(n),
        factors=dense_factors(rows),
        offsets=np.asarray(offsets, dtype=float),
        masses=np.asarray(masses, dtype=float),
        kappa=float(kappa),
        cost=np.zeros(n) if cost is None else np.asarray(cost, dtype=float),
        budget=0.0,
        point_upper=None if point_upper is None else np.asarray(point_upper, dtype=float),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        start=np.asarray(start, dtype=float),
        grid=grid,
    )


def make_lp_program(cost, rows, rhs, lower, upper, start):
    """Linear program: minimize cost @ y subject to rows @ y <= rhs and boxes."""
    rows = np.asarray(rows, dtype=float)
    m, n = rows.shape
    return AssembledProgram(
        objective="linear",
        layout=stub_layout(n),
        factors=dense_factors(rows),
        offsets=np.zeros(m),
        masses=np.full(m, 1.0 / max(m, 1)),
        kappa=1.0,
        cost=np.asarray(cost, dtype=float),
        budget=0.0,
        point_upper=np.asarray(rhs, dtype=float),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        start=np.asarray(start, dtype=float),
        grid=None,
    )


def package_env(**extra) -> dict:
    """Environment for a child interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(semistatic.__file__))
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env
