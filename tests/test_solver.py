import ast
import itertools
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from semistatic import cli, pricing, solver
from semistatic.claims import knockout_call
from semistatic.fixtures import BASE_MODEL, crossed_quote_market, small_market
from semistatic.galerkin import RowFactors, assemble_frictionless
from semistatic.instruments import OptionKind, Quote
from semistatic.pricing import AgentSpec, Market, optimal_value
from semistatic.solver import (
    SolveSettings,
    feasibility_start,
    minimize,
    solve_lp,
    _newton_solver,
)
from semistatic.blas import _openblas_thread_controls, _scipy_cholesky

from conftest import make_exp_program, make_lp_program, package_env
from oracles import dual_bound, exp_sum_minimum, highs_value, objective_and_gradient

TIGHT = SolveSettings(gap_tol=1e-12)
GAP_TOL = SolveSettings().gap_tol


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def golden_section(f, lo, hi, tol=1e-10):
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def refine_grid_search(f, lows, highs, sweeps=60, points=11):
    """Shrinking dense-grid minimization for smooth convex objectives."""
    lows = np.array(lows, dtype=float)
    highs = np.array(highs, dtype=float)
    best = None
    for _ in range(sweeps):
        axes = [np.linspace(lo, hi, points) for lo, hi in zip(lows, highs)]
        best_val, best_pt = np.inf, None
        for pt in itertools.product(*axes):
            val = f(np.array(pt))
            if val < best_val:
                best_val, best_pt = val, np.array(pt)
        span = (highs - lows) / (points - 1)
        lows = np.maximum(lows, best_pt - 1.5 * span)
        highs = np.minimum(highs, best_pt + 1.5 * span)
        best = (best_val, best_pt)
        if span.max() < 1e-9:
            break
    return best


def enumerate_vertices(cost, G, h, lower, upper):
    """Brute-force LP oracle: intersect every n-subset of constraint faces,
    keep the feasible points, return the best objective and minimizer."""
    G = np.asarray(G, dtype=float)
    n = G.shape[1]
    rows = [G[i] for i in range(G.shape[0])]
    rhs = list(np.asarray(h, dtype=float))
    for j in range(n):
        if np.isfinite(lower[j]):
            e = np.zeros(n)
            e[j] = -1.0
            rows.append(e)
            rhs.append(-lower[j])
        if np.isfinite(upper[j]):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append(e)
            rhs.append(upper[j])
    rows = np.array(rows)
    rhs = np.array(rhs)
    best_val, best_pt = np.inf, None
    for combo in itertools.combinations(range(rows.shape[0]), n):
        A = rows[list(combo)]
        b = rhs[list(combo)]
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, b)
        if np.all(rows @ x <= rhs + 1e-8):
            val = float(cost @ x)
            if val < best_val:
                best_val, best_pt = val, x
    return best_val, best_pt


def random_exp_instance(rng, n_vars, n_points):
    rows = rng.uniform(-2.0, 2.0, size=(n_points, n_vars))
    offsets = rng.uniform(-1.0, 1.0, size=n_points)
    masses = rng.uniform(0.2, 1.0, size=n_points)
    masses /= masses.sum()
    lower = np.full(n_vars, -1.0)
    upper = np.full(n_vars, 1.0)
    return make_exp_program(
        rows, offsets, masses, kappa=1.0, lower=lower, upper=upper,
        start=np.zeros(n_vars),
    )


# ---------------------------------------------------------------------------
# exponential-sum solves
# ---------------------------------------------------------------------------

class TestMinimize:
    def test_cash_only_closed_form(self):
        agent = AgentSpec(100000.0, 2.0)
        empty = Market(quotes=(), model=BASE_MODEL)
        value = optimal_value(empty, agent, allow_dynamic=False)
        assert value == pytest.approx(np.exp(-2.0), abs=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_one_dimensional_golden_section(self, seed):
        rng = np.random.default_rng(100 + seed)
        program = random_exp_instance(rng, 1, 6)
        sol = minimize(program, TIGHT)
        assert sol.status == "optimal"

        def f(z):
            return float(program.masses @ np.exp(program.offsets + program.rows[:, 0] * z))

        z_star = golden_section(f, -1.0, 1.0)
        assert sol.x[0] == pytest.approx(z_star, abs=1e-6)
        assert sol.objective == pytest.approx(f(z_star), rel=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_two_dimensional_grid_search(self, seed):
        rng = np.random.default_rng(200 + seed)
        program = random_exp_instance(rng, 2, 4)
        sol = minimize(program, TIGHT)

        def f(z):
            return float(program.masses @ np.exp(program.offsets + program.rows @ z))

        _, z_star = refine_grid_search(f, [-1.0, -1.0], [1.0, 1.0])
        np.testing.assert_allclose(sol.x, z_star, atol=1e-4)

    def test_trace_has_one_finite_row_per_system(self):
        rng = np.random.default_rng(5)
        program = random_exp_instance(rng, 3, 8)
        sol = minimize(program, TIGHT)
        assert sol.status == "optimal"
        assert len(sol.trace) == sol.newton_iterations == sol.outer_iterations + 1
        assert all(np.isfinite(list(row.values())).all() for row in sol.trace)
        # the log objective's targets are absolute: gap_tol on the gap and
        # on the decrement, which kkt_residual reports
        last = sol.trace[-1]
        assert last["gap"] <= TIGHT.gap_tol and abs(last["decrement"]) <= TIGHT.gap_tol
        assert sol.kkt_residual == max(last["gap"], abs(last["decrement"]))

    def test_mass_scaling_leaves_argmin(self):
        rng = np.random.default_rng(6)
        program = random_exp_instance(rng, 2, 6)
        scaled = replace(program, masses=10.0 * program.masses)
        a = minimize(program, TIGHT)
        b = minimize(scaled, TIGHT)
        np.testing.assert_allclose(a.x, b.x, atol=1e-10)
        assert b.objective == pytest.approx(10.0 * a.objective, rel=1e-12)

    def test_program_without_faces(self):
        # a quote-less market with dynamic trading leaves only free index
        # positions: no box edge and no pointwise row for a barrier.  Almost
        # all grid mass sits on one of its four scenarios, so the Hessian at
        # the start is numerically singular.  The optimum rests on the other
        # three masses (about 1e-40 to 1e-107), far-tail densities that the
        # gamma bracket truncates: against a full-range quadrature the
        # package's density is 39% low at u = -0.78 and more than 99% low at
        # u = -1.03 and +1.01.  So the optimum is the grid's, not the model's,
        # and it is held to an independent minimizer of the same program.
        agent = AgentSpec(100000.0, 2.0)
        empty = Market(quotes=(), model=BASE_MODEL)
        program = assemble_frictionless((), empty.grid_for(())).leg(
            (), agent.initial_wealth, agent.kappa
        )
        assert program.variable_count == 2 and program.point_upper is None
        assert not np.isfinite(np.concatenate([program.lower, program.upper])).any()
        sol = minimize(program)
        assert sol.status == "optimal"
        assert sol.log_objective == pytest.approx(exp_sum_minimum(program), rel=1e-8)

    def test_bare_strategy_space_is_rejected(self):
        # an assembled space carries no risk scale until a leg sets one
        space = assemble_frictionless((), Market(quotes=(), model=BASE_MODEL).grid_for(()))
        assert space.kappa is None
        with pytest.raises(ValueError, match="risk scale"):
            minimize(space)

    def test_pointwise_constrained_solution_feasible(self):
        rng = np.random.default_rng(12)
        program = random_exp_instance(rng, 2, 5)
        cap = 1.2
        constrained = replace(program, point_upper=np.full(5, cap))
        sol = minimize(constrained, TIGHT)
        assert sol.status == "optimal"
        assert constrained.loss_arguments(sol.x).max() <= cap + 1e-10
        assert sol.duals["point"] is not None

    @pytest.mark.parametrize("case", ["bid1-ask2", "small-buyer"])
    def test_uphill_corrector_falls_back_to_the_centred_direction(self, case):
        # Where the corrector's second-order term -ds dz points uphill for
        # the barrier merit, no backtracked step is accepted.  Without the
        # centred fallback, the 44-quote chain that quotes every option at
        # bid 1, ask 2 stopped baseline, seller and buyer at max_iter after 3
        # systems, and the small market's buyer at max_iter after 201.
        if case == "bid1-ask2":
            market = Market(quotes=tuple(
                Quote(id=f"{kind.value}:{k}:{t}", kind=kind, strike=float(k), maturity=t,
                      bid_price=1.0, ask_price=2.0, bid_qty=10, ask_qty=10)
                for t in (1, 2) for kind in (OptionKind.CALL, OptionKind.PUT)
                for k in range(1500, 2501, 100)
            ), model=BASE_MODEL)
            claim, units = knockout_call(2350.0, 2400.0), 1.0
        else:
            market = small_market(strikes=(2400.0, 2500.0, 2600.0), contracts=57)
            claim, units = knockout_call(2300.0, 2350.0), 0.5
        report = pricing.price_report(market, AgentSpec(100000.0, 2.0), claim, units=units)
        assert len(report.legs) == 5
        assert {name: leg["status"] for name, leg in report.legs.items()} == dict.fromkeys(
            report.legs, "optimal")


class TestNewtonDirection:
    def test_jitter_scaled_where_the_trace_cancels(self, monkeypatch):
        # the Hessian seen on a quote-less market before the exponent cap:
        # kappa^2 S^T S - g g^T cancels to eigenvalues -2.7e-20 and 1e-22, so
        # its trace is negative and carries no scale for the jitter
        c, s = np.cos(0.3), np.sin(0.3)
        rotation = np.array([[c, -s], [s, c]])
        hess = rotation @ np.diag([-2.7e-20, 1e-22]) @ rotation.T
        assert np.trace(hess) < 0
        grad = np.array([3e-12, -1e-12])
        solves = []
        factor, solve = solver._cholesky_routines()

        def spy(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(solver, "_cholesky_routines", lambda: (factor, spy))
        direction = -_newton_solver(hess)(grad)
        assert len(solves) == 1  # a Cholesky attempt, not the -grad/scale fallback
        assert np.isfinite(direction).all()
        assert grad @ direction < 0
        # (hess + jitter I) direction = -grad for a jitter just past -lambda_min
        jitter = -direction @ (hess @ direction + grad) / (direction @ direction)
        assert 2.7e-20 < jitter <= 100.0 * np.abs(np.diag(hess)).max()
        np.testing.assert_allclose(hess @ direction + jitter * direction, -grad, rtol=1e-9)

    def test_scipy_lapack_gives_the_same_direction(self, monkeypatch):
        # where numpy's OpenBLAS lacks dpotrf/dpotrs the solver imports the
        # same pair from scipy's LAPACK; both must give one Newton direction
        rng = np.random.default_rng(11)
        n = 131  # the desk-price program's variable count
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        hess = (basis * np.geomspace(1.0, 1e3, n)) @ basis.T
        grad = rng.standard_normal((n, 2))
        default = _newton_solver(hess)(grad)
        monkeypatch.setattr(solver, "_cholesky_routines", _scipy_cholesky)
        fallback = _newton_solver(hess)(grad)
        assert np.abs(fallback - default).max() <= 1e-12 * np.abs(default).max()


def quote_factors(rng, spreads, points=40, plain=3):
    """Rows without a grid of len(spreads) quotes, each a net column (its
    negated payoff) at an ask of 20 and a bid of 20 - spread, one cash
    column and ``plain`` other columns; (factors, program width)."""
    J = len(spreads)
    lead = np.column_stack([-rng.uniform(0.0, 300.0, (points, J))]
                           + [np.ones((points, 1))] * bool(J)
                           + [rng.standard_normal((points, plain))])
    order = np.concatenate([np.arange(J), [-1] * bool(J), 2 * J + np.arange(plain)])
    sell = np.where(np.arange(order.size) < J, J + np.arange(order.size), -1)
    ask = np.where(sell >= 0, 20.0, 0.0)
    bid = ask - np.concatenate([spreads, np.zeros(order.size - J)])
    factors = RowFactors(lead, np.zeros((1, 0)), np.zeros((0, points), dtype=np.intp),
                         np.zeros((0, points, 1)), 0, order, sell, ask, bid)
    return factors, 2 * J + plain


def backward_error(H, x, b):
    return np.linalg.norm(H @ x - b) / (np.linalg.norm(H, 2) * np.linalg.norm(x) + np.linalg.norm(b))


class TestCondensedNewtonSystem:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("case", ["spreads", "crossed", "zero-spread", "no-spread", "no-quotes"])
    def test_residual_no_worse_than_the_spelled_out_solve(self, case, seed):
        # H = P^T K P + D with box weights d+ and d- over 1e-12..1e8: the
        # condensed solve against numpy's solve of H spelled out
        rng = np.random.default_rng(seed)
        spreads = rng.uniform(0.05, 2.0, 6)
        if case == "crossed":
            spreads[1] = -0.5
        elif case == "zero-spread":
            spreads[2] = 0.0
        elif case == "no-spread":
            spreads[:] = 0.0
        elif case == "no-quotes":
            spreads = spreads[:0]
        factors, n = quote_factors(rng, spreads)
        # a stack of three legs, each with its own row and box weights
        weights = rng.random((3, factors.grid_shape[0]))
        box = np.concatenate([10.0 ** rng.uniform(-12.0, 8.0, (3, n - 3)),
                              10.0 ** rng.uniform(-3, 3, (3, 3))], axis=1)
        b = rng.standard_normal((3, n, 2))
        condensed = solver._condensed_solver(lambda shift: factors.gram(weights, shift), box,
                                             factors)
        P = factors.net(np.eye(n)).T
        for leg in range(3):
            H = P.T @ factors.gram(weights[leg]) @ P + np.diag(box[leg])
            for rhs, got in ((b[leg], condensed(b)[leg]),
                             (b[leg, :, 0], condensed(b[:, :, 0])[leg]),
                             (b[leg], condensed(b[[leg]], np.array([leg]))[0])):
                try:
                    dense = backward_error(H, np.linalg.solve(H, rhs), rhs)
                except np.linalg.LinAlgError:
                    # singular to working precision: a quote without a spread
                    # whose d+ + d- is far below K leaves H an exact null vector
                    dense = 0.0
                assert backward_error(H, got, rhs) <= max(dense, np.finfo(float).eps)

    def test_packaged_report_factors_condensed_systems(self, monkeypatch, packaged):
        # each quote's buy and sell variables condense into one net
        # coordinate beside one cash coordinate: 57 quotes and 16 other
        # variables are 74 coordinates, where the program has 130 variables
        config, market = packaged
        factor, solve = solver._cholesky_routines()
        interior_point = solver._interior_point
        legs, sizes = [], []

        def tagged(objective, *args):
            legs.append(type(objective).__name__)
            try:
                return interior_point(objective, *args)
            finally:
                legs.pop()

        def spy(a):
            sizes.append((legs[-1], a.shape))
            return factor(a)

        monkeypatch.setattr(solver, "_interior_point", tagged)
        monkeypatch.setattr(solver, "_cholesky_routines", lambda: (spy, solve))
        report = pricing.price_report(
            market, config.agent, config.claim, units=config.claim_units,
            delta_pct=config.delta_pct, exclude_claim_quote=config.exclude_claim_strike,
            settings=config.solver,
        )
        assert {leg["status"] for leg in report.legs.values()} == {"optimal"}
        assert {shape for kind, shape in sizes if kind == "_ExpSumObjective"} == {(74, 74)}
        assert {shape for kind, shape in sizes if kind == "_LinearObjective"} == {(75, 75)}


# ---------------------------------------------------------------------------
# linear programs
# ---------------------------------------------------------------------------

def level_program(rows, rhs, lower, upper, start):
    """The rows a_i(y) = rows_i @ y - rhs_i over the boxes, as a program
    without pointwise rows: ``feasibility_start`` finds min_y max_i a_i(y)."""
    m = len(rhs)
    return make_exp_program(rows, -np.asarray(rhs, dtype=float), np.full(m, 1.0 / m), 1.0,
                            lower, upper, start)


def assert_least_level(program, s_star, want, gap_tol=GAP_TOL):
    """``s_star`` is ``want`` and HiGHS's least level, within the LP gap rule."""
    tol = gap_tol * (1.0 + abs(s_star))
    assert s_star == pytest.approx(want, abs=tol)
    assert s_star == pytest.approx(highs_value(program.epigraph()), abs=tol)


class TestSolveLP:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_vertex_enumeration(self, seed):
        rng = np.random.default_rng(300 + seed)
        n, m = 3, 5
        G = rng.uniform(-1.0, 1.0, size=(m, n))
        h = rng.uniform(0.5, 1.5, size=m)  # origin strictly feasible
        cost = rng.uniform(-1.0, 1.0, size=n)
        lower = np.zeros(n)
        upper = np.full(n, 2.0)
        program = make_lp_program(cost, G, h, lower, upper, start=np.full(n, 0.25))
        sol = solve_lp(program, TIGHT)
        assert sol.status == "optimal"
        want, _ = enumerate_vertices(cost, G, h, lower, upper)
        assert sol.objective == pytest.approx(want, abs=1e-7)

    def test_weak_duality(self):
        rng = np.random.default_rng(77)
        G = rng.uniform(-1.0, 1.0, size=(4, 2))
        h = rng.uniform(0.5, 1.0, size=4)
        cost = np.array([1.0, -0.5])
        program = make_lp_program(cost, G, h, [0.0, 0.0], [3.0, 3.0], start=[0.2, 0.2])
        sol = solve_lp(program, TIGHT)
        bound = dual_bound(program, sol)
        assert sol.objective >= bound - 1e-7

    def test_unbounded_detected(self):
        # minimize -y with y >= 0 and one harmless row
        program = make_lp_program([-1.0], [[0.0]], [1.0], [0.0], [np.inf], start=[1.0])
        sol = solve_lp(program, SolveSettings(objective_floor=-1e6))
        assert sol.status == "unbounded"

    def test_phase1_reports_rows_without_interior(self):
        # y <= -1 conflicts with y in [0, 1]: the least level of y + 1 is 1, at y = 0
        program = level_program([[1.0]], [-1.0], [0.0], [1.0], start=[0.5])
        s_star, point, solution = feasibility_start(program)
        assert solution.status == "optimal"
        assert_least_level(program, s_star, 1.0)
        assert point == pytest.approx([0.0], abs=2 * GAP_TOL)

    def test_phase1_finds_interior(self):
        # the levels 0.5 - y1 and 0.25 - y2 over [0, 4]^2: the least is -3.5
        program = level_program(
            [[-1.0, 0.0], [0.0, -1.0]], [-0.5, -0.25], [0.0, 0.0], [4.0, 4.0], start=[0.1, 0.1],
        )
        s_star, point, _ = feasibility_start(program)
        assert_least_level(program, s_star, -3.5)
        assert np.all(program.loss_arguments(point) < 0.0)

    def test_phase1_slack_exact_far_from_zero(self):
        # s >= x - 5 y - 1e5 and s >= -x - 5 y + 1e5 with y <= 300: the
        # least level -1500 sits at x = 1e5, y = 300, far below zero, where
        # the rows' terms are 1e5; the LP gap rule still holds it to
        # 1e-9 * (1 + 1500), not to a share of the terms
        program = level_program(
            [[1.0, -5.0], [-1.0, -5.0]], [1e5, -1e5], [0.0, 0.0], [2e5, 300.0], start=[5e4, 1.0],
        )
        settings = SolveSettings(gap_tol=1e-9)
        s_star, point, _ = feasibility_start(program, settings)
        assert s_star >= -1500.0  # the level of a feasible point
        assert_least_level(program, s_star, -1500.0, settings.gap_tol)
        assert np.all(program.loss_arguments(point) < 0.0)


@pytest.mark.parametrize("solve, program", [
    (minimize, make_exp_program(
        rows=[[1.0], [-1.0]], offsets=[0.0, 0.0], masses=[0.5, 0.5], kappa=1.0,
        lower=[0.0], upper=[1.0], start=[0.5], point_upper=[-5.0, -5.0])),
    # y <= -1 conflicts with y in [0, 1]
    (solve_lp, make_lp_program([1.0], [[1.0]], [-1.0], [0.0], [1.0], start=[0.5])),
], ids=["minimize", "solve_lp"])
def test_start_outside_the_rows_raises(solve, program):
    # a solve starts at its program's start and never searches for one; only
    # an epigraph (the hedging LPs, feasibility_start) sets a start inside its rows
    with pytest.raises(ValueError, match="not strictly feasible"):
        solve(program)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a start a hair inside the box faces ends `optimal` "
                   "short of the optimum; see ROADMAP item 2")
def test_near_face_start_reaches_the_optimum():
    # an expected-loss program under a payout floor, built by hand: the
    # crossed chain at a 0.1% cost, kappa = 2 / budget, and every grid payout
    # at least the budget.  It starts strictly inside the floor and the boxes,
    # 0.99 of the way from the space's start to the zero claim's LP point, and
    # from that point moved 1.7e-13 below the cheap quote's cap and to 1e-10
    # above every dz leg's zero bound.  A start does not change the optimum
    # of a convex program, but the second ends `optimal` (kkt 4e-12) at log
    # value -2.0343510 where the first reaches -2.0344582.
    market, budget = crossed_quote_market(), 1e5
    space = pricing._assemble(market, market.grid_for(()), 0.1)
    _, lp_point, _ = feasibility_start(space.leg((), 0.0))
    program = replace(space.leg((), budget, 2.0 / budget),
                      point_upper=np.full(space.grid.size, -budget))
    inside = 0.99 * lp_point + 0.01 * space.start
    names = space.layout.names
    near_face = inside.copy()
    near_face[names.index("buy:XA")] = space.upper[names.index("buy:XA")] - 1.7e-13
    near_face[[name.startswith("dz") for name in names]] = 1e-10
    settings = SolveSettings()
    from_inside, from_near_face = (
        minimize(replace(program, start=start), settings) for start in (inside, near_face)
    )
    assert from_inside.status == from_near_face.status == "optimal"
    assert abs(from_near_face.log_objective - from_inside.log_objective) <= 2 * settings.gap_tol


class TestNumericalError:
    @pytest.mark.parametrize("after", [0, 3])
    def test_non_finite_objective(self, monkeypatch, after):
        derivatives = solver._ExpSumObjective.derivatives
        calls = []

        def poisoned(self, y, r):
            value, grad, hess = derivatives(self, y, r)
            calls.append(value)
            return (np.full_like(value, np.nan) if len(calls) > after else value), grad, hess

        monkeypatch.setattr(solver._ExpSumObjective, "derivatives", poisoned)
        sol = minimize(random_exp_instance(np.random.default_rng(21), 2, 5), TIGHT)
        assert sol.status == "numerical_error"
        assert sol.outer_iterations == after

    @pytest.mark.parametrize("after", [0, 3])
    def test_non_finite_direction(self, monkeypatch, after):
        newton_solver = solver._newton_solver
        factors = []

        def poisoned(hess):
            solve = newton_solver(hess)
            factors.append(hess)
            return solve if len(factors) <= after else (lambda rhs: np.full_like(rhs, np.inf))

        monkeypatch.setattr(solver, "_newton_solver", poisoned)
        rng = np.random.default_rng(300)
        G = rng.uniform(-1.0, 1.0, size=(5, 3))
        program = make_lp_program(rng.uniform(-1.0, 1.0, size=3), G, rng.uniform(0.5, 1.5, size=5),
                                  np.zeros(3), np.full(3, 2.0), start=np.full(3, 0.25))
        sol = solve_lp(program, TIGHT)
        assert sol.status == "numerical_error"
        assert sol.outer_iterations == after

    @pytest.mark.parametrize("kind", ["lp", "exp"])
    def test_non_finite_corrector(self, monkeypatch, kind):
        # the predictor's two-column solve stays finite, so the stopping exit
        # passes; the corrector's one-column solve of the fourth system does
        # not, and the leg leaves at the step exit before any product is
        # taken with it (a RuntimeWarning is an error under the suite)
        newton_solver = solver._newton_solver
        factors = []

        def poisoned(hess):
            solve = newton_solver(hess)
            factors.append(hess)
            if len(factors) <= 3:
                return solve
            return lambda rhs: np.full_like(rhs, np.inf) if rhs.shape[-1] == 1 else solve(rhs)

        monkeypatch.setattr(solver, "_newton_solver", poisoned)
        if kind == "lp":
            rng = np.random.default_rng(300)
            G = rng.uniform(-1.0, 1.0, size=(5, 3))
            sol = solve_lp(make_lp_program(rng.uniform(-1.0, 1.0, size=3), G,
                                           rng.uniform(0.5, 1.5, size=5), np.zeros(3),
                                           np.full(3, 2.0), start=np.full(3, 0.25)), TIGHT)
        else:
            sol = minimize(random_exp_instance(np.random.default_rng(21), 2, 5), TIGHT)
        assert sol.status == "numerical_error"
        assert sol.outer_iterations == 3
        assert sol.newton_iterations == 4


def assert_same_solution(stacked, alone):
    """Bit for bit the same point, value, duals, counts and residual."""
    assert stacked.status == alone.status == "optimal"
    assert stacked.objective == alone.objective
    assert stacked.log_objective == alone.log_objective
    assert stacked.outer_iterations == alone.outer_iterations
    assert stacked.newton_iterations == alone.newton_iterations
    assert stacked.kkt_residual == alone.kkt_residual
    np.testing.assert_array_equal(stacked.x, alone.x)
    for key in ("point", "lower", "upper"):
        if alone.duals[key] is None:
            assert stacked.duals[key] is None
        else:
            np.testing.assert_array_equal(stacked.duals[key], alone.duals[key])


class TestStackExits:
    # a leg that fails leaves its stack; the legs beside it go on as alone

    @pytest.mark.parametrize("after", [0, 3])
    def test_broken_leg_leaves_the_others_as_alone(self, monkeypatch, after):
        derivatives = solver._ExpSumObjective.derivatives
        calls = []

        def poisoned(self, y, r):
            # the leg at risk scale 2 turns non-finite after ``after`` systems
            value, grad, hess = derivatives(self, y, r)
            calls.append(value)
            if len(calls) > after:
                value = np.where(self.kappa[:, 0] == 2.0, np.nan, value)
            return value, grad, hess

        monkeypatch.setattr(solver._ExpSumObjective, "derivatives", poisoned)
        program = random_exp_instance(np.random.default_rng(21), 2, 5)
        (alone,) = solver.solve_legs([program], TIGHT)
        del calls[:]
        normal, broken = solver.solve_legs([program, replace(program, kappa=2.0)], TIGHT)
        assert broken.status == "numerical_error"
        assert broken.outer_iterations == after
        # the system at the broken point is factored before the leg leaves
        assert broken.newton_iterations == after + 1
        assert normal.outer_iterations > after
        assert_same_solution(normal, alone)

    def test_unbounded_leg_leaves_the_others_as_alone(self):
        # min -y0 + y1/2 runs off along y0; min y0 - y1/2 stops at (0, 1)
        rows, rhs, lower, upper = [[0.0, 1.0]], [1.0], [0.0, 0.0], [np.inf, np.inf]
        bounded = make_lp_program([1.0, -0.5], rows, rhs, lower, upper, start=[0.5, 0.5])
        runaway = replace(bounded, cost=np.array([-1.0, 0.5]))
        settings = SolveSettings(gap_tol=1e-12, objective_floor=-1e6)
        (alone,) = solver.solve_legs([bounded], settings)
        normal, unbounded = solver.solve_legs([bounded, runaway], settings)
        assert unbounded.status == "unbounded"
        assert unbounded.objective < -1e6
        assert normal.outer_iterations > unbounded.outer_iterations
        assert normal.objective == pytest.approx(-0.5, abs=1e-9)
        assert_same_solution(normal, alone)


# ---------------------------------------------------------------------------
# hedging linear programs against an exact LP solver
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def packaged():
    config = cli.load_config()
    return config, cli._market(config)


def hedging_lp(monkeypatch, cost_fn, market, claim, units, settings=None):
    """(LP program, Solution) of one superhedge or subhedge cost."""
    seen = []
    solve = pricing.feasibility_start

    def spy(program, settings=None):
        result = solve(program, settings)
        seen.append((program.epigraph(), result[2]))
        return result

    monkeypatch.setattr(pricing, "feasibility_start", spy)
    cost_fn(market, claim, units, settings=settings)
    (program, sol), = seen
    return program, sol


class TestHedgingLPs:
    @pytest.mark.parametrize("cost_fn", [pricing.superhedge_cost, pricing.subhedge_cost])
    @pytest.mark.parametrize("market_name", ["small", "packaged"])
    def test_costs_match_highs_and_dual_bound(self, monkeypatch, packaged, cost_fn, market_name):
        config, chain = packaged
        if market_name == "small":
            market, claim, units = small_market(), knockout_call(2350.0, 2400.0), 1.0
        else:
            market, claim, units = chain, config.claim, config.claim_units
        program, sol = hedging_lp(monkeypatch, cost_fn, market, claim, units)
        assert sol.status == "optimal"
        exact = highs_value(program)
        assert sol.objective == pytest.approx(exact, rel=1e-9, abs=1e-9)
        # weak duality from the returned duals, within the stated gap
        stated = sol.kkt_residual * (1.0 + abs(sol.objective))
        rounding = 1e-12 * (1.0 + abs(sol.objective))
        bound = dual_bound(program, sol)
        assert bound <= exact + rounding
        assert sol.objective - bound <= stated + rounding

    def test_three_row_products_per_iteration(self, monkeypatch, packaged):
        config, market = packaged
        calls, solving = [], []
        matvec, interior_point = RowFactors.matvec, solver._interior_point

        def spy(self, y):
            if solving:  # the solver's products, not the caller's
                calls.append(y)
            return matvec(self, y)

        def solve(*args):
            solving.append(True)
            try:
                return interior_point(*args)
            finally:
                solving.pop()

        monkeypatch.setattr(RowFactors, "matvec", spy)
        monkeypatch.setattr(solver, "_interior_point", solve)
        _, sol = hedging_lp(monkeypatch, pricing.superhedge_cost, market, config.claim,
                            config.claim_units)
        assert sol.status == "optimal"
        assert len(calls) <= 3 * sol.newton_iterations

    def test_three_row_products_per_stacked_step(self, monkeypatch, packaged):
        # a report's two stacks: each stacked step (the longest leg's Newton
        # systems) makes three row products however many legs run, and a
        # step that some leg shortens one more; alone, the packaged subhedge
        # shortens four of its 27 steps and makes 84 products
        config, market = packaged
        calls, stacks = [], []
        matvec, interior_point = RowFactors.matvec, solver._interior_point

        def spy(self, w):
            if stacks:  # the solver's products, not the caller's
                stacks[-1][0] += 1
            return matvec(self, w)

        def solve(*args):
            stacks.append([0])
            results = interior_point(*args)
            calls.append((stacks.pop()[0], max(result.newton_iterations for result in results),
                          len(results)))
            return results

        monkeypatch.setattr(RowFactors, "matvec", spy)
        monkeypatch.setattr(solver, "_interior_point", solve)
        pricing.price_report(market, config.agent, config.claim, units=config.claim_units,
                             delta_pct=config.delta_pct, settings=config.solver)
        assert len(calls) == 2  # the exponential legs, then the hedging LPs: one loop each
        for products, steps, legs in calls:
            assert products <= 3 * steps + legs

    def test_stack_shares_its_rows_and_boxes(self, packaged):
        config, market = packaged
        grid = market.grid_for([(config.claim, 1.0)])
        space = pricing._assemble(market, grid, None)
        leg = space.leg((), 1e5, 1e-5)
        with pytest.raises(ValueError, match="share"):
            solver.solve_legs([leg, pricing._assemble(market, grid, None).leg((), 1e5, 1e-5)])
        with pytest.raises(ValueError, match="share"):
            solver.solve_legs([leg, replace(leg, upper=leg.upper + 1.0)])
        with pytest.raises(ValueError, match="share"):
            solver.solve_legs([leg, pricing._hedging_lp(space, ())])

    def test_packaged_report_legs_within_sixty_systems(self, packaged):
        config, market = packaged
        report = pricing.price_report(
            market, config.agent, config.claim, units=config.claim_units,
            delta_pct=config.delta_pct, exclude_claim_quote=config.exclude_claim_strike,
            settings=config.solver,
        )
        for name, leg in report.legs.items():
            assert leg["status"] == "optimal", name
            assert leg["newton_iterations"] <= 60, name

    @pytest.mark.parametrize("gap_tol", [1e-12, 1e-13])
    def test_solve_below_the_rounding_floor_stops(self, monkeypatch, packaged, gap_tol):
        # the desk-price subhedge cannot reach these targets; once its residual
        # is below grad_tol and stops falling, the loop stops
        config, market = packaged
        _, sol = hedging_lp(monkeypatch, pricing.subhedge_cost, market, config.claim,
                            config.claim_units, SolveSettings(gap_tol=gap_tol))
        assert sol.status == "optimal"
        assert sol.newton_iterations < 60
        assert sol.kkt_residual <= SolveSettings().grad_tol

    def test_price_report_never_loads_the_lp_oracle(self, tmp_path):
        # HiGHS, the adaptive quadrature and the gamma and Cholesky oracles
        # serve only the tests: the package import, a CLI price run and a
        # synthetic chain load no scipy module at all
        code = (
            "import sys; from semistatic import cli\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy_modules())\n"
            "cli.main(['price', '--out', sys.argv[1]])\n"
            "print(scipy_modules())\n"
            "import semistatic.fixtures; semistatic.fixtures.synthetic_chain()\n"
            "print(scipy_modules())"
        )
        run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=package_env(),
                             capture_output=True, text=True, check=True, timeout=300)
        assert run.stdout.split() == ["[]"] * 3
        assert (tmp_path / "price_report.json").exists()

    def test_cold_path_loads_numpy_and_nothing_else(self, tmp_path):
        # with jsonschema blocked, the package import, a CLI price run and a
        # synthetic chain add no module outside the standard library but
        # numpy's and the package's own; the modules that site start-up (.pth
        # files) loads before the first line are the bare interpreter's
        code = (
            "import sys; bare = set(sys.modules)\n"
            "sys.modules['jsonschema'] = None\n"
            "from semistatic import cli, fixtures\n"
            "assert cli.main(['price', '--out', sys.argv[1]]) == 0\n"
            "fixtures.synthetic_chain()\n"
            "added = {m.split('.')[0] for m, v in sys.modules.items() if v and m not in bare}\n"
            "print(sorted(added - set(sys.stdlib_module_names)))"
        )
        run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=package_env(),
                             capture_output=True, text=True, check=True, timeout=300)
        added = set(ast.literal_eval(run.stdout.strip()))
        cython = {m for m in added if m == "cython_runtime" or m.startswith("_cython_")}
        assert added - cython == {"numpy", "semistatic"}
        assert (tmp_path / "price_report.json").exists()


# ---------------------------------------------------------------------------
# objective / gradient contract
# ---------------------------------------------------------------------------

class TestObjectiveAndGradient:
    def test_flat_rows(self):
        program = make_exp_program(
            rows=np.array([[0.0, -1.0], [0.0, -1.0]]),
            offsets=[0.0, 0.0], masses=[0.4, 0.6], kappa=0.7,
            lower=[-1, -np.inf], upper=[1, np.inf], start=[0, 0],
        )
        value, grad = objective_and_gradient(program, np.zeros(2))
        assert value == pytest.approx(1.0)
        # pure-cash column: every row carries -1, so the entry is -kappa
        assert grad[1] == pytest.approx(-0.7)
        assert grad[0] == pytest.approx(0.0)

    def test_cash_shift_scales_value(self):
        rng = np.random.default_rng(15)
        rows = np.hstack([rng.uniform(-1, 1, size=(5, 1)), np.full((5, 1), -1.0)])
        program = make_exp_program(
            rows, rng.uniform(-1, 1, size=5), np.full(5, 0.2), 0.9,
            lower=[-1, -np.inf], upper=[1, np.inf], start=[0, 0],
        )
        y = np.array([0.3, 0.1])
        v0, _ = objective_and_gradient(program, y)
        v1, _ = objective_and_gradient(program, y + np.array([0.0, 2.0]))
        assert v1 == pytest.approx(v0 * np.exp(-0.9 * 2.0), rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_central_differences(self, seed):
        rng = np.random.default_rng(400 + seed)
        program = random_exp_instance(rng, 3, 7)
        y = rng.uniform(-0.5, 0.5, size=3)
        _, grad = objective_and_gradient(program, y)
        for j in range( 3):
            h = 1e-5 * (1.0 + abs(y[j]))
            e = np.zeros(3)
            e[j] = h
            up, _ = objective_and_gradient(program, y + e)
            dn, _ = objective_and_gradient(program, y - e)
            fd = (up - dn) / (2.0 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_large_exponent_guard(self):
        program = make_exp_program(
            rows=[[-1.0]], offsets=[0.0], masses=[1.0], kappa=1.0,
            lower=[-np.inf], upper=[np.inf], start=[0.0],
        )
        value, grad = objective_and_gradient(program, np.array([-750.0]))
        assert np.isinf(value)
        value2, grad2 = objective_and_gradient(program, np.array([-650.0]))
        assert np.isfinite(value2) and np.isfinite(grad2[0])


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

def openblas_controls():
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS copy with thread controls is loaded")
    return controls


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def thread_env(**variables) -> dict:
    """``package_env`` in which, of the variables OpenBLAS reads its thread
    count from, only ``variables`` are set."""
    env = package_env(**variables)
    for name in THREAD_VARIABLES:
        if name not in variables:
            env.pop(name, None)
    return env


def numpy_threads(code, **variables) -> int:
    """The thread count of numpy's OpenBLAS after ``code`` runs in a fresh
    interpreter with ``thread_env(**variables)``.  The child asserts that
    its environment, in os.environ and in the C library, is what it was
    before ``code``."""
    probe = (
        "import ctypes, os\n"
        "getenv = ctypes.CDLL(None).getenv\n"
        "getenv.argtypes, getenv.restype = [ctypes.c_char_p], ctypes.c_char_p\n"
        "def variables():\n"
        f"    return [(n, os.environ.get(n), getenv(n.encode())) for n in {THREAD_VARIABLES}]\n"
        "before, environ = variables(), dict(os.environ)\n"
        f"{code}\n"
        "assert variables() == before and os.environ == environ\n"
        "from semistatic.blas import _loaded_openblas\n"
        "getters = [getattr(lib, 'scipy_openblas_get_num_threads64_', None)\n"
        "           for lib in _loaded_openblas()]\n"
        "print(*[get() for get in getters if get is not None])"
    )
    run = subprocess.run([sys.executable, "-c", probe], env=thread_env(**variables),
                         capture_output=True, text=True, check=True, timeout=300)
    counts = [int(count) for count in run.stdout.split()]
    if not counts:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    (count,) = counts
    return count


class TestBlasThreads:
    def test_solve_runs_on_one_thread_and_restores_counts(self, monkeypatch):
        controls = openblas_controls()

        def counts():
            return tuple(getter() for getter, _ in controls)

        seen = []
        factor, solve = solver._cholesky_routines()

        def spy(*args, **kwargs):
            seen.append(counts())
            return factor(*args, **kwargs)

        monkeypatch.setattr(solver, "_cholesky_routines", lambda: (spy, solve))
        saved = counts()
        try:
            for _, setter in controls:
                setter(2)
            sol = minimize(random_exp_instance(np.random.default_rng(3), 2, 5))
            after = counts()
        finally:
            for (_, setter), count in zip(controls, saved):
                setter(count)
        assert sol.status == "optimal"
        assert seen and set(seen) == {(1,) * len(controls)}
        assert after == (2,) * len(controls)

    def test_package_loads_numpy_openblas_at_one_thread(self):
        # OpenBLAS starts its threads while it loads, so the package picks the
        # count for the numpy it imports, and leaves no variable behind
        assert numpy_threads("import semistatic") == 1

    @pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_a_thread_variable_is_honoured(self, variable):
        if numpy_threads("import numpy") < 2:
            pytest.skip("OpenBLAS runs one thread on this machine whatever it is asked")
        assert numpy_threads("import semistatic", **{variable: "2"}) == 2

    def test_numpy_imported_first_keeps_its_count(self):
        default = numpy_threads("import numpy")
        if default < 2:
            pytest.skip("OpenBLAS runs one thread on this machine whatever it is asked")
        assert numpy_threads("import numpy; import semistatic") == default

    @pytest.mark.parametrize("flags", [[], ["--delta-pct", "0.1"]], ids=["frictionless", "cost"])
    def test_price_report_bytes_independent_of_thread_count(self, tmp_path, flags):
        # unset runs at the package's own default, one thread
        openblas_controls()
        reports = []
        for threads in ("unset", "1", "2"):
            out = tmp_path / threads
            variables = {} if threads == "unset" else {"OPENBLAS_NUM_THREADS": threads}
            subprocess.run(
                [sys.executable, "-m", "semistatic.cli", "price", "--out", str(out), *flags],
                env=thread_env(**variables), capture_output=True, check=True, timeout=300,
            )
            reports.append((out / "price_report.json").read_bytes())
        assert reports[0] == reports[1] == reports[2]
