import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

from semistatic.claims import Breakpoint
from semistatic.pricing import Market
from semistatic.scenario import (
    VGParams,
    _gamma_bracket,
    _gl_rule,
    _mixture_nodes,
    build_grid,
    simulate_paths,
    vg_log_increment_density_vec,
)

from conftest import package_env
from oracles import (
    gauss_legendre_rule,
    path_density,
    vg_increment_moments,
    vg_log_increment_cdf_vec,
    vg_log_increment_density,
    vg_log_increment_density_logspace,
)

BASE = VGParams(theta=0.0, sigma=0.1206, nu=0.0031, spot=2360.0, horizons=(1 / 12, 2 / 12))
SKEWED = VGParams(theta=-0.15, sigma=0.1206, nu=0.0031, spot=2360.0, horizons=(1 / 12, 2 / 12))


class TestIncrementDensity:
    def test_symmetric_when_theta_zero(self):
        for u in (0.01, 0.03, 0.09):
            up = vg_log_increment_density(BASE, 1 / 12, u)
            down = vg_log_increment_density(BASE, 1 / 12, -u)
            assert up == pytest.approx(down, rel=1e-10)

    def test_integrates_to_one(self):
        # independent oracle: numeric integration of the density over a wide range
        total, _ = integrate.quad(
            lambda u: vg_log_increment_density(BASE, 1 / 12, u), -0.6, 0.6, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_normal_limit_small_nu(self):
        params = VGParams(theta=0.0, sigma=0.1206, nu=1e-10, spot=2360.0, horizons=(1 / 12,))
        got = vg_log_increment_density(params, 1 / 12, 0.0)
        want = stats.norm.pdf(0.0, scale=0.1206 * np.sqrt(1 / 12))
        assert got == pytest.approx(want, rel=1e-4)

    @pytest.mark.parametrize("theta", [0.0, -0.15])
    def test_fast_path_normal_limit_small_nu(self, theta):
        # at nu = 1e-10 the gamma shape dt / nu is 8.3e8: the fixed nodes sit
        # in a bracket of width 5.9e-4 dt, 17.2 standard deviations, and an end
        # five deviations (1.7e-4 dt) further in would cut 1e-3 of the mass
        dt, sigma = 1 / 12, 0.1206
        us = theta * dt + sigma * np.sqrt(dt) * np.linspace(-4.0, 4.0, 33)
        # The model departs from the normal by its excess kurtosis 3 nu / dt,
        # 3.6e-9 at nu = 1e-10: the reference carries that departure, half
        # the gamma time's variance nu dt times the second derivative in g of
        # the normal pdf at g = dt, and drops the next term, O((nu / dt)^2).
        # d1 and d2 are the first two g-derivatives of the log pdf.
        d1 = -1 / (2 * dt) + us**2 / (2 * sigma**2 * dt**2) - theta**2 / (2 * sigma**2)
        d2 = 1 / (2 * dt**2) - us**2 / (sigma**2 * dt**3)
        normal = stats.norm.pdf(us, loc=theta * dt, scale=sigma * np.sqrt(dt))
        # Measured: at most 2.4e-15 at both nu.  The weights are formed around
        # the gamma mean and normalised by their own sum, so no constant as
        # large as log Gamma(shape) rounds into them.
        for nu in (1e-10, 1e-12):
            params = VGParams(theta=theta, sigma=sigma, nu=nu, spot=2360.0, horizons=(dt,))
            got = vg_log_increment_density_vec(params, dt, us)
            want = normal * (1.0 + 0.5 * nu * dt * (d1**2 + d2))
            np.testing.assert_allclose(got, want, rtol=1e-13, err_msg=f"nu = {nu}")

    def test_fast_path_agrees_with_adaptive_reference(self):
        us = np.concatenate([np.linspace(-0.25, 0.25, 21), [1e-9, -1e-9]])
        for dt in (1 / 12, 1 / 52, 0.5):
            fast = vg_log_increment_density_vec(SKEWED, dt, us)
            for u, f in zip(us, fast):
                ref = vg_log_increment_density(SKEWED, dt, float(u))
                assert f == pytest.approx(ref, abs=1e-8, rel=1e-8)

    @pytest.mark.parametrize("nu", [0.12, 0.16])
    def test_fast_path_near_the_nu_limit(self, nu):
        # a one-month gamma shape of 0.69 and 0.52, just above the 1/2 that
        # check_nu rejects: the bracket's lower end lies at 3e-24 and 7e-32
        # times the mean, and the weights there must keep their digits.  At
        # u = 0 the density is all but unbounded; the fixed nodes cannot follow.
        params = VGParams(theta=-0.15, sigma=0.1206, nu=nu, spot=2360.0, horizons=(1 / 12,))
        us = np.array([1e-3, -1e-3, 0.01, -0.02, 0.05, -0.1, 0.2])
        fast = vg_log_increment_density_vec(params, 1 / 12, us)
        ref = [vg_log_increment_density(params, 1 / 12, float(u)) for u in us]
        np.testing.assert_allclose(fast, ref, rtol=1e-12)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            vg_log_increment_density(BASE, 0.0, 0.1)

    def test_cdf_monotone_and_normalized(self):
        us = np.linspace(-0.5, 0.5, 101)
        cdf = vg_log_increment_cdf_vec(BASE, 1 / 12, us)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == pytest.approx(0.0, abs=1e-8)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-8)


class TestPathDensity:
    def test_single_period_equals_transition(self):
        params = VGParams(theta=0.0, sigma=0.1206, nu=0.0031, spot=2360.0, horizons=(1 / 12,))
        x = 2400.0
        want = vg_log_increment_density(params, 1 / 12, np.log(x / 2360.0)) / x
        assert path_density(params, (x,)) == pytest.approx(want, rel=1e-8)

    def test_log_space_symmetry(self):
        # in log coordinates the theta=0 transition density is symmetric
        for u in (0.02, 0.05):
            up = path_density(BASE, (2360.0 * np.exp(u), 2360.0 * np.exp(u)))
            down = path_density(BASE, (2360.0 * np.exp(-u), 2360.0 * np.exp(-u)))
            ratio = (up * (2360.0 * np.exp(u)) ** 2) / (down * (2360.0 * np.exp(-u)) ** 2)
            assert ratio == pytest.approx(1.0, rel=1e-8)

    def test_markov_product(self):
        x1, x2 = 2300.0, 2420.0
        t1 = vg_log_increment_density(BASE, 1 / 12, np.log(x1 / 2360.0)) / x1
        t2 = vg_log_increment_density(BASE, 1 / 12, np.log(x2 / x1)) / x2
        assert path_density(BASE, (x1, x2)) == pytest.approx(t1 * t2, rel=1e-8)

    def test_rejects_nonpositive_levels(self):
        with pytest.raises(ValueError):
            path_density(BASE, (-2300.0, 2400.0))


class TestBuildGrid:
    def test_midpoint_cell_widths(self):
        params = VGParams(theta=0.0, sigma=0.12, nu=0.003, spot=2200.0, horizons=(1 / 12,))
        grid = build_grid(params, [(2000.0, 2200.0, 2400.0)], truncation=[(1900.0, 2500.0)])
        np.testing.assert_allclose(grid.weights, [200.0, 200.0, 200.0])

    def test_cartesian_product_weights(self):
        grid = build_grid(
            BASE,
            [(2200.0, 2300.0, 2400.0), (2250.0, 2450.0)],
            truncation=[(2000.0, 2600.0), (2000.0, 2600.0)],
        )
        assert grid.size == 6
        w1 = np.array([250.0, 100.0, 250.0])
        w2 = np.array([350.0, 250.0])
        np.testing.assert_allclose(grid.weights, np.outer(w1, w2).ravel())
        assert grid.masses.min() > 0
        assert grid.masses.sum() == pytest.approx(1.0, abs=1e-15)

    def test_mass_close_to_one_before_normalization(self):
        # nodes spanning the truncation box, so boundary cells carry no real mass
        strikes = tuple(float(k) for k in range(1025, 3000, 25))
        grid = build_grid(BASE, [strikes, strikes])
        assert grid.raw_mass == pytest.approx(1.0, abs=5e-3)

    def test_widening_truncation_raises_mass(self):
        strikes = tuple(float(k) for k in range(1500, 2501, 50))
        narrow = build_grid(BASE, [strikes, strikes], truncation=[(1400, 2600)] * 2)
        wide = build_grid(BASE, [strikes, strikes], truncation=[(1000, 3000)] * 2)
        assert wide.raw_mass >= narrow.raw_mass

    def test_paper_scale_point_count(self):
        strikes = tuple(1500.0 + 2.5 * i for i in range(401))
        grid = build_grid(BASE, [strikes, strikes])
        assert grid.size > 160_000
        assert grid.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_jump_breakpoints_bracketed(self):
        bps = [[Breakpoint(2400.0, "jump")], [Breakpoint(2350.0, "kink")]]
        grid = build_grid(BASE, [(2300.0, 2500.0), (2300.0, 2500.0)], breakpoints=bps)
        nodes1 = grid.node_sets[0]
        assert 2400.0 in nodes1
        assert np.any(np.isclose(nodes1, 2400.0 * (1 - 1e-9), rtol=0, atol=1e-4))
        assert np.any(np.isclose(nodes1, 2400.0 * (1 + 1e-9), rtol=0, atol=1e-4))
        assert {2350.0} <= set(grid.node_sets[1])

    def test_nodes_strictly_inside_truncation(self):
        grid = build_grid(BASE, [(1000.0, 1500.0, 2400.0, 3000.0)] * 2)
        for nodes, (lo, hi) in zip(grid.node_sets, grid.truncation):
            assert nodes.min() > lo and nodes.max() < hi

    def test_degenerate_truncation_rejected(self):
        with pytest.raises(ValueError):
            build_grid(BASE, [(2300.0,), (2300.0,)], truncation=[(2000.0, 2000.0)] * 2)

    @pytest.mark.parametrize("pairs", [1, 3])
    def test_truncation_of_the_wrong_length_rejected(self, pairs):
        with pytest.raises(ValueError, match="one truncation pair per period"):
            build_grid(BASE, [(2300.0,), (2300.0,)], truncation=[(1000.0, 3000.0)] * pairs)

    def test_nu_the_grid_cannot_represent_rejected(self):
        # at nu = 0.2 the one-month period's gamma shape is 0.42: the density
        # is unbounded where the index stays put
        model = VGParams(theta=0.0, sigma=0.1206, nu=0.2, spot=2360.0, horizons=(1 / 12, 2 / 12))
        with pytest.raises(ValueError, match=r"nu = 0\.2 .*2 \* min\(dt\)"):
            Market(quotes=(), model=model).grid_for(())


class TestSimulation:
    def test_deterministic_given_seed(self):
        a = simulate_paths(BASE, 1000, seed=42)
        b = simulate_paths(BASE, 1000, seed=42)
        np.testing.assert_array_equal(a, b)
        c = simulate_paths(BASE, 1000, seed=43)
        assert not np.array_equal(a, c)

    def test_log_return_mean_within_clt_band(self):
        n = 1_000_000
        paths = simulate_paths(BASE, n, seed=7)
        logret = np.log(paths[:, 0] / BASE.spot)
        band = 3.0 * BASE.sigma * np.sqrt(1 / 12) / np.sqrt(n)
        assert abs(logret.mean()) <= band

    def test_variance_matches_mixture_moment_oracle(self):
        n = 1_000_000
        mean, var = vg_increment_moments(SKEWED, 1 / 12)
        assert mean == pytest.approx(SKEWED.theta / 12, rel=1e-9)
        paths = simulate_paths(SKEWED, n, seed=21)
        logret = np.log(paths[:, 0] / SKEWED.spot)
        assert logret.var() == pytest.approx(var, rel=0.01)

    def test_kolmogorov_distance_of_first_period(self):
        n = 200_000
        paths = simulate_paths(BASE, n, seed=5)
        u = np.sort(np.log(paths[:, 0] / BASE.spot))
        model = vg_log_increment_cdf_vec(BASE, 1 / 12, u)
        empirical_hi = np.arange(1, n + 1) / n
        empirical_lo = np.arange(0, n) / n
        ks = max(np.abs(empirical_hi - model).max(), np.abs(model - empirical_lo).max())
        assert ks <= 0.005

    def test_path_count_validated(self):
        with pytest.raises(ValueError):
            simulate_paths(BASE, 0, seed=1)


def test_params_validation():
    with pytest.raises(ValueError):
        VGParams(theta=0.0, sigma=-0.1, nu=0.003, spot=2360.0, horizons=(1 / 12,))
    with pytest.raises(ValueError):
        VGParams(theta=0.0, sigma=0.1, nu=0.003, spot=2360.0, horizons=(2 / 12, 1 / 12))
    with pytest.raises(ValueError):
        VGParams(theta=0.0, sigma=0.1, nu=-0.3, spot=2360.0, horizons=(1 / 12,))


def test_package_import_leaves_reference_quadrature_unloaded():
    # scipy.stats and scipy.integrate serve only the reference quadrature and
    # cost about a second of import; the Gauss-Legendre rule is the package's
    # own, so numpy.polynomial stays unloaded too
    code = (
        "import sys, semistatic.cli; print(sorted(m for m in "
        "('scipy.stats', 'scipy.integrate', 'numpy.polynomial') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=package_env(),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# the Gauss-Legendre rule and the density kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [16, 17, 100, 400])
def test_gauss_legendre_rule_matches_high_precision(n):
    # nodes to their rounding; weights within 7e-15 relative at n = 400
    nodes, weights = _gl_rule(n)
    ref_nodes, ref_weights = gauss_legendre_rule(n)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=4 * np.finfo(float).eps)
    np.testing.assert_allclose(weights, ref_weights, rtol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 16, 17, 100, 400])
def test_gauss_legendre_rule_is_symmetric(n):
    nodes, weights = _gl_rule(n)
    assert nodes.shape == weights.shape == (n,)
    assert np.all(np.diff(nodes) > 0)
    np.testing.assert_array_equal(nodes, -nodes[::-1])
    np.testing.assert_array_equal(weights, weights[::-1])
    assert abs(weights.sum() - 2.0) <= 1e-14


@pytest.mark.parametrize("n", [0, -3])
def test_gauss_legendre_rule_needs_a_node(n):
    with pytest.raises(ValueError):
        _gl_rule(n)


def test_density_kernel_holds_one_buffer():
    # one chunk of 2,000 rows: the (rows x nodes) buffer and little else
    rows, n_nodes = 2000, 400
    u = np.linspace(-0.3, 0.3, rows)
    vg_log_increment_density_vec(SKEWED, 1 / 12, u[:1], n_nodes)  # cache the rule
    tracemalloc.start()
    try:
        vg_log_increment_density_vec(SKEWED, 1 / 12, u, n_nodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * rows * n_nodes * 8


@pytest.mark.parametrize("nu", [0.0031, 0.16])
@pytest.mark.parametrize("theta", [0.0, -0.15])
def test_density_kernel_matches_the_log_space_form(nu, theta):
    params = VGParams(theta=theta, sigma=0.1206, nu=nu, spot=2360.0, horizons=(1 / 12,))
    u = np.linspace(-0.3, 0.3, 1201)
    np.testing.assert_allclose(vg_log_increment_density_vec(params, 1 / 12, u),
                               vg_log_increment_density_logspace(params, 1 / 12, u), rtol=1e-13)


# ---------------------------------------------------------------------------
# the gamma bracket: scipy.special stays a test oracle
# ---------------------------------------------------------------------------


def test_gamma_bracket_at_extreme_shapes():
    # every shape the config allows gives a finite bracket of positive nodes
    for shape in np.geomspace(1e-12, 1e300, 61):
        lo, hi = _gamma_bracket(float(shape), 1.0)
        assert 0.0 < lo <= hi < np.inf, shape


def assert_bracket_covers(shape: float, tail: float):
    # Chernoff's bound holds each side to at most tail, whatever the shape;
    # the true tails lie below it by a factor of order sqrt(shape)
    lo, hi = _gamma_bracket(shape, 1.0, tail)
    assert special.gammainc(shape, lo) <= tail, (shape, tail, lo)
    assert special.gammaincc(shape, hi) <= tail, (shape, tail, hi)


@pytest.mark.parametrize("tail", [1e-16, 1e-6])
def test_gamma_bracket_leaves_at_most_tail_each_side(tail):
    for shape in np.geomspace(0.5, 1e9, 200):
        assert_bracket_covers(float(shape), tail)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_gamma_bracket_solves_the_chernoff_equation(side):
    # each end is the mean times e^y for a root y of e^y - 1 - y = log(1 / tail)
    # / shape; the residual is held to the rounding of y, taken back from the end
    def h(y):
        if abs(y) >= 0.5:
            return math.expm1(y) - y
        term, total = y, 0.0
        for n in range(2, 40):
            term *= y / n
            total += term
        return total

    for tail in (1e-16, 1e-6):
        for shape in np.geomspace(0.5, 1e9, 200):
            lo, hi = _gamma_bracket(float(shape), 1.0, tail)
            y = math.log((lo if side == "lower" else hi) / shape)
            c = -math.log(tail) / shape
            slack = 4.0 * np.finfo(float).eps * (1.0 + abs(y)) * abs(math.expm1(y))
            assert abs(h(y) - c) <= 1e-13 * c + slack, (shape, tail, y)


@pytest.mark.parametrize("nu", [0.0031, 0.05, 0.16])
def test_mixture_weights_are_the_normalised_gamma_density(nu):
    # the weights are the Gauss-Legendre weights in s = log g times the gamma
    # density and the Jacobian g, normalised to unit sum: scipy's log density
    # is exact to about 1e-15 at these shapes (26.9, 1.67, 0.52)
    dt = 1 / 12
    params = VGParams(theta=0.0, sigma=0.1206, nu=nu, spot=2360.0, horizons=(dt,))
    g, weights = _mixture_nodes(params, dt, 400)
    _, gl = gauss_legendre_rule(400)
    ref = gl * g * np.exp(stats.gamma.logpdf(g, dt / nu, scale=nu))
    np.testing.assert_allclose(weights, ref / ref.sum(), rtol=1e-13)


@settings(max_examples=200, deadline=None)
@given(
    log_shape=st.floats(math.log(0.5), math.log(1e9)),
    log_tail=st.floats(math.log(1e-16), math.log(1e-2)),
)
def test_gamma_bracket_coverage_property(log_shape, log_tail):
    assert_bracket_covers(math.exp(log_shape), math.exp(log_tail))
