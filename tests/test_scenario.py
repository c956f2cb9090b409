import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, stats

from semistatic.claims import Breakpoint
from semistatic.scenario import VGParams, build_grid, simulate_paths, vg_log_increment_density_vec

from conftest import package_env
from oracles import (
    path_density,
    vg_increment_moments,
    vg_log_increment_cdf_vec,
    vg_log_increment_density,
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

    def test_fast_path_agrees_with_adaptive_reference(self):
        us = np.concatenate([np.linspace(-0.25, 0.25, 21), [1e-9, -1e-9]])
        for dt in (1 / 12, 1 / 52, 0.5):
            fast = vg_log_increment_density_vec(SKEWED, dt, us)
            for u, f in zip(us, fast):
                ref = vg_log_increment_density(SKEWED, dt, float(u))
                assert f == pytest.approx(ref, abs=1e-8, rel=1e-8)

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
    # cost about a second of import
    code = (
        "import sys, semistatic.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=package_env(),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
