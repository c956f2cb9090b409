"""Variance-gamma index model: increment densities, joint path densities on a
strike grid, quadrature construction and Monte Carlo path simulation.

The log of the index follows Brownian motion with drift ``theta`` and
volatility ``sigma`` evaluated at a gamma time change with unit mean rate and
variance rate ``nu``.  All densities are computed from the gamma mixture of
normals

    f(u) = integral over g of  N(u; theta*g, sigma^2*g) * Gamma(g; dt/nu, nu) dg.

``vg_log_increment_density`` evaluates this with adaptive quadrature and is the
reference implementation; the vectorized fast path evaluates the same integral
with fixed Gauss-Legendre nodes in log-g and must agree with the reference to
1e-8 (enforced by tests).
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

# Jump breakpoints are bracketed by a node pair at value*(1 -/+ this) so that
# payouts are linear on every grid cell even across discontinuities.
JUMP_BRACKET_REL = 1e-9

_DEFAULT_TRUNCATION = ((1000.0, 3000.0), (1000.0, 3000.0))
_GAMMA_TAIL = 1e-16


@dataclass(frozen=True)
class VGParams:
    """Variance-gamma parameters and period horizons.

    theta: drift of the time-changed Brownian motion (per year)
    sigma: volatility (per sqrt-year)
    nu: variance rate of the gamma subordinator (years)
    spot: X_0 in index points
    horizons: strictly increasing year fractions (tau_1, ..., tau_T)
    """

    theta: float
    sigma: float
    nu: float
    spot: float
    horizons: tuple[float, ...]

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.spot <= 0:
            raise ValueError("spot must be positive")
        horizons = tuple(float(h) for h in self.horizons)
        object.__setattr__(self, "horizons", horizons)
        if len(horizons) == 0 or horizons[0] <= 0 or any(
            b <= a for a, b in zip(horizons, horizons[1:])
        ):
            raise ValueError("horizons must be positive and strictly increasing")

    @property
    def periods(self) -> int:
        return len(self.horizons)

    def period_lengths(self) -> tuple[float, ...]:
        prev = (0.0,) + self.horizons[:-1]
        return tuple(b - a for a, b in zip(prev, self.horizons))


def _gamma_bracket(shape: float, scale: float, tail: float = _GAMMA_TAIL) -> tuple[float, float]:
    # the gamma quantiles through scipy.special: scipy.stats costs about a
    # second of import and is needed only by the reference quadrature
    lo = special.gammaincinv(shape, tail) * scale
    hi = special.gammainccinv(shape, tail) * scale
    lo = max(lo, np.finfo(float).tiny)
    return lo, hi


def _mixture_integrand(g, u, theta, sigma, shape, scale):
    from scipy import stats

    return stats.norm.pdf(u, loc=theta * g, scale=sigma * np.sqrt(g)) * stats.gamma.pdf(
        g, a=shape, scale=scale
    )


def vg_log_increment_density(params: VGParams, dt: float, u: float) -> float:
    """Density of the VG log-increment over ``dt`` at ``u`` (adaptive quadrature).

    The relative tolerance is 1e-11, or a few ``shape * eps`` where the gamma
    shape ``dt / nu`` is large: the gamma pdf is computed from terms of size
    ``shape`` and rounds at that level, so no tighter result exists.  A
    quadrature that misses its tolerance raises ``FloatingPointError``.
    """
    from scipy import integrate

    if dt <= 0:
        raise ValueError("dt must be positive")
    shape, scale = dt / params.nu, params.nu
    lo, hi = _gamma_bracket(shape, scale, tail=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, _ = integrate.quad(
                _mixture_integrand,
                lo,
                hi,
                args=(float(u), params.theta, params.sigma, shape, scale),
                limit=300,
                epsabs=1e-13,
                epsrel=max(1e-11, 4.0 * shape * np.finfo(float).eps),
            )
        except integrate.IntegrationWarning as exc:
            raise FloatingPointError(
                f"VG density quadrature missed its tolerance for dt={dt}, u={u}: {exc}"
            ) from exc
    if not np.isfinite(value):
        raise FloatingPointError(
            f"VG density quadrature failed for dt={dt}, u={u}: got {value}"
        )
    return value


_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _leggauss_cache:
        _leggauss_cache[n] = leggauss(n)
    return _leggauss_cache[n]


def _mixture_nodes(params: VGParams, dt: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gamma-mixture quadrature in s = log g: returns (g nodes, combined weights).

    The weights fold in the gamma density and the Jacobian g = e^s, so a
    density evaluation is just a weighted sum of normal pdfs over the nodes.
    """
    shape, scale = dt / params.nu, params.nu
    lo, hi = _gamma_bracket(shape, scale)
    a, b = np.log(lo), np.log(hi)
    x, w = _gl_rule(n_nodes)
    s = 0.5 * (b - a) * x + 0.5 * (a + b)
    g = np.exp(s)
    log_gamma_weight = (
        shape * s - g / scale - special.gammaln(shape) - shape * np.log(scale)
    )
    weights = 0.5 * (b - a) * w * np.exp(log_gamma_weight)
    return g, weights


def vg_log_increment_density_vec(
    params: VGParams, dt: float, u, n_nodes: int = 400
) -> np.ndarray:
    """Vectorized gamma-mixture density, fixed Gauss-Legendre nodes in log-g."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    g, weights = _mixture_nodes(params, dt, n_nodes)
    var = params.sigma**2 * g
    out = np.empty(u.shape[0])
    chunk = max(1, int(4e6) // g.shape[0])
    for start in range(0, u.shape[0], chunk):
        ub = u[start : start + chunk, None]
        log_norm = -0.5 * np.log(2.0 * np.pi * var) - (ub - params.theta * g) ** 2 / (2.0 * var)
        out[start : start + chunk] = np.einsum("j,ij->i", weights, np.exp(log_norm))
    return out


def vg_log_increment_cdf_vec(params: VGParams, dt: float, u, n_nodes: int = 400) -> np.ndarray:
    """P(log-increment <= u) by the same gamma-mixture quadrature."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    g, weights = _mixture_nodes(params, dt, n_nodes)
    sd = params.sigma * np.sqrt(g)
    out = np.empty(u.shape[0])
    chunk = max(1, int(4e6) // g.shape[0])
    for start in range(0, u.shape[0], chunk):
        z = (u[start : start + chunk, None] - params.theta * g) / sd
        out[start : start + chunk] = np.einsum("j,ij->i", weights, special.ndtr(z))
    return out


def vg_increment_moments(params: VGParams, dt: float) -> tuple[float, float]:
    """(mean, variance) of the log-increment, by integrating the gamma mixture.

    Conditionally on the time change g the increment is N(theta*g, sigma^2*g),
    so only gamma moments need numerical integration.
    """
    from scipy import integrate, stats

    shape, scale = dt / params.nu, params.nu
    lo, hi = _gamma_bracket(shape, scale, tail=1e-15)

    def moment(k):
        val, _ = integrate.quad(
            lambda g: g**k * stats.gamma.pdf(g, a=shape, scale=scale),
            lo,
            hi,
            limit=300,
            epsrel=1e-12,
        )
        return val

    eg, eg2 = moment(1), moment(2)
    mean = params.theta * eg
    second = params.theta**2 * eg2 + params.sigma**2 * eg
    return mean, second - mean**2


def path_density(params: VGParams, path) -> float:
    """Joint density of index levels (X_1, ..., X_T): Markov product of
    level-transition densities (log-increment density over the level)."""
    levels = [params.spot] + [float(x) for x in path]
    if any(x <= 0 for x in levels):
        raise ValueError("index levels must be positive")
    value = 1.0
    for dt, prev, cur in zip(params.period_lengths(), levels, levels[1:]):
        u = np.log(cur / prev)
        value *= vg_log_increment_density_vec(params, dt, u)[0] / cur
    return value


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Cartesian strike-level grid with hypercube weights and path densities.

    ``masses`` is the probability vector w_i * phi_i normalized to sum exactly
    one; ``raw_mass`` records the pre-normalization total for truncation audit.
    """

    spot: float
    node_sets: tuple[np.ndarray, ...]
    points: np.ndarray        # (M, T) index levels
    point_index: np.ndarray   # (M, T) node index per period
    weights: np.ndarray       # (M,) hypercube volumes
    density: np.ndarray       # (M,) joint path density at the points
    masses: np.ndarray        # (M,) normalized probability vector
    raw_mass: float
    truncation: tuple[tuple[float, float], ...]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def periods(self) -> int:
        return self.points.shape[1]

    def dump_csv(self, path) -> None:
        """Audit dump: node coordinates, weight, density, mass per grid point."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [f"x{t + 1}" for t in range(self.periods)] + ["weight", "density", "mass"]
            )
            for i in range(self.size):
                writer.writerow(
                    [repr(float(v)) for v in self.points[i]]
                    + [repr(float(self.weights[i])), repr(float(self.density[i])), repr(float(self.masses[i]))]
                )


def _merge_nodes(strikes, breakpoints, lo: float, hi: float) -> np.ndarray:
    values = [float(k) for k in strikes]
    for bp in breakpoints or ():
        if bp.kind == "jump":
            values.extend(
                [bp.value * (1.0 - JUMP_BRACKET_REL), bp.value, bp.value * (1.0 + JUMP_BRACKET_REL)]
            )
        else:
            values.append(bp.value)
    values = sorted(v for v in values if lo < v < hi)
    merged: list[float] = []
    for v in values:
        # keep nodes 1e-10-close apart merged, well below the jump bracket gap
        if not merged or v - merged[-1] > 1e-10:
            merged.append(v)
    if not merged:
        raise ValueError(f"no grid nodes inside truncation ({lo}, {hi})")
    return np.array(merged)


def _cell_widths(nodes: np.ndarray, lo: float, hi: float) -> np.ndarray:
    edges = np.empty(nodes.shape[0] + 1)
    edges[0] = lo
    edges[-1] = hi
    edges[1:-1] = 0.5 * (nodes[:-1] + nodes[1:])
    return np.diff(edges)


def build_grid(
    params: VGParams,
    strike_sets,
    breakpoints=None,
    truncation=None,
    n_nodes: int = 400,
) -> QuadratureGrid:
    """Quadrature grid from per-period strike levels plus claim breakpoints.

    Nodes per period are strikes union breakpoints clipped strictly inside the
    truncation box; each node owns the cell running from the midpoint with its
    left neighbor to the midpoint with its right neighbor, clipped to the box.
    Grid points are the Cartesian product, weights the cell-volume products.
    """
    T = params.periods
    if len(strike_sets) != T:
        raise ValueError(f"need one strike set per period, got {len(strike_sets)} for T={T}")
    if truncation is None:
        truncation = _DEFAULT_TRUNCATION[:T] if T <= 2 else ((1000.0, 3000.0),) * T
    truncation = tuple((float(a), float(b)) for a, b in truncation)
    if any(b <= a for a, b in truncation):
        raise ValueError("degenerate truncation box")
    breakpoints = breakpoints or [[] for _ in range(T)]

    node_sets, width_sets = [], []
    for t in range(T):
        lo, hi = truncation[t]
        nodes = _merge_nodes(strike_sets[t], breakpoints[t], lo, hi)
        node_sets.append(nodes)
        width_sets.append(_cell_widths(nodes, lo, hi))

    # per-period transition density matrices (level -> level, density per level)
    dts = params.period_lengths()
    transitions = []
    prev_levels = np.array([params.spot])
    for t in range(T):
        cur = node_sets[t]
        ratios = np.log(cur[None, :] / prev_levels[:, None])
        dens = vg_log_increment_density_vec(params, dts[t], ratios.ravel(), n_nodes)
        transitions.append(dens.reshape(ratios.shape) / cur[None, :])
        prev_levels = cur

    joint = transitions[0][0]  # (N_1,)
    weight = width_sets[0]
    for t in range(1, T):
        joint = joint[..., :, None] * transitions[t]
        weight = weight[..., :, None] * width_sets[t]
        joint = joint.reshape(-1, node_sets[t].shape[0])
        weight = weight.reshape(-1, node_sets[t].shape[0])
    density = joint.ravel()
    weights = weight.ravel()

    shapes = [n.shape[0] for n in node_sets]
    index_grids = np.meshgrid(*[np.arange(s) for s in shapes], indexing="ij")
    point_index = np.stack([g.ravel() for g in index_grids], axis=1)
    points = np.stack(
        [node_sets[t][point_index[:, t]] for t in range(T)], axis=1
    )

    wd = weights * density
    raw_mass = float(wd.sum())
    if raw_mass <= 0:
        raise ValueError("grid carries no probability mass; widen the truncation box")
    masses = wd / raw_mass
    return QuadratureGrid(
        spot=params.spot,
        node_sets=tuple(node_sets),
        points=points,
        point_index=point_index,
        weights=weights,
        density=density,
        masses=masses,
        raw_mass=raw_mass,
        truncation=truncation,
    )


def simulate_paths(params: VGParams, n: int, seed: int) -> np.ndarray:
    """``n`` index paths (X_1, ..., X_T): gamma subordinator increments, then
    conditional normal draws.  Deterministic given the seed."""
    if n <= 0:
        raise ValueError("path count must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    T = params.periods
    out = np.empty((n, T))
    level = np.full(n, params.spot)
    for t, dt in enumerate(params.period_lengths()):
        g = rng.gamma(shape=dt / params.nu, scale=params.nu, size=n)
        z = rng.standard_normal(n)
        level = level * np.exp(params.theta * g + params.sigma * np.sqrt(g) * z)
        out[:, t] = level
    return out
