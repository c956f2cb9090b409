"""Variance-gamma index model: increment densities, joint path densities on a
strike grid, quadrature construction and Monte Carlo path simulation.

The log of the index follows Brownian motion with drift ``theta`` and
volatility ``sigma`` evaluated at a gamma time change with unit mean rate and
variance rate ``nu``.  All densities are computed from the gamma mixture of
normals

    f(u) = integral over g of  N(u; theta*g, sigma^2*g) * Gamma(g; dt/nu, nu) dg.

``vg_log_increment_density_vec`` evaluates the same integral with fixed
Gauss-Legendre nodes in log-g; the tests hold it to 1e-8 of an adaptive
quadrature of the mixture (the reference in ``tests/oracles.py``).

The nodes need no special function, so pricing imports numpy only.  They
span a bracket of the gamma time change from Chernoff's tail bound, which
leaves at most 1e-16 of the gamma mass on each side at every shape, and the
weights are normalised by their own sum, so no log Gamma enters them.  The
Gauss-Legendre rule beneath them comes from Newton's method on the Legendre
three-term recurrence (Hale and Townsend, SIAM J. Sci. Comput. 35, 2013),
started from Tricomi's asymptotic nodes: two vectorised passes over the
recurrence and no eigenproblem, so the rule calls no BLAS.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Jump breakpoints are bracketed by a node pair at value*(1 -/+ this) so that
# payouts are linear on every grid cell even across discontinuities.
JUMP_BRACKET_REL = 1e-9

# the truncation box of every period when none is given
DEFAULT_TRUNCATION = (1000.0, 3000.0)
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


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _log1pmx(m: float) -> float:
    """log(1 + m) - m, without cancellation for small m."""
    if abs(m) >= 0.5:
        return math.log1p(m) - m
    power, total = m, 0.0
    for n in range(2, 200):
        power *= -m
        term = power / n
        total += term
        if abs(term) < _EPS * abs(total):
            break
    return total


def _chernoff_root(c: float, y: float) -> float:
    """Root of the convex e^y - 1 - y - c by Newton from ``y``, a start on the
    far side of the root from 0, from which the iterates approach it
    monotonically."""
    for _ in range(100):
        m = math.expm1(y)
        gap = (-_log1pmx(m) if abs(y) < 0.5 else m - y) - c
        step = gap / m
        y -= step
        if abs(step) <= 4.0 * _EPS * abs(y):
            break
    return y


def _gamma_bracket(shape: float, scale: float, tail: float = _GAMMA_TAIL) -> tuple[float, float]:
    """(lo, hi) with at most ``tail`` of the Gamma(shape, scale) mass on each
    side: by Chernoff's bound, P(G <= r mean) for r < 1 and P(G >= r mean) for
    r > 1 are at most exp(-shape (r - 1 - log r)), so lo and hi are the mean
    times the two roots r of r - 1 - log r = log(1 / tail) / shape.  In y =
    log r, e^y - 1 - y - c is below 0 at y = 0 and positive at both starts."""
    c = -math.log(tail) / shape
    mean = shape * scale
    lo = mean * math.exp(_chernoff_root(c, -(1.0 + c)))
    hi = mean * math.exp(_chernoff_root(c, min(math.sqrt(2.0 * c), math.log(2.0 + 2.0 * c))))
    return max(lo, _TINY), hi


def _legendre_terms(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P_n, P_n' and P_n'' at ``x`` in [0, 1).

    The recurrence P_j = ((2j - 1) x P_{j-1} - (j - 1) P_{j-2}) / j runs on
    P_j and E_j = (P_j - P_{j-1}) / (x - 1), so that near x = 1 no step
    subtracts nearly equal values; then P_n' = n (P_n + E_n) / (1 + x), and
    P_n'' comes from Legendre's equation (1 - x^2) P'' = 2x P' - n(n + 1) P.
    """
    p, e, below = x.copy(), np.ones_like(x), x - 1.0
    for j in range(2, n + 1):
        e *= (j - 1) / j
        e += ((2 * j - 1) / j) * p
        p += below * e
    dp = n * (p + e) / (1.0 + x)
    return p, dp, (2.0 * x * dp - n * (n + 1) * p) / ((1.0 - x) * (1.0 + x))


@functools.cache
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule of ``n`` nodes on [-1, 1], nodes ascending.

    The nodes in [0, 1) start from Tricomi's asymptotic form x = (1 - (n -
    1) / (8n^3) - (39 - 28 / sin^2 theta) / (384 n^4)) cos theta, theta_k =
    pi (4k - 1) / (4n + 2), and take one Halley step and then one Newton
    step, each a single pass of the recurrence over all of them; no BLAS
    routine is called.  The weights are 2 / ((1 - x^2) P_n'(x)^2) at the
    Newton step's exact result: P_n' carried there by P_n'', and 1 - x^2
    taken with the rounding of the stored node.  The nodes are within an
    ulp of the true rule and the weights within 1e-14 relative at n = 400;
    the negative half mirrors the positive one, so the rule is exactly
    symmetric.
    """
    if n < 1:
        raise ValueError("a Gauss-Legendre rule needs at least one node")
    half = n // 2
    middle = slice(half, None)  # x = 0 when n is odd, where P_n = 0 exactly
    theta = np.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)) * np.cos(theta)
    x[middle] = 0.0
    p, dp, d2p = _legendre_terms(n, x)
    p[middle] = 0.0
    step = p / dp
    x = x - step / (1.0 - 0.5 * step * d2p / dp)
    p, dp, d2p = _legendre_terms(n, x)
    p[middle] = 0.0
    step = p / dp
    nodes = x - step
    rounding = (x - nodes) - step
    weights = 2.0 / (((1.0 - nodes) - rounding) * ((1.0 + nodes) + rounding) * (dp - step * d2p) ** 2)
    return (np.concatenate((-nodes[:half], nodes[::-1])),
            np.concatenate((weights[:half], weights[::-1])))


def _mixture_nodes(params: VGParams, dt: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gamma-mixture quadrature in s = log g: returns (g nodes, combined weights).

    The weights fold in the gamma density and the Jacobian g = e^s and sum to
    one, so a density evaluation is just a weighted sum of normal pdfs over
    the nodes.
    """
    shape, scale = dt / params.nu, params.nu
    lo, hi = _gamma_bracket(shape, scale)
    a, b = np.log(lo), np.log(hi)
    x, w = _gl_rule(n_nodes)
    s = 0.5 * (b - a) * x + 0.5 * (a + b)
    g = np.exp(s)
    # the gamma density times the Jacobian g, (g / scale)^shape e^(-g / scale),
    # up to a constant that the normalisation to unit sum removes; in y =
    # log(g / mean) it is exp(-shape (e^y - 1 - y)), the bracket's function,
    # whose exponent lies in [log(tail), 0] at every shape.  y is taken from
    # s, not from g / mean - 1, which loses its digits near the lower end.
    y = s - math.log(shape * scale)
    log_weight = shape * (y - np.expm1(y))
    weights = w * np.exp(log_weight - log_weight.max())
    weights /= weights.sum()
    return g, weights


def vg_log_increment_density_vec(
    params: VGParams, dt: float, u, n_nodes: int = 400
) -> np.ndarray:
    """Vectorized gamma-mixture density, fixed Gauss-Legendre nodes in log-g.

    Each chunk of rows fills one (rows x nodes) buffer with the normal
    exponents in place; the normal constants ride on the weights.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    g, weights = _mixture_nodes(params, dt, n_nodes)
    var = params.sigma**2 * g
    weights = weights / np.sqrt(2.0 * np.pi * var)
    mean, scale = params.theta * g, -0.5 / var
    out = np.empty(u.shape[0])
    chunk = max(1, int(4e6) // g.shape[0])
    for start in range(0, u.shape[0], chunk):
        z = np.subtract(u[start : start + chunk, None], mean)
        np.square(z, out=z)
        z *= scale
        np.exp(z, out=z)
        out[start : start + chunk] = np.einsum("j,ij->i", weights, z)
    return out


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Cartesian strike-level grid with hypercube weights and path masses.

    ``masses`` is the probability vector w_i * phi_i normalized to sum exactly
    one; ``raw_mass`` records the pre-normalization total for truncation audit.
    """

    spot: float
    node_sets: tuple[np.ndarray, ...]
    points: np.ndarray        # (M, T) index levels
    weights: np.ndarray       # (M,) hypercube volumes
    masses: np.ndarray        # (M,) normalized probability vector
    raw_mass: float
    truncation: tuple[tuple[float, float], ...]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def periods(self) -> int:
        return self.points.shape[1]


def check_nu(params: VGParams) -> None:
    """Raise ``ValueError`` for a ``nu`` of at least twice the shortest period.

    That period's gamma shape dt / nu is then at most 1/2, and its
    variance-gamma density is unbounded at a zero log move: the grid's points
    where the index stays put would take almost all the mass.
    """
    shortest = min(params.period_lengths())
    if shortest / params.nu <= 0.5:
        raise ValueError(
            f"nu = {params.nu!r} must lie below 2 * min(dt) = {2.0 * shortest!r}, "
            "twice the shortest period, where the grid can represent the density")


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
    A ``nu`` that ``check_nu`` rejects raises ``ValueError``.
    """
    check_nu(params)
    T = params.periods
    if len(strike_sets) != T:
        raise ValueError(f"need one strike set per period, got {len(strike_sets)} for T={T}")
    if truncation is None:
        truncation = (DEFAULT_TRUNCATION,) * T
    truncation = tuple((float(a), float(b)) for a, b in truncation)
    if len(truncation) != T:
        raise ValueError(f"need one truncation pair per period, got {len(truncation)} for T={T}")
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
    weights = weight.ravel()
    points = np.stack([g.ravel() for g in np.meshgrid(*node_sets, indexing="ij")], axis=1)

    wd = weights * joint.ravel()
    raw_mass = float(wd.sum())
    if raw_mass <= 0:
        raise ValueError("grid carries no probability mass; widen the truncation box")
    masses = wd / raw_mass
    return QuadratureGrid(
        spot=params.spot,
        node_sets=tuple(node_sets),
        points=points,
        weights=weights,
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
