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

The gamma functions the nodes need are computed here in plain Python, so that
pricing imports numpy only: ``_gammaln`` is a port of cephes ``lgam`` and
gives the same bits as ``scipy.special.gammaln``, and ``_gamma_quantile``
inverts the regularized incomplete gamma function.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

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

# cephes lgam: Stirling's series above 13 and, below, the recurrence down to
# [2, 3) with a rational approximation there.  The mixture weights of every
# grid carry this value, and a chain's mids are rounded to ticks, so one ulp
# against scipy.special.gammaln can move a quote: the port must be bit-exact.
_LGAM_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
                  7.93650340457716943945e-4, -2.77777777730099687205e-3,
                  8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LOG_SQRT_2PI = 0.91893853320467274178


def _polevl(x: float, coefs, monic: bool = False) -> float:
    """Horner's rule in the order of cephes polevl (p1evl when ``monic``)."""
    acc = x + coefs[0] if monic else coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _gammaln(x: float) -> float:
    """log Gamma(x) for x > 0, bit-equal to ``scipy.special.gammaln``."""
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C, monic=True)
    if x > 2.556348e305:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_STIRLING) / x


# Stirling's series of log Gamma(a) - (a - 1/2) log a + a - log sqrt(2 pi)
_STIRLING_SERIES = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
                    -691.0 / 360360.0, 1.0 / 156.0)
# Above this shape the tails come from Temme's uniform expansion: the series
# and the continued fraction take O(sqrt(shape)) terms near the quantiles.
_TEMME_SHAPE = 1e4
# Taylor coefficients in eta of Temme's C_0 and C_1 (Temme 1979; the d_0 and
# d_1 rows of DiDonato & Morris 1986, ACM TOMS 12)
_TEMME_C0 = (-1.0 / 3.0, 1.0 / 12.0, -2.0 / 135.0, 1.0 / 864.0, 1.0 / 2835.0,
             -139.0 / 777600.0, 1.0 / 25515.0, -571.0 / 261273600.0)
_TEMME_C1 = (-1.8518518518518519e-3, -3.4722222222222222e-3, 2.6455026455026455e-3,
             -9.9022633744855967e-4, 2.0576131687242798e-4, -4.0187757201646091e-7,
             -1.8098550334489978e-5, 7.6491609160811101e-6)


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


def _stirling_tail(a: float) -> float:
    """log Gamma(a) - (a - 1/2) log a + a - log sqrt(2 pi), for a >= 10."""
    omega = 0.0
    for c in reversed(_STIRLING_SERIES):
        omega = omega / (a * a) + c
    return omega / a


def _log_density_factor(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a)), x times the gamma density; from Stirling's
    series above shape 10, where the three terms would cancel."""
    if a < 10.0:
        return a * math.log(x) - x - _gammaln(a)
    return a * _log1pmx((x - a) / a) + 0.5 * math.log(a / (2.0 * math.pi)) - _stirling_tail(a)


def _lower_series(a: float, x: float) -> float:
    """sum_n x^n / (a (a+1) ... (a+n)): P(a, x) = e^factor times this."""
    term = total = 1.0 / a
    for n in range(1, 100_000):
        term *= x / (a + n)
        total += term
        if term < _EPS * total:
            break
    return total


def _upper_fraction(a: float, x: float) -> float:
    """Legendre's continued fraction by modified Lentz, for x >= a + 1:
    Q(a, x) = e^factor times this."""
    floor = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / floor, 1.0 / b
    total = d
    for i in range(1, 100_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= floor else floor)
        c = b + an / c
        c = c if abs(c) >= floor else floor
        total *= d * c
        if abs(d * c - 1.0) < _EPS:
            break
    return total


def _temme_tails(a: float, x: float) -> tuple[float, float]:
    """(P(a, x), Q(a, x)) from Temme's uniform expansion to order 1/a.

    C_0 and C_1 are Taylor polynomials in eta, within 5.5e-14 and 7.4e-12 of
    their values for |eta| <= 0.1: tails down to about e^-50 at a = 1e4, and
    further out at larger a."""
    m = (x - a) / a
    eta = math.copysign(math.sqrt(-2.0 * _log1pmx(m)), m)
    c0 = c1 = 0.0
    for d0, d1 in zip(reversed(_TEMME_C0), reversed(_TEMME_C1)):
        c0, c1 = c0 * eta + d0, c1 * eta + d1
    r = math.exp(-0.5 * a * eta * eta) / math.sqrt(2.0 * math.pi * a) * (c0 + c1 / a)
    y = eta * math.sqrt(0.5 * a)
    return 0.5 * math.erfc(-y) - r, 0.5 * math.erfc(y) + r


def _log1m(p: float) -> float:
    return math.log1p(-p) if p < 1.0 else -math.inf


def _tail_gap(a: float, x: float, tail: float, upper: bool) -> tuple[float, float]:
    """log(T(x) / tail) for the lower tail T = P(a, .) or the upper Q(a, .),
    and its derivative in log x."""
    factor = _log_density_factor(a, x)
    if a >= _TEMME_SHAPE:
        p, q = _temme_tails(a, x)
        t = q if upper else p
        value = math.log(t) if t > 0.0 else -math.inf
    elif x < a + 1.0:
        s = _lower_series(a, x)
        if upper:
            value = _log1m(math.exp(factor) * s)
        elif a < 1.0:
            # the quantile moves by 1/a times the error of log P: form P / tail
            # from correctly rounded factors, not from logs of size log(tail)
            ratio = math.pow(x, a) * math.exp(-x) * s / (math.gamma(a) * tail)
            return math.log(ratio), 1.0 / s
        else:
            value = factor + math.log(s)
    else:
        h = _upper_fraction(a, x)
        value = factor + math.log(h) if upper else _log1m(math.exp(factor) * h)
    slope = math.exp(factor - value)
    return value - math.log(tail), -slope if upper else slope


def _gamma_quantile(shape: float, tail: float, upper: bool = False) -> float:
    """x with P(shape, x) = tail, or Q(shape, x) = tail when ``upper``:
    Newton in log x, kept inside the bracket its iterates build.

    The lower start (tail Gamma(a+1))^(1/a) lies below the root; where it
    underflows, so does the quantile.  Large shapes start from a -/+
    sqrt(2 a log(1/tail)).
    """
    log_tail = math.log(tail)
    spread = math.sqrt(-2.0 * shape * log_tail)
    if upper:
        x = shape + spread - log_tail
    else:
        start = (log_tail + _gammaln(shape + 1.0)) / shape
        if start < math.log(_TINY):
            return math.exp(start)
        x = max(math.exp(start), shape - spread)
    lo, hi = 0.0, math.inf
    for _ in range(200):
        gap, slope = _tail_gap(shape, x, tail, upper)
        if (gap < 0.0) != upper:
            lo = x
        else:
            hi = x
        # a Newton step in log x, at most a factor e
        direction = math.copysign(1.0, gap if upper else -gap)
        step = direction * min(abs(gap / slope), 1.0) if slope else direction
        new = x * math.exp(step)
        if not lo < new < hi:
            new = math.sqrt(x) * math.sqrt(hi if new >= hi else lo)
        if abs(step) <= 4.0 * _EPS or hi - lo <= 4.0 * _EPS * lo or new == 0.0:
            return new
        x = new
    return x


def _gamma_bracket(shape: float, scale: float, tail: float = _GAMMA_TAIL) -> tuple[float, float]:
    lo = _gamma_quantile(shape, tail) * scale
    hi = _gamma_quantile(shape, tail, upper=True) * scale
    lo = max(lo, _TINY)
    return lo, hi


_gl_rule = functools.cache(leggauss)


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
    if shape < _TEMME_SHAPE:
        log_gamma_weight = shape * s - g / scale - _gammaln(shape) - shape * np.log(scale)
    else:
        # the form of _log_density_factor at x = g / scale: the terms above
        # are as large as log Gamma(shape), and their rounding scales every weight
        m = (g / scale - shape) / shape
        log_gamma_weight = (shape * (np.log1p(m) - m) + 0.5 * math.log(shape / (2.0 * math.pi))
                            - _stirling_tail(shape))
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
        truncation = (DEFAULT_TRUNCATION,) * T
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
