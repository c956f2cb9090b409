"""Reference oracles, kept out of the package: straightforward evaluations
that the tests hold the package's fast paths to.

- Claims: the payout of a built-in claim on one path.
- Quotes: the acquisition cost and the per-path payoff of one quote.
- Index trading: the cash flow of one index trade under proportional costs.
- Model: the VG log-increment density by adaptive quadrature, its CDF and
  moments, the joint path density, and the lower regularized incomplete
  gamma function at large shapes, where scipy's loses accuracy.
- Programs: the expected-loss value and gradient from the dense rows, an
  exact LP solve on HiGHS and the weak-duality bound of returned duals.
- Prices: the indifference price by a budget line search.
- Config: a JSON Schema 2020-12 validator of the CLI's configuration schema.
"""
import warnings
from decimal import Decimal, localcontext

import jsonschema
import numpy as np
import scipy.optimize
from scipy import integrate, special, stats

from semistatic.claims import ClaimKind
from semistatic.cli import CONFIG_SCHEMA
from semistatic.instruments import OptionKind
from semistatic.pricing import SolverFailure, optimal_value
from semistatic.scenario import _gamma_bracket, _mixture_nodes, vg_log_increment_density_vec


def claim_payout(claim, path) -> float:
    """Payout per option of a built-in two-period claim on one path (X_1, X_2)."""
    x1, x2 = float(path[0]), float(path[1])
    k = claim.strike
    if claim.kind is ClaimKind.VANILLA_CALL:
        return max(x2 - k, 0.0)
    if claim.kind is ClaimKind.KNOCKOUT_CALL:
        return max(x2 - k, 0.0) if x1 < claim.barrier else 0.0
    if claim.kind is ClaimKind.ASIAN_CALL:
        return max(0.5 * (x1 + x2) - k, 0.0)
    if claim.kind is ClaimKind.LOOKBACK_CALL:
        return max(max(x1 - k, 0.0), max(x2 - k, 0.0))
    if claim.kind is ClaimKind.LOOKBACK_DIGITAL:
        return claim.payout_level if (x1 >= k or x2 >= k) else 0.0
    raise ValueError(f"no reference payout for claim kind {claim.kind}")


def acquisition_cost(quote, qty: float) -> float:
    """USD cost of acquiring ``qty`` options: ask side for buys, bid side for sells."""
    if qty >= 0.0:
        return quote.ask_price * qty
    return quote.bid_price * qty


def quoted_payoff(quote, path) -> float:
    """Payoff per option at the quote's own maturity, given the index path
    (X_1, ..., X_T): calls pay (X_m - K)+, puts (K - X_m)+."""
    level = path[quote.maturity - 1]
    if level <= 0:
        raise ValueError("index levels must be positive")
    if quote.kind is OptionKind.CALL:
        return max(level - quote.strike, 0.0)
    return max(quote.strike - level, 0.0)


def index_trade_cost(dz: float, level: float, delta_pct: float) -> float:
    """Cash outflow for trading ``dz`` index units at ``level`` with a
    proportional cost of ``delta_pct`` percent: buys pay (1 + d), sells
    receive (1 - d) per unit of notional."""
    d = delta_pct / 100.0
    if dz >= 0:
        return (1.0 + d) * level * dz
    return (1.0 - d) * level * dz


def _mixture_integrand(g, u, theta, sigma, shape, scale):
    return stats.norm.pdf(u, loc=theta * g, scale=sigma * np.sqrt(g)) * stats.gamma.pdf(
        g, a=shape, scale=scale
    )


def vg_log_increment_density(params, dt: float, u: float) -> float:
    """Density of the VG log-increment over ``dt`` at ``u`` (adaptive quadrature).

    The relative tolerance is 1e-11, or a few ``shape * eps`` where the gamma
    shape ``dt / nu`` is large: the gamma pdf is computed from terms of size
    ``shape`` and rounds at that level, so no tighter result exists.  A
    quadrature that misses its tolerance raises ``FloatingPointError``.
    """
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


def vg_log_increment_cdf_vec(params, dt: float, u, n_nodes: int = 400) -> np.ndarray:
    """P(log-increment <= u) by the package's gamma-mixture quadrature."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    g, weights = _mixture_nodes(params, dt, n_nodes)
    sd = params.sigma * np.sqrt(g)
    out = np.empty(u.shape[0])
    chunk = max(1, int(4e6) // g.shape[0])
    for start in range(0, u.shape[0], chunk):
        z = (u[start : start + chunk, None] - params.theta * g) / sd
        out[start : start + chunk] = np.einsum("j,ij->i", weights, special.ndtr(z))
    return out


_PI_40 = Decimal("3.141592653589793238462643383279502884197")


def lower_gamma_tail(a: float, x: float) -> float:
    """P(a, x) for shape a >= 1e4 and x < a.

    P = x^a e^-x / Gamma(a + 1) * sum_n x^n / ((a+1)...(a+n)).  The factor in
    front is formed in 40-digit decimal arithmetic, with log Gamma(a + 1) from
    Stirling's series (the first omitted term is below 1e-28 at a >= 1e4),
    so no cancellation among terms of size a log a reaches the result; the sum,
    of order a / (a - x), is accumulated in double precision.  (scipy's
    ``gammainc`` is off by 7.6e-9 relative at a = 1e6 and 4e-3 at 1e7 in the
    1e-16 lower tail, against mpmath at 30 digits.)
    """
    if not (a >= 1e4 and 0.0 < x < a):
        raise ValueError("the reference covers shapes >= 1e4 below their mean")
    total, term, n = 1.0, 1.0, 1
    while term >= 1e-17 * total:
        terms = term * np.cumprod(x / (a + np.arange(n, n + 4096)))
        total += float(terms.sum())
        term, n = float(terms[-1]), n + 4096
    with localcontext() as ctx:
        ctx.prec = 40
        big_a, big_x = Decimal(a), Decimal(x)
        log_gamma = ((big_a + Decimal("0.5")) * big_a.ln() - big_a + (2 * _PI_40).ln() / 2
                     + 1 / (12 * big_a) - 1 / (360 * big_a**3) + 1 / (1260 * big_a**5))
        log_p = big_a * big_x.ln() - big_x - log_gamma + Decimal(total).ln()
        return float(log_p.exp())


def vg_increment_moments(params, dt: float) -> tuple[float, float]:
    """(mean, variance) of the log-increment, by integrating the gamma mixture.

    Conditionally on the time change g the increment is N(theta*g, sigma^2*g),
    so only gamma moments need numerical integration.
    """
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


def path_density(params, path) -> float:
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


def objective_and_gradient(program, point):
    """Value and gradient of sum_i m_i exp(kappa a_i) at ``point``, from the
    dense rows.

    Computed in log-sum-exp form throughout, so exponent magnitudes beyond 600
    do not corrupt the weights; a value above the double range is returned as
    ``inf``.
    """
    point = np.asarray(point, dtype=float)
    e = np.log(program.masses) + program.kappa * program.loss_arguments(point)
    c = float(e.max())
    p = np.exp(e - c)
    total = p.sum()
    log_value = c + np.log(total)
    with np.errstate(over="ignore"):
        value = float(np.exp(log_value))
    grad = program.kappa * value * np.einsum("i,ij->j", p / total, program.rows)
    return value, grad


def indifference_bisection(market, agent, claim, units=1.0, side="sell", delta_pct=None,
                           grid=None, settings=None, width_tol=1e-8, max_doublings=60):
    """Indifference price by budget line search, agnostic of the loss form.

    Finds the compensation making the optimal value with the claim match the
    baseline; the bracket is expanded by doubling and then bisected until its
    width is below ``width_tol * initial_wealth``.
    """
    if side not in ("sell", "buy"):
        raise ValueError("side must be 'sell' or 'buy'")
    sign = 1.0 if side == "sell" else -1.0
    if grid is None:
        grid = market.grid_for(agent.baseline_terms() + [(claim, units)])
    w = agent.initial_wealth
    base_log = np.log(optimal_value(market, agent, delta_pct=delta_pct, grid=grid,
                                    settings=settings))

    def shortfall(price):
        # positive while the compensated position is still worse than baseline
        log_v = np.log(optimal_value(market, agent, claim, sign * units, w + sign * price,
                                     delta_pct, grid, settings))
        return sign * (log_v - base_log)

    lo, hi = 0.0, 0.0
    f0 = shortfall(0.0)
    if f0 == 0.0:
        return 0.0
    step = w / 64.0
    if f0 > 0:
        hi = step
        for _ in range(max_doublings):
            if shortfall(hi) <= 0:
                break
            lo, hi = hi, hi * 2.0
        else:
            raise SolverFailure("bisection bracket expansion failed")
    else:
        lo = -step
        for _ in range(max_doublings):
            if shortfall(lo) > 0:
                break
            hi, lo = lo, lo * 2.0
        else:
            raise SolverFailure("bisection bracket expansion failed")

    while hi - lo > width_tol * w:
        mid = 0.5 * (lo + hi)
        if shortfall(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def highs_value(program) -> float:
    """Optimal value of ``min cost @ y`` under the program's dense rows and
    boxes, from HiGHS (``scipy.optimize.linprog``)."""
    bounds = [
        (None if not np.isfinite(lo) else lo, None if not np.isfinite(hi) else hi)
        for lo, hi in zip(program.lower, program.upper)
    ]
    result = scipy.optimize.linprog(
        program.cost,
        A_ub=program.rows,
        b_ub=program.point_upper - program.offsets,
        bounds=bounds,
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(f"HiGHS ended with status {result.status}: {result.message}")
    return float(result.fun)


def dual_bound(program, solution) -> float:
    """Weak-duality lower bound on the LP optimum from the returned multipliers.

    The Lagrangian drops the pointwise rows with their multipliers and
    minimizes the remaining linear function over the boxes in closed form.
    """
    if program.objective != "linear":
        raise ValueError("dual bound is defined for linear programs")
    lam_point = solution.duals.get("point")
    coeff = program.cost.copy()
    # a coefficient at the rounding level of its terms counts as zero
    noise = 1e-14 + 1e-12 * np.abs(program.cost)
    constant = 0.0
    if lam_point is not None:
        coeff = coeff + np.einsum("i,ij->j", lam_point, program.rows)
        noise = noise + 1e-12 * np.einsum("i,ij->j", lam_point, np.abs(program.rows))
        constant -= float(lam_point @ (program.point_upper - program.offsets))
    value = constant
    for j in range(coeff.shape[0]):
        c = coeff[j]
        if abs(c) < noise[j]:
            continue
        edge = program.lower[j] if c > 0 else program.upper[j]
        if not np.isfinite(edge):
            return -np.inf
        value += c * edge
    return value


# The reference for ``cli._validate``.  It differs in one rule: JSON Schema
# takes an integral float such as 200.0 for an "integer", the CLI does not.
CONFIG_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
