"""Self-contained solvers for the assembled programs: a primal log-barrier
interior-point method with a damped Newton inner loop for the exponential-sum
objective, and the same barrier machinery specialized to linear objectives for
the hedging and arbitrage linear programs.

The exponential-sum objective is minimized through its logarithm (log-sum-exp
of affine rows), which is also convex, immune to overflow, and naturally
scaled: a constant shift of every row moves it by an exact additive constant.
Reported objective values are exponentiated back.

Determinism: all reductions run in a fixed order (einsum / numpy sums per
output element); no randomness, no time-dependent branching.  The BLAS calls
inside a barrier solve (the Hessian products and the Cholesky factorization)
would round differently with the number of BLAS threads, so every barrier
solve runs on exactly one thread: each OpenBLAS copy loaded by numpy and scipy
is set to one thread for the solve and back to the caller's count after it.
Repeated solves of the same program therefore give bit-identical results
whatever thread count the process uses.  A BLAS that is not OpenBLAS (MKL,
Accelerate) or a system without ``/proc`` is not pinned; there the promise
holds only at a fixed thread count.
"""
from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import os
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .galerkin import AssembledProgram

_STEP_SHRINK_MIN = 1e-18
# phase-1 gap target per unit of pointwise scale: a quarter of the 1e-9
# strictness margin that callers test the minimum slack against
PHASE1_GAP = 2.5e-10


@dataclass
class SolveSettings:
    """Barrier method controls.

    ``grad_tol`` is the scaled KKT residual required for an ``optimal`` status;
    ``gap_tol`` is the complementarity target on the solver's internal
    objective scale (the log objective for exponential programs) and decides
    how far the barrier parameter is pushed.
    """

    grad_tol: float = 1e-8
    barrier_reduction: float = 0.2
    max_outer: int = 60
    max_newton: int = 50
    ls_backtrack: float = 0.5
    ls_sufficient_decrease: float = 1e-4
    gap_tol: float = 1e-9
    newton_tol: float = 1e-10
    objective_floor: float = -1e15
    trace_path: str | None = None

    def __post_init__(self):
        if not (0 < self.barrier_reduction < 1):
            raise ValueError("barrier reduction factor must lie in (0, 1)")
        if self.grad_tol <= 0 or self.grad_tol >= 1:
            raise ValueError("gradient tolerance must lie in (0, 1)")
        if min(self.max_outer, self.max_newton) <= 0:
            raise ValueError("iteration limits must be positive")


@dataclass
class Solution:
    x: np.ndarray
    objective: float
    log_objective: float | None
    status: str  # optimal | infeasible | unbounded | max_iter
    duals: dict = field(default_factory=dict)
    outer_iterations: int = 0
    newton_iterations: int = 0
    wall_time: float = 0.0
    kkt_residual: float = float("nan")
    trace: list = field(default_factory=list)


class _ExpSumObjective:
    """log sum_i m_i exp(kappa * (r0_i + R_i y)) and its derivatives.

    Line searches move along a fixed direction, so the exponent vector is
    cached and trial values cost O(M) instead of O(M n).
    """

    # Where almost all mass sits on one scenario the Hessian is numerically
    # singular and the Newton direction astronomically long.  Faces bound such
    # a step; without faces (a quote-less market) only this cap on the move of
    # any exponent does.  Exponents of doubles span about 1,400 units, so a
    # solve needs few capped steps.
    MAX_EXPONENT_STEP = 50.0

    def __init__(self, rows, offsets, masses, kappa):
        self.rows = rows
        self.offsets = offsets
        self.log_masses = np.log(masses)
        self.kappa = kappa

    def _exponents(self, y):
        return self.log_masses + self.kappa * (self.offsets + np.einsum("ij,j->i", self.rows, y))

    @staticmethod
    def _logsumexp(e):
        c = e.max()
        return float(c + np.log(np.exp(e - c).sum()))

    def value(self, y):
        return self._logsumexp(self._exponents(y))

    def value_grad_hess(self, y):
        e = self._exponents(y)
        c = e.max()
        p = np.exp(e - c)
        total = p.sum()
        pi = p / total
        value = float(c + np.log(total))
        grad = self.kappa * np.einsum("i,ij->j", pi, self.rows)
        scaled = self.rows * np.sqrt(pi)[:, None]
        hess = self.kappa**2 * (scaled.T @ scaled) - np.outer(grad, grad)
        return value, grad, hess

    def bounded(self, direction):
        reach = self.kappa * float(np.abs(np.einsum("ij,j->i", self.rows, direction)).max())
        if reach > self.MAX_EXPONENT_STEP:
            return direction * (self.MAX_EXPONENT_STEP / reach)
        return direction

    def line_cache(self, y, direction):
        return self._exponents(y), self.kappa * np.einsum("ij,j->i", self.rows, direction)

    def trial_value(self, cache, alpha):
        base, step = cache
        return self._logsumexp(base + alpha * step)


class _LinearObjective:
    def __init__(self, cost):
        self.cost = cost

    def value(self, y):
        return float(np.einsum("j,j->", self.cost, y))

    def value_grad_hess(self, y):
        return self.value(y), self.cost.copy(), None

    def bounded(self, direction):
        return direction

    def line_cache(self, y, direction):
        return self.value(y), float(np.einsum("j,j->", self.cost, direction))

    def trial_value(self, cache, alpha):
        base, step = cache
        return base + alpha * step


def _program_faces(program: AssembledProgram):
    """General inequality rows G y <= h: the pointwise rows, if any."""
    if program.point_upper is None:
        return np.zeros((0, program.variable_count)), np.zeros(0)
    return program.rows, program.point_upper - program.offsets


@functools.cache
def _openblas_thread_controls():
    """(getter, setter) of the thread count of every loaded OpenBLAS copy.

    The numpy and scipy wheels each bundle their own OpenBLAS under prefixed
    symbols; numpy's 64-bit-integer copy adds the suffix ``64_``.  The copies
    are found in ``/proc/self/maps`` at the first solve and opened without
    loading anything new.  Empty when there is no ``/proc`` or no OpenBLAS.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for suffix in ("64_", ""):
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if getter is None or setter is None:
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            controls.append((getter, setter))
    return tuple(controls)


class _OneBlasThread(contextlib.ContextDecorator):
    """Runs the wrapped code with every OpenBLAS copy on one thread.

    The thread count is process-wide, so concurrent solves share one scope:
    the first to enter saves the caller's counts and sets one thread, the last
    to leave restores them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                controls = _openblas_thread_controls()
                self._saved = tuple(getter() for getter, _ in controls)
                for _, setter in controls:
                    setter(1)
            self._depth += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for (_, setter), count in zip(_openblas_thread_controls(), self._saved):
                    setter(count)
        return False


@_OneBlasThread()
def _barrier_core(objective, G, h, lower, upper, y0, settings, gap_scale):
    """Damped-Newton log-barrier loop shared by the exponential and LP paths.

    ``gap_scale`` selects the stage-termination scale: "absolute" treats
    ``gap_tol`` as absolute on the objective (the log objective for
    exponential programs, the slack for phase-1), "relative" as relative to
    the objective magnitude (the hedging LPs).  It also sets the first barrier
    weight: m for "absolute", m / max(1, |f0|) for "relative".  A program
    without faces (m = 0) is solved by a single Newton stage at weight 1.
    """
    y = np.asarray(y0, dtype=float).copy()
    n = y.shape[0]
    fin_lo = np.isfinite(lower)
    fin_up = np.isfinite(upper)
    m_faces = G.shape[0] + int(fin_lo.sum()) + int(fin_up.sum())

    def slack_rows(v):
        return h - np.einsum("ij,j->i", G, v) if G.shape[0] else np.zeros(0)

    def strictly_feasible(v):
        s = slack_rows(v)
        return (
            (s > 0).all()
            and (v[fin_lo] - lower[fin_lo] > 0).all()
            and (upper[fin_up] - v[fin_up] > 0).all()
        )

    if not strictly_feasible(y):
        raise ValueError("barrier start point is not strictly feasible")

    relative = gap_scale == "relative"
    f0 = objective.value(y)
    t = max(m_faces, 1) / max(1.0, abs(f0)) if relative else float(max(m_faces, 1))

    trace = []
    newton_total = 0
    status = "max_iter"
    f_val = f0
    kkt = np.inf
    stage = 0

    last_dec2 = np.inf
    for stage in range(1, settings.max_outer + 1):
        # loose centering while the barrier weight is still being pushed,
        # tight centering once this stage can meet the gap target
        gap_target = settings.gap_tol * (1.0 + abs(f_val)) if relative else settings.gap_tol
        final_stage = (m_faces / t <= gap_target) or (stage == settings.max_outer)
        inner_tol = settings.newton_tol if final_stage else max(settings.newton_tol, 5e-3)
        last_dec2 = np.inf
        for _ in range(settings.max_newton):
            f_val, g_f, h_f = objective.value_grad_hess(y)
            # the hedging LPs can be unbounded; phase-1 has its slack boxed
            if relative and f_val < settings.objective_floor:
                return _core_result(
                    "unbounded", y, f_val, t, stage, newton_total, trace, np.inf,
                    slack_rows(y), fin_lo, fin_up, lower, upper,
                )
            s = slack_rows(y)
            inv_s = 1.0 / s if s.shape[0] else s
            grad = t * g_f
            hess = t * h_f if h_f is not None else np.zeros((n, n))
            if G.shape[0]:
                grad = grad + np.einsum("ij,i->j", G, inv_s)
                # W.T @ W on one buffer is a symmetric rank-k update (SYRK),
                # half the flops of the general product
                scaled_rows = G * inv_s[:, None]
                hess = hess + scaled_rows.T @ scaled_rows
            diag = np.zeros(n)
            lo_s = y[fin_lo] - lower[fin_lo]
            up_s = upper[fin_up] - y[fin_up]
            gb = np.zeros(n)
            gb[fin_lo] -= 1.0 / lo_s
            gb[fin_up] += 1.0 / up_s
            grad = grad + gb
            diag[fin_lo] += 1.0 / lo_s**2
            diag[fin_up] += 1.0 / up_s**2
            hess[np.diag_indices(n)] += diag

            direction = _newton_direction(hess, grad)
            dec2 = max(float(-grad @ direction), 0.0)
            decrement = np.sqrt(dec2)
            newton_total += 1
            if 0.5 * dec2 <= inner_tol:
                last_dec2 = dec2
                break
            # well centered and no longer improving: the decrement has reached
            # its floating-point noise floor for this barrier weight
            if decrement < 1e-3 and dec2 >= 0.25 * last_dec2:
                last_dec2 = min(dec2, last_dec2)
                break
            last_dec2 = dec2
            direction = objective.bounded(direction)

            # Long Newton steps capped strictly inside the feasible region,
            # backtracked under an Armijo test that tolerates merit noise at
            # the double-precision floor of t * F.  Trial values only move
            # cached quantities along the direction; a step is accepted only
            # if the slacks recomputed at the new point stay positive, since
            # h - G y can cancel to zero where the carried s - alpha G d does not.
            gd = np.einsum("ij,j->i", G, direction) if G.shape[0] else np.zeros(0)
            alpha = _max_step(direction, gd, s, y, lower, upper, fin_lo, fin_up)
            lo_s0 = y[fin_lo] - lower[fin_lo]
            up_s0 = upper[fin_up] - y[fin_up]
            d_lo = direction[fin_lo]
            d_up = direction[fin_up]

            def trial_barrier(a):
                s_a = s - a * gd
                lo_a = lo_s0 + a * d_lo
                up_a = up_s0 - a * d_up
                if (s_a <= 0).any() or (lo_a <= 0).any() or (up_a <= 0).any():
                    return np.inf
                out = 0.0
                if s_a.shape[0]:
                    out -= np.log(s_a).sum()
                if lo_a.shape[0]:
                    out -= np.log(lo_a).sum()
                if up_a.shape[0]:
                    out -= np.log(up_a).sum()
                return out

            line = objective.line_cache(y, direction)
            psi0 = t * f_val + trial_barrier(0.0)
            slope = float(grad @ direction)
            noise = 64.0 * np.finfo(float).eps * (abs(psi0) + abs(t * f_val))
            accepted = False
            while alpha >= _STEP_SHRINK_MIN:
                psi_new = t * objective.trial_value(line, alpha) + trial_barrier(alpha)
                if psi_new <= psi0 + settings.ls_sufficient_decrease * alpha * slope + noise:
                    step = alpha * direction
                    y_new = y + step
                    if strictly_feasible(y_new):
                        y = y_new
                        accepted = True
                        break
                alpha *= settings.ls_backtrack
            if not accepted:
                break
            if float(np.abs(step).max()) <= 1e-16 * (1.0 + float(np.abs(y).max())):
                break

        f_val = objective.value(y)
        gap = m_faces / t
        kkt = _kkt_residual(f_val, t, m_faces, last_dec2)
        trace.append({"stage": stage, "t": t, "objective": f_val, "gap": gap, "kkt": kkt})
        gap_target = settings.gap_tol * (1.0 + abs(f_val)) if relative else settings.gap_tol
        if gap <= gap_target:
            status = "optimal" if kkt <= settings.grad_tol else "max_iter"
            break
        t /= settings.barrier_reduction
    else:
        stage = settings.max_outer
        status = "optimal" if kkt <= settings.grad_tol else "max_iter"

    return _core_result(
        status, y, f_val, t, stage, newton_total, trace, kkt,
        slack_rows(y), fin_lo, fin_up, lower, upper,
    )


def _core_result(status, y, f_val, t, stages, newtons, trace, kkt, s, fin_lo, fin_up, lower, upper):
    n = y.shape[0]
    lam_lo = np.full(n, np.nan)
    lam_up = np.full(n, np.nan)
    with np.errstate(divide="ignore"):
        lam_rows = 1.0 / (t * s) if s.shape[0] else s
        lam_lo[fin_lo] = 1.0 / (t * (y[fin_lo] - lower[fin_lo]))
        lam_up[fin_up] = 1.0 / (t * (upper[fin_up] - y[fin_up]))
    return {
        "status": status,
        "y": y,
        "objective": f_val,
        "t": t,
        "stages": stages,
        "newtons": newtons,
        "trace": trace,
        "kkt": kkt,
        "row_duals": lam_rows,
        "lower_duals": lam_lo,
        "upper_duals": lam_up,
    }


def _newton_direction(hess, grad):
    scale = max(float(np.trace(hess)) / hess.shape[0], 1e-300)
    jitter = 0.0
    for _ in range(8):
        try:
            factor = scipy.linalg.cho_factor(
                hess if jitter == 0.0 else hess + jitter * np.eye(hess.shape[0]),
                lower=True,
                check_finite=False,
            )
            return -scipy.linalg.cho_solve(factor, grad, check_finite=False)
        except scipy.linalg.LinAlgError:
            jitter = max(jitter * 100.0, 1e-14 * scale)
    # last resort: steepest descent step in a badly conditioned corner
    return -grad / scale


def _max_step(direction, gd, s, y, lower, upper, fin_lo, fin_up, frac=0.99):
    alpha = 1.0 / frac
    if gd.shape[0]:
        hit = gd > 0
        if hit.any():
            alpha = min(alpha, float((s[hit] / gd[hit]).min()))
    lo_move = fin_lo & (direction < 0)
    if lo_move.any():
        alpha = min(alpha, float(((y[lo_move] - lower[lo_move]) / -direction[lo_move]).min()))
    up_move = fin_up & (direction > 0)
    if up_move.any():
        alpha = min(alpha, float(((upper[up_move] - y[up_move]) / direction[up_move]).min()))
    return min(1.0, frac * alpha)


def _kkt_residual(f_val, t, m_faces, dec2):
    """Scaled KKT residual: remaining objective improvement, relative.

    The multipliers 1/(t s) satisfy stationarity up to the centering residual,
    whose objective cost is the Newton decrement squared over 2t; the
    complementarity products are exactly 1/t each.  Both are measured in
    objective units against 1 + |f|.
    """
    scale = t * (1.0 + abs(f_val))
    centering = 0.5 * min(dec2, 1.0) / scale if np.isfinite(dec2) else np.inf
    return max(m_faces / scale, centering)


def _duals(core, program):
    return {
        "point": None if program.point_upper is None else core["row_duals"],
        "lower": core["lower_duals"],
        "upper": core["upper_duals"],
    }


def _write_trace(trace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "barrier_weight", "objective", "gap", "kkt"])
        for row in trace:
            writer.writerow([row["stage"], repr(float(1.0 / row["t"])), repr(float(row["objective"])),
                             repr(float(row["gap"])), repr(float(row["kkt"]))])


def feasibility_start(program: AssembledProgram, settings: SolveSettings | None = None):
    """Phase-1 slack minimization for pointwise-constrained programs.

    Minimizes the uniform relaxation ``s`` of the pointwise rows over the
    boxes.  Returns (minimum slack, strictly feasible point or
    None).  A negative minimum certifies a strictly feasible interior point
    for the original rows.

    The returned slack is that of the returned point, so it never lies below
    the true minimum, and it exceeds it by at most ``2.5e-10 * scale`` with
    ``scale = 1 + max|point_upper|``.  This absolute accuracy holds however
    far the minimum lies from zero; the caller's ``gap_tol`` does not change it.
    """
    if program.point_upper is None:
        raise ValueError("phase-1 needs pointwise constraint rows")
    settings = settings or SolveSettings()
    M, n = program.rows.shape
    scale = 1.0 + float(np.abs(program.point_upper).max())
    # Callers accept the point when the slack lies below -1e-9 * scale.  The
    # gap target is absolute, a quarter of that margin: a target relative to
    # |s| would let the error grow with the slack.
    settings = replace(settings, gap_tol=PHASE1_GAP * scale)

    rows = np.hstack([program.rows, -np.ones((M, 1))])
    rhs = program.point_upper - program.offsets
    lower = np.append(program.lower, -10.0 * scale)
    upper = np.append(program.upper, np.inf)
    cost = np.zeros(n + 1)
    cost[-1] = 1.0

    y0 = np.append(
        program.start,
        float((program.offsets + program.rows @ program.start - program.point_upper).max()) + scale,
    )
    core = _barrier_core(_LinearObjective(cost), rows, rhs, lower, upper, y0, settings, "absolute")
    s_star = core["objective"]
    point = core["y"][:n] if s_star < 0 else None
    return s_star, point


def minimize(program: AssembledProgram, settings: SolveSettings | None = None) -> Solution:
    """Minimize the exponential-sum program; returns an optimal-within-tolerance
    point, with phase-1 fallback when pointwise rows make the start infeasible."""
    if program.objective != "exp_sum":
        raise ValueError("minimize expects an exponential-sum program")
    settings = settings or SolveSettings()
    started = time.perf_counter()

    start = program.start
    if program.point_upper is not None:
        margin = 1e-9 * (1.0 + float(np.abs(program.point_upper).max()))
        point_slack = program.point_upper - program.loss_arguments(start)
        if point_slack.min() <= margin:
            s_star, feasible = feasibility_start(program, settings)
            if s_star >= -margin:
                return Solution(
                    x=start.copy(),
                    objective=np.inf,
                    log_objective=np.inf,
                    status="infeasible",
                    wall_time=time.perf_counter() - started,
                )
            start = feasible

    objective = _ExpSumObjective(program.rows, program.offsets, program.masses, program.kappa)
    if program.variable_count == 0:
        # nothing to choose: the optimum is the objective itself, in closed form
        log_value = objective.value(start)
        return Solution(
            x=start.copy(),
            objective=float(np.exp(log_value)),
            log_objective=log_value,
            status="optimal",
            wall_time=time.perf_counter() - started,
            kkt_residual=0.0,
        )
    G, h = _program_faces(program)
    core = _barrier_core(objective, G, h, program.lower, program.upper, start, settings, "absolute")
    if settings.trace_path:
        _write_trace(core["trace"], settings.trace_path)
    return Solution(
        x=core["y"],
        objective=float(np.exp(core["objective"])),
        log_objective=core["objective"],
        status=core["status"],
        duals=_duals(core, program),
        outer_iterations=core["stages"],
        newton_iterations=core["newtons"],
        wall_time=time.perf_counter() - started,
        kkt_residual=core["kkt"],
        trace=core["trace"],
    )


def solve_lp(program: AssembledProgram, settings: SolveSettings | None = None) -> Solution:
    """Minimize ``cost @ y`` under the program's rows and boxes.

    Unboundedness is reported when the objective passes below the configured
    floor during centering; infeasibility comes from phase-1.
    """
    if program.objective != "linear":
        raise ValueError("solve_lp expects a linear-objective program")
    settings = settings or SolveSettings()
    started = time.perf_counter()

    start = program.start
    if program.point_upper is not None:
        margin = 1e-9 * (1.0 + float(np.abs(program.point_upper).max()))
        point_slack = program.point_upper - program.loss_arguments(start)
        if point_slack.min() <= margin:
            s_star, feasible = feasibility_start(program, settings)
            if s_star >= -margin:
                return Solution(
                    x=start.copy(),
                    objective=np.inf,
                    log_objective=None,
                    status="infeasible",
                    wall_time=time.perf_counter() - started,
                )
            start = feasible

    objective = _LinearObjective(program.cost)
    G, h = _program_faces(program)
    core = _barrier_core(objective, G, h, program.lower, program.upper, start, settings, "relative")
    if settings.trace_path:
        _write_trace(core["trace"], settings.trace_path)
    return Solution(
        x=core["y"],
        objective=core["objective"],
        log_objective=None,
        status=core["status"],
        duals=_duals(core, program),
        outer_iterations=core["stages"],
        newton_iterations=core["newtons"],
        wall_time=time.perf_counter() - started,
        kkt_residual=core["kkt"],
        trace=core["trace"],
    )


def dual_bound(program: AssembledProgram, solution: Solution) -> float:
    """Weak-duality lower bound on the LP optimum from the returned multipliers.

    The Lagrangian drops the pointwise rows with their multipliers and
    minimizes the remaining linear function over the boxes in closed form.
    """
    if program.objective != "linear":
        raise ValueError("dual bound is defined for linear programs")
    lam_point = solution.duals.get("point")
    coeff = program.cost.copy()
    constant = 0.0
    if lam_point is not None:
        coeff = coeff + np.einsum("i,ij->j", lam_point, program.rows)
        constant -= float(lam_point @ (program.point_upper - program.offsets))
    value = constant
    for j in range(coeff.shape[0]):
        c = coeff[j]
        if abs(c) < 1e-14:
            continue
        edge = program.lower[j] if c > 0 else program.upper[j]
        if not np.isfinite(edge):
            return -np.inf
        value += c * edge
    return value


def objective_and_gradient(program: AssembledProgram, point: np.ndarray):
    """Value and gradient of sum_i m_i exp(kappa a_i) at ``point``.

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
