"""Self-contained solvers for the assembled programs: one primal-dual
interior-point method (Mehrotra 1992; Wright 1997, ch. 10-11) for the
exponential-sum programs, the hedging linear programs and the phase-1 slack
program.  Every solve starts at its program's own ``start``, which must lie
strictly inside the rows and boxes; phase-1 (``feasibility_start``) serves
only ``find_arbitrage``'s search for a point inside its payout floor.

The exponential-sum objective is minimized through its logarithm (log-sum-exp
of affine rows), which is also convex, immune to overflow, and naturally
scaled: a constant shift of every row moves it by an exact additive constant.
Reported objective values are exponentiated back.

Method.  Every face G_i y <= h_i, pointwise rows and finite box edges alike,
carries a slack s_i > 0 and a dual z_i > 0, started at z = mu0 / s with
mu0 = max(1, |f0|) / m.  The primal iterate stays strictly feasible: the
slacks are h - G y, recomputed at every accepted point.  Each iteration
factors one Newton system H = Hess f + G^T diag(z/s) G by Cholesky, in its
condensed form (below), and solves it for the affine predictor and for the
corrector, whose centering weight is sigma = min(1, (mu_aff / mu)^3).
Primal and dual steps go 0.99 of the way to the nearest face, each with its
own length; for the exponential objective the primal step is also
backtracked on the merit f - sigma mu sum(log s).  Where the corrector's second-order term makes it
an ascent direction of that merit, the step takes the centred direction
(centering sigma mu alone), a descent direction, instead (Nocedal & Wright
2006, ch. 19).  Without faces the loop is damped Newton on f.

Stopping rule.  The loop stops when the duality gap s^T z and the Newton
decrement r^T H^-1 r of the dual residual r = grad f + G^T z are both at most
``gap_tol`` times the objective's scale (see ``SolveSettings``); the larger
of the two over that scale is the reported ``kkt_residual``.  At the stop the
duals take the dual part of one more Newton step, which cancels the dual
residual of a linear program.  A target below the rounding floor cannot be
met: the loop also stops, ``optimal``, once the residual is at most
``grad_tol`` and its least value over the last five systems is not below
half the least before them.  Statuses: ``optimal``; ``max_iter`` when the
iterations run out, or no step is possible, with the residual above
``grad_tol``; ``unbounded`` below ``objective_floor``; ``numerical_error``
as soon as f, y, s, z or a direction is not finite, never ``optimal``.

Every product with the loss rows goes through the program's row factors
(``galerkin.RowFactors``), which hold R = R_net P: A on the leading periods'
points, B on the last period's levels and one (cell, value) slot per row for
each set of cell columns that depends on both, on N net coordinates.  A
quote with both sides is one net column (its negated payoff), and one cash
column of ones carries ask x+ - bid x- for all of them; P maps the program
variables onto them.  The loop runs in the rows' variable order
[plain | buys | sells] (``NetLayout``): ``_solve`` permutes the boxes, the
start and the cost into it and the point and its box duals back.  An
iteration makes three row products: R d for the predictor's and for the
corrector's direction, and R y at the accepted point, whose row values serve
as the next slacks and exponents (a shortened step or a centred fallback
costs one more).

Condensed Newton step (Wright 1997, ch. 11).  The Newton matrix is
H = P^T K P + D, with K the net Hessian of the objective and the rows on the
N coordinates and D the box weights z/s per variable.  The other variables'
weights join K's diagonal.  A quote's buy and sell weights d+ and d- are
condensed: with h = d+ d- / (d+ + d-), omega = (ask d- + bid d+) / (d+ + d-)
and rho = sum (ask - bid)^2 / (d+ + d-), the net coordinates (u, t) solve
K + diag(h) + (1/rho)(omega, -1)(omega, -1)^T, an N-square matrix where H is
n-square (n = N + J - 1).  It is factored in the shifted cash coordinate
tau = t - omega @ u, where the rank-one term is 1/rho on tau's diagonal, so
no large rank-one term cancels in the factorization.  K in that coordinate
is the Hessian of the rows whose net columns move by omega times the cash
column of ones: the Gram takes the shift on its factors, and no N x N
matrix is updated.  Where no quote has a spread (rho = 0) the cash is
omega @ u and tau is 0.  Each pair is recovered
with only d+ + d- dividing: its weighted mean (d+ x+ + d- x-) / (d+ + d-)
moves by the cash row's multiplier (gamma - tau) / rho, the quote with the
largest share of rho restores the identity spread @ mean = tau (which a
small d+ + d- would otherwise break), and x+ - x- = u.  A program without
quotes condenses nothing.

Determinism: all reductions run per block in a fixed order (numpy sums over
one grid axis, bincounts in row order, then one matrix product per block);
no randomness, no time-dependent branching.  The BLAS calls inside a solve
(the block products and the Cholesky factorization) would round differently
with the number of BLAS threads, so every solve runs on exactly one thread:
every OpenBLAS copy in the process is set to one thread for the solve and
back to the caller's count after it.  That is numpy's own copy, which also
serves the factorization through LAPACK dpotrf and dpotrs, and scipy's copy
only where numpy's lacks those two routines and the solver falls back to
scipy's LAPACK.  Repeated solves of the same program therefore give
bit-identical results whatever thread count the process uses.  A BLAS that
is not OpenBLAS (MKL, Accelerate) or a system without ``/proc`` is not
pinned; there the promise holds only at a fixed thread count.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .galerkin import AssembledProgram

_STEP_SHRINK_MIN = 1e-18
# systems over which a residual below grad_tol must halve, or the loop stops
_STALL_WINDOW = 5
# share of the step to the nearest face that an iterate may take
_FRACTION_TO_BOUNDARY = 0.99
# phase-1 strictness margin per unit of pointwise scale: a point is strictly
# feasible only when its slack lies below -PHASE1_MARGIN * scale
PHASE1_MARGIN = 1e-9
# phase-1 gap target per unit of pointwise scale: a quarter of the margin
PHASE1_GAP = PHASE1_MARGIN / 4


@dataclass
class SolveSettings:
    """Interior-point controls.

    ``gap_tol`` is the stopping target on the duality gap and the Newton
    decrement, in units of the objective's scale: 1 for the log value of an
    exponential program, so that ``gap_tol`` bounds the relative error of the
    value itself, and 1 + |f| for a linear objective f.  An indifference
    price is a difference of two log values times w / lambda, so its error
    stays below about 2 * gap_tol * w / lambda (1e-6 USD at the defaults and
    w / lambda = 5e4).  ``grad_tol`` is the scaled residual below which a
    solve that runs out of ``max_iter`` iterations, or cannot step, still
    reports ``optimal``, and below which a residual that has stopped falling
    ends the solve ``optimal``.  An objective below ``objective_floor`` is
    reported ``unbounded``.
    """

    grad_tol: float = 1e-8
    gap_tol: float = 1e-11
    objective_floor: float = -1e15
    max_iter: int = 200

    def __post_init__(self):
        if not (0 < self.gap_tol < 1 and 0 < self.grad_tol < 1):
            raise ValueError("tolerances must lie in (0, 1)")
        if self.max_iter <= 0:
            raise ValueError("iteration limit must be positive")


@dataclass
class Solution:
    """A solve's point and value.  ``outer_iterations`` counts
    predictor-corrector steps, ``newton_iterations`` the Newton systems
    factored (one per step and one at the final point), ``trace`` holds one
    row per system with the objective, gap and decrement there."""

    x: np.ndarray
    objective: float
    log_objective: float | None
    status: str  # optimal | unbounded | max_iter | numerical_error
    duals: dict = field(default_factory=dict)
    outer_iterations: int = 0
    newton_iterations: int = 0
    wall_time: float = 0.0
    kkt_residual: float = float("nan")
    trace: list = field(default_factory=list)


def _logsumexp(e):
    c = e.max()
    return float(c + np.log(np.exp(e - c).sum()))


class _ExpSumObjective:
    """log sum_i m_i exp(kappa * (r0_i + r_i)) of the row values r = R y.

    The interior-point loop hands in the row values of its current point, so
    no method here multiplies by the rows except for the gradient and the
    Hessian; a trial value along a direction d costs O(M) given R d.
    """

    # Where almost all mass sits on one scenario the Hessian is numerically
    # singular and the Newton direction astronomically long.  Faces bound such
    # a step; without faces (a quote-less market) only this cap on the move of
    # any exponent does.  Exponents of doubles span about 1,400 units, so a
    # solve needs few capped steps.
    MAX_EXPONENT_STEP = 50.0

    def __init__(self, rows, offsets, masses, kappa):
        self.rows = rows  # the program's RowFactors
        self.offsets = offsets
        self.log_masses = np.log(masses)
        self.kappa = kappa

    def _exponents(self, r):
        return self.log_masses + self.kappa * (self.offsets + r)

    def value(self, y, r):
        return _logsumexp(self._exponents(r))

    def derivatives(self, y, r):
        """The value, the gradient in the variables, and the Hessian K on
        the rows' net coordinates (P^T K P in the variables) as a function
        of a shift s: that of the rows R_net + 1 s^T (``_condensed_solver``).
        """
        e = self._exponents(r)
        c = e.max()
        p = np.exp(e - c)
        total = p.sum()
        pi = p / total
        grad = self.kappa * self.rows.rmatvec(pi)

        def hess(shift):
            # the shifted rows' gradient is grad + kappa * shift, as sum(pi) = 1
            moved = grad if shift is None else grad + self.kappa * shift
            return self.kappa**2 * self.rows.gram(pi, shift) - np.outer(moved, moved)

        return float(c + np.log(total)), self.rows.net_t(grad), hess

    def along(self, r, rd):
        """The value at y + a d as a function of a, and the largest a that
        moves no exponent by more than ``MAX_EXPONENT_STEP``."""
        base, step = self._exponents(r), self.kappa * rd
        reach = float(np.abs(step).max(initial=0.0))
        cap = self.MAX_EXPONENT_STEP / reach if reach > 0 else np.inf
        return (lambda a: _logsumexp(base + a * step)), cap


class _LinearObjective:
    def __init__(self, cost):
        self.cost = cost

    def value(self, y, r):
        return float(self.cost @ y)

    def derivatives(self, y, r):
        return self.value(y, r), self.cost, None


def _loaded_openblas():
    """ctypes handles of the OpenBLAS copies loaded in the process, found in
    ``/proc/self/maps`` and opened without loading anything new; empty when
    there is no ``/proc``."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY))
        except OSError:
            continue
    return libs


def _openblas_cholesky():
    """(factor, solve) through LAPACK dpotrf and dpotrs of numpy's own
    OpenBLAS, whose 64-bit-integer interface exports them as
    ``scipy_dpotrf_64_`` and ``scipy_dpotrs_64_``; None where no loaded copy
    does."""
    for lib in _loaded_openblas():
        potrf = getattr(lib, "scipy_dpotrf_64_", None)
        potrs = getattr(lib, "scipy_dpotrs_64_", None)
        if potrf is not None and potrs is not None:
            break
    else:
        return None
    # Fortran calling convention: every argument by reference, then the
    # hidden length of the character argument
    int64 = ctypes.POINTER(ctypes.c_int64)
    potrf.argtypes = [ctypes.c_char_p, int64, ctypes.c_void_p, int64, int64, ctypes.c_size_t]
    potrs.argtypes = [ctypes.c_char_p, int64, int64, ctypes.c_void_p, int64,
                      ctypes.c_void_p, int64, int64, ctypes.c_size_t]
    potrf.restype = potrs.restype = None

    def factor(a):
        # LAPACK reads one triangle of a symmetric matrix, the same numbers in
        # either memory order: the row-major copy is a^T in column-major
        # order, and a plain copy costs a third of a transposing one
        c = np.array(a, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("Cholesky factorization needs a square matrix")
        n, info = ctypes.c_int64(c.shape[0]), ctypes.c_int64(0)
        potrf(b"L", ctypes.byref(n), c.ctypes.data, ctypes.byref(n), ctypes.byref(info), 1)
        if info.value < 0:
            raise ValueError(f"dpotrf rejected argument {-info.value}")
        return c if info.value == 0 else None

    def solve(c, b):
        x = np.array(b, dtype=np.float64, order="F")
        if x.ndim not in (1, 2) or x.shape[0] != c.shape[0]:
            raise ValueError("right-hand side does not match the factor")
        n, info = ctypes.c_int64(c.shape[0]), ctypes.c_int64(0)
        nrhs = ctypes.c_int64(1 if x.ndim == 1 else x.shape[1])
        potrs(b"L", ctypes.byref(n), ctypes.byref(nrhs), c.ctypes.data, ctypes.byref(n),
              x.ctypes.data, ctypes.byref(n), ctypes.byref(info), 1)
        if info.value < 0:
            raise ValueError(f"dpotrs rejected argument {-info.value}")
        return x

    return factor, solve


def _scipy_cholesky():
    """(factor, solve) through scipy's LAPACK dpotrf and dpotrs, imported on
    first use."""
    from scipy.linalg import lapack

    def factor(a):
        c, info = lapack.dpotrf(a, lower=1, clean=0)
        if info < 0:
            raise ValueError(f"dpotrf rejected argument {-info}")
        return c if info == 0 else None

    def solve(c, b):
        x, info = lapack.dpotrs(c, b, lower=1)
        if info < 0:
            raise ValueError(f"dpotrs rejected argument {-info}")
        return x

    return factor, solve


@functools.cache
def _cholesky_routines():
    """(factor, solve), looked up once.  ``factor(a)`` is the lower Cholesky
    factor of the symmetric ``a``, or None when ``a`` is not numerically
    positive definite; ``solve(c, b)`` is a^-1 b from that factor.  The pair is
    LAPACK's dpotrf and dpotrs from numpy's own OpenBLAS, or the same two
    routines from scipy's LAPACK where numpy's copy lacks them."""
    return _openblas_cholesky() or _scipy_cholesky()


@functools.cache
def _openblas_thread_controls():
    """(getter, setter) of the thread count of every loaded OpenBLAS copy.

    The wheels bundle OpenBLAS under prefixed symbols: numpy's copy has the
    suffix ``64_`` of its 64-bit-integer interface, scipy's none.  Scipy's copy
    is loaded only where the Cholesky routines fall back to scipy's LAPACK, so
    they are resolved first, and a copy they load is pinned too.  Empty when
    there is no ``/proc`` or no OpenBLAS.
    """
    _cholesky_routines()
    controls = []
    for lib in _loaded_openblas():
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


def _step_to_boundary(v, dv):
    """Largest a with v + a dv >= 0; inf when no entry decreases."""
    falling = dv < 0
    return float((v[falling] / -dv[falling]).min()) if falling.any() else np.inf


@_OneBlasThread()
def _interior_point(objective, rows, h, lower, upper, y0, settings, tol, scale):
    """Mehrotra predictor-corrector for min f(y) s.t. R y <= h and the boxes,
    from the strictly feasible ``y0`` (see the module docstring).

    ``rows`` is the row operator R, which the exponential objective reads
    too; ``h`` bounds the rows, or is None when they are no faces.  The loop
    stops when the gap and the decrement are at most ``tol * scale(f)``.
    """
    y = np.array(y0, dtype=float)
    n = y.shape[0]
    lo = np.flatnonzero(np.isfinite(lower))
    up = np.flatnonzero(np.isfinite(upper))
    k = 0 if h is None else h.shape[0]
    m = k + lo.size + up.size

    def slacks(v, r):
        return np.concatenate([h - r if k else np.zeros(0), v[lo] - lower[lo], upper[up] - v[up]])

    def faces(d, rd):
        """G d."""
        return np.concatenate([rd if k else np.zeros(0), -d[lo], d[up]])

    def faces_t(v):
        """G^T v."""
        out = rows.net_t(rows.rmatvec(v[:k])) if k else np.zeros(n)
        out[lo] -= v[k:k + lo.size]
        out[up] += v[k + lo.size:]
        return out

    def newton_solver(w, hess_f):
        """solve(b) = H^-1 b for H = Hess f + G^T diag(w) G: the net
        Hessian of the objective and the rows, and the box weights."""
        def net_hess(shift):
            if not k:
                return np.zeros((rows.width,) * 2) if hess_f is None else hess_f(shift)
            hess = rows.gram(w[:k], shift)
            return hess if hess_f is None else hess + hess_f(shift)

        box = np.zeros(n)
        box[lo] += w[k:k + lo.size]
        box[up] += w[k + lo.size:]
        return _condensed_solver(net_hess, box, rows)

    def moves(dy, centering):
        """R dy, and the slack and dual moves that go with dy."""
        rdy = rows.matvec(rows.net(dy))
        ds = -faces(dy, rdy)
        return rdy, ds, -z + (centering - z * ds) / s

    r = rows.matvec(rows.net(y))
    s = slacks(y, r)
    if not (s > 0).all():
        raise ValueError("interior-point start is not strictly feasible")
    f = objective.value(y, r)
    z = max(1.0, abs(f)) / max(m, 1) / s

    trace = []
    residuals = []
    status = "max_iter"
    kkt = np.inf
    for steps in range(settings.max_iter + 1):
        f, g, hess_f = objective.derivatives(y, r)
        residual = g + faces_t(z)
        if not (np.isfinite(f) and np.isfinite(y).all() and np.isfinite(z).all()
                and np.isfinite(s).all() and np.isfinite(residual).all()):
            status = "numerical_error"
            break
        if f < settings.objective_floor:
            status = "unbounded"
            break
        solve = newton_solver(z / s, hess_f)
        solved = solve(np.column_stack([residual, g]))
        gap = float(s @ z)
        decrement = float(residual @ solved[:, 0])
        trace.append({"objective": f, "gap": gap, "decrement": decrement})
        if not np.isfinite(solved).all():
            status = "numerical_error"
            break
        kkt = max(gap, abs(decrement)) / scale(f)
        residuals.append(kkt)
        # below grad_tol, a residual that has not halved over the last
        # _STALL_WINDOW systems sits at the rounding floor
        stalled = (kkt <= settings.grad_tol and len(residuals) > _STALL_WINDOW
                   and min(residuals[-_STALL_WINDOW:]) > 0.5 * min(residuals[:-_STALL_WINDOW]))
        if kkt <= tol or stalled:
            status = "optimal"
            # the dual part of one more Newton step at fixed slacks: for a
            # linear objective G^T dz cancels the dual residual
            u = solved[:, 0]
            z = np.maximum(z - z / s * faces(u, rows.matvec(rows.net(u)) if k else None), 0.0)
            break
        if steps == settings.max_iter:
            break

        # predictor: the affine direction, then the centering weight
        dy = -solved[:, 1]
        centering = np.zeros(m)
        if m:
            mu = gap / m
            ds = -faces(dy, rows.matvec(rows.net(dy)) if k else None)
            dz = -z - z / s * ds
            alpha_p = min(1.0, _step_to_boundary(s, ds))
            alpha_d = min(1.0, _step_to_boundary(z, dz))
            mu_aff = float((s + alpha_p * ds) @ (z + alpha_d * dz)) / m
            sigma = min(1.0, (mu_aff / mu) ** 3)
            # corrector: sigma * mu less the second-order term ds * dz
            centering = sigma * mu - ds * dz
            dy = -solve(g + faces_t(centering / s))
        rdy, ds, dz = moves(dy, centering)
        # the slope of the barrier merit f - sigma mu sum log s along dy
        weight = sigma * mu if m else 0.0
        slope = float(g @ dy) - weight * float((ds / s).sum())
        if hess_f is not None and m and slope >= 0.0:
            # the second-order term turned the corrector uphill: the centred
            # direction, sigma mu alone, is H^-1 times minus the merit gradient
            centering = np.full(m, weight)
            dy = -solve(g + faces_t(centering / s))
            rdy, ds, dz = moves(dy, centering)
            slope = float(g @ dy) - weight * float((ds / s).sum())
        if not (np.isfinite(dy).all() and np.isfinite(dz).all()):
            status = "numerical_error"
            break

        alpha = min(1.0, _FRACTION_TO_BOUNDARY * _step_to_boundary(s, ds))
        accepts = None
        if hess_f is not None:
            # backtrack on the barrier merit
            trial, cap = objective.along(r, rdy)
            alpha = min(alpha, cap)
            merit0 = f - weight * float(np.log(s).sum())
            noise = 64.0 * np.finfo(float).eps * (abs(merit0) + abs(f))

            def accepts(a):
                s_a = s + a * ds
                if (s_a <= 0).any():
                    return False
                merit = trial(a) - weight * float(np.log(s_a).sum())
                return merit <= merit0 + 1e-4 * a * min(slope, 0.0) + noise

        # a step is taken only where the slacks recomputed at the new point
        # stay positive: h - G y can cancel to zero where s + a ds does not
        while alpha >= _STEP_SHRINK_MIN:
            if accepts is None or accepts(alpha):
                y_new = y + alpha * dy
                r_new = rows.matvec(rows.net(y_new))
                s_new = slacks(y_new, r_new)
                if (s_new > 0).all():
                    break
            alpha *= 0.5
        else:
            break
        y, r, s = y_new, r_new, s_new
        z = z + min(1.0, _FRACTION_TO_BOUNDARY * _step_to_boundary(z, dz)) * dz
    if status == "max_iter" and kkt <= settings.grad_tol:
        status = "optimal"

    lower_z = np.full(n, np.nan)
    upper_z = np.full(n, np.nan)
    lower_z[lo] = z[k:k + lo.size]
    upper_z[up] = z[k + lo.size:]
    return {
        "status": status,
        "y": y,
        "objective": objective.value(y, r),
        "steps": steps,
        "systems": len(trace),
        "trace": trace,
        "kkt": kkt,
        "duals": {"point": None if h is None else z[:k], "lower": lower_z, "upper": upper_z},
    }


def _newton_solver(hess):
    """solve(b) = H^-1 b from one Cholesky factorization of H.

    The jitter is scaled by the largest diagonal entry: a numerically
    singular Hessian's trace can cancel to <= 0.  It grows from 1e-14 to 100
    times that entry, past any negative eigenvalue that rounding leaves in a
    positive semidefinite matrix.
    """
    if hess.shape[0] == 0:  # a program without variables
        return lambda rhs: np.array(rhs, dtype=float)
    factor, solve = _cholesky_routines()
    scale = float(np.abs(np.diag(hess)).max(initial=0.0)) or 1.0
    jitter = 0.0
    for _ in range(10):
        c = factor(hess if jitter == 0.0 else hess + jitter * np.eye(hess.shape[0]))
        if c is not None:
            return lambda rhs: solve(c, rhs)
        jitter = max(jitter * 100.0, 1e-14 * scale)
    # last resort: a steepest-descent step in a badly conditioned corner
    return lambda rhs: rhs / scale


def _condensed_solver(net_hess, box, rows):
    """solve(b) = H^-1 b for the Newton matrix H = P^T K P + diag(box) in
    the variables' net order, from one Cholesky factorization of its
    condensed form on the rows' N net coordinates (see the module
    docstring).  ``net_hess(shift)`` is K for the rows R_net + 1 shift^T, a
    new array; ``box`` holds the box weight of every variable and ``rows``
    the row factors, which define P."""
    p, J, positions, to_factor, _, ask, bid = rows.net_layout
    d_buy, d_sell = box[p:p + J], box[p + J:]
    total = d_buy + d_sell
    spread = ask - bid
    share = spread**2 / total  # each quote's part of rho
    rho = float(share.sum())
    cash_free = rho > np.finfo(float).tiny
    diagonal = [box[:p]]
    if J:
        # K + diag(h) + (1/rho)(omega, -1)(omega, -1)^T in the cash coordinate
        # tau = t - omega @ u, which moves the rank-one term onto the cash
        # diagonal: Q^T K Q + diag(h, 1/rho), where Q^T K Q is K of the rows
        # whose net columns move by omega times the cash column of ones
        cash = positions[-1]
        shift = np.concatenate([np.zeros(p), (ask * d_sell + bid * d_buy) / total, [0.0]])
        hess = net_hess(shift[to_factor])
        diagonal += [d_buy * d_sell / total, [1.0 / rho if cash_free else 0.0]]
    else:
        hess = net_hess(None)
    hess[positions, positions] += np.concatenate(diagonal)
    if J and not cash_free:
        # no quote has a spread: the cash is omega @ u, and tau = 0
        hess[cash, :] = hess[:, cash] = 0.0
        hess[cash, cash] = 1.0
    solve_net = _newton_solver(hess)
    pivot = int(np.argmax(share)) if cash_free else None
    to_buy, to_sell = (d_sell / total)[:, None], (d_buy / total)[:, None]
    per_total, per_spread = (1.0 / total)[:, None], (spread / total)[:, None]

    def solve(b):
        flat = b if b.ndim == 2 else b[:, None]
        if not J:
            x = solve_net(flat[to_factor])[positions]
            return x if b.ndim == 2 else x[:, 0]
        b_buy, b_sell = flat[p:p + J], flat[p + J:]
        mean = (b_buy + b_sell) * per_total
        gamma = spread @ mean
        tau_rhs = gamma / rho if cash_free else np.zeros_like(gamma)
        rhs = np.concatenate([flat[:p], to_buy * b_buy - to_sell * b_sell, tau_rhs[None]])
        w = solve_net(rhs[to_factor])[positions]
        u, tau = w[p:p + J], w[-1]
        if cash_free:
            # each pair's weighted mean (d+ x+ + d- x-) / (d+ + d-), through
            # the cash row's multiplier (gamma - tau) / rho; the quote with
            # the largest share of rho then restores spread @ mean = tau,
            # which a small d+ + d- would otherwise break
            mean -= per_spread * ((gamma - tau) / rho)
            mean[pivot] += (tau - spread @ mean) / spread[pivot]
        x = np.concatenate([w[:p], mean + to_buy * u, mean - to_sell * u])
        return x if b.ndim == 2 else x[:, 0]

    return solve


def feasibility_start(program: AssembledProgram, settings: SolveSettings | None = None):
    """Phase-1 slack minimization for pointwise-constrained programs.

    Minimizes the uniform relaxation ``s`` of the pointwise rows over the
    boxes: the program's epigraph, with ``s`` at least -10 * scale, from the
    start ``epigraph`` sets.  Returns (minimum slack, point or None): the
    point is strictly feasible for the original rows, and given only when the
    slack lies below ``-PHASE1_MARGIN * scale``, so a None point is how
    phase-1 reports rows without an interior.

    The returned slack is that of the returned point, so it never lies below
    the true minimum, and it exceeds it by at most ``2.5e-10 * scale`` with
    ``scale = 1 + max|point_upper|``.  This absolute accuracy holds however
    far the minimum lies from zero; the caller's ``gap_tol`` does not change it.
    """
    if program.point_upper is None:
        raise ValueError("phase-1 needs pointwise constraint rows")
    settings = settings or SolveSettings()
    scale = 1.0 + float(np.abs(program.point_upper).max())
    lifted = program.epigraph(program.point_upper, -10.0 * scale)
    # The target is absolute, a quarter of the margin: a target relative to
    # |s| would let the error grow with the slack.
    solution = _solve(lifted, settings, PHASE1_GAP, lambda f: scale)
    s_star = solution.objective
    strict = s_star < -PHASE1_MARGIN * scale
    return s_star, (solution.x[: program.variable_count] if strict else None)


def _solve(program: AssembledProgram, settings: SolveSettings, tol=None, scale=None) -> Solution:
    """Minimize ``program`` from its own start until the gap and the
    decrement are at most ``tol`` (``settings.gap_tol``) times ``scale(f)``
    (1 for a log value, 1 + |f| for a linear objective).  A start not
    strictly inside the rows and boxes raises ValueError."""
    started = time.perf_counter()
    exponential = program.objective == "exp_sum"
    # the loop runs in the rows' variable order [plain | buys | sells]
    rows = program.factors
    order = rows.net_layout.variables
    if exponential:
        objective = _ExpSumObjective(rows, program.offsets, program.masses, program.kappa)
    else:
        objective = _LinearObjective(program.cost[order])
    core = _interior_point(
        objective,
        rows,
        None if program.point_upper is None else program.point_upper - program.offsets,
        program.lower[order],
        program.upper[order],
        program.start[order],
        settings,
        settings.gap_tol if tol is None else tol,
        scale or ((lambda f: 1.0) if exponential else (lambda f: 1.0 + abs(f))),
    )
    x, lower_z, upper_z = (np.empty(order.size) for _ in range(3))
    x[order] = core["y"]
    lower_z[order] = core["duals"]["lower"]
    upper_z[order] = core["duals"]["upper"]
    value = core["objective"]
    return Solution(
        x=x,
        objective=float(np.exp(value)) if exponential else value,
        log_objective=value if exponential else None,
        status=core["status"],
        duals={"point": core["duals"]["point"], "lower": lower_z, "upper": upper_z},
        outer_iterations=core["steps"],
        newton_iterations=core["systems"],
        wall_time=time.perf_counter() - started,
        kkt_residual=core["kkt"],
        trace=core["trace"],
    )


def minimize(program: AssembledProgram, settings: SolveSettings | None = None) -> Solution:
    """Minimize the exponential-sum program from its start; returns an
    optimal-within-tolerance point.  A start not strictly inside the rows and
    boxes raises ValueError.  A bare strategy space, without a risk scale
    ``kappa``, is no such program."""
    if program.objective != "exp_sum" or program.kappa is None:
        raise ValueError("minimize expects an exponential-sum program with a risk scale")
    return _solve(program, settings or SolveSettings())


def solve_lp(program: AssembledProgram, settings: SolveSettings | None = None) -> Solution:
    """Minimize ``cost @ y`` under the program's rows and boxes, from its
    start.

    Unboundedness is reported when the objective passes below the configured
    floor.  A start not strictly inside the rows and boxes raises ValueError:
    an epigraph (``AssembledProgram.epigraph``) starts inside its rows.
    """
    if program.objective != "linear":
        raise ValueError("solve_lp expects a linear-objective program")
    return _solve(program, settings or SolveSettings())

