"""Self-contained solvers for the assembled programs: one primal-dual
interior-point method (Mehrotra 1992; Wright 1997, ch. 10-11) for the
exponential-sum programs and the hedging linear programs.  Every solve
starts at its program's own ``start``, which must lie strictly inside the
rows and boxes.  Programs that share their rows and boxes, the legs of one
strategy space, are solved together as one stack (``solve_legs``);
``minimize``, ``solve_lp`` and ``feasibility_start``, the least uniform
level of a program's rows (its epigraph LP), solve a stack of one.

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
backtracked on the merit f - sigma mu sum(log s).  Where the corrector's
second-order term makes it an ascent direction of that merit, the step takes
the centred direction (centering sigma mu alone), a descent direction,
instead (Nocedal & Wright 2006, ch. 19).  Without faces the loop is damped
Newton on f.

Stacks.  The loop runs B legs in lockstep: the iterates y, the row values,
s, z and f carry a leading leg axis, each leg with its own offsets, point
bounds, cost and start.  Every elementwise step, reduction and row product
works on the whole stack at once, and only the Cholesky factorization and
its solves loop over the legs, one system per leg.  Each leg keeps its own
step lengths, merit backtracking, centred fallback, stall rule and status.
A leg leaves the stack at one of two exits, as its ``Solution`` at its
current point; the others go on unchanged.  The stopping exit follows each
Newton system's solve, and the step exit follows each step.  A stacked
step costs far less than one step per leg, as most of a step's time is the
per-call cost of small numpy operations.

Stopping rule.  At the stopping exit one test checks that f, y, s, z, the
dual residual r = grad f + G^T z and the Newton solution are all finite.
A leg that passes has the duality gap s^T z and the Newton decrement
r^T H^-1 r; the larger of the two over the objective's scale (see
``SolveSettings``) is its ``kkt_residual``.  A leg that fails keeps the
residual of its last finite system.  Each leg then takes the first status
that holds, in this order:

- ``numerical_error``: the test failed;
- ``unbounded``: f lies below ``objective_floor``;
- ``optimal``: the residual is at most ``gap_tol``, or it is at most
  ``grad_tol`` and its least value over the last five systems is not below
  half the least before them (a target below the rounding floor cannot be
  met).  Before it leaves, the duals take the dual part of one more Newton
  step, which cancels the dual residual of a linear program;
- ``max_iter``: this was the last iteration.

At the step exit a leg leaves when it could not step: ``numerical_error``
when its direction is not finite, ``max_iter`` when every step length
failed.  A ``max_iter`` leg whose residual is at most ``grad_tol`` is
reported ``optimal``.  A ``numerical_error`` leg is never ``optimal``.

Every product with the loss rows goes through the program's row factors
(``galerkin.RowFactors``), which hold R = R_net P: A on the leading periods'
points, B on the last period's levels and one (cell, value) slot per row for
each set of cell columns that depends on both, on N net coordinates.  A
quote with both sides is one net column (its negated payoff), and one cash
column of ones carries ask x+ - bid x- for all of them; P maps the program
variables onto them.  The loop runs in the rows' variable order
[plain | buys | sells] (``NetLayout``): ``solve_legs`` permutes the boxes,
the starts and the costs into it and the points and their box duals back.
An iteration makes three row products for the whole stack: R d for the
predictor's direction (and the last dual step of the legs that stop) and
for the corrector's, and R y at the accepted points, whose row values serve
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
no randomness, no time-dependent branching.  A leg's bits do not depend on
its stack: the arrays that enter reductions and BLAS calls are C-ordered
with the leg axis first, so each leg's reductions and products run over its
own contiguous rows as they would alone (a fancy column gather a[:, idx]
returns a transposed layout, over which a product rounds differently, so
column gathers use ``take``); every BLAS product runs once per leg (a
stacked matmul, never one product across legs), and each leg's bincounts
run on their own.  Alone or beside other legs, a program gives
the same point, value, duals and Newton count
(``test_stacked_legs_equal_their_solves_alone``).  The BLAS calls inside a
solve (the block products and the Cholesky factorization) would round
differently with the number of BLAS threads, so every solve runs on exactly
one thread: every OpenBLAS copy in the process is set to one thread for the
solve and back to the caller's count after it (``blas.one_blas_thread``).
That is numpy's own copy, which also serves the factorization through
LAPACK dpotrf and dpotrs, and scipy's copy only where numpy's lacks those
two routines and the solver falls back to scipy's LAPACK.  Repeated solves
of the same program therefore give bit-identical results whatever thread
count the process uses.  A BLAS that is not OpenBLAS (MKL, Accelerate) or a
system without ``/proc`` is not pinned; there the promise holds only at a
fixed thread count.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .blas import _cholesky_routines, one_blas_thread
from .galerkin import AssembledProgram

_STEP_SHRINK_MIN = 1e-18
# systems over which a residual below grad_tol must halve, or the loop stops
_STALL_WINDOW = 5
# share of the step to the nearest face that an iterate may take
_FRACTION_TO_BOUNDARY = 0.99
_TINY = np.finfo(float).tiny


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
    row per system with the objective, gap and decrement there.  A leg whose
    objective is not finite, or lies below the floor, leaves after the
    system at that point is factored too, which counts in
    ``newton_iterations``; an ``unbounded`` leg's ``kkt_residual`` is that
    system's.  ``wall_time`` runs from the start of the solve until the leg
    left its stack, so the legs of one stack share its start."""

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


def _legs(mask):
    """Index of the legs where ``mask`` holds: every leg as a slice, which
    selects without copying, or their positions."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def _dot(a, b):
    """The dot product of each leg's rows of a and b (B, n), one BLAS call per
    leg, so that a leg's value does not depend on the legs beside it."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _logsumexp(e):
    """log sum exp of each leg's row of e (B, M)."""
    c = e.max(axis=1)
    return c + np.log(np.exp(e - c[:, None]).sum(axis=1))


class _ExpSumObjective:
    """log sum_i m_i exp(kappa * (r0_i + r_i)) of the row values r = R y, for
    each leg of a stack: offsets r0 and log masses (B, M), kappa (B, 1).

    The interior-point loop hands in the row values of its current points, so
    no method here multiplies by the rows except for the gradient and the
    Hessian; a trial value along a direction d costs O(M) given R d.
    """

    # Where almost all mass sits on one scenario the Hessian is numerically
    # singular and the Newton direction astronomically long.  Faces bound such
    # a step; without faces (a quote-less market) only this cap on the move of
    # any exponent does.  Exponents of doubles span about 1,400 units, so a
    # solve needs few capped steps.
    MAX_EXPONENT_STEP = 50.0

    def __init__(self, rows, offsets, log_masses, kappa):
        self.rows = rows  # the programs' RowFactors
        self.offsets = offsets
        self.log_masses = log_masses
        self.kappa = kappa

    def take(self, legs):
        """The objective of the legs ``legs`` of this stack."""
        return _ExpSumObjective(self.rows, self.offsets[legs], self.log_masses[legs],
                                self.kappa[legs])

    def _exponents(self, r):
        return self.log_masses + self.kappa * (self.offsets + r)

    def value(self, y, r):
        return _logsumexp(self._exponents(r))

    def scale(self, f):
        """The scale of the log values ``f`` (see ``SolveSettings``)."""
        return 1.0

    def derivatives(self, y, r):
        """The values, the gradients in the variables, and the Hessians K on
        the rows' net coordinates (P^T K P in the variables) as a function
        of shifts s: those of the rows R_net + 1 s^T (``_condensed_solver``).
        """
        e = self._exponents(r)
        c = e.max(axis=1)
        p = np.exp(e - c[:, None])
        total = p.sum(axis=1)
        pi = p / total[:, None]
        grad = self.kappa * self.rows.rmatvec(pi)

        def hess(shift):
            # the shifted rows' gradient is grad + kappa * shift, as sum(pi) = 1
            moved = grad if shift is None else grad + self.kappa * shift
            return ((self.kappa**2)[:, :, None] * self.rows.gram(pi, shift)
                    - moved[:, :, None] * moved[:, None, :])

        return c + np.log(total), self.rows.net_t(grad), hess

    def along(self, r, rd):
        """The values at y + a d as a function of the legs and their a, and
        the largest a per leg that moves no exponent by more than
        ``MAX_EXPONENT_STEP``."""
        base, step = self._exponents(r), self.kappa * rd
        reach = np.abs(step).max(axis=1, initial=0.0)
        cap = np.divide(self.MAX_EXPONENT_STEP, reach, out=np.full(reach.shape, np.inf),
                        where=reach > 0)
        return (lambda legs, a: _logsumexp(base[legs] + a[:, None] * step[legs])), cap


class _LinearObjective:
    """cost @ y, with one cost row per leg of a stack (B, n)."""

    def __init__(self, cost):
        self.cost = cost

    def take(self, legs):
        return _LinearObjective(self.cost[legs])

    def value(self, y, r):
        return _dot(self.cost, y)

    def scale(self, f):
        """The scale of the linear values ``f`` (see ``SolveSettings``)."""
        return 1.0 + abs(f)

    def derivatives(self, y, r):
        return self.value(y, r), self.cost, None


def _step_to_boundary(v, dv):
    """Largest a with v + a dv >= 0, per row of v and dv; inf where no entry
    decreases.  An entry that does not decrease divides by NaN, which the
    least value skips."""
    return np.fmin.reduce(v / -np.where(dv < 0, dv, np.nan), axis=-1, initial=np.inf)


@one_blas_thread
def _interior_point(objective, rows, h, lower, upper, y0, settings):
    """Mehrotra predictor-corrector for a stack of legs, min f_b(y) s.t.
    R y <= h_b and the boxes, each from its strictly feasible row of ``y0``
    (B, n) (see the module docstring).

    The legs share the row operator R, which the exponential objective reads
    too, and the boxes; ``h`` (B, M) bounds each leg's rows, or is None when
    they are no faces.  A leg leaves the stack at its stopping test or at its
    step, by the rules of the module docstring.  Returns one Solution per leg,
    in stack order, with the point and its box duals in the loop's variable
    order and the objective's own value (the log value of an exponential sum).
    """
    started = time.perf_counter()
    y = np.array(y0, dtype=float)
    n = y.shape[1]
    lo = np.flatnonzero(np.isfinite(lower))
    up = np.flatnonzero(np.isfinite(upper))
    k = 0 if h is None else h.shape[1]
    m = k + lo.size + up.size

    lower_edge, upper_edge = lower[lo], upper[up]

    def slacks(v, r, h):
        return np.concatenate([h - r if k else np.zeros((len(v), 0)),
                               v.take(lo, axis=1) - lower_edge, upper_edge - v.take(up, axis=1)],
                              axis=1)

    def faces(d, rd):
        """G d."""
        return np.concatenate([rd if k else np.zeros((len(d), 0)), -d.take(lo, axis=1),
                               d.take(up, axis=1)], axis=1)

    def faces_t(v):
        """G^T v."""
        out = rows.net_t(rows.rmatvec(v[:, :k])) if k else np.zeros((len(v), n))
        out[:, lo] -= v[:, k:k + lo.size]
        out[:, up] += v[:, k + lo.size:]
        return out

    def newton_solver(w, hess_f):
        """solve(b, legs) = H^-1 b for H = Hess f + G^T diag(w) G of each
        leg: the net Hessian of the objective and the rows, and the box
        weights."""
        def net_hess(shift):
            if not k:
                if hess_f is None:
                    return np.zeros((len(w), rows.width, rows.width))
                return hess_f(shift)
            hess = rows.gram(w[:, :k], shift)
            return hess if hess_f is None else hess + hess_f(shift)

        box = np.zeros((len(w), n))
        box[:, lo] += w[:, k:k + lo.size]
        box[:, up] += w[:, k + lo.size:]
        return _condensed_solver(net_hess, box, rows)

    def moves(dy, centering, s, z):
        """R dy, and the slack and dual moves that go with dy."""
        rdy = rows.matvec(rows.net(dy))
        ds = -faces(dy, rdy)
        return rdy, ds, -z + (centering - z * ds) / s

    r = rows.matvec(rows.net(y))
    s = slacks(y, r, h)
    if not (s > 0).all():
        raise ValueError("interior-point start is not strictly feasible")
    f = objective.value(y, r)
    z = (np.fmax(1.0, np.abs(f)) / max(m, 1))[:, None] / s

    legs = np.arange(len(y))  # the stack position of each running leg
    kkt = np.full(len(y), np.inf)
    traces = [[] for _ in legs]
    histories = [[] for _ in legs]
    results = [None] * len(y)

    def leave(status, *extra):
        """Take the running legs with a ``status`` out of the stack, each as
        its Solution at the current point, and return the rest of each array
        of ``extra``."""
        nonlocal y, r, s, z, h, f, kkt, legs, objective
        done = status != ""
        if not done.any():
            return extra
        ended = time.perf_counter()
        for i in np.flatnonzero(done):
            leg = legs[i]
            lower_z, upper_z = np.full(n, np.nan), np.full(n, np.nan)
            lower_z[lo] = z[i, k:k + lo.size]
            upper_z[up] = z[i, k + lo.size:]
            results[leg] = Solution(
                x=y[i].copy(), objective=float(f[i]), log_objective=None,
                status=("optimal" if status[i] == "max_iter" and kkt[i] <= settings.grad_tol
                        else str(status[i])),
                duals={"point": None if h is None else z[i, :k].copy(),
                       "lower": lower_z, "upper": upper_z},
                outer_iterations=steps, newton_iterations=len(traces[leg]),
                wall_time=ended - started, kkt_residual=float(kkt[i]), trace=traces[leg])
        keep = ~done
        y, r, s, z, f, kkt, legs = y[keep], r[keep], s[keep], z[keep], f[keep], kkt[keep], legs[keep]
        h = None if h is None else h[keep]
        objective = objective.take(keep)
        return [a[keep] for a in extra]

    for steps in range(settings.max_iter + 1):
        f, g, hess_f = objective.derivatives(y, r)
        residual = g + faces_t(z)
        solve = newton_solver(z / s, hess_f)
        stack = len(y)
        at = np.arange(stack)  # each running leg's place in ``solve``
        solved = solve(np.stack([residual, g], axis=2))
        gap = _dot(s, z)
        decrement = _dot(residual, solved[:, :, 0])
        for leg, value, leg_gap, leg_decrement in zip(legs, f.tolist(), gap.tolist(),
                                                        decrement.tolist()):
            traces[leg].append({"objective": value, "gap": leg_gap, "decrement": leg_decrement})
        # the stopping exit: one finiteness test of the point, its residual
        # and its Newton solution; a broken leg keeps its last finite kkt
        finite = np.isfinite(np.concatenate(
            [f[:, None], y, s, z, residual, solved.reshape(stack, -1)], axis=1)).all(axis=1)
        np.divide(np.maximum(gap, np.abs(decrement)), objective.scale(f), out=kkt,
                  where=finite)
        # below grad_tol, a residual that has not halved over the last
        # _STALL_WINDOW systems sits at the rounding floor
        stalled = np.zeros(stack, dtype=bool)
        for i, leg in enumerate(legs):
            history = histories[leg]
            history.append(kkt[i])
            stalled[i] = (kkt[i] <= settings.grad_tol and len(history) > _STALL_WINDOW
                          and min(history[-_STALL_WINDOW:]) > 0.5 * min(history[:-_STALL_WINDOW]))
        # each leg's status is the first that holds of numerical_error,
        # unbounded, optimal and max_iter: set here in reverse order
        status = np.full(stack, "max_iter" if steps == settings.max_iter else "", dtype=object)
        status[(kkt <= settings.gap_tol) | stalled] = "optimal"
        status[f < settings.objective_floor] = "unbounded"
        status[~finite] = "numerical_error"
        optimal = status == "optimal"
        # one row product serves the optimal legs' last dual step u and the
        # others' predictor direction dy = -H^-1 g; a broken leg's is zero
        direction = -solved[:, :, 1]
        direction[optimal] = solved[optimal, :, 0]
        direction[~finite] = 0.0
        rd = rows.matvec(rows.net(direction)) if k else np.zeros((stack, 0))
        if optimal.any():
            # the dual part of one more Newton step at fixed slacks: for a
            # linear objective G^T dz cancels the dual residual
            dual = z[optimal] - z[optimal] / s[optimal] * faces(direction[optimal], rd[optimal])
            z[optimal] = np.maximum(dual, 0.0)
        g, gap, at, direction, rd = leave(status, g, gap, at, direction, rd)
        if not legs.size:
            break

        # predictor: the affine direction, then the centering weight
        dy = direction
        within = None if len(at) == stack else at  # the running legs' systems
        centering = weight = 0.0
        if m:
            mu = gap / m
            ds = -faces(dy, rd)
            dz = -z - z / s * ds
            alpha_p = np.fmin(1.0, _step_to_boundary(s, ds))
            alpha_d = np.fmin(1.0, _step_to_boundary(z, dz))
            mu_aff = _dot(s + alpha_p[:, None] * ds, z + alpha_d[:, None] * dz) / m
            # Python's power of a float: numpy's vectorised one rounds differently
            sigma = np.array([min(1.0, ratio**3) for ratio in (mu_aff / mu).tolist()])
            weight = sigma * mu
            # corrector: sigma * mu less the second-order term ds * dz
            centering = weight[:, None] - ds * dz
            dy = -solve(g + faces_t(centering / s), within)
        else:
            centering, weight = np.zeros((len(legs), 0)), np.zeros(len(legs))
        # a non-finite direction is zeroed, as at the stopping exit, before
        # any product is taken with it, and its leg leaves at the step exit
        broken = ~np.isfinite(dy).all(axis=1)
        dy[broken] = 0.0
        rdy, ds, dz = moves(dy, centering, s, z)
        # the slope of the barrier merit f - sigma mu sum log s along dy
        slope = _dot(g, dy) - weight * (ds / s).sum(axis=1)
        uphill = (slope >= 0.0) & ~broken
        if hess_f is not None and m and uphill.any():
            # the second-order term turned the corrector uphill: the centred
            # direction, sigma mu alone, is H^-1 times minus the merit gradient
            centering[uphill] = weight[uphill, None]
            dy[uphill] = -solve(g[uphill] + faces_t(centering[uphill] / s[uphill]), at[uphill])
            broken |= ~np.isfinite(dy).all(axis=1)
            dy[broken] = 0.0
            rdy[uphill], ds[uphill], dz[uphill] = moves(dy[uphill], centering[uphill], s[uphill],
                                                        z[uphill])
            slope[uphill] = (_dot(g[uphill], dy[uphill])
                             - weight[uphill] * (ds[uphill] / s[uphill]).sum(axis=1))
        broken |= ~np.isfinite(dz).all(axis=1)

        alpha = np.fmin(1.0, _FRACTION_TO_BOUNDARY * _step_to_boundary(s, ds))
        accepts = None
        if hess_f is not None:
            # backtrack on the barrier merit
            trial, cap = objective.along(r, rdy)
            alpha = np.fmin(alpha, cap)
            merit0 = f - weight * np.log(s).sum(axis=1)
            noise = 64.0 * np.finfo(float).eps * (np.abs(merit0) + np.abs(f))

            def accepts(run, a):
                """The legs of ``run`` whose step ``a`` passes the merit test."""
                s_a = s[run] + a[:, None] * ds[run]
                inside = (s_a > 0).all(axis=1)
                if not inside.all():
                    run, a, s_a = np.arange(len(legs))[run][inside], a[inside], s_a[inside]
                merit = trial(run, a) - weight[run] * np.log(s_a).sum(axis=1)
                passed = merit <= merit0[run] + 1e-4 * a * np.fmin(slope[run], 0.0) + noise[run]
                return run if passed.all() else np.arange(len(legs))[run][passed]

        # a step is taken only where the slacks recomputed at the new point
        # stay positive: h - G y can cancel to zero where s + a ds does not
        pending = (alpha >= _STEP_SHRINK_MIN) & ~broken
        stepped = np.zeros(len(legs), dtype=bool)
        while pending.any():
            run = _legs(pending)
            if accepts is not None:
                run = accepts(run, alpha[run])
            y_new = y[run] + alpha[run, None] * dy[run]
            if len(y_new):
                r_new = rows.matvec(rows.net(y_new))
                s_new = slacks(y_new, r_new, None if h is None else h[run])
                inside = (s_new > 0).all(axis=1)
                if not inside.all():
                    run, y_new, r_new, s_new = (np.arange(len(legs))[run][inside], y_new[inside],
                                                r_new[inside], s_new[inside])
                elif isinstance(run, slice):  # every leg stepped at its first length
                    y, r, s = y_new, r_new, s_new
                    stepped[:] = True
                    break
                y[run], r[run], s[run] = y_new, r_new, s_new
                stepped[run] = True
                pending[run] = False
            alpha[pending] *= 0.5
            pending &= alpha >= _STEP_SHRINK_MIN
        run = _legs(stepped)
        z[run] = z[run] + np.fmin(1.0, _FRACTION_TO_BOUNDARY
                                  * _step_to_boundary(z[run], dz[run]))[:, None] * dz[run]
        # the step exit: the legs that could not step
        leave(np.where(stepped, "", np.where(broken, "numerical_error", "max_iter")))
        if not legs.size:
            break
    return results


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
    c = factor(hess)
    if c is not None:
        return lambda rhs: solve(c, rhs)
    scale = float(np.abs(np.diag(hess)).max(initial=0.0)) or 1.0
    jitter = 1e-14 * scale
    for _ in range(9):
        c = factor(hess + jitter * np.eye(hess.shape[0]))
        if c is not None:
            return lambda rhs: solve(c, rhs)
        jitter *= 100.0
    # last resort: a steepest-descent step in a badly conditioned corner
    return lambda rhs: rhs / scale


def _condensed_solver(net_hess, box, rows):
    """solve(b, legs) = H^-1 b for the Newton matrix H = P^T K P + diag(box)
    of each leg of a stack, in the variables' net order, from one Cholesky
    factorization per leg of its condensed form on the rows' N net
    coordinates (see the module docstring).  ``net_hess(shift)`` is K
    (B, N, N) for the rows R_net + 1 shift^T with shifts (B, N), a new array;
    ``box`` (B, n) holds the box weight of every variable and ``rows`` the
    row factors, which define P.  ``solve`` takes b (B', n) or (B', n, c) for
    the legs ``legs`` of the stack (B',), all of them by default."""
    p, J, positions, to_factor, _, ask, bid = rows.net_layout
    legs = len(box)
    d_buy, d_sell = box[:, p:p + J], box[:, p + J:]
    total = d_buy + d_sell
    spread = ask - bid
    share = spread**2 / total  # each quote's part of rho
    rho = share.sum(axis=1)
    cash_free = rho > _TINY
    # rho, infinite where no quote has a spread: there 1/rho and tau are 0
    rho = np.where(cash_free, rho, np.inf)[:, None]
    if J:
        # K + diag(h) + (1/rho)(omega, -1)(omega, -1)^T in the cash coordinate
        # tau = t - omega @ u, which moves the rank-one term onto the cash
        # diagonal: Q^T K Q + diag(h, 1/rho), where Q^T K Q is K of the rows
        # whose net columns move by omega times the cash column of ones
        cash = positions[-1]
        shift = np.concatenate([np.zeros((legs, p)), (ask * d_sell + bid * d_buy) / total,
                                np.zeros((legs, 1))], axis=1)
        hess = net_hess(shift.take(to_factor, axis=1))
        diagonal = np.concatenate([box[:, :p], d_buy * d_sell / total, 1.0 / rho], axis=1)
    else:
        hess = net_hess(None)
        diagonal = box
    # each leg's diagonal, in factor order, through a strided view
    hess.reshape(legs, -1)[:, ::positions.size + 1] += diagonal.take(to_factor, axis=1)
    for leg in np.flatnonzero(~cash_free) if J else ():
        # no quote has a spread: the cash is omega @ u, and tau = 0
        hess[leg, cash, :] = hess[leg, :, cash] = 0.0
        hess[leg, cash, cash] = 1.0
    solvers = [_newton_solver(leg) for leg in hess]
    # per leg: its factors, the weights of each quote's buy and sell, and rho
    every = (np.arange(legs), (d_sell / total)[:, :, None], (d_buy / total)[:, :, None],
             (1.0 / total)[:, :, None], (spread / total)[:, :, None], rho,
             np.argmax(share, axis=1) if J else None, cash_free)

    def solve(b, legs=None):
        flat = b if b.ndim == 3 else b[:, :, None]
        at, buys, sells, per_total, per_spread, rho, pivot, free = (
            every if legs is None else [None if a is None else a[legs] for a in every])
        if J:
            b_buy, b_sell = flat[:, p:p + J], flat[:, p + J:]
            mean = (b_buy + b_sell) * per_total
            gamma = np.matmul(spread, mean)
            tau_rhs = gamma / rho
            flat = np.concatenate([flat[:, :p], buys * b_buy - sells * b_sell, tau_rhs[:, None]],
                                  axis=1)
        rhs = flat.take(to_factor, axis=1)
        w = np.array([solvers[leg](part) for leg, part in zip(at, rhs)]).take(positions, axis=1)
        if J:
            # each pair's weighted mean (d+ x+ + d- x-) / (d+ + d-), through
            # the cash row's multiplier (gamma - tau) / rho; the quote with
            # the largest share of rho then restores spread @ mean = tau,
            # which a small d+ + d- would otherwise break
            u, tau = w[:, p:p + J], w[:, -1]
            on = _legs(free)
            mean[on] -= per_spread[on] * ((gamma[on] - tau[on]) / rho[on])[:, None, :]
            top = pivot[on]
            restore = (tau[on] - np.matmul(spread, mean[on])) / spread[top, None]
            mean[np.arange(len(w))[on], top] += restore
            w = np.concatenate([w[:, :p], mean + buys * u, mean - sells * u], axis=1)
        return w if b.ndim == 3 else w[:, :, 0]

    return solve


def solve_legs(programs, settings: SolveSettings | None = None):
    """Minimize each of ``programs`` from its own start, all as one stack of
    legs; returns one Solution per program, in order, each bit for bit the
    one that program gets alone.

    The programs share one objective type, their row factors (the same
    object: the legs of one strategy space) and their boxes, and differ in
    their claim offsets, point bounds, costs and starts.  Each leg stops by
    the rules of the module docstring, and its ``wall_time`` runs until it
    left the stack.  A start not strictly inside its rows and boxes raises
    ValueError."""
    settings = settings or SolveSettings()
    first = programs[0]
    rows = first.factors
    exponential = first.objective == "exp_sum"
    for program in programs:
        if (program.objective != first.objective or program.factors is not rows
                or (program.point_upper is None) != (first.point_upper is None)
                or not np.array_equal(program.lower, first.lower)
                or not np.array_equal(program.upper, first.upper)):
            raise ValueError("stacked legs must share their objective, row factors and boxes")
        if exponential and program.kappa is None:
            raise ValueError("an exponential-sum leg needs a risk scale")
    # the loop runs in the rows' variable order [plain | buys | sells]
    order = rows.net_layout.variables
    if exponential:
        # a point whose mass underflowed to 0 (far out on a wide box) keeps
        # log mass -inf, which leaves it out of the exponential sum only: the
        # hedging LPs still hold it as a pointwise row
        with np.errstate(divide="ignore"):
            log_masses = np.log(np.stack([p.masses for p in programs]))
        objective = _ExpSumObjective(rows, np.stack([p.offsets for p in programs]), log_masses,
                                     np.array([[p.kappa] for p in programs], dtype=float))
    else:
        objective = _LinearObjective(np.stack([p.cost[order] for p in programs]))
    solutions = _interior_point(
        objective,
        rows,
        None if first.point_upper is None
        else np.stack([p.point_upper - p.offsets for p in programs]),
        first.lower[order],
        first.upper[order],
        np.stack([p.start[order] for p in programs]),
        settings,
    )
    back = np.argsort(order)  # each program column's place in the loop's order
    for solution in solutions:
        solution.x = solution.x[back]
        for side in ("lower", "upper"):
            solution.duals[side] = solution.duals[side][back]
        if exponential:
            solution.log_objective = solution.objective
            solution.objective = float(np.exp(solution.objective))
    return solutions


def minimize(program: AssembledProgram, settings: SolveSettings | None = None) -> Solution:
    """Minimize the exponential-sum program from its start; returns an
    optimal-within-tolerance point.  A start not strictly inside the rows and
    boxes raises ValueError.  A bare strategy space, without a risk scale
    ``kappa``, is no such program."""
    if program.objective != "exp_sum" or program.kappa is None:
        raise ValueError("minimize expects an exponential-sum program with a risk scale")
    (solution,) = solve_legs([program], settings)
    return solution


def solve_lp(program: AssembledProgram, settings: SolveSettings | None = None) -> Solution:
    """Minimize ``cost @ y`` under the program's rows and boxes, from its
    start.

    Unboundedness is reported when the objective passes below the configured
    floor.  A start not strictly inside the rows and boxes raises ValueError:
    an epigraph (``AssembledProgram.epigraph``) starts inside its rows.
    """
    if program.objective != "linear":
        raise ValueError("solve_lp expects a linear-objective program")
    (solution,) = solve_legs([program], settings)
    return solution


def feasibility_start(program: AssembledProgram, settings: SolveSettings | None = None):
    """The least uniform level t* = min over y of max_i a_i(y) of the
    program's loss rows over its boxes: its epigraph LP
    (``AssembledProgram.epigraph``), solved alone from the start that sets.
    Returns (t*, the point y, Solution).  The solve stops by the LP gap rule,
    ``gap_tol * (1 + |t*|)`` (``SolveSettings``).  Every a_i(y) lies strictly
    below t*, so where t* <= 0 the point lies strictly inside the rows
    a_i(y) <= 0.  A program with pointwise rows raises ValueError."""
    (solution,) = solve_legs([program.epigraph()], settings)
    return solution.objective, solution.x[: program.variable_count], solution
