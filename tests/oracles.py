"""Reference oracles for the linear programs, kept out of the package:
an exact LP solve on HiGHS and the weak-duality bound of returned duals."""
import numpy as np
import scipy.optimize


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
