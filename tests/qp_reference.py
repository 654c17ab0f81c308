"""Dense reference solver for the working-set dual.

Maximizes  sum_c alpha_c * loss_c - 0.5 * || sum_c alpha_c * dpsi_c ||^2
subject to alpha >= 0 and, per example i, sum over that example's
constraints <= cap. Solved by accelerated projected gradient on the dense
Gram matrix with an exact per-example projection, so it shares no code with
the package's active-set solver.
"""

from __future__ import annotations

import numpy as np


def project_capped_simplex(v, cap):
    """Project v onto {a : a >= 0, sum(a) <= cap}."""
    clipped = np.maximum(v, 0.0)
    if clipped.sum() <= cap:
        return clipped
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - cap
    ranks = np.arange(1, len(v) + 1)
    valid = u - cumulative / ranks > 0
    rho = int(np.nonzero(valid)[0][-1]) + 1
    theta = cumulative[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def solve_dual_reference(delta_psis, losses, groups, cap, tol=1e-12, max_iter=500_000):
    """Return (alpha, dual_objective, w).

    delta_psis: list of dense vectors, one per constraint.
    losses: per-constraint loss values.
    groups: per-constraint example index; constraints sharing an index share
        the cap sum(alpha) <= cap.
    """
    a_matrix = np.asarray(delta_psis, dtype=float)
    b = np.asarray(losses, dtype=float)
    m = len(b)
    gram = a_matrix @ a_matrix.T
    lip = float(np.linalg.eigvalsh(gram)[-1]) if m else 0.0
    step = 1.0 / lip if lip > 0 else 1.0

    group_ids = sorted(set(groups))
    members = {g: np.array([i for i, gi in enumerate(groups) if gi == g]) for g in group_ids}

    def project(v):
        out = np.empty_like(v)
        for g in group_ids:
            idx = members[g]
            out[idx] = project_capped_simplex(v[idx], cap)
        return out

    def objective(a):
        return float(b @ a - 0.5 * a @ gram @ a)

    alpha = project(np.zeros(m))
    y = alpha.copy()
    t = 1.0
    prev = objective(alpha)
    stable = 0
    for _ in range(max_iter):
        grad = b - gram @ y
        nxt = project(y + step * grad)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = nxt + ((t - 1.0) / t_next) * (nxt - alpha)
        alpha, t = nxt, t_next
        cur = objective(alpha)
        if cur < prev:
            # restart momentum on any dip
            y = alpha.copy()
            t = 1.0
        if abs(cur - prev) <= tol * (1.0 + abs(cur)):
            stable += 1
            if stable >= 20:
                break
        else:
            stable = 0
        prev = max(prev, cur)
    w = a_matrix.T @ alpha
    return alpha, objective(alpha), w
