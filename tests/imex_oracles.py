"""Independent oracles of the IMEX step, shared by the unit and acceptance tests."""

import numpy as np

from subgrid_dg.solver import IMEXTableau, ars222


def closed_ars232():
    """The tableau `imex_step` steps: `ars222()`'s three rate stages and a
    fourth, implicit only, whose rows are the weights, implicit (0, 1 - alpha,
    0, alpha) and explicit (0, 1 - alpha, alpha, 0): the step ends on a penalty
    solve of the finished state."""
    tab = ars222()
    A, A_hat = np.zeros((4, 4)), np.zeros((4, 4))
    A[:3, :3], A_hat[:3, :3] = tab.A, tab.A_hat
    A[3, 1], A[3, 3] = tab.A[2, 1], tab.A[1, 1]
    A_hat[3, :3] = tab.b_hat
    return IMEXTableau(A=A, A_hat=A_hat, b=A[3].copy(), b_hat=A_hat[3].copy())


def scalar_additive_rk(tab, y0, lam_imp, lam_exp, dt, n_steps):
    """Independent scalar implementation of the additive RK update for
    y' = lam_imp * y (implicit) + lam_exp * y (explicit)."""
    y = y0
    s = tab.stages
    for _ in range(n_steps):
        k_imp = np.zeros(s)
        k_exp = np.zeros(s)
        for i in range(s):
            rhs = y + dt * (tab.A[i, :i] @ k_imp[:i] + tab.A_hat[i, :i] @ k_exp[:i])
            yi = rhs / (1.0 - dt * tab.A[i, i] * lam_imp)
            k_imp[i] = lam_imp * yi
            k_exp[i] = lam_exp * yi
        y = y + dt * (tab.b @ k_imp + tab.b_hat @ k_exp)
    return y
