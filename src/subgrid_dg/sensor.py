"""Shock sensor and penalty: how far the field is from a pure polynomial
that preserves the sub-cell averages."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import ElementSpace, reference_element
from .projections import NonInjectiveError, project_avg_preserving, project_lo

DEFAULT_C_PEN = 1.0e7
DEFAULT_S_EPS = 1.0e-10


def default_tau(p: int) -> float:
    return 0.01 / p if p > 0 else np.inf


@dataclass(frozen=True)
class SensorConfig:
    c_pen: float = DEFAULT_C_PEN
    tau: float | None = None      # None -> 0.01 / p
    s_eps: float = DEFAULT_S_EPS

    def tau_for(self, p: int) -> float:
        return self.tau if self.tau is not None else default_tau(p)


@dataclass(frozen=True)
class SensorReport:
    """Per-element sensor values, normalizations, and penalties."""

    s: np.ndarray       # (n_elements,) max over components of s_K
    s0: np.ndarray      # (n_elements,) normalization of the maximizing component
    gamma: np.ndarray   # (n_elements,) penalty >= 0


@lru_cache(maxsize=None)
def _sensor_operator(p: int, n: int) -> np.ndarray:
    """(2n, dof) matrix mapping coefficients to the sub-cell averages (first
    n rows) and to the residual of the best average-preserving polynomial
    fit of those averages (last n): res = (G pinv(G) - I) avg."""
    if n < p + 1:
        raise NonInjectiveError(
            f"sensor undefined: averaging not injective for (p={p}, n={n})"
        )
    leg_sub_avg = reference_element(p, n).leg_sub_avg
    G = leg_sub_avg.T  # (n, p+1)
    fit_residual = G @ np.linalg.pinv(G) - np.eye(n)
    averages = np.hstack([leg_sub_avg[1:].T, np.eye(n)])   # (n, dof)
    return np.vstack([averages, fit_residual @ averages])


def sensor_value(c: np.ndarray, space: ElementSpace) -> float:
    """s_K: max sub-cell-average discrepancy between the field and its best
    average-preserving polynomial surrogate."""
    avgs = project_lo(c, space)
    fit = project_avg_preserving(c, space)
    G = reference_element(space.p, space.n).leg_sub_avg.T
    return float(np.max(np.abs(G @ fit - avgs)))


def sensor_scale(c: np.ndarray, space: ElementSpace, s_eps: float = DEFAULT_S_EPS) -> float:
    """s0_K: max absolute sub-cell average plus the zero-division guard."""
    if s_eps <= 0:
        raise ValueError("s_eps must be positive")
    return float(np.max(np.abs(project_lo(c, space)))) + s_eps


def penalty(s: float, s0: float, c_pen: float = DEFAULT_C_PEN, tau: float = 0.01) -> float:
    """gamma_K = C_pen * max(0, s/s0 - tau)."""
    if s0 <= 0:
        raise ValueError("sensor scale must be positive")
    return c_pen * max(0.0, s / s0 - tau)


def evaluate_field_sensor(
    U: np.ndarray,
    space: ElementSpace,
    config: SensorConfig = SensorConfig(),
    s_eps: float | None = None,
) -> SensorReport:
    """Per-element sensor over a global state U of shape (m, n_elements, dof).

    For systems the component with the largest ratio s/s0 drives the single
    element penalty.  With p = 0 there is nothing to penalize and gamma = 0.
    """
    U = np.asarray(U, dtype=float)
    m, n_el, dof = U.shape
    if dof != space.dof:
        raise ValueError("state dof does not match space")
    eps = config.s_eps if s_eps is None else s_eps
    if space.p == 0:
        zero = np.zeros(n_el)
        return SensorReport(s=zero, s0=np.full(n_el, eps), gamma=zero.copy())

    # |sub-cell averages| and |fit residuals| of all components and elements
    # at once, sub-cells leading so that the maxima over them run along
    # contiguous rows: peaks is (2, m, n_el)
    both = np.abs(_sensor_operator(space.p, space.n) @ U.reshape(-1, dof).T)
    peaks = both.reshape(2, space.n, m, n_el).max(axis=1)
    tau = config.tau_for(space.p)
    if m == 1:
        s = peaks[1, 0]
        s0 = peaks[0, 0] + eps
        ratio = s / s0
    else:
        s_all = peaks[1]
        s0_all = peaks[0] + eps
        ratio_all = s_all / s0_all
        comp = np.argmax(ratio_all, axis=0)          # driving component per element
        idx = np.arange(n_el)
        s, s0, ratio = s_all[comp, idx], s0_all[comp, idx], ratio_all[comp, idx]
    gamma = config.c_pen * np.maximum(0.0, ratio - tau)
    return SensorReport(s=s, s0=s0, gamma=gamma)
