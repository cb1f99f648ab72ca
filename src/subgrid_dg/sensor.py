"""Shock sensor and penalty: how far the field is from a pure polynomial
that preserves the sub-cell averages.  One operator per (p, n),
`_sensor_operator`, carries the whole sensor, and `evaluate_field_sensor`,
its one reader, applies it to every element and component at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import reference_element
from .projections import average_fit

DEFAULT_C_PEN = 1.0e7
DEFAULT_S_EPS = 1.0e-10


def default_tau(p: int) -> float:
    return 0.01 / p if p > 0 else np.inf


@dataclass(frozen=True)
class SensorConfig:
    c_pen: float = DEFAULT_C_PEN
    tau: float | None = None      # None -> 0.01 / p
    s_eps: float = DEFAULT_S_EPS

    def __post_init__(self):
        tau = 0.0 if self.tau is None else self.tau
        if not (0.0 < self.s_eps < np.inf and 0.0 <= self.c_pen < np.inf and 0.0 <= tau < np.inf):
            raise ValueError(f"need finite s_eps > 0, c_pen >= 0 and tau >= 0: {self}")

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
    fit of those averages (last n): res = (G pinv(G) - I) avg, G = leg_sub_avg.T."""
    leg_sub_avg = reference_element(p, n).leg_sub_avg              # (p+1, n)
    fit_residual = leg_sub_avg.T @ average_fit(p, n) - np.eye(n)
    averages = np.hstack([leg_sub_avg[1:].T, np.eye(n)])   # (n, dof)
    return np.vstack([averages, fit_residual @ averages])


def evaluate_field_sensor(U: np.ndarray, p: int, n: int,
                          config: SensorConfig = SensorConfig()) -> SensorReport:
    """Per-element sensor over a global state U of shape (m, n_elements, p + n)
    of degree p with n sub-cells; it reads no geometry.

    For systems the component with the largest ratio s/s0 drives the single
    element penalty.  With p = 0 there is nothing to penalize and gamma = 0.
    """
    U = np.asarray(U, dtype=float)
    m, n_el, dof = U.shape
    if dof != p + n:
        raise ValueError(f"state dof {dof} does not match p + n = {p + n}")
    if p == 0:
        zero = np.zeros(n_el)
        return SensorReport(s=zero, s0=np.full(n_el, config.s_eps), gamma=zero.copy())

    # |sub-cell averages| and |fit residuals| of all components and elements
    # at once, sub-cells leading so that the maxima over them run along
    # contiguous rows: peaks is (2, m, n_el)
    both = np.abs(_sensor_operator(p, n) @ U.reshape(-1, dof).T)
    peaks = both.reshape(2, n, m, n_el).max(axis=1)
    tau = config.tau_for(p)
    if m == 1:
        s = peaks[1, 0]
        s0 = peaks[0, 0] + config.s_eps
        ratio = s / s0
    else:
        s_all = peaks[1]
        s0_all = peaks[0] + config.s_eps
        ratio_all = s_all / s0_all
        comp = np.argmax(ratio_all, axis=0)          # driving component per element
        idx = np.arange(n_el)
        s, s0, ratio = s_all[comp, idx], s0_all[comp, idx], ratio_all[comp, idx]
    gamma = config.c_pen * np.maximum(0.0, ratio - tau)
    return SensorReport(s=s, s0=s0, gamma=gamma)
