"""Shock sensor and penalty: how far the field is from a pure polynomial
that preserves the sub-cell averages.  One operator per (p, n),
`ReferenceElement.sensor_operator`, carries the whole sensor, and
`evaluate_field_sensor`, its one reader, applies it to every element and
component at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import reference_element

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
    """Per-element penalties and each component's sensor values; `s` and `s0`
    are the driving component's (the first with the largest s/s0), taken
    when read."""

    gamma: np.ndarray   # (n_elements,) penalty >= 0
    s_all: np.ndarray   # (m, n_elements) s_K of each component
    s0_all: np.ndarray  # (m, n_elements) its normalization

    def _driving(self, values: np.ndarray) -> np.ndarray:
        comp = np.argmax(self.s_all / self.s0_all, axis=0)
        return values[comp, np.arange(comp.size)]

    s = property(lambda self: self._driving(self.s_all))
    s0 = property(lambda self: self._driving(self.s0_all))


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
        return SensorReport(gamma=np.zeros(n_el), s_all=np.zeros((m, n_el)),
                            s0_all=np.full((m, n_el), config.s_eps))

    # |sub-cell averages| and |fit residuals| of all components and elements
    # at once, sub-cells leading so that the maxima over them run along
    # contiguous rows: peaks is (2, m, n_el)
    both = np.abs(reference_element(p, n).sensor_operator @ U.reshape(-1, dof).T)
    peaks = both.reshape(2, n, m, n_el).max(axis=1)
    s0_all = peaks[0] + config.s_eps
    # c_pen max(0, s/s0 - tau) of the driving component; rounding keeps order,
    # so flooring the largest ratio at tau and subtracting it gives the same bits
    tau = config.tau_for(p)
    gamma = config.c_pen * ((peaks[1] / s0_all).max(axis=0, initial=tau) - tau)
    return SensorReport(gamma=gamma, s_all=peaks[1], s0_all=s0_all)
