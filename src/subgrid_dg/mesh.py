"""1D element partitions with a uniform sub-grid inside each element."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Partition of [a, b] into elements, each split into n_sub equal sub-cells."""

    element_boundaries: np.ndarray
    n_sub: int

    def __post_init__(self):
        xb = np.asarray(self.element_boundaries, dtype=float)
        object.__setattr__(self, "element_boundaries", xb)
        if xb.ndim != 1 or xb.size < 2:
            raise ValueError("element_boundaries must be a 1D array of at least 2 points")
        if not np.all(np.diff(xb) > 0):
            raise ValueError("element_boundaries must be strictly increasing")
        if self.n_sub < 1:
            raise ValueError("n_sub must be a positive integer")

    @property
    def a(self) -> float:
        return float(self.element_boundaries[0])

    @property
    def b(self) -> float:
        return float(self.element_boundaries[-1])

    @property
    def n_elements(self) -> int:
        return self.element_boundaries.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.element_boundaries)

    def element_bounds(self, element: int) -> tuple[float, float]:
        if not 0 <= element < self.n_elements:
            raise IndexError(f"element index {element} out of range")
        return (
            float(self.element_boundaries[element]),
            float(self.element_boundaries[element + 1]),
        )


def build_uniform_mesh(a: float, b: float, n_elements: int, n_sub: int) -> Mesh:
    """Equal elements on [a, b], each with n_sub equal sub-cells."""
    if b <= a:
        raise ValueError(f"invalid interval: b={b} must exceed a={a}")
    if n_elements < 1:
        raise ValueError("n_elements must be a positive integer")
    if n_sub < 1:
        raise ValueError("n_sub must be a positive integer")
    boundaries = np.linspace(a, b, n_elements + 1)
    return Mesh(element_boundaries=boundaries, n_sub=n_sub)


def subcell_bounds(mesh: Mesh, element: int, sub: int) -> tuple[float, float]:
    """Bounds of sub-cell `sub` of element `element`."""
    xl, xr = mesh.element_bounds(element)
    if not 0 <= sub < mesh.n_sub:
        raise IndexError(f"sub-cell index {sub} out of range")
    w = (xr - xl) / mesh.n_sub
    return (xl + sub * w, xl + (sub + 1) * w)
