"""1D element partitions with a uniform sub-grid inside each element.  The Mesh
owns every coordinate map (`nodes`, `reference_coords`, `faces`, `element_of`),
as in the `StartUp1D` grid of Hesthaven & Warburton, Nodal Discontinuous
Galerkin Methods, 2008; a local projection takes a one-element mesh."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


@lru_cache(maxsize=None)
def reference_subcell_edges(n_sub: int) -> np.ndarray:
    """The n_sub + 1 edges of n_sub equal sub-cells of [-1, 1]."""
    return np.linspace(-1.0, 1.0, n_sub + 1)


@dataclass(frozen=True, eq=False)
class Mesh:
    """Partition of [a, b] into elements, each split into n_sub equal
    sub-cells; `widths` holds the element widths.  A mesh compares and
    hashes by identity, as its array field has no truth value."""

    element_boundaries: np.ndarray
    n_sub: int

    def __post_init__(self):
        xb = np.asarray(self.element_boundaries, dtype=float)
        object.__setattr__(self, "element_boundaries", xb)
        if xb.ndim != 1 or xb.size < 2:
            raise ValueError("element_boundaries must be a 1D array of at least 2 points")
        widths = np.diff(xb)
        if not np.all(widths > 0):
            raise ValueError("element_boundaries must be strictly increasing")
        if self.n_sub < 1:
            raise ValueError("n_sub must be a positive integer")
        object.__setattr__(self, "widths", widths)

    @property
    def a(self) -> float:
        return float(self.element_boundaries[0])

    @property
    def b(self) -> float:
        return float(self.element_boundaries[-1])

    @property
    def n_elements(self) -> int:
        return self.element_boundaries.size - 1

    def element_bounds(self, element: int) -> tuple[float, float]:
        if not 0 <= element < self.n_elements:
            raise IndexError(f"element index {element} out of range")
        return (
            float(self.element_boundaries[element]),
            float(self.element_boundaries[element + 1]),
        )

    def nodes(self, xi) -> np.ndarray:
        """x_e + (xi + 1) h_e / 2 on every element e: shape (E,) + xi.shape."""
        xi = np.asarray(xi, dtype=float)
        per_element = (-1,) + (1,) * xi.ndim
        return (self.element_boundaries[:-1].reshape(per_element)
                + 0.5 * (xi + 1.0) * self.widths.reshape(per_element))

    def reference_coords(self, x) -> np.ndarray:
        """2 (x - x_e)/h_e - 1, the inverse of `nodes`: row e of x on element e."""
        x = np.asarray(x, dtype=float)
        per_element = (-1,) + (1,) * (x.ndim - 1)
        return (2.0 * (x - self.element_boundaries[:-1].reshape(per_element))
                / self.widths.reshape(per_element) - 1.0)

    @cached_property
    def faces(self) -> np.ndarray:
        """The E * n_sub + 1 sub-cell faces, left to right; the last is b."""
        return np.append(self.nodes(reference_subcell_edges(self.n_sub)[:-1]).ravel(), self.b)

    def element_of(self, x):
        """Index of the element whose half-open interval [x_e, x_e+1) holds
        x, the last element for x = b; elementwise over an array x."""
        x = np.asarray(x, dtype=float)
        if x.size and not (self.a <= x.min() and x.max() <= self.b):     # NaN fails too
            raise ValueError(f"x outside the mesh [{self.a:g}, {self.b:g}]")
        return np.minimum(np.searchsorted(self.element_boundaries, x, side="right") - 1,
                          self.n_elements - 1)


def build_uniform_mesh(a: float, b: float, n_elements: int, n_sub: int) -> Mesh:
    """Equal elements on [a, b], each with n_sub equal sub-cells."""
    if b <= a:
        raise ValueError(f"invalid interval: b={b} must exceed a={a}")
    if n_elements < 1:
        raise ValueError("n_elements must be a positive integer")
    boundaries = np.linspace(a, b, n_elements + 1)
    return Mesh(element_boundaries=boundaries, n_sub=n_sub)
