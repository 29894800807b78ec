"""Composite Gauss-Legendre quadrature on [0, 1].

The default rule (64 panels x 8 nodes) resolves the oscillation of the
first ~32 eigenmodes with at least ten points per wavelength.  Endpoint
values of sampled functions are recovered by polynomial extrapolation from
the first/last panel, since Gauss nodes exclude the interval ends.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ShapeError

DEFAULT_PANELS = 64
DEFAULT_NODES_PER_PANEL = 8


def _lagrange_weights(nodes: np.ndarray, x: float) -> np.ndarray:
    """Weights w_i with sum_i w_i f(nodes_i) = p(x) for the interpolant p."""
    n = len(nodes)
    w = np.ones(n)
    for i in range(n):
        for k in range(n):
            if k != i:
                w[i] *= (x - nodes[k]) / (nodes[i] - nodes[k])
    return w


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule with endpoint extrapolation stencils."""

    nodes: np.ndarray
    weights: np.ndarray
    panels: int
    nodes_per_panel: int
    ext_left: np.ndarray = field(repr=False, default=None)
    ext_right: np.ndarray = field(repr=False, default=None)

    @property
    def size(self) -> int:
        return len(self.nodes)

    def endpoint_values(self, values: np.ndarray) -> tuple[float, float]:
        """Extrapolate node samples to x=0 and x=1."""
        if len(values) != self.size:
            raise ShapeError(
                f"expected {self.size} samples, got {len(values)}"
            )
        k = self.nodes_per_panel
        left = float(self.ext_left @ values[:k])
        right = float(self.ext_right @ values[-k:])
        return left, right


def gauss_legendre_rule(
    panels: int = DEFAULT_PANELS,
    nodes_per_panel: int = DEFAULT_NODES_PER_PANEL,
) -> QuadratureRule:
    """Build the composite rule on [0, 1] with the given panel layout."""
    if panels < 1 or nodes_per_panel < 2:
        raise ValueError("need at least 1 panel and 2 nodes per panel")
    x, w = leggauss(nodes_per_panel)
    edges = np.linspace(0.0, 1.0, panels + 1)
    nodes = np.concatenate(
        [0.5 * (b - a) * x + 0.5 * (a + b) for a, b in zip(edges, edges[1:])]
    )
    weights = np.concatenate(
        [0.5 * (b - a) * w for a, b in zip(edges, edges[1:])]
    )
    ext_left = _lagrange_weights(nodes[:nodes_per_panel], 0.0)
    ext_right = _lagrange_weights(nodes[-nodes_per_panel:], 1.0)
    return QuadratureRule(
        nodes=nodes,
        weights=weights,
        panels=panels,
        nodes_per_panel=nodes_per_panel,
        ext_left=ext_left,
        ext_right=ext_right,
    )
