"""Transform-chain links: polynomial maps and product-preserving scalings.

A chain is a list of links in composition order (outermost first), evaluated
on scalars or arrays of points of C^2; each link also knows its series
representation so chains can be conjugated through and checked for
rho-commutation (real coefficients).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .series import CoeffSeries, CrownSeries, MapPair, identity_pair, scaling_pair


@dataclass(frozen=True)
class PolyLink:
    """A polynomial map given by its component series, with a stored inverse."""

    forward: MapPair
    inverse: MapPair
    label: str = "poly"

    @cached_property
    def _point_maps(self) -> MapPair:
        """The forward maps cut to their own degree, for speed: above it
        every term is zero at finite points, so the values are the
        full-degree ones within evaluation rounding (not their bits)."""
        cut = ((f, max(f.degree(), 0)) for f in self.forward)
        return tuple(CrownSeries(f.coeffs[: d + 1, : d + 1], d) for f, d in cut)

    def apply_point(self, x, y):
        f, g = self._point_maps
        return f.eval(x, y), g.eval(x, y)

    def realness_defect(self) -> float:
        return max(
            self.forward[0].realness_defect(), self.forward[1].realness_defect()
        )


@dataclass(frozen=True)
class ScalingLink:
    """(xi, eta) -> (theta(xi eta) xi, theta(xi eta)^-1 eta); preserves xi*eta."""

    theta: CoeffSeries
    label: str = "scaling"

    def theta_inv(self) -> CoeffSeries:
        return self.theta.reciprocal()

    def forward_pair(self, D: int) -> MapPair:
        return scaling_pair(self.theta, self.theta_inv(), D)

    def inverse_pair(self, D: int) -> MapPair:
        return ScalingLink(self.theta_inv(), self.label).forward_pair(D)

    def apply_point(self, x, y):
        t = self.theta.eval(x * y)
        return (t * x, y / t)

    def realness_defect(self) -> float:
        return self.theta.realness_defect()


@dataclass(frozen=True)
class RadialLink:
    """(xi, eta) -> (t xi, +-t eta): radial rescale, optional eta sign flip."""

    t: float
    flip: bool = False
    label: str = "rescale"

    def apply_point(self, x, y):
        s = -1.0 if self.flip else 1.0
        return (self.t * x, s * self.t * y)

    def realness_defect(self) -> float:
        return 0.0


def chain_apply(chain, x, y):
    """Evaluate the composition chain[0] o chain[1] o ... at points.

    x and y are scalars or arrays of one shape; the result has that shape.
    Chains are stored in composition order (outermost first), so the last
    link acts first.
    """
    for link in reversed(chain):
        x, y = link.apply_point(x, y)
    return x, y


def chain_realness_defect(chain) -> float:
    return max((link.realness_defect() for link in chain), default=0.0)


def poly_link_from_U(U: MapPair, U_inv_tail: MapPair, label: str = "near-id") -> PolyLink:
    """Id+U with its inverse Id+V, both stored as full component maps."""
    D = U[0].trunc_total
    xi, eta = identity_pair(D)
    return PolyLink((xi + U[0], eta + U[1]), (xi + U_inv_tail[0], eta + U_inv_tail[1]), label)
