"""crownkam: truncated power-series engine and KAM-like iteration for pairs
of holomorphic involutions near a hyperbolic CR singularity.

The package constructs the involution pair of a perturbed hyperbolic Bishop
quadric, normalizes it to finite order, and iteratively conjugates it toward
a family of invariant holomorphic hyperbolas {xi eta = omega}, reporting
every measured quantity against the corresponding analytic bound.
"""

from .involution import InvolutionPair, ReversibleMap, compose_sigma, skew_term
from .kamstep import StepGeometry, main_step
from .moserwebster import BishopSurface, diagonalize, reconstruct_surface
from .prenormal import poincare_dulac, prenormalize, radius_search
from .runner import RunConfig, iterate, prepare, run_cli
from .series import CoeffSeries, CrownNormParams, CrownSeries
from .sieve import IntervalSet, build_schedule, excise_resonances, pyartli_bound

__all__ = [
    "BishopSurface",
    "CoeffSeries",
    "CrownNormParams",
    "CrownSeries",
    "IntervalSet",
    "InvolutionPair",
    "ReversibleMap",
    "RunConfig",
    "StepGeometry",
    "build_schedule",
    "compose_sigma",
    "diagonalize",
    "excise_resonances",
    "iterate",
    "main_step",
    "poincare_dulac",
    "prenormalize",
    "prepare",
    "pyartli_bound",
    "radius_search",
    "reconstruct_surface",
    "run_cli",
    "skew_term",
]

__version__ = "0.1.0"
