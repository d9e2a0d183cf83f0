"""Bridge between real-analytic surfaces z2 = Q_gamma + f and involution pairs.

The complexified surface z2 = Q_gamma(z1, w1) + f(z1, w1), with w1 standing
for conj(z1), carries two 2:1 projections whose deck transformations are
holomorphic involutions.  This module solves for the deck transformation,
moves it to diagonalizing (xi, eta) coordinates where it takes the swapped
rotation form, reconstructs a surface from a pair, and samples the images of
the invariant hyperbolas {xi eta = omega}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .involution import InvolutionPair, split_pair
from .series import (
    CoeffSeries,
    CrownSeries,
    MapPair,
    SeriesError,
    identity_pair,
    invert_near_identity,
    multiply,
    substitute_pair,
)
from .transforms import chain_apply

# deck solve: bound on the leftover linear coefficient, relative to max|F|
DECK_SOLVER_TOL = 1e-11
# arguments sampled per modulus on each hyperbola
HYPERBOLA_ARGS = 4


@dataclass(frozen=True)
class BishopSurface:
    """Hyperbolic Bishop surface data: invariant gamma > 1/2 and perturbation f.

    f is a truncated series in (z1, w1) of order >= 3 whose coefficient array
    satisfies c[l, k] = conj(c[k, l]), i.e. f(z1, conj z1) is real-valued.
    """

    gamma: float
    f: CrownSeries

    def __post_init__(self):
        if not self.gamma > 0.5:
            raise SeriesError("hyperbolic regime needs gamma > 1/2")
        if self.f.order() < 3:
            raise SeriesError("perturbation must have order >= 3")
        defect = float(np.max(np.abs(self.f.coeffs - np.conj(self.f.coeffs.T))))
        if defect > 1e-12 * max(1.0, self.f.max_abs_coeff()):
            raise SeriesError("perturbation is not conjugation-symmetric (not real-valued)")

    @property
    def trunc_total(self) -> int:
        return self.f.trunc_total

    def quadric(self) -> CrownSeries:
        """Q_gamma(z1, w1) = z1 w1 + gamma (z1^2 + w1^2)."""
        D = self.trunc_total
        return (
            multiply(CrownSeries.xi(D), CrownSeries.eta(D))
            + (CrownSeries.monomial(2, 0, D) + CrownSeries.monomial(0, 2, D)) * self.gamma
        )

    def height(self) -> CrownSeries:
        """Q_gamma + f: the full graph function."""
        return self.quadric() + self.f


@dataclass(frozen=True)
class DiagonalFrame:
    """Linear change of variables to (xi, eta): z1 = a xi + b eta, w1 = conj-row.

    lam/2 is the argument of the unit root of gamma X^2 - X + gamma, placed so
    that Im e^{i lam/2} >= 0.  Columns are normalized to unit Euclidean norm
    with the phase of a fixed by conjugation-equivariance (b = a e^{i lam/2},
    conj(a) = -a e^{i lam/2}); any other admissible frame differs by a
    product-preserving scaling.
    """

    gamma: float
    lam: float
    a: complex
    b: complex

    @property
    def root(self) -> complex:
        return np.exp(0.5j * self.lam)


def frame_for(gamma: float) -> DiagonalFrame:
    """Diagonalizing frame from the unit roots of gamma X^2 - X + gamma = 0."""
    if not gamma > 0.5:
        raise SeriesError("elliptic/parabolic gamma rejected (needs gamma > 1/2)")
    disc = 4.0 * gamma**2 - 1.0
    root = (1.0 + 1j * np.sqrt(disc)) / (2.0 * gamma)  # Im >= 0 branch
    lam = 2.0 * float(np.angle(root)) % (4.0 * np.pi)
    R = 1.0 / np.sqrt(2.0)
    a = -1j * R * np.exp(-0.25j * lam)
    b = a * np.exp(0.5j * lam)
    return DiagonalFrame(gamma, lam, complex(a), complex(b))


def deck_transformation(M: BishopSurface) -> MapPair:
    """Deck transformation (z1, w1) -> (z1, phi1) of the first projection.

    The height F(z1, .) = Q_gamma + f is centered at its fiberwise critical
    point w_c(z1); there F - F(w_c) = gamma * psi(z1, t)^2 with t = w1 - w_c
    and psi = t sqrt(G/gamma), so the sheet exchange is psi -> -psi:

        phi1 = w_c + psi^{-1}(-psi(t)).

    No small divisors occur.  The critical point is a reversion: the map
    G = Id + (0, (z1 + f_w)/(2 gamma)) sends (z1, w) to (z1, 0) exactly when
    w = w_c(z1), so w_c is the eta-free column of the second component of
    G^{-1} (``invert_near_identity``).  One pass of the equation on that
    seed follows: the column alone can leave a linear defect above the
    tolerance (the ``cubic`` fixture's f scaled by 16, D = 12).  The
    leftover linear coefficient of F - F(w_c) in t measures solver failure
    and is checked against ``DECK_SOLVER_TOL``.
    """
    D = M.trunc_total
    g = M.gamma
    z1 = CrownSeries.xi(D)
    w1 = CrownSeries.eta(D)
    F = M.height()
    dF = M.f.partial(1)

    # fiberwise critical point: 2 gamma w_c + z1 + f_w(z1, w_c) = 0
    V = invert_near_identity((CrownSeries.zero(D), (z1 + dF) * (0.5 / g)))
    seed = np.zeros((D + 1, D + 1), dtype=np.complex128)
    seed[:, 0] = V[1].coeffs[:, 0]
    wc = (z1 + dF.substitute(z1, CrownSeries(seed, D))) * (-0.5 / g)

    # F in centered fiber coordinate t: H(z1, t) = F(z1, t + w_c(z1))
    H = F.substitute(z1, w1 + wc)
    Hc = H.coeffs.copy()
    Hc[:, 0] = 0.0  # drop F(w_c)
    lin_defect = float(np.max(np.abs(Hc[:, 1])))
    if lin_defect > DECK_SOLVER_TOL * max(1.0, F.max_abs_coeff()):
        raise SeriesError(
            f"deck solve: critical-point residual {lin_defect:.3e} exceeds tolerance"
        )
    Hc[:, 1] = 0.0
    G = np.zeros_like(Hc)
    G[:, : D - 1] = Hc[:, 2:]  # divide by t^2
    G = CrownSeries(G, D)

    # psi = t sqrt(G/gamma); the map (z1, t) -> (z1, psi) is unipotent-ish
    unit = (G * (1.0 / g)).power(0.5)
    psi = multiply(w1, unit)
    P = (z1, psi)
    Pinv = invert_map(P)
    deck_t = substitute_pair(Pinv, (z1, -psi))  # (z1, t')
    # back to w1 = t + w_c: phi1(z1, w1) = w_c(z1) + t'(z1, w1 - w_c)
    tprime = deck_t[1].substitute(z1, w1 - wc)
    return (z1, tprime + wc)


def diagonalize(M: BishopSurface) -> tuple[DiagonalFrame, InvolutionPair]:
    """Deck transformation in (xi, eta) coordinates as an involution pair.

    Verifies e^{i lam/2} + e^{-i lam/2} = 1/gamma and returns the pair with
    constant exponent lam plus the higher-order perturbation from f.
    """
    frame = frame_for(M.gamma)
    delta = frame.root
    if abs((delta + 1.0 / delta) - 1.0 / M.gamma) > 1e-12:
        raise SeriesError("root consistency check failed")
    D = M.trunc_total
    deck = deck_transformation(M)
    a, b = frame.a, frame.b
    abar, bbar = np.conj(a), np.conj(b)
    det = a * bbar - b * abar
    # L(xi, eta) = (a xi + b eta, abar xi + bbar eta); conjugate deck by L
    L = (
        CrownSeries.xi(D) * a + CrownSeries.eta(D) * b,
        CrownSeries.xi(D) * abar + CrownSeries.eta(D) * bbar,
    )
    Linv = lambda Z, W: ((Z * bbar - W * b) * (1.0 / det), (W * a - Z * abar) * (1.0 / det))
    deck_L = substitute_pair(deck, L)
    T = Linv(deck_L[0], deck_L[1])
    alpha = CoeffSeries.constant(frame.lam, max(2, D // 2)).project_real()
    pair = split_pair(T, alpha)
    return frame, pair


def reconstruct_surface(
    t: InvolutionPair, frame: DiagonalFrame | None = None
) -> CrownSeries:
    """Surface series S with z2 = S(z1, conj z1) reconstructed from the pair.

    Uses the invariants phi1 = xi + xi o tau1, phi2 = conj-series of phi1 and
    Phi = (xi o tau1) * xi, inverting the map phi = (phi1, phi2) near 0.
    Without a frame the canonical representative is returned (an equivalent
    surface, generally not in Bishop-normalized form).  With the frame of
    ``diagonalize`` the normalization is undone so the unperturbed quadric
    round-trips to Q_gamma exactly.
    """
    D = t.trunc_total
    T = t.components()
    xi = CrownSeries.xi(D)
    phi1 = xi + T[0]
    phi2 = phi1.conj()
    Phi = multiply(T[0], xi)
    inv = invert_map((phi1, phi2))
    surface = Phi.substitute(inv[0], inv[1])
    if frame is None:
        return surface
    # undo the frame normalization: z1 = a * phi1 on the linear level, and the
    # true height on the quadric is c_phi * xi * eta vs Phi = e^{i lam/2} xi eta
    a = frame.a
    c_phi = (abs(a) ** 2) * (1.0 - 4.0 * frame.gamma**2) / frame.gamma
    scaled = surface.substitute(xi * (1.0 / a), CrownSeries.eta(D) * (1.0 / np.conj(a)))
    return scaled * (c_phi * np.exp(-0.5j * frame.lam))


def invert_map(F: MapPair) -> MapPair:
    """Inverse G of a map that fixes the origin with invertible linear part,
    F o G = G o F = Id to truncation: Id + ``invert_near_identity``(F - Id)."""
    xi, eta = identity_pair(F[0].trunc_total)
    V = invert_near_identity((F[0] - xi, F[1] - eta))
    return (xi + V[0], eta + V[1])


def hyperbola_image(
    psi_chain,
    omegas,
    R: float,
    n_pts: int,
    surface: BishopSurface,
    frame: DiagonalFrame,
) -> list[dict]:
    """Sample the images of {xi eta = omega} on the surface for each of
    ``omegas``, in one pass over every curve's points.

    Points (xi, omega/xi) are taken on ``n_pts`` log-spaced moduli in
    (|omega|/R, R) at ``HYPERBOLA_ARGS`` arguments plus the two real-branch points
    xi = +-sqrt(|omega|); each is pushed through the transform chain, then
    through the embedding z1 = a xi + b eta, z2 = Q_gamma + f of the
    originating surface and its frame (on those, z2 is real along the real
    branches).  Real-branch points are flagged.  The rows are those of the
    one-omega calls, concatenated in the order of ``omegas``; an omega outside
    (-R^2, R^2) \\ {0}, or a nan, is rejected before any point is sampled.
    """
    for omega in omegas:
        if not 0.0 < abs(omega) < R * R:
            raise SeriesError(f"omega = {omega} must lie in (-R^2, R^2) \\ {{0}}")
    if n_pts <= 0 or len(omegas) == 0:
        return []
    height = surface.height()
    ks = np.arange(HYPERBOLA_ARGS)
    xi0, eta0, arg_index, omega_of = [], [], [], []
    for omega in omegas:
        lo, hi = abs(omega) / R, R
        mods = np.exp(np.linspace(np.log(lo * 1.02), np.log(hi * 0.98), n_pts))
        xi = (mods[:, None] * np.exp(1j * (2.0 * np.pi * ks / HYPERBOLA_ARGS))).ravel()
        args = np.tile(ks, n_pts)
        sq = np.sqrt(abs(omega))
        if lo < sq < hi:
            xi = np.append(xi, [sq, -sq])
            args = np.append(args, [-1, -2])
        xi0.append(xi)
        eta0.append(omega / xi)
        arg_index.append(args)
        omega_of += [omega] * xi.size
    xi0, eta0, arg_index = (np.concatenate(v) for v in (xi0, eta0, arg_index))
    x, y = chain_apply(psi_chain, xi0, eta0)
    z1 = frame.a * x + frame.b * y
    z2 = height.eval(z1, np.conj(frame.a) * x + np.conj(frame.b) * y)
    is_real = (np.abs(xi0.imag) < 1e-14) & (np.abs(eta0.imag) < 1e-14)
    return [
        {
            "omega": omega,
            "arg_index": k,
            "re_z1": a.real,
            "im_z1": a.imag,
            "re_z2": b.real,
            "im_z2": b.imag,
            "is_real_branch": real,
        }
        for omega, k, a, b, real in zip(
            omega_of, arg_index.tolist(), z1.tolist(), z2.tolist(), is_real.tolist()
        )
    ]


def surface_from_config(cfg: dict) -> BishopSurface:
    """Surface from config data: gamma plus a monomial list for f.

    Monomials are [k, l, re, im] meaning (re + i im) z1^k w1^l with k, l >= 0
    and k + l <= degree; the conjugate entry is filled in automatically when
    absent.
    """
    try:
        gamma = float(cfg["gamma"])
    except (KeyError, TypeError, ValueError):
        raise SeriesError(f"gamma: must be a number, got {cfg.get('gamma')!r}") from None
    D = int(cfg.get("degree", 12))
    c = np.zeros((D + 1, D + 1), dtype=np.complex128)
    monomials = cfg.get("f_monomials", [])
    if not isinstance(monomials, list):
        raise SeriesError(f"f_monomials: must be a list of [k, l, re, im], got {monomials!r}")
    for entry in monomials:
        try:
            k, l, re, im = entry
            k, l, val = int(k), int(l), complex(re, im)
        except (TypeError, ValueError):
            raise SeriesError(
                f"f_monomials entry {entry}: need four numbers [k, l, re, im]"
            ) from None
        if min(k, l) < 0 or k + l > D:
            raise SeriesError(f"f_monomials entry {entry}: need k, l >= 0 and k + l <= {D}")
        c[k, l] += val
        if k != l:
            c[l, k] += np.conj(val)
        elif im != 0.0:
            raise SeriesError("diagonal monomials of f must be real")
    return BishopSurface(gamma, CrownSeries(c, D))
