"""Truncated power-series arithmetic on the crown around {xi*eta = omega}.

Two representations are used throughout:

* ``CoeffSeries`` -- a univariate truncated series in the product variable
  z = xi*eta.  These hold rotation exponents alpha(z), scaling factors
  Theta(z) and the coefficient functions of the crown decomposition.
* ``CrownSeries`` -- a dense triangular array of bivariate coefficients
  a[m, n] of xi^m eta^n with total degree m + n <= D.

Every bivariate series splits uniquely as

    f = f_00(xi*eta) + sum_l f_l0(xi*eta) xi^l + sum_j f_0j(xi*eta) eta^j,

and the weighted norm used by the iteration is

    ||f||_{omega,beta,r} = sum_{l*j=0} |f_lj|_{omega,beta} r^(l+j),

where |h|_{omega,beta} is the sup of |h| over the disk |z - omega| <= beta.
By the maximum-modulus principle that sup is attained on the circle
|z - omega| = beta; ``crown_norm`` samples ``boundary_samples`` points of it,
so the value it returns is a lower estimate of the true norm, not a bound.

Truncation drops every term above total degree D and keeps no record of
what it dropped.

All values are immutable after construction; operations return new objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

REALNESS_TOL = 1e-10


class SeriesError(ValueError):
    """Raised on malformed operands or violated preconditions."""


def _circle(omega, beta: float, n: int) -> np.ndarray:
    """n points of |z - omega| = beta, or omega alone when beta = 0: the
    samples of every sampled disk sup.  An array of centres gets one row
    of points per centre, each with the bits of a lone centre's circle."""
    omega = np.asarray(omega, dtype=np.complex128)[..., None]
    if beta == 0.0:
        return omega
    th = 2.0 * np.pi * np.arange(n) / n
    return omega + beta * np.exp(1j * th)


def _check_cut(c0: complex, name: str) -> None:
    """Refuse a constant term on or next to the principal cut (-inf, 0]."""
    if c0 == 0 or (c0.real < 0 and abs(c0.imag) < 1e-14 * abs(c0)):
        raise SeriesError(f"{name} branch-cut proximity at constant term")


def _binomial_series(c0: complex, p: float, n: int) -> list:
    """c0^p C(p, k) for k < n: the Taylor weights of c0^p (1 + u)^p.

    A fractional p needs c0 away from the cut, any p a nonzero c0.
    """
    if c0 == 0:
        raise SeriesError(f"cannot raise a series with zero constant term to the power {p}")
    if p != int(p):
        _check_cut(c0, "power")
    c = [c0**p]
    for k in range(1, n):
        c.append(c[-1] * (p - k + 1) / k)
    return c


# ---------------------------------------------------------------------------
# univariate series in z = xi*eta
# ---------------------------------------------------------------------------


class CoeffSeries:
    """Truncated univariate complex power series c_0 + c_1 z + ... + c_D z^D."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, real: bool = False, realness_tol: float = REALNESS_TOL):
        c = np.asarray(coeffs, dtype=np.complex128).copy()
        if c.ndim != 1 or c.size == 0:
            raise SeriesError("CoeffSeries needs a nonempty 1-d coefficient array")
        if real:
            worst = float(np.max(np.abs(c.imag))) if c.size else 0.0
            scale = max(1.0, float(np.max(np.abs(c))))
            if worst > realness_tol * scale:
                raise SeriesError(
                    f"realness check failed: max |Im c_k| = {worst:.3e}"
                )
            c = c.real.astype(np.complex128)
        c.setflags(write=False)
        self.coeffs = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(trunc_z: int) -> "CoeffSeries":
        return CoeffSeries(np.zeros(trunc_z + 1), real=True)

    @staticmethod
    def constant(value, trunc_z: int) -> "CoeffSeries":
        c = np.zeros(trunc_z + 1, dtype=np.complex128)
        c[0] = value
        return CoeffSeries(c, real=abs(complex(value).imag) == 0.0)

    # -- basic queries -----------------------------------------------------

    @property
    def trunc_z(self) -> int:
        return self.coeffs.size - 1

    def is_real(self, tol: float = REALNESS_TOL) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.coeffs))))
        return float(np.max(np.abs(self.coeffs.imag))) <= tol * scale

    def realness_defect(self) -> float:
        return float(np.max(np.abs(self.coeffs.imag)))

    def __repr__(self):
        return f"CoeffSeries(deg={self.trunc_z}, c0={self.coeffs[0]:.6g})"

    # -- ring operations ---------------------------------------------------

    def _matched(self, other: "CoeffSeries") -> tuple[np.ndarray, np.ndarray]:
        n = max(self.trunc_z, other.trunc_z) + 1
        a = np.zeros(n, dtype=np.complex128)
        b = np.zeros(n, dtype=np.complex128)
        a[: self.coeffs.size] = self.coeffs
        b[: other.coeffs.size] = other.coeffs
        return a, b

    def __add__(self, other):
        if isinstance(other, CoeffSeries):
            a, b = self._matched(other)
            return CoeffSeries(a + b)
        c = self.coeffs.copy()
        c[0] += other
        return CoeffSeries(c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, CoeffSeries):
            a, b = self._matched(other)
            return CoeffSeries(a - b)
        return self + (-other)

    def __neg__(self):
        return CoeffSeries(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, CoeffSeries):
            n = max(self.trunc_z, other.trunc_z)
            full = np.convolve(self.coeffs, other.coeffs)
            return CoeffSeries(full[: n + 1])
        return CoeffSeries(self.coeffs * other)

    __rmul__ = __mul__

    def truncate(self, trunc_z: int) -> "CoeffSeries":
        if trunc_z >= self.trunc_z:
            c = np.zeros(trunc_z + 1, dtype=np.complex128)
            c[: self.coeffs.size] = self.coeffs
            return CoeffSeries(c)
        return CoeffSeries(self.coeffs[: trunc_z + 1])

    def conj(self) -> "CoeffSeries":
        """Series with complex-conjugated coefficients (bar-series)."""
        return CoeffSeries(np.conj(self.coeffs))

    def derivative(self, order: int = 1) -> "CoeffSeries":
        c = self.coeffs
        for _ in range(order):
            if c.size == 1:
                c = np.zeros(1, dtype=np.complex128)
                break
            c = c[1:] * np.arange(1, c.size)
        return CoeffSeries(c)

    def project_real(self, tol: float = REALNESS_TOL) -> "CoeffSeries":
        """Zero imaginary parts after checking they are below tolerance."""
        return CoeffSeries(self.coeffs, real=True, realness_tol=tol)

    # -- analytic operations -----------------------------------------------

    def eval(self, z):
        """Horner evaluation at scalar or array argument."""
        z = np.asarray(z, dtype=np.complex128)
        out = np.full(z.shape, self.coeffs[-1], dtype=np.complex128)
        for k in range(self.coeffs.size - 2, -1, -1):
            out = out * z + self.coeffs[k]
        return out if out.shape else complex(out)

    def disk_max(self, omega, beta: float, n_samples: int = 64) -> float:
        """max |f| over the circle |z - omega| = beta (maximum modulus), or
        over the circles around every centre of an array omega, in one pass.

        beta = 0 degenerates to evaluation at omega.
        """
        return float(np.max(np.abs(self.eval(_circle(omega, beta, n_samples)))))

    def _taylor(self, c, scale: complex = 1.0) -> "CoeffSeries":
        """sum_k c[k] g^k with g = scale (f - f(0)) in the truncated ring, by
        Horner.

        g has order >= 1, so its powers above the truncation vanish and c
        holds one weight per coefficient of f.
        """
        g = self.coeffs * scale
        g[0] = 0.0
        acc = np.zeros(g.size, dtype=np.complex128)
        acc[0] = c[-1]
        for ck in c[-2::-1]:
            acc = np.convolve(acc, g)[: g.size]
            acc[0] += ck
        return CoeffSeries(acc)

    def reciprocal(self) -> "CoeffSeries":
        return self.power(-1)

    def power(self, p: float) -> "CoeffSeries":
        """f^p = f(0)^p (1 + u)^p with u = f/f(0) - 1 (principal branch)."""
        c0 = complex(self.coeffs[0])
        return self._taylor(_binomial_series(c0, p, self.coeffs.size), 1.0 / c0)

    def exp(self, a: complex = 1.0) -> "CoeffSeries":
        """exp(a*f) = e^{a f(0)} sum_k (a f - a f(0))^k / k!; requires bounded
        constant term."""
        c0 = a * self.coeffs[0]
        if abs(c0.real) >= 50.0:
            raise SeriesError(f"exp overflow guard tripped: |Re(a f(0))| = {abs(c0.real):.3g}")
        k = np.arange(self.coeffs.size)
        return self._taylor(np.exp(c0) / np.cumprod(np.maximum(k, 1.0)), a)

    def log(self) -> "CoeffSeries":
        """Principal log f = log f(0) + log(1 + u), u = f/f(0) - 1, for a
        constant term away from the cut."""
        c0 = complex(self.coeffs[0])
        _check_cut(c0, "log")
        k = np.arange(1, self.coeffs.size)
        c = np.concatenate(([np.log(c0)], (-1.0) ** (k + 1) / k))
        return self._taylor(c, 1.0 / c0)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list:
        return [[float(c.real), float(c.imag)] for c in self.coeffs]

    @staticmethod
    def from_json(data: Sequence[Sequence[float]]) -> "CoeffSeries":
        return CoeffSeries(np.array([complex(re, im) for re, im in data]))


# ---------------------------------------------------------------------------
# norm parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrownNormParams:
    """Parameters (omega, beta, r) of a nonempty crown, |omega| < r^2 - beta,
    plus sampling density."""

    omega: float
    beta: float
    radius: float
    boundary_samples: int = 64

    def __post_init__(self):
        if self.radius <= 0:
            raise SeriesError("radius must be positive")
        if self.beta < 0:
            raise SeriesError("beta must be nonnegative")
        if self.boundary_samples < 8:
            raise SeriesError("boundary_samples must be >= 8")
        if abs(self.omega) >= self.radius**2 - self.beta:
            raise SeriesError(
                f"empty crown: |omega| = {abs(self.omega):.3g} >= r^2 - beta = "
                f"{self.radius ** 2 - self.beta:.3g}"
            )


# ---------------------------------------------------------------------------
# bivariate triangular series
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _triangle_mask(n: int) -> np.ndarray:
    """Read-only mask of the positions m + n <= n - 1 of an n x n array."""
    i = np.arange(n)
    mask = (i[:, None] + i[None, :]) <= (n - 1)
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=None)
def _crown_index(D: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather indices of the crown decomposition at truncation D.

    Row i of the returned (2D+1, D//2+1) index arrays (rows, cols) addresses
    f_lj[k] = a[k+l, k+j] for the i-th entry of ``crown_decompose`` ((0, 0),
    then (l, 0) for l = 1..D, then (0, j) for j = 1..D); positions with
    2k + l + j > D point into the zero padding beyond the (D+1)^2 square.
    ``degree`` holds l + j per row.
    """
    shift = np.arange(1, D + 1)
    zeros = np.zeros(D, dtype=int)
    l = np.concatenate(([0], shift, zeros))
    j = np.concatenate(([0], zeros, shift))
    k = np.arange(D // 2 + 1)
    rows = k[None, :] + l[:, None]
    cols = k[None, :] + j[:, None]
    outside = rows + cols > D
    rows[outside] = D + 1
    cols[outside] = D + 1
    degree = l + j
    for arr in (rows, cols, degree):
        arr.setflags(write=False)
    return rows, cols, degree


class CrownSeries:
    """Dense triangular bivariate series sum a[m,n] xi^m eta^n, m+n <= D."""

    __slots__ = ("coeffs", "trunc_total")

    def __init__(self, coeffs, trunc_total: int | None = None):
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise SeriesError("CrownSeries needs a square 2-d coefficient array")
        D = c.shape[0] - 1 if trunc_total is None else trunc_total
        if c.shape[0] != D + 1:
            raise SeriesError("coefficient array does not match trunc_total")
        c = c.copy()
        c[~_triangle_mask(D + 1)] = 0.0
        c.setflags(write=False)
        self.coeffs = c
        self.trunc_total = D

    @classmethod
    def _adopt(cls, coeffs: np.ndarray, D: int) -> "CrownSeries":
        """Wrap a freshly computed, already triangular array without copying.

        The caller hands over ownership: nothing else may hold ``coeffs``.
        """
        coeffs.setflags(write=False)
        obj = cls.__new__(cls)
        obj.coeffs = coeffs
        obj.trunc_total = D
        return obj

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(D: int) -> "CrownSeries":
        return CrownSeries(np.zeros((D + 1, D + 1)), D)

    @staticmethod
    def constant(value, D: int) -> "CrownSeries":
        c = np.zeros((D + 1, D + 1), dtype=np.complex128)
        c[0, 0] = value
        return CrownSeries(c, D)

    @staticmethod
    def monomial(m: int, n: int, D: int, value=1.0) -> "CrownSeries":
        if m + n > D:
            raise SeriesError("monomial degree exceeds truncation")
        c = np.zeros((D + 1, D + 1), dtype=np.complex128)
        c[m, n] = value
        return CrownSeries(c, D)

    @staticmethod
    def xi(D: int) -> "CrownSeries":
        return CrownSeries.monomial(1, 0, D)

    @staticmethod
    def eta(D: int) -> "CrownSeries":
        return CrownSeries.monomial(0, 1, D)

    @staticmethod
    def from_z_series(h: CoeffSeries, D: int) -> "CrownSeries":
        """Lift h(z) to h(xi*eta): coefficient of z^k goes to (k, k)."""
        c = np.zeros((D + 1, D + 1), dtype=np.complex128)
        kmax = min(h.trunc_z, D // 2)
        for k in range(kmax + 1):
            c[k, k] = h.coeffs[k]
        return CrownSeries(c, D)

    # -- queries -------------------------------------------------------------

    def __repr__(self):
        nz = int(np.count_nonzero(self.coeffs))
        return f"CrownSeries(D={self.trunc_total}, nonzero={nz})"

    def order(self, tol: float = 0.0) -> int:
        """Lowest total degree with a coefficient above tol (D+1 if none)."""
        D = self.trunc_total
        for d in range(D + 1):
            for m in range(d + 1):
                if abs(self.coeffs[m, d - m]) > tol:
                    return d
        return D + 1

    def coeff_1norm(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def is_real(self, tol: float = REALNESS_TOL) -> bool:
        scale = max(1.0, self.max_abs_coeff())
        return float(np.max(np.abs(self.coeffs.imag))) <= tol * scale

    def realness_defect(self) -> float:
        return float(np.max(np.abs(self.coeffs.imag)))

    # -- linear structure ----------------------------------------------------

    def _matched(self, other: "CrownSeries") -> int:
        if self.trunc_total != other.trunc_total:
            raise SeriesError(
                f"mismatched truncation degrees {self.trunc_total} != {other.trunc_total}"
            )
        return self.trunc_total

    def __add__(self, other):
        if isinstance(other, CrownSeries):
            D = self._matched(other)
            return CrownSeries._adopt(self.coeffs + other.coeffs, D)
        c = self.coeffs.copy()
        c[0, 0] += other
        return CrownSeries._adopt(c, self.trunc_total)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, CrownSeries):
            D = self._matched(other)
            return CrownSeries._adopt(self.coeffs - other.coeffs, D)
        return self + (-other)

    def __neg__(self):
        return CrownSeries._adopt(-self.coeffs, self.trunc_total)

    def __mul__(self, other):
        if isinstance(other, CrownSeries):
            return multiply(self, other)
        return CrownSeries._adopt(self.coeffs * other, self.trunc_total)

    __rmul__ = __mul__

    def conj(self) -> "CrownSeries":
        """Coefficientwise conjugate; realizes rho-conjugation of maps."""
        return CrownSeries._adopt(np.conj(self.coeffs), self.trunc_total)

    def swap(self) -> "CrownSeries":
        """f(eta, xi): transpose of the coefficient array."""
        return CrownSeries._adopt(self.coeffs.T.copy(), self.trunc_total)

    # -- crown decomposition ---------------------------------------------------

    def crown_coefficient(self, l: int, j: int) -> CoeffSeries:
        """Coefficient function f_lj(z) with f_lj[k] = a[k+l, k+j]; needs l*j = 0."""
        if l * j != 0:
            raise SeriesError("crown indices need l*j = 0")
        D = self.trunc_total
        kmax = (D - l - j) // 2
        if kmax < 0:
            return CoeffSeries.zero(0)
        ks = np.arange(kmax + 1)
        return CoeffSeries(self.coeffs[ks + l, ks + j])

    def crown_decompose(self) -> list[tuple[int, int, CoeffSeries]]:
        """All crown entries (l, j, f_lj) with l*j = 0 covering every a[m,n]."""
        D = self.trunc_total
        out = [(0, 0, self.crown_coefficient(0, 0))]
        for l in range(1, D + 1):
            out.append((l, 0, self.crown_coefficient(l, 0)))
        for j in range(1, D + 1):
            out.append((0, j, self.crown_coefficient(0, j)))
        return out

    @staticmethod
    def crown_reassemble(entries: Iterable[tuple[int, int, CoeffSeries]], D: int) -> "CrownSeries":
        c = np.zeros((D + 1, D + 1), dtype=np.complex128)
        for l, j, h in entries:
            kmax = min(h.trunc_z, (D - l - j) // 2)
            for k in range(kmax + 1):
                c[k + l, k + j] += h.coeffs[k]
        return CrownSeries(c, D)

    # -- norms -----------------------------------------------------------------

    def crown_norm(self, np_: CrownNormParams) -> float:
        """||f||_{omega,beta,r}, each disk sup sampled at ``boundary_samples``
        points of |z - omega| = beta: a lower estimate of the true norm."""
        return self.crown_norms((np_.omega,), np_.beta, np_.radius, np_.boundary_samples)[0]

    def crown_norms(self, omegas, beta: float, radius: float, boundary_samples: int = 64):
        """``crown_norm`` at each of ``omegas``, checked as CrownNormParams does.

        One Horner runs over every crown coefficient f_lj and every circle
        point at once; the zero padding above a row's own degree leaves its
        values unchanged.  Each norm sums sup * r^(l+j) over the rows in
        crown order, so it has the bits of a lone omega's norm.
        """
        for w in omegas:
            CrownNormParams(w, beta, radius, boundary_samples)
        D = self.trunc_total
        rows, cols, degree = _crown_index(D)
        padded = np.zeros((D + 2, D + 2), dtype=np.complex128)
        padded[: D + 1, : D + 1] = self.coeffs
        crown = padded[rows, cols]
        zs = _circle(omegas, beta, boundary_samples)
        vals = np.repeat(crown[:, -1:], zs.size, axis=1)
        for k in range(crown.shape[1] - 2, -1, -1):
            vals = vals * zs.ravel() + crown[:, k : k + 1]
        sups = np.max(np.abs(vals).reshape(-1, *zs.shape), axis=2)
        return np.cumsum(sups * (radius ** np.arange(D + 1))[degree, None], axis=0)[-1]

    def full_norm(self, r: float) -> float:
        """|f|_r = sum |a[m,n]| r^(m+n) (plain weighted 1-norm)."""
        D = self.trunc_total
        rpow = r ** np.arange(D + 1)
        w = rpow[:, None] * rpow[None, :]
        return float(np.sum(np.abs(self.coeffs) * w))

    # -- evaluation --------------------------------------------------------------

    def eval(self, xi, eta):
        """Pointwise evaluation (vectorized over broadcastable array arguments).

        Horner in eta runs over every row a[m, :] at once, then Horner in xi
        over the rows.  Row m starts from zero at its top degree n = D - m,
        so each value has the bits of a row-by-row nested Horner loop.
        """
        xi = np.asarray(xi, dtype=np.complex128)
        eta = np.asarray(eta, dtype=np.complex128)
        D = self.trunc_total
        shape = np.broadcast(xi, eta).shape
        rows = np.zeros((D + 1,) + shape, dtype=np.complex128)
        lead = (slice(None),) + (None,) * len(shape)
        for n in range(D, -1, -1):
            active = rows[: D - n + 1]
            active *= eta
            active += self.coeffs[: D - n + 1, n][lead]
        out = np.zeros(shape, dtype=np.complex128)
        for m in range(D, -1, -1):
            out = out * xi + rows[m]
        return out if out.shape else complex(out)

    # -- truncated-ring analytics -------------------------------------------------

    def power(self, p: float) -> "CrownSeries":
        """f^p: f(0,0)^p times the binomial series (1 + u)^p composed into
        u = f/f(0,0) - 1 (``_compose``); the principal branch."""
        D = self.trunc_total
        c0 = complex(self.coeffs[0, 0])
        h = np.zeros((D + 1, D + 1), dtype=np.complex128)
        h[:, 0] = _binomial_series(c0, p, D + 1)
        return CrownSeries._adopt(h, D).substitute((self - c0) * (1.0 / c0), CrownSeries.zero(D))

    def partial(self, var: int) -> "CrownSeries":
        """Partial derivative in xi (var = 0) or eta (var = 1)."""
        D = self.trunc_total
        c = np.zeros((D + 1, D + 1), dtype=np.complex128)
        k = np.arange(1, D + 1)
        if var == 0:
            c[:D] = self.coeffs[1:] * k[:, None]
        elif var == 1:
            c[:, :D] = self.coeffs[:, 1:] * k[None, :]
        else:
            raise SeriesError("partial derivative needs var 0 (xi) or 1 (eta)")
        return CrownSeries._adopt(c, D)

    def substitute(self, X: "CrownSeries", Y: "CrownSeries") -> "CrownSeries":
        """h(X(xi,eta), Y(xi,eta)) in the truncated ring, degree by degree
        (``_compose``)."""
        return _compose((self,), X, Y)[0]

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> list:
        """Coefficients as [re, im] pairs in graded-lexicographic order.

        Order: total degree d = m+n ascending, then m ascending within d.
        """
        out = []
        for d in range(self.trunc_total + 1):
            for m in range(d + 1):
                c = self.coeffs[m, d - m]
                out.append([float(c.real), float(c.imag)])
        return out

    @staticmethod
    def from_json(data: Sequence[Sequence[float]]) -> "CrownSeries":
        n = len(data)
        D = 0
        while (D + 1) * (D + 2) // 2 < n:
            D += 1
        if (D + 1) * (D + 2) // 2 != n:
            raise SeriesError("coefficient list length is not triangular")
        c = np.zeros((D + 1, D + 1), dtype=np.complex128)
        it = iter(data)
        for d in range(D + 1):
            for m in range(d + 1):
                re, im = next(it)
                c[m, d - m] = complex(re, im)
        return CrownSeries(c, D)


# ---------------------------------------------------------------------------
# free functions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _product_slots(D: int) -> tuple[np.ndarray, np.ndarray]:
    """Per slot (n, q), q <= D - n, of ``multiply`` at truncation D, for T^T and
    then for G: the column n of f that owns it and its row's offset in the pad."""
    n, q = np.nonzero(_triangle_mask(D + 1))
    w = 2 * D + 1
    slots = (np.concatenate((n, n)), np.concatenate((n * w + D - q, (D + 1 + q) * w + D - n)))
    for arr in slots:
        arr.setflags(write=False)
    return slots


def multiply(f: CrownSeries, g: CrownSeries) -> CrownSeries:
    """Truncated product by a direct sum; terms of total degree > D are dropped.

    One matrix product T @ G over the slots (n, q), q <= D - n, of the
    nonzero columns n of f: T[p, (n, q)] = f[p - q, n] and
    G[(n, q), c] = g[q, c - n], zero when p < q or c < n.  A slot with
    q > D - n only reaches p + c > D, which is zeroed with the rest above
    the triangle, so each coefficient is one dot product of at most
    (D+1)(D+2)/2 terms.  The rows of T^T and G are windows of one pad of
    f^T and g, each led by D zeros, gathered into one array: as two, at
    D = 36 they were handed back to the system and faulted in every call.
    """
    D = f._matched(g)
    size = D + 1
    out = np.zeros((size, size), dtype=np.complex128)
    owner, offsets = _product_slots(D)
    picked = offsets[f.coeffs.any(axis=0)[owner]]
    if picked.size:
        pad = np.zeros((2 * size, 2 * D + 1), dtype=np.complex128)
        pad[:size, D:], pad[size:, D:] = f.coeffs.T, g.coeffs
        window = np.ndarray((pad.size - D, size), pad.dtype, pad, 0, (pad.itemsize,) * 2)
        t_rows, g_rows = window[picked].reshape(2, -1, size)
        np.matmul(t_rows.T, g_rows, out=out)
        out[~_triangle_mask(size)] = 0.0
    return CrownSeries._adopt(out, D)


@lru_cache(maxsize=None)
def _graded(D: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Graded layout at truncation D (by degree, then xi exponent): each
    slot's flat index in the square, the first slot of degrees 0..D+1, its
    place in the pad of ``_block_rows``, and per degree d the window rows
    of block row d of M(f), one for each slot of degree < d."""
    d, m = np.nonzero(np.tri(D + 1, dtype=bool))
    width = D + 1
    start = np.arange(D + 2) * np.arange(1, D + 3) // 2
    base = (D - m) * width - d
    windows = [base[: start[k]] + k for k in range(D + 1)]
    layout = (m * width + d - m, start, (D + m) * width + d)
    for arr in (*layout, *windows):
        arr.setflags(write=False)
    return (*layout, windows)


def _block_rows(f: CrownSeries) -> np.ndarray:
    """Rows of the matrix M(f) of v -> f*v on graded vectors, transposed.

    f's coefficient (i, k - i) sits at row D + i, column k of a
    (2D+1, D+1) pad, zero for i < 0 and i > k.  Entry ((e, q), p) of block
    row d, the coefficient (p - q, d - e - (p - q)), is then the pad entry
    at column d - e of row D + p - q: entry p of the returned window row
    (D - q)(D+1) - e + d, the one ``_graded(D)[3][d]`` lists for (e, q).
    Degree d - e >= 1 never reads f(0, 0).
    """
    D = f.trunc_total
    flat, _, slot, _ = _graded(D)
    width = D + 1
    pad = np.zeros((2 * D + 1) * width, dtype=np.complex128)
    pad[slot] = f.coeffs.ravel()[flat]
    strides = (pad.itemsize, pad.itemsize * width)
    return np.ndarray((pad.size - D * width, width), pad.dtype, pad, 0, strides)


@lru_cache(maxsize=None)
def _binomials(D: int) -> tuple[np.ndarray, np.ndarray]:
    """C(i, m) at [i, m] (zero for m > i) and the exponents max(i - m, 0)."""
    i = range(D + 1)
    binom = np.array([[math.comb(a, b) for b in i] for a in i], dtype=float)
    gap = np.maximum(np.subtract.outer(i, i), 0)
    for arr in (binom, gap):
        arr.setflags(write=False)
    return binom, gap


def _compose(hs: Sequence[CrownSeries], X: CrownSeries, Y: CrownSeries) -> list[CrownSeries]:
    """h(X, Y) for each h of hs, degree by degree on graded vectors.

    The constants x0 = X(0,0) and y0 = Y(0,0) move into h: h(x0 + u, y0 + v)
    has coefficients A^T h B, A[i, m] = C(i, m) x0^(i-m) and B likewise, so
    X and Y enter only through U = X - x0 and V = Y - y0, of order >= 1.
    Output degree d of every product with U or V reads only input degrees
    < d, through block row d of M(U) or M(V).  One product per degree forms
    degree d of the powers V^n, n <= d; the rows sum_n a_mn V^n of every h
    are one product with the powers; and one product per degree adds degree
    d of U acc_(m+1) to each Horner accumulator acc_m with m <= D - d, the
    only ones that reach the result through U^m.  Each coefficient is one
    dot product over the terms of the direct sum, and each h has its own
    products on a leading axis (lone-call bits).
    """
    D = X._matched(Y)
    for h in hs:
        h._matched(X)
    flat, start, _, windows = _graded(D)
    rows_x, rows_y = _block_rows(X), _block_rows(Y)
    powers = np.zeros((D + 1, start[-1]), dtype=np.complex128)
    powers[0, 0] = 1.0
    for d in range(1, D + 1):
        s = start[d]
        np.matmul(powers[:d, :s], rows_y[windows[d], : d + 1], out=powers[1 : d + 1, s : s + d + 1])
    coeffs = np.stack([h.coeffs for h in hs])
    binom, gap = _binomials(D)
    if X.coeffs[0, 0]:
        coeffs = (binom * X.coeffs[0, 0] ** gap).T @ coeffs
    if Y.coeffs[0, 0]:
        coeffs = coeffs @ (binom * Y.coeffs[0, 0] ** gap)
    acc = coeffs @ powers
    for d in range(1, D + 1):
        s, top = start[d], D + 1 - d
        acc[:, :top, s : s + d + 1] += acc[:, 1 : top + 1, :s] @ rows_x[windows[d], : d + 1]
    out = np.zeros((len(hs), (D + 1) ** 2), dtype=np.complex128)
    out[:, flat] = acc[:, 0]
    return [CrownSeries._adopt(c.reshape(D + 1, D + 1), D) for c in out]


def rotation_factor(alpha: CoeffSeries, b: float, D: int) -> CrownSeries:
    """e^{i b alpha(xi eta)} lifted to the bivariate ring.

    The exponential is carried at z-degree D//2, the largest degree the lift
    retains, so that paired rotations cancel exactly in the truncated ring.
    """
    return CrownSeries.from_z_series(alpha.truncate(D // 2).exp(1j * b), D)


def scaling_pair(h: CoeffSeries, k: CoeffSeries, D: int) -> MapPair:
    """(h(xi eta) xi, k(xi eta) eta): h_j at (j+1, j) and k_j at (j, j+1) for
    j <= (D-1)//2.

    The rotation principal parts, the scaling links and the linear crown
    terms p_01 eta, q_10 xi all take this form.  The coefficients are those
    of ``multiply(CrownSeries.from_z_series(h, D), CrownSeries.xi(D))`` and
    its eta partner, bit for bit, except that every zero is +0.0: at D <= 2
    that product can leave -0.0 in an empty slot.
    """
    out = []
    for c, (dm, dn) in ((h, (1, 0)), (k, (0, 1))):
        a = np.zeros((D + 1, D + 1), dtype=np.complex128)
        j = np.arange(min(c.trunc_z, (D - 1) // 2) + 1)
        a[j + dm, j + dn] = c.coeffs[j] + 0.0  # as in the product, -0.0 becomes +0.0
        out.append(CrownSeries._adopt(a, D))
    return tuple(out)


def principal_part(alpha: CoeffSeries, b: float, D: int) -> MapPair:
    """(e^{i b alpha(xi eta)} xi, e^{-i b alpha(xi eta)} eta), the rotation map.

    The linear-in-(xi, eta) part of tau1 (b = -1/2, components swapped), of
    sigma (b = 1) and of every conjugated pair in between.  The exponentials
    are those of ``rotation_factor``.
    """
    a = alpha.truncate(D // 2)
    return scaling_pair(a.exp(1j * b), a.exp(-1j * b), D)


MapPair = tuple[CrownSeries, CrownSeries]


def identity_pair(D: int) -> MapPair:
    return (CrownSeries.xi(D), CrownSeries.eta(D))


def substitute_pair(F: MapPair, G: MapPair) -> MapPair:
    """Composition F(G) of maps given as coefficient-series pairs.

    The powers of G's second component and the block rows of both are
    formed once for both components, each of which keeps the bits of a lone
    ``substitute`` call.
    """
    return tuple(_compose(F, *G))


def invert_near_identity(U: MapPair) -> MapPair:
    """V with (Id+U)o(Id+V) = Id up to truncation, in one sweep over degrees.

    Id+V inverts Id+U when V + R = 0, R = U(X, Y) with X = xi + V_0 and
    Y = eta + V_1.  U fixes the origin, so degree d of R reads V at degrees
    < d through ``_compose``'s powers of Y and Horner accumulators, and V_d
    only through U's linear part L: R_d = R'_d + L V_d, where R'_d is formed
    with V_d = 0.  Each degree d forms R'_d with ``_compose``'s products
    (only the accumulators m <= D - d reach R through X^m), solves
    V_d = -(I + L)^{-1} R'_d, writes V_d into the pads of X and Y and adds
    its rank-one terms: row 1 of the powers, a_m1 V_1,d in the rows and
    a_(m+1)0 V_0,d in the Horner update.  This is the forward-substitution
    form of power-series reversion, exact in the truncated ring; the result
    is also a left inverse.
    """
    u, v = U
    D = u._matched(v)
    if abs(complex(u.coeffs[0, 0])) + abs(complex(v.coeffs[0, 0])) > 1e-13:
        raise SeriesError("map must fix the origin")
    a, b = 1.0 + u.coeffs[1, 0], u.coeffs[0, 1]
    c, e = v.coeffs[1, 0], 1.0 + v.coeffs[0, 1]
    det = a * e - b * c
    if abs(det) < 1e-14:
        raise SeriesError("linear part of the map is not invertible")
    solve = np.array([[e, -b], [-c, a]]) / -det
    coeffs = np.stack([u.coeffs, v.coeffs])
    flat, start, _, windows = _graded(D)
    rows_x, rows_y = _block_rows(CrownSeries.xi(D)), _block_rows(CrownSeries.eta(D))
    lead = D * (D + 1)  # entry p of window row lead + d is coefficient (p, d - p)
    powers = np.zeros((D + 1, start[-1]), dtype=np.complex128)
    powers[0, 0] = 1.0
    acc = np.zeros((2, D + 1, start[-1]), dtype=np.complex128)
    acc[:, :, 0] = coeffs[:, :, 0]
    V = np.zeros((2, start[-1]), dtype=np.complex128)
    for d in range(1, D + 1):
        s, top = start[d], D + 1 - d
        deg = slice(s, s + d + 1)
        np.matmul(powers[:d, :s], rows_y[windows[d], : d + 1], out=powers[1 : d + 1, deg])
        acc[:, :top, deg] = coeffs[:, :top, : d + 1] @ powers[: d + 1, deg]
        acc[:, :top, deg] += acc[:, 1 : top + 1, :s] @ rows_x[windows[d], : d + 1]
        V[:, deg] = solve @ acc[:, 0, deg]
        rows_x[lead + d, : d + 1] += V[0, deg]
        rows_y[lead + d, : d + 1] += V[1, deg]
        powers[1, deg] += V[1, deg]
        acc[:, :top, deg] += (
            coeffs[:, :top, 1, None] * V[1, deg] + coeffs[:, 1 : top + 1, 0, None] * V[0, deg]
        )
    out = np.zeros((2, (D + 1) ** 2), dtype=np.complex128)
    out[:, flat] = V
    return tuple(CrownSeries._adopt(w.reshape(D + 1, D + 1), D) for w in out)
