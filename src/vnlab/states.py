"""State representations and their primitives.

Three state families are used throughout:

* ``PhaseSpaceDensity`` -- non-negative, unit-mass density on a uniform
  (q, p) grid; ``values[i, j]`` is rho(q_i, p_j).
* ``AngleActionDensity`` -- the same object in canonical (xi, theta)
  coordinates, theta periodic on [0, 2*pi); the Jacobian of the transform is
  one, so values carry over directly.
* ``DensityOperator`` -- Hermitian, PSD, unit-trace complex matrix, either on
  a position grid or in a truncated number basis. On a position grid the
  convention is ``matrix[i, j] = h * rho(x_i, x_j)`` so that the plain matrix
  trace is 1 and matrix algebra needs no quadrature weights.

All states are immutable after construction; every operation returns a new
object.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    GridTooNarrow,
    InvariantViolation,
    ShapeMismatch,
    UnsupportedObservable,
)
from .grids import TWO_PI, Grid1D, PeriodicGrid, _freeze, _Handover, grid2d_integrate
from .observables import HERMITIAN_TOLERANCE, KIND_POSITION, ClassicalObservable, hermitian_residue


# ---------------------------------------------------------------------------
# Classical phase-space density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSpaceDensity:
    qgrid: Grid1D
    pgrid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = _freeze(self.values, float)
        if v.shape != (self.qgrid.n, self.pgrid.n):
            raise ShapeMismatch(
                f"values shape {v.shape} != grid shape {(self.qgrid.n, self.pgrid.n)}"
            )
        object.__setattr__(self, "values", v)

    def mass(self) -> float:
        return grid2d_integrate(self.qgrid, self.pgrid, self.values)

    def q_marginal(self) -> np.ndarray:
        return self.values @ self.pgrid.weights

    def p_marginal(self) -> np.ndarray:
        return self.qgrid.weights @ self.values

    def normalized(self) -> "PhaseSpaceDensity":
        return replace(self, values=_Handover(self.values / self.mass()))


def phase_density_from_values(qgrid, pgrid, values) -> PhaseSpaceDensity:
    v = np.clip(np.asarray(values, dtype=float), 0.0, None)
    v /= grid2d_integrate(qgrid, pgrid, v)  # as normalized() does, without a second array
    return PhaseSpaceDensity(qgrid, pgrid, _Handover(v))


def require_fits(fields: str, center: float, sigma: float, grid: Grid1D) -> None:
    """Refuse (GridTooNarrow, naming ``fields``) a Gaussian whose center +- 6 sigma
    leaves ``grid``; inside it, the truncated mass stays near machine level."""
    lo, hi = center - 6 * sigma, center + 6 * sigma
    if lo < grid.lo or hi > grid.hi:
        raise GridTooNarrow(f"{fields}: the Gaussian's center +- 6 widths [{lo:.4g}, {hi:.4g}] "
                            f"leaves its grid [{grid.lo:.4g}, {grid.hi:.4g}]")


def require_resolved(name: str, width: float, grid: Grid1D) -> None:
    """Refuse (ConfigInvalid, naming ``name``) a width below its grid's step.

    A narrower Gaussian falls between the nodes: its samples underflow to
    zero, and its normalization divides by zero or overflows.
    """
    if width < grid.h:
        raise ConfigInvalid(
            f"parameter {name!r} = {width!r} is below the step {grid.h:.6g} "
            "of the grid it is sampled on"
        )


def build_gaussian_phase_density(
    qgrid: Grid1D,
    pgrid: Grid1D,
    sigma_q: float,
    sigma_p: float,
    center_q: float = 0.0,
    center_p: float = 0.0,
) -> PhaseSpaceDensity:
    """Product Gaussian, normalized on the grid; both axes must fit (``require_fits``)."""
    require_fits("'center_q' and 'sigma_q'", center_q, sigma_q, qgrid)
    require_fits("'center_p' and 'sigma_p'", center_p, sigma_p, pgrid)
    gq = np.exp(-0.5 * ((qgrid.nodes - center_q) / sigma_q) ** 2)
    gp = np.exp(-0.5 * ((pgrid.nodes - center_p) / sigma_p) ** 2)
    values = np.outer(gq, gp) / (TWO_PI * sigma_q * sigma_p)
    return phase_density_from_values(qgrid, pgrid, values)


def delta_width(grid: Grid1D) -> float:
    """Width of the narrow Gaussian standing in for a Dirac delta: 2 grid steps."""
    return 2.0 * grid.h


# ---------------------------------------------------------------------------
# Angle-action representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleActionDensity:
    xigrid: Grid1D
    thetagrid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        if self.xigrid.lo != 0.0:
            raise InvariantViolation("xi grid must start at 0")
        v = _freeze(self.values, float)
        if v.shape != (self.xigrid.n, self.thetagrid.n):
            raise ShapeMismatch("values shape does not match (xi, theta) grids")
        object.__setattr__(self, "values", v)

    def mass(self) -> float:
        return grid2d_integrate(self.xigrid, self.thetagrid, self.values)

    def xi_marginal(self) -> np.ndarray:
        return self.values @ self.thetagrid.weights

    def theta_marginal(self) -> np.ndarray:
        return self.xigrid.weights @ self.values

    def normalized(self) -> "AngleActionDensity":
        return replace(self, values=_Handover(self.values / self.mass()))


# ---------------------------------------------------------------------------
# Interpolation and the canonical transform
# ---------------------------------------------------------------------------

# Points per chunk of ``_bispev``: its temporaries stay in cache.
SPLINE_CHUNK = 2**14


def _cubic_bsplines(t, x):
    """The first coefficient index and the four cubic B-splines nonzero at each x.

    FITPACK's fpbisp and fpbspl (Dierckx 1993) vectorised, each operation in their
    order, so the values are theirs bit for bit: x is clamped to [t[3], t[-4]], its
    interval l is the last with t[l] <= x (NaN takes the last interval), and the
    de Boor-Cox recurrence runs over the six knots t[l-2 .. l+3].
    """
    x = np.clip(x, t[3], t[-4])
    first = np.searchsorted(t[4:-4], x, side="right")  # l - 3
    k0, k1, k2, k3, k4, k5 = (t[first + m] for m in range(1, 7))
    # Degree j from degree j - 1, as fpbspl runs it for i = 1 .. j: with f = h[i] /
    # (t[l+i] - t[l+i-j]), h[i] += f (t[l+i] - x) and h[i+1] = f (x - t[l+i-j]).
    f = 1.0 / (k3 - k2)
    a0, a1 = f * (k3 - x), f * (x - k2)
    f = a0 / (k3 - k1)
    b0, b1 = f * (k3 - x), f * (x - k1)
    f = a1 / (k4 - k2)
    b1 += f * (k4 - x)
    b2 = f * (x - k2)
    f = b0 / (k3 - k0)
    h0, h1 = f * (k3 - x), f * (x - k0)
    f = b1 / (k4 - k1)
    h1 += f * (k4 - x)
    h2 = f * (x - k1)
    f = b2 / (k5 - k2)
    h2 += f * (k5 - x)
    h3 = f * (x - k2)
    return first, (h0, h1, h2, h3)


def _bispev(tx, ty, c, x, y) -> np.ndarray:
    """The bicubic spline (knots tx, ty, coefficients c) at the points (x, y).

    Bit for bit FITPACK's bispeu, which ``RectBivariateSpline.ev`` calls: each
    value sums c[i, j] * hx[i] * hy[j] with i outer and j inner, from 0.
    bispeu scans the knots from the first for every point; here one search
    places a chunk of points.
    """
    ny = len(ty) - 4
    out = np.empty(x.size)
    for start in range(0, x.size, SPLINE_CHUNK):
        rows = slice(start, start + SPLINE_CHUNK)
        ix, hx = _cubic_bsplines(tx, x[rows])
        iy, hy = _cubic_bsplines(ty, y[rows])
        corner = ix * ny + iy
        acc = np.zeros(corner.shape)
        for i in range(4):
            for j in range(4):
                term = c[corner + (i * ny + j)]
                term *= hx[i]
                term *= hy[j]
                acc += term
        out[rows] = acc
    return out


def _sample(xnodes, ynodes, values, x, y) -> np.ndarray:
    """Bicubic-spline samples of ``values`` at the points (x, y), clipped at zero.

    The interpolating spline is scipy's ``RectBivariateSpline(..., s=0)``; it is
    evaluated by ``_bispev``. Points outside the nodes' rectangle evaluate to 0
    (compact-support convention).
    """
    # Imported here: scipy.interpolate takes most of a second to import, and
    # only the classical resampling paths need it.
    from scipy.interpolate import RectBivariateSpline

    tx, ty, c = RectBivariateSpline(xnodes, ynodes, values, kx=3, ky=3, s=0).tck
    out = _bispev(tx, ty, c, x.ravel(), y.ravel())
    inside = (x >= xnodes[0]) & (x <= xnodes[-1]) & (y >= ynodes[0]) & (y <= ynodes[-1])
    return np.clip(np.where(inside, out.reshape(x.shape), 0.0), 0.0, None)


def sample_phase_density(rho: PhaseSpaceDensity, q_pts, p_pts) -> np.ndarray:
    """Cubic-spline samples of rho at arbitrary points (``_sample``)."""
    q, p = np.asarray(q_pts, dtype=float), np.asarray(p_pts, dtype=float)
    return _sample(rho.qgrid.nodes, rho.pgrid.nodes, rho.values, q, p)


def to_angle_action(
    rho: PhaseSpaceDensity, n_xi: int = 256, n_theta: int = 256
) -> AngleActionDensity:
    """Resample onto (xi, theta) with xi = (q^2 + p^2)/2, theta = atan2(p, q).

    The xi grid ends at the disc inscribed in the (q, p) grid, so no sample
    ever falls outside the source grid. dq dp = dxi dtheta, so values carry
    over with no Jacobian factor; the result is renormalized (corner mass
    outside the disc must be negligible for the input to be represented
    faithfully).
    """
    reach = min(abs(rho.qgrid.lo), rho.qgrid.hi, abs(rho.pgrid.lo), rho.pgrid.hi)
    xigrid = Grid1D(0.0, 0.5 * reach**2, n_xi)
    thetagrid = PeriodicGrid(n_theta)
    xx, tt = np.meshgrid(xigrid.nodes, thetagrid.nodes, indexing="ij")
    r = np.sqrt(2.0 * xx)
    vals = sample_phase_density(rho, r * np.cos(tt), r * np.sin(tt))
    return AngleActionDensity(xigrid, thetagrid, _Handover(vals)).normalized()


def from_angle_action(aa: AngleActionDensity, qgrid: Grid1D, pgrid: Grid1D) -> PhaseSpaceDensity:
    """Inverse resampling of ``to_angle_action`` onto a Cartesian grid."""
    qq, pp = np.meshgrid(qgrid.nodes, pgrid.nodes, indexing="ij")
    xi = 0.5 * (qq**2 + pp**2)
    theta = np.mod(np.arctan2(pp, qq), TWO_PI)
    # Pad theta periodically so the spline sees smooth data across the seam.
    pad = 4
    tnodes = aa.thetagrid.nodes
    text = np.concatenate([tnodes[-pad:] - TWO_PI, tnodes, tnodes[:pad] + TWO_PI])
    vext = np.concatenate([aa.values[:, -pad:], aa.values, aa.values[:, :pad]], axis=1)
    # Outside xi <= xi_max reads 0: xi >= 0, and theta lies within the padded nodes.
    vals = _sample(aa.xigrid.nodes, text, vext, xi, theta)
    return PhaseSpaceDensity(qgrid, pgrid, _Handover(vals)).normalized()


# ---------------------------------------------------------------------------
# Quantum density operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, PSD, unit-trace matrix; position-grid basis when grid is set."""

    matrix: np.ndarray
    grid: Grid1D | None = None

    def __post_init__(self):
        m = _freeze(self.matrix, complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeMismatch("density matrix must be square")
        if self.grid is not None and self.grid.n != m.shape[0]:
            raise ShapeMismatch("matrix dimension does not match the position grid")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def hermitian_residue(self) -> float:
        """max |rho - rho^H| (``observables.hermitian_residue``), computed once per state."""
        return hermitian_residue(self.matrix)

    def require_hermitian(self, what: str) -> None:
        """InvariantViolation, naming ``what`` and the residue, past HERMITIAN_TOLERANCE."""
        if self.hermitian_residue > HERMITIAN_TOLERANCE:
            raise InvariantViolation(f"{what}: max|rho - rho^H| = {self.hermitian_residue:.3e} "
                                     f"exceeds {HERMITIAN_TOLERANCE:.0e}")


def normalized_wavefunction(psi, grid: Grid1D) -> np.ndarray:
    """Complex samples of psi(x), L2-normalized on the grid."""
    psi = np.asarray(psi, dtype=complex)
    return psi / np.sqrt(grid.integrate(np.abs(psi) ** 2))


def gaussian_wavepacket(grid: Grid1D, center=0.0, momentum=0.0, sigma_x=1.0, hbar=1.0):
    """Minimum-uncertainty packet: |psi|^2 has standard deviation sigma_x (``require_fits``)."""
    require_fits("'center' and 'sigma_x'", center, sigma_x, grid)
    x = grid.nodes
    psi = (2.0 * np.pi * sigma_x**2) ** (-0.25) * np.exp(
        -((x - center) ** 2) / (4.0 * sigma_x**2) + 1j * momentum * x / hbar
    )
    return psi


def superposition_wavefunction(alpha, beta, psi1, psi2, grid: Grid1D) -> np.ndarray:
    """Normalized alpha*psi1 + beta*psi2 on the grid.

    The components must share a shape (DimensionMismatch otherwise). The
    squared norm must be a finite normal float: zero (cancelling or
    underflowing amplitudes), subnormal (too few digits left to normalize) and
    infinite (overflowing amplitudes) norms are refused.
    """
    if np.shape(psi1) != np.shape(psi2):
        raise DimensionMismatch("component wavefunctions must share a grid")
    psi = alpha * np.asarray(psi1) + beta * np.asarray(psi2)
    with np.errstate(over="ignore"):  # an overflow is refused just below
        norm = grid.integrate(np.abs(psi) ** 2)
    if not np.finfo(float).tiny <= norm < np.inf:
        raise InvariantViolation(f"superposition has squared norm {norm:.3e}, not a normal float")
    return psi / np.sqrt(norm)


# ---------------------------------------------------------------------------
# Expectations and traces
# ---------------------------------------------------------------------------

def distribution_of_A(state, observable: ClassicalObservable) -> tuple[np.ndarray, np.ndarray]:
    """(values a, weights w) of A over a classical state, the one integral of A: <A> = w @ a.

    A(xi) over an angle-action state's xi-marginal (UnsupportedObservable
    without A(xi)), q over the q-marginal for A = q, else A(q, p) cell by cell.
    Another state type, or A off the grid's shape, raises ShapeMismatch.
    """
    if isinstance(state, AngleActionDensity):
        if observable.A_of_xi is None:
            raise UnsupportedObservable("an angle-action state needs A(xi)")
        return observable.A_of_xi(state.xigrid.nodes), state.xigrid.weights * state.xi_marginal()
    if not isinstance(state, PhaseSpaceDensity):
        raise ShapeMismatch(f"unsupported state type {type(state).__name__}")
    if observable.kind == KIND_POSITION:
        return state.qgrid.nodes, state.qgrid.weights * state.q_marginal()
    qq, pp = np.meshgrid(state.qgrid.nodes, state.pgrid.nodes, indexing="ij")
    a = np.asarray(observable.eval(qq, pp), dtype=float)
    if a.shape != state.values.shape:
        raise ShapeMismatch("observable values do not match the state grid")
    cell = np.outer(state.qgrid.weights, state.pgrid.weights) * state.values
    return a.ravel(), cell.ravel()


def expectation(state, observable: ClassicalObservable) -> float:
    """<A> over a classical state, from ``distribution_of_A``."""
    a, w = distribution_of_A(state, observable)
    return float(w @ a)


def trace_with(rho: DensityOperator, op: np.ndarray) -> complex:
    """Tr(rho M) = sum_ij rho_ij M_ji in the state's matrix convention; O(n^2)."""
    op = np.asarray(op)
    if op.shape != rho.matrix.shape:
        raise ShapeMismatch("operator shape does not match the density matrix")
    return complex(np.sum(rho.matrix * op.T))
