"""Observables, probe specifications and coupling parameters.

Quantum observables carry their spectral data (eigenvalues over an
orthonormal eigenbasis); classical observables carry A(q, p) with its partial
derivatives, which drive the Liouville generator. The probe is a zero-mean
Gaussian in both position and momentum, and the effective measurement
strength is tau = (epsilon * sigma_P)^2 / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, NonHermitianObservable
from .grids import Grid1D, _freeze, _Handover

ArrayMap = Callable[[np.ndarray, np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# Quantum side
# ---------------------------------------------------------------------------

# Largest |M - M^H| entry that a Hermitian matrix, observable or state, may have.
HERMITIAN_TOLERANCE = 1e-12


def hermitian_residue(m: np.ndarray) -> float:
    """max |m - m^H| of a square matrix, inf if an entry is not finite, so that every
    tolerance refuses it. The residue is symmetric, so only the upper triangle is
    swept, in 64-row bands that keep the temporaries small and in cache."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which the band maximum keeps
        bands = [np.max(np.abs(m[i:i + 64, i:] - m[i:, i:i + 64].T.conj()))
                 for i in range(0, len(m), 64)]
    residue = float(np.max(bands, initial=0.0))
    return residue if math.isfinite(residue) else math.inf


def require_hermitian(matrix) -> np.ndarray:
    """``matrix`` as an array; NonHermitianObservable unless square and Hermitian to HERMITIAN_TOLERANCE."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or hermitian_residue(m) > HERMITIAN_TOLERANCE:
        raise NonHermitianObservable(f"matrix is not Hermitian within {HERMITIAN_TOLERANCE:.0e}")
    return m


@dataclass(frozen=True)
class SpectralObservable:
    """Discrete spectral resolution: sorted eigenvalues over an eigenbasis.

    ``basis`` columns are an orthonormal eigenbasis and ``block_index[k]`` maps
    column k to its eigenvalue index. ``basis is None`` means the eigenbasis is
    the computational one (diagonal observable), which avoids materializing
    dense projectors for large grids.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray | None
    block_index: np.ndarray

    def __post_init__(self):
        ev = _freeze(self.eigenvalues, float)
        if np.any(np.diff(ev) <= 0):
            raise InvariantViolation("eigenvalues must be strictly ascending")
        object.__setattr__(self, "eigenvalues", ev)
        if self.basis is not None:
            object.__setattr__(self, "basis", _freeze(self.basis, None))
        object.__setattr__(self, "block_index", _freeze(self.block_index, int))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_hermitian(cls, matrix) -> "SpectralObservable":
        """Spectral data of a Hermitian matrix, grouping eigenvalues within 1e-9."""
        vals, vecs = np.linalg.eigh(require_hermitian(matrix))
        groups: list[list[int]] = [[0]]
        for k in range(1, len(vals)):
            if vals[k] - vals[groups[-1][0]] <= 1e-9:
                groups[-1].append(k)
            else:
                groups.append([k])
        eigenvalues = np.array([np.mean(vals[g]) for g in groups])
        block_index = np.empty(len(vals), dtype=int)
        for n, g in enumerate(groups):
            block_index[g] = n
        return cls(_Handover(eigenvalues), basis=_Handover(vecs),
                   block_index=_Handover(block_index))

    @classmethod
    def from_diagonal(cls, values) -> "SpectralObservable":
        """Observable already diagonal in the computational basis.

        Used for the continuous-spectrum case discretized on a position grid:
        each grid node is one eigenvalue. No dense projectors are stored.
        """
        return cls(values, basis=None, block_index=_Handover(np.arange(np.size(values))))

    # -- derived quantities ------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.block_index)

    @property
    def n_eigenvalues(self) -> int:
        return len(self.eigenvalues)

    @property
    def projectors(self) -> list[np.ndarray]:
        out = []
        for n in range(self.n_eigenvalues):
            cols = np.flatnonzero(self.block_index == n)
            if self.basis is None:
                p = np.zeros((self.dim, self.dim), dtype=complex)
                p[cols, cols] = 1.0
            else:
                v = self.basis[:, cols]
                p = v @ v.conj().T
            out.append(p)
        return out

    def matrix(self) -> np.ndarray:
        """The observable as a dense Hermitian matrix."""
        diag = self.eigenvalues[self.block_index]
        if self.basis is None:
            return np.diag(diag.astype(complex))
        return (self.basis * diag) @ self.basis.conj().T

    def to_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        """``matrix`` in the eigenbasis; DimensionMismatch unless it is dim x dim."""
        if len(matrix) != self.dim:
            raise DimensionMismatch("observable and state dimensions differ")
        if self.basis is None:
            return matrix
        return self.basis.conj().T @ matrix @ self.basis

    def from_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        if self.basis is None:
            return matrix
        return self.basis @ matrix @ self.basis.conj().T

    def min_gap(self) -> float:
        return float(np.min(np.diff(self.eigenvalues)))

    def validate(self) -> None:
        """The projectors resolve the identity and are orthogonal idempotents, within 1e-10."""
        projs = self.projectors
        total = sum(projs)
        if np.max(np.abs(total - np.eye(self.dim))) > 1e-10:
            raise InvariantViolation("projectors do not sum to the identity")
        for m, pm in enumerate(projs):
            for n, pn in enumerate(projs):
                prod = pm @ pn
                ref = pn if m == n else 0.0
                if np.max(np.abs(prod - ref)) > 1e-10:
                    raise InvariantViolation(f"projectors {m},{n} not orthogonal/idempotent")


# ---------------------------------------------------------------------------
# Classical side
# ---------------------------------------------------------------------------

KIND_POSITION = "position"
KIND_ACTION = "action"
KIND_GENERAL = "general"


@dataclass(frozen=True)
class ClassicalObservable:
    """A(q, p) with the partial derivatives that drive the Liouville generator.

    kind "position" is A = q exactly; kind "action" depends on (q, p) only
    through xi = (p^2 + q^2)/2 and also carries dA/dxi;
    kind "general" is anything else.
    """

    kind: str
    eval: ArrayMap
    dA_dq: ArrayMap
    dA_dp: ArrayMap
    A_of_xi: Callable[[np.ndarray], np.ndarray] | None = None
    dA_dxi: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in (KIND_POSITION, KIND_ACTION, KIND_GENERAL):
            raise InvariantViolation(f"unknown observable kind {self.kind!r}")
        if self.kind == KIND_ACTION and (self.A_of_xi is None or self.dA_dxi is None):
            raise InvariantViolation("action-kind observable needs A_of_xi and dA_dxi")


def position_observable() -> ClassicalObservable:
    """A(q, p) = q."""
    return ClassicalObservable(
        kind=KIND_POSITION,
        eval=lambda q, p: q + 0.0 * p,
        dA_dq=lambda q, p: np.ones_like(q + 0.0 * p),
        dA_dp=lambda q, p: np.zeros_like(q + 0.0 * p),
    )


def action_observable(A_of_xi, dA_dxi) -> ClassicalObservable:
    """A = A(xi) with xi = (q^2 + p^2)/2."""

    def _xi(q, p):
        return 0.5 * (np.asarray(q) ** 2 + np.asarray(p) ** 2)

    return ClassicalObservable(
        kind=KIND_ACTION,
        eval=lambda q, p: A_of_xi(_xi(q, p)),
        dA_dq=lambda q, p: dA_dxi(_xi(q, p)) * q,
        dA_dp=lambda q, p: dA_dxi(_xi(q, p)) * p,
        A_of_xi=A_of_xi,
        dA_dxi=dA_dxi,
    )


def general_observable(eval, dA_dq, dA_dp) -> ClassicalObservable:
    return ClassicalObservable(kind=KIND_GENERAL, eval=eval, dA_dq=dA_dq, dA_dp=dA_dp)


# ---------------------------------------------------------------------------
# Probe and coupling
# ---------------------------------------------------------------------------

# exp(x) rounds to +0.0 for every x at or below this: e^-746 is under half the
# smallest subnormal. NumPy 2.4's exp (x86-64, AVX-512) takes 6-20 ns per such
# element and about 1 ns per normal result.
EXP_UNDERFLOW = -746.0


def _normal_density(x, s2: float) -> np.ndarray:
    """exp(-0.5 * x * x / s2) / sqrt(2 pi s2) in one output buffer, in that order of
    operations: bit for bit the plain formula, ``x`` unmodified, a NumPy scalar for 0-d.

    Exponents at or below ``EXP_UNDERFLOW`` are set to +0.0 without calling exp.
    """
    q = np.asarray(x, dtype=float)
    out = np.multiply(-0.5, q, out=np.empty(q.shape))
    out *= q
    out /= s2
    dead = out <= EXP_UNDERFLOW  # NaN is not, and stays on the exp path
    np.exp(out, out=out, where=~dead)
    np.copyto(out, 0.0, where=dead)
    out /= np.sqrt(2.0 * np.pi * s2)
    return out if out.ndim else out[()]


@dataclass(frozen=True)
class ProbeSpec:
    """Zero-mean Gaussian probe: position width sigma_Q, momentum width sigma_P.

    Position and momentum are statistically independent; both means are fixed
    at zero.
    """

    sigma_Q: float
    sigma_P: float

    def __post_init__(self):
        if not self.sigma_Q > 0:
            raise InvariantViolation("sigma_Q must be > 0")
        if self.sigma_P < 0:
            raise InvariantViolation("sigma_P must be >= 0")

    def position_density(self, Q) -> np.ndarray:
        """The normal density of variance sigma_Q^2 (``_normal_density``)."""
        return _normal_density(Q, self.sigma_Q**2)

    def pointer_density(self, Q, values, weights, epsilon: float) -> np.ndarray:
        """The pointer record sum_k weights[k] * rho_pi(Q - epsilon * values[k]).

        The distribution of A smeared by the probe position density (Table 1,
        row 1), for both theories. ``Q`` is 1-D; ``weights`` is one vector, or a
        stack (m, K) sharing each kernel chunk, which gives (m, len(Q)). A chunk
        holds at most 2^16 kernel values (512 KiB), so it stays in cache, and
        each vector takes one matrix-vector product per chunk: its values do
        not depend on how many vectors share the chunk.
        """
        Q = np.asarray(Q, dtype=float)
        shift = epsilon * np.asarray(values, dtype=float)
        stack = np.atleast_2d(weights)
        out = np.empty((len(stack), Q.size))
        chunk = max(1, 2**16 // shift.size)
        for start in range(0, Q.size, chunk):
            rows = slice(start, start + chunk)
            kernel = self.position_density(Q[rows, None] - shift[None, :])
            for record, w in zip(out, stack):
                record[rows] = kernel @ w
        return out if np.ndim(weights) > 1 else out[0]

    def pointer_grid(self, values, epsilon: float, n: int, pad_sigmas: float) -> Grid1D:
        """Q grid over every shifted value epsilon*a, with pad_sigmas*sigma_Q margins."""
        lo = epsilon * float(np.min(values)) - pad_sigmas * self.sigma_Q
        hi = epsilon * float(np.max(values)) + pad_sigmas * self.sigma_Q
        return Grid1D(lo, hi, n)

    def momentum_density(self, P) -> np.ndarray:
        if self.sigma_P == 0.0:
            raise InvariantViolation("sigma_P = 0 probe has no momentum density")
        return _normal_density(P, self.sigma_P**2)

    def position_wavefunction(self, Q) -> np.ndarray:
        """Pure Gaussian whose |chi|^2 has standard deviation sigma_Q."""
        q = np.asarray(Q, dtype=float)
        s2 = self.sigma_Q**2
        return (2.0 * np.pi * s2) ** (-0.25) * np.exp(-0.25 * q * q / s2)


@dataclass(frozen=True)
class CouplingParams:
    """Coupling strength epsilon and the derived strength tau = (eps*sigma_P)^2/2.

    epsilon = 0 is admitted so the zero-coupling trivial limits are
    expressible; it forces tau = 0.
    """

    epsilon: float
    tau: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise InvariantViolation("epsilon must be >= 0")
        if self.tau < 0:
            raise InvariantViolation("tau must be >= 0")
        if self.epsilon == 0 and self.tau != 0:
            raise InvariantViolation("epsilon = 0 forces tau = 0")

    @classmethod
    def from_sigma_P(cls, epsilon: float, sigma_P: float) -> "CouplingParams":
        """tau = (epsilon sigma_P)^2 / 2; OverflowError where that square leaves the floats."""
        return cls(epsilon=epsilon, tau=0.5 * (epsilon * sigma_P) ** 2)

    @classmethod
    def from_probe(cls, epsilon: float, probe: ProbeSpec) -> "CouplingParams":
        return cls.from_sigma_P(epsilon, probe.sigma_P)

    @property
    def sigma_P(self) -> float:
        if self.epsilon == 0.0:
            return 0.0
        return math.sqrt(2.0 * self.tau) / self.epsilon
