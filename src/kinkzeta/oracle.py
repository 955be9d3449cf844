"""Brute-force lattice oracle for -d^2/dx^2 + u(x).

Second-order central differences on a uniform grid; Dirichlet boxes for
kink potentials and Bloch-phased single periods for periodic ones.  Used
to gate every closed-form spectral statement in the package.

u(x) is sampled once per lattice (``LatticeSpec.diagonal``).  Dirichlet
boxes are symmetric tridiagonal; a Bloch-phased period is a periodic
tridiagonal ring, solved as a Hermitian matrix of bandwidth 2 after the
ring is reordered (real at theta = 0 and pi, complex otherwise).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import eig_banded, eigvalsh_tridiagonal

from .errors import DomainError

__all__ = [
    "LatticeSpec",
    "eigenvalues",
    "bloch_eigenvalues",
    "relative_heat_trace",
    "band_edges_lattice",
    "lattice_heat_trace",
]


@dataclass(frozen=True)
class LatticeSpec:
    """Discretization request: box, resolution, boundary condition, u(x)."""

    x_min: float
    x_max: float
    n: int
    bc: str                       # "dirichlet" or "periodic"
    u: Callable[[float], float]

    def __post_init__(self):
        if self.x_max <= self.x_min:
            raise DomainError("x_max must exceed x_min")
        if self.n < 8:
            raise DomainError("n too small for a meaningful lattice")
        if self.bc not in ("dirichlet", "periodic"):
            raise DomainError("bc must be 'dirichlet' or 'periodic'")

    @property
    def h(self) -> float:
        span = self.x_max - self.x_min
        return span / (self.n - 1) if self.bc == "dirichlet" else span / self.n

    def grid(self) -> np.ndarray:
        if self.bc == "dirichlet":
            return np.linspace(self.x_min, self.x_max, self.n)
        return self.x_min + self.h * np.arange(self.n)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """2/h^2 + u on the unknowns: the interior points for Dirichlet,
        the whole grid for periodic.  u is sampled here and only here."""
        x = self.grid()
        if self.bc == "dirichlet":
            x = x[1:-1]
        return 2.0 / self.h ** 2 + np.array([self.u(xi) for xi in x])


def _lowest(count: int | None, size: int) -> dict:
    """LAPACK selection keywords for the lowest count of size eigenvalues."""
    if count is None or count >= size:
        return {}
    if count < 1:
        raise DomainError("count must be at least 1")
    return dict(select="i", select_range=(0, count - 1))


def eigenvalues(spec: LatticeSpec, count: int | None = None) -> np.ndarray:
    """Ascending eigenvalues of the discretized operator.

    Dirichlet: symmetric tridiagonal on the interior points, solved by the
    LAPACK bisection path.  Periodic: the theta = 0 Bloch reduction.
    """
    if spec.bc == "periodic":
        return bloch_eigenvalues(spec, 0.0, count)
    diag = spec.diagonal
    off = np.full(len(diag) - 1, -1.0 / spec.h ** 2)
    return eigvalsh_tridiagonal(diag, off, **_lowest(count, len(diag)))


def bloch_eigenvalues(spec: LatticeSpec, theta: float,
                      count: int | None = None) -> np.ndarray:
    """Eigenvalues at Bloch phase theta on one period (psi(x+L) = e^{i theta} psi).

    The ring is reordered as 0, n-1, 1, n-2, ...; every neighbour pair is
    then at most two places apart and the Hermitian matrix has bandwidth 2.
    In lower banded form row 2 is the plain hopping -1/h^2 throughout, and
    row 1 holds only the phase link H[n-1, 0] = -e^{i theta}/h^2 (position 0)
    and the link across the middle of the ring (position n-2).
    """
    if spec.bc != "periodic":
        raise DomainError("bloch_eigenvalues requires a periodic lattice")
    n = spec.n
    hop = -1.0 / spec.h ** 2
    real = theta % math.pi == 0.0
    band = np.zeros((3, n), dtype=float if real else complex)
    order = np.empty(n, dtype=np.intp)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    band[0] = spec.diagonal[order]
    band[1, 0] = hop * (math.cos(theta) if real else cmath.exp(1j * theta))
    band[1, n - 2] = hop
    band[2, :n - 2] = hop
    return eig_banded(band, lower=True, eigvals_only=True, **_lowest(count, n))


def relative_heat_trace(spec: LatticeSpec, spec0: LatticeSpec, t: float) -> float:
    """sum_n (e^{-lambda_n t} - e^{-lambda0_n t}) over all lattice modes."""
    if not 0.0 < t < math.inf:
        raise DomainError("relative_heat_trace requires 0 < t < inf")
    if (spec.bc, spec.n, spec.x_min, spec.x_max) != (spec0.bc, spec0.n,
                                                     spec0.x_min, spec0.x_max):
        raise DomainError("both lattices must share the same geometry")
    lam = eigenvalues(spec)
    lam0 = eigenvalues(spec0)
    terms = np.exp(-lam * t) - np.exp(-lam0 * t)
    tail = abs(terms[-1])
    if tail > 1e-6:
        warnings.warn(f"relative_heat_trace truncation tail {tail:.2e}",
                      RuntimeWarning, stacklevel=2)
    return float(np.sum(terms))


def band_edges_lattice(spec: LatticeSpec, n_edges: int) -> np.ndarray:
    """Band edges from the Bloch problem at theta = 0 and theta = pi.

    The edges alternate 1, 2, 2, 2, ... between the periodic and
    antiperiodic reductions, so the lowest n_edges of their union, sorted,
    are the edges.  Each solve asks for n_edges // 2 + 3 eigenvalues, two
    more than needed: another count changes LAPACK's selection and with it
    the last bits of the edges.
    """
    count = n_edges // 2 + 3
    lam = np.concatenate([bloch_eigenvalues(spec, 0.0, count),
                          bloch_eigenvalues(spec, math.pi, count)])
    return np.sort(lam)[:n_edges]


def lattice_heat_trace(spec: LatticeSpec, t: float, n_theta: int = 32) -> float:
    """Per-period heat trace of a periodic operator, averaged over a
    uniform Bloch-phase grid on (0, pi)."""
    if spec.bc != "periodic":
        raise DomainError("lattice_heat_trace requires a periodic lattice")
    thetas = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    acc = 0.0
    for th in thetas:
        lam = bloch_eigenvalues(spec, th)
        acc += float(np.sum(np.exp(-lam * t)))
    return acc / n_theta
