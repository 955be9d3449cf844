"""Spectral oracle for -d^2/dx^2 + u(x), from samples of u on a grid.

Used to gate every closed-form spectral statement in the package.  u(x)
is sampled once per lattice, in one call on the array of grid points
(``LatticeSpec.samples``).

Dirichlet boxes, for the kink potentials, take second-order central
differences: a symmetric tridiagonal matrix on the interior points.

A periodic lattice holds the n samples of one period L, and takes Hill's
method (Hill, Acta Math. 8, 1886; Deconinck & Kutz, J. Comput. Phys. 219,
2006, 296).  One FFT gives the coefficients u_k of the samples'
trigonometric interpolant (for even n the Nyquist term is split between
k = +-n/2).  At Bloch phase theta, psi(x + L) = e^{i theta} psi, the
operator on the modes e^{i (2 pi m + theta) x / L}, |m| <= M, is the
Hermitian matrix

    H_theta = diag(((2 pi m + theta) / L)^2) + (u_{m - m'}),

solved densely by np.linalg.eigvalsh.  Its error falls faster than any
power of 1/M.  The truncation follows from what a call can observe:

- decay: M_u is one past the last k with |u_k| > 1e-14 max|u_k|;
- the largest eigenvalue a call needs, lam_max: an eigenvector below it
  lives on the modes with ((2 pi m + theta) / L)^2 <= lam_max - min u,
  so M = M_u + ceil(L sqrt(lam_max - min u) / (2 pi));
- the cap: M is at most (n - 1) // 2, and a solve of more than 2^22
  matrix entries (64 MiB) raises DomainError.

band_edges_lattice and lattice_heat_trace state their lam_max;
bloch_eigenvalues solves at the cap.  CONVENTIONS item 15 gives the
measured accuracy and cost.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ._deferred import eigvalsh_tridiagonal
from .errors import ConvergenceError, DomainError

__all__ = [
    "LatticeSpec",
    "eigenvalues",
    "bloch_eigenvalues",
    "relative_heat_trace",
    "band_edges_lattice",
    "lattice_heat_trace",
]

MAX_N = 2 ** 20          # grid points of a lattice, or of a CLI table
_DECAY = 1e-14           # u_k below this share of max|u_k| is dropped
_TRACE_SPAN = 40.0       # eigenvalues of a heat trace: up to max u + 40/t
_PHASE_RATE = 6.1        # phases of a heat trace: max(8, ceil(6.1 sqrt(t) / L))
_MAX_ENTRIES = 2 ** 22   # matrix entries of one Hill solve


@dataclass(frozen=True)
class LatticeSpec:
    """Discretization request: box, resolution, boundary condition, u(x).

    n is an integer in [8, MAX_N]; for a periodic lattice it counts the
    samples of one period.  u takes the ndarray of grid points and returns
    an array of the same shape, or one that broadcasts to it (a constant,
    say); it is called once per lattice (CONVENTIONS item 21).
    """

    x_min: float
    x_max: float
    n: int
    bc: str                       # "dirichlet" or "periodic"
    u: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not -math.inf < self.x_min < self.x_max < math.inf:
            raise DomainError("the box needs finite x_min < x_max")
        try:
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise DomainError(f"n must be an integer, got {self.n!r}") from None
        if self.n < 8:
            raise DomainError("n too small for a meaningful lattice")
        if self.n > MAX_N:
            raise DomainError(f"n must be at most {MAX_N}, got {self.n}")
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
    def samples(self) -> np.ndarray:
        """u on the unknowns: the interior points for Dirichlet, the whole
        grid for periodic.  u is sampled here and only here, in one call;
        a result that does not broadcast to the points, or is not finite
        at one, raises DomainError."""
        x = self.grid()
        if self.bc == "dirichlet":
            x = x[1:-1]
        u = np.asarray(self.u(x), dtype=float)
        try:
            u = np.broadcast_to(u, x.shape)
        except ValueError:
            raise DomainError(f"u returned shape {u.shape} for {x.shape[0]} "
                              "grid points") from None
        if not np.all(np.isfinite(u)):
            raise DomainError("u is not finite at every grid point")
        return u

    @cached_property
    def diagonal(self) -> np.ndarray:
        """2/h^2 + u on the unknowns: the finite-difference diagonal."""
        return 2.0 / self.h ** 2 + self.samples


def eigenvalues(spec: LatticeSpec, count: int | None = None) -> np.ndarray:
    """Ascending eigenvalues of a Dirichlet box, all or the lowest count (an
    integer >= 1, else DomainError), by LAPACK on the symmetric tridiagonal
    of the interior points; a periodic lattice takes bloch_eigenvalues."""
    if spec.bc != "dirichlet":
        raise DomainError("eigenvalues requires a Dirichlet box")
    diag = spec.diagonal
    off = np.full(len(diag) - 1, -1.0 / spec.h ** 2)
    try:
        lowest = len(diag) if count is None else operator.index(count)
    except TypeError:
        raise DomainError(f"count must be an integer, got {count!r}") from None
    if lowest < 1:
        raise DomainError(f"count must be at least 1, got {count!r}")
    if lowest >= len(diag):
        return eigvalsh_tridiagonal(diag, off)
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, lowest - 1))


def _hill(spec: LatticeSpec, lam_max: float, thetas: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of H_theta at each phase of thetas, shape
    (len(thetas), 2M + 1), with M from lam_max by the module's rules."""
    u = spec.samples
    n, L = spec.n, spec.x_max - spec.x_min
    with np.errstate(over="ignore", invalid="ignore"):   # raises below
        c = np.fft.rfft(u) / n              # u_k, k = 0 .. n // 2
    if n % 2 == 0:
        c[-1] *= 0.5
    if not np.all(np.isfinite(c)):
        raise DomainError("the Fourier coefficients of u are not finite")
    size = np.abs(c)
    above = np.flatnonzero(size > _DECAY * np.max(size))
    decay = int(above[-1]) + 1 if above.size else 0
    cap = (n - 1) // 2
    reach = L * math.sqrt(max(lam_max - float(np.min(u)), 0.0)) / (2.0 * math.pi)
    M = min(cap, decay + (math.ceil(reach) if reach < cap else cap))
    if len(thetas) * (2 * M + 1) ** 2 > _MAX_ENTRIES:
        raise DomainError(f"{len(thetas)} Hill matrices of {2 * M + 1} modes "
                          f"exceed {_MAX_ENTRIES} entries")
    col = np.zeros(2 * M + 1, dtype=complex)
    col[:min(c.size, 2 * M + 1)] = c[:2 * M + 1]
    m = np.arange(-M, M + 1)
    toeplitz = np.concatenate([col[:0:-1].conj(), col])[m[:, None] - m + 2 * M]
    with np.errstate(over="ignore"):
        kinetic = ((2.0 * math.pi * m + thetas[:, None]) / L) ** 2
    if not np.all(np.isfinite(kinetic)):
        raise DomainError(f"the Hill matrix of period {L!r} overflows")
    H = np.repeat(toeplitz[None], len(thetas), axis=0)
    H[:, m + M, m + M] += kinetic
    return np.linalg.eigvalsh(H)


def bloch_eigenvalues(spec: LatticeSpec, theta: float) -> np.ndarray:
    """All 2M + 1 eigenvalues of H_theta at the cap M = (n - 1) // 2, the
    spectrum at Bloch phase theta (psi(x+L) = e^{i theta} psi) that the n
    samples of one period give, ascending.  An eigenvalue is good to the
    module's accuracy while it lies below min u + (2 pi (M - M_u) / L)^2."""
    if spec.bc != "periodic":
        raise DomainError("bloch_eigenvalues requires a periodic lattice")
    if not math.isfinite(theta):
        raise DomainError("bloch_eigenvalues requires a finite theta")
    return _hill(spec, math.inf, np.array([theta]))[0]


def relative_heat_trace(spec: LatticeSpec, nu: float, t: float) -> float:
    """sum_n (e^{-lambda_n t} - e^{-lambda0_n t}) over the modes of a Dirichlet
    box, lambda0_j = nu + (2/h)^2 sin^2(j pi / (2(n - 1))) the closed-form
    spectrum of the constant background u = nu on it.

    A box stands in for the line while the heat kernel's spread 2 sqrt(t)
    is at most half the box, so t past (box length / 4)^2 raises
    DomainError; past it the box's errors in the lowest modes, the zero
    mode's above all, grow like e^{|delta lambda| t}.  The lattice stands
    in for the line while sqrt(t) spans a few grid steps h, so t below
    10 h^2 raises DomainError too; there the case-A trace is 0.64 % off
    erf(sqrt t), a gap that falls like 0.064 h^2 / t (CONVENTIONS item 17).
    A periodic lattice or a nu that is not finite raises DomainError too,
    and a sum that is not finite ConvergenceError.
    """
    if not math.isfinite(nu):
        raise DomainError(f"relative_heat_trace requires a finite nu, got {nu!r}")
    if spec.bc != "dirichlet":
        raise DomainError("relative_heat_trace requires a Dirichlet box")
    t_min, t_max = 10.0 * spec.h ** 2, (0.25 * (spec.x_max - spec.x_min)) ** 2
    if not t_min <= t <= t_max:
        raise DomainError(f"relative_heat_trace requires {t_min!r} <= t <= {t_max!r}: "
                          "10 h^2 for grid step h, (box length / 4)^2")
    lam = eigenvalues(spec)
    j = np.arange(1, spec.n - 1)
    lam0 = nu + (2.0 / spec.h) ** 2 * np.sin(0.5 * math.pi * j / (spec.n - 1)) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(np.exp(-lam * t) - np.exp(-lam0 * t)))
    if not math.isfinite(total):
        raise ConvergenceError(f"relative heat trace overflows at t = {t!r}")
    return total


def band_edges_lattice(spec: LatticeSpec, n_edges: int) -> np.ndarray:
    """The lowest n_edges band edges of a periodic lattice, ascending: the
    theta = 0 and theta = pi spectra merged.

    Those two spectra together are the periodic spectrum on the circle of
    length 2L, so by min-max edge i is at most max u + (pi j / L)^2,
    j = (i + 1) // 2; that bound at i = n_edges - 1 is the solve's
    lam_max.  An n_edges that is not an integer in [1, n] raises
    DomainError.
    """
    if spec.bc != "periodic":
        raise DomainError("band_edges_lattice requires a periodic lattice")
    try:
        n_edges = operator.index(n_edges)
    except TypeError:
        raise DomainError(f"n_edges must be an integer, got {n_edges!r}") from None
    if not 1 <= n_edges <= spec.n:
        raise DomainError(f"n_edges must be in [1, {spec.n}], got {n_edges}")
    L = spec.x_max - spec.x_min
    q = math.pi * (n_edges // 2) / L
    lam_max = float(np.max(spec.samples)) + q * q
    return np.sort(_hill(spec, lam_max, np.array([0.0, math.pi])), axis=None)[:n_edges]


def lattice_heat_trace(spec: LatticeSpec, t: float) -> float:
    """Per-period heat trace of a periodic operator: the mean of
    sum_j e^{-lambda_j(theta) t} over the midpoint phases (i + 1/2) pi / N
    of (0, pi).

    The trace is at least e^{-t max u}, and lam_max = max u + 40/t leaves
    out what is below e^{-40} of it.  The sum is analytic and periodic in
    theta, and on the free spectrum the midpoint rule misses it by about
    e^{-N^2 L^2 / t}; N = max(8, ceil(6.1 sqrt(t) / L)) makes that e^{-37}.
    A t outside (0, inf) raises DomainError, and a sum that is not finite
    ConvergenceError.
    """
    if spec.bc != "periodic":
        raise DomainError("lattice_heat_trace requires a periodic lattice")
    if not 0.0 < t < math.inf:
        raise DomainError("lattice_heat_trace requires 0 < t < inf")
    L = spec.x_max - spec.x_min
    rate = _PHASE_RATE * math.sqrt(t) / L
    if not rate <= _MAX_ENTRIES:
        raise DomainError(f"lattice_heat_trace at t = {t!r} needs {rate:.3g} phases")
    n_theta = max(8, math.ceil(rate))
    theta = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    lam = _hill(spec, float(np.max(spec.samples)) + _TRACE_SPAN / t, theta)
    with np.errstate(over="ignore"):
        acc = float(np.sum(np.exp(-lam * t)))
    if not math.isfinite(acc):
        raise ConvergenceError(f"lattice heat trace overflows at t = {t!r}")
    return acc / n_theta
