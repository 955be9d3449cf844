"""Brute-force lattice oracle for -d^2/dx^2 + u(x).

Second-order central differences on a uniform grid; Dirichlet boxes for
kink potentials and Bloch-phased single periods for periodic ones.  Used
to gate every closed-form spectral statement in the package.

u(x) is sampled once per lattice, in one call on the array of grid
points (``LatticeSpec.diagonal``).  Dirichlet boxes are symmetric
tridiagonal; a Bloch-phased period is a periodic tridiagonal ring, solved
as a Hermitian matrix of bandwidth 2 after the ring is reordered (real at
theta = 0 and pi, complex otherwise).

The band edges need no eigensolve of the ring.  With site 0 removed it is
a Dirichlet chain T', whose eigenvalues mu_j interlace those of the ring
at theta = 0 and pi, and each edge is the one root in its interlacing
bracket of the Schur complement of T' (Golub, SIAM Rev. 15, 1973, 318):
one bisection for the mu_j, then a few O(n) tridiagonal solves an edge.

The heat trace needs no complex solve.  The ring's characteristic
polynomial is affine in cos theta (van Moerbeke, Invent. Math. 37, 1976):

    det(lambda - H_theta) = cos^2(theta/2) det(lambda - H_0)
                            + sin^2(theta/2) det(lambda - H_pi),

so with a and b the ascending theta = 0 and theta = pi spectra, band j is
swept from a_j to b_j and holds, at each phase, the one root of
prod_k (lambda - a_k)/(lambda - b_k) = -tan^2(theta/2).  Bands are kept
while the bound sum_{j >= m} e^{-t lo_j} on the rest exceeds
1e-17 e^{-t hi_0} (4 to 30 of 360 bands at t >= 0.25).  All kept bands
are solved for every phase in one vectorized Newton loop on the phase
2 atan(|prod|^{1/2}), formed from G = log|prod|, with a bisection guard;
a band leaves the loop once its steps are within its tolerance.  Over the
kept bands, with c and rho the centre and half-width of [lo_0, hi_{m-1}],
G takes exact terms for k < K, K the first index with lo_k - c >= 4 rho
and at least m, and a Taylor series in lambda - c for the rest, whose
coefficients are summed once per call and cut after P terms, P from the
number of far terms by the tail bound (< 1e-17; 33 at n = 360 and
t >= 0.25).  On a small lattice K reaches n and the series is empty.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ._deferred import dgtsv, eig_banded, eigvalsh_tridiagonal
from .errors import ConvergenceError, DomainError

__all__ = [
    "LatticeSpec",
    "eigenvalues",
    "bloch_eigenvalues",
    "relative_heat_trace",
    "band_edges_lattice",
    "lattice_heat_trace",
]

_TRACE_TAIL = 1e-17   # dropped bands: at most this share of e^{-t hi_0}
_MAX_NEWTON = 100     # Newton steps of lattice_heat_trace
_NEAR_SPAN = 4.0      # exact terms of lattice_heat_trace out to 4 band half-widths
_N_THETA = 32         # Bloch phases of lattice_heat_trace on (0, pi)
_EDGE_TOL = 8.0       # edge bracket width, in eps (4/h^2 + max|u|)
_MAX_EDGE_SOLVES = 100  # Schur-complement solves per band edge


@dataclass(frozen=True)
class LatticeSpec:
    """Discretization request: box, resolution, boundary condition, u(x).

    u takes the ndarray of grid points and returns an array of the same
    shape, or one that broadcasts to it (a constant, say); it is called
    once per lattice (CONVENTIONS item 21).
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
        the whole grid for periodic.  u is sampled here and only here, in
        one call; a result that does not broadcast to the points, or is
        not finite at one, raises DomainError."""
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
        return 2.0 / self.h ** 2 + u


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


def bloch_eigenvalues(spec: LatticeSpec, theta: float) -> np.ndarray:
    """Eigenvalues at Bloch phase theta on one period (psi(x+L) = e^{i theta} psi).

    The ring is reordered as 0, n-1, 1, n-2, ...; every neighbour pair is
    then at most two places apart and the Hermitian matrix has bandwidth 2.
    In lower banded form row 2 is the plain hopping -1/h^2 throughout, and
    row 1 holds only the phase link H[n-1, 0] = -e^{i theta}/h^2 (position 0)
    and the link across the middle of the ring (position n-2).
    """
    if spec.bc != "periodic":
        raise DomainError("bloch_eigenvalues requires a periodic lattice")
    if not math.isfinite(theta):
        raise DomainError("bloch_eigenvalues requires a finite theta")
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
    return eig_banded(band, lower=True, eigvals_only=True)


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
    """The lowest n_edges band edges of a periodic lattice, ascending.

    T', the ring without site 0, is a Dirichlet chain on the sites
    1..n-1; one LAPACK bisection gives its lowest ceil(n_edges / 2)
    eigenvalues mu_j.  By Cauchy interlacing, eigenvalue j of the ring at
    theta = 0 or pi lies in [mu_{j-1}, mu_j], mu_{-1} = min u (Gerschgorin),
    where it is the one root of the Schur complement

        S(lambda) = d_0 - lambda - h^-4 w^T (T' - lambda)^-1 w,
        w = e_first + cos(theta) e_last,

    strictly decreasing between its poles.  Band j runs from theta = 0 to
    theta = pi for even j and back for odd j, so edge i is eigenvalue i // 2
    at theta = pi when (i + 1) // 2 is odd and at theta = 0 otherwise;
    only those roots are solved, by _secular_root.  An n_edges that is
    not an integer in [1, n] raises DomainError.  CONVENTIONS item 23 gives
    the accuracy and the cost.
    """
    if spec.bc != "periodic":
        raise DomainError("band_edges_lattice requires a periodic lattice")
    try:
        n_edges = operator.index(n_edges)
    except TypeError:
        raise DomainError(f"n_edges must be an integer, got {n_edges!r}") from None
    if not 1 <= n_edges <= spec.n:
        raise DomainError(f"n_edges must be in [1, {spec.n}], got {n_edges}")
    hop2 = spec.h ** -2
    diag = spec.diagonal
    chain = diag[1:]
    off = np.full(spec.n - 2, -hop2)
    mu = eigvalsh_tridiagonal(chain, off, select="i",
                              select_range=(0, (n_edges - 1) // 2))
    u = diag - 2.0 * hop2
    tol = _EDGE_TOL * np.finfo(float).eps * (4.0 * hop2 + float(np.max(np.abs(u))))
    edges = np.empty(n_edges)
    for i in range(n_edges):
        j = i // 2
        w = np.zeros(spec.n - 1)
        w[0] = 1.0
        w[-1] = -1.0 if (i + 1) // 2 % 2 else 1.0      # cos theta

        def schur(lam, w=w):
            """S(lambda) and S'(lambda) = -1 - h^-4 |(T' - lambda)^-1 w|^2."""
            *_, y, info = dgtsv(off, chain - lam, off, w)
            if info:
                raise ConvergenceError(f"band_edges_lattice: T' - {lam!r} is singular")
            return (diag[0] - lam - hop2 * hop2 * (y[0] + w[-1] * y[-1]),
                    -1.0 - hop2 * hop2 * float(y @ y))

        lo = float(mu[j - 1]) if j else float(np.min(u)) - tol   # mu_{-1} = min u
        edges[i] = _secular_root(schur, lo, float(mu[j]), i % 2 == 1 or i == 0, tol)
    return edges


def _pole_step(x: float, f: float, fp: float, p: float, r: float) -> float:
    """Root of g + g' (lambda - x) - r / (p - lambda) on x's side of p, the
    model of S with the pole p of residue r taken out of the value f and
    slope fp at x (g = f + r/(p - x), g' = fp + r/(p - x)^2 <= -1)."""
    dist = p - x
    if dist == 0.0:
        return x - f / fp
    g = f + r / dist
    gp = min(fp + r / (dist * dist), -1.0)
    a = g + gp * dist
    disc = math.sqrt(a * a - 4.0 * gp * r)
    q = a + (disc if a >= 0.0 else -disc)
    # p - y for y = q/(2g') and 2r/q, the roots of g' y^2 - a y + r without
    # cancellation; on x's side of p, y has the sign of dist
    return p - (max if dist > 0.0 else min)(2.0 * r / q, q / (2.0 * gp))


def _secular_root(schur, lo: float, hi: float, near_hi: bool, tol: float) -> float:
    """The root in [lo, hi] of the decreasing schur(lambda) -> (S, S').

    An edge sits next to one end of its bracket, the near end (hi for an
    upper edge or the lowest one, lo for a lower edge).  The first solve is
    tol inside it.  If S changes sign there, the root is within tol of the
    end: the end's Dirichlet eigenvector has no weight on the ends of T'
    to rounding, its pole is removable, and the end itself is returned
    (deflation, as in divide and conquer).  Otherwise S and S' there fix a
    pole p = lambda + S/S' of residue S^2/|S'|, the pole at the near end
    or the next one past it, and each step is the root of the model with
    that pole (_pole_step); a step that leaves the bracket is replaced by
    Newton's, and one that leaves it too or is not half the step before
    last by bisection.  A step shorter than tol/2 is lengthened to tol/2 so
    that the bracket closes from both sides.  The solve stops when the
    bracket is at most tol wide; past _MAX_EDGE_SOLVES solves it raises
    ConvergenceError.
    """
    if hi - lo <= 2.0 * tol:
        return 0.5 * (lo + hi)
    x = hi - tol if near_hi else lo + tol
    f, fp = schur(x)
    if f == 0.0:
        return x
    if (f > 0.0) == near_hi:
        return hi if near_hi else lo
    lo, hi = (x, hi) if f > 0.0 else (lo, x)
    step = f / fp
    p, r = x + step, -f * step
    if abs(step) > 2.0 * tol and lo < x - step < hi:
        x -= step                 # the near end is no pole: a Newton step
    else:
        x = 0.5 * (lo + hi)
    dx_old = dx = hi - lo
    for _ in range(_MAX_EDGE_SOLVES - 1):
        f, fp = schur(x)
        if f == 0.0:
            return x
        lo, hi = (x, hi) if f > 0.0 else (lo, x)
        new = _pole_step(x, f, fp, p, r)
        if not lo <= new <= hi:
            new = x - f / fp
        if hi - lo <= tol:
            return min(max(new, lo), hi)
        if abs(new - x) < 0.5 * tol:
            new = x + math.copysign(0.5 * tol, f)
        elif not lo < new < hi or abs(new - x) > 0.5 * abs(dx_old):
            new = 0.5 * (lo + hi)
        dx_old, dx = dx, new - x
        x = new
    raise ConvergenceError(
        f"band_edges_lattice: edge not converged in {_MAX_EDGE_SOLVES} solves")


def _far_series(da: np.ndarray, db: np.ndarray) -> tuple[float, np.ndarray]:
    """The far terms of G = log|prod_k (lambda - a_k)/(lambda - b_k)| as a
    Taylor series in x = lambda - c, for da = a_k - c and db = b_k - c:

        G_far = c0 + sum_{p=1..P} x^p / p coef_p,
        c0 = sum_k log(da_k / db_k),  coef_p = sum_k (db_k^-p - da_k^-p).

    With rho the kept bands' half-width, r_k = rho / min(da_k, db_k) <= 1/4
    and |x| <= rho, |da_k^-p - db_k^-p| <= (r_k / rho)^p; the terms past P
    add at most sum_k r_k^{P+1} / ((P + 1)(1 - r_k)) < N (4/3) 4^-P for N
    far terms, below _TRACE_TAIL from P = ceil(log_4(N (4/3) / _TRACE_TAIL)):
    33 on the 36 lattice-gate heat traces (n = 360).  Returns c0, coef_1..P.
    """
    P = math.ceil(math.log(da.size * 4.0 / 3.0 / _TRACE_TAIL, 4.0)) if da.size else 0
    pa, pb = _powers(np.stack([1.0 / da, 1.0 / db]), P + 1)[1:].transpose(1, 0, 2)
    return float(np.sum(np.log(da / db))), (pb - pa).sum(axis=1)


def _powers(base: np.ndarray, count: int) -> np.ndarray:
    """base^0 .. base^(count - 1) along a new first axis."""
    out = np.ones((count,) + base.shape)
    np.cumprod(np.broadcast_to(base, out[1:].shape), axis=0, out=out[1:])
    return out


def _phase_roots(a: np.ndarray, b: np.ndarray, m: int, theta: np.ndarray) -> np.ndarray:
    """The root of bands 0..m-1 at each phase theta, shape (m, theta.size).

    Band j runs from a_j to b_j; its phase 2 atan(e^{G/2}) runs from 0 to pi,
    and Newton's method is run on it for every band and phase at once.  G
    takes exact terms for k < K and _far_series for the rest, about the
    centre c of [lo_0, hi_{m-1}] and with its half-width rho: K is the
    first index with lo_k - c >= _NEAR_SPAN rho, and at least m.  A step
    that leaves the bracket [L, H] (end points included) is replaced by the
    bracket's midpoint; a band whose steps are all within its tolerance
    takes its last step, clipped to the bracket, and leaves the loop.
    """
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    c, rho = 0.5 * (lo[0] + hi[m - 1]), 0.5 * (hi[m - 1] - lo[0])
    K = max(m, np.count_nonzero(lo - c < _NEAR_SPAN * rho))
    c0, coef = _far_series(a[K:] - c, b[K:] - c)
    P = coef.size
    series = np.stack([coef / np.arange(1, P + 1), coef])   # value / (x - c), slope
    an, bn = a[:K], b[:K]
    rows = np.arange(m)
    rising = (b[:m] > a[:m])[:, None]
    L = np.repeat(lo[:m, None], theta.size, axis=1)
    H = np.repeat(hi[:m, None], theta.size, axis=1)
    tol = (1e-12 * (hi[:m] - lo[:m])
           + 4e-15 * np.maximum(np.abs(lo[:m]), np.abs(hi[:m])))[:, None]
    x = a[:m, None] + (b[:m] - a[:m])[:, None] * np.sin(0.5 * theta) ** 2
    roots = np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_NEWTON):
            r = x[..., None] - an
            ratio = r / (x[..., None] - bn)
            xc = x - c
            far, dfar = series @ _powers(xc, P).reshape(P, x.size)
            g = np.log(np.abs(ratio)).sum(axis=-1) + c0 + xc * far.reshape(x.shape)
            e = np.exp(0.5 * g)
            miss = 2.0 * np.arctan(e) - theta
            # d/dlambda log|r/q| = 1/r - 1/q = (1 - r/q)/r
            step = miss * (e + 1.0 / e) / (((1.0 - ratio) / r).sum(axis=-1)
                                           + dfar.reshape(x.shape))
            above = (miss < 0.0) == rising
            L = np.where(above, x, L)
            H = np.where(above, H, x)
            done = np.all(np.abs(step) <= tol, axis=1)
            if done.any():
                roots[rows[done]] = np.clip(x[done] - step[done], L[done], H[done])
                if done.all():
                    return roots
                rows, x, step, L, H, tol, rising = (
                    v[~done] for v in (rows, x, step, L, H, tol, rising))
            x = x - step
            x = np.where((x >= L) & (x <= H), x, 0.5 * (L + H))
    raise ConvergenceError(
        f"lattice_heat_trace: band {rows[0]} not converged in {_MAX_NEWTON} steps")


def lattice_heat_trace(spec: LatticeSpec, t: float) -> float:
    """Per-period heat trace of a periodic operator, averaged over the
    _N_THETA phases (i + 1/2) pi / _N_THETA of (0, pi).

    Only the theta = 0 and theta = pi spectra are solved; the module
    docstring gives the identity that fixes every other phase from them.
    The trace is at least e^{-t hi_0}, so the bands dropped change it by at
    most _TRACE_TAIL relative.
    """
    if spec.bc != "periodic":
        raise DomainError("lattice_heat_trace requires a periodic lattice")
    if not 0.0 < t < math.inf:
        raise DomainError("lattice_heat_trace requires 0 < t < inf")
    a = bloch_eigenvalues(spec, 0.0)
    b = bloch_eigenvalues(spec, math.pi)
    # the suffix sums of e^{-t (lo_j - hi_0)}, j >= 1, bound the bands left out
    rest = np.minimum(a, b)[:0:-1] - max(a[0], b[0])
    m = 1 + np.count_nonzero(np.cumsum(np.exp(-t * rest)) > _TRACE_TAIL)
    theta = (np.arange(_N_THETA) + 0.5) * math.pi / _N_THETA
    lam = _phase_roots(a, b, m, theta)
    acc = 0.0
    with np.errstate(over="ignore"):
        for band in np.exp(-lam * t).sum(axis=1).tolist():
            acc += band
    if not math.isfinite(acc):
        raise ConvergenceError(f"lattice heat trace overflows at t = {t!r}")
    return acc / _N_THETA
