"""Genus-1 cross-check: Lame solutions from Weierstrass/theta quotients.

The one-gap operator in its cnoidal form,

    (-d^2/dx^2 + 2 k^2 - 2 k^2 cn^2(x, k)) psi = h psi,

maps to the Weierstrass form (-d^2/du^2 + 2 p(u)) psi = H psi with
u = (x - i K') / sqrt(3), H = 3h - 2(1 + k^2) and lattice roots
e = (2 - k^2, 2k^2 - 1, -(1 + k^2)), e1 - e3 = 3.  Its Bloch solutions
are sigma quotients

    psi_s(x) = sigma(v + s a) / sigma(v) exp(-s zeta(a) v),   s = +-1,

where v = (x - i K')/sqrt(3) and p(a) = -H, so a runs over the
fundamental-rectangle boundary for real h and hits a half-period exactly
at a band edge (p'(a) = 0), where the two solutions degenerate.

The spectral Green-function diagonal psi_+ psi_- / W, with W the
Wronskian (jump normalization -1), equals the resolvent-polynomial
diagonal of the matching periodic case at p = 1 - h, which is the
cross-module identity this package uses as its strongest internal check.
b is fixed to 1 here; general b is handled at the comparison boundary by
rescaling x -> b x and p -> p / b^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from . import specfun
from .errors import DomainError, WronskianDegeneracyError

__all__ = [
    "lame_system",
    "LameSolution",
    "make_lame_solution",
    "green_diag",
    "green_offdiag",
    "lame_band_edges",
]

_SQRT3 = math.sqrt(3.0)


def lame_band_edges(k: float) -> tuple[float, float, float]:
    """Band edges of the cnoidal operator: h in {k^2, 1, 1 + k^2}."""
    return (k * k, 1.0, 1.0 + k * k)


@lru_cache(maxsize=64)
def lame_system(k: float) -> specfun.WeierstrassParams:
    """The lattice of modulus k, roots (2 - k^2, 2k^2 - 1, -(1 + k^2))."""
    if not 0.0 < k < 1.0:
        raise DomainError("lame_system requires 0 < k < 1")
    return specfun.weierstrass_params(k, 3.0)


@dataclass(frozen=True)
class LameSolution:
    """The pair of Bloch solutions at spectral parameter h.

    a is the uniformization point with p(a) = 2(1 + k^2) - 3h; the two
    solutions correspond to the two signs of a.  zeta_a = zeta(a).
    """

    h: float
    k: float
    a: complex
    zeta_a: complex
    params: specfun.WeierstrassParams
    wronskian: complex

    def psi_plus(self, x: float) -> complex:
        return _psi_values(self.params, self.a, self.zeta_a, x, (+1,))[0]

    def psi_minus(self, x: float) -> complex:
        return _psi_values(self.params, self.a, self.zeta_a, x, (-1,))[0]


def _psi_values(params: specfun.WeierstrassParams, a: complex, za: complex,
                x: float, signs: tuple[int, ...]) -> list[complex]:
    """psi_s(x) for each s in signs, with sigma(v) summed once for all."""
    v = x / _SQRT3 - params.omega_p
    try:
        sigma_v = specfun.weierstrass_sigma(v, params)
        values = [specfun.weierstrass_sigma(v + sign * a, params) / sigma_v
                  * cmath.exp(-sign * za * v) for sign in signs]
    except (OverflowError, DomainError):     # sigma or e^{-s zeta(a) v} overflows
        values = [cmath.inf]
    if not all(cmath.isfinite(value) for value in values):
        raise DomainError(f"psi is not finite at x = {x!r}")
    return values


def make_lame_solution(h: float, k: float) -> LameSolution:
    """Construct both Bloch solutions and their Wronskian at parameter h.

    W = psi_+ psi_-' - psi_- psi_+' = -sigma(a)^2 p'(a) / sqrt(3) in
    closed form (CONVENTIONS item 18), with p'(a) from the Weierstrass
    equation, p'(a)^2 = 4 prod (p(a) - e_i) = 108 r (1 - h)(k^2 - h),
    r = 1 + k^2 - h: the principal root, negated on boundary segments 0
    and 3, where a lies on the real or the imaginary axis.  Band edges
    are uniformized by half-periods, where p'(a) = 0 and the two
    solutions coincide; a guard band of 1e-4 around each edge raises the
    degeneracy error (the p -> a map is quadratic there, so closer h
    values are not numerically distinguishable from the edge itself), as
    does a W that is zero or not finite.  Where p'(a)^2 overflows (|h|
    past about 1e102) DomainError is raised instead: that is no band
    edge.  sigma(a) and zeta(a) come from one theta_1 pass, and zeta(a)
    serves both solutions.
    """
    if not math.isfinite(h):
        raise DomainError(f"make_lame_solution requires a finite h, got {h}")
    edges = lame_band_edges(k)
    if min(abs(h - he) for he in edges) < 1e-4:
        raise WronskianDegeneracyError(
            f"h = {h} is within the band-edge guard band")
    params = lame_system(k)
    # r = (p(a) - e3) / 3 = 1 + k^2 - h without forming the O(1) p(a); the
    # boundary segment counts the band edges below h (CONVENTIONS item 20)
    r, segment = (1.0 - h) + edges[0], sum(h > e for e in edges)
    a = specfun._p_preimage(r, segment, params)
    dp2 = 108.0 * r * (1.0 - h) * (edges[0] - h)
    if not math.isfinite(dp2):
        raise DomainError(f"make_lame_solution: p'(a)^2 overflows at h = {h}")
    dp = cmath.sqrt(dp2)
    if segment in (0, 3):
        dp = -dp
    sa, za = specfun._sigma_zeta(a, params)
    w = -sa ** 2 * dp / _SQRT3
    if w == 0.0 or not cmath.isfinite(w):
        raise WronskianDegeneracyError(
            f"degenerate Bloch pair at h = {h} (band edge)")
    return LameSolution(h=h, k=k, a=a, zeta_a=za, params=params, wronskian=w)


def green_diag(x: float, h: float, k: float) -> complex:
    """Green-function diagonal psi_+ psi_- / W (derivative jump -1), the
    value of green_offdiag(x, x, h, k), with sigma(v) summed once for both."""
    sol = make_lame_solution(h, k)
    _, x = _periods(x, sol.params)
    plus, minus = _psi_values(sol.params, sol.a, sol.zeta_a, x, (+1, -1))
    return plus * minus / sol.wronskian


def green_offdiag(x: float, x0: float, h: float, k: float) -> complex:
    """Off-diagonal Green function (psi_+ at the larger argument).

    Each point is reduced by its own whole periods 2K, and the Bloch
    multipliers psi_+-(x + 2K n) = mu^{+-n} psi_+-(x), log mu = 2(eta a -
    zeta(a) omega), enter once as exp((n_hi - n_lo) log mu), so the value
    stays finite where psi_+(hi) alone would not."""
    sol = make_lame_solution(h, k)
    hi, lo = (x, x0) if x >= x0 else (x0, x)
    n_hi, hi = _periods(hi, sol.params)
    n_lo, lo = _periods(lo, sol.params)
    value = sol.psi_plus(hi) * sol.psi_minus(lo) / sol.wronskian
    if n_hi != n_lo:
        p = sol.params
        value *= cmath.exp((n_hi - n_lo) * 2.0 * (p.eta * sol.a - sol.zeta_a * p.omega))
    return value


def _periods(x: float, params: specfun.WeierstrassParams) -> tuple[int, float]:
    """(n, x - 2K n), n = floor(x / 2K) the whole periods 2K = 2 sqrt(3) omega
    of the Green functions in x, while |x| / 2K < 2^52 (n = 0 past that)."""
    period = 2.0 * _SQRT3 * params.omega
    n = math.floor(x / period) if abs(x / period) < 2.0 ** 52 else 0
    return n, x - n * period
