"""Diagonal resolvents of the five fluctuation operators.

For each case the Laplace-domain Green-function diagonal is the algebraic
form G(p, x) = P(p, z(x)) / (2 sqrt(Q(p))) with

    z = cn^2(bx; k)                 (periodic B, D; the kinks A, C are
                                     k = 1, where z = sech^2(bx))
    z = cd^2(sqrt2 b x; 1/sqrt2)    (Nahm: the imaginary-modulus real
                                     section)

and P, Q polynomial in p.  G satisfies the bilinear identity

    2 G G'' - (G')^2 - 4 (u(x) + p) G^2 + 1 = 0,

which in the z variable becomes
b^2 (rho (2 P P'' - P'^2) + rho' P P') - (p + u) P^2 + Q = 0 with
rho = z^2(1-z) for kinks and z(1-z)(1-k^2+k^2 z) for the periodic cases.

The module also assembles the per-period trace of G (gamma_hat), the
relative spectral density along the branch cuts of sqrt(Q), its inverse
Laplace transform (the relative heat trace) and the heat-kernel
coefficients of gamma_hat at large p, which give the heat trace at small
t and the top band above a cut.  The band integrator, product rules
against Jacobi weights, lives here; both traces' routes run it.

Case tags: A = SG kink, B = SG periodic, C = GL kink, D = GL periodic,
NAHM = the k^2 = -1 continuation of D.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property

import numpy as np

from . import specfun
from ._deferred import binom, dct, rgamma
# kzbench/tracing.py wraps resolvent.quad by name for its per-layer
# resolvent.quad_self_s, so the name must exist; nothing here calls it,
# and the deferred quad loads scipy.integrate only when called
from ._deferred import quad  # noqa: F401
from .errors import ConvergenceError, DomainError, PoleError
from .models import _K1, _KE_IMAG

__all__ = [
    "CaseTag",
    "ResolventPolynomial",
    "build_resolvent",
    "hermit_residual",
    "invert_laplace_gamma",
    "TraceInversion",
]


class CaseTag(str, Enum):
    A = "a"        # SG kink
    B = "b"        # SG periodic
    C = "c"        # GL kink
    D = "d"        # GL periodic
    NAHM = "nahm"  # Nahm (k^2 = -1 member of D)


# terms of the heat-kernel series: the contour zeta sums it at |r scale| <=
# 1/4 (the last below 4^-59 of the first), the heat trace at t R <= 1
_HEAT_TERMS = 60
_TERMS = np.arange(_HEAT_TERMS)


@cache
def _half_binomial() -> np.ndarray:
    """C(2n, n) / 4^n, n < _HEAT_TERMS; built on first use, so that importing
    the package loads no scipy."""
    return binom(2 * _TERMS, _TERMS) / 4.0 ** _TERMS


@cache
def _rgamma_half() -> np.ndarray:
    """1 / Gamma(n + 1/2), n < _HEAT_TERMS; built on first use, as above."""
    return rgamma(_TERMS + 0.5)


def _polyval(coeffs, x):
    """Evaluate sum_j coeffs[j] x^j (ascending order)."""
    acc = 0.0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _polyder(coeffs):
    return tuple(j * coeffs[j] for j in range(1, len(coeffs)))


@dataclass(frozen=True)
class ResolventPolynomial:
    """P(p, z), Q(p) and the ordered real roots of Q for one case.

    p_rows holds the z-polynomials multiplying ascending powers of p, so
    P(p, z) = sum_i p_rows[i](z) * p^i.  q_coeffs are ascending and monic.
    k is 1.0 for the kinks and None for NAHM.
    roots are sorted ascending; double roots appear twice.
    """

    case: CaseTag
    b: float
    k: float | None
    p_rows: tuple[tuple[float, ...], ...]
    q_coeffs: tuple[float, ...]
    roots: tuple[float, ...]
    rho_coeffs: tuple[float, ...]
    u_coeffs: tuple[float, ...]
    nu: float                     # continuum edge of the constant background
    moments: tuple[float, ...]    # (I0, Iz, Izz); I0 = inf for kinks

    # -- polynomial data ----------------------------------------------------
    def P(self, p, z):
        return sum(_polyval(row, z) * p ** i for i, row in enumerate(self.p_rows))

    def Q(self, p):
        return _polyval(self.q_coeffs, p)

    def rho(self, z):
        return _polyval(self.rho_coeffs, z)

    def u_of_z(self, z):
        return _polyval(self.u_coeffs, z)

    @property
    def is_kink(self) -> bool:
        return self.case in (CaseTag.A, CaseTag.C)

    @property
    def period(self) -> float:
        """The period of u, which is the moment I0 = int dx over it; inf
        for a kink."""
        return self.moments[0]

    # -- coordinate maps ----------------------------------------------------
    # x is a float or an ndarray of points (CONVENTIONS item 21)
    def z_of_x(self, x):
        if self.case is CaseTag.NAHM:
            _, cn, dn = specfun.jacobi_sn_cn_dn(math.sqrt(2.0) * self.b * x, _K1)
            cd = cn / dn
            return cd * cd
        _, cn, _ = specfun.jacobi_sn_cn_dn(self.b * x, self.k)   # sech(bx) at k = 1
        return cn * cn

    def u_of_x(self, x):
        return self.u_of_z(self.z_of_x(x))

    # -- square-root branch -------------------------------------------------
    def sqrt_q(self, p: complex) -> complex:
        """sqrt(Q) as the product of the principal roots sqrt(p - r).

        Continuous from p -> +inf along any path avoiding the real cuts;
        on the real axis this realizes the Im p -> 0+ boundary value, and
        it is real with the correct alternating sign on the spectral gaps.
        """
        pc = complex(p)
        return math.prod(cmath.sqrt(pc - r) for r in self.roots)

    def green_diag(self, p: complex, x: float) -> complex:
        """G(p, x) = P(p, z(x)) / (2 sqrt(Q(p))) at a float x."""
        return self.P(complex(p), float(self.z_of_x(x))) / (2.0 * self.sqrt_q(p))

    # -- trace numerators ---------------------------------------------------
    @cached_property
    def _trace_coeffs(self) -> tuple[float, ...]:
        """Ascending p-coefficients of the trace numerator: each row of P
        weighted by the period moments of its z powers.  For a kink the
        z-independent column (the constant-background Green function) is
        dropped, leaving the finite kink moments."""
        I0, Iz, Izz = self.moments
        weights = (0.0 if self.is_kink else I0, Iz, Izz)
        return tuple(sum(row[j] * weights[j] for j in range(len(row)))
                     for row in self.p_rows)

    def gamma_hat(self, p: complex) -> complex:
        """Laplace-domain trace: per period for B/D/NAHM, the renormalized
        (background-subtracted) kink trace for A/C.

        Raises within 1e-6 of a root of Q, where the form is singular.
        """
        pc = complex(p)
        if min(abs(pc - r) for r in self.roots) < 1e-6:
            raise PoleError("gamma_hat within 1e-6 of a branch point")
        return _polyval(self._trace_coeffs, pc) / (2.0 * self.sqrt_q(pc))

    # -- spectral structure (computed once per instance) ---------------------
    def bound_states(self) -> tuple[float, ...]:
        """lambda = -p0 at each double root p0 of Q: the poles of the
        relative trace, the bound states of the kink operators.  Each is a
        simple eigenvalue, so its residue is exactly 1."""
        return self._spectrum[1]

    def bands(self) -> tuple[tuple[float, float], ...]:
        """Allowed spectral bands in lambda, ascending; the top one is
        half-infinite and returned as (lo, inf)."""
        return self._spectrum[0]

    @cached_property
    def _spectrum(self):
        """(bands, bound states) from one pass over the roots in ascending p.

        A double root is a bound state; its unit residue is not evaluated.
        Q has odd degree, so Q < 0 below its lowest simple root, which is
        the lower edge of the top band; the simple roots above it pair into
        the finite bands.
        """
        roots = self.roots
        edges, states = [], []
        i = 0
        while i < len(roots):
            if roots[i + 1:i + 2] == (roots[i],):
                states.append(-roots[i])
                i += 2
            else:
                edges.append(-roots[i])
                i += 1
        bands = [(edges[j + 1], edges[j]) for j in range(len(edges) - 2, 0, -2)]
        return tuple(bands) + ((edges[0], math.inf),), tuple(states)

    # kept for kzbench: tracing.TARGETS wraps it; the package uses band_density
    def density(self, lam: float) -> float:
        """Spectral density at lambda (per period, or relative for kinks):
        rho(lambda) = (1/pi) Im gamma_hat(p - i0) at p = -lambda, read off
        band_density on the band that holds lambda.  Exactly 0.0 off the
        bands; do not call at band edges."""
        lam = float(lam)
        for lo, hi in self.bands():
            if lo < lam < hi:
                return float(self.band_density(lo, hi, lam - lo, hi - lam))
        return 0.0

    def band_density(self, lo: float, hi: float, d_lo, d_hi=None):
        """density on the band (lo, hi) at lam = lo + d_lo, for distances
        d_lo (an array or a float), and on a finite band also lam = hi - d_hi.
        The edge factors of |Q| are taken from the distances, not from the
        rounded lam, so that the density keeps its digits next to an edge,
        also on a band narrower than the rounding of lam (case D as k -> 1).
        On the top band hi is a cut or inf, not an edge, and lam = lo + d_lo.

        On a band sqrt(Q) is i^m prod sqrt|p - r|, m the number of roots
        above p (odd there), so the density is the real
        +-N(p) / (2 pi prod sqrt|p - r|), + for m = 1 mod 4.
        """
        above = sum(r >= -lo for r in self.roots)
        if above == len(self.roots):
            p, mag, known = -(lo + d_lo), np.sqrt(d_lo), (-lo,)
        else:
            p = -np.where(d_lo <= d_hi, lo + d_lo, hi - d_hi)
            mag, known = np.sqrt(d_lo) * np.sqrt(d_hi), (-lo, -hi)
        for r in self.roots:
            if r not in known:
                mag = mag * np.sqrt(abs(p - r))
        return _polyval(self._trace_coeffs, p) / (2.0 * math.pi * mag) * (2 - above % 4)

    def heat_coeffs(self, scale: float, factor: float = 1.0) -> np.ndarray:
        """factor g_n scale^n, n < _HEAT_TERMS, with g_n the heat-kernel
        (Gel'fand-Dikii) coefficients: gamma_hat(p) = sum g_n p^{-n-1/2}
        for |p| > R = max |r_i|.  g_n is half the reversed trace numerator,
        N(p)/p^d, times (1 - r/p)^{-1/2} = sum C(2m, m) 4^{-m} (r/p)^m for
        every root; scale and factor enter before the convolution, so no
        power of R or 1/R is formed on its own."""
        n = self._trace_coeffs[::-1]
        series = np.array(n) * (0.5 * factor) * scale ** np.arange(len(n))
        for r in self.roots:
            series = np.convolve(series, _half_binomial() * (r * scale) ** _TERMS
                                 )[:_HEAT_TERMS]
        return series


def build_resolvent(case: CaseTag, b: float, k: float | None = None) -> ResolventPolynomial:
    """Populate P, Q, rho, u and the period moments for one case.

    k is required for B and D (0 < k < 1) and ignored for A, C (which
    take k = 1) and NAHM (k = None).
    The roots of Q come from its factorization in k^2 and k'^2; they are
    equal only at k^2 = 1 (the double roots of a kink), and a periodic
    case with two edges that round to one float raises DomainError.
    """
    case = CaseTag(case)
    if not 0.0 < b < math.inf:
        raise DomainError("build_resolvent requires 0 < b < inf")
    # a kink is the k = 1 member of its family, NAHM the k^2 = -1 member
    # of GL; kc2 = 1 - k^2, without cancellation as k -> 1
    kink = case in (CaseTag.A, CaseTag.C)
    if case in (CaseTag.B, CaseTag.D):
        if k is None or not 0.0 < k < 1.0:
            raise DomainError(f"case {case.value} requires 0 < k < 1")
    else:
        k = 1.0 if kink else None
    if case is CaseTag.NAHM:
        k2, kc2 = -1.0, 2.0
    else:
        k2, kc2 = k * k, (1.0 - k) * (1.0 + k)
    b2 = b * b
    b4 = b2 * b2

    if case in (CaseTag.A, CaseTag.B):  # SG
        p_rows = ((0.0, k2 * b2), (1.0,))
        q = (0.0, -b4 * k2 * kc2, b2 * (2.0 * k2 - 1.0), 1.0)
        u = (b2 * (2.0 * k2 - 1.0), -2.0 * k2 * b2)
        nu = b2  # SG vacuum edge (k -> 1 limit of the top band edge)
        roots = (-k2 * b2, 0.0, kc2 * b2)   # Q = p (p + k^2 b^2)(p - k'^2 b^2)
    else:  # GL
        p_rows = ((0.0, 9.0 * b4 * k2 * kc2, 9.0 * b4 * k2 * k2),
                  (3.0 * b2, 3.0 * b2 * k2),
                  (1.0,))
        q = (0.0,
             -27.0 * k2 * kc2 ** 2 * b4 * b4,
             -9.0 * (b4 * b2) * (k2 + 1.0) * (k2 * k2 - 4.0 * k2 + 1.0),
             3.0 * (1.0 + 9.0 * k2 + k2 * k2) * b4,
             5.0 * b2 * (1.0 + k2),
             1.0)
        u = (b2 * (5.0 * k2 - 1.0), -6.0 * k2 * b2)
        nu = 4.0 * b2 if kink else 0.0  # periodic: free reference background
        # Q = p (p + 3k^2 b^2)(p + 3b^2)((p + (1+k^2) b^2)^2 - 4 r^2 b^4) with
        # r^2 = 1 - k^2 k'^2; the last factor's roots are -w b^2 and
        # 3 k'^4 b^2 / w, w = 1 + k^2 + 2r, the second free of cancellation
        w = 1.0 + k2 + 2.0 * math.sqrt(1.0 - k2 * kc2)
        roots = (0.0, -3.0 * k2 * b2, -3.0 * b2, -w * b2, 3.0 * b2 * kc2 * kc2 / w)
    # the limits leave some products at -0.0; adding 0.0 makes them +0.0
    q = tuple(c + 0.0 for c in q)
    if not all(map(math.isfinite, q)):
        raise DomainError(f"the coefficients of Q overflow at b = {b}")
    # Q(0) = 0; the next coefficient (q2 for the double root of a kink at 0,
    # else q1) underflows first as b -> 0, and q1 of B and D, with k^2, as k -> 0
    if not abs(q[2 if kink else 1]) >= np.finfo(float).tiny:
        at = f"b = {b}, k = {k}" if case in (CaseTag.B, CaseTag.D) else f"b = {b}"
        raise DomainError(f"the coefficients of Q underflow at {at}")
    roots = tuple(sorted(roots))
    if not kink and len(set(roots)) < len(roots):
        raise DomainError(f"two band edges of case {case.value} round to one "
                          f"float at k = {k}")
    rho = (0.0, kc2, 2.0 * k2 - 1.0, -k2)

    if kink:
        moments = (math.inf, 2.0 / b, 4.0 / (3.0 * b))
    elif case is CaseTag.NAHM:
        # period moments carry the imaginary-modulus integrals K(i), E(i)
        ki, ei = _KE_IMAG
        moments = (2.0 * ki / b, 2.0 / b * (2.0 * ki - ei),
                   2.0 / b * (10.0 / 3.0 * ki - 2.0 * ei))
    else:  # z = cn^2(bx; k) for B and D; Izz cancels to about eps / k^4
        if 3.0 * k2 * k2 == 0.0:
            raise DomainError(f"case {case.value} moments underflow at k = {k}")
        K, E = specfun.ellipke(k)
        Iz = 2.0 / (b * k2) * (E - kc2 * K)
        Izz = 2.0 / b * (K - 2.0 * (K - E) / k2
                         + ((2.0 + k2) * K - 2.0 * (1.0 + k2) * E) / (3.0 * k2 * k2))
        moments = (2.0 * K / b, Iz, Izz)

    return ResolventPolynomial(case=case, b=b, k=k, p_rows=p_rows,
                               q_coeffs=q, roots=roots,
                               rho_coeffs=rho, u_coeffs=u, nu=nu,
                               moments=moments)


def hermit_residual(rp: ResolventPolynomial, p: complex, x: float) -> float:
    """Magnitude of the bilinear-identity defect for G = P/(2 sqrt Q).

    Computed from exact z-polynomial derivatives and the chain rule
    z_x^2 = 4 b^2 rho(z), z_xx = 2 b^2 rho'(z); for the true G the value
    is zero up to rounding, and any rescaling of G makes it order one.
    """
    z = rp.z_of_x(x)
    pc = complex(p)
    rows = rp.p_rows
    P = rp.P(pc, z)
    Pz = sum(_polyval(_polyder(row), z) * pc ** i for i, row in enumerate(rows))
    Pzz = sum(_polyval(_polyder(_polyder(row)), z) * pc ** i
              for i, row in enumerate(rows))
    rho = rp.rho(z)
    rho_z = _polyval(_polyder(rp.rho_coeffs), z)
    R = (rp.b ** 2 * (rho * (2.0 * P * Pzz - Pz * Pz) + rho_z * P * Pz)
         - (pc + rp.u_of_z(z)) * P * P + rp.Q(pc))
    return abs(R / rp.Q(pc))


# ---------------------------------------------------------------------------
# band integration
# ---------------------------------------------------------------------------

# Product integration against Jacobi weights: on a piece of a band the
# integrand is (1 - y)^a (1 + y)^b f(y) with f smooth, and the interpolant
# of f at first-kind Chebyshev nodes is integrated against the weight, in
# one dot product with node weights (_product_weights).  Every piece runs
# the rules of _ORDER and 2 _ORDER nodes; their difference is the error
# estimate, and a piece where it exceeds _PIECE_TOL * max(1, |value|) is
# bisected.  The four pairs with exponents in {0, -1/2} at both ends (every
# heat-trace piece, every contour-zeta piece off lambda = 0, and at s = 0
# every piece) take _fixed_weights, built on first use; a piece at
# lambda = 0 carries -1/2 - s and gets its weights per call.
# 64 nodes already resolve every band of the test tables to rounding (worst
# 4.3e-14 on kzbench/reference.json).  The order stays 512: the zeta-sweep
# harness keeps about 0.28 KB per operation, so its 5 % bound on peak
# memory caps the operation rate.  Order 64 ran zeta-sweep at 2,425-2,431
# results/s against 1,823-1,871 at 512, at 104.9-105.6 MB of peak memory
# against 99.2-101.5 MB (20 s runs, seeds 1 and 2, 2 shared vCPUs).  It
# waits for a harness that keeps per-class aggregates (ROADMAP item 2).
_ORDER = 512
_PIECE_TOL = 1e-11
_MAX_PIECES = 200        # per band; past it pieces are taken as they are
_MIN_HALF = 2.0 ** -30   # half-width of the narrowest piece that is split


def _chebyshev_nodes(n: int):
    """(1 + y, 1 - y) at y = cos(pi (j + 1/2) / n), free of cancellation."""
    half = 0.5 * np.pi * (np.arange(n) + 0.5) / n
    return 2.0 * np.cos(half) ** 2, 2.0 * np.sin(half) ** 2


# the nodes of both rules in one array: _ORDER of the first, then 2 _ORDER
_OPY, _OMY = (np.concatenate(pair) for pair in
              zip(_chebyshev_nodes(_ORDER), _chebyshev_nodes(2 * _ORDER)))
_LOG_OPY, _LOG_OMY = np.log(_OPY), np.log(_OMY)


def _jacobi_moments(a: complex, b: complex, n: int) -> np.ndarray:
    """G_k = int_{-1}^{1} (1 - x)^a (1 + x)^b T_k(x) dx for k < n, complex
    a, b with real parts above -1, from G_0 = 2^{a+b+1} B(a+1, b+1): at
    b = -1/2 the product G_{k+1} = G_k (k - a - 1/2) / (k + a + 3/2) (GR
    3.631.8 at x = cos theta), mirrored with alternating signs at a = -1/2;
    other pairs take _moment_recurrence.  Where both exponents are real, G_0
    comes from math.gamma and 2.0 **, a few eps against 35 via complex Gamma."""
    ca, cb = complex(a), complex(b)
    if ca.imag == 0.0 and cb.imag == 0.0:
        g0 = (2.0 ** (ca.real + cb.real + 1.0) * math.gamma(ca.real + 1.0)
              * math.gamma(cb.real + 1.0) / math.gamma(ca.real + cb.real + 2.0))
    else:
        g0 = (cmath.exp((a + b + 1.0) * math.log(2.0)) * specfun.gamma_fn(a + 1.0)
              * specfun.gamma_fn(b + 1.0) * complex(rgamma(a + b + 2.0)))
    if -0.5 in (a, b):
        e, sign = (a, 1.0) if b == -0.5 else (b, -1.0)
        k = np.arange(n - 1)
        return g0 * np.cumprod(np.r_[1.0, sign * (k - e - 0.5) / (k + e + 1.5)])
    return _moment_recurrence(g0, a, b, n)


def _moment_recurrence(g0: complex, a: complex, b: complex, n: int) -> np.ndarray:
    """(a+b+k+2) G_{k+1} + 2(a-b) G_k + (a+b-k+2) G_{k-1} = 0 from G_1 = G_0 (b-a)
    / (a+b+2) (Piessens & Branders, BIT 13, 1973; QUADPACK's QAWS moments)."""
    ab = a + b
    g = [g0, g0 * (b - a) / (ab + 2.0)] + [0j] * (n - 2)
    amb2 = 2.0 * (a - b)
    for k in range(1, n - 1):
        g[k + 1] = -(amb2 * g[k] + (ab - k + 2.0) * g[k - 1]) / (ab + k + 2.0)
    return np.array(g)


def _product_weights(a: complex, b: complex) -> np.ndarray:
    """Node weights of both rules for W = (1 - y)^a (1 + y)^b, laid out as
    _OPY: scipy's DCT-III of G[:n], / n / W at the nodes, so that F . w
    integrates W times the interpolant of F / W (Waldvogel, BIT 46, 2006)."""
    g = _jacobi_moments(a, b, 2 * _ORDER)
    w = np.concatenate([dct(g[:n], type=3) / n for n in (_ORDER, 2 * _ORDER)])
    return w * np.exp(-a * _LOG_OMY - b * _LOG_OPY)


@cache
def _fixed_weights() -> dict:
    """_product_weights of the pairs in {0, -1/2}^2, built on first use."""
    return {(a, b): _product_weights(a, b) for a in (0.0, -0.5) for b in (0.0, -0.5)}


def _product_integral(F, exp_lo: complex, exp_hi: complex) -> tuple[complex, float]:
    """int_{-1}^{1} F(x) dx for F smooth inside, ~ (1 + x)^exp_lo at -1 and
    ~ (1 - x)^exp_hi at 1; F takes the arrays 1 + x and 1 - x.

    Adaptive bisection over pieces; a piece touching an end carries that
    end's exponent in its weight, an inner piece the weight 1.  Returns
    the value of the finer rule and the summed rule differences.
    """
    weights = dict(_fixed_weights())
    value, err = 0j, 0.0
    pieces = [(-1.0, 1.0)]
    done = 0
    while pieces:
        u, v = pieces.pop()
        h = 0.5 * (v - u)
        b = exp_lo if u == -1.0 else 0.0
        a = exp_hi if v == 1.0 else 0.0
        if (a, b) not in weights:
            weights[a, b] = _product_weights(a, b)
        f, w = F((1.0 + u) + h * _OPY, (1.0 - v) + h * _OMY), weights[a, b]
        coarse = h * complex(f[:_ORDER] @ w[:_ORDER])
        fine = h * complex(f[_ORDER:] @ w[_ORDER:])
        diff = abs(fine - coarse)
        done += 1
        if (diff > _PIECE_TOL * max(1.0, abs(fine)) and h > _MIN_HALF
                and done + len(pieces) < _MAX_PIECES):
            mid = u + h
            pieces += [(u, mid), (mid, v)]
        else:
            value += fine
            err += diff
    return value, err


def _band_integral(rp: ResolventPolynomial, lo: float, hi: float, weight,
                   exp_lo: complex = -0.5, exp_hi: complex = -0.5
                   ) -> tuple[complex, float]:
    """int rho(lam) weight(lam) d lam over (lo, hi), a finite band or the
    top band up to a cut hi, by product integration, with the exponents
    exp_lo and exp_hi of the whole integrand at the ends.  weight takes an
    array of lam; lam is taken from the nearer end, so that it is exact
    next to an edge at 0."""
    w = hi - lo

    def F(opx, omx):
        d_lo, d_hi = 0.5 * w * opx, 0.5 * w * omx
        lam = np.where(d_lo <= d_hi, lo + d_lo, hi - d_hi)
        return rp.band_density(lo, hi, d_lo, d_hi) * weight(lam) * (0.5 * w)

    return _product_integral(F, exp_lo, exp_hi)


# ---------------------------------------------------------------------------
# inverse Laplace transform of gamma_hat
# ---------------------------------------------------------------------------

def _top_band_heat(rp: ResolventPolynomial, t: float) -> tuple[complex, float]:
    """int rho(lam) e^{-lam t} over the top band (lo, inf), cut at
    lo + 745/t, past which e^{-lam t} underflows, with exponent 0 there.

    The band is mapped by lam = lo + g (e^u - 1), g the distance from lo
    down to the next edge: every other edge then lies on Im u = +-pi, or
    at u = -inf, so the smooth factor is analytic about the whole of
    (0, log(1 + 745/(g t))) at any t.  A map linear in lam over the same
    cut bisects (b = 1, t R from 1.01 to 3) to 7-11 pieces for B and 25-29
    for D at k = 0.05, 7-11 for D at k = 0.3, where this map keeps 1; for
    D at k = 0.05 and t R = 10 it is 2.5e-8 off a 30-digit mpmath
    quadrature, this map 1.2e-14.  Called only where t R > 1, so the cut
    lies below lo + 745 R, where band_density's product of sqrt|p - r|
    stays finite.
    """
    lo = rp.bands()[-1][0]
    g = rp.roots[1] - rp.roots[0]
    span = math.log1p(745.0 / (t * g))

    def F(opx, omx):
        u = 0.5 * span * opx
        above = g * np.expm1(u)
        return (rp.band_density(lo, math.inf, above) * np.exp(-t * (lo + above))
                * (0.5 * span * g * np.exp(u)))

    return _product_integral(F, -0.5, 0.0)


@dataclass(frozen=True)
class TraceInversion:
    """Heat-trace value split into spectral sectors.

    bound_part sums e^{-lambda t} over the bound states; continuum_stable
    integrates the bands at lambda >= 0 and continuum_unstable the bands
    at lambda < 0, whose exp(|lambda| t) growth marks an unstable sector.
    total is stored: where the heat-kernel series gives it, the stable
    part is what it leaves, and summing the sectors would cancel again.
    """

    t: float
    total: float
    bound_part: float
    continuum_stable: float
    continuum_unstable: float
    err_estimate: float

    @property
    def unstable_sector(self) -> bool:
        return self.continuum_unstable != 0.0


def invert_laplace_gamma(rp: ResolventPolynomial, t: float) -> TraceInversion:
    """gamma(t) by collapsing the inversion contour onto the cuts and poles.

    gamma(t) = sum_bound e^{-lambda t} + sum_bands int rho(lambda)
    e^{-lambda t} d lambda.  Bands at negative lambda are integrated but
    reported separately (unstable sector).  Each finite band runs the
    product rules of the contour zeta with exponent -1/2 at its edges.
    Where t R <= 1, R = max |r_i|, the total is the entire heat-kernel
    series sum g_n t^{n-1/2} / Gamma(n + 1/2), powers g_n t^n / sqrt(t),
    only the bands below 0 are integrated and the stable part is what is
    left; elsewhere each band is, the top one by _top_band_heat.  The error
    estimate sums the rule differences and 16 eps of every term (of the
    series, where it gives the total); past 1e-8 of the total, or when the
    total is not finite, the inversion raises.
    """
    if not 0.0 < t < math.inf:
        raise DomainError("invert_laplace_gamma requires 0 < t < inf")
    series = t * max(map(abs, rp.roots)) <= 1.0
    # the bound states lie at lambda >= 0, so math.exp stays finite
    bound = sum((math.exp(-lam * t) for lam in rp.bound_states()), 0.0)
    stable = unstable = err = 0.0
    bands = [b for b in rp.bands() if b[0] < 0.0] if series else rp.bands()
    # e^{-lambda t} overflows on a low enough band; the total then is not
    # finite and raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in bands:
            val, e = (_band_integral(rp, lo, hi, lambda lam: np.exp(-t * lam))
                      if hi < math.inf else _top_band_heat(rp, t))
            err += e
            if lo >= 0.0:
                stable += val.real
            else:
                unstable += val.real
    if series:
        terms = rp.heat_coeffs(t, 1.0 / math.sqrt(t)) * _rgamma_half()
        total = math.fsum(terms)
        stable = total - bound - unstable
        err += float(np.sum(np.abs(terms))) * 16.0 * specfun._EPS
    else:
        total = bound + stable + unstable
        err += (abs(bound) + abs(stable) + abs(unstable)) * 16.0 * specfun._EPS
    if not (math.isfinite(total) and math.isfinite(err)):
        raise ConvergenceError(f"heat trace is not finite at t = {t}")
    if err > 1e-8 * max(1.0, abs(total)):
        raise ConvergenceError(f"heat-trace quadrature error {err:.2e}")
    return TraceInversion(t=t, total=total, bound_part=bound,
                          continuum_stable=stable, continuum_unstable=unstable,
                          err_estimate=err)
