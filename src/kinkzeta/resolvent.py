"""Diagonal resolvents of the five fluctuation operators.

For each case the Laplace-domain Green-function diagonal is the algebraic
form G(p, x) = P(p, z(x)) / (2 sqrt(Q(p))) with

    z = sech^2(bx)                         (kinks A, C)
    z = cn^2(bx; k)                        (periodic B, D; Nahm uses the
                                            imaginary-modulus real section
                                            z = cd^2(sqrt2 b x; 1/sqrt2))

and P, Q polynomial in p.  G satisfies the bilinear identity

    2 G G'' - (G')^2 - 4 (u(x) + p) G^2 + 1 = 0,

which in the z variable becomes
b^2 (rho (2 P P'' - P'^2) + rho' P P') - (p + u) P^2 + Q = 0 with
rho = z^2(1-z) for kinks and z(1-z)(1-k^2+k^2 z) for the periodic cases.

The module also assembles the per-period trace of G (gamma_hat), the
relative spectral density along the branch cuts of sqrt(Q), and its
inverse Laplace transform (the relative heat trace), through the band
integrator that the contour zeta also uses.

Case tags: A = SG kink, B = SG periodic, C = GL kink, D = GL periodic,
NAHM = the k^2 = -1 continuation of D.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.integrate import quad

from . import specfun
from .errors import ConvergenceError, DomainError, PoleError
from .models import _K1

__all__ = [
    "CaseTag",
    "ResolventPolynomial",
    "build_resolvent",
    "hermit_residual",
    "invert_laplace_gamma",
    "TraceInversion",
]

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-11, limit=250)
_EPS = float(np.finfo(float).eps)


class CaseTag(str, Enum):
    A = "a"        # SG kink
    B = "b"        # SG periodic
    C = "c"        # GL kink
    D = "d"        # GL periodic
    NAHM = "nahm"  # Nahm (k^2 = -1 member of D)


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
    period: float                 # inf for kinks
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

    # -- coordinate maps ----------------------------------------------------
    def z_of_x(self, x: float) -> float:
        if self.is_kink:
            return 1.0 / math.cosh(self.b * x) ** 2
        if self.case is CaseTag.NAHM:
            _, cn, dn = specfun.jacobi_sn_cn_dn(math.sqrt(2.0) * self.b * x, _K1)
            return (cn / dn) ** 2
        _, cn, _ = specfun.jacobi_sn_cn_dn(self.b * x, self.k)
        return cn * cn

    def u_of_x(self, x: float) -> float:
        return self.u_of_z(self.z_of_x(x))

    # -- square-root branch -------------------------------------------------
    def sqrt_q(self, p: complex) -> complex:
        """sqrt(Q) with per-factor principal logarithms.

        Continuous from p -> +inf along any path avoiding the real cuts;
        on the real axis this realizes the Im p -> 0+ boundary value, and
        it is real with the correct alternating sign on the spectral gaps.
        """
        pc = complex(p)
        acc = 0.0 + 0.0j
        for r in self.roots:
            acc += cmath.log(pc - r)
        return cmath.exp(0.5 * acc)

    def green_diag(self, p: complex, x: float) -> complex:
        """G(p, x) = P(p, z(x)) / (2 sqrt(Q(p)))."""
        return self.P(complex(p), self.z_of_x(x)) / (2.0 * self.sqrt_q(p))

    # -- trace numerators ---------------------------------------------------
    def _trace_coeffs(self, relative: bool) -> tuple[float, ...]:
        """Ascending p-coefficients of the trace numerator: each row of P
        weighted by the period moments of its z powers.  relative drops the
        z-independent column (the constant-background Green function),
        leaving the finite kink moments."""
        I0, Iz, Izz = self.moments
        weights = (0.0 if relative else I0, Iz, Izz)
        return tuple(sum(row[j] * weights[j] for j in range(len(row)))
                     for row in self.p_rows)

    def _numerator(self, p: complex, relative: bool) -> complex:
        """Numerator of the period/relative trace of G at p."""
        acc = 0.0 + 0.0j
        for i, coef in enumerate(self._trace_coeffs(relative)):
            acc += coef * complex(p) ** i
        return acc

    def gamma_hat(self, p: complex) -> complex:
        """Laplace-domain trace: per period for B/D/NAHM, the renormalized
        (background-subtracted) kink trace for A/C.

        Raises within 1e-6 of a root of Q, where the form is singular.
        """
        pc = complex(p)
        if min(abs(pc - r) for r in self.roots) < 1e-6:
            raise PoleError("gamma_hat within 1e-6 of a branch point")
        return self._numerator(pc, self.is_kink) / (2.0 * self.sqrt_q(pc))

    def gamma_hat_background(self, p: complex) -> complex:
        """Constant-background trace per unit length, 1/(2 sqrt(p + nu))."""
        return 1.0 / (2.0 * cmath.sqrt(complex(p) + self.nu))

    # -- spectral structure (computed once per instance) ---------------------
    def cut_segments(self) -> tuple[tuple[float, float], ...]:
        """Cuts of sqrt(Q) on the real p axis (Q < 0), as (lo, hi) pairs
        with lo = -inf on the unbounded segment, ordered descending in p."""
        return self._cuts

    def pole_terms(self) -> tuple[tuple[float, float], ...]:
        """(lambda, residue) for the poles of the relative trace at the
        double roots of Q (bound states of the kink operators)."""
        return self._poles

    def bands(self) -> tuple[tuple[float, float], ...]:
        """Allowed spectral bands in lambda, ascending; the top one is
        half-infinite and returned as (lo, inf)."""
        return self._bands

    @cached_property
    def _cuts(self) -> tuple[tuple[float, float], ...]:
        distinct: list[tuple[float, int]] = []
        for r in self.roots:
            if distinct and r == distinct[-1][0]:
                distinct[-1] = (distinct[-1][0], distinct[-1][1] + 1)
            else:
                distinct.append((r, 1))
        segs = []
        parity = 0
        pts = [r for r, _ in distinct]
        mults = [m for _, m in distinct]
        for i in range(len(pts) - 1, -1, -1):
            parity = (parity + mults[i]) % 2
            lo = pts[i - 1] if i > 0 else -math.inf
            if parity == 1:
                segs.append((lo, pts[i]))
        return tuple(segs)

    @cached_property
    def _poles(self) -> tuple[tuple[float, float], ...]:
        out = []
        i = 0
        roots = self.roots
        while i < len(roots) - 1:
            if roots[i] == roots[i + 1]:
                p0 = roots[i]
                others = list(roots[:i]) + list(roots[i + 2:])
                acc = 0.0 + 0.0j
                for r in others:
                    acc += cmath.log(complex(p0) - r)
                res = self._numerator(p0, self.is_kink) / (2.0 * cmath.exp(0.5 * acc))
                out.append((-p0, res.real))
                i += 2
            else:
                i += 1
        return tuple(out)

    @cached_property
    def _bands(self) -> tuple[tuple[float, float], ...]:
        return tuple(sorted((-hi, math.inf if lo == -math.inf else -lo)
                            for lo, hi in self._cuts))

    @cached_property
    def _density_coeffs(self) -> tuple[float, ...]:
        return self._trace_coeffs(self.is_kink)

    def density(self, lam):
        """Spectral density at lambda (per period, or relative for kinks):
        rho(lambda) = (1/pi) Im gamma_hat(p - i0) at p = -lambda.

        lam is a float or an array of them; an array gives the array of the
        scalar values, bit for bit.  Exactly 0.0 off the bands; do not call
        at band edges.  On a band sqrt(Q) is i^m prod sqrt|p - r|, m the
        number of roots above p (odd there), so the density is the real
        +-N(p) / (2 pi prod sqrt|p - r|), + for m = 1 mod 4.
        """
        if np.ndim(lam) == 0:
            p = -float(lam)
            if not any(lo < p < hi for lo, hi in self._cuts):
                return 0.0
            return self._band_density(p, sum(p < r for r in self.roots), math.sqrt)
        p = -np.asarray(lam, dtype=float)
        on_cut = np.zeros(p.shape, dtype=bool)
        for lo, hi in self._cuts:
            on_cut |= (lo < p) & (p < hi)
        above = sum((p < r).astype(int) for r in self.roots)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = self._band_density(p, above, np.sqrt)
        return np.where(on_cut, val, 0.0)

    def band_density(self, lo: float, hi: float, d_lo, d_hi=None):
        """density on the band (lo, hi) at lam = lo + d_lo, for an array of
        distances d_lo, and on a finite band also lam = hi - d_hi.  The
        edge factors of |Q| are taken from the distances, not from the
        rounded lam, so that the density keeps its digits next to an edge,
        also on a band narrower than the rounding of lam (case D as
        k -> 1)."""
        above = sum(r >= -lo for r in self.roots)
        if math.isinf(hi):
            return self._band_density(-(lo + d_lo), above, np.sqrt,
                                      np.sqrt(d_lo), (-lo,))
        p = -np.where(d_lo <= d_hi, lo + d_lo, hi - d_hi)
        return self._band_density(p, above, np.sqrt,
                                  np.sqrt(d_lo) * np.sqrt(d_hi), (-lo, -hi))

    def top_band_excess(self, above):
        """rho(lo + above) - I0 / (2 pi sqrt(above)) on the top band
        (lo, inf) of a periodic case, lo = -roots[0]; above is an array.

        Both terms fall as lam^{-1/2} and their difference as lam^{-3/2}, so
        the difference is formed from their ratio, which keeps its digits at
        large lam: with N(-lam) = I0 (-lam)^d (1 + eta),
        rho / rho0 = (1 + eta) / prod_{i > 0} sqrt(1 + r_i / lam).
        """
        lam = -self.roots[0] + above
        coeffs = self._density_coeffs
        t = -1.0 / lam
        eta = 0.0 * t
        for c in coeffs[:-1]:
            eta = (eta + c / coeffs[-1]) * t
        log_ratio = np.log1p(eta) - 0.5 * sum(np.log1p(r / lam) for r in self.roots[1:])
        return self.moments[0] / (2.0 * math.pi) / np.sqrt(above) * np.expm1(log_ratio)

    def _band_density(self, p, above, sqrt, mag=1.0, known=()):
        """+-N(p) / (2 pi prod sqrt|p - r|), for p a float (with math.sqrt)
        or an array (with np.sqrt) in the same operation order; mag holds
        the factors of the roots in known, computed by the caller."""
        for r in self.roots:
            if r not in known:
                mag = mag * sqrt(abs(p - r))
        return _polyval(self._density_coeffs, p) / (2.0 * math.pi * mag) * (2 - above % 4)


def _is_double_root(coeffs: tuple[float, ...], lo: float, hi: float) -> bool:
    """Whether a close pair of roots of Q is one double root split by
    rounding: Q' vanishes at its midpoint to the rounding level of the
    evaluation (8 eps of the summed terms, the bound for degree <= 4)."""
    mid = 0.5 * (lo + hi)
    terms = [j * c * mid ** (j - 1) for j, c in enumerate(coeffs) if j]
    return abs(sum(terms)) <= 8.0 * _EPS * sum(abs(t) for t in terms)


def _clean_roots(coeffs: tuple[float, ...], b: float) -> tuple[float, ...]:
    """Roots of the monic Q from its coefficients: deflate the structural
    zeros, root-solve numerically, merge double roots split by rounding."""
    c = list(coeffs)
    zeros = 0
    while abs(c[0]) == 0.0:
        c.pop(0)
        zeros += 1
    arr = np.roots(list(reversed(c)))
    scale = max(1.0, float(np.max(np.abs(arr))) if len(arr) else 1.0, b ** 2)
    if np.max(np.abs(arr.imag), initial=0.0) > 1e-7 * scale:
        raise ConvergenceError("complex roots in the spectral polynomial")
    roots = sorted(arr.real.tolist() + [0.0] * zeros)
    # average pairs split by rounding (double roots of the kink cases); a
    # split double root opens to about 1.5e-7 * scale, distinct close roots
    # (periodic edges near k -> 1) fail the Q' test and stay apart
    for i in range(len(roots) - 1):
        lo, hi = roots[i], roots[i + 1]
        if lo != hi and hi - lo < 1e-6 * scale and _is_double_root(coeffs, lo, hi):
            roots[i] = roots[i + 1] = 0.5 * (lo + hi)
    return tuple(roots)


def build_resolvent(case: CaseTag, b: float, k: float | None = None) -> ResolventPolynomial:
    """Populate P, Q, rho, u and the period moments for one case.

    k is required for B and D (0 < k < 1) and ignored for A, C, NAHM.
    Roots of Q are always obtained numerically from the coefficients.
    """
    case = CaseTag(case)
    if b <= 0.0:
        raise DomainError("build_resolvent requires b > 0")
    if case in (CaseTag.B, CaseTag.D):
        if k is None or not 0.0 < k < 1.0:
            raise DomainError(f"case {case.value} requires 0 < k < 1")
    else:
        k = None
    b2 = b * b

    if case is CaseTag.A:
        p_rows = ((0.0, b2), (1.0,))
        q = (0.0, 0.0, b2, 1.0)
        rho = (0.0, 0.0, 1.0, -1.0)
        u = (b2, -2.0 * b2)
        nu = b2
        period = math.inf
        moments = (math.inf, 2.0 / b, 4.0 / (3.0 * b))
    elif case is CaseTag.B:
        k2 = k * k
        kc2 = (1.0 - k) * (1.0 + k)   # 1 - k^2, without cancellation as k -> 1
        p_rows = ((0.0, k2 * b2), (1.0,))
        q = (0.0, -b2 * b2 * k2 * kc2, b2 * (2.0 * k2 - 1.0), 1.0)
        rho = (0.0, kc2, 2.0 * k2 - 1.0, -k2)
        u = (b2 * (2.0 * k2 - 1.0), -2.0 * k2 * b2)
        nu = b2  # SG vacuum edge (k -> 1 limit of the top band edge)
        K, E = specfun.ellipk(k), specfun.ellipe(k)
        period = 2.0 * K / b
        moments = (period, 2.0 / (b * k2) * (E - kc2 * K), 0.0)
    elif case is CaseTag.C:
        b4 = b2 * b2
        p_rows = ((0.0, 0.0, 9.0 * b4), (3.0 * b2, 3.0 * b2), (1.0,))
        q = (0.0, 0.0, 36.0 * b2 ** 3, 33.0 * b4, 10.0 * b2, 1.0)
        rho = (0.0, 0.0, 1.0, -1.0)
        u = (4.0 * b2, -6.0 * b2)
        nu = 4.0 * b2
        period = math.inf
        moments = (math.inf, 2.0 / b, 4.0 / (3.0 * b))
    elif case is CaseTag.D:
        k2 = k * k
        kc2 = (1.0 - k) * (1.0 + k)
        b4 = b2 * b2
        p_rows = ((0.0, 9.0 * b4 * k2 * kc2, 9.0 * b4 * k2 * k2),
                  (3.0 * b2, 3.0 * b2 * k2),
                  (1.0,))
        q = (0.0,
             -27.0 * k2 * kc2 ** 2 * b4 * b4,
             -9.0 * b2 ** 3 * (k2 + 1.0) * (k2 * k2 - 4.0 * k2 + 1.0),
             3.0 * b4 * (1.0 + 9.0 * k2 + k2 * k2),
             5.0 * b2 * (1.0 + k2),
             1.0)
        rho = (0.0, kc2, 2.0 * k2 - 1.0, -k2)
        u = (b2 * (5.0 * k2 - 1.0), -6.0 * k2 * b2)
        nu = 0.0  # periodic case: free reference background
        K, E = specfun.ellipk(k), specfun.ellipe(k)
        period = 2.0 * K / b
        Iz = 2.0 / (b * k2) * (E - kc2 * K)
        Izz = 2.0 / b * (K - 2.0 * (K - E) / k2
                         + ((2.0 + k2) * K - 2.0 * (1.0 + k2) * E) / (3.0 * k2 * k2))
        moments = (period, Iz, Izz)
    else:  # NAHM: k^2 = -1 member of case D
        b4 = b2 * b2
        p_rows = ((0.0, -18.0 * b4, 9.0 * b4),
                  (3.0 * b2, -3.0 * b2),
                  (1.0,))
        q = (0.0, 108.0 * b4 * b4, 0.0, -21.0 * b4, 0.0, 1.0)
        rho = (0.0, 2.0, -3.0, 1.0)
        u = (-6.0 * b2, 6.0 * b2)
        nu = 0.0
        # period moments carry the imaginary-modulus integrals K(i), E(i)
        ki, ei = specfun.ellipk_imag(1.0), specfun.ellipe_imag(1.0)
        period = 2.0 * ki / b
        Iz = 2.0 / b * (2.0 * ki - ei)
        Izz = 2.0 / b * (10.0 / 3.0 * ki - 2.0 * ei)
        moments = (period, Iz, Izz)

    return ResolventPolynomial(case=case, b=b, k=k, p_rows=p_rows,
                               q_coeffs=q, roots=_clean_roots(q, b),
                               rho_coeffs=rho, u_coeffs=u, nu=nu,
                               period=period, moments=moments)


def hermit_residual(rp: ResolventPolynomial, p: complex, x: float,
                    scale: float = 1.0) -> float:
    """Magnitude of the bilinear-identity defect for G = scale * P/(2 sqrt Q).

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
    s2 = scale * scale
    R = (rp.b ** 2 * (rho * (2.0 * P * Pzz - Pz * Pz) + rho_z * P * Pz) * s2
         - (pc + rp.u_of_z(z)) * P * P * s2 + rp.Q(pc))
    return abs(R / rp.Q(pc))


# ---------------------------------------------------------------------------
# inverse Laplace transform of gamma_hat
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceInversion:
    """Heat-trace value split into spectral sectors.

    bound_part collects the isolated-eigenvalue residues; continuum_stable
    integrates the bands at lambda >= 0 and continuum_unstable the bands
    at lambda < 0, whose exp(|lambda| t) growth marks an unstable sector.
    """

    t: float
    bound_part: float
    continuum_stable: float
    continuum_unstable: float
    quad_error: float

    @property
    def total(self) -> float:
        return self.bound_part + self.continuum_stable + self.continuum_unstable

    @property
    def unstable_sector(self) -> bool:
        return self.continuum_unstable != 0.0


def _integrate_band(f, lo: float, hi: float) -> tuple[float, float]:
    """Integrate the real f over a band, split at its midpoint, with the
    substitution lam = edge +- u^2 flattening the inverse-square-root edge
    singularities of the density.  A half-infinite band uses the lower
    edge alone."""
    gl = lambda u: 2.0 * u * f(lo + u * u)
    if math.isinf(hi):
        return quad(gl, 0.0, math.inf, **_QUAD_OPTS)
    mid = 0.5 * (lo + hi)
    gr = lambda u: 2.0 * u * f(hi - u * u)
    v1, e1 = quad(gl, 0.0, math.sqrt(mid - lo), **_QUAD_OPTS)
    v2, e2 = quad(gr, 0.0, math.sqrt(hi - mid), **_QUAD_OPTS)
    return v1 + v2, e1 + e2


def invert_laplace_gamma(rp: ResolventPolynomial, t: float) -> TraceInversion:
    """gamma(t) by collapsing the inversion contour onto the cuts and poles.

    gamma(t) = sum_poles res e^{-lambda t} + sum_bands int rho(lambda)
    e^{-lambda t} d lambda.  Bands at negative lambda are integrated but
    reported separately (unstable sector).  Quadrature tolerance 1e-9.
    """
    if t <= 0.0:
        raise DomainError("invert_laplace_gamma requires t > 0")
    bound = sum(res * math.exp(-lam * t) for lam, res in rp.pole_terms())
    stable = 0.0
    unstable = 0.0
    err_total = 0.0
    for lo, hi in rp.bands():
        f = lambda lam: rp.density(lam) * math.exp(-lam * t)
        val, err = _integrate_band(f, lo, hi)
        err_total += err
        if lo >= 0.0:
            stable += val
        else:
            unstable += val
    if err_total > 1e-8 * max(1.0, abs(bound + stable + unstable)):
        raise ConvergenceError(f"heat-trace quadrature error {err_total:.2e}")
    return TraceInversion(t=t, bound_part=bound, continuum_stable=stable,
                          continuum_unstable=unstable, quad_error=err_total)
