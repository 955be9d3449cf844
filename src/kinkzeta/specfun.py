"""Self-contained special-function layer.

Complete elliptic integrals K, E by the arithmetic-geometric mean,
Jacobi elliptic functions sn, cn, dn of a float or an ndarray by the
descending Landen (AGM phase) recursion, the imaginary-modulus
transformation, the theta_1 series
behind Weierstrass p/zeta/sigma on real rectangular lattices, and a
pole-guarded Gamma.

Everything here is a pure function of its arguments; there is no module
state, so concurrent use is safe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipkinc
from scipy.special import gamma as _sc_gamma

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "ellipk",
    "ellipke",
    "ellipe",
    "ellipk_imag",
    "ellipe_imag",
    "jacobi_sn_cn_dn",
    "jacobi_sn_cn_dn_complex",
    "theta1",
    "WeierstrassParams",
    "weierstrass_params",
    "weierstrass_p",
    "weierstrass_p_inverse",
    "weierstrass_zeta",
    "weierstrass_sigma",
    "gamma_fn",
]

_EPS = 2.220446049250313e-16
_KP_NEAR_ONE = 1e-5   # k' below which sn, cn, dn take the k = 1 expansion


# ---------------------------------------------------------------------------
# complete elliptic integrals
# ---------------------------------------------------------------------------

def ellipk(k: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    K(k) = int_0^{pi/2} dtheta / sqrt(1 - k^2 sin^2 theta), computed by the
    AGM iteration: K = pi / (2 agm(1, k')).  Relative error below 1e-13 on
    0 <= k < 1; K diverges logarithmically at k = 1.
    """
    if not 0.0 <= k < 1.0:
        raise DomainError(f"ellipk requires 0 <= k < 1, got {k}")
    return _agm(math.sqrt((1.0 - k) * (1.0 + k)))[0]


def _agm(kp: float) -> tuple[float, list[float], list[float]]:
    """The AGM ladder of (1, kp) (DLMF 19.8.1), shared by K, K', E, sn, cn, dn.

    a_{n+1}, b_{n+1}, c_{n+1} = (a_n + b_n)/2, sqrt(a_n b_n), (a_n - b_n)/2
    from 1, kp.  Returns K = pi / (2 a_N) of complement kp, [a_0 .. a_N] and
    [c_1 .. c_{N+1}]; the first c_{N+1} <= 2 eps a_N, or step 40, ends it.
    """
    a, b = 1.0, kp
    a_s, c_s = [a], []
    for _ in range(40):
        c = 0.5 * (a - b)
        c_s.append(c)
        if not abs(c) > 2.0 * _EPS * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        a_s.append(a)
    return math.pi / (2.0 * a), a_s, c_s


def ellipke(k: float) -> tuple[float, float]:
    """K(k) and E(k) from one walk of the AGM ladder, 0 <= k < 1.

    E(k) = K(k) (1 - sum_n 2^{n-1} c_n^2) with c_0 = k and c_{n+1} the AGM
    defects of the ladder behind K; K is ellipk's value bit for bit.
    """
    if not 0.0 <= k < 1.0:
        raise DomainError(f"ellipke requires 0 <= k < 1, got {k}")
    K, _, c_s = _agm(math.sqrt((1.0 - k) * (1.0 + k)))
    pow2 = 0.5
    csum = pow2 * k * k
    for c in c_s:
        pow2 *= 2.0
        csum += pow2 * c * c
    return K, K * (1.0 - csum)


def ellipe(k: float) -> float:
    """Complete elliptic integral of the second kind, 0 <= k <= 1: the E
    of ellipke, with E(1) = 1 exactly."""
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"ellipe requires 0 <= k <= 1, got {k}")
    return 1.0 if k == 1.0 else ellipke(k)[1]


def ellipk_imag(kappa: float) -> float:
    """K(i kappa): first-kind integral at imaginary modulus.

    Real for kappa >= 0 by the transformation
    K(i kappa) = K(kappa / sqrt(1 + kappa^2)) / sqrt(1 + kappa^2).
    """
    if kappa < 0.0:
        raise DomainError("ellipk_imag requires kappa >= 0")
    r = math.sqrt(1.0 + kappa * kappa)
    return ellipk(kappa / r) / r


def ellipe_imag(kappa: float) -> float:
    """E(i kappa) = sqrt(1 + kappa^2) E(kappa / sqrt(1 + kappa^2))."""
    if kappa < 0.0:
        raise DomainError("ellipe_imag requires kappa >= 0")
    r = math.sqrt(1.0 + kappa * kappa)
    return r * ellipe(kappa / r)


# ---------------------------------------------------------------------------
# Jacobi elliptic functions
# ---------------------------------------------------------------------------

class _ScalarOps:
    """The math functions under the numpy names the shared body uses, so a
    float argument takes the same bits as a body written in math."""

    sin, cos, sinh, cosh = math.sin, math.cos, math.sinh, math.cosh
    tanh, arcsin, sqrt, rint = math.tanh, math.asin, math.sqrt, round
    arctan2, isfinite, all = math.atan2, math.isfinite, bool

    @staticmethod
    def clip(t, lo, hi):
        return max(lo, min(hi, t))

    @staticmethod
    def where(cond, a, b):
        return a if cond else b

    @staticmethod
    def ones_like(u):
        return 1.0

    @staticmethod
    def sech(u):
        try:
            return 1.0 / math.cosh(u)
        except OverflowError:
            return 0.0


class _ArrayOps:
    """numpy functions for an ndarray argument."""

    sin, cos, sinh, cosh, tanh = np.sin, np.cos, np.sinh, np.cosh, np.tanh
    arcsin, sqrt, rint, clip, where = np.arcsin, np.sqrt, np.rint, np.clip, np.where
    ones_like, arctan2, isfinite, all = np.ones_like, np.arctan2, np.isfinite, np.all

    @staticmethod
    def sech(u):
        with np.errstate(over="ignore"):
            return 1.0 / np.cosh(u)


def _ops(u):
    """_ArrayOps and u as a float array for an ndarray u, else _ScalarOps
    and u: the one body of a float-or-array function reads xp."""
    if isinstance(u, np.ndarray):
        return _ArrayOps, np.asarray(u, dtype=float)
    return _ScalarOps, u


def jacobi_sn_cn_dn(u, k: float):
    """sn, cn, dn of real argument by the descending Landen recursion.

    u is a float or an ndarray; an ndarray gives three arrays of its
    shape, computed by the same body with numpy functions in place of
    math ones, and so within a few ulps of the float values (CONVENTIONS
    item 21).  The AGM ladder depends on k alone and is built once.

    Builds the AGM scale ladder a_n, c_n, then recovers the amplitude by
    the backward angle recursion phi_{n-1} = (phi_n + asin(c_n/a_n sin
    phi_n)) / 2.  Absolute error below 1e-12 for |u| <= 4 K(k).  At k = 1
    they are tanh u, sech u, sech u (DLMF 22.5.ii), with sech = 0.0 where
    cosh overflows.  For 0 < k' < _KP_NEAR_ONE, where c_1/a_1 lies within
    2k' of 1 and the asin steps lose digits, _near_one takes over.
    """
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"jacobi_sn_cn_dn requires 0 <= k <= 1, got {k}")
    xp, u = _ops(u)
    if k < 1e-14:
        return xp.sin(u), xp.cos(u), xp.ones_like(u)
    if k == 1.0:
        sech = xp.sech(u)
        return xp.tanh(u), sech, sech
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    K, a_s, c_s = _agm(kp)
    if kp < _KP_NEAR_ONE:
        return _near_one(u, kp, K, xp)
    n = len(a_s) - 1
    phi = (2.0 ** n) * a_s[n] * u
    for j in range(n, 0, -1):
        t = xp.clip(c_s[j - 1] / a_s[j] * xp.sin(phi), -1.0, 1.0)
        phi = 0.5 * (phi + xp.arcsin(t))
    sn = xp.sin(phi)
    cn = xp.cos(phi)
    dn = xp.sqrt(cn * cn + (kp * sn) ** 2)
    return sn, cn, dn


def _near_one(u, kp: float, K: float, xp):
    """sn, cn, dn at 0 < k' < _KP_NEAR_ONE from their first-order k'^2
    forms about k = 1 (DLMF 22.10(ii)), K = pi / (2 agm(1, k')).

    u is reduced by the half period 2K to w in [-K, K].  On |w| <= K/2
    the forms are taken at v = |w|; beyond, at v = K - |w| through
    sn(K - v) = cd v, cn(K - v) = k' sd v, dn(K - v) = k' nd v (DLMF
    22.4.iii), so v stays below K/2, where the dropped O(k'^4 e^{3v})
    terms are at most about k'^{5/2} (CONVENTIONS item 21).
    """
    m = xp.rint(u / (2.0 * K))
    w = u - 2.0 * K * m
    flip = 1.0 - 2.0 * (m % 2)          # sn, cn change sign every 2K
    inner = abs(w) <= 0.5 * K
    v = xp.where(inner, abs(w), K - abs(w))
    th, se = xp.tanh(v), xp.sech(v)
    q = 0.25 * kp * kp
    sc = xp.sinh(v) * xp.cosh(v)
    s1 = th + q * (sc - v) * se * se
    c1 = se - q * (sc - v) * th * se
    d1 = se + q * (sc + v) * th * se
    sn = xp.where(inner, s1, c1 / d1) * flip
    sn = xp.where(w < 0.0, -sn, sn)
    cn = xp.where(inner, c1, kp * s1 / d1) * flip
    dn = xp.where(inner, d1, kp / d1)
    return sn, cn, dn


def jacobi_sn_cn_dn_complex(u: complex, k: float) -> tuple[complex, complex, complex]:
    """sn, cn, dn of complex argument via the real/imaginary addition rule.

    Combines values at modulus k (real part) and the complementary modulus
    k' (imaginary part); reduces to the real routine on the real axis.
    """
    u = complex(u)
    s, c, d = jacobi_sn_cn_dn(u.real, k)
    if u.imag == 0.0:
        return complex(s), complex(c), complex(d)
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    s1, c1, d1 = jacobi_sn_cn_dn(u.imag, kp)
    den = c1 * c1 + (k * s * s1) ** 2
    if den == 0.0:
        raise PoleError("jacobi_sn_cn_dn_complex: argument at a pole")
    sn = (s * d1 + 1j * c * d * s1 * c1) / den
    cn = (c * c1 - 1j * s * d * s1 * d1) / den
    dn = (d * c1 * d1 - 1j * k * k * s * c * s1) / den
    return sn, cn, dn


# ---------------------------------------------------------------------------
# Jacobi theta_1
# ---------------------------------------------------------------------------

def theta1(w: complex, tau: complex) -> tuple[complex, complex]:
    """theta_1(w | tau) and its w-derivative theta_1', in one pass.

    theta_1(w) = 2 sum_m (-1)^m q^{(m+1/2)^2} sin((2m+1) pi w), q = e^{i pi tau};
    theta_1' has (2m+1) pi cos in place of sin.  Each sum stops (at m >= 2)
    once its envelope, |2 q^{(m+1/2)^2}| e^{(2m+1) pi |Im w|} times 2 or
    (2m+1) pi + 1, has been below 1e-17 max(1, |sum|) at two consecutive m.
    """
    tau, w = complex(tau), complex(w)
    if not (cmath.isfinite(w) and cmath.isfinite(tau) and tau.imag > 0.0):
        raise DomainError(f"theta1 needs finite w, tau and Im tau > 0: {w}, {tau}")
    s0 = s1 = 0.0 + 0.0j
    run0 = run1 = 0
    for m in range(0, 512):
        amp = (2 * m + 1) * math.pi
        base = 2.0 * (-1.0) ** m * cmath.exp(1j * math.pi * tau * (m + 0.5) ** 2)
        grow = math.exp(amp * abs(w.imag))
        if run0 < 2 or m <= 2:
            s0 += base * cmath.sin(amp * w)
            small = abs(base) * 2.0 * grow < 1e-17 * max(1.0, abs(s0))
            run0 = run0 + 1 if small else 0
        if run1 < 2 or m <= 2:
            s1 += base * amp * cmath.cos(amp * w)
            small = abs(base) * (amp + 1.0) * grow < 1e-17 * max(1.0, abs(s1))
            run1 = run1 + 1 if small else 0
        if run0 >= 2 and run1 >= 2 and m >= 2:
            return s0, s1
    raise ConvergenceError("theta1 series did not converge in 512 terms")


# ---------------------------------------------------------------------------
# Weierstrass functions (real rectangular lattices)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeierstrassParams:
    """Invariants, roots and periods of a real rectangular Weierstrass lattice.

    e1 > e2 > e3 are the real roots of 4 t^3 - g2 t - g3 and k the modulus,
    k^2 = (e2 - e3)/(e1 - e3); omega is the real half-period, omega_p =
    i*omega_imag the imaginary one, eta = zeta(omega), and dtheta0 =
    theta_1'(0 | tau), the lattice constant in sigma.
    """

    g2: float
    g3: float
    e1: float
    e2: float
    e3: float
    omega: float
    omega_imag: float
    eta: float
    k: float
    scale: float  # sqrt(e1 - e3)
    dtheta0: complex

    @property
    def omega_p(self) -> complex:
        return 1j * self.omega_imag

    @property
    def tau(self) -> complex:
        return 1j * self.omega_imag / self.omega


def weierstrass_params(k: float, spread: float) -> WeierstrassParams:
    """The real rectangular lattice of modulus k with e1 - e3 = spread.

    e1, e2, e3 = spread (2 - k^2, 2k^2 - 1, -(1 + k^2)) / 3, omega =
    K(k)/sqrt(spread), omega' = K(k')/sqrt(spread) with K(k') = pi / (2
    agm(1, k)); g2, g3 follow from the roots (CONVENTIONS item 20).
    """
    if not (0.0 < k < 1.0 and 0.0 < spread < math.inf):
        raise DomainError("weierstrass_params requires 0 < k < 1 and "
                          f"0 < spread < inf, got {k}, {spread}")
    k2, c = k * k, spread / 3.0
    e1, e2, e3 = c * (2.0 - k2), c * (2.0 * k2 - 1.0), -c * (1.0 + k2)
    g2, g3 = -4.0 * (e1 * e2 + e1 * e3 + e2 * e3), 4.0 * e1 * e2 * e3
    if not math.isfinite(g2 + g3):
        raise DomainError(f"weierstrass_params: g2, g3 overflow at spread {spread}")
    scale = math.sqrt(spread)
    K, E = ellipke(k)
    omega = K / scale
    # eta = zeta(omega) = sqrt(e1 - e3) E(k) - e1 omega, from the sn form of p
    eta = scale * E - e1 * omega
    omega_imag = _agm(k)[0] / scale
    return WeierstrassParams(g2=g2, g3=g3, e1=e1, e2=e2, e3=e3, omega=omega,
                             omega_imag=omega_imag, eta=eta, k=k, scale=scale,
                             dtheta0=theta1(0.0, 1j * omega_imag / omega)[1])


def weierstrass_p(z: complex, params: WeierstrassParams) -> complex:
    """p(z) through its sn representation: e3 + (e1 - e3)/sn^2(scale*z; k)."""
    sn, _, _ = jacobi_sn_cn_dn_complex(params.scale * complex(z), params.k)
    if abs(sn) < 1e-8:
        raise PoleError("weierstrass_p evaluated within 1e-8 of a lattice point")
    return params.e3 + (params.scale ** 2) / (sn * sn)


def weierstrass_zeta(z: complex, params: WeierstrassParams) -> complex:
    """zeta(z) = eta z / omega + theta_1'(z/2omega) / (2 omega theta_1)."""
    z = complex(z)
    t0, t1 = theta1(z / (2.0 * params.omega), params.tau)
    if abs(t0) < 1e-280:
        raise PoleError("weierstrass_zeta at a lattice point")
    return params.eta * z / params.omega + t1 / (2.0 * params.omega * t0)


def weierstrass_sigma(z: complex, params: WeierstrassParams) -> complex:
    """sigma(z) = 2 omega e^{eta z^2 / 2 omega} theta_1(z/2omega)/theta_1'(0)."""
    z = complex(z)
    return (2.0 * params.omega
            * cmath.exp(params.eta * z * z / (2.0 * params.omega))
            * theta1(z / (2.0 * params.omega), params.tau)[0] / params.dtheta0)


def weierstrass_p_inverse(H: float, params: WeierstrassParams) -> complex:
    """Solve p(rho) = H for real H on the fundamental-rectangle boundary.

    With r = (H - e3)/(e1 - e3), p = e3 + (e1 - e3)/sn^2 and the imaginary
    transformations of sn (DLMF 22.6, 23.6(ii)), each boundary segment
    inverts through the incomplete integral F(phi | m) (DLMF 22.15):

        H >= e1:        rho = F(asin r^{-1/2} | k^2) / scale
        e2 <= H <= e1:  rho = omega + i F(asin sqrt((1 - r)/k'^2) | k'^2) / scale
        e3 <= H <= e2:  rho = F(asin(sqrt(r)/k) | k^2) / scale + omega'
        H <= e3:        rho = i F(atan (-r)^{-1/2} | k'^2) / scale

    Residual |p(rho) - H| <= 1e-10 max(1, |H|), else ConvergenceError.
    """
    H = float(H)
    if not math.isfinite(H):
        raise DomainError(f"weierstrass_p_inverse requires a finite H, got {H}")
    e1, e2, e3 = params.e1, params.e2, params.e3
    segment = 0 if H >= e1 else 1 if H >= e2 else 2 if H >= e3 else 3
    rho = _p_preimage((H - e3) / (e1 - e3), segment, params)
    resid = abs(weierstrass_p(rho, params) - H)
    if not resid <= 1e-10 * max(1.0, abs(H)):
        raise ConvergenceError(f"weierstrass_p_inverse residual {resid:.2e}")
    return rho


def _p_preimage(r: float, segment: int, params: WeierstrassParams) -> complex:
    """The point of boundary segment 0..3 (H >= e1, [e2, e1], [e3, e2],
    H <= e3) where p = e3 + (e1 - e3) r (CONVENTIONS item 20)."""
    k, scale = params.k, params.scale
    m, m1 = k * k, (1.0 - k) * (1.0 + k)
    if segment == 0:
        return complex(ellipkinc(math.asin(r ** -0.5), m) / scale, 0.0)
    if segment == 1:
        phi = math.asin(min(1.0, math.sqrt((1.0 - r) / m1)))
        return complex(params.omega, ellipkinc(phi, m1) / scale)
    if segment == 2:
        phi = math.asin(min(1.0, math.sqrt(r) / k))
        return complex(ellipkinc(phi, m) / scale, params.omega_imag)
    return complex(0.0, ellipkinc(math.atan((-r) ** -0.5), m1) / scale)


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

def _near_nonpositive_integer(s: complex) -> bool:
    s = complex(s)
    return (abs(s.imag) < 1e-12 and s.real < 0.5
            and abs(s.real - round(s.real)) < 1e-12)


def gamma_fn(s: complex) -> complex:
    """Gamma function (complex); raises at the non-positive-integer poles."""
    if _near_nonpositive_integer(s):
        raise PoleError(f"gamma_fn pole at s = {s}")
    return complex(_sc_gamma(complex(s)))

