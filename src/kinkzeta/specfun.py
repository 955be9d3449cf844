"""Self-contained special-function layer.

Complete elliptic integrals K, E by the arithmetic-geometric mean,
Jacobi elliptic functions sn, cn, dn of a real float or ndarray by the
descending Landen (AGM phase) recursion, the theta_1 series behind
Weierstrass p/zeta/sigma on real rectangular lattices, a pole-guarded
Gamma, and the package's one Gamma(x) / Gamma(x + 1/2), real or complex.

Everything here is a pure function of its arguments; there is no module
state, so concurrent use is safe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._deferred import ellipkinc, gamma as _sc_gamma
from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "ellipk",
    "ellipke",
    "jacobi_sn_cn_dn",
    "theta1",
    "WeierstrassParams",
    "weierstrass_params",
    "weierstrass_p",
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


# ---------------------------------------------------------------------------
# Jacobi elliptic functions
# ---------------------------------------------------------------------------

def jacobi_sn_cn_dn(u, k: float):
    """sn, cn, dn of real argument by the descending Landen recursion.

    One numpy body: a float u gives three float64 scalars, an ndarray
    three arrays of its shape (CONVENTIONS item 21); a non-finite u gives
    NaN, or the limits +-1, 0, 0 at k = 1.  The AGM ladder depends on k
    alone and is built once.

    Builds the AGM scale ladder a_n, c_n, then recovers the amplitude by
    the backward angle recursion phi_{n-1} = (phi_n + asin(c_n/a_n sin
    phi_n)) / 2, whose asin arguments stay below (1 - k')/(1 + k').
    Absolute error below 1e-12 for |u| <= 4 K(k).  At k = 1 they are
    tanh u, sech u, sech u (DLMF 22.5.ii).  For 0 < k' < _KP_NEAR_ONE,
    where c_1/a_1 lies within 2k' of 1 and the asin steps lose digits,
    _near_one takes over.
    """
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"jacobi_sn_cn_dn requires 0 <= k <= 1, got {k}")
    if k < 1e-14:
        sn = np.sin(u)
        return sn, np.cos(u), 1.0 + 0.0 * sn     # dn = 1, NaN at u = +-inf
    if k == 1.0:
        with np.errstate(over="ignore"):    # sech = 0.0 where cosh overflows
            sech = 1.0 / np.cosh(u)
        return np.tanh(u), sech, sech
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    K, a_s, c_s = _agm(kp)
    if kp < _KP_NEAR_ONE:
        return _near_one(u, kp, K)
    n = len(a_s) - 1
    phi = (2.0 ** n) * a_s[n] * u
    for j in range(n, 0, -1):
        phi = 0.5 * (phi + np.arcsin(c_s[j - 1] / a_s[j] * np.sin(phi)))
    sn = np.sin(phi)
    cn = np.cos(phi)
    ks = kp * sn
    dn = np.sqrt(cn * cn + ks * ks)
    return sn, cn, dn


def _near_one(u, kp: float, K: float):
    """sn, cn, dn at 0 < k' < _KP_NEAR_ONE from their first-order k'^2
    forms about k = 1 (DLMF 22.10(ii)), K = pi / (2 agm(1, k')).

    u is reduced by the half period 2K to w in [-K, K].  On |w| <= K/2
    the forms are taken at v = |w|; beyond, at v = K - |w| through
    sn(K - v) = cd v, cn(K - v) = k' sd v, dn(K - v) = k' nd v (DLMF
    22.4.iii), so v stays below K/2, where the dropped O(k'^4 e^{3v})
    terms are at most about k'^{5/2} (CONVENTIONS item 21).
    """
    m = np.rint(u / (2.0 * K))
    w = u - 2.0 * K * m
    flip = 1.0 - 2.0 * (m % 2)          # sn, cn change sign every 2K
    inner = abs(w) <= 0.5 * K
    # K - |w| rounds to at most K/2 exactly where |w| > K/2, so the minimum
    # is v = |w| inside and K - |w| outside
    v = np.minimum(abs(w), K - abs(w))
    ch = np.cosh(v)                     # v <= K/2: no overflow
    th, se = np.tanh(v), 1.0 / ch
    q = 0.25 * kp * kp
    sc = np.sinh(v) * ch
    s1 = th + q * (sc - v) * se * se
    c1 = se - q * (sc - v) * th * se
    d1 = se + q * (sc + v) * th * se
    sn, cn, dn = np.where(inner, (s1, c1, d1), (c1 / d1, kp * s1 / d1, kp / d1))
    return sn * flip * (1.0 - 2.0 * (w < 0.0)), cn * flip, dn


# ---------------------------------------------------------------------------
# Jacobi theta_1
# ---------------------------------------------------------------------------

def theta1(w: complex, tau: complex) -> tuple[complex, complex]:
    """theta_1(w | tau) and its w-derivative theta_1', in one pass.

    theta_1(w) = 2 sum_m (-1)^m q^{(m+1/2)^2} sin((2m+1) pi w), q = e^{i pi tau};
    theta_1' has (2m+1) pi cos in place of sin.  Both sums take every term
    and stop together (at m >= 2) once both envelopes, |2 q^{(m+1/2)^2}|
    e^{(2m+1) pi |Im w|} times 2 and (2m+1) pi + 1, have been below
    1e-17 max(1, |sum|) at two consecutive m.  A term that overflows, as
    sin((2m+1) pi w) does a few dozen periods tau off the real axis,
    raises DomainError.
    """
    tau, w = complex(tau), complex(w)
    if not (cmath.isfinite(w) and cmath.isfinite(tau) and tau.imag > 0.0):
        raise DomainError(f"theta1 needs finite w, tau and Im tau > 0: {w}, {tau}")
    s0 = s1 = 0.0 + 0.0j
    run = 0
    try:
        for m in range(0, 512):
            amp = (2 * m + 1) * math.pi
            base = 2.0 * (-1.0) ** m * cmath.exp(1j * math.pi * tau * (m + 0.5) ** 2)
            s0 += base * cmath.sin(amp * w)
            s1 += base * amp * cmath.cos(amp * w)
            size, grow = abs(base), math.exp(amp * abs(w.imag))
            small = (size * 2.0 * grow < 1e-17 * max(1.0, abs(s0))
                     and size * (amp + 1.0) * grow < 1e-17 * max(1.0, abs(s1)))
            run = run + 1 if small else 0
            if run >= 2 and m >= 2:
                return s0, s1
    except OverflowError:
        raise DomainError(f"theta1 overflows at w = {w}, tau = {tau}") from None
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
    """p(z) = e1 + q^2, q = e^{-eta z} sigma(z + omega) / (sigma(omega) sigma(z)),
    the cosigma identity (DLMF ch. 23; CONVENTIONS item 20).

    z is first reduced by whole periods 2 omega and 2 omega' into the
    rectangle about 0, exactly (math.remainder).  There the sigma
    Gaussians cancel, and q = theta_1'(0) theta_1(w + 1/2) / (2 omega
    theta_1(1/2) theta_1(w)), w = z / (2 omega).  A reduced z within 1e-8
    of 0 raises PoleError, a non-finite z DomainError.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"weierstrass_p requires a finite z, got {z}")
    omega = params.omega
    z = complex(math.remainder(z.real, 2.0 * omega),
                math.remainder(z.imag, 2.0 * params.omega_imag))
    if abs(z) < 1e-8:
        raise PoleError("weierstrass_p evaluated within 1e-8 of a lattice point")
    w = z / (2.0 * omega)
    q = (params.dtheta0 * theta1(w + 0.5, params.tau)[0]
         / (2.0 * omega * theta1(0.5, params.tau)[0] * theta1(w, params.tau)[0]))
    return params.e1 + q * q


def weierstrass_zeta(z: complex, params: WeierstrassParams) -> complex:
    """zeta(z) = eta z / omega + theta_1'(z/2omega) / (2 omega theta_1).

    z is first reduced by whole periods into the rectangle about 0, as in
    weierstrass_p, and the quasi-periods added back: zeta(z + 2n omega +
    2m omega') = zeta(z) + 2n eta + 2m eta', with eta' = (eta omega' -
    i pi / 2) / omega from the Legendre relation.  So zeta stays finite
    where sigma overflows.  A reduced z at a lattice point raises
    PoleError, a non-finite z DomainError.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"weierstrass_zeta requires a finite z, got {z}")
    omega, omega_imag = params.omega, params.omega_imag
    x = math.remainder(z.real, 2.0 * omega)
    y = math.remainder(z.imag, 2.0 * omega_imag)
    n = round((z.real - x) / (2.0 * omega))
    m = round((z.imag - y) / (2.0 * omega_imag))
    zeta = _sigma_zeta(complex(x, y), params)[1]
    if n or m:
        etap_imag = (params.eta * omega_imag - 0.5 * math.pi) / omega
        zeta += complex(2.0 * n * params.eta, 2.0 * m * etap_imag)
    return zeta


def weierstrass_sigma(z: complex, params: WeierstrassParams) -> complex:
    """sigma(z) = 2 omega e^{eta z^2 / 2 omega} theta_1(z/2omega)/theta_1'(0).

    sigma grows like e^{c |z|^2}; where the Gaussian or a theta_1 term
    overflows (a few dozen periods out) DomainError is raised.
    """
    z = complex(z)
    return _sigma(z, theta1(z / (2.0 * params.omega), params.tau)[0], params)


def _sigma(z: complex, t0: complex, params: WeierstrassParams) -> complex:
    """sigma(z) from t0 = theta_1(z/2omega)."""
    try:
        gauss = cmath.exp(params.eta * z * z / (2.0 * params.omega))
    except OverflowError:
        raise DomainError(f"weierstrass sigma overflows at z = {z}") from None
    return 2.0 * params.omega * gauss * t0 / params.dtheta0


def _sigma_zeta(z: complex, params: WeierstrassParams) -> tuple[complex, complex]:
    """sigma(z) and zeta(z) from one theta_1 pass; PoleError at a lattice point."""
    z = complex(z)
    t0, t1 = theta1(z / (2.0 * params.omega), params.tau)
    if abs(t0) < 1e-280:
        raise PoleError("weierstrass_zeta at a lattice point")
    return (_sigma(z, t0, params),
            params.eta * z / params.omega + t1 / (2.0 * params.omega * t0))


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


# B_n (2 - 2^{1-n}) / (n (n - 1)), n = 2, 4, .., 20, as quotients of exact integers
_RATIO_SERIES = (1 / 8, -1 / 192, 1 / 640, -17 / 14336, 31 / 18432, -691 / 180224,
                 5461 / 425984, -929569 / 15728640, 3202291 / 8912896,
                 -221930581 / 79691776)


def _gamma_ratio(x: complex, y: complex) -> complex:
    """Gamma(x) / Gamma(y), y = x + 1/2 exact where x may be rounded, off the
    poles of Gamma(x); a float where Im x = 0.  Re x < 0 reflects (DLMF
    5.5.3) to -tan(pi y) Gamma(1 + w) / Gamma(3/2 + w), w = -y, the tangent
    from y less the integer nearest Re y (exact zeros), and for Re w >= 1
    on to the exact pair w - 1/2, w.  Real 0 <= x < 8 takes math.gamma.  Any
    other x is shifted up by (x + 1/2) / x to |x| >= 8, where ln Gamma(x) /
    Gamma(x + 1/2) = -ln(x) / 2 + sum_n _RATIO_SERIES[n] x^{-2n-1} (DLMF
    5.11.8 at h = 0 and 1/2), its next term under 3e-18 (CONVENTIONS item 19)."""
    x, y = (x.real, y.real) if x.imag == 0.0 else (x, y)
    if x.real < 0.0:
        f = y - round(y.real)      # exact; |Re f| < 1/2 off the poles of Gamma(x)
        trig = -(cmath.tan(math.pi * f) if isinstance(f, complex) else math.copysign(
            math.sin(math.pi * abs(f)) / math.sin(math.pi * (0.5 - abs(f))), f))
        w = -y
        if w.real < 1.0:
            return trig * _gamma_ratio(1.0 + w, 1.5 + w)
        return trig * w / ((w + 0.5) * (w - 0.5) * _gamma_ratio(w - 0.5, w))
    if isinstance(x, float) and x < 8.0:
        return math.gamma(x) / math.gamma(y)
    shift = 1.0
    while abs(x) < 8.0:
        shift *= (x + 0.5) / x
        x += 1.0
    u = 1.0 / x
    w, series = u * u, 0.0
    for c in reversed(_RATIO_SERIES):
        series = series * w + c
    exp = math.exp if isinstance(x, float) else cmath.exp
    return shift * x ** -0.5 * exp(series * u)
