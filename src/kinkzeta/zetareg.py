"""Generalized zeta functions and one-loop corrections.

The operator zeta function is the Mellin transform of the heat trace,
zeta(s) = (1/Gamma(s)) int_0^inf t^{s-1} gamma(t) dt, analytically
continued.  Three routes are implemented and cross-checked:

* closed forms: the constant background in d dimensions,
  zeta_0(s) = Gamma(s - d/2)/Gamma(s) (2 sqrt(pi))^{-d} nu^{d/2 - s},
  and the renormalized 1-d kink tower built from the erf heat trace,
  with the d-dimensional extension obtained by multiplying the kink
  trace by the free transverse factor (4 pi t)^{-(d-1)/2};
* numerical Mellin transforms with the continuation performed by exact
  subtraction of the small-t and large-t asymptotic terms;
* contour evaluation -int_l gamma_hat(p) (-p)^{-s} dp collapsed onto the
  branch cuts and poles of the diagonal-resolvent trace, the top band
  above a cut taken from its heat-kernel series in closed form.

(-p)^{-s} carries its cut along the positive real p axis with the lower
half-plane prescription, so negative-lambda (unstable) bands contribute
the phase e^{-i pi s}.

ln det L = -zeta'(0); the one-loop action correction of a classical
solution is -(hbar/2) [zeta'_D(0) - zeta'_D0(0)], the background piece
already removed when the renormalized kink zeta is used.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._deferred import quad, rgamma
from .errors import BranchCollisionError, ConvergenceError, DomainError, PoleError
from .resolvent import ResolventPolynomial, _band_integral
from .specfun import _EPS, _near_nonpositive_integer, gamma_fn

__all__ = [
    "ZetaEvaluation",
    "HeatTrace",
    "zeta_vacuum",
    "vacuum_heat_trace",
    "erf_heat_trace",
    "kink_trace_d",
    "zeta_kink_1d",
    "zeta_d_kink",
    "derivative_at_zero",
    "quantum_correction",
    "mellin_zeta",
    "zeta_contour",
]

_SQRT_PI = math.sqrt(math.pi)
_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-11, limit=250)   # the Mellin route
# Re s bound of mellin_zeta and the kink contour: past it the Mellin route's
# plateau subtraction loses more digits than its estimate (CONVENTIONS item 19)
_RE_S_MAX = 10.0


@dataclass(frozen=True)
class ZetaEvaluation:
    """One zeta value with its provenance and error estimate."""

    s: complex
    value: complex
    method: str      # mellin_numeric | contour
    err_estimate: float


@dataclass(frozen=True)
class HeatTrace:
    """A heat trace on its own time scale T: eval(tau) = gamma(T tau).

    small_t lists (a, c) with gamma(T tau) ~ sum c tau^a as tau -> 0;
    large_t lists (q, c) with gamma(T tau) ~ sum c tau^{-q} as tau -> inf
    (q = 0 is a plateau).  T is where the trace turns from one form to
    the other.
    """

    eval: Callable[[float], float]
    scale: float     # T
    small_t: tuple[tuple[float, float], ...] = ()
    large_t: tuple[tuple[float, float], ...] = ()


# ---------------------------------------------------------------------------
# heat-trace constructors
# ---------------------------------------------------------------------------

def erf_heat_trace(b: float) -> HeatTrace:
    """Renormalized kink trace gamma_k(t) = erf(b sqrt(t))."""
    return kink_trace_d(b, 1)


def vacuum_heat_trace(nu: float, d: int) -> HeatTrace:
    """Constant-background trace e^{-nu t} / (2 sqrt(pi t))^d per unit volume,
    on the time scale T = 1/nu."""
    if d not in (1, 2, 3, 4):
        raise DomainError("d must be 1..4")
    T = 1.0 / nu if 0.0 < nu < math.inf else 0.0
    if not 0.0 < T < math.inf:
        raise DomainError(f"vacuum_heat_trace requires 0 < 1/nu < inf, got nu = {nu!r}")
    # (2 sqrt(pi T))^{-d}; inf where nu^{d/2} overflows, and mellin_zeta raises
    pref = (2.0 * _SQRT_PI) ** (-d) * math.prod([math.sqrt(nu)] * d)
    small = tuple((j - 0.5 * d, pref * (-1.0) ** j / math.factorial(j))
                  for j in range(10))
    return HeatTrace(eval=lambda tau: pref * tau ** (-0.5 * d) * math.exp(-tau),
                     scale=T, small_t=small)


def kink_trace_d(m: float, d: int) -> HeatTrace:
    """Renormalized kink trace times the free transverse factor:
    erf(m sqrt(t)) (4 pi t)^{-(d-1)/2}, per unit transverse volume, on the
    time scale T = 1/m^2."""
    if d not in (1, 2, 3, 4):
        raise DomainError("d must be 1..4")
    T = 1.0 / m / m if 0.0 < m < math.inf else 0.0
    if not 0.0 < T < math.inf:
        raise DomainError(f"kink_trace_d requires 0 < 1/m^2 < inf, got m = {m!r}")
    q = (d - 1) / 2.0   # the transverse factor decays as t^{-q}
    # (4 pi T)^{-q}; inf where m^{d-1} overflows, and mellin_zeta raises
    pref = (4.0 * math.pi) ** -q * math.prod([m] * (d - 1))
    small = tuple(
        (j + 0.5 * (2 - d),
         pref * 2.0 / _SQRT_PI * (-1.0) ** j / (math.factorial(j) * (2 * j + 1)))
        for j in range(9)
    )
    return HeatTrace(eval=lambda tau: math.erf(math.sqrt(tau)) * pref * tau ** -q,
                     scale=T, small_t=small, large_t=((q, pref),))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _check_s(s: complex, name: str, poles=(), shift: float | None = None) -> None:
    """The one test of s on every zeta route: DomainError where s is not
    finite, PoleError within 1e-12 of a point of poles or, given shift, of a
    pole of Gamma(s + shift)."""
    if not cmath.isfinite(s):
        raise DomainError(f"{name} requires a finite s, got s = {s}")
    if any(abs(s - p) < 1e-12 for p in poles) or (
            shift is not None and _near_nonpositive_integer(s + shift)):
        raise PoleError(f"{name} pole at s = {s}")


def _power(base: float, p: complex, what: str) -> complex:
    """base^p = base^{Re p} e^{i Im p ln base} for 0 < base < inf; DomainError
    ("<what> overflows") where it does not stay finite."""
    try:
        return base ** p.real * cmath.exp(1j * p.imag * math.log(base))
    except (OverflowError, ValueError):     # ValueError: Im p ln base = inf
        raise DomainError(f"{what} overflows") from None


def _gamma_ratio(x: complex, y: complex) -> complex:
    """Gamma(x) / Gamma(y), y = x + 1/2, with the callers' y exact where x
    may be rounded.  Complex x takes the complex Gamma.

    Real x < 0 reflects (DLMF 5.5.3) to -tan(pi y) Gamma(1 + w) /
    Gamma(3/2 + w), w = -y, the tangent from y less its nearest integer (so
    the zeros at y = 0, -1, ... are exact), and for w >= 1 to the exact
    arguments w and w - 1/2 through Gamma(1 + w) / Gamma(3/2 + w) =
    w / ((w + 1/2)(w - 1/2)) Gamma(w) / Gamma(w - 1/2).  Real x >= 0 takes
    math.gamma; a rounded y >= 16 (y - x != 1/2) the exact pair x - 1/2, x
    of Gamma(x) / Gamma(x + 1/2) = 1 / ((x - 1/2) Gamma(x - 1/2) / Gamma(x))
    (below 16 its rounding costs at most psi(16) ulp(8) / 2, 11 eps); and
    past the overflow of math.gamma (x > 171) the Stirling series of
    ln Gamma(x + h), h = 0 and 1/2 (DLMF 5.11(i)), cut where the next term
    is under 2e-21 relative at x >= 100:

        Gamma(x) / Gamma(x + 1/2) = x^{-1/2} exp(1/(8x) - 1/(192x^3)
                                     + 1/(640x^5) - 17/(14336x^7)).
    """
    if x.imag != 0.0:
        return gamma_fn(x) * complex(rgamma(y))
    x, y = x.real, y.real
    if x < 0.0:
        f = y - round(y)           # exact; |f| < 1/2 off the poles of Gamma(x)
        trig = -math.copysign(math.sin(math.pi * abs(f))
                              / math.sin(math.pi * (0.5 - abs(f))), f)
        w = -y
        if w < 1.0:
            return trig * _gamma_ratio(1.0 + w, 1.5 + w)
        return trig * w / ((w + 0.5) * (w - 0.5) * _gamma_ratio(w - 0.5, w))
    try:
        gx, gy = math.gamma(x), math.gamma(y)
    except OverflowError:
        w = 1.0 / (x * x)
        series = (1.0 - w * (1.0 / 24.0 - w * (1.0 / 80.0 - w * (17.0 / 1792.0)))) / (8.0 * x)
        return x ** -0.5 * math.exp(series)
    if y >= 16.0 and y - x != 0.5:
        return 1.0 / ((x - 0.5) * _gamma_ratio(x - 0.5, x))
    return gx / gy


def zeta_vacuum(s: complex, nu: float, d: int) -> complex:
    """zeta of -Delta + nu in d dimensions, per unit volume.

    Gamma(s - d/2)/Gamma(s) (2 sqrt(pi))^{-d} nu^{d/2 - s}; the Gamma ratio
    is _gamma_ratio(s - 1/2, s) for odd d, 1 for even d, over the factors
    (s - d/2 + j), j < d // 2, so the poles of Gamma(s - d/2) that 1/Gamma(s)
    cancels never appear numerically, and the zeros of 1/Gamma(s) at s = 0,
    -1, ... are exact zeros.  A value that is not finite raises DomainError."""
    if d not in (1, 2, 3, 4):
        raise DomainError("d must be 1..4")
    if not 0.0 < nu < math.inf:
        raise DomainError("zeta_vacuum requires 0 < nu < inf")
    s = complex(s)
    _check_s(s, "zeta_vacuum", [0.5 * d - j for j in range(d // 2)],
             -0.5 if d % 2 else None)
    ratio = _gamma_ratio(s - 0.5, s) if d % 2 else 1.0
    ratio /= math.prod(s - 0.5 * d + j for j in range(d // 2))
    what = f"zeta_vacuum at s = {s}"
    return _finite((2.0 * _SQRT_PI) ** (-d) * ratio * _power(nu, 0.5 * d - s, what), what)


def zeta_kink_1d(s: complex, b: float) -> complex:
    """Renormalized kink zeta in one dimension, zeta_d_kink at d = 1."""
    return zeta_d_kink(s, b, 1)


def _kink_T(s: complex, d: int) -> complex:
    """Gamma(s + 1 - d/2) / ((2s - d + 1) Gamma(s)), pole-safe per d."""
    if d == 1:
        _check_s(s, "zeta_d_kink", shift=0.5)
        return _gamma_ratio(s + 0.5, s + 1.0) / 2.0
    if d == 2:
        _check_s(s, "zeta_d_kink", (0.5,))
        return 1.0 / (2.0 * s - 1.0)
    if d == 3:
        _check_s(s, "zeta_d_kink", (1.0,), -0.5)
        return _gamma_ratio(s - 0.5, s) / (2.0 * s - 2.0)
    _check_s(s, "zeta_d_kink", (1.0, 1.5))
    return 1.0 / ((2.0 * s - 3.0) * (s - 1.0))


def zeta_d_kink(s: complex, m: float, d: int) -> complex:
    """Renormalized kink zeta in d dimensions (per unit transverse volume).

    The normative route multiplies the kink trace by the transverse
    factor and Mellin-transforms; its closed form is

        zeta_d(s) = -2^{2-d} pi^{-d/2} m^{d-1-2s}
                    Gamma(s + 1 - d/2) / ((2s - d + 1) Gamma(s)).

    mellin_zeta(kink_trace_d(m, d), s) is the quadrature route to it.
    Raises DomainError where a factor overflows or the value is not finite.
    """
    if d not in (1, 2, 3, 4):
        raise DomainError("d must be 1..4")
    if not 0.0 < m < math.inf:
        raise DomainError("zeta_d_kink requires 0 < m < inf")
    s = complex(s)
    t = _kink_T(s, d)
    what = f"zeta_d_kink at s = {s}, m = {m!r}"
    return _finite(-(2.0 ** (2 - d)) * math.pi ** (-0.5 * d)
                   * _power(m, d - 1.0 - 2.0 * s, what) * t, what)


def derivative_at_zero(m: float, d: int) -> float:
    """d zeta_d / ds at s = 0, the exact derivative of the closed form:

        d = 1:  2 ln(2m)
        d = 2:  (2m/pi) (1 - ln m)
        d = 3:  -m^2 / (2 pi)
        d = 4:  -m^3 / (4 pi^2) (5/9 - (2/3) ln m)

    Raises DomainError where the value overflows.
    """
    if d not in (1, 2, 3, 4):
        raise DomainError("d must be 1..4")
    if not 0.0 < m < math.inf:
        raise DomainError("derivative_at_zero requires 0 < m < inf")
    try:
        if d == 1:
            value = 2.0 * math.log(2.0 * m)
        elif d == 2:
            value = 2.0 * m / math.pi * (1.0 - math.log(m))
        elif d == 3:
            value = -m * m / (2.0 * math.pi)
        else:
            value = -m ** 3 / (4.0 * math.pi ** 2) * (5.0 / 9.0 - 2.0 / 3.0 * math.log(m))
    except OverflowError:
        value = math.inf
    return _finite(value, f"zeta'(0) at m = {m!r}, d = {d}")


def _finite(value, what: str):
    if not cmath.isfinite(value):
        raise DomainError(f"{what} overflows")
    return value


def quantum_correction(m: float, d: int, hbar: float = 1.0,
                       half_convention: bool = False) -> float:
    """One-loop action correction -(hbar/2) zeta'(0) of the kink tower.

    The renormalized kink zeta already carries the constant-background
    subtraction, so no separate zeta'_D0 term appears.  half_convention
    applies the alternative normalization with an extra factor 1/2.
    Raises DomainError where the correction overflows.
    """
    if not (0.0 < hbar < math.inf and 0.0 < m < math.inf):
        raise DomainError("quantum_correction requires finite positive m and hbar")
    ds = -0.5 * hbar * derivative_at_zero(m, d)
    return _finite(0.5 * ds if half_convention else ds,
                   f"the correction at m = {m!r}, d = {d}, hbar = {hbar!r}")


# ---------------------------------------------------------------------------
# numerical Mellin transform
# ---------------------------------------------------------------------------

def mellin_zeta(trace: HeatTrace, s: complex) -> ZetaEvaluation:
    """zeta(s) = (1/Gamma(s)) int_0^inf t^{s-1} gamma(t) dt, continued.

    With t = T tau on the trace's time scale T, zeta(s) = T^s (1/Gamma(s))
    int tau^{s-1} gamma(T tau) dtau, and the tau integral is split at 1;
    the declared small-t terms are subtracted on (0, 1) and the large-t
    terms on (1, inf), with their exact Mellin images c/(s+a) and c/(q-s)
    restored analytically (plateau images carry the 1/(s Gamma(s)) =
    1/Gamma(s+1) cancellation exactly, so s = 0 is a regular point of the
    continuation).  The (0, 1) integral converges for Re s above minus the
    largest small-t exponent, and Re s is capped at _RE_S_MAX; past either
    bound DomainError is raised, and so where the value or the integrand
    overflows.  The error estimate adds to the quadrature's the rounding of
    the large-t subtraction, eps |c| 35^(Re s - q) / |Gamma(s + 1)| per
    term (CONVENTIONS item 19).
    """
    s = complex(s)
    small, large, T = trace.small_t, trace.large_t, trace.scale
    lowest = -max((a for a, _ in small), default=0.0)
    if not lowest < s.real <= _RE_S_MAX:
        raise DomainError(f"mellin_zeta requires {lowest:g} < Re s <= "
                          f"{_RE_S_MAX:g}, got s = {s}")
    tail = tuple((-q, c) for q, c in large)   # the large-t terms as tau^a
    _check_s(s, "mellin_zeta", [-a for a, _ in small + tail if a != 0.0])

    def f(tau: float, terms) -> complex:
        g = trace.eval(tau) - sum(c * tau ** a for a, c in terms)
        return g * cmath.exp((s - 1.0) * math.log(tau))

    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        # roundoff-limited extrapolation on subtracted tails is expected;
        # the returned error estimate still reflects it
        warnings.simplefilter("ignore", IntegrationWarning)
        try:
            i1, e1 = quad(f, 0.0, 1.0, (small,), complex_func=True, **_QUAD_OPTS)
            i2, e2 = quad(f, 1.0, math.inf, (tail,), complex_func=True, **_QUAD_OPTS)
        except OverflowError:
            # tau^(s - 1) leaves the float range at a node near 0 when Re s
            # is far below 0 (s = -4.6 on kink_trace_d(1, 1))
            raise DomainError(f"mellin_zeta integrand overflows at s = {s}") from None
    main = i1 + i2
    main += sum(c / (s + a) for a, c in small if a != 0.0)
    main += sum(c / (q - s) for q, c in large if q != 0.0)
    rg = complex(rgamma(s))
    rg1 = complex(rgamma(s + 1.0))
    value = rg * main
    value += sum(c * rg1 for a, c in small if a == 0.0)
    value -= sum(c * rg1 for q, c in large if q == 0.0)
    # quad's complex estimates pair the real and imaginary parts' errors
    err = abs(rg) * (e1.real + e1.imag + (e2.real + e2.imag))
    err += 1e-15 * abs(value)
    # erf-type traces reach their large-t form to rounding near tau = 35
    err += _EPS * abs(rg1) * sum(abs(c) * 35.0 ** max(s.real - q, 0.0)
                                 for q, c in large)
    what = f"mellin_zeta at s = {s}"
    power = _power(T, s, what)
    value, err = _finite(power * value, what), abs(power) * err
    return ZetaEvaluation(s=s, value=value, method="mellin_numeric",
                          err_estimate=err)


# ---------------------------------------------------------------------------
# contour route
# ---------------------------------------------------------------------------

def _band(rp: ResolventPolynomial, s: complex, lo: float,
          hi: float) -> tuple[complex, float]:
    """int rho(lam) lam^{-s} over the band (lo, hi); a band below 0 carries
    |lam|^{-s} e^{-i pi s}; the exponent at an edge at 0 is -1/2 - s.  On
    the top band hi is the cut L, where the exponent is 0."""
    top = lo == rp.bands()[-1][0]
    value, err = _band_integral(rp, lo, hi,
                                lambda lam: np.exp(-s * np.log(np.abs(lam))),
                                -0.5 - s if lo == 0.0 else -0.5,
                                0.0 if top else -0.5 - s if hi == 0.0 else -0.5)
    if hi <= 0.0:
        phase = complex(np.exp(-1j * np.pi * s))
        return phase * value, abs(phase) * err
    return value, err


def zeta_contour(rp: ResolventPolynomial, s: complex) -> ZetaEvaluation:
    """zeta(s) from the resolvent trace, contour collapsed onto the cuts.

    Kink cases integrate the renormalized density, for -1/2 < Re s <=
    _RE_S_MAX, the periodic cases the density per period, for |Re s| <
    1/2.  Each band is integrated by product rules against its edge
    exponents (-1/2 at a band edge, -1/2 - s at lambda = 0), a band below
    0 with the phase e^{-i pi s}, the top band (lo, inf) only up to
    L = 4R, R = max |r_i|, with exponent 0 there.  Above L its heat-kernel
    series is integrated term by term; the sum continues in s, with poles
    at s = 1/2 - n, and gives the free background c0 / sqrt(lambda) of a
    period zeta = 0.  A kink bound state at lambda > 0 (residue 1) enters
    as lambda ** -Re s times a phase.  The error estimate sums the two
    rule orders' differences over every piece and 16 eps of every term.
    """
    s = complex(s)
    if rp.is_kink:
        if s.real <= -0.5 + 1e-9:
            raise BranchCollisionError("contour zeta requires Re s > -1/2")
        if not s.real <= _RE_S_MAX:
            raise DomainError(f"kink contour zeta requires Re s <= {_RE_S_MAX:g}")
    elif not (-0.5 + 1e-9 < s.real < 0.5 - 1e-9):
        raise BranchCollisionError(
            "periodic contour zeta requires -1/2 < Re s < 1/2")
    _check_s(s, "zeta_contour")
    # the bound states lie at lambda = 3 b^2 > 0 (case C) and at the zero
    # mode lambda = 0.0 exactly, which contributes 0^{-s} == 0
    at = f"of the contour zeta at s = {s}, b = {rp.b!r}"
    terms = [_power(lam, -s, f"the bound-state term {at}")
             for lam in rp.bound_states() if lam > 0.0]
    # above L the series sum_n c_n lam^{-n-1/2}, c_n = (-1)^n g_n / pi,
    # integrates to L^{1/2-s} sum_n (c_n / L^n) / (n + s - 1/2); heat_coeffs
    # scales the roots by 1/L, since L^{-n} alone overflows at small b.  A
    # kink's c_0 = 0 (no Weyl term) is left out, so s = 1/2 stays regular.
    cut = 4.0 * max(map(abs, rp.roots))
    c = rp.heat_coeffs(-1.0 / cut, 1.0 / math.pi)
    n = np.flatnonzero(c)
    terms.append(_power(cut, 0.5 - s, f"the top-band tail {at}")
                 * complex(np.sum(c[n] / (n + s - 0.5))))
    err = 0.0
    bands = rp.bands()
    # lambda^{-s} overflows at small lambda and large Re s, and e^{-i pi s}
    # at large Im s; the value then is not finite and raises below
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in bands[:-1] + ((bands[-1][0], cut),):
                v, e = _band(rp, s, lo, hi)
                terms.append(v)
                err += e
    except OverflowError:       # the modulus of a piece's value, at large Im s
        raise ConvergenceError(f"contour zeta is not finite at s = {s}") from None
    value = sum(terms)
    err += sum(map(abs, terms)) * 16.0 * _EPS   # rounding of the terms and their sum
    if not (cmath.isfinite(value) and math.isfinite(err)):
        raise ConvergenceError(f"contour zeta is not finite at s = {s}")
    return ZetaEvaluation(s=s, value=value, method="contour", err_estimate=err)
