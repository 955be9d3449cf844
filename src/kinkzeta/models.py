"""Field models and their classical static solutions.

Three scalar families on the line, phi'' = V'(phi):

* GL       V = (g/4) (phi^2 - m^2/g)^2
* SG       V = (2 m^4 / 3g) (1 + cos(c phi)),  c = sqrt(3g/2)/m
* Nahm     V = phi^4 / 2, first integral W = -w^4/2 (g = 2 internally)

Each produced solution evaluates phi(x) and phi'(x) in closed form and
carries the first integral W = phi'^2/2 - V(phi).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import specfun
from .errors import (ConvergenceError, DomainError, EnergyDivergenceError,
                     PoleError, UnsupportedFamilyError)

__all__ = [
    "Family",
    "SolutionKind",
    "ModelSpec",
    "ClassicalSolution",
    "potential_v",
    "kink_solution",
    "periodic_solution",
    "nahm_solution",
    "schrodinger_potential",
    "potential_shift",
    "classical_energy",
    "closed_form_energy",
    "energy_report",
    "modulus_from_w",
    "w_from_modulus",
]

_K1 = 1.0 / math.sqrt(2.0)  # reduced modulus of the Nahm real form
# K(_K1), the quarter period of cn(.; _K1), and E(_K1) from one AGM walk
_K_NAHM, _E_NAHM = specfun.ellipke(_K1)
# the imaginary-modulus pair K(i) = K(_K1) / sqrt2, E(i) = sqrt2 E(_K1)
# behind the Nahm period moments
_KE_IMAG = (_K_NAHM / math.sqrt(2.0), math.sqrt(2.0) * _E_NAHM)
_POLE_GAP = 1e-3  # the Nahm solution raises this close to a pole (cn argument)
_ENERGY_TOL = 1e-14        # two trapezoid levels agree this closely, relative
_ENERGY_MAX_NODES = 2 ** 16


class Family(str, Enum):
    GL = "gl"
    SG = "sg"
    NAHM = "nahm"


class SolutionKind(str, Enum):
    KINK = "kink"
    ANTIKINK = "antikink"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class ModelSpec:
    """Model family with its physical parameters.

    m, g for GL and SG; w for Nahm (which is the g=2, m=0 member of the
    GL family and keeps only the scale w).
    """

    family: Family
    m: float = 0.0
    g: float = 1.0
    w: float = 0.0

    def __post_init__(self):
        f = Family(self.family)
        object.__setattr__(self, "family", f)
        if f is Family.NAHM:
            if not 0.0 < self.w < math.inf:
                raise DomainError("Nahm model requires 0 < w < inf")
            scales = (self.w * self.w * self.w * self.w,)
            object.__setattr__(self, "g", 2.0)
            object.__setattr__(self, "m", 0.0)
        else:
            if not (0.0 < self.m < math.inf and 0.0 < self.g < math.inf):
                raise DomainError(f"{f.value} model requires 0 < m, g < inf")
            # GL V squares phi^2 - m^2/g; SG V takes the cosine of c phi
            field = self.m * self.m / self.g
            scales = (self.m * self.m * self.m * self.m / self.g,
                      field * field if f is Family.GL
                      else math.sqrt(1.5 * self.g) / self.m)
        # V, W and the energy density scale as m^4 / g (w^4 for Nahm)
        if not max(scales) < math.inf:
            raise DomainError(f"the energy or field scale of the {f.value} "
                              "model overflows")

    @property
    def field_period(self) -> float:
        """SG field-space period Phi = 2 pi m sqrt(2/(3g))."""
        if self.family is not Family.SG:
            raise UnsupportedFamilyError("field_period is SG-only")
        return 2.0 * math.pi * self.m * math.sqrt(2.0 / (3.0 * self.g))


def potential_v(spec: ModelSpec, phi, order: int = 0):
    """V(phi) and its first two phi-derivatives (order 0, 1 or 2).

    phi is a float or an ndarray; a float gives a numpy float64 scalar
    (CONVENTIONS item 22).  Raises DomainError where a value overflows
    or is not finite.
    """
    if order not in (0, 1, 2):
        raise DomainError("order must be 0, 1 or 2")
    phi = np.asarray(phi, dtype=float)[()]
    with np.errstate(over="ignore", invalid="ignore"):
        value = _potential_v(spec, phi, order)
    finite = np.isfinite(value)
    if not finite.all():
        at = float(np.asarray(phi)[~finite][0])
        raise DomainError(f"V (order {order}) of the {spec.family.value} model "
                          f"is not finite at phi = {at!r}")
    return value


# powers of phi are products or np.power, since a float64 scalar's ** is
# libm's pow, which differs from the ufunc's on a few per cent of arguments
def _potential_v(spec: ModelSpec, phi, order: int):
    m, g = spec.m, spec.g
    if spec.family is Family.GL:
        if order == 0:
            d = phi * phi - m * m / g
            return 0.25 * g * (d * d)
        if order == 1:
            return g * np.power(phi, 3) - m * m * phi
        return 3.0 * g * phi * phi - m * m
    if spec.family is Family.SG:
        # m^4 / g and m^3 sqrt(2 / 3g) are formed so that no power of m
        # underflows before g scales it
        c = math.sqrt(1.5 * g) / m
        amp = 2.0 * m * m / (3.0 * g) * m * m
        if order == 0:
            return amp * (1.0 + np.cos(c * phi))
        if order == 1:
            return -(m * math.sqrt(2.0 / (3.0 * g))) * m * m * np.sin(c * phi)
        return -(m * m) * np.cos(c * phi)
    # Nahm: V = phi^4/2
    if order == 0:
        return 0.5 * np.power(phi, 4)
    if order == 1:
        return 2.0 * np.power(phi, 3)
    return 6.0 * phi * phi


def _sg_amplitude(spec: ModelSpec) -> float:
    """The SG solutions are this times an angle: 2 m sqrt(2/(3g)) = 2 / c."""
    return 2.0 * spec.m * math.sqrt(2.0 / (3.0 * spec.g))


def modulus_from_w(spec: ModelSpec, W: float) -> float:
    """Elliptic modulus of the periodic solution carrying first integral W."""
    if spec.family is Family.SG:
        lo = -4.0 * spec.m ** 4 / (3.0 * spec.g)
        if not lo < W < 0.0:
            raise DomainError(f"SG periodic solutions need {lo} < W < 0")
        return math.sqrt(1.0 + 3.0 * spec.g * W / (4.0 * spec.m ** 4))
    if spec.family is Family.GL:
        lo = -spec.m ** 4 / (4.0 * spec.g)
        if not lo < W < 0.0:
            raise DomainError(f"GL periodic solutions need {lo} < W < 0")
        r = math.sqrt(-4.0 * spec.g * W) / spec.m ** 2
        return math.sqrt((1.0 - r) / (1.0 + r))
    raise UnsupportedFamilyError("modulus_from_w: GL or SG only")


def w_from_modulus(spec: ModelSpec, k: float) -> float:
    """First integral W of the periodic solution with modulus k."""
    if spec.family is Family.SG:
        return 4.0 * (k * k - 1.0) * spec.m ** 4 / (3.0 * spec.g)
    if spec.family is Family.GL:
        return -((1.0 - k * k) / (1.0 + k * k)) ** 2 * spec.m ** 4 / (4.0 * spec.g)
    raise UnsupportedFamilyError("w_from_modulus: GL or SG only")


@dataclass(frozen=True)
class ClassicalSolution:
    """Evaluable static solution with its family metadata.

    period is the period of the associated Schroedinger potential u(x)
    (the field itself is antiperiodic over it for the periodic families);
    it is None for kinks.  k is the elliptic modulus of GL and SG
    solutions, 1.0 for kinks; None for Nahm.
    """

    spec: ModelSpec
    kind: SolutionKind
    w_const: float            # first integral W
    b_or_sigma: float
    branch_sign: int = 1
    k: float | None = None
    period: float | None = None

    # -- evaluation ---------------------------------------------------------
    # GL and SG are written once in (k, b); the kink is the k = 1 member,
    # where sn, cn, dn are tanh, sech, sech.  x is a float or an ndarray,
    # evaluated by one numpy body, as specfun.jacobi_sn_cn_dn is
    # (CONVENTIONS item 22)
    def fields(self, x):
        """phi, phi' and u at x from one evaluation of sn, cn, dn.

        u is the potential of schrodinger_potential.  A float x gives
        numpy float64 scalars, and raises DomainError if it is not finite.
        Within _POLE_GAP (in the cn argument) of a pole of the Nahm
        solution, a float x raises PoleError; an ndarray gives NaN in those
        rows, which near_pole marks.
        """
        s, spec, b, k = self.branch_sign, self.spec, self.b_or_sigma, self.k
        if not isinstance(x, np.ndarray) and not math.isfinite(x):
            raise DomainError(f"the {spec.family.value} solution needs a finite "
                              f"x, got {x!r}")
        if spec.family is Family.NAHM:
            # real form: phi = w / cn(sqrt(2) w x; 1/sqrt2), poles at cn = 0
            sn, cn, dn = self._nahm_sn_cn_dn(x)
            phi = s * spec.w / cn
            return (phi, s * math.sqrt(2.0) * spec.w * spec.w * sn * dn / (cn * cn),
                    6.0 * (phi * phi))
        sn, cn, dn = specfun.jacobi_sn_cn_dn(b * x, k)
        k2 = k ** 2
        if spec.family is Family.GL:
            a = s * math.sqrt(2.0 / spec.g) * k * b
            # the kink's shift 4 b^2 is folded into c0, which is 0.0 at k = 1
            c0 = 5.0 * k2 - 1.0 - (0.0 if self.kind is SolutionKind.PERIODIC else 4.0)
            return a * sn, a * b * cn * dn, c0 * b * b - 6.0 * k2 * b * b * cn * cn
        a = s * _sg_amplitude(spec)
        # asin(k sn) as atan2(k sn, dn): no digits lost as k -> 1
        return (a * np.arctan2(k * sn, dn), a * b * k * cn,
                b * b * (2.0 * k2 - 1.0 - 2.0 * k2 * cn * cn))

    def phi(self, x):
        return self.fields(x)[0]

    def dphi(self, x):
        return self.fields(x)[1]

    def near_pole(self, x):
        """Whether x lies within _POLE_GAP (in the cn argument) of a pole
        of the Nahm solution, as a numpy bool or boolean array of x's
        shape; never for GL and SG."""
        if self.spec.family is not Family.NAHM:
            return np.zeros(np.shape(x), bool)[()]
        u = math.sqrt(2.0) * self.spec.w * x
        d = np.abs(np.mod(u - _K_NAHM, 2.0 * _K_NAHM))   # poles at odd multiples of K
        return (d < _POLE_GAP) | (2.0 * _K_NAHM - d < _POLE_GAP)

    def _nahm_sn_cn_dn(self, x):
        """sn, cn, dn of u = sqrt(2) w x at modulus 1/sqrt2, guarded by
        near_pole: a float raises PoleError there, an ndarray takes u =
        NaN in those rows."""
        pole = self.near_pole(x)
        if not isinstance(x, np.ndarray) and pole:
            raise PoleError(f"Nahm solution pole near x = {x}")
        u = np.where(pole, math.nan, math.sqrt(2.0) * self.spec.w * x)
        return specfun.jacobi_sn_cn_dn(u, _K1)


def _family_member(spec: ModelSpec, k: float, kind: SolutionKind,
                   sign: int) -> ClassicalSolution:
    """The GL or SG solution of modulus k, with one scale rule for all k;
    the kink is the k = 1 member and has no period.  Raises DomainError
    where the period, or the length 20 / b of the box [-10/b, 10/b] that
    samples a kink, overflows."""
    if spec.family is Family.GL:
        b = spec.m / math.sqrt(1.0 + k * k)   # m / sqrt(2) at k = 1
    elif spec.family is Family.SG:
        b = spec.m
    else:
        raise UnsupportedFamilyError("Nahm has no bounded separatrix; use nahm_solution")
    period = 2.0 * specfun.ellipk(k) / b if kind is SolutionKind.PERIODIC else None
    if not max(20.0 / b, period or 0.0) < math.inf:
        raise DomainError(f"the length scale of the {spec.family.value} solution "
                          f"overflows at b = {b!r}")
    return ClassicalSolution(spec=spec, kind=kind, w_const=w_from_modulus(spec, k),
                             b_or_sigma=b, branch_sign=1 if sign > 0 else -1,
                             k=k, period=period)


def kink_solution(spec: ModelSpec, sign: int = 1) -> ClassicalSolution:
    """Separatrix (W = 0) kink/antikink of the GL or SG model: k = 1."""
    kind = SolutionKind.KINK if sign > 0 else SolutionKind.ANTIKINK
    return _family_member(spec, 1.0, kind, sign)


def periodic_solution(spec: ModelSpec, k: float | None = None,
                      W: float | None = None, sign: int = 1) -> ClassicalSolution:
    """Elliptic periodic solution, parametrized by modulus k or by W."""
    if (k is None) == (W is None):
        raise DomainError("supply exactly one of k or W")
    if k is None:
        k = modulus_from_w(spec, W)
    if not 0.0 < k < 1.0:
        raise DomainError(f"periodic solutions require 0 < k < 1, got {k}")
    return _family_member(spec, k, SolutionKind.PERIODIC, sign)


def nahm_solution(spec: ModelSpec, sign: int = 1) -> ClassicalSolution:
    """Real unbounded solution of phi'^2 = phi^4 - w^4 (W = -w^4/2).

    phi(x) = w / cn(sqrt(2) w x; 1/sqrt(2)), with poles at the zeros of cn.
    Evaluation within 1e-3 (in the cn argument) of a pole raises, and so
    does a w whose period overflows.
    """
    if spec.family is not Family.NAHM:
        raise UnsupportedFamilyError("nahm_solution requires the Nahm family")
    w = spec.w
    # V = phi^4/2 and the energy density phi^4 - w^4/2 peak at the pole guard;
    # a Python float, so that the overflow test below raises no warning
    phi_max = w / float(specfun.jacobi_sn_cn_dn(_K_NAHM - _POLE_GAP, _K1)[1])
    if not phi_max * phi_max * phi_max * phi_max < math.inf:
        raise DomainError(f"the Nahm solution overflows next to its poles at w = {w}")
    sigma = w / math.sqrt(2.0)
    period = math.sqrt(2.0) * _K_NAHM / w
    if not period < math.inf:
        raise DomainError(f"the Nahm period overflows at w = {w!r}")
    return ClassicalSolution(spec=spec, kind=SolutionKind.PERIODIC,
                             w_const=-0.5 * w ** 4, b_or_sigma=sigma,
                             branch_sign=1 if sign > 0 else -1, period=period)


def potential_shift(sol: ClassicalSolution) -> float:
    """Shift lambda with V''(phi(x)) = lambda + u(x) for this solution's u."""
    if sol.spec.family is Family.GL and sol.kind in (SolutionKind.KINK,
                                                     SolutionKind.ANTIKINK):
        return 4.0 * sol.b_or_sigma ** 2
    return 0.0


def schrodinger_potential(sol: ClassicalSolution, x):
    """Potential u(x) of the fluctuation operator -d^2/dx^2 + u(x).

    GL kink uses the conventional zero-asymptote form u = -6 b^2 sech^2(bx)
    (shift 4 b^2 removed); all other cases return V''(phi(x)) unshifted,
    singular at the Nahm poles, where the pole guard applies.
    """
    return sol.fields(x)[2]


def _energy_density(sol: ClassicalSolution, x):
    phi, dphi, _ = sol.fields(x)
    return 0.5 * dphi ** 2 + potential_v(sol.spec, phi)


def classical_energy(sol: ClassicalSolution) -> float:
    """Raw energy integral of the density phi'^2/2 + V over one period, or
    over R for a kink.

    The periodic trapezoid rule on [0, L), or on [-40/b, 40/b) for a kink,
    whose density there is below 1e-17 of its peak (CONVENTIONS item 22).
    It starts at 64 nodes and doubles them by midpoints, each level
    sampled in one array and summed by math.fsum onto the last level's
    sum, until two levels agree to _ENERGY_TOL relative; past
    _ENERGY_MAX_NODES nodes it raises ConvergenceError.  A density scale
    m^4/g below the smallest normal float raises DomainError, since the
    samples would underflow to 0.
    """
    if sol.spec.family is Family.NAHM:
        raise EnergyDivergenceError("Nahm solution is unbounded; energy diverges")
    if sol.period is None:
        # a kink's density decays like exp(-2 b x)
        lo, width = -40.0 / sol.b_or_sigma, 80.0 / sol.b_or_sigma
        if not width < math.inf:
            raise DomainError("the energy interval [-40/b, 40/b) of the kink "
                              f"overflows at b = {sol.b_or_sigma!r}")
    else:
        lo, width = 0.0, sol.period
    # the density scales as m^4 / g; m^2 / g first, so that m^4 cannot
    # underflow on its own
    m, g = sol.spec.m, sol.spec.g
    if not m * m / g * m * m >= sys.float_info.min:
        raise DomainError(f"the energy density scale m^4/g of the "
                          f"{sol.spec.family.value} model underflows at "
                          f"m = {m!r}, g = {g!r}")
    n = 64
    total = math.fsum(_energy_density(sol, lo + width / n * np.arange(n)).tolist())
    value = width / n * total
    while n < _ENERGY_MAX_NODES:
        mid = lo + width / n * (np.arange(n) + 0.5)
        total = math.fsum([total, *_energy_density(sol, mid).tolist()])
        n *= 2
        value, last = width / n * total, value
        if abs(value - last) <= _ENERGY_TOL * abs(value):
            return value
    raise ConvergenceError(f"the energy of the {sol.spec.family.value} solution "
                           f"did not settle to {_ENERGY_TOL:g} in "
                           f"{_ENERGY_MAX_NODES} nodes")


def closed_form_energy(sol: ClassicalSolution) -> float | None:
    """Closed-form energy in the conventional normalization (SG only).

    Kink: 16 m^2/g.  Periodic: (8 m^2/g) [2 E(k) - (1 - k^2) K(k)], which
    tends to the kink value as k -> 1.  GL energies have no closed form
    here and return None.
    """
    spec = sol.spec
    if spec.family is not Family.SG:
        return None
    m, g = spec.m, spec.g
    if sol.kind is not SolutionKind.PERIODIC:
        return 16.0 * m * m / g
    k = sol.k
    K, E = specfun.ellipke(k)
    return 8.0 * m * m / g * (2.0 * E - (1.0 - k * k) * K)


def energy_report(sol: ClassicalSolution) -> dict:
    """Closed-form and quadrature energies side by side.

    The quadrature column is scaled to the same normalization as the
    closed form (factor 3/m for SG; 1 otherwise), and the unscaled field
    integral is reported as raw_integral.
    """
    raw = classical_energy(sol)
    # conventional normalization: the SG kink carries mass 16 m^2/g, while
    # the raw field integral is 16 m^3/(3g); constant ratio 3/m.
    norm = 3.0 / sol.spec.m if sol.spec.family is Family.SG else 1.0
    return {
        "closed_form": closed_form_energy(sol),
        "quadrature": norm * raw,
        "raw_integral": raw,
        "normalization": norm,
    }
