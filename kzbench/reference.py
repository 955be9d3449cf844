"""Reference values for the kinkzeta benchmark, computed with mpmath alone.

This module never imports kinkzeta.  It holds two kinds of reference:

* closed forms evaluated on demand (kink zeta functions and heat traces,
  the kink-tower zeta'(0), the classical solutions and SG energies);
* band integrals of the periodic cases B, D and NAHM, which are slow in
  mpmath and are therefore tabulated in ``reference.json`` over fixed
  input pools from which the benchmark seed draws.

Rebuild the table (about a minute) with

    python3 kzbench/reference.py              # writes kzbench/reference.json
    python3 kzbench/reference.py --compare    # DPS vs DPS + 10 digits, no write

The periodic density is rho(lambda) = (1/pi) Im gamma_hat(p - i0) at
p = -lambda, with gamma_hat = N(p) / (2 sqrt Q(p)).  N carries the
period moments, taken from mpmath.ellipk/ellipe, and Q is written as the
product over the analytic band edges.  On a cut sqrt Q has the phase
e^{i pi m/2}, m the number of edges below lambda, so the density is real.
On the half-infinite band rho and the free density rho0 = I0/(2 pi
sqrt(lambda)) cancel to leading order; the difference is integrated up to
a cut-off L and continued by its exact large-lambda series beyond it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath as mp

from pools import (FAULT_K, FAULT_S, K_POOL, TRACE_T_POOL, ZETA_S_POOL,
                   case_key, periodic_configs)

HERE = Path(__file__).resolve().parent
TABLE = HERE / "reference.json"
DPS = 30   # working precision (decimal digits) of the table and the checks

# ---------------------------------------------------------------------------
# periodic cases
# ---------------------------------------------------------------------------

def band_edges(case: str, k, b=1):
    """Analytic Bloch band edges (lambda), ascending."""
    b2 = mp.mpf(b) ** 2
    if case == "b":
        k2 = mp.mpf(k) ** 2
        return [(k2 - 1) * b2, mp.mpf(0), k2 * b2]
    if case == "d":
        k2 = mp.mpf(k) ** 2
        r = mp.sqrt(1 - k2 + k2 * k2)
        return [(1 + k2 - 2 * r) * b2, mp.mpf(0), 3 * k2 * b2, 3 * b2,
                (1 + k2 + 2 * r) * b2]
    s3 = mp.sqrt(3)
    return [-2 * s3 * b2, -3 * b2, mp.mpf(0), 3 * b2, 2 * s3 * b2]


def period_moments(case: str, k, b=1):
    """(I0, Iz, Izz): integrals of 1, z, z^2 over one period, with
    z = cn^2(bx; k) for B, D and z = cd^2(sqrt2 b x; 1/sqrt2) for NAHM."""
    b = mp.mpf(b)
    if case == "nahm":
        # K(i), E(i) by the imaginary-modulus transformation
        ki = mp.ellipk(mp.mpf(1) / 2) / mp.sqrt(2)
        ei = mp.sqrt(2) * mp.ellipe(mp.mpf(1) / 2)
        return (2 * ki / b, 2 / b * (2 * ki - ei),
                2 / b * (mp.mpf(10) / 3 * ki - 2 * ei))
    k2 = mp.mpf(k) ** 2
    K, E = mp.ellipk(k2), mp.ellipe(k2)
    iz = 2 / (b * k2) * (E - (1 - k2) * K)
    izz = 2 / b * (K - 2 * (K - E) / k2
                   + ((2 + k2) * K - 2 * (1 + k2) * E) / (3 * k2 * k2))
    return 2 * K / b, iz, izz


def moments_by_quadrature(case: str, k, b=1):
    """The same moments by direct quadrature of ellipfun (self-check)."""
    b = mp.mpf(b)
    i0 = period_moments(case, k, b)[0]
    if case == "nahm":
        kk = mp.mpf(1) / 2

        def z(x):
            u = mp.sqrt(2) * b * x
            return (mp.ellipfun("cn", u, m=kk) / mp.ellipfun("dn", u, m=kk)) ** 2
    else:
        kk = mp.mpf(k) ** 2

        def z(x):
            return mp.ellipfun("cn", b * x, m=kk) ** 2
    pts = mp.linspace(0, i0, 5)
    return (i0, mp.quad(z, pts), mp.quad(lambda x: z(x) ** 2, pts))


def numerator_coeffs(case: str, k, b=1):
    """Ascending p-coefficients of N(p) = sum_i p^i sum_j P_ij I_j."""
    b2 = mp.mpf(b) ** 2
    b4 = b2 * b2
    i0, iz, izz = period_moments(case, k, b)
    if case == "b":
        k2 = mp.mpf(k) ** 2
        return [k2 * b2 * iz, i0]
    if case == "d":
        k2 = mp.mpf(k) ** 2
        return [9 * b4 * k2 * (1 - k2) * iz + 9 * b4 * k2 * k2 * izz,
                3 * b2 * i0 + 3 * b2 * k2 * iz,
                i0]
    return [-18 * b4 * iz + 9 * b4 * izz, 3 * b2 * i0 - 3 * b2 * iz, i0]


def potential_moments(case: str, k, b=1):
    """(int u, int u^2) over one period, from u = u0 + u1 z."""
    b2 = mp.mpf(b) ** 2
    i0, iz, izz = period_moments(case, k, b)
    if case == "b":
        k2 = mp.mpf(k) ** 2
        u0, u1 = b2 * (2 * k2 - 1), -2 * k2 * b2
    elif case == "d":
        k2 = mp.mpf(k) ** 2
        u0, u1 = b2 * (5 * k2 - 1), -6 * k2 * b2
    else:
        u0, u1 = -6 * b2, 6 * b2
    return (u0 * i0 + u1 * iz,
            u0 * u0 * i0 + 2 * u0 * u1 * iz + u1 * u1 * izz)


class Periodic:
    """Spectral density of one periodic case, with its band structure."""

    def __init__(self, case: str, k, b=1):
        self.edges = band_edges(case, k, b)
        self.n = len(self.edges)
        self.c = numerator_coeffs(case, k, b)
        self.i0 = period_moments(case, k, b)[0]
        # bands: (e0, e1), (e2, e3), ..., (e_top, inf)
        self.bands = [(self.edges[i], self.edges[i + 1])
                      for i in range(0, self.n - 1, 2)]
        self.top = self.edges[-1]

    def density(self, lam):
        m = sum(1 for e in self.edges if e < lam)
        if m % 2 == 0:
            return mp.mpf(0)
        sigma = 1 if m % 4 == 1 else -1
        num = mp.polyval(self.c[::-1], -lam)
        q = mp.fprod(abs(lam - e) for e in self.edges)
        return sigma * num / (2 * mp.pi * mp.sqrt(q))

    def rho0(self, lam):
        return self.i0 / (2 * mp.pi * mp.sqrt(lam))

    def tail_series(self, terms: int):
        """Coefficients G_j with rho(lambda) = sum_j G_j lambda^{-1/2-j}
        for lambda above every edge (G_0 = I0 / (2 pi))."""
        d = len(self.c) - 1
        sigma = 1 if self.n % 4 == 1 else -1
        # numerator N(-1/w) w^d as a polynomial in w
        num = [mp.mpf(0)] * (terms + 1)
        for j, cj in enumerate(self.c):
            if d - j <= terms:
                num[d - j] += cj * (-1) ** j
        series = num
        for e in self.edges:
            # (1 - e w)^{-1/2} = sum_j binom(2j, j) / 4^j e^j w^j
            fac = [mp.binomial(2 * j, j) / mp.mpf(4) ** j * e ** j
                   for j in range(terms + 1)]
            series = [mp.fsum(series[i] * fac[j - i] for i in range(j + 1))
                      for j in range(terms + 1)]
        return [sigma * g / (2 * mp.pi) for g in series]

    # -- heat trace ----------------------------------------------------------
    def heat_trace(self, t):
        t = mp.mpf(t)
        total = mp.mpf(0)
        f = lambda lam: self.density(lam) * mp.exp(-lam * t)
        for lo, hi in self.bands:
            total += mp.quad(f, [lo, (lo + hi) / 2, hi])
        step = 1 / t
        total += mp.quad(f, [self.top, self.top + step, self.top + 10 * step,
                             self.top + 100 * step, mp.inf])
        return total

    # -- zeta ----------------------------------------------------------------
    def _edge_zero_piece(self, f, a, s, sign):
        """int over (0, a) (sign +1) or (-a, 0) (sign -1) of
        |lambda|^{-1/2 - s} f(lambda), f smooth at 0, by the substitution
        |lambda| = a u^beta with beta = 1/(1/2 - s)."""
        beta = 1 / (mp.mpf(1) / 2 - s)
        pref = a ** (mp.mpf(1) / 2 - s) / (mp.mpf(1) / 2 - s)
        return pref * mp.quad(lambda u: f(sign * a * u ** beta), [0, 1])

    def zeta(self, s, terms: int = 30):
        s = mp.mpf(s)
        phase = mp.expj(-mp.pi * s)
        total = mp.mpc(0)
        prev_hi = mp.mpf(0)
        for lo, hi in self.bands:
            mid = (lo + hi) / 2
            if hi <= 0:
                # unstable band: |lambda|^{-s} e^{-i pi s}; the edge at 0
                # meets the weight singularity
                w = lambda lam: self.density(lam) * (-lam) ** (-s)
                left = mp.quad(w, [lo, mid])
                if hi == 0:
                    g = lambda lam: self.density(lam) * mp.sqrt(-lam)
                    right = self._edge_zero_piece(g, -mid, s, -1)
                else:
                    right = mp.quad(w, [mid, hi])
                total += phase * (left + right)
                continue
            # gap (prev_hi, lo): only the free density, integrated exactly
            if lo > prev_hi:
                total -= self.i0 / (2 * mp.pi) * (
                    lo ** (mp.mpf(1) / 2 - s) - prev_hi ** (mp.mpf(1) / 2 - s)
                ) / (mp.mpf(1) / 2 - s)
            w = lambda lam: (self.density(lam) - self.rho0(lam)) * lam ** (-s)
            if lo == 0:
                g = lambda lam: (self.density(lam) * mp.sqrt(lam)
                                 - self.i0 / (2 * mp.pi))
                total += self._edge_zero_piece(g, mid, s, +1)
            else:
                total += mp.quad(w, [lo, mid])
            total += mp.quad(w, [mid, hi])
            prev_hi = hi
        # gap below the top band, then the top band up to L and its tail
        total -= self.i0 / (2 * mp.pi) * (
            self.top ** (mp.mpf(1) / 2 - s) - prev_hi ** (mp.mpf(1) / 2 - s)
        ) / (mp.mpf(1) / 2 - s)
        cut = 50 * max(abs(e) for e in self.edges)
        w = lambda lam: (self.density(lam) - self.rho0(lam)) * lam ** (-s)
        total += mp.quad(w, [self.top, self.top + 1, 2 * self.top + 1,
                             cut / 4, cut])
        g = self.tail_series(terms)
        total += mp.fsum(g[j] * cut ** (mp.mpf(1) / 2 - j - s)
                         / (j + s - mp.mpf(1) / 2) for j in range(1, terms + 1))
        if abs(mp.im(total)) < mp.mpf(10) ** (-mp.mp.dps + 5) * (1 + abs(total)):
            total = mp.mpc(mp.re(total), 0)
        return total


# ---------------------------------------------------------------------------
# kink closed forms
# ---------------------------------------------------------------------------

def zeta_a(s, b):
    """Case A: -b^{-2s} Gamma(s + 1/2) / (sqrt(pi) Gamma(s + 1))."""
    s, b = mp.mpf(s), mp.mpf(b)
    return -b ** (-2 * s) * mp.gamma(s + 0.5) / (mp.sqrt(mp.pi) * mp.gamma(s + 1))


def zeta_c(s, b):
    """Case C: Mellin image of erf(2b sqrt t) + e^{-3b^2 t} erf(b sqrt t)."""
    s, b = mp.mpf(s), mp.mpf(b)
    bound = (2 * b / mp.sqrt(mp.pi) * mp.gamma(s + 0.5)
             * (3 * b * b) ** (-s - 0.5)
             * mp.hyp2f1(0.5, s + 0.5, 1.5, -mp.mpf(1) / 3) * mp.rgamma(s))
    return zeta_a(s, 2 * b) + bound


def trace_a(t, b):
    return mp.erf(mp.mpf(b) * mp.sqrt(t))


def trace_c(t, b):
    b, t = mp.mpf(b), mp.mpf(t)
    return mp.erf(2 * b * mp.sqrt(t)) + mp.exp(-3 * b * b * t) * mp.erf(b * mp.sqrt(t))


def kink_tower_zeta(s, m, d):
    """zeta_d(s) = -2^{2-d} pi^{-d/2} m^{d-1-2s}
    Gamma(s + 1 - d/2) / ((2s - d + 1) Gamma(s))."""
    s, m = mp.mpmathify(s), mp.mpf(m)
    return (-mp.mpf(2) ** (2 - d) * mp.pi ** (-mp.mpf(d) / 2)
            * m ** (d - 1 - 2 * s) * mp.gamma(s + 1 - mp.mpf(d) / 2)
            * mp.rgamma(s) / (2 * s - d + 1))


def kink_tower_dzeta0(m, d):
    """d zeta_d / ds at s = 0 (mpmath numerical derivative)."""
    return mp.diff(lambda s: kink_tower_zeta(s, m, d), 0)


# ---------------------------------------------------------------------------
# classical solutions and energies
# ---------------------------------------------------------------------------

def sn_cn_dn(u, m):
    """Jacobi sn, cn, dn at parameter m = k^2 from one ellipfun call: dn > 0
    for real u, and cn < 0 on the quarter periods (K, 3K) modulo 4K."""
    sn = mp.ellipfun("sn", u, m=m)
    quarter = mp.ellipk(m)
    r = mp.fmod(u, 4 * quarter)
    if r < 0:
        r += 4 * quarter
    cn = mp.sqrt(1 - sn * sn) * (-1 if quarter < r < 3 * quarter else 1)
    return sn, cn, mp.sqrt(1 - m * sn * sn)


def solution_row(family: str, kind: str, m, g, k, w, x):
    """(phi, u, energy density) of a classical solution at x."""
    x = mp.mpf(x)
    if family == "gl":
        m, g = mp.mpf(m), mp.mpf(g)
        if kind == "kink":
            b = m / mp.sqrt(2)
            phi = mp.sqrt(2 / g) * b * mp.tanh(b * x)
            dphi = mp.sqrt(2 / g) * b * b * mp.sech(b * x) ** 2
            u = -6 * b * b * mp.sech(b * x) ** 2
        else:
            k = mp.mpf(k)
            b = m / mp.sqrt(1 + k * k)
            sn, cn, dn = sn_cn_dn(b * x, k * k)
            phi = mp.sqrt(2 / g) * k * b * sn
            dphi = mp.sqrt(2 / g) * k * b * b * cn * dn
            u = (5 * k * k - 1) * b * b - 6 * k * k * b * b * cn * cn
        v = g / 4 * (phi * phi - m * m / g) ** 2
    elif family == "sg":
        m, g, k = mp.mpf(m), mp.mpf(g), mp.mpf(k)
        amp = 2 * m * mp.sqrt(2 / (3 * g))
        sn, cn, _ = sn_cn_dn(m * x, k * k)
        phi = amp * mp.asin(k * sn)
        dphi = amp * m * k * cn
        u = m * m * (2 * k * k - 1 - 2 * k * k * cn * cn)
        v = 2 * m ** 4 / (3 * g) * (1 + mp.cos(mp.sqrt(1.5 * g) / m * phi))
    else:
        w = mp.mpf(w)
        sn, cn, dn = sn_cn_dn(mp.sqrt(2) * w * x, mp.mpf(1) / 2)
        phi = w / cn
        dphi = mp.sqrt(2) * w * w * sn * dn / (cn * cn)
        u = 6 * phi * phi
        v = phi ** 4 / 2
    return phi, u, dphi * dphi / 2 + v


def nahm_pole_distance(w, x):
    """Distance, in the cn argument, from x to the nearest pole of the
    Nahm solution (odd multiples of K(1/sqrt2))."""
    quarter = mp.ellipk(mp.mpf(1) / 2)
    arg = mp.sqrt(2) * mp.mpf(w) * mp.mpf(x)
    d = mp.fmod(arg - quarter, 2 * quarter)
    if d < 0:
        d += 2 * quarter
    return min(d, 2 * quarter - d)


def sg_energy(m, g, k=None):
    """Conventional SG energies: 16 m^2/g (kink) and
    (8 m^2/g) [2 E(k) - (1 - k^2) K(k)] (periodic)."""
    m, g = mp.mpf(m), mp.mpf(g)
    if k is None:
        return 16 * m * m / g
    k2 = mp.mpf(k) ** 2
    return 8 * m * m / g * (2 * mp.ellipe(k2) - (1 - k2) * mp.ellipk(k2))


def gl_periodic_energy(m, g, k):
    """Raw energy integral of the GL periodic solution over one period.

    With the first integral W = phi'^2/2 - V the density is phi'^2 - W, and
    int_0^K cn^2 dn^2 = ((1 + k^2) E - (1 - k^2) K) / (3 k^2)."""
    m, g, k = mp.mpf(m), mp.mpf(g), mp.mpf(k)
    k2 = k * k
    b = m / mp.sqrt(1 + k2)
    K, E = mp.ellipk(k2), mp.ellipe(k2)
    w_const = -((1 - k2) / (1 + k2)) ** 2 * m ** 4 / (4 * g)
    cn2dn2 = ((1 + k2) * E - (1 - k2) * K) / (3 * k2)
    return 2 / g * k2 * b ** 3 * 2 * cn2dn2 - w_const * 2 * K / b


def gl_periodic_energy_by_quadrature(m, g, k):
    """The same energy by quadrature of the density (self-check)."""
    m, g, k = mp.mpf(m), mp.mpf(g), mp.mpf(k)
    period = 2 * mp.ellipk(k * k) * mp.sqrt(1 + k * k) / m
    dens = lambda x: solution_row("gl", "periodic", m, g, k, None, x)[2]
    return mp.quad(dens, mp.linspace(0, period, 5))


def sg_raw_to_conventional(m):
    """The SG kink carries 16 m^2/g while the raw field integral is
    16 m^3/(3g); the conventional normalization is raw times 3/m."""
    return 3 / mp.mpf(m)


# ---------------------------------------------------------------------------
# table generation
# ---------------------------------------------------------------------------

def build_table(dps: int) -> dict:
    mp.mp.dps = dps
    zeta, trace = {}, {}
    for case, k in periodic_configs():
        pc = Periodic(case, k)
        svals = list(ZETA_S_POOL)
        if k in (None, FAULT_K):
            svals += list(FAULT_S)
        for s in svals:
            z = pc.zeta(s)
            zeta[f"{case_key(case, k)}|{s:g}"] = [float(mp.re(z)), float(mp.im(z))]
        for t in TRACE_T_POOL:
            trace[f"{case_key(case, k)}|{t:g}"] = float(pc.heat_trace(t))
    return {
        "generator": "kzbench/reference.py",
        "mpmath": mp.__version__,
        "dps": dps,
        "pools": {"k": list(K_POOL), "zeta_s": list(ZETA_S_POOL),
                  "fault_k": FAULT_K, "fault_s": list(FAULT_S),
                  "trace_t": list(TRACE_T_POOL)},
        "zeta": zeta,
        "trace": trace,
    }


def self_check() -> float:
    """Properties the reference itself must have.  Returns the worst
    defect as a share of its limit and raises if any exceeds its limit."""
    mp.mp.dps = DPS
    checks = []
    for case, k in periodic_configs():
        pc = Periodic(case, k)
        for a, q in zip(period_moments(case, k), moments_by_quadrature(case, k)):
            checks.append((abs(a - q) / abs(q), 1e-12))
        # periodic zeta(0) = 0: states per period equal the free ones
        checks.append((abs(pc.zeta(0)), 1e-12))
        # small-t heat-kernel expansion per period,
        # gamma(t) 2 sqrt(pi t) = I0 - t int u + t^2/2 int u^2 + O(t^3);
        # at t = 1e-4 the remainder is below 1 % of the t^2 term
        t = mp.mpf("1e-4")
        iu, iu2 = potential_moments(case, k)
        lhs = pc.heat_trace(t) * 2 * mp.sqrt(mp.pi * t)
        rhs = pc.i0 - t * iu + t * t / 2 * iu2
        checks.append((abs(lhs - rhs) / abs(t * t / 2 * iu2), 1e-2))
    # case C closed form against the Mellin integral of its trace
    for s, b in ((0.3, 1.0), (0.1, 0.7)):
        s, b = mp.mpf(s), mp.mpf(b)
        g = lambda t: trace_c(t, b) - 1
        # t = u^{1/s} on (0, 1) removes the t^{s-1} endpoint singularity
        head = mp.quad(lambda u: g(u ** (1 / s)), [0, 1]) / s
        tail = mp.quad(lambda t: t ** (s - 1) * g(t), [1, mp.inf])
        mellin = mp.rgamma(s) * (head + tail)
        checks.append((abs(mellin - zeta_c(s, b)) / abs(zeta_c(s, b)), 1e-12))
    # GL periodic energy: closed form against quadrature of the density
    for m, g, k in ((1.0, 1.0, 0.6), (1.7, 0.8, 0.3)):
        e = gl_periodic_energy(m, g, k)
        checks.append((abs(e - gl_periodic_energy_by_quadrature(m, g, k)) / abs(e),
                       1e-12))
    worst = max(float(v / lim) for v, lim in checks)
    if worst > 1.0:
        raise SystemExit(f"reference self-check failed at {worst:.3g} of a limit")
    return worst


def compare() -> float:
    """Largest relative difference of the table built at DPS and at
    DPS + 10 digits."""
    a, b = build_table(DPS), build_table(DPS + 10)
    worst = 0.0
    for sect in ("zeta", "trace"):
        for key, va in a[sect].items():
            vb = b[sect][key]
            va = complex(*va) if isinstance(va, list) else va
            vb = complex(*vb) if isinstance(vb, list) else vb
            worst = max(worst, abs(va - vb) / max(1.0, abs(vb)))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--compare", action="store_true",
                    help=f"rebuild at {DPS} and {DPS + 10} digits and report "
                         "the largest relative difference; writes nothing")
    args = ap.parse_args(argv)
    if args.compare:
        print(f"largest relative difference, {DPS} vs {DPS + 10} digits: "
              f"{compare():.3e}")
        return 0
    worst = self_check()
    print(f"self-check passed; worst defect {worst:.3e} of its limit")
    table = build_table(DPS)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table['zeta'])} zeta and {len(table['trace'])} trace "
          f"values to {TABLE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
