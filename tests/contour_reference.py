"""mpmath reference values of the periodic contour zeta at its hardest points.

This script never imports kinkzeta.  It tabulates zeta(s) of the periodic
cases B and D at moduli near both ends of (0, 1) and of NAHM, at s near
both strip edges and at one complex s, in ``contour_reference.json``
beside it; ``test_contour_reference.py`` checks the library against the
table.  Rebuild it (a few minutes) with

    python3 tests/contour_reference.py              # writes the JSON
    python3 tests/contour_reference.py --compare    # DPS vs DPS + 10, no write

The route is the one the contour zeta had before product integration,
which shares no code with it: the density rho(lambda) =
sigma N(-lambda) / (2 pi sqrt|Q(-lambda)|), sigma = +1 when the number m of
edges below lambda is 1 mod 4 and -1 when it is 3 mod 4, with Q written as
the product over the analytic band edges; the free background
rho0 = I0 / (2 pi sqrt(lambda)) subtracted on every band above 0 and
integrated exactly over the gaps; the top band taken by quadrature up to a
cut-off and by its exact large-lambda series beyond.  Each band is split
at its midpoint and at points that close geometrically on its edges, and
each edge is flattened by |lambda - edge| = a u^beta with
beta = 1 / (1 - Re alpha) for the edge exponent -alpha (alpha = 1/2, or
1/2 + s at lambda = 0).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath as mp

TABLE = Path(__file__).resolve().with_name("contour_reference.json")
DPS = 30
CONFIGS = [(case, k) for case in ("b", "d") for k in (0.01, 0.05, 0.1, 0.99, 0.999999)]
CONFIGS += [("d", 0.001), ("nahm", None)]
S_VALUES = (-0.45, 0.1, 0.49, complex(0.3, 0.2))


def key(case: str, k, s: complex) -> str:
    kk = case if k is None else f"{case}:{k:g}"
    return f"{kk}|{s.real:g}{s.imag:+g}j"


def edges(case: str, k):
    """Band edges in lambda at b = 1, ascending (all simple)."""
    if case == "b":
        k2 = mp.mpf(k) ** 2
        return [k2 - 1, mp.mpf(0), k2]
    if case == "d":
        k2 = mp.mpf(k) ** 2
        r = mp.sqrt(1 - k2 + k2 * k2)
        return [1 + k2 - 2 * r, mp.mpf(0), 3 * k2, mp.mpf(3), 1 + k2 + 2 * r]
    s3 = mp.sqrt(3)
    return [-2 * s3, mp.mpf(-3), mp.mpf(0), mp.mpf(3), 2 * s3]


def moments(case: str, k):
    """(I0, Iz, Izz) over one period at b = 1."""
    if case == "nahm":
        ki = mp.ellipk(mp.mpf(1) / 2) / mp.sqrt(2)
        ei = mp.sqrt(2) * mp.ellipe(mp.mpf(1) / 2)
        return 2 * ki, 2 * (2 * ki - ei), 2 * (mp.mpf(10) / 3 * ki - 2 * ei)
    k2 = mp.mpf(k) ** 2
    K, E = mp.ellipk(k2), mp.ellipe(k2)
    return (2 * K, 2 / k2 * (E - (1 - k2) * K),
            2 * (K - 2 * (K - E) / k2
                 + ((2 + k2) * K - 2 * (1 + k2) * E) / (3 * k2 * k2)))


def numerator(case: str, k):
    """Ascending p-coefficients of N(p), the period trace numerator."""
    i0, iz, izz = moments(case, k)
    if case == "b":
        return [mp.mpf(k) ** 2 * iz, i0]
    if case == "d":
        k2 = mp.mpf(k) ** 2
        return [9 * k2 * (1 - k2) * iz + 9 * k2 * k2 * izz,
                3 * i0 + 3 * k2 * iz, i0]
    return [-18 * iz + 9 * izz, 3 * i0 - 3 * iz, i0]


class Periodic:
    def __init__(self, case: str, k):
        self.e = edges(case, k)
        self.c = numerator(case, k)
        self.c0 = moments(case, k)[0] / (2 * mp.pi)

    def rho(self, lam, edge=None, off=None):
        """rho(lam); next to an edge, lam = edge + off with off exact."""
        m = sum(1 for e in self.e if (off > 0 if e == edge else e < lam))
        sigma = 1 if m % 4 == 1 else -1
        q = mp.fprod(abs(off) if e == edge else abs(lam - e) for e in self.e)
        return sigma * mp.polyval(self.c[::-1], -lam) / (2 * mp.pi * mp.sqrt(q))

    def gap_to(self, x):
        """Distance from the edge x to the nearest other edge."""
        return min(abs(x - e) for e in self.e if e != x)

    def edge_piece(self, f, edge, a, alpha, sign):
        """int f over (edge, edge + sign a), f ~ |lambda - edge|^{-alpha}."""
        beta = 1 / (1 - mp.re(alpha))
        def g(u):
            off = sign * a * u ** beta
            return f(edge + off, edge, off) * a * beta * u ** (beta - 1)
        # split where |lambda - edge| = a 10^-j, down to the nearest edge
        depth = int(mp.ceil(mp.log10(a / self.gap_to(edge)))) + 2
        pts = [mp.mpf(10) ** (-j / beta) for j in range(max(depth, 1), 0, -1)]
        return mp.quad(g, [0] + pts + [1])

    def band(self, f, lo, hi, alpha_lo, alpha_hi):
        mid = (lo + hi) / 2
        return (self.edge_piece(f, lo, mid - lo, alpha_lo, 1)
                + self.edge_piece(f, hi, hi - mid, alpha_hi, -1))

    def tail(self, terms):
        """G_j with rho(lambda) = sum_j G_j lambda^{-1/2-j} above all edges."""
        d = len(self.c) - 1
        sigma = 1 if len(self.e) % 4 == 1 else -1
        series = [mp.mpf(0)] * (terms + 1)
        for j, cj in enumerate(self.c):
            series[d - j] += cj * (-1) ** j
        for e in self.e:
            fac = [mp.binomial(2 * j, j) / mp.mpf(4) ** j * e ** j
                   for j in range(terms + 1)]
            series = [mp.fsum(series[i] * fac[j - i] for i in range(j + 1))
                      for j in range(terms + 1)]
        return [sigma * g / (2 * mp.pi) for g in series]

    def zeta(self, s, terms=40):
        s = mp.mpc(s)
        half = mp.mpf(1) / 2
        total = mp.mpc(0)
        # int_0^x rho0 lambda^{-s} = c0 x^{1/2 - s} / (1/2 - s)
        free = lambda x: 0 if x == 0 else self.c0 * x ** (half - s) / (half - s)
        bands = [(self.e[i], self.e[i + 1]) for i in range(0, len(self.e) - 1, 2)]
        prev = mp.mpf(0)
        for lo, hi in bands:
            if hi <= 0:
                w = lambda lam, *near: self.rho(lam, *near) * (-lam) ** (-s)
                a_hi = half + s if hi == 0 else half
                total += mp.expj(-mp.pi * s) * self.band(w, lo, hi, half, a_hi)
                continue
            total -= free(lo) - free(prev)
            w = lambda lam, *near: ((self.rho(lam, *near) - self.c0 / mp.sqrt(lam))
                                    * lam ** (-s))
            a_lo = half + s if lo == 0 else half
            total += self.band(w, lo, hi, a_lo, half)
            prev = hi
        top = self.e[-1]
        total -= free(top) - free(prev)
        cut = 50 * max(abs(e) for e in self.e)
        w = lambda lam, *near: ((self.rho(lam, *near) - self.c0 / mp.sqrt(lam))
                                * lam ** (-s))
        total += self.edge_piece(w, top, 1, half, 1)
        total += mp.quad(w, [top + 1, 2 * top + 1, cut / 8, cut / 4, cut / 2, cut])
        g = self.tail(terms)
        total += mp.fsum(g[j] * cut ** (half - j - s) / (j + s - half)
                         for j in range(1, terms + 1))
        return total


def build(dps: int) -> dict:
    with mp.workdps(dps):
        values = {}
        for case, k in CONFIGS:
            pc = Periodic(case, k)
            for s in S_VALUES:
                z = pc.zeta(s)
                values[key(case, k, complex(s))] = [mp.nstr(mp.re(z), dps),
                                                    mp.nstr(mp.im(z), dps)]
    return {"generator": "tests/contour_reference.py", "dps": dps,
            "mpmath": mp.__version__, "zeta": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", action="store_true",
                    help="compare DPS with DPS + 10 digits; write nothing")
    args = ap.parse_args(argv)
    table = build(DPS)
    if args.compare:
        finer = build(DPS + 10)["zeta"]
        with mp.workdps(DPS + 10):
            value = lambda pair: mp.mpc(*map(mp.mpf, pair))
            worst = max(abs(value(v) - value(finer[kk])) / max(1, abs(value(finer[kk])))
                        for kk, v in table["zeta"].items())
            print(f"largest relative change from {DPS} to {DPS + 10} digits: "
                  f"{mp.nstr(worst, 3)}")
        return 0
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table['zeta'])} values to {TABLE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
