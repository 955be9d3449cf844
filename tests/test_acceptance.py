"""Acceptance suite: the exit criteria of the build.

Each criterion is one test that performs every stated sub-check at its
stated tolerance, prints a single PASS/FAIL line (visible under
``pytest -s``), and enforces its runtime budget.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from kinkzeta import bakerakhiezer as ba
from kinkzeta import models, oracle, specfun, zetareg
from kinkzeta.cli import main as cli_main
from kinkzeta.resolvent import (CaseTag, build_resolvent, hermit_residual,
                                invert_laplace_gamma)


def _report(num: int, desc: str, ok: bool, t0: float, budget: float) -> None:
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {desc} ({elapsed:.1f}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_01_sg_kink_energy(capsys):
    t0 = time.time()
    code, out = run_cli(capsys, "energy", "--family", "sg", "--m", "2",
                        "--g", "1", "--kink")
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    closed = float(row[header.index("closed_form")])
    quadrature = float(row[header.index("quadrature")])
    ok = (code == 0 and closed == 64.0
          and abs(quadrature - closed) < 1e-9)
    with capsys.disabled():
        _report(1, "SG kink energy 16 m^2/g; CLI prints 64; quadrature to 1e-9",
                ok, t0, 1.0)


def test_criterion_02_periodic_kink_limit(capsys):
    t0 = time.time()
    spec = models.ModelSpec(family="sg", m=2.0, g=1.0)
    e_p = models.closed_form_energy(models.periodic_solution(spec, k=0.999))
    e_k = 16.0 * spec.m ** 2 / spec.g
    ok = abs(e_p / e_k - 1.0) < 5e-3
    with capsys.disabled():
        _report(2, "SG periodic energy at k=0.999 within 0.5% of the kink",
                ok, t0, 1.0)


def test_criterion_03_hermit_residuals(capsys):
    t0 = time.time()
    cases = [(CaseTag.A, None), (CaseTag.B, 0.3), (CaseTag.B, 0.6),
             (CaseTag.B, 0.9), (CaseTag.C, None), (CaseTag.D, 0.3),
             (CaseTag.D, 0.6), (CaseTag.D, 0.9), (CaseTag.NAHM, None)]
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case, k in cases:
        rp = build_resolvent(case, 1.0, k=k)
        for _ in range(50):
            p = complex(rng.uniform(-5, 5),
                        rng.uniform(0.4, 3.0) * rng.choice([-1.0, 1.0]))
            x = rng.uniform(-2.0, 2.0)
            worst = max(worst, hermit_residual(rp, p, x))
    ok = worst < 1e-9
    with capsys.disabled():
        _report(3, f"bilinear-identity residual < 1e-9 (worst {worst:.1e})",
                ok, t0, 5.0)


def test_criterion_04_band_edge_oracle(capsys):
    t0 = time.time()
    ok = True
    for case in (CaseTag.B, CaseTag.D):
        for k in (0.3, 0.5, 0.8):
            rp = build_resolvent(case, 1.0, k=k)
            spec = oracle.LatticeSpec(0.0, rp.period, 700, "periodic",
                                      lambda x: rp.u_of_x(x))
            lat = oracle.band_edges_lattice(spec, len(rp.roots))
            pred = np.sort([-r for r in rp.roots])
            rel = np.abs(lat - pred) / np.maximum(1.0, np.abs(pred))
            ok &= bool(np.all(rel < 2e-3))
            if case is CaseTag.D:
                top = 2.0 * math.sqrt(1 - k * k + k ** 4) - 1.0 - k * k
                ok &= rp.roots[-1] == pytest.approx(top, rel=1e-10)
                ok &= top > 0.0 and lat[0] == pytest.approx(-top, abs=2e-3)
    with capsys.disabled():
        _report(4, "lattice Bloch edges = -roots(Q) to 2e-3 (B, D), "
                   "positive top root confirmed", ok, t0, 60.0)


def test_criterion_05_erf_trace_triangle(capsys):
    t0 = time.time()
    b = 1.0
    rp = build_resolvent(CaseTag.A, b)
    box = 20.0
    lat = oracle.LatticeSpec(-box, box, 4000, "dirichlet",
                             lambda x: b * b - 2 * b * b / np.cosh(b * x) ** 2)
    ok = True
    for t in (0.5, 1.0, 2.0):
        closed = math.erf(b * math.sqrt(t))
        inverted = invert_laplace_gamma(rp, t).total
        lattice = oracle.relative_heat_trace(lat, b * b, t)
        ok &= abs(closed - inverted) < 1e-8
        ok &= abs(closed - lattice) < 5e-3
        ok &= abs(inverted - lattice) < 5e-3
    with capsys.disabled():
        _report(5, "erf trace: closed vs inversion 1e-8, vs lattice 5e-3",
                ok, t0, 60.0)


def test_criterion_06_zeta_closed_form(capsys):
    t0 = time.time()
    ok = abs(zetareg.zeta_kink_1d(0.0, 1.0) - (-1.0)) < 1e-12
    ok &= abs(zetareg.zeta_kink_1d(1.0, 1.0) - (-0.5)) < 1e-12
    tr = zetareg.erf_heat_trace(1.0)
    for s in (0.1, 0.3, 0.45):
        ok &= abs(zetareg.mellin_zeta(tr, s).value
                  - zetareg.zeta_kink_1d(s, 1.0)) < 1e-7
    with capsys.disabled():
        _report(6, "zeta(0) = -1, zeta(1) = -1/2; Mellin matches to 1e-7",
                ok, t0, 5.0)


def test_criterion_07_method_triangle(capsys):
    t0 = time.time()
    rp = build_resolvent(CaseTag.A, 1.0)
    tr = zetareg.erf_heat_trace(1.0)
    ok = True
    for s in (0.1, 0.2, 0.25, 0.3, 0.4):
        closed = zetareg.zeta_kink_1d(s, 1.0)
        mellin = zetareg.mellin_zeta(tr, s).value
        contour = zetareg.zeta_contour(rp, s).value
        ok &= abs(closed - mellin) < 1e-6
        ok &= abs(closed - contour) < 1e-6
        ok &= abs(mellin - contour) < 1e-6
    with capsys.disabled():
        _report(7, "closed/Mellin/contour triangle < 1e-6 on 5 s-points",
                ok, t0, 30.0)


def test_criterion_08_figure_z(capsys):
    t0 = time.time()
    code, out = run_cli(capsys, "figure-z", "--m-min", "0.2", "--m-max", "3.0",
                        "--n", "41", "--d", "1,2,3")
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    ok = code == 0 and len(rows) == 41 * 3
    curves = {1: [], 2: [], 3: []}
    for r in rows:
        m, d = float(r[0]), int(r[1])
        dz = float(r[header.index("dzeta_ds_at_0")])
        ok &= math.isfinite(dz)
        curves[d].append((m, dz))
        if d == 1:
            ok &= abs(dz - 2.0 * math.log(2.0 * m)) < 1e-7
    for d, pts in curves.items():
        diffs = [abs(b[1] - a[1]) for a, b in zip(pts, pts[1:])]
        ok &= max(diffs) < 1.0  # no jumps: smooth on the grid scale
    with capsys.disabled():
        _report(8, "figure-z: NaN-free smooth curves d=1,2,3; d=1 matches "
                   "the symbolic derivative to 1e-7", ok, t0, 30.0)


def test_criterion_09_nahm_pipeline(capsys):
    t0 = time.time()
    rp = build_resolvent(CaseTag.NAHM, 1.0)
    rec = np.poly(rp.roots)[::-1]
    ok = bool(np.allclose(rec, rp.q_coeffs, atol=1e-10 * 108.0))
    ev = zetareg.zeta_contour(rp, 0.25)
    ok &= ev.err_estimate < 1e-6
    # K(i), E(i) are the complete integrals at parameter m = k^2 = -1
    ki, ei = models._KE_IMAG
    ok &= abs(ki - float(mp.ellipk(-1))) < 1e-12
    ok &= abs(ei - float(mp.ellipe(-1))) < 1e-12
    with capsys.disabled():
        _report(9, "Nahm: Q from roots 1e-10; contour zeta(0.25) "
                   "self-converges 1e-6; K(i), E(i) match mpmath to 1e-12",
                ok, t0, 30.0)


def test_criterion_10_special_function_suite(capsys):
    t0 = time.time()
    ok = True
    # Legendre relation
    for k in np.arange(0.1, 0.95, 0.1):
        kp = math.sqrt(1 - k * k)
        (K, E), (Kp, Ep) = specfun.ellipke(k), specfun.ellipke(kp)
        lhs = E * Kp + Ep * K - K * Kp
        ok &= abs(lhs - math.pi / 2.0) < 1e-12
    # Jacobi identities
    rng = np.random.default_rng(77)
    for _ in range(200):
        k = rng.uniform(0.05, 0.95)
        u = rng.uniform(-4, 4) * specfun.ellipk(k)
        sn, cn, dn = specfun.jacobi_sn_cn_dn(u, k)
        ok &= abs(sn * sn + cn * cn - 1.0) < 1e-12
        ok &= abs(dn * dn + k * k * sn * sn - 1.0) < 1e-12
    # Weierstrass ODE residual at 100 random points
    # the lattice of g2 = 3.1, g3 = 0.4, from the roots of its cubic
    e1, e2, e3 = sorted(np.roots([4.0, 0.0, -3.1, -0.4]).real, reverse=True)
    params = specfun.weierstrass_params(math.sqrt((e2 - e3) / (e1 - e3)), e1 - e3)
    h = 1e-4
    count = 0
    while count < 100:
        z = complex(rng.uniform(0.1, 2 * params.omega - 0.1),
                    rng.uniform(0.1, params.omega_imag - 0.1))
        try:
            wp = specfun.weierstrass_p(z, params)
            d1 = (specfun.weierstrass_p(z - 2 * h, params)
                  - 8 * specfun.weierstrass_p(z - h, params)
                  + 8 * specfun.weierstrass_p(z + h, params)
                  - specfun.weierstrass_p(z + 2 * h, params)) / (12 * h)
        except Exception:
            continue
        if abs(wp) > 50:
            continue
        resid = d1 * d1 - 4 * wp ** 3 + params.g2 * wp + params.g3
        ok &= abs(resid) < 1e-8 * max(1.0, abs(wp) ** 3)
        count += 1
    # Gamma recurrence
    for _ in range(100):
        s = complex(rng.uniform(0.1, 5.0), rng.uniform(-2, 2))
        ok &= abs(specfun.gamma_fn(s + 1) - s * specfun.gamma_fn(s)) \
            < 1e-12 * abs(specfun.gamma_fn(s + 1))
    with capsys.disabled():
        _report(10, "Legendre, Jacobi identities, Weierstrass ODE, Gamma "
                    "recurrence within tolerances", ok, t0, 5.0)


def test_criterion_11_ba_cross_check(capsys):
    t0 = time.time()
    k = 0.6
    ok = True
    # Lame residual
    sol = ba.make_lame_solution(0.7, k)
    fd = 1e-3
    for x in np.linspace(0.2, 2.0, 10):
        psi = sol.psi_plus
        d2 = (-psi(x + 2 * fd) + 16 * psi(x + fd) - 30 * psi(x)
              + 16 * psi(x - fd) - psi(x - 2 * fd)) / (12 * fd * fd)
        _, cn, _ = specfun.jacobi_sn_cn_dn(x, k)
        resid = abs(-d2 + (2 * k * k - 2 * k * k * cn * cn) * psi(x)
                    - sol.h * psi(x))
        ok &= resid < 1e-7
    # Green diagonal vs resolvent at 10 pairs
    rp = build_resolvent(CaseTag.B, 1.0, k=k)
    pairs = [(0.3, 1.1), (0.9, 1.2), (1.7, 1.3), (2.4, 1.05), (0.5, 1.3),
             (0.3, 0.15), (0.9, 0.2), (1.7, 0.1), (2.4, 0.25), (0.5, 0.3)]
    for x, h in pairs:
        ok &= abs(ba.green_diag(x, h, k) - rp.green_diag(1.0 - h, x)) < 1e-6
    # jump normalization
    x0, eps = 0.83, 0.01
    def g(x):
        return ba.green_offdiag(x, x0, 1.15, k)
    def one_sided(sgn):
        pts = [g(x0 + sgn * j * eps) for j in range(5)]
        return sgn * (-25 * pts[0] + 48 * pts[1] - 36 * pts[2]
                      + 16 * pts[3] - 3 * pts[4]) / (12 * eps)
    jump = one_sided(+1) - one_sided(-1)
    ok &= abs(jump.real + 1.0) < 1e-6 and abs(jump.imag) < 1e-8
    with capsys.disabled():
        _report(11, "BA: Lame residual 1e-7, Green diagonal = resolvent "
                    "1e-6 at 10 pairs, jump -1 to 1e-6", ok, t0, 30.0)
