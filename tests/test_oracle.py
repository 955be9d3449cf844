"""Lattice spectral oracle: reference wells, Bloch edges, heat traces."""

import math

import mpmath as mp
import numpy as np
import pytest

from kinkzeta import oracle
from kinkzeta.errors import ConvergenceError, DomainError
from kinkzeta.resolvent import CaseTag, build_resolvent


def sech2(x):
    return 1.0 / np.cosh(x) ** 2


def period_spec(case, k, n):
    """One period of the case at b = 1 on n points, and its number of edges."""
    rp = build_resolvent(case, 1.0, k=k)
    return oracle.LatticeSpec(0.0, rp.period, n, "periodic", rp.u_of_x), len(rp.roots)


def dense_edges(spec):
    """Reference edges: the theta = 0 and pi rings solved densely as real
    symmetric matrices, both spectra sorted together."""
    n = spec.n
    hop = -1.0 / spec.h ** 2
    spectra = []
    for cos_theta in (1.0, -1.0):
        H = np.diag(spec.diagonal) + hop * (np.eye(n, k=1) + np.eye(n, k=-1))
        H[0, n - 1] = H[n - 1, 0] = cos_theta * hop
        spectra.append(np.linalg.eigvalsh(H))
    return np.sort(np.concatenate(spectra))


def edge_bar(spec):
    """1e-13 (4/h^2 + max|u|), the accuracy asked of every edge."""
    return 1e-13 * (4.0 / spec.h ** 2 + np.max(np.abs(spec.diagonal - 2.0 / spec.h ** 2)))


class TestEigenvalues:
    def test_single_level_well(self):
        spec = oracle.LatticeSpec(-20, 20, 4000, "dirichlet",
                                  lambda x: -2.0 * sech2(x))
        lam = oracle.eigenvalues(spec, count=1)
        assert lam[0] == pytest.approx(-1.0, abs=2e-3)

    def test_two_level_well(self):
        spec = oracle.LatticeSpec(-20, 20, 4000, "dirichlet",
                                  lambda x: -6.0 * sech2(x))
        lam = oracle.eigenvalues(spec, count=2)
        assert lam[0] == pytest.approx(-4.0, abs=5e-3)
        assert lam[1] == pytest.approx(-1.0, abs=5e-3)

    def test_free_periodic_spectrum(self):
        spec = oracle.LatticeSpec(0.0, 2.0 * math.pi, 2000, "periodic",
                                  lambda x: 0.0)
        lam = oracle.bloch_eigenvalues(spec, 0.0)[:5]
        assert np.allclose(lam, [0.0, 1.0, 1.0, 4.0, 4.0], atol=1e-3)

    def test_requires_dirichlet(self):
        spec = oracle.LatticeSpec(0.0, 1.0, 16, "periodic", lambda x: 0.0)
        with pytest.raises(DomainError, match="Dirichlet"):
            oracle.eigenvalues(spec)

    @pytest.mark.parametrize("count", [0, -3, 2.5, "4"])
    def test_count_must_be_a_positive_integer(self, count):
        spec = oracle.LatticeSpec(-1.0, 1.0, 16, "dirichlet", lambda x: 0.0)
        with pytest.raises(DomainError, match="count"):
            oracle.eigenvalues(spec, count)

    def test_count_selects_the_lowest(self):
        spec = oracle.LatticeSpec(-5.0, 5.0, 64, "dirichlet", sech2)
        full = oracle.eigenvalues(spec)
        assert np.allclose(oracle.eigenvalues(spec, 3), full[:3], rtol=0, atol=1e-12)
        assert np.array_equal(oracle.eigenvalues(spec, 62), full)
        assert np.array_equal(oracle.eigenvalues(spec, np.int64(100)), full)

    def test_richardson_convergence(self):
        # second-order scheme: doubling n cuts the error about fourfold
        def err(n):
            spec = oracle.LatticeSpec(-20, 20, n, "dirichlet",
                                      lambda x: -2.0 * sech2(x))
            return abs(oracle.eigenvalues(spec, count=1)[0] + 1.0)
        ratio = err(1000) / err(2000)
        assert 3.0 < ratio < 5.0

    def test_geometry_validation(self):
        with pytest.raises(DomainError):
            oracle.LatticeSpec(1.0, 0.0, 100, "dirichlet", lambda x: 0.0)
        with pytest.raises(DomainError):
            oracle.LatticeSpec(0.0, 1.0, 100, "reflecting", lambda x: 0.0)

    @pytest.mark.parametrize("x_min, x_max", [
        (math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf)])
    def test_bounds_must_be_finite(self, x_min, x_max):
        with pytest.raises(DomainError):
            oracle.LatticeSpec(x_min, x_max, 100, "periodic", lambda x: 0.0)

    @pytest.mark.parametrize("n", [900.0, 64.5, "64"])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(DomainError, match="integer"):
            oracle.LatticeSpec(0.0, 7.0, n, "periodic", lambda x: 0.0)

    def test_numpy_integer_n(self):
        spec = oracle.LatticeSpec(0.0, 7.0, np.int64(64), "periodic", lambda x: 0.0)
        assert type(spec.n) is int and spec.n == 64
        assert len(oracle.band_edges_lattice(spec, 3)) == 3


class TestSampling:
    @pytest.mark.parametrize("case, k, bc", [
        (CaseTag.A, None, "dirichlet"), (CaseTag.C, None, "dirichlet"),
        (CaseTag.B, 0.5, "periodic"), (CaseTag.D, 0.9, "periodic"),
        (CaseTag.NAHM, None, "periodic")])
    def test_diagonal_matches_pointwise_potential(self, case, k, bc):
        # one array call against per-point scalar calls: a few ulps of u
        rp = build_resolvent(case, 1.3, k=k)
        x_max = 20.0 / rp.b if rp.is_kink else rp.period
        x_min = -x_max if rp.is_kink else 0.0
        spec = oracle.LatticeSpec(x_min, x_max, 500, bc, rp.u_of_x)
        x = spec.grid()[1:-1] if bc == "dirichlet" else spec.grid()
        want = np.array([rp.u_of_x(float(xi)) for xi in x])
        got = rp.u_of_x(x)
        assert np.array_equal(spec.diagonal, 2.0 / spec.h ** 2 + got)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 16.0 * np.finfo(float).eps * scale

    def test_fewer_than_eight_points_is_a_domain_error(self):
        with pytest.raises(DomainError, match="n too small"):
            oracle.LatticeSpec(-1.0, 1.0, 7, "dirichlet", lambda x: 0.0)

    def test_constant_potential_broadcasts(self):
        spec = oracle.LatticeSpec(0.0, 1.0, 16, "periodic", lambda x: 2.5)
        assert spec.diagonal.shape == (16,)
        assert np.all(spec.diagonal == 2.0 / spec.h ** 2 + 2.5)

    @pytest.mark.parametrize("u", [lambda x: x[:-1], lambda x: np.ones((2, 1))])
    def test_result_off_the_grid_is_a_domain_error(self, u):
        spec = oracle.LatticeSpec(0.0, 1.0, 16, "periodic", u)
        with pytest.raises(DomainError, match="grid points"):
            spec.diagonal

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("bc, solve", [
        ("periodic", lambda spec: oracle.band_edges_lattice(spec, 3)),
        ("dirichlet", oracle.eigenvalues),
        ("periodic", lambda spec: oracle.lattice_heat_trace(spec, 1.0)),
        ("dirichlet", lambda spec: oracle.relative_heat_trace(spec, 1.0, 1.0))],
        ids=["band_edges_lattice", "eigenvalues", "lattice_heat_trace",
             "relative_heat_trace"])
    def test_sample_not_finite_is_a_domain_error(self, bc, solve, bad):
        # one bad sample in the middle of the grid, where every solve reads it
        spec = oracle.LatticeSpec(-4.0, 4.0, 64, bc,
                                  lambda x: np.where(np.abs(x) < 0.07, bad, 0.0))
        with pytest.raises(DomainError, match="not finite"):
            solve(spec)


class TestRelativeTrace:
    def make_pair(self, b=1.0, n=3000):
        u = lambda x: b * b - 2.0 * b * b * sech2(b * x)
        box = 20.0 / b
        return oracle.LatticeSpec(-box, box, n, "dirichlet", u), b * b

    def test_case_a_matches_erf(self):
        spec, nu = self.make_pair()
        for t in (0.5, 1.0, 2.0):
            got = oracle.relative_heat_trace(spec, nu, t)
            assert got == pytest.approx(math.erf(math.sqrt(t)), abs=2e-3)

    def test_long_time_counts_bound_states(self):
        spec, nu = self.make_pair()
        assert oracle.relative_heat_trace(spec, nu, 30.0) == pytest.approx(
            1.0, abs=5e-3)

    @pytest.mark.parametrize("t", [100.000001, 1e5, 1e300])
    def test_time_past_the_box_bound_is_a_domain_error(self, t):
        # box length 40: the bound is (40 / 4)^2 = 100
        spec, nu = self.make_pair(n=120)
        assert math.isfinite(oracle.relative_heat_trace(spec, nu, 100.0))
        with pytest.raises(DomainError, match="box length"):
            oracle.relative_heat_trace(spec, nu, t)

    def test_overflowing_sum_raises(self):
        well = oracle.LatticeSpec(-20.0, 20.0, 64, "dirichlet", lambda x: -1e4)
        with pytest.raises(ConvergenceError):
            oracle.relative_heat_trace(well, 0.0, 100.0)

    def test_identical_potentials_vanish(self):
        # a flat box u = nu against its closed-form spectrum
        flat = oracle.LatticeSpec(-20.0, 20.0, 3000, "dirichlet", lambda x: 1.0)
        assert abs(oracle.relative_heat_trace(flat, 1.0, 1.0)) < 1e-9

    def test_requires_dirichlet(self):
        spec = oracle.LatticeSpec(-20.0, 20.0, 64, "periodic", lambda x: 1.0)
        with pytest.raises(DomainError, match="Dirichlet"):
            oracle.relative_heat_trace(spec, 1.0, 1.0)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
    def test_background_must_be_finite(self, nu):
        spec, _ = self.make_pair(n=64)
        with pytest.raises(DomainError, match="finite nu"):
            oracle.relative_heat_trace(spec, nu, 1.0)

    def test_matches_laplace_inversion(self):
        from kinkzeta.resolvent import invert_laplace_gamma
        rp = build_resolvent(CaseTag.A, 1.0)
        spec, nu = self.make_pair()
        for t in (0.5, 1.0, 2.0):
            lat = oracle.relative_heat_trace(spec, nu, t)
            inv = invert_laplace_gamma(rp, t).total
            assert lat == pytest.approx(inv, abs=5e-3)


class TestBandEdges:
    def lattice_edges(self, case, k, n=700):
        rp = build_resolvent(case, 1.0, k=k)
        spec = oracle.LatticeSpec(0.0, rp.period, n, "periodic",
                                  lambda x: rp.u_of_x(x))
        return oracle.band_edges_lattice(spec, len(rp.roots)), rp

    def test_case_b_half(self):
        edges, rp = self.lattice_edges(CaseTag.B, 0.5)
        assert np.allclose(edges, [-0.75, 0.0, 0.25], atol=1e-3)
        assert np.allclose(edges, sorted(-r for r in rp.roots), atol=1e-3)

    def test_case_d_half(self):
        edges, rp = self.lattice_edges(CaseTag.D, 0.5)
        predicted = sorted(-r for r in rp.roots)
        assert np.allclose(edges, predicted, atol=2e-3)

    def test_nahm(self):
        edges, rp = self.lattice_edges(CaseTag.NAHM, None)
        predicted = sorted(-r for r in rp.roots)
        assert np.allclose(edges, predicted, atol=2e-3)

    def test_tight_equivalence_across_moduli(self):
        # 1e-4 relative agreement between -roots(Q) and the Bloch edges
        for case in (CaseTag.B, CaseTag.D):
            for k in (0.3, 0.6, 0.9):
                edges, rp = self.lattice_edges(case, k, n=800)
                pred = np.sort([-r for r in rp.roots])
                rel = np.abs(edges - pred) / np.maximum(1.0, np.abs(pred))
                assert np.max(rel) < 1e-4

    def test_small_k_limit_is_free(self):
        # case B at k -> 0 is nearly the constant b^2 (2k^2 - 1); edges
        # collapse onto the folded free spectrum (j pi / L)^2 + const
        k = 0.02
        rp = build_resolvent(CaseTag.B, 1.0, k=k)
        spec = oracle.LatticeSpec(0.0, rp.period, 900, "periodic",
                                  lambda x: rp.u_of_x(x))
        edges = oracle.band_edges_lattice(spec, 5)
        L = rp.period
        c0 = 2.0 * k * k - 1.0 - k * k  # spatial mean of u
        free = sorted([c0,
                       (math.pi / L) ** 2 + c0, (math.pi / L) ** 2 + c0,
                       (2 * math.pi / L) ** 2 + c0,
                       (2 * math.pi / L) ** 2 + c0])
        assert np.allclose(edges, free, atol=2e-3)

    @pytest.mark.parametrize("n", [64, 65, 900])
    @pytest.mark.parametrize("c", [0.0, 2.5, -3.0])
    def test_closed_gaps_of_a_constant_potential(self, n, c):
        # every gap is closed: each edge is an end of its bracket (deflation)
        spec = oracle.LatticeSpec(0.0, 3.7, n, "periodic", lambda x: c)
        j = np.arange(n)
        four = 4.0 / spec.h ** 2
        want = np.sort(np.concatenate([c + four * np.sin(math.pi * j / n) ** 2,
                                       c + four * np.sin(math.pi * (j + 0.5) / n) ** 2]))
        got = oracle.band_edges_lattice(spec, 9)
        assert np.max(np.abs(got - want[:9])) <= edge_bar(spec)

    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("n_edges", [None, 7])
    @pytest.mark.parametrize("case, k", [
        (CaseTag.B, 0.02), (CaseTag.B, 0.5), (CaseTag.B, 0.99),
        (CaseTag.D, 0.02), (CaseTag.D, 0.3), (CaseTag.D, 0.99),
        (CaseTag.NAHM, None)])
    def test_matches_dense_rings(self, case, k, n, n_edges):
        spec, n_roots = period_spec(case, k, n)
        m = n_roots if n_edges is None else n_edges
        got = oracle.band_edges_lattice(spec, m)
        assert np.max(np.abs(got - dense_edges(spec)[:m])) <= edge_bar(spec)

    def test_matches_dense_rings_at_workload_size(self):
        # the workload case farthest off; the two banded eigensolves were
        # 6.0e-9 off here
        spec, m = period_spec(CaseTag.B, 0.3, 900)
        got = oracle.band_edges_lattice(spec, m)
        assert np.max(np.abs(got - dense_edges(spec)[:m])) <= 1e-9

    @pytest.mark.parametrize("spec", [
        period_spec(CaseTag.D, 0.99, 8)[0], period_spec(CaseTag.D, 0.99, 65)[0],
        # bands 1e-12 wide: brackets narrower than the tolerance
        oracle.LatticeSpec(0.0, 4.0, 64, "periodic",
                           lambda x: 1e4 * np.cos(math.pi * x) ** 2)],
        ids=["d-0.99-8", "d-0.99-65", "barriers-64"])
    def test_every_edge(self, spec):
        got = oracle.band_edges_lattice(spec, spec.n)
        assert np.max(np.abs(got - dense_edges(spec)[:spec.n])) <= edge_bar(spec)

    @pytest.mark.parametrize("n_edges", [-1, 0, 65, 2.5])
    def test_edge_count_outside_the_lattice(self, n_edges):
        spec = oracle.LatticeSpec(0.0, 1.0, 64, "periodic", lambda x: 0.0)
        with pytest.raises(DomainError, match="n_edges"):
            oracle.band_edges_lattice(spec, n_edges)

    def test_requires_periodic(self):
        spec = oracle.LatticeSpec(0.0, 1.0, 16, "dirichlet", lambda x: 0.0)
        with pytest.raises(DomainError, match="periodic"):
            oracle.band_edges_lattice(spec, 3)

    def test_no_bloch_eigensolve(self, monkeypatch):
        rp = build_resolvent(CaseTag.D, 1.0, k=0.5)
        spec = oracle.LatticeSpec(0.0, rp.period, 64, "periodic", rp.u_of_x)
        thetas = []
        solve = oracle.bloch_eigenvalues

        def counted(spec, theta):
            thetas.append(theta)
            return solve(spec, theta)

        monkeypatch.setattr(oracle, "bloch_eigenvalues", counted)
        oracle.band_edges_lattice(spec, len(rp.roots))
        assert thetas == []

    def test_closed_gap_edge_takes_one_solve(self, monkeypatch):
        # every edge but the lowest is an end of its bracket (deflation)
        spec = oracle.LatticeSpec(0.0, 3.7, 64, "periodic", lambda x: 2.5)
        solves = []
        solve = oracle.dgtsv

        def counted(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(oracle, "dgtsv", counted)
        oracle.band_edges_lattice(spec, 1)
        lowest = len(solves)
        oracle.band_edges_lattice(spec, 9)
        assert len(solves) - 2 * lowest == 8

    def test_solve_cap_raises(self, monkeypatch):
        rp = build_resolvent(CaseTag.B, 1.0, k=0.5)
        spec = oracle.LatticeSpec(0.0, rp.period, 64, "periodic", rp.u_of_x)
        monkeypatch.setattr(oracle, "_MAX_EDGE_SOLVES", 2)
        with pytest.raises(ConvergenceError, match="not converged"):
            oracle.band_edges_lattice(spec, 3)


def model_roots(x, f, fp, p, r):
    """The two roots lambda of the pole step's model g + g' (lambda - x) -
    r / (p - lambda), g and g' as _pole_step forms them, at 40 digits."""
    with mp.workdps(40):
        x, f, fp, p, r = map(mp.mpf, (x, f, fp, p, r))
        dist = p - x
        g = f + r / dist
        gp = min(fp + r / dist ** 2, mp.mpf(-1))
        a = g + gp * dist
        # y = p - lambda solves g' y^2 - a y + r = 0
        disc = mp.sqrt(a * a - 4 * gp * r)
        return [p - (a + sign * disc) / (2 * gp) for sign in (1, -1)], a


# (x, f, fp, p, r) and the sign of the model's a, by the signs of dist =
# p - x and of a.  a = g + g' dist is -0.0 only if both terms are, and
# g' dist is never zero, so a = +0.0 is the only zero
POLE_STEPS = {
    "dist+a+": (0.0, 3.0, -2.0, 1.0, 0.5, 1),
    "dist+a-": (0.0, -1.0, -2.0, 1.0, 0.5, -1),
    "dist-a+": (2.0, 2.0, -2.0, 1.0, 0.5, 1),
    "dist-a-": (2.0, -3.0, -2.0, 1.0, 0.5, -1),
    "dist+a0": (0.0, 1.0, -3.0, 1.0, 1.0, 0),
    "dist-a0": (0.0, -1.0, -3.0, -1.0, 1.0, 0),
    "slope-clamped": (0.0, 0.3, -1.0, 1.0, 0.5, -1),
    "distant-pole": (-3.7, 1e-9, -1.25, 40.0, 1e-7, -1),
}


class TestPoleStep:
    """_pole_step against the model's two roots: the one on x's side of p."""

    @pytest.mark.parametrize("x, f, fp, p, r, sign", POLE_STEPS.values(), ids=POLE_STEPS)
    def test_root_on_the_side_of_x(self, x, f, fp, p, r, sign):
        roots, a = model_roots(x, f, fp, p, r)
        assert mp.sign(a) == sign
        [want] = [lam for lam in roots if (lam < p) == (x < p)]
        got = oracle._pole_step(x, f, fp, p, r)
        assert (got < p) == (x < p)
        assert abs(got - want) <= 4.0 * np.finfo(float).eps * (abs(p) + abs(p - want))

    def test_sample_of_the_four_sign_cases(self):
        rng = np.random.default_rng(7)
        cases = set()
        for _ in range(400):
            x = rng.uniform(-50.0, 50.0)
            p = x + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 1.0)
            fp = -(10.0 ** rng.uniform(0.0, 4.0))
            r = 10.0 ** rng.uniform(-8.0, 2.0)
            f = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, 3.0)
            roots, a = model_roots(x, f, fp, p, r)
            [want] = [lam for lam in roots if (lam < p) == (x < p)]
            got = oracle._pole_step(x, f, fp, p, r)
            cases.add((p > x, a >= 0))
            assert abs(got - want) <= 4.0 * np.finfo(float).eps * (abs(p) + abs(p - want))
        assert len(cases) == 4

    def test_pole_at_x_takes_newton(self):
        # dist == 0: no model is fitted, x - f/f' is returned
        assert oracle._pole_step(1.5, 2.0, -4.0, 1.5, 0.25) == 2.0


def dense_bloch(spec, theta):
    """Reference: the full complex Hermitian Bloch matrix on the natural
    ring order, solved densely."""
    h, n = spec.h, spec.n
    H = np.zeros((n, n), dtype=complex)
    idx = np.arange(n)
    H[idx, idx] = 2.0 / h ** 2 + np.array([spec.u(x) for x in spec.grid()])
    H[idx[:-1], idx[:-1] + 1] = -1.0 / h ** 2
    H[idx[:-1] + 1, idx[:-1]] = -1.0 / h ** 2
    H[0, n - 1] = -np.exp(-1j * theta) / h ** 2
    H[n - 1, 0] = -np.exp(1j * theta) / h ** 2
    return np.linalg.eigvalsh(H)


def full_product_band_roots(a, b, j, theta, x):
    """Reference: band j's root at each phase by Newton's method from x on
    the phase 2 atan(e^{G/2}) of the full product, G = log|prod_k (lambda -
    a_k)/(lambda - b_k)| over every k, one band at a time, with the bracket
    guard and stopping test of lattice_heat_trace."""
    rising = b[j] > a[j]
    L = np.full_like(x, min(a[j], b[j]))
    H = np.full_like(x, max(a[j], b[j]))
    tol = 1e-12 * (H[0] - L[0]) + 4e-15 * max(abs(L[0]), abs(H[0]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(100):
            r = x[:, None] - a
            q = x[:, None] - b
            e = np.exp(0.5 * np.log(np.abs(r / q)).sum(axis=1))
            miss = 2.0 * np.arctan(e) - theta
            step = miss * (e + 1.0 / e) / (1.0 / r - 1.0 / q).sum(axis=1)
            above = (miss < 0.0) == rising
            L = np.where(above, x, L)
            H = np.where(above, H, x)
            if np.all(np.abs(step) <= tol):
                return np.clip(x - step, L, H)
            x = x - step
            x = np.where((x >= L) & (x <= H), x, 0.5 * (L + H))
    raise AssertionError(f"reference band {j} not converged")


def full_product_trace(a, b, m, theta, t):
    """Reference: the phase-averaged trace of bands 0..m-1, band by band on
    the full product."""
    sin2 = np.sin(0.5 * theta) ** 2
    acc = 0.0
    for j in range(m):
        lam = full_product_band_roots(a, b, j, theta, a[j] + (b[j] - a[j]) * sin2)
        acc += float(np.sum(np.exp(-lam * t)))
    return acc / theta.size


def full_phase(a, b, lam):
    """2 atan(|prod_k (lambda - a_k)/(lambda - b_k)|^{1/2}) over every k."""
    with np.errstate(divide="ignore"):
        g = np.log(np.abs((lam[..., None] - a) / (lam[..., None] - b))).sum(axis=-1)
    return 2.0 * np.arctan(np.exp(0.5 * g))


def record_roots(monkeypatch):
    """Record the (a, b, m, theta) and the roots of every joint solve."""
    calls = []
    solve = oracle._phase_roots

    def recorded(a, b, m, theta):
        roots = solve(a, b, m, theta)
        calls.append((a, b, m, theta, roots))
        return roots

    monkeypatch.setattr(oracle, "_phase_roots", recorded)
    return calls


class TestBlochEigenvalues:
    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("theta", [0.0, math.pi, 0.7, 2.9])
    def test_banded_matches_dense(self, n, theta):
        rp = build_resolvent(CaseTag.D, 1.0, k=0.6)
        spec = oracle.LatticeSpec(0.0, rp.period, n, "periodic", rp.u_of_x)
        ref = dense_bloch(spec, theta)
        tol = 1e-9 * np.max(np.abs(ref))
        full = oracle.bloch_eigenvalues(spec, theta)
        assert full.shape == (n,)
        assert np.max(np.abs(full - ref)) < tol

    def test_requires_periodic(self):
        spec = oracle.LatticeSpec(0.0, 1.0, 16, "dirichlet", lambda x: 0.0)
        with pytest.raises(DomainError):
            oracle.bloch_eigenvalues(spec, 0.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_theta_must_be_finite(self, theta):
        spec = oracle.LatticeSpec(0.0, 1.0, 16, "periodic", lambda x: 0.0)
        with pytest.raises(DomainError):
            oracle.bloch_eigenvalues(spec, theta)


class TestLatticeHeatTrace:
    def test_case_d_matches_laplace_inversion(self):
        from kinkzeta.resolvent import invert_laplace_gamma
        rp = build_resolvent(CaseTag.D, 1.0, k=0.5)
        spec = oracle.LatticeSpec(0.0, rp.period, 360, "periodic", rp.u_of_x)
        for t in (0.5, 2.0):
            want = invert_laplace_gamma(rp, t).total
            got = oracle.lattice_heat_trace(spec, t)
            assert got == pytest.approx(want, rel=5e-3)

    def test_case_d_small_k_matches_laplace_inversion(self):
        # at k = 0.01 the two top edges lie 7.5e-9 apart; the inversion
        # keeps the narrow gap between them
        from kinkzeta.resolvent import invert_laplace_gamma
        rp = build_resolvent(CaseTag.D, 1.0, k=0.01)
        spec = oracle.LatticeSpec(0.0, rp.period, 1200, "periodic", rp.u_of_x)
        for t in (0.5, 2.0):
            want = invert_laplace_gamma(rp, t).total
            got = oracle.lattice_heat_trace(spec, t)
            assert got == pytest.approx(want, rel=2e-6)

    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("case, k", [
        (CaseTag.B, 0.5), (CaseTag.D, 0.6), (CaseTag.D, 0.99),
        (CaseTag.NAHM, None)])
    def test_matches_dense_phase_sum(self, case, k, n):
        # the reference solves every phase in full; the trace solves only
        # theta = 0 and pi and finds the kept bands' roots in between
        rp = build_resolvent(case, 1.0, k=k)
        spec = oracle.LatticeSpec(0.0, rp.period, n, "periodic", rp.u_of_x)
        thetas = (np.arange(32) + 0.5) * math.pi / 32
        spectra = [dense_bloch(spec, th) for th in thetas]
        for t in (0.25, 2.0):
            want = np.mean([np.sum(np.exp(-lam * t)) for lam in spectra])
            got = oracle.lattice_heat_trace(spec, t)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("case, k", [(CaseTag.B, 0.9), (CaseTag.D, 0.5)])
    def test_matches_banded_phase_sum_at_workload_size(self, case, k):
        rp = build_resolvent(case, 1.0, k=k)
        spec = oracle.LatticeSpec(0.0, rp.period, 360, "periodic", rp.u_of_x)
        thetas = (np.arange(32) + 0.5) * math.pi / 32
        spectra = [oracle.bloch_eigenvalues(spec, th) for th in thetas]
        for t in (0.25, 2.0):
            want = np.mean([np.sum(np.exp(-lam * t)) for lam in spectra])
            got = oracle.lattice_heat_trace(spec, t)
            assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("n_theta", [1, 7, 32, 200])
    def test_two_eigensolves_for_any_phase_count(self, monkeypatch, n_theta):
        rp = build_resolvent(CaseTag.D, 1.0, k=0.5)
        spec = oracle.LatticeSpec(0.0, rp.period, 64, "periodic", rp.u_of_x)
        thetas = []
        solve = oracle.bloch_eigenvalues

        def counted(spec, theta):
            thetas.append(theta)
            return solve(spec, theta)

        monkeypatch.setattr(oracle, "bloch_eigenvalues", counted)
        monkeypatch.setattr(oracle, "_N_THETA", n_theta)
        oracle.lattice_heat_trace(spec, 1.0)
        assert thetas == [0.0, math.pi]

    def test_newton_cap_raises(self, monkeypatch):
        rp = build_resolvent(CaseTag.B, 1.0, k=0.5)
        spec = oracle.LatticeSpec(0.0, rp.period, 64, "periodic", rp.u_of_x)
        monkeypatch.setattr(oracle, "_MAX_NEWTON", 1)
        with pytest.raises(ConvergenceError):
            oracle.lattice_heat_trace(spec, 1.0)

    def test_overflow_raises(self):
        # the lowest band lies below 0, so e^{-lambda t} overflows
        rp = build_resolvent(CaseTag.B, 1.0, k=0.5)
        spec = oracle.LatticeSpec(0.0, rp.period, 64, "periodic", rp.u_of_x)
        with pytest.raises(ConvergenceError):
            oracle.lattice_heat_trace(spec, 1e4)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_bad_arguments(self, t):
        spec = oracle.LatticeSpec(0.0, 1.0, 16, "periodic", lambda x: 0.0)
        with pytest.raises(DomainError):
            oracle.lattice_heat_trace(spec, t)

    def test_samples_potential_once_per_lattice(self):
        rp = build_resolvent(CaseTag.B, 1.0, k=0.5)
        calls = []

        def u(x):
            calls.append(x)
            return rp.u_of_x(x)

        spec = oracle.LatticeSpec(0.0, rp.period, 64, "periodic", u)
        oracle.lattice_heat_trace(spec, 1.0)
        assert len(calls) == 1 and calls[0].shape == (spec.n,)
        oracle.band_edges_lattice(spec, 3)
        assert len(calls) == 1

    def test_requires_periodic(self):
        spec = oracle.LatticeSpec(0.0, 1.0, 16, "dirichlet", lambda x: 0.0)
        with pytest.raises(DomainError):
            oracle.lattice_heat_trace(spec, 1.0)


def phase_sum(spectra, t):
    return np.mean([np.sum(np.exp(-lam * t)) for lam in spectra])


THETAS = (np.arange(32) + 0.5) * math.pi / 32
WORKLOAD_TRACES = [(case, k, t) for case, k in
                   [(c, k) for c in (CaseTag.B, CaseTag.D) for k in (0.3, 0.5, 0.7, 0.9)]
                   + [(CaseTag.NAHM, None)]
                   for t in (0.25, 0.5, 1.0, 2.0)]


class TestNearFarSplit:
    """The exact near terms and the far Taylor series of the joint solve."""

    @pytest.mark.parametrize("count", [0, 1, 2, 7])
    def test_power_table(self, count):
        # count 0 and 1 serve an empty far series
        base = np.array([[0.5, -0.25, 3.0]])
        got = oracle._powers(base, count)
        assert got.shape == (count, 1, 3)
        assert np.array_equal(got, base ** np.arange(count)[:, None, None])

    @pytest.mark.parametrize("size, P", [(0, 0), (1, 29), (138, 32), (139, 33),
                                         (553, 33), (554, 34)])
    def test_series_length_from_the_far_count(self, size, P):
        # P = ceil(log_4(N (4/3) / 1e-17)) for N far terms, whatever their r_k
        da = 4.0 + np.arange(size, dtype=float)
        _, coef = oracle._far_series(da, da + 0.5)
        assert coef.size == P

    @pytest.mark.parametrize("n", [64, 65])
    def test_empty_series_where_the_near_terms_reach_n(self, monkeypatch, n):
        # at t = 0.01 every band but a few is kept, and K = n
        far = []
        series = oracle._far_series
        monkeypatch.setattr(oracle, "_far_series",
                            lambda da, db: far.append(da.size) or series(da, db))
        spec, _ = period_spec(CaseTag.B, 0.5, n)
        want = phase_sum([dense_bloch(spec, th) for th in THETAS], 0.01)
        assert oracle.lattice_heat_trace(spec, 0.01) == pytest.approx(want, rel=1e-12)
        assert far == [0]

    @pytest.mark.parametrize("n", [64, 65])
    def test_band_below_zero_puts_the_centre_below_zero(self, monkeypatch, n):
        # case B at k = 0.3: band 0 lies below 0, and at t = 450 it is the
        # only band kept, so the series is centred at c < 0.  A dense
        # eigenvalue is good to about eps (4/h^2 + max|u|), which e^{-lambda t}
        # turns into t times that relative; on the trace's own two spectra
        # the per-band full-product solve agrees to 8 eps
        calls = record_roots(monkeypatch)
        spec, _ = period_spec(CaseTag.B, 0.3, n)
        t = 450.0
        got = oracle.lattice_heat_trace(spec, t)
        [(a, b, m, theta, _)] = calls
        assert m == 1 and 0.5 * (a[0] + b[0]) < 0.0
        eps = np.finfo(float).eps
        norm = 4.0 / spec.h ** 2 + np.max(np.abs(spec.diagonal - 2.0 / spec.h ** 2))
        want = phase_sum([dense_bloch(spec, th) for th in THETAS], t)
        assert got == pytest.approx(want, rel=1e-12 + 4.0 * eps * norm * t)
        assert abs(got - full_product_trace(a, b, m, theta, t)) <= 8.0 * eps * got

    @pytest.mark.parametrize("t", [0.25, 2.0])
    def test_case_d_near_one_at_workload_size(self, t):
        spec, _ = period_spec(CaseTag.D, 0.999, 360)
        want = phase_sum([oracle.bloch_eigenvalues(spec, th) for th in THETAS], t)
        assert oracle.lattice_heat_trace(spec, t) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("case, k, t", WORKLOAD_TRACES)
    def test_workload_roots_solve_the_full_product(self, monkeypatch, case, k, t):
        # each root lies within its band's Newton tolerance of the root of
        # the full 360-term phase equation, and the trace is within 8 eps
        # of the per-band full-product solve on the same two spectra
        calls = record_roots(monkeypatch)
        spec, _ = period_spec(case, k, 360)
        got = oracle.lattice_heat_trace(spec, t)
        [(a, b, m, theta, roots)] = calls
        lo, hi = np.minimum(a, b)[:m, None], np.maximum(a, b)[:m, None]
        tol = 1e-12 * (hi - lo) + 4e-15 * np.maximum(np.abs(lo), np.abs(hi))
        below = full_phase(a, b, np.maximum(roots - tol, lo)) - theta
        above = full_phase(a, b, np.minimum(roots + tol, hi)) - theta
        rising = (b[:m] > a[:m])[:, None]
        assert np.all(np.where(rising, below <= 0.0, below >= 0.0))
        assert np.all(np.where(rising, above >= 0.0, above <= 0.0))
        want = full_product_trace(a, b, m, theta, t)
        assert abs(got - want) <= 8.0 * np.finfo(float).eps * want
