"""Lattice spectral oracle: reference wells, Bloch edges, heat traces."""

import math

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


def dense_hill(spec, theta, M=None):
    """Reference: the Hill matrix at M modes a side, by default the cap
    (n - 1) // 2, its Fourier coefficients summed directly from the samples
    (those past n / 2 zero, the Nyquist term of an even n split between
    +-n / 2), solved densely."""
    n, L = spec.n, spec.x_max - spec.x_min
    M = (n - 1) // 2 if M is None else M
    k = np.arange(-2 * M, 2 * M + 1)
    coef = np.exp(-2j * np.pi * np.outer(k, np.arange(n)) / n) @ spec.samples / n
    coef[np.abs(k) > n // 2] = 0.0
    if n % 2 == 0:
        coef[np.abs(k) == n // 2] *= 0.5
    m = np.arange(-M, M + 1)
    H = coef[m[:, None] - m + 2 * M] + np.diag(((2.0 * np.pi * m + theta) / L) ** 2)
    return np.linalg.eigvalsh(H)


def dense_edges(spec):
    """Reference edges: the theta = 0 (periodic) and theta = pi
    (antiperiodic) rings solved densely by dense_hill, both spectra sorted
    together."""
    return np.sort(np.concatenate([dense_hill(spec, 0.0), dense_hill(spec, np.pi)]))


def edge_bar(spec):
    """1e-13 (4/h^2 + max|u|), the accuracy asked of every edge."""
    return 1e-13 * (4.0 / spec.h ** 2 + np.max(np.abs(spec.samples)))


def phase_sum(spectra, t):
    return np.mean([np.sum(np.exp(-lam * t)) for lam in spectra])


THETAS = (np.arange(32) + 0.5) * math.pi / 32
GATE_CASES = [(c, k) for c in (CaseTag.B, CaseTag.D) for k in (0.3, 0.5, 0.8, 0.99)] + [
    (CaseTag.NAHM, None)]


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
        # Hill's method is exact on u = 0 at any n; n = 64 keeps the solve
        # at the cap small
        spec = oracle.LatticeSpec(0.0, 2.0 * math.pi, 64, "periodic",
                                  lambda x: 0.0)
        lam = oracle.bloch_eigenvalues(spec, 0.0)[:5]
        assert np.allclose(lam, [0.0, 1.0, 1.0, 4.0, 4.0], rtol=0, atol=1e-12)

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

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_n_past_the_bound_is_a_domain_error(self, bc):
        # 2^20 points is far above every lattice of the package; past it
        # the spec is refused before u is sampled
        oracle.LatticeSpec(0.0, 7.0, oracle.MAX_N, bc, lambda x: 0.0)
        with pytest.raises(DomainError, match="at most"):
            oracle.LatticeSpec(0.0, 7.0, oracle.MAX_N + 1, bc, lambda x: 0.0)

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

    def test_time_below_ten_grid_steps_squared_is_a_domain_error(self):
        # the CLI's case-A box, n = 900: at t = 10 h^2 the trace is 0.64 %
        # off erf(sqrt t); below it the lattice does not resolve the kernel
        spec, nu = self.make_pair(n=900)
        t_min = 10.0 * spec.h ** 2
        got = oracle.relative_heat_trace(spec, nu, t_min)
        assert got == pytest.approx(math.erf(math.sqrt(t_min)), rel=7e-3)
        for t in (math.nextafter(t_min, 0.0), 1e-5, 0.0):
            with pytest.raises(DomainError, match="10 h\\^2"):
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
        assert np.allclose(edges, [-0.75, 0.0, 0.25], rtol=0, atol=1e-10)
        assert np.allclose(edges, sorted(-r for r in rp.roots), rtol=0, atol=1e-10)

    def test_case_d_half(self):
        edges, rp = self.lattice_edges(CaseTag.D, 0.5)
        predicted = sorted(-r for r in rp.roots)
        assert np.allclose(edges, predicted, rtol=0, atol=1e-10)

    def test_nahm(self):
        edges, rp = self.lattice_edges(CaseTag.NAHM, None)
        predicted = sorted(-r for r in rp.roots)
        assert np.allclose(edges, predicted, rtol=0, atol=1e-10)

    def test_tight_equivalence_across_moduli(self):
        # 1e-10 relative agreement between -roots(Q) and the Bloch edges
        for case in (CaseTag.B, CaseTag.D):
            for k in (0.3, 0.6, 0.9):
                edges, rp = self.lattice_edges(case, k, n=800)
                pred = np.sort([-r for r in rp.roots])
                rel = np.abs(edges - pred) / np.maximum(1.0, np.abs(pred))
                assert np.max(rel) < 1e-10

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("case, k", GATE_CASES)
    def test_matches_minus_roots(self, case, k, b):
        # the closed-form edges -roots(Q) at the CLI's n = 900, absolute
        # over b^2: measured within 3.2e-13
        rp = build_resolvent(case, b, k=k)
        spec = oracle.LatticeSpec(0.0, rp.period, 900, "periodic", rp.u_of_x)
        edges = oracle.band_edges_lattice(spec, len(rp.roots))
        assert np.max(np.abs(edges - np.sort([-r for r in rp.roots]))) <= 1e-10 * b * b

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
        # every gap is closed: the edges are c + (pi j / L)^2, j = 0, 1, 1,
        # 2, 2, ..., to rounding
        spec = oracle.LatticeSpec(0.0, 3.7, n, "periodic", lambda x: c)
        j = (np.arange(9) + 1) // 2
        want = c + (math.pi * j / 3.7) ** 2
        got = oracle.band_edges_lattice(spec, 9)
        assert np.max(np.abs(got - want)) <= 8.0 * np.finfo(float).eps * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("n_edges", [None, 7])
    @pytest.mark.parametrize("case, k", [
        (CaseTag.B, 0.02), (CaseTag.B, 0.5), (CaseTag.B, 0.99),
        (CaseTag.D, 0.02), (CaseTag.D, 0.3), (CaseTag.D, 0.99),
        (CaseTag.NAHM, None)])
    def test_matches_dense_rings(self, case, k, n, n_edges):
        # the truncation rule's M against the cap, on the same samples
        spec, n_roots = period_spec(case, k, n)
        m = n_roots if n_edges is None else n_edges
        got = oracle.band_edges_lattice(spec, m)
        assert np.max(np.abs(got - dense_edges(spec)[:m])) <= edge_bar(spec)

    def test_matches_dense_rings_at_workload_size(self):
        # at n = 900 the rule takes M = 9 of the cap's 449.  The reference
        # takes M = 40: at the cap it rounds to about eps times its largest
        # entry, 7e5, and was measured 3.7e-11 to 1.3e-10 off; at M = 40, 1.1e-12
        spec, m = period_spec(CaseTag.B, 0.3, 900)
        got = oracle.band_edges_lattice(spec, m)
        want = np.sort(np.concatenate([dense_hill(spec, 0.0, 40),
                                       dense_hill(spec, np.pi, 40)]))
        assert np.max(np.abs(got - want[:m])) <= 1e-10

    @pytest.mark.parametrize("spec", [
        period_spec(CaseTag.D, 0.99, 8)[0], period_spec(CaseTag.D, 0.99, 65)[0],
        # bands 1e-12 wide, and u_k = 0 but at k = 0 and +-4
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

    def test_one_solve_of_both_phases(self, monkeypatch):
        # theta = 0 and pi go to one stacked eigensolve, at the rule's M
        calls = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda H: calls.append(H.shape) or solve(H))
        spec, m = period_spec(CaseTag.B, 0.5, 900)
        oracle.band_edges_lattice(spec, m)
        assert len(calls) == 1 and calls[0][0] == 2 and calls[0][1] < 41


class TestBlochEigenvalues:
    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("theta", [0.0, math.pi, 0.7, 2.9])
    def test_matches_dense(self, n, theta):
        rp = build_resolvent(CaseTag.D, 1.0, k=0.6)
        spec = oracle.LatticeSpec(0.0, rp.period, n, "periodic", rp.u_of_x)
        ref = dense_hill(spec, theta)
        full = oracle.bloch_eigenvalues(spec, theta)
        assert full.shape == (2 * ((n - 1) // 2) + 1,)
        assert np.max(np.abs(full - ref)) < 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("theta", [0.0, 0.7, math.pi])
    @pytest.mark.parametrize("c", [0.0, 2.5, -3.0])
    def test_constant_potential_is_exact(self, c, theta, n):
        # the spectrum of u = c is ((2 pi m + theta) / L)^2 + c, |m| <= M,
        # to the eigensolve's rounding: measured within 9.7 eps of the top
        spec = oracle.LatticeSpec(0.0, 3.7, n, "periodic", lambda x: c)
        m = np.arange(-((n - 1) // 2), (n - 1) // 2 + 1)
        want = np.sort(((2.0 * math.pi * m + theta) / 3.7) ** 2 + c)
        got = oracle.bloch_eigenvalues(spec, theta)
        assert np.max(np.abs(got - want)) <= 32.0 * np.finfo(float).eps * np.max(want)

    def test_requires_periodic(self):
        spec = oracle.LatticeSpec(0.0, 1.0, 16, "dirichlet", lambda x: 0.0)
        with pytest.raises(DomainError):
            oracle.bloch_eigenvalues(spec, 0.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_theta_must_be_finite(self, theta):
        spec = oracle.LatticeSpec(0.0, 1.0, 16, "periodic", lambda x: 0.0)
        with pytest.raises(DomainError):
            oracle.bloch_eigenvalues(spec, theta)

    def test_solve_past_the_entry_bound_is_a_domain_error(self):
        # 4,099 modes at the cap: 1.7e7 entries, past 2^22, refused unbuilt
        spec = oracle.LatticeSpec(0.0, 1.0, 4100, "periodic", lambda x: 0.0)
        with pytest.raises(DomainError, match="entries"):
            oracle.bloch_eigenvalues(spec, 0.0)

    def test_coefficients_that_overflow_are_a_domain_error(self):
        # the FFT of eight samples at 1e308 overflows to inf and nan
        # coefficients; neither it nor the division may warn before the
        # typed error
        spec = oracle.LatticeSpec(0.0, 1.0, 8, "periodic", lambda x: 1e308)
        with pytest.raises(DomainError, match="Fourier coefficients"):
            oracle.band_edges_lattice(spec, 1)

    def test_kinetic_term_that_overflows_is_a_domain_error(self):
        # ((2 pi m + theta) / L)^2 passes the largest float at L = 1e-300
        spec = oracle.LatticeSpec(0.0, 1e-300, 8, "periodic", lambda x: 0.0)
        with pytest.raises(DomainError, match="overflows"):
            oracle.bloch_eigenvalues(spec, 0.0)


class TestLatticeHeatTrace:
    def test_case_d_matches_laplace_inversion(self):
        from kinkzeta.resolvent import invert_laplace_gamma
        rp = build_resolvent(CaseTag.D, 1.0, k=0.5)
        spec = oracle.LatticeSpec(0.0, rp.period, 360, "periodic", rp.u_of_x)
        for t in (0.5, 2.0):
            want = invert_laplace_gamma(rp, t).total
            got = oracle.lattice_heat_trace(spec, t)
            assert got == pytest.approx(want, rel=1e-10)

    def test_case_d_small_k_matches_laplace_inversion(self):
        # at k = 0.01 the two top edges lie 7.5e-9 apart; the inversion
        # keeps the narrow gap between them
        from kinkzeta.resolvent import invert_laplace_gamma
        rp = build_resolvent(CaseTag.D, 1.0, k=0.01)
        spec = oracle.LatticeSpec(0.0, rp.period, 1200, "periodic", rp.u_of_x)
        for t in (0.5, 2.0):
            want = invert_laplace_gamma(rp, t).total
            got = oracle.lattice_heat_trace(spec, t)
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("t", [0.1, 0.25, 1.0, 2.0, 30.0, 100.0])
    @pytest.mark.parametrize("case, k", GATE_CASES)
    def test_matches_laplace_inversion(self, case, k, t):
        # the band integrals at n = 360: measured within 5.8e-12 relative.
        # At t = 100 the phase rule takes 10-24 phases: for B at k = 0.5
        # 8 would miss by 1e-3
        from kinkzeta.resolvent import invert_laplace_gamma
        spec, _ = period_spec(case, k, 360)
        want = invert_laplace_gamma(build_resolvent(case, 1.0, k=k), t).total
        assert oracle.lattice_heat_trace(spec, t) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("t", [0.01, 1.0, 100.0, 1e4])
    def test_constant_potential_is_the_weyl_term(self, t):
        # the phase mean of sum_m e^{-t ((2 pi m + theta) / L)^2} is
        # L / sqrt(4 pi t) exactly; the midpoint rule misses it by e^{-37}
        spec = oracle.LatticeSpec(0.0, 3.7, 64, "periodic", lambda x: 0.5)
        want = math.exp(-0.5 * t) * 3.7 / math.sqrt(4.0 * math.pi * t)
        assert oracle.lattice_heat_trace(spec, t) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("case, k", [
        (CaseTag.B, 0.5), (CaseTag.D, 0.6), (CaseTag.D, 0.99),
        (CaseTag.NAHM, None)])
    def test_matches_dense_phase_sum(self, case, k, n):
        # the reference solves 32 phases in full, at the cap
        rp = build_resolvent(case, 1.0, k=k)
        spec = oracle.LatticeSpec(0.0, rp.period, n, "periodic", rp.u_of_x)
        spectra = [dense_hill(spec, th) for th in THETAS]
        for t in (0.25, 2.0):
            want = phase_sum(spectra, t)
            got = oracle.lattice_heat_trace(spec, t)
            assert got == pytest.approx(want, rel=1e-12)

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

    @pytest.mark.parametrize("t", [1e14, 1e300])
    def test_time_past_the_entry_bound_is_a_domain_error(self, t):
        # sqrt(t) / L phases, refused before a matrix is built
        spec = oracle.LatticeSpec(0.0, 1.0, 16, "periodic", lambda x: 0.0)
        with pytest.raises(DomainError, match="phases|entries"):
            oracle.lattice_heat_trace(spec, t)

    @pytest.mark.parametrize("t, n_theta", [(0.1, 8), (1.0, 8), (100.0, 61), (1e4, 610)])
    def test_one_eigensolve_for_any_phase_count(self, monkeypatch, t, n_theta):
        # every phase of the rule max(8, ceil(6.1 sqrt(t) / L)) goes to one
        # stacked eigensolve
        calls = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda H: calls.append(H.shape) or solve(H))
        spec = oracle.LatticeSpec(0.0, 1.0, 16, "periodic", lambda x: 0.0)
        oracle.lattice_heat_trace(spec, t)
        assert len(calls) == 1 and calls[0][0] == n_theta

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
