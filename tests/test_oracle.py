"""Lattice spectral oracle: reference wells, Bloch edges, heat traces."""

import math

import numpy as np
import pytest

from kinkzeta import oracle
from kinkzeta.errors import ConvergenceError, DomainError
from kinkzeta.resolvent import CaseTag, build_resolvent


def sech2(x):
    return 1.0 / math.cosh(x) ** 2


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
        lam = oracle.eigenvalues(spec, count=5)
        assert np.allclose(lam, [0.0, 1.0, 1.0, 4.0, 4.0], atol=1e-3)

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


class TestRelativeTrace:
    def make_pair(self, b=1.0, n=3000):
        u = lambda x: b * b - 2.0 * b * b * sech2(b * x)
        u0 = lambda x: b * b
        box = 20.0 / b
        return (oracle.LatticeSpec(-box, box, n, "dirichlet", u),
                oracle.LatticeSpec(-box, box, n, "dirichlet", u0))

    def test_case_a_matches_erf(self):
        spec, spec0 = self.make_pair()
        for t in (0.5, 1.0, 2.0):
            got = oracle.relative_heat_trace(spec, spec0, t)
            assert got == pytest.approx(math.erf(math.sqrt(t)), abs=2e-3)

    def test_long_time_counts_bound_states(self):
        spec, spec0 = self.make_pair()
        assert oracle.relative_heat_trace(spec, spec0, 30.0) == pytest.approx(
            1.0, abs=5e-3)

    def test_identical_potentials_vanish(self):
        spec, _ = self.make_pair()
        assert oracle.relative_heat_trace(spec, spec, 1.0) == 0.0

    def test_matches_laplace_inversion(self):
        from kinkzeta.resolvent import invert_laplace_gamma
        rp = build_resolvent(CaseTag.A, 1.0)
        spec, spec0 = self.make_pair()
        for t in (0.5, 1.0, 2.0):
            lat = oracle.relative_heat_trace(spec, spec0, t)
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
        low = oracle.bloch_eigenvalues(spec, theta, count=6)
        assert np.max(np.abs(low - ref[:6])) < tol

    def test_count_beyond_size_returns_all(self):
        spec = oracle.LatticeSpec(0.0, 1.0, 16, "periodic", lambda x: 0.0)
        assert len(oracle.bloch_eigenvalues(spec, 0.3, count=40)) == 16

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

        def counted(spec, theta, count=None):
            thetas.append(theta)
            return solve(spec, theta, count)

        monkeypatch.setattr(oracle, "bloch_eigenvalues", counted)
        oracle.lattice_heat_trace(spec, 1.0, n_theta)
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

    @pytest.mark.parametrize("t, n_theta", [
        (0.0, 32), (-1.0, 32), (math.nan, 32), (math.inf, 32),
        (1.0, 0), (1.0, -3), (1.0, 2.5)])
    def test_bad_arguments(self, t, n_theta):
        spec = oracle.LatticeSpec(0.0, 1.0, 16, "periodic", lambda x: 0.0)
        with pytest.raises(DomainError):
            oracle.lattice_heat_trace(spec, t, n_theta)

    def test_samples_potential_once_per_lattice(self):
        rp = build_resolvent(CaseTag.B, 1.0, k=0.5)
        calls = []

        def u(x):
            calls.append(x)
            return rp.u_of_x(x)

        spec = oracle.LatticeSpec(0.0, rp.period, 64, "periodic", u)
        oracle.lattice_heat_trace(spec, 1.0)
        assert len(calls) == spec.n
        oracle.band_edges_lattice(spec, 3)
        assert len(calls) == spec.n

    def test_requires_periodic(self):
        spec = oracle.LatticeSpec(0.0, 1.0, 16, "dirichlet", lambda x: 0.0)
        with pytest.raises(DomainError):
            oracle.lattice_heat_trace(spec, 1.0)
