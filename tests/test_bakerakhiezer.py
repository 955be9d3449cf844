"""Genus-1 Bloch solutions and the Green-diagonal cross-module identity."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinkzeta import bakerakhiezer as ba
from kinkzeta import specfun
from kinkzeta.errors import DomainError, WronskianDegeneracyError
from kinkzeta.resolvent import CaseTag, build_resolvent


def lame_residual(sol, x, h=1e-3):
    """|(-d^2/dx^2 + 2k^2 - 2k^2 cn^2) psi - h psi| by a 5-point stencil."""
    psi = sol.psi_plus
    d2 = (-psi(x + 2 * h) + 16 * psi(x + h) - 30 * psi(x)
          + 16 * psi(x - h) - psi(x - 2 * h)) / (12 * h * h)
    _, cn, _ = specfun.jacobi_sn_cn_dn(x, sol.k)
    k2 = sol.k ** 2
    return abs(-d2 + (2 * k2 - 2 * k2 * cn * cn) * psi(x) - sol.h * psi(x))


class TestLameSolutions:
    def test_residual_inside_band(self):
        k = 0.6
        sol = ba.make_lame_solution(0.7, k)  # inside the first band
        for x in np.linspace(0.2, 2.2, 20):
            assert lame_residual(sol, x) < 1e-7

    def test_residual_in_gap_and_below(self):
        k = 0.6
        for h in (1.15, 0.2):  # finite gap; below the spectrum
            sol = ba.make_lame_solution(h, k)
            for x in (0.3, 0.9, 1.7):
                assert lame_residual(sol, x) < 1e-7

    def test_minus_solution_solves_too(self):
        k = 0.6
        sol = ba.make_lame_solution(1.15, k)
        h = 1e-3
        psi = sol.psi_minus
        for x in (0.4, 1.1):
            d2 = (-psi(x + 2 * h) + 16 * psi(x + h) - 30 * psi(x)
                  + 16 * psi(x - h) - psi(x - 2 * h)) / (12 * h * h)
            _, cn, _ = specfun.jacobi_sn_cn_dn(x, k)
            resid = abs(-d2 + (2 * k * k - 2 * k * k * cn * cn) * psi(x)
                        - sol.h * psi(x))
            assert resid < 1e-7

    def test_bloch_property(self):
        k = 0.6
        K = specfun.ellipk(k)
        inside = ba.make_lame_solution(0.7, k)
        mu_in = inside.psi_plus(0.4 + 2 * K) / inside.psi_plus(0.4)
        assert abs(abs(mu_in) - 1.0) < 1e-8
        gap = ba.make_lame_solution(1.15, k)
        mu_gap = gap.psi_plus(0.4 + 2 * K) / gap.psi_plus(0.4)
        assert abs(abs(mu_gap) - 1.0) > 1e-3

    def test_band_edges_degenerate(self):
        k = 0.6
        for h_edge in ba.lame_band_edges(k):
            with pytest.raises(WronskianDegeneracyError):
                ba.make_lame_solution(h_edge, k)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(k=st.floats(0.01, 0.99))
    @example(k=0.6)
    def test_band_edges_equal_shifted_resolvent_roots(self, k):
        # the Q roots of the matching periodic case sit at p = 1 - h
        rp = build_resolvent(CaseTag.B, 1.0, k=k)
        from_q = sorted(1.0 - r for r in rp.roots)
        assert np.allclose(sorted(ba.lame_band_edges(k)), from_q, atol=1e-12)

    def test_wronskian_constancy(self):
        sol = ba.make_lame_solution(1.15, 0.6)

        def d(psi, x, h=1e-3):   # 5-point central stencil
            return (-psi(x + 2 * h) + 8 * psi(x + h) - 8 * psi(x - h)
                    + psi(x - 2 * h)) / (12 * h)

        w_vals = [sol.psi_plus(x) * d(sol.psi_minus, x)
                  - sol.psi_minus(x) * d(sol.psi_plus, x)
                  for x in np.linspace(0.1, 3.4, 9)]
        drift = max(abs(w - sol.wronskian) for w in w_vals)
        assert drift < 1e-9 * abs(sol.wronskian)

    def test_wronskian_closed_form(self):
        # W = -sigma(a)^2 p'(a) / sqrt(3), from the sigma product identity;
        # one h per boundary segment, each with its own sign of p'(a)
        k = 0.6
        for h in (0.2, 0.6, 1.15, 2.0):
            sol = ba.make_lame_solution(h, k)
            params = sol.params
            eps = 1e-6
            dp = (specfun.weierstrass_p(sol.a + eps, params)
                  - specfun.weierstrass_p(sol.a - eps, params)) / (2 * eps)
            closed = (-specfun.weierstrass_sigma(sol.a, params) ** 2 * dp
                      / math.sqrt(3))
            assert sol.wronskian == pytest.approx(closed, rel=1e-6)

    def test_no_jacobi_function(self, monkeypatch):
        # p'(a) comes from the Weierstrass equation, not from sn, cn, dn
        def jacobi(u, k):
            raise AssertionError("make_lame_solution evaluated a Jacobi function")
        monkeypatch.setattr(specfun, "jacobi_sn_cn_dn", jacobi)
        for h in (0.2, 0.6, 1.15, 2.0):
            sol = ba.make_lame_solution(h, 0.55)
            assert cmath.isfinite(sol.wronskian)

    @staticmethod
    def theta_args(monkeypatch):
        """Record the argument w of every theta_1 sum; theta_1'(0) is summed
        once per lattice, which lame_system caches."""
        ba.lame_system(0.6)
        calls = []
        theta1 = specfun.theta1
        monkeypatch.setattr(specfun, "theta1",
                            lambda w, tau: calls.append(w) or theta1(w, tau))
        return calls

    def test_wronskian_evaluates_no_psi(self, monkeypatch):
        # the closed form takes sigma at a alone, in the one theta_1 pass
        # at a / (2 omega) that also gives zeta(a); psi would take it at v, v + a
        calls = self.theta_args(monkeypatch)
        sol = ba.make_lame_solution(1.15, 0.6)
        assert calls == [sol.a / (2.0 * sol.params.omega)]

    def test_zeta_of_a_once_for_both_solutions(self, monkeypatch):
        calls = self.theta_args(monkeypatch)
        sol = ba.make_lame_solution(1.15, 0.6)
        sol.psi_plus(0.4)
        sol.psi_minus(0.4)
        assert calls.count(sol.a / (2.0 * sol.params.omega)) == 1
        assert len(calls) == 5

    def test_green_diag_sums_four_theta_series(self, monkeypatch):
        # sigma(a) and zeta(a) in one pass, then sigma(v + a), sigma(v - a)
        # and sigma(v) once for both of psi_+-
        calls = self.theta_args(monkeypatch)
        ba.green_diag(0.7, 1.15, 0.6)
        assert len(calls) == 4

    def test_product_real_in_band_after_phase_fix(self):
        sol = ba.make_lame_solution(0.7, 0.6)
        r0 = sol.psi_plus(0.0) * sol.psi_minus(0.0)
        phase = r0 / abs(r0)
        for x in np.linspace(0.1, 2.0, 8):
            r = sol.psi_plus(x) * sol.psi_minus(x) / phase
            assert abs(r.imag) < 1e-8 * max(1.0, abs(r))


class TestGreenDiagonal:
    def test_jump_normalization(self):
        # grid differentiation of the off-diagonal kernel across x = x0,
        # one-sided fourth-order stencils on each side
        k, h = 0.6, 1.15
        x0, eps = 0.83, 0.01
        def g(x):
            return ba.green_offdiag(x, x0, h, k)
        def one_sided(sgn):
            pts = [g(x0 + sgn * j * eps) for j in range(5)]
            return sgn * (-25 * pts[0] + 48 * pts[1] - 36 * pts[2]
                          + 16 * pts[3] - 3 * pts[4]) / (12 * eps)
        jump = one_sided(+1) - one_sided(-1)
        assert jump.real == pytest.approx(-1.0, abs=1e-6)
        assert abs(jump.imag) < 1e-8

    @pytest.mark.parametrize("h", [0.2, 1.15])
    @pytest.mark.parametrize("periods", [50, -50])
    def test_periodic_in_x(self, h, periods):
        # fifty periods 2K out (|x| = 169), where a psi alone is not finite,
        # both functions take their values at the unshifted points
        k = 0.5
        shift = periods * 2.0 * specfun.ellipk(k)
        want = ba.green_diag(0.3, h, k)
        assert abs(ba.green_diag(0.3 + shift, h, k) - want) <= 1e-12 * abs(want)
        want = ba.green_offdiag(0.9, 0.3, h, k)
        got = ba.green_offdiag(0.9 + shift, 0.3 + shift, h, k)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("h", [0.2, 0.5, 1.1, 3.0])
    def test_far_apart_points_take_the_bloch_multiplier(self, h):
        # psi_+(hi) alone overflows far from psi_-(lo); each point is reduced
        # by its own periods and the multiplier mu = psi_+(x + 2K) / psi_+(x),
        # taken here from two psi values, enters as mu^n (h = 0.2, 1.1 in
        # the gaps, 0.5, 3.0 in the bands)
        k, x0 = 0.5, 0.3
        period = 2.0 * specfun.ellipk(k)
        sol = ba.make_lame_solution(h, k)
        mu = sol.psi_plus(0.7 + period) / sol.psi_plus(0.7)
        near = ba.green_offdiag(0.7 + period, x0, h, k)
        for n in (10, 35, 118):
            got = ba.green_offdiag(0.7 + (n + 1) * period, x0, h, k)
            assert cmath.isfinite(got)
            assert abs(got - near * mu ** n) <= 1e-11 * abs(near * mu ** n)

    @pytest.mark.parametrize("x, want", [(120.0, 4.58e-12), (400.0, 2.19e-39)])
    def test_far_apart_in_the_gap_is_small_and_finite(self, x, want):
        # green_offdiag(x, 0.3, 0.2, 0.5) raised DomainError at both points
        got = ba.green_offdiag(x, 0.3, 0.2, 0.5)
        assert got.real == pytest.approx(want, rel=1e-3)
        assert abs(got.imag) <= 1e-14 * got.real

    def test_matches_resolvent_case_b(self):
        # the central cross-module identity: g_h(x, x) = P/(2 sqrt Q) at
        # p = 1 - h, for ten (x, h) pairs in both spectral gaps
        k = 0.6
        rp = build_resolvent(CaseTag.B, 1.0, k=k)
        pairs = [(0.3, 1.1), (0.9, 1.2), (1.7, 1.3), (2.4, 1.05), (0.5, 1.3),
                 (0.3, 0.15), (0.9, 0.2), (1.7, 0.1), (2.4, 0.25), (0.5, 0.3)]
        for x, h in pairs:
            g = ba.green_diag(x, h, k)
            G = rp.green_diag(1.0 - h, x)
            assert abs(g - G) < 1e-6

    def test_matches_resolvent_across_moduli(self):
        for k in (0.3, 0.6, 0.9):
            rp = build_resolvent(CaseTag.B, 1.0, k=k)
            h_gap = 1.0 + 0.5 * k * k      # middle of the finite gap
            h_low = 0.5 * k * k            # below the spectrum
            for x in (0.4, 1.3):
                for h in (h_gap, h_low):
                    g = ba.green_diag(x, h, k)
                    G = rp.green_diag(1.0 - h, x)
                    assert abs(g - G) < 1e-6

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(log_k=st.floats(math.log(0.01), math.log(0.999)),
           finite_gap=st.booleans(), u=st.floats(0.0, 1.0),
           x=st.floats(0.0, 3.0))
    def test_matches_resolvent_over_the_gaps(self, log_k, finite_gap, u, x):
        # k log-uniform, h in a gap at least the 1e-4 guard band from its
        # edges (the finite gap (1, 1 + k^2) or below the spectrum)
        k = math.exp(log_k)
        k2 = k * k
        guard = 1.01e-4
        if finite_gap and k2 > 2.0 * guard:
            h = 1.0 + guard + u * (k2 - 2.0 * guard)
        else:
            h = k2 - guard - u
        g = ba.green_diag(x, h, k)
        G = build_resolvent(CaseTag.B, 1.0, k=k).green_diag(1.0 - h, x)
        assert abs(g - G) <= 1e-10 * abs(G)


class TestNonFiniteInputs:
    # a non-finite h, x, w or tau raises DomainError instead of a
    # ZeroDivisionError, a ConvergenceError after 512 terms or a silent NaN
    @pytest.mark.parametrize("f, args", [
        (ba.green_diag, (0.3, math.inf, 0.5)),
        (ba.green_diag, (0.3, -math.inf, 0.5)),
        (ba.green_diag, (math.nan, 0.2, 0.5)),
        (ba.green_diag, (math.inf, 1.15, 0.5)),
        (ba.green_offdiag, (0.3, math.nan, 1.15, 0.5)),
        (ba.make_lame_solution, (math.nan, 0.5)),
        (specfun.weierstrass_sigma, (complex(0.3, math.nan), ba.lame_system(0.5))),
        (specfun.weierstrass_zeta, (complex(math.inf, 0.3), ba.lame_system(0.5))),
        (specfun.weierstrass_p, (complex(0.3, math.nan), ba.lame_system(0.5))),
        (specfun.weierstrass_p, (complex(math.nan, 0.2), ba.lame_system(0.5))),
        (specfun.weierstrass_p, (complex(math.inf, 0.2), ba.lame_system(0.5))),
        (specfun.weierstrass_p, (complex(0.3, -math.inf), ba.lame_system(0.5))),
        (specfun.theta1, (complex(math.nan, 0.0), 0.8j)),
        (specfun.theta1, (0.1, complex(0.0, math.inf))),
        (specfun.theta1, (0.1, complex(math.nan, 0.8))),
    ], ids=["h=inf", "h=-inf", "x=nan", "x=inf", "x0=nan", "lame h=nan",
            "sigma", "zeta", "p y=nan", "p x=nan", "p x=inf", "p y=-inf",
            "theta1 w=nan", "theta1 tau=inf", "theta1 tau=nan"])
    def test_domain_error(self, f, args):
        with pytest.raises(DomainError):
            f(*args)

    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_modulus_outside_the_open_interval(self, k):
        with pytest.raises(DomainError, match="0 < k < 1"):
            ba.lame_system(k)

    @pytest.mark.parametrize("f, args", [
        (ba.green_diag, (1e300, 0.2, 0.5)),
        (ba.green_diag, (-1e300, 1.1, 0.5)),
        (ba.green_offdiag, (1e300, 0.0, 0.2, 0.5)),
        (ba.green_offdiag, (0.3, -1e300, 0.2, 0.5))],
        ids=["diag gap", "diag finite gap", "offdiag x", "offdiag x0"])
    def test_psi_overflow_is_a_domain_error(self, f, args):
        # e^{-zeta(a) v} or a sigma overflows far from the origin
        with pytest.raises(DomainError, match="not finite"):
            f(*args)
