"""Resolvent polynomials: coefficients, roots, the bilinear identity,
trace assembly, and the inverse Laplace transform of the trace."""

import cmath
import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kinkzeta import models, resolvent, specfun, zetareg
from kinkzeta.errors import ConvergenceError, DomainError, PoleError
from kinkzeta.resolvent import (CaseTag, build_resolvent, hermit_residual,
                                invert_laplace_gamma)

SQ3 = math.sqrt(3.0)

ALL_CASES = [
    (CaseTag.A, None), (CaseTag.B, 0.3), (CaseTag.B, 0.6), (CaseTag.B, 0.9),
    (CaseTag.C, None), (CaseTag.D, 0.3), (CaseTag.D, 0.6), (CaseTag.D, 0.9),
    (CaseTag.NAHM, None),
]


def random_offcut_points(rp, rng, n):
    """Complex p bounded away from the real axis (hence off every cut)."""
    pts = []
    while len(pts) < n:
        p = complex(rng.uniform(-5, 5), rng.uniform(0.4, 3.0) * rng.choice([-1, 1]))
        x = rng.uniform(-2.0, 2.0)
        pts.append((p, x))
    return pts


class TestCoefficients:
    def test_case_b_reduces_to_a_at_k_one(self):
        # P1 -> b^2 z, q1 -> 0, Q -> p^2 (p + b^2)
        b = 1.3
        rp = build_resolvent(CaseTag.B, b, k=1.0 - 1e-12)
        assert rp.p_rows[0][1] == pytest.approx(b * b, rel=1e-9)
        assert rp.q_coeffs[1] == pytest.approx(0.0, abs=1e-9)
        assert rp.q_coeffs[2] == pytest.approx(b * b, rel=1e-9)

    def test_case_d_values_at_half(self):
        rp = build_resolvent(CaseTag.D, 1.0, k=0.5)
        assert rp.q_coeffs[4] == pytest.approx(6.25)
        assert rp.q_coeffs[1] == pytest.approx(-27.0 * 0.25 * 0.75 ** 2)
        assert rp.q_coeffs[1] == pytest.approx(-3.796875)

    def test_nahm_polynomial_and_roots(self):
        rp = build_resolvent(CaseTag.NAHM, 1.0)
        assert rp.q_coeffs == (0.0, 108.0, 0.0, -21.0, 0.0, 1.0)
        expected = sorted([-2 * SQ3, -3.0, 0.0, 3.0, 2 * SQ3])
        assert np.allclose(rp.roots, expected, atol=1e-10)

    def test_q_reconstruction_from_roots(self):
        for case, k in ALL_CASES:
            rp = build_resolvent(case, 1.1, k=k)
            rec = np.poly(rp.roots)[::-1]  # ascending
            scale = max(1.0, float(np.max(np.abs(rp.q_coeffs))))
            assert np.allclose(rec, rp.q_coeffs, atol=1e-10 * scale)

    def test_case_c_double_roots(self):
        b = 0.8
        rp = build_resolvent(CaseTag.C, b)
        expected = sorted([-4 * b * b, -3 * b * b, -3 * b * b, 0.0, 0.0])
        assert np.allclose(rp.roots, expected, atol=1e-9)

    def test_case_c_double_root_over_scales(self):
        # np.roots opens the double root at -3 b^2 by up to ~1.5e-7 * 4b^2
        for b in [0.706165, *np.linspace(0.5, 2.0, 3001)]:
            roots = build_resolvent(CaseTag.C, b).roots
            assert roots[1] == roots[2], b
            assert abs(roots[1] + 3 * b * b) < 1e-12 * b * b, b

    def test_close_distinct_roots_stay_apart(self):
        # near k -> 1 the edges 0 and b^2 (1 - k^2) of case B approach each
        # other, but they are simple roots and must not be averaged
        for k in (1.0 - 1e-6, 1.0 - 1e-9):
            roots = build_resolvent(CaseTag.B, 1.0, k=k).roots
            assert roots[1] == 0.0
            assert roots[2] == pytest.approx(1.0 - k * k, rel=1e-6)

    @pytest.mark.parametrize("case, k, b", [
        (CaseTag.A, None, 1e-200), (CaseTag.A, None, 1e-160),
        (CaseTag.B, 0.5, 1e-80), (CaseTag.C, None, 1e-55),
        (CaseTag.D, 0.5, 1e-45), (CaseTag.NAHM, None, 1e-45)])
    def test_underflow_is_a_domain_error(self, case, k, b):
        # the lowest nonzero coefficient of Q is 0 or subnormal there
        with pytest.raises(DomainError):
            build_resolvent(case, b, k=k)

    @pytest.mark.parametrize("case, k", [(CaseTag.B, 1e-300), (CaseTag.D, 1e-200)])
    def test_small_k_underflow_names_k(self, case, k):
        # q1 carries k^2, so at b = 1 it is k that underflows Q
        with pytest.raises(DomainError, match=f"underflow at b = 1.0, k = {k}$"):
            build_resolvent(case, 1.0, k=k)

    @pytest.mark.parametrize("case, k", [
        (CaseTag.C, None), (CaseTag.D, 0.5), (CaseTag.NAHM, None)])
    def test_overflow_is_a_domain_error(self, case, k):
        # b^6 in q2 of GL must overflow to inf and reach the guard
        with pytest.raises(DomainError, match="overflow"):
            build_resolvent(case, 1e80, k=k)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=st.sampled_from(list(CaseTag)), b=st.floats(1e-3, 1e3),
           k=st.floats(1e-3, 1.0 - 1e-12))
    def test_roots_rebuild_q_over_the_domain(self, case, b, k):
        rp = build_resolvent(case, b, k=k)
        rec = np.poly(rp.roots)[::-1]
        scale = max(1.0, float(np.max(np.abs(rp.q_coeffs))))
        assert np.allclose(rec, rp.q_coeffs, rtol=0.0, atol=1e-12 * scale)

    @pytest.mark.parametrize("k", [0.01, 0.001])
    def test_case_d_small_k_edges_match_mpmath(self, k):
        # the top gap (3 b^2, (3 + 0.75 k^4) b^2) is 7.5e-9 wide at k = 0.01
        # and 7.5e-13 at k = 0.001; its edges are simple roots, not one double
        roots = build_resolvent(CaseTag.D, 1.0, k=k).roots
        with mp.workdps(40):
            k2 = mp.mpf(k) ** 2
            w = 1 + k2 + 2 * mp.sqrt(1 - k2 + k2 * k2)
            want = sorted([-w, -3, -3 * k2, 0, 3 * (1 - k2) ** 2 / w])
            assert all(abs(r - x) <= 1e-15 * max(1, abs(x)) for r, x in zip(roots, want))

    def test_case_d_edges_that_round_together_are_a_domain_error(self):
        # the top gap 0.75 k^4 b^2 is under one ulp of 3 b^2 below k ~ 1.3e-4
        with pytest.raises(DomainError, match="round to one float"):
            build_resolvent(CaseTag.D, 1.0, k=1e-5)

    def test_case_b_moments_that_underflow_are_a_domain_error(self):
        # below k ~ 1.2e-81 the 3 k^2 k^2 under Izz underflows to a zero divisor
        with pytest.raises(DomainError, match="underflow"):
            build_resolvent(CaseTag.B, 1.0, k=1e-150)

    def test_small_b_keeps_its_roots(self):
        b = 1e-40
        assert build_resolvent(CaseTag.A, b).roots == (-b * b, 0.0, 0.0)
        roots = build_resolvent(CaseTag.D, 1e-35, k=0.5).roots
        want = build_resolvent(CaseTag.D, 1.0, k=0.5).roots
        assert np.allclose(np.array(roots) / 1e-70, want, rtol=0, atol=1e-12)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            build_resolvent(CaseTag.B, 1.0)
        with pytest.raises(DomainError):
            build_resolvent(CaseTag.D, 1.0, k=1.5)
        with pytest.raises(DomainError):
            build_resolvent(CaseTag.A, -1.0)


class TestHermit:
    def test_residuals_all_cases(self):
        rng = np.random.default_rng(101)
        for case, k in ALL_CASES:
            rp = build_resolvent(case, 1.0, k=k)
            for p, x in random_offcut_points(rp, rng, 50):
                assert hermit_residual(rp, p, x) < 1e-9

    def test_case_a_explicit_point(self):
        rp = build_resolvent(CaseTag.A, 1.0)
        assert hermit_residual(rp, 1.0 + 0.0j, 0.3) < 1e-10
        # the closed diagonal is (p + b^2 sech^2)/(2 p sqrt(p + b^2))
        p, x = 1.0, 0.3
        z = 1.0 / math.cosh(x) ** 2
        expected = (p + z) / (2.0 * p * math.sqrt(p + 1.0))
        assert rp.green_diag(p, x).real == pytest.approx(expected, rel=1e-13)

    def test_case_d_random_point(self):
        rng = np.random.default_rng(5)
        rp = build_resolvent(CaseTag.D, 1.0, k=0.6)
        p = complex(rng.uniform(-3, 3), rng.uniform(0.5, 2))
        x = rng.uniform(-1, 1)
        assert hermit_residual(rp, p, x) < 1e-9

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(case=st.sampled_from(list(CaseTag)), log_b=st.floats(-2.0, 2.0),
           k=st.floats(0.01, 0.99), u=st.floats(-6.0, 6.0),
           v=st.floats(-6.0, 6.0), f=st.floats(0.0, 1.0, exclude_max=True))
    def test_residual_over_the_domain(self, case, log_b, k, u, v, f):
        # p = (u + i v) b^2, x over one period, or over [0, 10/b) for a
        # kink; the defect relative to Q grows as the inverse square of the
        # distance to a root of Q, so p keeps b^2 / 2 from every root
        b = 10.0 ** log_b
        rp = build_resolvent(case, b, k=k)
        p = complex(u, v) * b * b
        assume(min(abs(p - r) for r in rp.roots) >= 0.5 * b * b)
        x = f * (10.0 / b if rp.is_kink else rp.period)
        assert hermit_residual(rp, p, x) < 1e-12

    def test_scaled_green_fails(self):
        # the identity is not scale invariant: P -> 1.01 P, so G -> 1.01 G,
        # breaks it
        for case, k in [(CaseTag.A, None), (CaseTag.D, 0.6), (CaseTag.NAHM, None)]:
            rp = build_resolvent(case, 1.0, k=k)
            scaled = dataclasses.replace(rp, p_rows=tuple(
                tuple(1.01 * c for c in row) for row in rp.p_rows))
            assert hermit_residual(scaled, 1.0 + 1.0j, 0.4) > 1e-3


class TestBandEdges:
    def test_case_b_half(self):
        rp = build_resolvent(CaseTag.B, 1.0, k=0.5)
        assert np.allclose(rp.roots, [-0.25, 0.0, 0.75], atol=1e-12)

    def test_case_d_half(self):
        rp = build_resolvent(CaseTag.D, 1.0, k=0.5)
        root = math.sqrt(1.0 - 0.25 + 0.0625)
        expected = sorted([-(1.25 + 2 * root), -3.0, -0.75, 0.0,
                           2 * root - 1.25])
        assert np.allclose(rp.roots, expected, atol=1e-10)
        assert rp.roots[-1] > 0.0  # top edge is positive for every k

    def test_top_root_positive_identity(self):
        for k in (0.3, 0.5, 0.8):
            rp = build_resolvent(CaseTag.D, 1.0, k=k)
            top = 2.0 * math.sqrt(1 - k * k + k ** 4) - 1.0 - k * k
            assert rp.roots[-1] == pytest.approx(top, rel=1e-10)
            assert top >= 0.0

    def test_band_edges_sorted(self):
        for case, k in ALL_CASES:
            rp = build_resolvent(case, 0.9, k=k)
            e = rp.roots
            assert all(e[i] <= e[i + 1] for i in range(len(e) - 1))


class TestGammaHat:
    def test_case_a_split(self):
        # G = G_c + G_k with G_c = 1/(2 sqrt(p+b^2)),
        # G_k = b^2 sech^2/(2 p sqrt(p+b^2)); trace of G_k is b/(p sqrt(p+b^2))
        b = 1.4
        rp = build_resolvent(CaseTag.A, b)
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = complex(rng.uniform(0.5, 4.0), rng.uniform(-1, 1))
            x = rng.uniform(-2, 2)
            gc = 1.0 / (2.0 * cmath.sqrt(p + b * b))
            z = 1.0 / math.cosh(b * x) ** 2
            gk = b * b * z / (2.0 * p * cmath.sqrt(p + b * b))
            assert rp.green_diag(p, x) == pytest.approx(gc + gk, rel=1e-12)
            assert rp.gamma_hat(p) == pytest.approx(
                b / (p * cmath.sqrt(p + b * b)), rel=1e-12)

    def test_kink_z_is_cn_squared_at_k_one(self):
        for case in (CaseTag.A, CaseTag.C):
            rp = build_resolvent(case, 1.7)
            assert rp.k == 1.0
            for x in (-3.0, 0.0, 0.4, 30.0, 1e3):
                sech = 1.0 / math.cosh(1.7 * x) if x < 400.0 else 0.0
                assert rp.z_of_x(x) == sech * sech

    def test_kink_moments_against_quadrature(self):
        b = 1.7
        rp = build_resolvent(CaseTag.C, b)
        i1, _ = quad(lambda x: 1 / math.cosh(b * x) ** 2, -50, 50, epsabs=1e-13)
        i2, _ = quad(lambda x: 1 / math.cosh(b * x) ** 4, -50, 50, epsabs=1e-13)
        assert rp.moments[1] == pytest.approx(i1, abs=1e-10)
        assert rp.moments[2] == pytest.approx(i2, abs=1e-10)

    def test_periodic_moments_against_quadrature(self):
        k, b = 0.7, 1.0
        for case in (CaseTag.B, CaseTag.D):
            rp = build_resolvent(case, b, k=k)
            period = rp.period
            iz, _ = quad(lambda x: rp.z_of_x(x), 0.0, period, epsabs=1e-12,
                         limit=200)
            izz, _ = quad(lambda x: rp.z_of_x(x) ** 2, 0.0, period,
                          epsabs=1e-12, limit=200)
            assert rp.moments[1] == pytest.approx(iz, abs=1e-10), case
            assert rp.moments[2] == pytest.approx(izz, abs=1e-10), case

    def test_nahm_moments_against_quadrature(self):
        b = 1.2
        rp = build_resolvent(CaseTag.NAHM, b)
        iz, _ = quad(lambda x: rp.z_of_x(x), 0.0, rp.period, epsabs=1e-12,
                     limit=200)
        izz, _ = quad(lambda x: rp.z_of_x(x) ** 2, 0.0, rp.period,
                      epsabs=1e-12, limit=200)
        assert rp.moments[1] == pytest.approx(iz, abs=1e-10)
        assert rp.moments[2] == pytest.approx(izz, abs=1e-10)

    def test_nahm_prefactors_are_imag_modulus_integrals(self):
        # period integrals reduce to K(i), E(i), the integrals at parameter
        # m = k^2 = -1: I0 = 2 K(i)/b and the z-moment carries K(i) - E(i)
        b = 1.0
        rp = build_resolvent(CaseTag.NAHM, b)
        ki, ei = float(mp.ellipk(-1)), float(mp.ellipe(-1))
        assert abs(models._KE_IMAG[0] - ki) < 1e-12
        assert abs(models._KE_IMAG[1] - ei) < 1e-12
        assert rp.moments[0] == pytest.approx(2.0 * ki / b, rel=1e-13)
        assert rp.moments[1] == pytest.approx(2.0 * (2 * ki - ei) / b, rel=1e-13)

    @pytest.mark.parametrize("case,k", ALL_CASES)
    def test_period_is_the_first_moment(self, case, k):
        # inf for a kink, 2K/b for B and D, 2K(i)/b for NAHM
        b = 1.3
        rp = build_resolvent(case, b, k=k)
        K = (math.inf if rp.is_kink else models._KE_IMAG[0]
             if case is CaseTag.NAHM else specfun.ellipk(k))
        assert rp.period == rp.moments[0] == 2.0 * K / b

    def test_cut_proximity_error(self):
        rp = build_resolvent(CaseTag.B, 1.0, k=0.5)
        with pytest.raises(PoleError):
            rp.gamma_hat(0.75 + 1e-9j)

    def test_weyl_asymptotics(self):
        # gamma_hat -> period/(2 sqrt(p)) as p -> +inf for periodic cases
        for case, k in [(CaseTag.B, 0.6), (CaseTag.D, 0.4), (CaseTag.NAHM, None)]:
            rp = build_resolvent(case, 1.0, k=k)
            p = 4e6
            assert rp.gamma_hat(p).real == pytest.approx(
                rp.period / (2.0 * math.sqrt(p)), rel=1e-5)


class TestGreenDegeneracies:
    def test_b_to_a(self):
        b = 1.0
        rp_a = build_resolvent(CaseTag.A, b)
        rp_b = build_resolvent(CaseTag.B, b, k=1.0 - 5e-8)
        for p in (2.0, 1.0 + 1.5j):
            for x in (0.0, 0.7, 1.9):
                assert abs(rp_b.green_diag(p, x) - rp_a.green_diag(p, x)) < 1e-6

    def test_d_to_c(self):
        b = 1.0
        rp_c = build_resolvent(CaseTag.C, b)
        rp_d = build_resolvent(CaseTag.D, b, k=1.0 - 5e-8)
        for p in (2.0, 1.0 + 1.5j):
            for x in (0.0, 0.7, 1.9):
                assert abs(rp_d.green_diag(p, x) - rp_c.green_diag(p, x)) < 1e-6


class TestSpectralStructure:
    def test_kink_residues_are_unit(self):
        # bound states carry unit residue in the trace: the symmetric
        # difference (eps/2)(gamma_hat(p0 + eps) - gamma_hat(p0 - eps)) at
        # eps = 1e-4 i is the residue up to O(eps^2), and stays clear of
        # gamma_hat's 1e-6 pole guard
        eps = 1e-4j
        for case in (CaseTag.A, CaseTag.C):
            rp = build_resolvent(case, 1.3)
            for lam in rp.bound_states():
                res = 0.5 * eps * (rp.gamma_hat(-lam + eps) - rp.gamma_hat(-lam - eps))
                assert abs(res - 1.0) < 1e-7
        rp = build_resolvent(CaseTag.A, 1.0)
        assert rp.bound_states() == pytest.approx([0.0])
        rp = build_resolvent(CaseTag.C, 1.0)
        assert sorted(rp.bound_states()) == pytest.approx([0.0, 3.0])

    def test_periodic_density_nonnegative(self):
        for case, k in [(CaseTag.B, 0.5), (CaseTag.D, 0.5), (CaseTag.NAHM, None)]:
            rp = build_resolvent(case, 1.0, k=k)
            for lo, hi in rp.bands():
                hi_eff = lo + 5.0 if math.isinf(hi) else hi
                for lam in np.linspace(lo, hi_eff, 30)[1:-1]:
                    assert rp.density(lam) >= -1e-12

    def test_density_zero_in_gaps(self):
        rp = build_resolvent(CaseTag.D, 1.0, k=0.5)
        # spectral gaps for k = 1/2: (0, 0.75) and (3, 3.0527756...)
        assert rp.density(0.4) == 0.0
        assert rp.density(3.02) == 0.0

    def test_density_array_exact_zero_in_gaps(self):
        rp = build_resolvent(CaseTag.D, 1.0, k=0.5)
        # below the spectrum and in the gaps for k = 1/2: a float +0.0 at
        # every point of an array of gap abscissae
        lams = np.array([-3.0, -1.0, 0.1, 0.4, 0.7, 3.01, 3.05])
        vals = [rp.density(float(lam)) for lam in lams]
        assert all(type(v) is float for v in vals)
        assert np.array(vals).tobytes() == np.zeros(len(lams)).tobytes()
        assert all(rp.density(lam) != 0.0 for lam in (-0.3, 1.5, 4.0))

    @pytest.mark.parametrize("case,k", ALL_CASES)
    def test_density_array_matches_scalar_bitwise(self, case, k):
        # band_density on an array of distances gives the scalar density
        # of every point bit for bit
        rp = build_resolvent(case, 1.2, k=k)
        count = 0
        for lo, hi in rp.bands():
            top = math.isinf(hi)
            lams = np.linspace(lo, lo + 40.0 if top else hi, 201)[1:-1]
            got = (rp.band_density(lo, hi, lams - lo) if top
                   else rp.band_density(lo, hi, lams - lo, hi - lams))
            want = np.array([rp.density(float(lam)) for lam in lams])
            assert got.tobytes() == want.tobytes()
            count += np.count_nonzero(got)
        assert count > 100

    def test_spectral_structure_is_cached_and_immutable(self):
        rp = build_resolvent(CaseTag.D, 1.0, k=0.5)
        for method in (rp.bands, build_resolvent(CaseTag.C, 1.0).bound_states):
            first = method()
            assert method() is first
            assert isinstance(first, tuple)
            with pytest.raises((TypeError, AttributeError)):
                first.append((0.0, 1.0))
            with pytest.raises(TypeError):
                first[0] = (0.0, 1.0)
        assert rp.bands() == build_resolvent(CaseTag.D, 1.0, k=0.5).bands()

    @pytest.mark.parametrize("case,k", [(CaseTag.A, None), (CaseTag.B, 0.3),
                                        (CaseTag.C, None), (CaseTag.D, 0.5),
                                        (CaseTag.D, 0.9), (CaseTag.NAHM, None)])
    def test_band_density_matches_density(self, case, k):
        # the density is (1/pi) Im gamma_hat(p - i0) at p = -lambda, and
        # sqrt_q realizes p + i0 on the real axis
        rp = build_resolvent(case, 1.0, k=k)
        for lo, hi in rp.bands():
            if math.isinf(hi):
                d_lo = np.logspace(-2, 3, 50)
                got = rp.band_density(lo, hi, d_lo)
            else:
                d_lo = (hi - lo) * np.linspace(0.01, 0.99, 50)
                got = rp.band_density(lo, hi, d_lo, (hi - lo) - d_lo)
            want = [-rp.gamma_hat(-(lo + d)).imag / math.pi for d in d_lo]
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)


class TestHeatCoefficients:
    @pytest.mark.parametrize("case,b,k", [(CaseTag.B, 1.0, 0.5), (CaseTag.B, 1.3, 0.9),
                                          (CaseTag.D, 1.0, 0.7), (CaseTag.NAHM, 1.0, None),
                                          (CaseTag.A, 1.0, None), (CaseTag.C, 0.8, None)])
    def test_first_three_are_the_moments_of_u(self, case, b, k):
        # gamma(t) = (4 pi t)^{-1/2} sum a_n t^n with a_0 = int 1,
        # a_1 = -int u, a_2 = (1/2) int u^2, so g_n = a_n Gamma(n + 1/2) /
        # (2 sqrt pi): g_0 = I0/2, g_1 = -int u/4, g_2 = (3/16) int u^2 over
        # a period; a kink is relative to u = nu, so a_0 = 0, u - nu
        # replaces u and u^2 - nu^2 = w (w + 2 nu) replaces u^2
        rp = build_resolvent(case, b, k=k)
        if rp.is_kink:
            # w falls as e^{-2 b |x|}, below 1e-15 at b |x| = 18
            x, h = np.linspace(-18.0 / b, 18.0 / b, 2001, retstep=True)
            w = rp.u_of_x(x) - rp.nu
            moments = (0.0, np.sum(w) * h, np.sum(w * (w + 2.0 * rp.nu)) * h)
        else:
            # the trapezoid rule over a period of the analytic u
            u = rp.u_of_x(rp.period * np.arange(512) / 512)
            moments = (rp.period, np.mean(u) * rp.period, np.mean(u * u) * rp.period)
        want = (moments[0] / 2.0, -moments[1] / 4.0, 3.0 * moments[2] / 16.0)
        for got, w in zip(rp.heat_coeffs(1.0)[:3], want):
            assert abs(got - w) <= 1e-13 * max(1.0, abs(w))


class TestLaplaceInversion:
    def test_case_a_is_erf(self):
        rp = build_resolvent(CaseTag.A, 1.0)
        inv = invert_laplace_gamma(rp, 1.0)
        assert not inv.unstable_sector
        # erf(1) from the series oracle: 0.8427007929497149
        assert inv.total == pytest.approx(0.8427007929497149, abs=1e-8)
        for t in (0.25, 0.5, 2.0):
            got = invert_laplace_gamma(rp, t).total
            assert got == pytest.approx(math.erf(math.sqrt(t)), abs=1e-8)

    @pytest.mark.parametrize("t", [1e-10, 1e-8, 1e-6, 1e-4])
    def test_case_a_small_t(self, t):
        # the continuum cancels the zero mode to within erf(b sqrt t)
        for b in (0.6, 1.0, 2.3):
            rp = build_resolvent(CaseTag.A, b)
            got = invert_laplace_gamma(rp, t).total
            assert abs(got - math.erf(b * math.sqrt(t))) <= 1e-13

    def test_case_a_tiny_t_within_estimate_or_raises(self):
        rp = build_resolvent(CaseTag.A, 1.0)
        try:
            inv = invert_laplace_gamma(rp, 1e-12)
        except ConvergenceError:
            return
        assert abs(inv.total - math.erf(1e-6)) <= inv.err_estimate

    @pytest.mark.parametrize("case,k", [(CaseTag.A, None), (CaseTag.B, 0.5),
                                        (CaseTag.C, None), (CaseTag.D, 0.5),
                                        (CaseTag.NAHM, None)])
    def test_subnormal_time_is_the_series_value(self, case, k):
        # t R <= 1, so the total is the heat-kernel series: per length the
        # Weyl term 1/sqrt(4 pi t) of a period, erf of a kink
        t = 5e-324
        rp = build_resolvent(case, 1.0, k=k)
        inv = invert_laplace_gamma(rp, t)
        if case is CaseTag.A:
            want = math.erf(math.sqrt(t))
        elif case is CaseTag.C:
            want = math.erf(2.0 * math.sqrt(t)) + math.erf(math.sqrt(t))
        else:
            # 4 pi t would round in the subnormal range; sqrt(t) is exact
            weyl = 1.0 / (2.0 * math.sqrt(math.pi) * math.sqrt(t))
            assert inv.total / rp.period == pytest.approx(weyl, rel=1e-12)
            return
        assert abs(inv.total - want) <= inv.err_estimate

    @pytest.mark.parametrize("case,k,t", [(CaseTag.B, 0.5, 1000.0),
                                          (CaseTag.NAHM, None, 800.0)])
    def test_overflow_is_a_convergence_error(self, case, k, t):
        # e^{|lambda| t} on the band below 0 overflows
        with pytest.raises(ConvergenceError, match="not finite"):
            invert_laplace_gamma(build_resolvent(case, 1.0, k=k), t)

    def test_case_a_long_time_limit(self):
        rp = build_resolvent(CaseTag.A, 1.0)
        assert invert_laplace_gamma(rp, 40.0).total == pytest.approx(
            1.0, abs=1e-6)

    def test_case_c_two_level_closed_form(self):
        # derived from the partial fractions of the trace: residues 1 at
        # lambda = 0, 3 b^2 plus the continuum depletion
        b = 1.0
        rp = build_resolvent(CaseTag.C, b)
        for t in (0.5, 1.0, 2.0):
            closed = math.erf(2 * b * math.sqrt(t)) \
                + math.exp(-3 * b * b * t) * math.erf(b * math.sqrt(t))
            assert invert_laplace_gamma(rp, t).total == pytest.approx(
                closed, abs=1e-8)

    def test_small_t_weyl_term(self):
        # full periodic trace: gamma(t) * 2 sqrt(pi t) -> period
        for case, k in [(CaseTag.B, 0.6), (CaseTag.NAHM, None)]:
            rp = build_resolvent(case, 1.0, k=k)
            t = 0.004
            tot = invert_laplace_gamma(rp, t).total
            assert tot * 2.0 * math.sqrt(math.pi * t) == pytest.approx(
                rp.period, rel=2e-2)

    def test_unstable_sector_flagged(self):
        rp = build_resolvent(CaseTag.D, 1.0, k=0.5)
        inv = invert_laplace_gamma(rp, 0.7)
        assert inv.unstable_sector
        assert inv.continuum_unstable > 0.0
        rp_a = build_resolvent(CaseTag.A, 1.0)
        assert not invert_laplace_gamma(rp_a, 0.7).unstable_sector

    @pytest.mark.parametrize("case,k", ALL_CASES)
    def test_bound_part_is_a_float(self, case, k):
        # a periodic case has no bound state; its bound part is 0.0, not the
        # int 0 of an empty sum, so the CLI prints it with 16 digits
        inv = invert_laplace_gamma(build_resolvent(case, 1.0, k=k), 0.5)
        assert type(inv.bound_part) is float
        assert (inv.bound_part == 0.0) == (case not in (CaseTag.A, CaseTag.C))

    def test_laplace_round_trip(self):
        # transforming gamma(t) back recovers gamma_hat(p) for p right of
        # the spectrum; t = v^2 absorbs the 1/sqrt(t) short-time growth and
        # a fixed composite Gauss grid reuses the inverted values per p
        rp = build_resolvent(CaseTag.B, 1.0, k=0.5)
        top = rp.roots[-1]
        nodes, weights = np.polynomial.legendre.leggauss(90)
        vs, ws = [], []
        for a, b in ((0.0, 1.0), (1.0, 3.0), (3.0, math.sqrt(42.0))):
            vs.append(0.5 * (b - a) * nodes + 0.5 * (a + b))
            ws.append(0.5 * (b - a) * weights)
        vs = np.concatenate(vs)
        ws = np.concatenate(ws)
        gam = np.array([invert_laplace_gamma(rp, v * v).total for v in vs])
        for p in np.linspace(top + 1.0, top + 6.0, 10):
            val = float(np.sum(ws * 2.0 * vs * gam * np.exp(-p * vs * vs)))
            assert val == pytest.approx(rp.gamma_hat(p).real, abs=1e-6)

    def test_domain_error(self):
        rp = build_resolvent(CaseTag.A, 1.0)
        for t in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                invert_laplace_gamma(rp, t)


def _count_calls(monkeypatch, name):
    """Record the arguments of every call of resolvent.<name>."""
    seen = []
    func = getattr(resolvent, name)

    def counted(*args):
        seen.append(args)
        return func(*args)

    monkeypatch.setattr(resolvent, name, counted)
    return seen


@pytest.fixture(autouse=True, scope="module")
def _fixed_weights_built():
    """The weights of the four fixed exponent pairs are built on first use;
    build them before a test counts the moment arrays a call builds."""
    resolvent._fixed_weights()


# the four pairs that do not depend on s, and the pair of a band that ends
# at lambda = 0 at s = 0.3 + 0.4i: -1/2 - s there, -1/2 at its other edge
WEIGHT_PAIRS = [(a, b) for a in (0.0, -0.5) for b in (0.0, -0.5)] + [(-0.8 - 0.4j, -0.5)]


def _rules(a, b):
    """(n, 1 + y, 1 - y, weights) of each rule for the pair (a, b)."""
    w = resolvent._fixed_weights().get((a, b))
    if w is None:
        w = resolvent._product_weights(a, b)
    n = resolvent._ORDER
    return [(m, resolvent._OPY[lo:lo + m], resolvent._OMY[lo:lo + m], w[lo:lo + m])
            for lo, m in ((0, n), (n, 2 * n))]


class TestFixedMoments:
    """The product weights of the four Jacobi weights that do not depend on
    s are computed once, on first use; a piece is one dot product with
    them."""

    def test_fixed_pairs(self):
        table = resolvent._fixed_weights()
        assert set(table) == {(a, b) for a in (0.0, -0.5) for b in (0.0, -0.5)}
        for (a, b), w in table.items():
            assert type(a) is type(b) is float
            assert w.tobytes() == resolvent._product_weights(a, b).tobytes()
        assert resolvent._fixed_weights() is table

    @pytest.mark.parametrize("a, b", WEIGHT_PAIRS)
    def test_weights_integrate_the_chebyshev_polynomials(self, a, b):
        # sum_j w_j (1 - y_j)^a (1 + y_j)^b T_k(y_j) = G_k for every k < n
        # of each rule: measured within 12.1 eps of |G_0| (the pair
        # (-1/2, -1/2) at 1,024 nodes), allowed as 32.  T_k(y_j) =
        # cos(pi k (2j + 1) / 2n) with the angle reduced mod 2 pi in integers
        g = resolvent._jacobi_moments(a, b, 2 * resolvent._ORDER)
        for n, opy, omy, w in _rules(a, b):
            m = np.outer(np.arange(n), 2 * np.arange(n) + 1) % (4 * n)
            got = np.cos(np.pi * m / (2 * n)) @ (w * omy ** a * opy ** b)
            assert np.max(np.abs(got - g[:n])) <= 32 * specfun._EPS * abs(g[0])

    @pytest.mark.parametrize("a, b", WEIGHT_PAIRS)
    def test_weights_agree_with_the_dct_route(self, a, b):
        # the route they replace: the integrand over the weight, its
        # Chebyshev coefficients by a DCT-II, dotted with the moments.  On
        # a smooth f both agree to within 1 eps of the value, allowed as 4
        from scipy.fft import dct
        g = resolvent._jacobi_moments(a, b, 2 * resolvent._ORDER)
        for n, opy, omy, w in _rules(a, b):
            y = opy - 1.0
            f = np.exp(0.7 * y) / (2.5 + y) + 1j * np.cos(3.0 * y)
            F = f * omy ** a * opy ** b
            c = dct(F * np.exp(-a * np.log(omy) - b * np.log(opy)), type=2) / n
            c[0] *= 0.5
            old, new = complex(c @ g[:n]), complex(F @ w)
            assert abs(new - old) <= 4 * specfun._EPS * max(1.0, abs(old))

    def test_float_pairs_come_from_the_table(self, monkeypatch):
        seen = _count_calls(monkeypatch, "_jacobi_moments")
        for case, k in ALL_CASES:
            invert_laplace_gamma(build_resolvent(case, 1.0, k=k), 0.5)
        assert seen == []

    def test_complex_exponents_at_s_zero_come_from_the_table(self, monkeypatch):
        # at s = 0 every exponent that carries s is a complex -1/2, looked
        # up by value
        seen = _count_calls(monkeypatch, "_jacobi_moments")
        ev = zetareg.zeta_contour(build_resolvent(CaseTag.B, 1.0, k=0.5), 0)
        assert cmath.isfinite(ev.value)
        assert seen == []


def _mirrored(a, mirror):
    """The exponent pair (a, -1/2), or (-1/2, a) when mirrored."""
    return (-0.5, a) if mirror else (a, -0.5)


EXPONENT = dict(re=st.floats(-0.95, 0.45),
                im=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
                mirror=st.booleans())


class TestClosedFormMoments:
    """Where one exponent is -1/2 the moments are the product
    G_{k+1} = G_k (k - a - 1/2) / (k + a + 3/2) (GR 3.631.8)."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(k=st.integers(0, 2 * resolvent._ORDER - 1), **EXPONENT)
    def test_against_the_gamma_ratio(self, re, im, mirror, k):
        # G_k(a, -1/2) = 2^{a+1/2} pi (-1)^k Gamma(2a+3) / (2^{2a+1} (2a+2)
        # Gamma(a+3/2+k) Gamma(a+3/2-k)), mirrored by (-1)^k.  G_0 through
        # the complex Gamma rounds to up to 35 eps and every factor of the
        # product adds under an eps: measured 41 eps at k = 63 and 250 at
        # k = 1023 (400 draws), allowed as (40 + k) eps
        a = complex(re, im) if im else re
        g = resolvent._jacobi_moments(*_mirrored(a, mirror), 2 * resolvent._ORDER)
        with mp.workdps(30):
            x = mp.mpmathify(a)
            want = complex((-1) ** (k * (1 + mirror)) * 2 ** (x + 0.5) * mp.pi
                           * mp.gamma(2 * x + 3) / (2 ** (2 * x + 1) * (2 * x + 2))
                           * mp.rgamma(x + 1.5 + k) * mp.rgamma(x + 1.5 - k))
        assert abs(g[k] - want) <= (40 + k) * specfun._EPS * abs(want)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**EXPONENT)
    def test_agrees_with_the_recurrence(self, re, im, mirror):
        # the recurrence that the other pairs run, from the same G_0, over
        # the first 40 moments: within 8.3 eps of |G_0| on 400 draws,
        # allowed as 16
        a, b = _mirrored(complex(re, im) if im else re, mirror)
        g = resolvent._jacobi_moments(a, b, 40)
        rec = resolvent._moment_recurrence(g[0], a, b, 40)
        assert np.max(np.abs(rec - g)) <= 16.0 * specfun._EPS * abs(g[0])

    def test_the_periodic_strip_never_runs_the_recurrence(self, monkeypatch):
        # evaluation counts, no timings: B and D at the benchmark's k and
        # NAHM, over real s in the strip, build one moment array per value
        # (none at s = 0, whose exponents are in the fixed table), and none
        # of them reaches the recurrence
        seen = _count_calls(monkeypatch, "_jacobi_moments")
        recurrences = _count_calls(monkeypatch, "_moment_recurrence")
        grid = (-0.45, -0.3, -0.1, 0.0, 0.1, 0.25, 0.4, 0.45, 0.48, 0.49)
        configs = [(case, k) for case in (CaseTag.B, CaseTag.D)
                   for k in (0.3, 0.5, 0.7, 0.9)] + [(CaseTag.NAHM, None)]
        for case, k in configs:
            rp = build_resolvent(case, 1.0, k=k)
            for s in grid:
                zetareg.zeta_contour(rp, s)
        assert len(seen) == len(configs) * (len(grid) - 1)
        assert recurrences == []
