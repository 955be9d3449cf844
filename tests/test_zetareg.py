"""Zeta functions: closed forms, Mellin continuation, contour route,
derivative at zero, and the one-loop correction."""

import cmath
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinkzeta import resolvent, specfun, zetareg
from kinkzeta.errors import (BranchCollisionError, ConvergenceError,
                             DomainError, PoleError)
from kinkzeta.resolvent import CaseTag, build_resolvent


class TestVacuumZeta:
    def test_d1_reference_value(self):
        # Gamma(1/2)/Gamma(1) / (2 sqrt(pi)) = 1/2 at s = 1, nu = 1
        assert zetareg.zeta_vacuum(1.0, 1.0, 1) == pytest.approx(0.5, rel=1e-13)

    def test_scaling_homogeneity(self):
        s, d = 0.8, 3
        for c in (0.5, 2.0, 7.3):
            lhs = zetareg.zeta_vacuum(s, c * 1.3, d)
            rhs = zetareg.zeta_vacuum(s, 1.3, d) * c ** (0.5 * d - s)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_mellin_route_d1(self):
        tr = zetareg.vacuum_heat_trace(1.0, 1)
        got = zetareg.mellin_zeta(tr, 1.0).value
        assert got == pytest.approx(zetareg.zeta_vacuum(1.0, 1.0, 1), abs=1e-8)

    def test_mellin_route_d2(self):
        tr = zetareg.vacuum_heat_trace(1.0, 2)
        got = zetareg.mellin_zeta(tr, 2.0).value
        assert got == pytest.approx(zetareg.zeta_vacuum(2.0, 1.0, 2), abs=1e-8)

    def test_pole_structure_residues(self):
        # simple poles at s = d/2 - n; the residue matches the Gamma-function
        # residue (-1)^n/n! divided by Gamma(s0), Richardson-extrapolated
        def residue(s0, nu, d):
            def r(eps):
                return ((eps) * zetareg.zeta_vacuum(s0 + eps, nu, d)).real
            e = 1e-4
            return 2.0 * r(e) - r(2.0 * e)  # removes the O(eps) term

        for d, nu, n in ((1, 1.7, 0), (3, 0.9, 0), (3, 1.0, 1), (2, 1.2, 0)):
            s0 = 0.5 * d - n
            pref = (2 * math.sqrt(math.pi)) ** (-d)
            expect = (pref * (-1.0) ** n / math.factorial(n)
                      / math.gamma(s0) * nu ** (0.5 * d - s0))
            assert residue(s0, nu, d) == pytest.approx(expect, abs=1e-8)

    def test_pole_error(self):
        with pytest.raises(PoleError):
            zetareg.zeta_vacuum(0.5, 1.0, 1)

    def test_pole_tolerance(self):
        # one non-positive-integer test, 1e-12 wide, at both of its callers
        for pole in (0.0, -2.0):
            with pytest.raises(PoleError):
                specfun.gamma_fn(pole + 5e-13)
            got = specfun.gamma_fn(pole + 5e-11)
            assert got.real == pytest.approx(float(mp.gamma(pole + 5e-11)),
                                             rel=1e-6)
        for d, s0 in ((1, 0.5), (3, -0.5)):
            with pytest.raises(PoleError):
                zetareg.zeta_vacuum(s0 + 5e-13, 1.3, d)
            got = zetareg.zeta_vacuum(s0 + 5e-11, 1.3, d)
            assert cmath.isfinite(got) and abs(got) > 1e8

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("s0", [0.0, -1.0, -2.0, -3.0])
    def test_odd_d_at_and_near_nonpositive_integers(self, s0, d):
        # 1/Gamma(s) = 0 at s = 0, -1, -2, ...: the value there is 0 (the
        # Mellin route agrees), and 1e-9 away the reflection's tangent, taken
        # from s less its nearest integer, keeps it finite and accurate
        nu = 2.0
        assert zetareg.zeta_vacuum(s0, nu, d) == 0.0
        tr = zetareg.vacuum_heat_trace(nu, d)
        assert zetareg.mellin_zeta(tr, s0).value == 0.0
        for s in (s0 - 1e-9, s0 + 1e-9):
            with mp.workdps(30):
                ref = complex(mp.gamma(s - mp.mpf(d) / 2) * mp.rgamma(s)
                              * (2 * mp.sqrt(mp.pi)) ** -d
                              * mp.mpf(nu) ** (mp.mpf(d) / 2 - s))
            got = zetareg.zeta_vacuum(s, nu, d)
            assert abs(got - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("s, nu, d", [
        (-300.0, 1e300, 1), (-300.5, 1e300, 2), (300.0, 1e-300, 3),
        (math.nan, 2.0, 1), (math.nan, 2.0, 2), (complex(0.3, math.nan), 2.0, 3)])
    def test_value_not_finite_is_a_domain_error(self, s, nu, d):
        # nu^{d/2 - s} overflows in cmath.exp, or s = nan gives nan
        with pytest.raises(DomainError, match="zeta_vacuum"):
            zetareg.zeta_vacuum(s, nu, d)

    @pytest.mark.parametrize("d", [0, -1, 5])
    def test_heat_trace_dimension(self, d):
        with pytest.raises(DomainError, match="d must be"):
            zetareg.vacuum_heat_trace(1.0, d)

    def test_vacuum_dprime_at_zero_d1(self):
        # zeta'(0) = -sqrt(nu) for -d^2/dx^2 + nu per unit length
        nu = 2.3
        h = 1e-4
        vals = [zetareg.zeta_vacuum(s, nu, 1).real
                for s in (-2 * h, -h, h, 2 * h)]
        d = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
        assert d == pytest.approx(-math.sqrt(nu), rel=1e-8)


class TestKinkZeta1d:
    def test_forced_values(self):
        assert zetareg.zeta_kink_1d(0.0, 1.0) == pytest.approx(-1.0, abs=1e-13)
        assert zetareg.zeta_kink_1d(1.0, 1.0) == pytest.approx(-0.5, abs=1e-13)

    def test_mellin_matches_closed(self):
        for b in (1.0, 2.0):
            tr = zetareg.erf_heat_trace(b)
            for s in (0.1, 0.3, 0.45):
                got = zetareg.mellin_zeta(tr, s).value
                assert got == pytest.approx(zetareg.zeta_kink_1d(s, b),
                                            abs=1e-7)

    def test_mellin_at_zero(self):
        got = zetareg.mellin_zeta(zetareg.erf_heat_trace(1.0), 0.0).value
        assert got == pytest.approx(-1.0, abs=1e-8)

    @pytest.mark.parametrize("b", [0.7, 1.3])
    def test_cancelled_gamma_poles(self, b):
        # at s = -1, -2 the pole of Gamma(s + 1) cancels: zeta is 0 there,
        # as the Mellin route gives; s = -1/2 is a true pole
        tr = zetareg.erf_heat_trace(b)
        for s in (-1.0, -2.0):
            assert zetareg.zeta_kink_1d(s, b) == 0.0
            assert zetareg.mellin_zeta(tr, s).value == zetareg.zeta_kink_1d(s, b)
        with pytest.raises(PoleError):
            zetareg.zeta_kink_1d(-0.5, b)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(re=st.floats(-0.5 + 1e-9, 10.0, exclude_min=True),
           im=st.floats(-20.0, 20.0), log_b=st.floats(-3.0, 3.0))
    @example(re=-0.5 + 2e-9, im=0.0, log_b=0.0)
    @example(re=-0.5 + 1e-6, im=0.0, log_b=0.0)
    def test_no_pole_on_the_kink_contour_strip(self, re, im, log_b):
        # zeta_contour takes a kink's Re s > -1/2 + 1e-9, and the closed
        # form's poles are at s = -1/2 - n: the first lies outside the strip
        assert cmath.isfinite(zetareg.zeta_kink_1d(complex(re, im), 10.0 ** log_b))

    @pytest.mark.parametrize("s", [1.0, 4.0, 7.0, 10.0])
    def test_mellin_within_estimate_up_to_the_bound(self, s):
        ev = zetareg.mellin_zeta(zetareg.erf_heat_trace(1.0), s)
        assert abs(ev.value - zetareg.zeta_kink_1d(s, 1.0)) <= ev.err_estimate

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(log_b=st.floats(-3.0, 3.0), s=st.floats(-0.45, 10.0))
    def test_mellin_within_estimate_over_scales(self, log_b, s):
        # the closed form -b^{-2s} Gamma(s + 1/2) / (sqrt(pi) Gamma(s + 1))
        # at 30 digits
        b = 10.0 ** log_b
        ev = zetareg.mellin_zeta(zetareg.erf_heat_trace(b), s)
        with mp.workdps(30):
            ref = -(mp.mpf(b) ** (-2 * mp.mpf(s)) * mp.gamma(mp.mpf(s) + 0.5)
                    / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(s) + 1)))
            assert abs(ev.value - ref) <= ev.err_estimate

    @pytest.mark.parametrize("s", [10.000001, 15.0, 50.0, 100.0, 1e8,
                                   -8.5, -20.0, -1e300, math.nan])
    def test_mellin_outside_its_bounds_is_a_domain_error(self, s):
        # Re s <= 10 above; below, minus the largest small-t exponent, 8.5
        with pytest.raises(DomainError, match="Re s"):
            zetareg.mellin_zeta(zetareg.erf_heat_trace(1.0), s)

    @pytest.mark.parametrize("s", [-4.6, -6.0 + 0.5j, -8.4])
    def test_mellin_integrand_overflow_is_a_domain_error(self, s):
        # inside the bounds, tau^(s - 1) overflows at a node near tau = 0
        with pytest.raises(DomainError, match="integrand overflows"):
            zetareg.mellin_zeta(zetareg.kink_trace_d(1.0, 1), s)

    @pytest.mark.parametrize("s, b", [(200.0, 0.01), (1e300, 0.5)])
    def test_overflowing_closed_form_is_a_domain_error(self, s, b):
        # b^{-2s} = 1e800 and 2^{2e300}; at b = 1 the value stays finite
        # past s = 171 (test_real_s_past_the_gamma_range_against_mpmath)
        with pytest.raises(DomainError, match="overflows"):
            zetareg.zeta_kink_1d(s, b)

    def test_zero_trace(self):
        tr = zetareg.HeatTrace(eval=lambda t: 0.0, scale=1.0)
        for s in (0.1, 0.5, 1.5):
            assert zetareg.mellin_zeta(tr, s).value == 0.0


def _zeta_d_mp(s, m, d):
    """The kink closed form zeta_d(s) in mpmath."""
    return (-mp.mpf(2) ** (2 - d) * mp.pi ** (-mp.mpf(d) / 2)
            * m ** (d - 1 - 2 * s) * mp.gamma(s + 1 - mp.mpf(d) / 2)
            * mp.rgamma(s) / (2 * s - d + 1))


class TestKinkZetaD:
    def test_d1_reduces(self):
        for s in (0.05, 0.3, 1.2):
            assert zetareg.zeta_d_kink(s, 1.4, 1) == pytest.approx(
                zetareg.zeta_kink_1d(s, 1.4), rel=1e-12)

    def test_mellin_route(self):
        for d in (1, 2, 3):
            for s in (0.1, 0.35):
                got = zetareg.mellin_zeta(zetareg.kink_trace_d(1.0, d), s).value
                ref = zetareg.zeta_d_kink(s, 1.0, d)
                assert got == pytest.approx(ref, abs=1e-6)

    def test_mellin_route_at_zero(self):
        for d in (1, 2, 3):
            got = zetareg.mellin_zeta(zetareg.kink_trace_d(1.3, d), 0.0).value
            ref = zetareg.zeta_d_kink(0.0, 1.3, d)
            assert got == pytest.approx(ref, abs=1e-6)

    def test_derivative_symbolic_oracles(self):
        # d=1: 2 ln(2m); d=2: (2m/pi)(1 - ln m); d=3: -m^2/(2 pi);
        # d=4: -m^3/(4 pi^2) (5/9 - (2/3) ln m)
        for m in (0.5, 1.0, 2.0):
            assert zetareg.derivative_at_zero(m, 1) == pytest.approx(
                2.0 * math.log(2.0 * m), abs=1e-13)
            assert zetareg.derivative_at_zero(m, 2) == pytest.approx(
                2.0 * m / math.pi * (1.0 - math.log(m)), abs=1e-13)
            assert zetareg.derivative_at_zero(m, 3) == pytest.approx(
                -m * m / (2.0 * math.pi), abs=1e-13)
            assert zetareg.derivative_at_zero(m, 4) == pytest.approx(
                -m ** 3 / (4.0 * math.pi ** 2)
                * (5.0 / 9.0 - 2.0 / 3.0 * math.log(m)), abs=1e-13)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_derivative_matches_mpmath(self, d):
        # independent of the four formulas: mpmath differentiates the
        # closed form zeta_d(s) itself at 40 digits
        with mp.workdps(40):
            for m in (0.3, 1.7, 2.72):
                # s = 0 is a removable point of Gamma(s + 1 - d/2) / Gamma(s)
                # for d = 1, 3; differentiate just off it
                ref = mp.diff(lambda s: _zeta_d_mp(s, mp.mpf(m), d), mp.mpf("1e-30"))
                got = zetareg.derivative_at_zero(m, d)
                assert abs(got - float(ref)) <= 4e-16 * max(1.0, abs(got))

    @pytest.mark.parametrize("m,d", [(0.0, 1), (-1.0, 2), (1.0, 0), (1.0, 5)])
    def test_derivative_domain(self, m, d):
        with pytest.raises(DomainError):
            zetareg.derivative_at_zero(m, d)

    def test_derivative_richardson_stability(self):
        # recomputing with halved stencils moves the value below 1e-7
        def stencil(m, d, h):
            f = lambda x: zetareg.zeta_d_kink(x, m, d).real
            return (f(-2 * h) - 8 * f(-h) + 8 * f(h) - f(2 * h)) / (12 * h)
        for m, d in ((0.7, 1), (1.3, 2), (2.1, 3)):
            assert abs(stencil(m, d, 1e-3) - stencil(m, d, 5e-4)) < 1e-7

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(d=st.sampled_from([1, 3]), log_m=st.floats(-3.0, 3.0),
           s=st.floats(-0.45, 10.0))
    def test_real_s_against_mpmath(self, d, log_m, s):
        # real s takes the Gamma ratio from math.gamma: up to 12.2 eps on
        # 10,800 draws of this domain
        if d == 3 and min(abs(s - 0.5), abs(s - 1.0)) < 1e-3:
            return   # the poles at s = 1/2 and 1
        m = 10.0 ** log_m
        got = zetareg.zeta_d_kink(s, m, d)
        with mp.workdps(40):
            # the d = 1 ratio in the form that is regular at s = 0
            ref = (_zeta_d_mp(mp.mpf(s), mp.mpf(m), d) if d == 3 else
                   -mp.mpf(m) ** (-2 * mp.mpf(s)) / mp.sqrt(mp.pi)
                   * mp.gamma(mp.mpf(s) + 0.5) * mp.rgamma(mp.mpf(s) + 1))
        assert got.imag == 0.0
        assert abs(got.real - ref) <= 16.0 * specfun._EPS * abs(ref)

    @pytest.mark.parametrize("d, s", [(1, 170.6), (3, 171.5), (3, 1e-310),
                                      (1, -171.3), (3, -170.3)])
    def test_real_s_where_a_gamma_overflows(self, d, s):
        # at the edges of math.gamma's range (it overflows past 171.62, and
        # Gamma(s) is subnormal near s = -171 and about 1/s at a subnormal s)
        # the ratio Gamma(x) / Gamma(x + 1/2) stays finite: math.gamma's
        # quotient at s = 170.6 and 171.5, and for x < 0 the reflection, its
        # tangent from x + 1/2 less the nearest integer, then math.gamma at
        # the exact pair 169.8, 170.3 for s = -171.3 and -170.3
        with mp.workdps(40):
            ref = _zeta_d_mp(mp.mpf(s), mp.mpf(1), d)
        assert abs(zetareg.zeta_d_kink(s, 1.0, d) - ref) <= 1e-12 * abs(ref)

    def test_real_s_past_the_gamma_range_against_mpmath(self):
        # |s| log-spaced over [170, 1e4], both signs: Gamma(x)/Gamma(x + 1/2)
        # from the Stirling series, after the reflection for s < 0; up to
        # 2.5 eps on 8,000 such points
        grid = np.logspace(math.log10(170.0), 4.0, 40)
        for d in (1, 3):
            for s in [float(v) for v in np.concatenate([grid, -grid])]:
                with mp.workdps(40):
                    ref = _zeta_d_mp(mp.mpf(s), mp.mpf(1), d)
                got = zetareg.zeta_d_kink(s, 1.0, d)
                assert got.imag == 0.0
                assert abs(got.real - ref) <= 16.0 * specfun._EPS * abs(ref), (d, s)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("s", [-175.3, -250.3])
    def test_real_s_where_both_gamma_routes_fail_is_a_domain_error(self, d, s):
        # math.gamma is subnormal or 0.0 there, and the complex route's
        # Gamma and 1/Gamma reach 0 and inf.  Both points raised DomainError
        # before the Stirling route, whence the name; now they return the
        # closed form within 16 eps of mpmath
        x, y = (s + 0.5, s + 1.0) if d == 1 else (s - 0.5, s)
        assert abs(math.gamma(x)) < sys.float_info.min
        assert abs(specfun.gamma_fn(complex(x))) < sys.float_info.min
        assert not cmath.isfinite(complex(zetareg.rgamma(complex(y))))
        with mp.workdps(40):
            ref = _zeta_d_mp(mp.mpf(s), mp.mpf(1), d)
        got = zetareg.zeta_d_kink(s, 1.0, d)
        assert got.imag == 0.0
        assert abs(got.real - ref) <= 16.0 * specfun._EPS * abs(ref)

    @pytest.mark.parametrize("d", [1, 3])
    def test_real_s_where_the_closed_form_overflows_is_a_domain_error(self, d):
        # m^{d - 1 - 2s} = 2^{2e4} at s = -1e4
        with pytest.raises(DomainError):
            zetareg.zeta_d_kink(-1e4 - 0.3, 2.0, d)

    def test_d4_smooth_at_zero(self):
        v = zetareg.zeta_d_kink(0.0, 1.0, 4)
        assert v == pytest.approx(-0.25 / math.pi ** 2 / 3.0, rel=1e-12)

    def test_pole_errors(self):
        with pytest.raises(PoleError):
            zetareg.zeta_d_kink(0.5, 1.0, 2)
        with pytest.raises(PoleError):
            zetareg.zeta_d_kink(1.0, 1.0, 3)
        with pytest.raises(DomainError):
            zetareg.zeta_d_kink(0.2, 1.0, 5)


class TestQuantumCorrection:
    def test_linear_in_hbar(self):
        a = zetareg.quantum_correction(1.3, 2, hbar=1.0)
        b = zetareg.quantum_correction(1.3, 2, hbar=2.0)
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_d1_reference(self):
        # -(hbar/2) zeta'(0) with zeta'(0) = 2 ln(2m): m = 1 gives -ln 2
        assert zetareg.quantum_correction(1.0, 1) == pytest.approx(
            -math.log(2.0), abs=1e-8)

    def test_sign_convention(self):
        m = 1.0  # zeta'(0) = 2 ln 2 > 0, so the correction is negative
        assert zetareg.quantum_correction(m, 1) < 0.0

    def test_half_convention(self):
        a = zetareg.quantum_correction(1.5, 3)
        b = zetareg.quantum_correction(1.5, 3, half_convention=True)
        assert b == pytest.approx(0.5 * a, rel=1e-12)

    @pytest.mark.parametrize("m, d", [(1e200, 4), (1e300, 3), (1e308, 2)])
    def test_overflowing_derivative_is_a_domain_error(self, m, d):
        with pytest.raises(DomainError, match="overflows"):
            zetareg.derivative_at_zero(m, d)
        with pytest.raises(DomainError, match="overflows"):
            zetareg.quantum_correction(m, d)

    def test_overflowing_correction_is_a_domain_error(self):
        assert math.isfinite(zetareg.derivative_at_zero(1e150, 3))
        with pytest.raises(DomainError, match="overflows"):
            zetareg.quantum_correction(1e150, 3, hbar=1e300)


class TestContour:
    def test_case_a_matches_closed_form(self):
        rp = build_resolvent(CaseTag.A, 1.0)
        for s in (0.05, 0.1, 0.2, 0.3, 0.45):
            ev = zetareg.zeta_contour(rp, s)
            assert abs(ev.value - zetareg.zeta_kink_1d(s, 1.0)) < 1e-6

    def test_case_a_negative_s(self):
        # finite and continuous through s values where the Gamma factors of
        # the Mellin route have poles nearby
        rp = build_resolvent(CaseTag.A, 1.0)
        grid = (-0.3, -0.1, 0.05, 0.2, 0.4)
        vals = [zetareg.zeta_contour(rp, s).value for s in grid]
        for s, v in zip(grid, vals):
            assert cmath.isfinite(v)
            assert abs(v - zetareg.zeta_kink_1d(s, 1.0)) < 1e-6

    def test_case_c_matches_mellin_of_two_level_trace(self):
        # independent oracle: Mellin transform of the two-level trace
        # erf(2b sqrt t) + e^{-3 b^2 t} erf(b sqrt t)
        b = 1.0
        rp = build_resolvent(CaseTag.C, b)
        tr = zetareg.HeatTrace(
            eval=lambda t: math.erf(2 * b * math.sqrt(t))
            + math.exp(-3 * b * b * t) * math.erf(b * math.sqrt(t)),
            scale=1.0 / (b * b), large_t=((0.0, 1.0),))
        for s in (0.1, 0.3):
            mel = zetareg.mellin_zeta(tr, s).value
            # the lambda = 3 b^2 bound state enters the Mellin route inside
            # the plateau split; the contour carries it as a pole term
            con = zetareg.zeta_contour(rp, s).value
            assert con.real == pytest.approx(mel.real, abs=1e-6)
            assert abs(con.imag) < 1e-10

    def test_case_c_bound_state_at_small_b(self):
        # zeta scales as b^{-2s}; the bound state at lambda = 3 b^2 = 3e-14
        # is a pole term like any other (it was taken for the zero mode)
        s = 0.3
        ref = zetareg.zeta_contour(build_resolvent(CaseTag.C, 1.0), s).value
        small = zetareg.zeta_contour(build_resolvent(CaseTag.C, 1e-7), s).value
        assert small == pytest.approx(ref * 1e-7 ** (-2.0 * s), rel=1e-12)

    def test_bound_state_overflow_is_a_domain_error(self):
        # (3 b^2)^{-s} = (3e-60)^{-9} passes the largest float
        with pytest.raises(DomainError, match="bound-state term"):
            zetareg.zeta_contour(build_resolvent(CaseTag.C, 1e-30), 9.0)

    def test_complex_s(self):
        rp = build_resolvent(CaseTag.A, 1.0)
        s = 0.2 + 0.15j
        ev = zetareg.zeta_contour(rp, s)
        assert abs(ev.value - zetareg.zeta_kink_1d(s, 1.0)) < 1e-6

    def test_phase_overflow_is_a_convergence_error(self):
        # e^{-i pi s} on the band below 0 overflows at Im s = 400
        rp = build_resolvent(CaseTag.D, 1.0, k=0.5)
        with pytest.raises(ConvergenceError, match="not finite"):
            zetareg.zeta_contour(rp, 0.2 + 400j)

    @pytest.mark.parametrize("case, k", [(CaseTag.B, 0.5), (CaseTag.D, 0.5),
                                         (CaseTag.NAHM, None)])
    def test_modulus_overflow_is_a_convergence_error(self, case, k):
        # at Im s = 1e300 the modulus of a piece's complex value passes the
        # largest float inside the band integral
        rp = build_resolvent(case, 1.0, k=k)
        with pytest.raises(ConvergenceError, match="not finite"):
            zetareg.zeta_contour(rp, 0.1 + 1e300j)

    def test_nahm_self_convergence(self):
        rp = build_resolvent(CaseTag.NAHM, 1.0)
        ev = zetareg.zeta_contour(rp, 0.25)
        assert ev.err_estimate < 1e-6
        assert cmath.isfinite(ev.value)
        # unstable band contributes the e^{-i pi s} phase: genuinely complex
        assert abs(ev.value.imag) > 1e-3

    # 30-digit mpmath values, rounded to double, at points where the edge
    # substitution of the adaptive route broke down: from
    # kzbench/reference.json (written by kzbench/reference.py), and D at
    # k = 0.9 from contour_reference.Periodic("d", 0.9).zeta(0.48)
    STRIP_EDGE = {
        ("b", 0.5, 0.48): -25.875460987984713 - 8.509128380776717j,
        ("b", 0.5, 0.49): -52.731498082333935 - 15.995630783637507j,
        ("d", 0.5, 0.48): -25.69932374583315 - 14.744637804414573j,
        ("d", 0.5, 0.49): -52.551872946620776 - 28.738027419987517j,
        ("d", 0.9, 0.48): -30.879309455992544 - 86.79273852866528j,
        ("nahm", None, 0.48): -8.99978642866043 - 0.5675312731115891j,
        ("nahm", None, 0.49): -17.832436129572912 - 0.5617313431862924j,
    }

    @pytest.mark.parametrize("case,k,s", list(STRIP_EDGE))
    def test_strip_edge_matches_mpmath(self, case, k, s):
        want = self.STRIP_EDGE[case, k, s]
        ev = zetareg.zeta_contour(build_resolvent(case, 1.0, k=k), s)
        assert abs(ev.value - want) <= 1e-8 * abs(want)
        assert abs(ev.value - want) <= ev.err_estimate + 1e-12 * abs(want)

    @pytest.mark.parametrize("case,k", [(CaseTag.A, None), (CaseTag.C, None),
                                        (CaseTag.B, 0.5), (CaseTag.D, 0.5),
                                        (CaseTag.NAHM, None)])
    def test_band_integrator_raises_no_warning(self, monkeypatch, case, k):
        # the heat trace and the contour zeta share the product rules and
        # run no quad; neither route warns
        def no_quad(*args, **kwargs):
            raise AssertionError("quad called on a band route")
        monkeypatch.setattr(resolvent, "quad", no_quad)
        monkeypatch.setattr(zetareg, "quad", no_quad)
        rp = build_resolvent(case, 1.0, k=k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e-10, 0.5, 4.0):
                resolvent.invert_laplace_gamma(rp, t)
            zetareg.zeta_contour(rp, 0.25)

    def test_periodic_strip_guard(self):
        rp = build_resolvent(CaseTag.B, 1.0, k=0.5)
        with pytest.raises(BranchCollisionError):
            zetareg.zeta_contour(rp, 0.7)
        with pytest.raises(BranchCollisionError):
            zetareg.zeta_contour(rp, -0.6)
        # known from the input before any quadrature: bad input, not a
        # numerical failure
        assert issubclass(BranchCollisionError, DomainError)
        assert not issubclass(BranchCollisionError, ConvergenceError)

    @pytest.mark.parametrize("case", [CaseTag.A, CaseTag.C])
    def test_kink_re_s_bound(self, case):
        rp = build_resolvent(case, 1.0)
        assert cmath.isfinite(zetareg.zeta_contour(rp, 10.0).value)
        for s in (10.000001, 100.0, 1e4, math.nan):
            with pytest.raises(DomainError, match="Re s"):
                zetareg.zeta_contour(rp, s)

    def test_method_triangle_case_a(self):
        rp = build_resolvent(CaseTag.A, 1.0)
        tr = zetareg.erf_heat_trace(1.0)
        for s in (0.1, 0.2, 0.25, 0.3, 0.4):
            closed = zetareg.zeta_kink_1d(s, 1.0)
            mellin = zetareg.mellin_zeta(tr, s).value
            contour = zetareg.zeta_contour(rp, s).value
            assert abs(closed - mellin) < 1e-6
            assert abs(closed - contour) < 1e-6
            assert abs(mellin - contour) < 1e-6


class TestDimensionalReduction:
    def test_product_trace_consistency(self):
        # gamma_total = gamma_k x transverse vacuum factor: the Mellin route
        # through the product trace agrees with the closed d-form
        for d in (2, 3):
            tr = zetareg.kink_trace_d(1.0, d)
            for s in (0.05, 0.3):
                got = zetareg.mellin_zeta(tr, s).value
                assert got == pytest.approx(zetareg.zeta_d_kink(s, 1.0, d),
                                            abs=1e-6)


def zeta_a_closed(s, b):
    """Case A closed form -b^{-2s} Gamma(s + 1/2) / (sqrt(pi) Gamma(s + 1)),
    at 30 digits."""
    with mp.workdps(30):
        s, b = mp.mpf(s), mp.mpf(b)
        return float(-b ** (-2 * s) * mp.gamma(s + 0.5)
                     / (mp.sqrt(mp.pi) * mp.gamma(s + 1)))


def zeta_c_closed(s, b):
    """Case C closed form: the A kink at 2b plus the Mellin image of the
    e^{-3 b^2 t} erf(b sqrt t) bound-state term, at 30 digits."""
    with mp.workdps(30):
        s, b = mp.mpf(s), mp.mpf(b)
        za = -(2 * b) ** (-2 * s) * mp.gamma(s + 0.5) / (
            mp.sqrt(mp.pi) * mp.gamma(s + 1))
        bound = (2 * b / mp.sqrt(mp.pi) * mp.gamma(s + 0.5)
                 * (3 * b * b) ** (-s - 0.5)
                 * mp.hyp2f1(0.5, s + 0.5, 1.5, -mp.mpf(1) / 3) * mp.rgamma(s))
        return complex(za + bound)


class TestCaseCProperty:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(b=st.floats(0.5, 2.0), s=st.floats(-0.45, 0.45))
    @example(b=0.706165, s=0.25)
    def test_double_root_and_closed_form(self, b, s):
        rp = build_resolvent(CaseTag.C, b)
        assert rp.roots[1] == rp.roots[2]
        assert rp.roots[1] == pytest.approx(-3 * b * b, rel=1e-12)
        want = zeta_c_closed(s, b)
        got = zetareg.zeta_contour(rp, s).value
        assert abs(got - want) <= 1e-9 * abs(want)


class TestKinkContourEstimate:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=st.sampled_from([CaseTag.A, CaseTag.C]),
           log_b=st.floats(-3.0, 3.0), s=st.floats(-0.45, 10.0))
    def test_within_estimate_of_mpmath(self, case, log_b, s):
        # the product rule's real-exponent moments and the bound state's
        # lam ** -s keep the kink contour within its estimate over (b, s)
        b = 10.0 ** log_b
        want = zeta_a_closed(s, b) if case is CaseTag.A else zeta_c_closed(s, b)
        ev = zetareg.zeta_contour(build_resolvent(case, b), s)
        assert abs(ev.value - want) <= ev.err_estimate


class TestKinkThreeRoutes:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(case=st.sampled_from([CaseTag.A, CaseTag.C]),
           log_b=st.floats(-3.0, 3.0), s=st.floats(-0.45, 10.0))
    def test_routes_agree_within_their_estimates(self, case, log_b, s):
        # A: the library closed form, the Mellin transform of erf(b sqrt t)
        # and the contour, pairwise within the routes' estimates; the closed
        # form's real Gamma ratio rounds to up to 12.2 eps (against mpmath
        # on 10,800 draws of this domain), allowed as 16 eps.  C: its
        # mpmath closed form and the contour
        b = 10.0 ** log_b
        contour = zetareg.zeta_contour(build_resolvent(case, b), s)
        if case is CaseTag.C:
            assert abs(contour.value - zeta_c_closed(s, b)) <= contour.err_estimate
            return
        closed = zetareg.zeta_kink_1d(s, b)
        rounding = 16.0 * specfun._EPS * abs(closed)
        mellin = zetareg.mellin_zeta(zetareg.erf_heat_trace(b), s)
        assert abs(mellin.value - closed) <= mellin.err_estimate + rounding
        assert abs(contour.value - closed) <= contour.err_estimate + rounding
        assert abs(mellin.value - contour.value) <= (mellin.err_estimate
                                                     + contour.err_estimate)


class TestTypedErrors:
    @pytest.mark.parametrize("trace, s", [
        (lambda: zetareg.vacuum_heat_trace(1.0, 2), 1.0),   # small-t term tau^-1
        (lambda: zetareg.kink_trace_d(1.0, 2), 0.5)],       # large-t term tau^-1/2
        ids=["small-t", "large-t"])
    def test_mellin_pole(self, trace, s):
        with pytest.raises(PoleError, match="mellin_zeta pole at s"):
            zetareg.mellin_zeta(trace(), s)

    @pytest.mark.parametrize("f, args", [
        (zetareg.zeta_vacuum, (1.0, 1.0, 2)), (zetareg.zeta_d_kink, (1.0, 1.0, 4))],
        ids=["vacuum d=2", "kink d=4"])
    def test_closed_form_pole(self, f, args):
        with pytest.raises(PoleError):
            f(*args)

    @pytest.mark.parametrize("f, args", [
        (zetareg.zeta_vacuum, (0.5, 0.0, 1)), (zetareg.zeta_vacuum, (0.5, 1.0, 5)),
        (zetareg.zeta_d_kink, (0.5, 0.0, 1)), (zetareg.kink_trace_d, (1.0, 5)),
        (zetareg.kink_trace_d, (0.0, 1)), (zetareg.vacuum_heat_trace, (0.0, 1))],
        ids=["vacuum nu=0", "vacuum d=5", "kink m=0", "kink trace d=5",
             "kink trace m=0", "vacuum trace nu=0"])
    def test_domain_error(self, f, args):
        with pytest.raises(DomainError):
            f(*args)


def _vacuum_mp(s, nu, d):
    """The vacuum closed form Gamma(s - d/2)/Gamma(s) (2 sqrt(pi))^{-d}
    nu^{d/2 - s} in mpmath."""
    return (mp.gamma(s - mp.mpf(d) / 2) * mp.rgamma(s) * (2 * mp.sqrt(mp.pi)) ** -d
            * mp.mpf(nu) ** (mp.mpf(d) / 2 - s))


def _sweep_s():
    """Real s over [-300, 300], derandomized: 200 uniform draws plus 40 in
    each window (-2^k, -2^k + 3/2] and its mirror [2^k - 3/2, 2^k), k = 1..8,
    where s -/+ 1/2 and s + 1 cross a power of two.  None lies within 1e-6
    of a pole of the closed forms (half-integers, and 1 and 2)."""
    rng = np.random.default_rng(27)
    draws = [rng.uniform(-300.0, 300.0, 200)]
    for k in range(1, 9):
        draws.append(-(2.0 ** k) + 1.5 * (1.0 - rng.random(40)))
        draws.append(2.0 ** k - 1.5 * (1.0 - rng.random(40)))
    s = np.concatenate(draws)
    assert np.all(np.abs(2.0 * s - np.round(2.0 * s)) > 2e-6)
    return [float(v) for v in s]


class TestClosedFormsAgainstMpmath:
    # every Gamma(x)/Gamma(x + 1/2) of the closed forms comes from one
    # routine with exact Gamma arguments; the former loggamma ratio (vacuum)
    # and math.gamma at a rounded s - 1/2 (kink, d = 3) were 23,955 and
    # 1,404 eps off on these draws
    S = _sweep_s()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_kink_real_s_within_16_eps(self, d):
        worst = 0.0
        for s in self.S:
            with mp.workdps(40):
                ref = _zeta_d_mp(mp.mpf(s), mp.mpf(1), d)
            got = zetareg.zeta_d_kink(s, 1.0, d)
            assert got.imag == 0.0
            worst = max(worst, abs(got.real - ref) / (specfun._EPS * abs(ref)))
        assert worst <= 16.0, worst

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_vacuum_real_s_within_16_eps(self, d):
        worst = 0.0
        for s in self.S:
            with mp.workdps(40):
                ref = _vacuum_mp(mp.mpf(s), 1, d)
            got = zetareg.zeta_vacuum(s, 1.0, d)
            assert got.imag == 0.0
            worst = max(worst, abs(got.real - ref) / (specfun._EPS * abs(ref)))
        assert worst <= 16.0, worst

    @pytest.mark.parametrize("s", [-63.501, -127.516])
    def test_kink_d3_where_s_minus_half_rounds(self, s):
        # s - 1/2 crosses a power of two and rounds next to a pole of
        # Gamma(s - 1/2): 32,141 and 4,310 eps through math.gamma there
        with mp.workdps(40):
            ref = _zeta_d_mp(mp.mpf(s), mp.mpf(1), 3)
        got = zetareg.zeta_d_kink(s, 1.0, 3)
        assert abs(got.real - ref) <= 16.0 * specfun._EPS * abs(ref)

    def test_complex_s_no_worse_than_the_complex_gamma(self):
        # complex s keeps the complex Gamma; on these draws the closed forms
        # before the single ratio were at worst 134.8 eps (kink) and 120.4
        # eps (vacuum, its loggamma difference) off 40-digit mpmath
        rng = np.random.default_rng(11)
        draws = [complex(a, b) for a, b in
                 zip(rng.uniform(-30.0, 30.0, 60), rng.uniform(-4.0, 4.0, 60))]
        for d in (1, 2, 3, 4):
            for s in draws:
                with mp.workdps(40):
                    kink = complex(_zeta_d_mp(mp.mpc(s), mp.mpf(1.7), d))
                    vac = complex(_vacuum_mp(mp.mpc(s), 1.7, d))
                assert abs(zetareg.zeta_d_kink(s, 1.7, d) - kink) <= 135.0 * specfun._EPS * abs(kink)
                assert abs(zetareg.zeta_vacuum(s, 1.7, d) - vac) <= 121.0 * specfun._EPS * abs(vac)

    @pytest.mark.parametrize("f, args", [
        (zetareg.zeta_d_kink, (math.nan, 1.0, 1)),
        (zetareg.zeta_d_kink, (math.nan, 1.0, 3)),
        (zetareg.zeta_d_kink, (complex(0.3, math.nan), 1.0, 2)),
        (zetareg.zeta_d_kink, (-math.inf, 1.0, 3)),
        (zetareg.zeta_kink_1d, (complex(0.3, math.inf), 1.0)),
        (zetareg.zeta_vacuum, (-math.inf, 2.0, 1)),
        (lambda s: zetareg.mellin_zeta(zetareg.erf_heat_trace(1.0), s),
         (complex(0.3, math.nan),)),
        (lambda s: zetareg.mellin_zeta(zetareg.kink_trace_d(1.0, 3), s),
         (complex(0.3, -math.inf),)),
        (lambda s: zetareg.zeta_contour(build_resolvent(CaseTag.A, 1.0), s),
         (complex(0.3, math.nan),)),
        (lambda s: zetareg.zeta_contour(build_resolvent(CaseTag.B, 1.0, k=0.5), s),
         (complex(0.3, math.inf),))],
        ids=["kink d=1 nan", "kink d=3 nan", "kink d=2 nan im", "kink d=3 -inf",
             "kink 1d inf im", "vacuum -inf", "mellin nan im", "mellin -inf im",
             "contour A nan im", "contour B inf im"])
    def test_non_finite_s_is_a_domain_error(self, f, args):
        # the contour raised ConvergenceError ("not finite") after a numpy
        # RuntimeWarning; a nan real part keeps its "Re s" message
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="requires a finite s"):
                f(*args)
