"""Classical solutions: equations of motion, first integrals, potentials,
energies.  Oracles are finite differences and independent quadrature."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kinkzeta import cli, models, specfun
from kinkzeta.errors import (ConvergenceError, DomainError,
                             EnergyDivergenceError, PoleError,
                             UnsupportedFamilyError)
from kinkzeta.models import Family, ModelSpec, SolutionKind


GL = ModelSpec(family=Family.GL, m=1.3, g=0.9)
SG = ModelSpec(family=Family.SG, m=1.1, g=1.4)
NAHM = ModelSpec(family=Family.NAHM, w=1.0)


def ode_residual(sol, x, h=1e-4):
    d2 = (sol.phi(x + h) - 2.0 * sol.phi(x) + sol.phi(x - h)) / (h * h)
    return d2 - models.potential_v(sol.spec, sol.phi(x), order=1)


def first_integral(sol, x):
    return 0.5 * sol.dphi(x) ** 2 - models.potential_v(sol.spec, sol.phi(x))


class TestPotential:
    @pytest.mark.parametrize("spec, phi, order", [
        (GL, 1e100, 0), (NAHM, 1e100, 0), (GL, 1e200, 0), (GL, 1e200, 1),
        (GL, 1e200, 2), (SG, math.nan, 0), (SG, math.inf, 1)])
    def test_overflow_is_a_domain_error(self, spec, phi, order):
        with pytest.raises(DomainError, match="not finite"):
            models.potential_v(spec, phi, order)

    def test_order_above_two_is_a_domain_error(self):
        with pytest.raises(DomainError, match="order"):
            models.potential_v(GL, 0.3, order=3)

    def test_gl_vacua(self):
        phi_v = GL.m / math.sqrt(GL.g)
        assert models.potential_v(GL, phi_v) == pytest.approx(0.0, abs=1e-14)
        assert models.potential_v(GL, -phi_v) == pytest.approx(0.0, abs=1e-14)

    def test_nahm_gradient(self):
        for phi in (-1.2, 0.4, 2.0):
            assert models.potential_v(NAHM, phi, order=1) == pytest.approx(
                2.0 * phi ** 3, rel=1e-14)

    def test_derivatives_by_finite_differences(self):
        h = 1e-5
        for spec in (GL, SG, NAHM):
            for phi in (-0.9, 0.3, 1.1):
                d1 = (models.potential_v(spec, phi + h)
                      - models.potential_v(spec, phi - h)) / (2 * h)
                assert models.potential_v(spec, phi, order=1) == pytest.approx(
                    d1, abs=1e-8)
                d2 = (models.potential_v(spec, phi + h, order=1)
                      - models.potential_v(spec, phi - h, order=1)) / (2 * h)
                assert models.potential_v(spec, phi, order=2) == pytest.approx(
                    d2, abs=1e-8)

    def test_sg_center_matches_well_depth(self):
        # V'' at the kink center equals u(0) + lambda from the fluctuation
        # potential, with an independent finite-difference V''
        sol = models.kink_solution(SG)
        h = 1e-5
        phi0 = sol.phi(0.0)
        d2 = (models.potential_v(SG, phi0 + h) - 2 * models.potential_v(SG, phi0)
              + models.potential_v(SG, phi0 - h)) / (h * h)
        u0 = models.schrodinger_potential(sol, 0.0)
        assert d2 == pytest.approx(u0 + models.potential_shift(sol), abs=1e-6)

    def test_sg_field_periodicity(self):
        Phi = SG.field_period
        for phi in (-1.0, 0.2, 0.9):
            assert models.potential_v(SG, phi + Phi) == pytest.approx(
                models.potential_v(SG, phi), abs=1e-12)

    def test_sg_small_g_matches_gl(self):
        # V_sg - 13 m^4/(12 g) - V_gl = O(g) at fixed phi
        m, phi = 1.0, 0.7
        def gap(g):
            sg = ModelSpec(family=Family.SG, m=m, g=g)
            gl = ModelSpec(family=Family.GL, m=m, g=g)
            return (models.potential_v(sg, phi)
                    - 13.0 * m ** 4 / (12.0 * g)
                    - models.potential_v(gl, phi))
        g = 1e-3
        ratio = gap(g) / g
        # leading mismatch is the quartic term -3 phi^4 / 16
        assert ratio == pytest.approx(-3.0 * phi ** 4 / 16.0, rel=0.05)


class TestKink:
    def test_gl_normalized_profile(self):
        spec = ModelSpec(family=Family.GL, m=math.sqrt(2.0), g=2.0)
        sol = models.kink_solution(spec)
        assert sol.b_or_sigma == pytest.approx(1.0)
        assert sol.phi(0.0) == 0.0
        assert sol.phi(20.0) == pytest.approx(1.0, abs=1e-12)

    def test_gl_first_order_equation(self):
        # (phi')^2 = (g/2)(phi^2 - m^2/g)^2 at W = 0
        sol = models.kink_solution(GL)
        for x in np.linspace(-3, 3, 41):
            lhs = sol.dphi(x) ** 2
            rhs = 0.5 * GL.g * (sol.phi(x) ** 2 - GL.m ** 2 / GL.g) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_sg_asymptotes(self):
        sol = models.kink_solution(SG)
        half = 0.5 * SG.field_period
        assert sol.phi(60.0 / SG.m) == pytest.approx(half, abs=1e-8)
        assert sol.phi(-60.0 / SG.m) == pytest.approx(-half, abs=1e-8)
        anti = models.kink_solution(SG, sign=-1)
        assert anti.phi(60.0 / SG.m) == pytest.approx(-half, abs=1e-8)

    def test_nahm_has_no_kink(self):
        with pytest.raises(UnsupportedFamilyError):
            models.kink_solution(NAHM)

    def test_ode_residual_and_first_integral(self):
        for spec in (GL, SG):
            sol = models.kink_solution(spec)
            xs = np.linspace(-5, 5, 1000)
            for x in xs[::37]:
                assert abs(ode_residual(sol, x)) < 1e-6
            w_vals = [first_integral(sol, x) for x in xs]
            assert max(abs(w - sol.w_const) for w in w_vals) < 1e-8

    def test_shift_invariance(self):
        sol = models.kink_solution(GL)
        x0 = 0.8342
        for x in (-1.0, 0.2, 2.1):
            assert abs(ode_residual(sol, x + x0)) < 1e-6


class TestPeriodic:
    def test_gl_limit_to_kink(self):
        spec = ModelSpec(family=Family.GL, m=1.2, g=1.0)
        k = 1.0 - 3e-9
        per = models.periodic_solution(spec, k=k)
        kink = models.kink_solution(spec)
        bk = spec.m / math.sqrt(2.0)
        for x in np.linspace(-2.5, 2.5, 21):
            # compare at matched argument scale b(k) x vs b x
            assert per.phi(x * bk / per.b_or_sigma) == pytest.approx(
                kink.phi(x), abs=1e-8)

    def test_sg_modulus_round_trip(self):
        for k in (0.2, 0.6, 0.95):
            W = models.w_from_modulus(SG, k)
            assert models.modulus_from_w(SG, W) == pytest.approx(k, abs=1e-12)

    def test_gl_modulus_round_trip(self):
        for k in (0.2, 0.6, 0.95):
            W = models.w_from_modulus(GL, k)
            assert models.modulus_from_w(GL, W) == pytest.approx(k, abs=1e-12)

    def test_first_integral_constancy(self):
        for spec, k in ((GL, 0.55), (SG, 0.7)):
            sol = models.periodic_solution(spec, k=k)
            xs = np.linspace(0.0, sol.period, 1000)
            drift = max(abs(first_integral(sol, x) - sol.w_const) for x in xs)
            assert drift < 1e-8

    def test_ode_residual(self):
        for spec, k in ((GL, 0.3), (GL, 0.9), (SG, 0.4), (SG, 0.85)):
            sol = models.periodic_solution(spec, k=k)
            for x in np.linspace(0.1, sol.period, 23):
                assert abs(ode_residual(sol, x)) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            models.periodic_solution(GL, k=1.2)
        with pytest.raises(DomainError):
            models.periodic_solution(GL)
        with pytest.raises(DomainError):
            models.periodic_solution(GL, k=0.5, W=-0.01)


class TestLengthScale:
    def test_overflowing_period_is_a_domain_error(self):
        # 2 K / b overflows although b = m / sqrt(1 + k^2) is not 0
        spec = ModelSpec(family="gl", m=5e-324, g=1.0)
        with pytest.raises(DomainError, match="overflows"):
            models.periodic_solution(spec, k=1e-10)

    @pytest.mark.parametrize("family", ["gl", "sg"])
    def test_overflowing_kink_box_is_a_domain_error(self, family):
        # 10 / b is finite, the box [-10/b, 10/b] is not
        spec = ModelSpec(family=family, m=1e-307, g=1.0)
        with pytest.raises(DomainError, match="overflows"):
            models.kink_solution(spec)

    def test_small_scales_still_build(self):
        sol = models.kink_solution(ModelSpec(family="gl", m=1e-306, g=1.0))
        assert math.isfinite(20.0 / sol.b_or_sigma)


class TestUnsupportedFamily:
    @pytest.mark.parametrize("call", [
        lambda: GL.field_period,
        lambda: models.modulus_from_w(NAHM, -0.1),
        lambda: models.w_from_modulus(NAHM, 0.5),
        lambda: models.nahm_solution(GL)],
        ids=["field_period GL", "modulus_from_w Nahm", "w_from_modulus Nahm",
             "nahm_solution GL"])
    def test_raises(self, call):
        with pytest.raises(UnsupportedFamilyError):
            call()


class TestNahm:
    def test_first_order_equation(self):
        sol = models.nahm_solution(NAHM)
        w = NAHM.w
        for x in np.linspace(0.01, 0.55, 19):
            resid = sol.dphi(x) ** 2 - sol.phi(x) ** 4 + w ** 4
            assert abs(resid) < 1e-8

    def test_ode_residual(self):
        sol = models.nahm_solution(NAHM)
        for x in np.linspace(0.02, 0.5, 11):
            assert abs(ode_residual(sol, x, h=1e-5)) < 1e-5

    def test_weierstrass_form_agrees(self):
        # phi^2 equals the Weierstrass function with invariants (4 w^4, 0);
        # with the origin at phi = w this is p(sqrt2 x + K1/w; w^4-scaled),
        # written below through the half-lattice shifted sn form.
        sol = models.nahm_solution(NAHM)
        w = NAHM.w
        params = specfun.weierstrass_params(1.0 / math.sqrt(2.0), w * w)
        K1 = specfun.ellipk(1.0 / math.sqrt(2.0))
        for x in (0.05, 0.21, 0.4):
            lhs = sol.phi(x) ** 2
            rhs = 2.0 * specfun.weierstrass_p(math.sqrt(2.0) * x + K1 / w,
                                              params)
            assert lhs == pytest.approx(rhs.real, rel=1e-8)
            assert abs(rhs.imag) < 1e-10

    def test_invariant_roots(self):
        # modulus 1/sqrt 2, spread w^2: g2 = w^4, g3 = 0, roots (w^2/2, 0, -w^2/2)
        w = 1.7
        p = specfun.weierstrass_params(1.0 / math.sqrt(2.0), w * w)
        assert (p.g2, p.g3) == pytest.approx((w ** 4, 0.0), abs=1e-10)
        assert (p.e1, p.e2, p.e3) == pytest.approx(
            (w * w / 2.0, 0.0, -w * w / 2.0), abs=1e-10)

    def test_pole_error(self):
        sol = models.nahm_solution(NAHM)
        x_pole = specfun.ellipk(1.0 / math.sqrt(2.0)) / (math.sqrt(2.0) * NAHM.w)
        with pytest.raises(PoleError):
            sol.phi(x_pole)

    def test_first_integral_value(self):
        sol = models.nahm_solution(NAHM)
        assert sol.w_const == pytest.approx(-0.5 * NAHM.w ** 4)
        assert first_integral(sol, 0.3) == pytest.approx(sol.w_const, abs=1e-10)

    def test_overflowing_period_is_a_domain_error(self):
        with pytest.raises(DomainError, match="period overflows"):
            models.nahm_solution(ModelSpec(family="nahm", w=5e-324))


class TestSchrodingerPotential:
    def test_gl_kink_form(self):
        sol = models.kink_solution(GL)
        b = sol.b_or_sigma
        assert models.schrodinger_potential(sol, 0.0) == pytest.approx(
            -6.0 * b * b, rel=1e-14)
        assert models.schrodinger_potential(sol, 50.0 / b) == pytest.approx(
            0.0, abs=1e-12)

    def test_shift_consistency(self):
        # u(x) = V''(phi(x)) - lambda with the case's shift, V'' independent
        sols = [models.kink_solution(GL), models.kink_solution(SG),
                models.periodic_solution(GL, k=0.6),
                models.periodic_solution(SG, k=0.6)]
        for sol in sols:
            lam = models.potential_shift(sol)
            for x in (-1.3, 0.0, 0.7):
                v2 = models.potential_v(sol.spec, sol.phi(x), order=2)
                u = models.schrodinger_potential(sol, x)
                assert u == pytest.approx(v2 - lam, abs=1e-10)

    def test_gl_periodic_limit_matches_kink_case(self):
        # k -> 1: periodic u tends to the kink u plus the 4 b^2 shift
        spec = ModelSpec(family=Family.GL, m=1.2, g=1.0)
        per = models.periodic_solution(spec, k=0.9999)
        kink = models.kink_solution(spec)
        b = kink.b_or_sigma
        for x in (0.0, 0.4, 1.0):
            xp = x * b / per.b_or_sigma
            assert models.schrodinger_potential(per, xp) == pytest.approx(
                models.schrodinger_potential(kink, x) + 4.0 * b * b, abs=2e-3)

    def test_nahm_potential_is_6_phi_squared(self):
        sol = models.nahm_solution(NAHM)
        for x in (0.1, 0.3):
            assert models.schrodinger_potential(sol, x) == pytest.approx(
                6.0 * sol.phi(x) ** 2, rel=1e-12)


class TestEnergies:
    def test_sg_kink_closed_form(self):
        spec = ModelSpec(family=Family.SG, m=2.0, g=1.0)
        rep = models.energy_report(models.kink_solution(spec))
        assert rep["closed_form"] == 64.0
        assert rep["quadrature"] == pytest.approx(64.0, abs=1e-9)

    def test_sg_periodic_limit(self):
        spec = ModelSpec(family=Family.SG, m=2.0, g=1.0)
        e_p = models.closed_form_energy(models.periodic_solution(spec, k=0.999))
        assert e_p == pytest.approx(16.0 * spec.m ** 2 / spec.g, rel=5e-3)

    def test_sg_periodic_quadrature_matches_closed(self):
        sol = models.periodic_solution(SG, k=0.6)
        rep = models.energy_report(sol)
        assert rep["quadrature"] == pytest.approx(rep["closed_form"], rel=1e-10)

    def test_gl_kink_against_sech4_oracle(self):
        # E = (2 b^4 / g) int sech^4(b x) dx = (2 b^3 / g) * (4/3)
        spec = ModelSpec(family=Family.GL, m=math.sqrt(2.0), g=2.0)
        rep = models.energy_report(models.kink_solution(spec))
        sech4, _ = quad(lambda y: 1.0 / math.cosh(y) ** 4, -40, 40,
                        epsabs=1e-13)
        b = spec.m / math.sqrt(2.0)
        oracle_val = 2.0 * b ** 3 / spec.g * sech4
        assert rep["quadrature"] == pytest.approx(oracle_val, abs=1e-9)
        assert rep["quadrature"] == pytest.approx(
            2.0 * math.sqrt(2.0) * spec.m ** 3 / (3.0 * spec.g), abs=1e-9)

    def test_gl_periodic_first_integral_identity(self):
        # E = int phi'^2 dx - W * period over one period
        sol = models.periodic_solution(GL, k=0.45)
        raw = models.classical_energy(sol)
        kin, _ = quad(lambda x: sol.dphi(x) ** 2, 0.0, sol.period,
                      epsabs=1e-12, epsrel=1e-12, limit=200)
        assert raw == pytest.approx(kin - sol.w_const * sol.period, abs=1e-9)

    @pytest.mark.parametrize("kwargs", [
        dict(family="sg", m=1e200), dict(family="gl", m=1e200),
        dict(family="gl", m=1e80, g=1e10), dict(family="nahm", w=1e200),
        dict(family="gl", m=1.0, g=1e-300), dict(family="gl", m=1e20, g=1e-150),
        dict(family="sg", m=1e-300, g=1e20), dict(family="sg", m=1e-300, g=1e60)])
    def test_energy_scale_overflow_is_a_domain_error(self, kwargs):
        # m^4 / g (w^4 for Nahm) is not finite, so V, W and the energy
        # density would overflow; or GL's (m^2/g)^2 or SG's c = sqrt(3g/2)/m
        with pytest.raises(DomainError, match="overflows"):
            ModelSpec(**kwargs)

    def test_nahm_overflow_next_to_the_poles_is_a_domain_error(self):
        # w^4 is finite, but phi^4 is not at the edge of the pole guard
        with pytest.raises(DomainError, match="overflows"):
            models.nahm_solution(ModelSpec(family="nahm", w=1e76))

    def test_nahm_energy_density_is_finite_up_to_the_pole_guard(self):
        w = 4e73   # just inside the domain: phi^4 there is about 1e308
        sol = models.nahm_solution(ModelSpec(family="nahm", w=w))
        x = (models._K_NAHM - 1.0001 * models._POLE_GAP) / (math.sqrt(2.0) * w)
        phi = sol.phi(x)
        e = 0.5 * sol.dphi(x) ** 2 + models.potential_v(sol.spec, phi)
        assert math.isfinite(e) and e > 1e307

    def test_divergent_and_invalid(self):
        with pytest.raises(EnergyDivergenceError):
            models.classical_energy(models.nahm_solution(NAHM))


def _jacobi_mp(sol, x):
    """sn, cn, dn of the solution's argument b x in mpmath; tanh, sech,
    sech for a kink."""
    u = mp.mpf(sol.b_or_sigma) * mp.mpf(x)
    if sol.k == 1.0:
        return mp.tanh(u), mp.sech(u), mp.sech(u)
    return tuple(mp.ellipfun(f, u, m=mp.mpf(sol.k) ** 2) for f in ("sn", "cn", "dn"))


def _reference(sol, x):
    """phi, phi', u and their scales in mpmath, from the textbook forms:
    GL phi = sqrt(2/g) k b sn, SG phi = 2 m sqrt(2/(3g)) asin(k sn)."""
    sn, cn, dn = _jacobi_mp(sol, x)
    b, k, g = (mp.mpf(v) for v in (sol.b_or_sigma, sol.k, sol.spec.g))
    if sol.spec.family is Family.GL:
        a = mp.sqrt(2 / g)
        shift = 4 if sol.kind is not SolutionKind.PERIODIC else 0
        return ((a * k * b * sn, a * k * b * b * cn * dn,
                 (5 * k * k - 1 - shift) * b * b - 6 * k * k * b * b * cn * cn),
                (a * b, a * b * b, 6 * b * b))
    a = 2 * mp.mpf(sol.spec.m) * mp.sqrt(2 / (3 * g))
    return ((a * mp.asin(k * sn), a * b * k * cn,
             b * b * (2 * k * k - 1 - 2 * k * k * cn * cn)),
            (a, a * b, 6 * b * b))


class TestFamilyProperty:
    """GL and SG over their family domain, the kink as k = 1, against
    mpmath and the first integral."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(family=st.sampled_from([Family.GL, Family.SG]),
           k=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
           m=st.floats(0.1, 10.0), g=st.floats(0.1, 10.0),
           t=st.floats(0.0, 1.0))
    def test_solution_against_mpmath(self, family, k, m, g, t):
        spec = ModelSpec(family=family, m=m, g=g)
        if k == 1.0:
            sol = models.kink_solution(spec)
            x = (2.0 * t - 1.0) * 10.0 / sol.b_or_sigma
        else:
            sol = models.periodic_solution(spec, k=k)
            x = t * sol.period
        got = (sol.phi(x), sol.dphi(x), models.schrodinger_potential(sol, x))
        with mp.workdps(40):
            ref, scale = _reference(sol, x)
            # 5e-13: the absolute accuracy of cn and dn as k -> 1 (1e-13 seen
            # within 1e-14 of k = 1), where SG phi and phi' follow dn and cn
            for v, r, sc in zip(got, ref, scale):
                assert abs(v - r) <= 5e-13 * sc
        W = 0.5 * got[1] ** 2 - models.potential_v(spec, got[0])
        assert abs(W - sol.w_const) <= 1e-14 * m ** 4 / g

    def test_kink_is_the_k_equals_one_member(self):
        # one scale rule: b = m / sqrt(1 + k^2) for GL, b = m for SG
        gl, sg = models.kink_solution(GL), models.kink_solution(SG)
        assert (gl.k, gl.period, gl.b_or_sigma) == (1.0, None, GL.m / math.sqrt(2.0))
        assert (sg.k, sg.period, sg.b_or_sigma) == (1.0, None, SG.m)

    @pytest.mark.parametrize("k", [0.5, 0.9, 0.999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
    def test_sg_phase_keeps_its_digits_as_k_tends_to_one(self, k):
        # m = g = 1, 400 points of a period: the asin(k sn) form erred by
        # 1.1e-13 at k = 1 - 1e-6 and 6.3e-11 at k = 1 - 1e-12, and
        # atan2(k sn, dn) by 6.2e-15 and 4.2e-14
        sol = models.periodic_solution(ModelSpec(family="sg", m=1.0, g=1.0), k=k)
        with mp.workdps(30):
            amp, m2 = 2 * mp.sqrt(mp.mpf(2) / 3), mp.mpf(k) ** 2
            worst = max(abs(sol.phi(x) - amp * mp.asin(k * mp.ellipfun("sn", x, m=m2)))
                        for x in np.linspace(0.0, sol.period, 400))
        assert worst <= (4e-15 if k <= 0.999 else 5e-14)


def _separate_forms(sol, x):
    """phi, phi' and u as three separate formulas, each over its own sn, cn,
    dn: the form that fields() must reproduce bit for bit."""
    s, spec, b, k = sol.branch_sign, sol.spec, sol.b_or_sigma, sol.k
    if spec.family is Family.NAHM:
        phi = s * spec.w / sol._nahm_sn_cn_dn(x)[1]
        sn, cn, dn = sol._nahm_sn_cn_dn(x)
        dphi = s * math.sqrt(2.0) * spec.w * spec.w * sn * dn / (cn * cn)
        u = 6.0 * (s * spec.w / sol._nahm_sn_cn_dn(x)[1]) ** 2
        return phi, dphi, u
    sn, _, dn = specfun.jacobi_sn_cn_dn(b * x, k)
    amp = 2.0 * spec.m * math.sqrt(2.0 / (3.0 * spec.g))
    if spec.family is Family.GL:
        phi = s * math.sqrt(2.0 / spec.g) * k * b * sn
    else:
        phi = s * amp * math.atan2(k * sn, dn)
    _, cn, dn = specfun.jacobi_sn_cn_dn(b * x, k)
    if spec.family is Family.GL:
        dphi = s * math.sqrt(2.0 / spec.g) * k * b * b * cn * dn
    else:
        dphi = s * amp * b * k * cn
    _, cn, _ = specfun.jacobi_sn_cn_dn(b * x, k)
    k2 = k ** 2
    if spec.family is Family.GL:
        c0 = 5.0 * k2 - 1.0 - (0.0 if sol.kind is SolutionKind.PERIODIC else 4.0)
        u = c0 * b * b - 6.0 * k2 * b * b * cn * cn
    else:
        u = b * b * (2.0 * k2 - 1.0 - 2.0 * k2 * cn * cn)
    return phi, dphi, u


def _bits(values):
    return [v.hex() for v in values]


class TestOneTriplePerPoint:
    """phi, phi' and u share one evaluation of sn, cn, dn per point."""

    def _assert_shared_equals_separate(self, sol, x):
        try:
            want = _separate_forms(sol, x)
        except PoleError:
            with pytest.raises(PoleError):
                sol.fields(x)
            return
        got = sol.fields(x)
        assert _bits(got) == _bits(want)
        assert _bits(got) == _bits((sol.phi(x), sol.dphi(x),
                                    models.schrodinger_potential(sol, x)))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(family=st.sampled_from([Family.GL, Family.SG, Family.NAHM]),
           k=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
           m=st.floats(0.1, 10.0), g=st.floats(0.1, 10.0),
           sign=st.sampled_from([1, -1]), t=st.floats(-1.0, 2.0))
    def test_bit_for_bit_with_the_separate_forms(self, family, k, m, g, sign, t):
        if family is Family.NAHM:
            sol = models.nahm_solution(ModelSpec(family=family, w=m), sign=sign)
            x = t * sol.period
        elif k == 1.0:
            sol = models.kink_solution(ModelSpec(family=family, m=m, g=g), sign=sign)
            x = t * 10.0 / sol.b_or_sigma
        else:
            sol = models.periodic_solution(ModelSpec(family=family, m=m, g=g),
                                           k=k, sign=sign)
            x = t * sol.period
        self._assert_shared_equals_separate(sol, x)

    @pytest.mark.parametrize("w", [0.7, 1.0, 3.0])
    @pytest.mark.parametrize("gap", [0.5, 0.999, 1.0001, 1.01, 2.0, 50.0])
    def test_rows_next_to_a_nahm_pole(self, w, gap):
        # poles at odd multiples of K in the cn argument sqrt(2) w x; a gap
        # below 1 (in units of the pole guard) raises PoleError
        sol = models.nahm_solution(ModelSpec(family="nahm", w=w))
        for pole in (models._K_NAHM, 3.0 * models._K_NAHM, -models._K_NAHM):
            for side in (-1.0, 1.0):
                arg = pole + side * gap * models._POLE_GAP
                self._assert_shared_equals_separate(sol, arg / (math.sqrt(2.0) * w))

    @staticmethod
    def _count_jacobi(monkeypatch):
        calls = []
        jacobi = specfun.jacobi_sn_cn_dn

        def counted(u, k):
            calls.append(u)
            return jacobi(u, k)

        monkeypatch.setattr(specfun, "jacobi_sn_cn_dn", counted)
        return calls

    @pytest.mark.parametrize("argv", [
        ["--family", "gl", "--kink"], ["--family", "sg", "--kink"],
        ["--family", "gl", "--k", "0.8"], ["--family", "sg", "--k", "0.8"]])
    def test_solution_makes_one_call_per_table(self, monkeypatch, capsys, argv):
        calls = self._count_jacobi(monkeypatch)
        assert cli.main(["solution", *argv, "--n", "37"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 38
        assert [np.shape(u) for u in calls] == [(37,)]

    @pytest.mark.parametrize("argv", [
        ["--family", "gl", "--kink"], ["--family", "sg", "--k", "0.8"]])
    def test_energy_makes_one_call_per_doubling_level(self, monkeypatch, capsys,
                                                     argv):
        # 64 nodes, then the midpoints of each level: 64, 128, 256, ...
        calls = self._count_jacobi(monkeypatch)
        assert cli.main(["energy", *argv]) == 0
        capsys.readouterr()
        sizes = [np.size(u) for u in calls]
        assert len(sizes) >= 2
        assert sizes == [64] + [64 * 2 ** j for j in range(len(sizes) - 1)]


def _pole_neighbours(w):
    """The points of test_rows_next_to_a_nahm_pole: 0.5 to 50 pole guards
    from three poles, on both sides."""
    return [(pole + side * gap * models._POLE_GAP) / (math.sqrt(2.0) * w)
            for pole in (models._K_NAHM, 3.0 * models._K_NAHM, -models._K_NAHM)
            for side in (-1.0, 1.0)
            for gap in (0.5, 0.999, 1.0001, 1.01, 2.0, 50.0)]


class TestArrayPath:
    """fields and potential_v on an ndarray against the float path: bit for
    bit, since both run one numpy body, with the Nahm pole rows NaN and
    marked by near_pole exactly where a float raises PoleError."""

    @staticmethod
    def _assert_array_matches_floats(sol, xs):
        xs = np.asarray(xs, dtype=float)
        got, pole = sol.fields(xs), sol.near_pole(xs)
        assert pole.dtype == bool and pole.shape == xs.shape
        want, raised = [], []
        for x in xs.tolist():
            try:
                want.append(sol.fields(x))
                raised.append(False)
            except PoleError:
                want.append((math.nan,) * 3)
                raised.append(True)
        assert pole.tolist() == raised
        want = np.array(want).T
        for g, w in zip(got, want):
            assert g.shape == xs.shape
            assert np.isnan(g[pole]).all()
            assert np.array_equal(g[~pole], w[~pole])
        phi = want[0][~pole]
        for order in (0, 1, 2):
            v = models.potential_v(sol.spec, phi, order)
            ref = np.array([models.potential_v(sol.spec, p, order)
                            for p in phi.tolist()])
            assert np.array_equal(v, ref)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(family=st.sampled_from([Family.GL, Family.SG, Family.NAHM]),
           k=st.one_of(st.just(1.0), st.floats(0.05, 1.0),
                       st.floats(-12.0, -5.0).map(lambda e: 1.0 - 10.0 ** e)),
           m=st.floats(0.1, 10.0), g=st.floats(0.1, 10.0),
           sign=st.sampled_from([1, -1]),
           t=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=30))
    def test_array_matches_floats(self, family, k, m, g, sign, t):
        if family is Family.NAHM:
            sol = models.nahm_solution(ModelSpec(family=family, w=m), sign=sign)
            xs = [ti * sol.period for ti in t] + _pole_neighbours(m)
        elif k == 1.0:
            sol = models.kink_solution(ModelSpec(family=family, m=m, g=g), sign=sign)
            xs = [ti * 10.0 / sol.b_or_sigma for ti in t]
        else:
            sol = models.periodic_solution(ModelSpec(family=family, m=m, g=g),
                                           k=k, sign=sign)
            xs = [ti * sol.period for ti in t]
        self._assert_array_matches_floats(sol, xs)

    @pytest.mark.parametrize("w", [0.7, 1.0, 3.0])
    def test_rows_next_to_a_nahm_pole(self, w):
        sol = models.nahm_solution(ModelSpec(family="nahm", w=w))
        xs = _pole_neighbours(w)
        self._assert_array_matches_floats(sol, xs)
        # a gap below 1 pole guard is a pole row: 2 of the 6 gaps per side
        assert sol.near_pole(np.array(xs)).sum() == 12

    def test_potential_overflow_in_an_array_is_a_domain_error(self):
        with pytest.raises(DomainError, match="not finite at phi = 1e"):
            models.potential_v(GL, np.array([0.0, 1.0, 1e200]))
        with pytest.raises(DomainError, match="not finite at phi = nan"):
            models.potential_v(SG, np.array([0.5, math.nan]))


_SOLUTIONS = {
    "gl-kink": lambda: models.kink_solution(GL),
    "sg-kink": lambda: models.kink_solution(SG, sign=-1),
    "gl-periodic": lambda: models.periodic_solution(GL, k=0.6),
    "sg-periodic": lambda: models.periodic_solution(SG, k=0.8),
    "nahm": lambda: models.nahm_solution(NAHM),
}


class TestFloatArgument:
    """A float argument gives numpy scalars of ndim 0, and a non-finite one
    is a DomainError."""

    @pytest.mark.parametrize("name", sorted(_SOLUTIONS))
    def test_numpy_scalars(self, name):
        sol = _SOLUTIONS[name]()
        values = [*sol.fields(0.3), sol.near_pole(0.3), sol.near_pole(-1.0)]
        values += [models.potential_v(sol.spec, 0.7, order) for order in (0, 1, 2)]
        for v in values:
            assert isinstance(v, np.generic) and np.ndim(v) == 0

    @pytest.mark.parametrize("name", sorted(_SOLUTIONS))
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_x_is_a_domain_error(self, name, x):
        sol = _SOLUTIONS[name]()
        for f in (sol.phi, sol.dphi, lambda x: models.schrodinger_potential(sol, x)):
            with pytest.raises(DomainError, match="needs a finite x"):
                f(x)


def _gl_periodic_energy_mp(m, g, k):
    """The GL energy per period from K(k), E(k) (ROADMAP item 4): phi = a
    sn(bx), S2 = int sn^2, S4 = int sn^4, C = int cn^2 dn^2 over (0, 2K)."""
    with mp.workdps(60):
        m, g, k = mp.mpf(m), mp.mpf(g), mp.mpf(k)
        k2 = k * k
        K, E = mp.ellipk(k2), mp.ellipe(k2)
        b = m / mp.sqrt(1 + k2)
        a2 = 2 * k2 * b * b / g
        s2 = 2 * (K - E) / k2
        s4 = 2 * ((2 + k2) * K - 2 * (1 + k2) * E) / (3 * k2 * k2)
        c = 2 * K - (1 + k2) * s2 + k2 * s4
        return float((a2 * b * b * c / 2
                      + g / 4 * (a2 * a2 * s4 - 2 * a2 * m * m / g * s2
                                 + 2 * K * m ** 4 / g ** 2)) / b)


class TestEnergyRule:
    """The periodic trapezoid rule of classical_energy against the closed
    forms, to 1e-13 relative."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(family=st.sampled_from([Family.GL, Family.SG]),
           k=st.one_of(st.just(1.0), st.floats(1e-4, 0.999),
                       st.floats(-12.0, -3.0).map(lambda e: 1.0 - 10.0 ** e),
                       st.floats(-4.0, -1.0).map(lambda e: 10.0 ** e)),
           m=st.floats(0.1, 10.0), g=st.floats(0.1, 10.0))
    def test_against_the_closed_forms(self, family, k, m, g):
        spec = ModelSpec(family=family, m=m, g=g)
        if k == 1.0:
            sol = models.kink_solution(spec)
        else:
            sol = models.periodic_solution(spec, k=k)
        if family is Family.SG:
            rep = models.energy_report(sol)
            got, want = rep["quadrature"], rep["closed_form"]
        elif k == 1.0:
            got, want = models.classical_energy(sol), 2.0 * math.sqrt(2.0) / 3.0 * m ** 3 / g
        else:
            got, want = models.classical_energy(sol), _gl_periodic_energy_mp(m, g, k)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_an_integrand_that_never_settles_raises(self, monkeypatch, capsys):
        # noise: no two levels agree (a jump can, where the counts of nodes
        # on each side happen to double exactly)
        rng = np.random.default_rng(7)
        monkeypatch.setattr(models, "_energy_density",
                            lambda sol, x: rng.random(x.shape))
        sol = models.periodic_solution(SG, k=0.5)
        with pytest.raises(ConvergenceError, match="did not settle"):
            models.classical_energy(sol)
        assert cli.main(["energy", "--family", "sg", "--k", "0.5"]) == 4
        assert "did not settle" in capsys.readouterr().err

    def test_kink_interval_overflow_is_a_domain_error(self):
        # 20 / b, the solution box, is finite; 80 / b is not
        sol = models.kink_solution(ModelSpec(family="sg", m=2e-307, g=1.0))
        with pytest.raises(DomainError, match="energy interval"):
            models.classical_energy(sol)

    @pytest.mark.parametrize("family,m,g", [
        ("sg", 1e-100, 1.0), ("gl", 1e-80, 1.0), ("gl", 1e-10, 1e300)])
    def test_density_scale_underflow_is_a_domain_error(self, family, m, g):
        sol = models.kink_solution(ModelSpec(family=family, m=m, g=g))
        with pytest.raises(DomainError, match="underflows"):
            models.classical_energy(sol)
