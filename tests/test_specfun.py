"""Special-function layer against independent oracles.

Oracles: adaptive quadrature of the defining integrals, direct series
summation, scipy's independent implementations, and finite differences.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipj

from kinkzeta import bakerakhiezer, models, resolvent, specfun
from kinkzeta.errors import ConvergenceError, DomainError, PoleError

EPS = 2.220446049250313e-16


def k_quadrature(k2: float) -> float:
    # oracle: direct integral, works for k^2 of either sign
    val, _ = quad(lambda th: 1.0 / math.sqrt(1.0 - k2 * math.sin(th) ** 2),
                  0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    return val


def e_quadrature(k2: float) -> float:
    val, _ = quad(lambda th: math.sqrt(1.0 - k2 * math.sin(th) ** 2),
                  0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    return val


class TestEllipticIntegrals:
    def test_k_at_zero(self):
        assert specfun.ellipk(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_k_against_quadrature(self):
        k = 1.0 / math.sqrt(2.0)
        assert specfun.ellipk(k) == pytest.approx(k_quadrature(k * k), rel=1e-12)

    def test_k_near_one_finite_and_domain_error(self):
        assert math.isfinite(specfun.ellipk(0.999999))
        with pytest.raises(DomainError):
            specfun.ellipk(1.0)

    def test_e_trivial_values(self):
        assert specfun.ellipke(0.0)[1] == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_e_against_quadrature(self):
        assert specfun.ellipke(0.5)[1] == pytest.approx(e_quadrature(0.25),
                                                        rel=1e-12)

    def test_imag_modulus_against_defining_integral(self):
        # K(i), E(i) of the Nahm moments are the k^2 = -1 integrals, real valued
        ki, ei = models._KE_IMAG
        assert ki == pytest.approx(k_quadrature(-1.0), rel=1e-12)
        assert ei == pytest.approx(e_quadrature(-1.0), rel=1e-12)

    def test_imag_modulus_identity(self):
        k1 = 1.0 / math.sqrt(2.0)
        ki, ei = models._KE_IMAG
        assert ki == pytest.approx(specfun.ellipk(k1) / math.sqrt(2.0), rel=1e-14)
        assert ei == pytest.approx(math.sqrt(2.0) * specfun.ellipke(k1)[1],
                                   rel=1e-14)

    def test_legendre_relation(self):
        for k in np.arange(0.1, 0.95, 0.1):
            kp = math.sqrt(1.0 - k * k)
            K, E = specfun.ellipke(k)
            Kp, Ep = specfun.ellipke(kp)
            assert E * Kp + Ep * K - K * Kp == pytest.approx(math.pi / 2.0,
                                                             abs=1e-12)

    def test_k_and_e_from_one_ladder(self):
        for k in (0.0, 1e-300, 0.3, 0.5, 0.8, 0.999999, 1.0 - 2.0 ** -53):
            assert specfun.ellipke(k)[0].hex() == specfun.ellipk(k).hex()
        with pytest.raises(DomainError):
            specfun.ellipke(1.0)

    def test_callers_walk_the_ladder_once_for_k_and_e(self, monkeypatch):
        walks = []
        agm = specfun._agm

        def counted(kp):
            walks.append(kp)
            return agm(kp)

        monkeypatch.setattr(specfun, "_agm", counted)
        sol = models.periodic_solution(models.ModelSpec("sg", m=1.0, g=1.0), k=0.6)
        walks.clear()
        models.closed_form_energy(sol)
        assert len(walks) == 1
        walks.clear()
        for case in (resolvent.CaseTag.B, resolvent.CaseTag.D):
            resolvent.build_resolvent(case, 1.0, k=0.6)
        assert len(walks) == 2
        walks.clear()
        specfun.weierstrass_params(0.6, 3.0)   # K and E, then K' from (1, k)
        assert len(walks) == 2
        walks.clear()
        # the Nahm moments read K(i), E(i), taken once at import
        resolvent.build_resolvent(resolvent.CaseTag.NAHM, 1.0)
        assert walks == []


class TestEllipticIntegralsAgainstMpmath:
    # K and E from the one AGM ladder, within 4 eps K of 40-digit values;
    # E = K (1 - csum) loses digits to the cancellation near k = 1, where
    # E << K, so its bound is taken relative to K
    @staticmethod
    def check(k):
        with mp.workdps(40):
            m = mp.mpf(k) ** 2
            K, E = float(mp.ellipk(m)), float(mp.ellipe(m))
        assert abs(specfun.ellipk(k) - K) <= 4 * EPS * K
        assert abs(specfun.ellipke(k)[1] - E) <= 4 * EPS * K

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                       st.floats(-16.0, -1.0).map(lambda e: 1.0 - 10.0 ** e),
                       st.floats(-300.0, -1.0).map(lambda e: 10.0 ** e)))
    def test_over_the_modulus(self, k):
        self.check(k)

    @pytest.mark.parametrize("j", range(1, 16))
    def test_near_one(self, j):
        self.check(1.0 - 10.0 ** -j)


class TestJacobiFunctions:
    def test_trig_limit(self):
        for u in (-2.0, 0.3, 1.7):
            sn, cn, dn = specfun.jacobi_sn_cn_dn(u, 0.0)
            assert sn == pytest.approx(math.sin(u), abs=1e-14)
            assert cn == pytest.approx(math.cos(u), abs=1e-14)
            assert dn == 1.0

    def test_origin(self):
        sn, cn, dn = specfun.jacobi_sn_cn_dn(0.0, 0.77)
        assert (sn, cn, dn) == (0.0, 1.0, 1.0)

    def test_quarter_period(self):
        k = 0.65
        K = specfun.ellipk(k)
        sn, cn, dn = specfun.jacobi_sn_cn_dn(K, k)
        assert sn == pytest.approx(1.0, abs=1e-12)
        assert abs(cn) < 1e-12
        assert dn == pytest.approx(math.sqrt(1.0 - k * k), abs=1e-12)

    def test_identities_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = rng.uniform(0.05, 0.95)
            u = rng.uniform(-4.0, 4.0) * specfun.ellipk(k)
            sn, cn, dn = specfun.jacobi_sn_cn_dn(u, k)
            assert sn * sn + cn * cn == pytest.approx(1.0, abs=1e-12)
            assert dn * dn + k * k * sn * sn == pytest.approx(1.0, abs=1e-12)

    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = rng.uniform(0.05, 0.98)
            u = rng.uniform(-4.0, 4.0) * specfun.ellipk(k)
            sn, cn, dn = specfun.jacobi_sn_cn_dn(u, k)
            s2, c2, d2, _ = ellipj(u, k * k)
            assert sn == pytest.approx(s2, abs=1e-12)
            assert cn == pytest.approx(c2, abs=1e-12)
            assert dn == pytest.approx(d2, abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(u=st.one_of(st.floats(-40.0, 40.0), st.floats(-1e6, 1e6)))
    @example(u=709.0)
    @example(u=-711.0)
    def test_separatrix_is_tanh_sech_sech(self, u):
        # k = 1 (DLMF 22.5.ii): numpy's tanh u and 1 / cosh u bit for bit,
        # with sech 0.0 where cosh overflows
        with np.errstate(over="ignore"):
            cosh = np.cosh(u)
        sech = 0.0 if cosh == math.inf else 1.0 / cosh
        got = specfun.jacobi_sn_cn_dn(u, 1.0)
        assert [v.hex() for v in got] == [np.tanh(u).hex(), sech.hex(), sech.hex()]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(k=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-14),
                       st.floats(1.0 - 1e-9, 1.0), st.just(1.0)),
           u=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=16))
    @example(k=1.0 - 2.0 ** -53, u=[0.0, 19.4, 38.8, -58.2])
    @example(k=1.0, u=[-711.0, 0.0, 709.0])
    @example(k=1e-15, u=[-3.0, 0.5])
    def test_array_matches_scalar(self, k, u):
        # a float and an array run one numpy body: bit for bit
        x = np.array(u)
        got = specfun.jacobi_sn_cn_dn(x, k)
        for j in range(3):
            want = np.array([specfun.jacobi_sn_cn_dn(ui, k)[j] for ui in u])
            assert got[j].shape == x.shape
            assert np.array_equal(got[j], want)

    # one k per branch: k < 1e-14, k = 1, k' < _KP_NEAR_ONE and the recursion
    BRANCHES = [0.0, 1e-15, 1.0, 1.0 - 1e-12, 0.5]

    @pytest.mark.parametrize("k", BRANCHES)
    def test_float_gives_numpy_scalars(self, k):
        for v in specfun.jacobi_sn_cn_dn(0.3, k):
            assert isinstance(v, np.float64) and np.ndim(v) == 0

    @pytest.mark.parametrize("k", BRANCHES)
    @pytest.mark.parametrize("u", [math.inf, -math.inf, math.nan])
    def test_non_finite_argument(self, k, u):
        # NaN, as in an array; at k = 1, +-inf takes the limits of tanh, sech
        with np.errstate(invalid="ignore"):
            got = specfun.jacobi_sn_cn_dn(u, k)
            in_array = specfun.jacobi_sn_cn_dn(np.array([u]), k)
        if k == 1.0 and not math.isnan(u):
            assert got == (math.copysign(1.0, u), 0.0, 0.0)
        else:
            assert all(math.isnan(v) for v in got)
        assert np.array_equal(np.array(in_array)[:, 0], got, equal_nan=True)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(kp=st.one_of(st.floats(specfun._KP_NEAR_ONE, 1.0, exclude_max=True),
                        st.floats(-5.0, -1.0).map(lambda e: 10.0 ** e)))
    @example(kp=specfun._KP_NEAR_ONE)
    def test_ladder_ratios_stay_below_one(self, kp):
        # the angle recursion takes asin(c_j / a_j sin phi) unclipped: every
        # ratio is at most the first, (1 - k')/(1 + k') <= 1 - 2e-5
        _, a_s, c_s = specfun._agm(kp)
        ratios = [c_s[j - 1] / a_s[j] for j in range(1, len(a_s))]
        assert max(ratios, default=0.0) <= (1.0 - kp) / (1.0 + kp) < 1.0

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(log_kp=st.floats(math.log10(1.5e-8), math.log10(specfun._KP_NEAR_ONE)),
           frac=st.floats(-1.0, 1.0))
    def test_near_one_against_mpmath(self, log_kp, frac):
        # below _KP_NEAR_ONE the first-order k'^2 forms hold cn and dn to
        # a few eps |u| over four quarter periods, where the recursion
        # lost up to 60 eps |u|
        kp = 10.0 ** log_kp
        k = math.sqrt((1.0 - kp) * (1.0 + kp))
        with mp.workdps(40):
            m = mp.mpf(k) ** 2
            u = 4.0 * frac * float(mp.ellipk(m))
            want = [float(mp.ellipfun(name, mp.mpf(u), m=m))
                    for name in ("sn", "cn", "dn")]
        got = specfun.jacobi_sn_cn_dn(u, k)
        for value, ref in zip(got, want):
            assert abs(value - ref) <= 4.0 * 2.2e-16 * max(1.0, abs(u))

    @pytest.mark.parametrize("k", [math.nextafter(1.0, 2.0), math.nan, -1e-300])
    def test_modulus_outside_unit_interval_raises(self, k):
        with pytest.raises(DomainError):
            specfun.jacobi_sn_cn_dn(0.3, k)


class TestTheta:
    def test_nome_near_one_is_a_convergence_error(self):
        # Im tau = 1e-7 leaves the series unconverged after 512 terms
        with pytest.raises(ConvergenceError, match="512 terms"):
            specfun.theta1(0.1, 1e-7j)

    def test_direct_summation_oracle(self):
        # theta_1(w) = -i sum_m (-1)^m q^{(m+1/2)^2} e^{(2m+1) i pi w}
        tau, w = 1j, 0.31 + 0.05j
        direct = -1j * sum((-1) ** m * cmath.exp(1j * math.pi * (
            tau * (m + 0.5) ** 2 + (2 * m + 1) * w)) for m in range(-50, 50))
        assert specfun.theta1(w, tau)[0] == pytest.approx(direct, abs=1e-14)

    def test_period_one(self):
        # theta_1 changes sign under w -> w + 1
        rng = np.random.default_rng(3)
        tau = 0.1 + 0.8j
        for _ in range(10):
            w = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
            assert specfun.theta1(w + 1.0, tau)[0] == pytest.approx(
                -specfun.theta1(w, tau)[0], abs=1e-12)

    def test_quasi_periodicity(self):
        # theta_1(w + tau) = -exp(-i pi tau - 2 i pi w) theta_1(w)
        rng = np.random.default_rng(5)
        tau = 0.93j
        for _ in range(10):
            w = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            lhs = specfun.theta1(w + tau, tau)[0]
            rhs = -cmath.exp(-1j * math.pi * tau - 2j * math.pi * w) \
                * specfun.theta1(w, tau)[0]
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            specfun.theta1(0.0, -0.5j)

    def test_theta1_odd_and_zero(self):
        tau = 0.65j
        assert abs(specfun.theta1(0.0, tau)[0]) < 1e-15
        w = 0.23
        assert specfun.theta1(-w, tau)[0] == pytest.approx(
            -specfun.theta1(w, tau)[0])


def theta_envelope(w: complex, tau: complex, order: int) -> float:
    """sum_m 2 |q^{(m+1/2)^2}| e^{(2m+1) pi |Im w|} ((2m+1) pi)^order, which
    bounds the sum of the moduli of the terms of theta_1^(order)(w | tau)."""
    return sum(2.0 * math.exp(math.pi * ((2 * m + 1) * abs(w.imag)
                                         - tau.imag * (m + 0.5) ** 2))
               * ((2 * m + 1) * math.pi) ** order for m in range(200))


class TestThetaPairProperty:
    # theta_1(w | tau) = jtheta(1, pi w, q) and theta_1' = pi jtheta'(1, pi w, q),
    # q = e^{i pi tau}, on lame_system(k) lattices with w as sigma and zeta
    # see it (|Im w| up to Im tau / 2 and beyond); the rounding of the terms
    # and of their sum stays within 16 eps of the envelope
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.one_of(st.floats(1e-3, 0.999),
                       st.floats(-12.0, -3.0).map(lambda e: 1.0 - 10.0 ** e)),
           re=st.floats(-1.0, 1.0), im=st.floats(-0.6, 0.6))
    def test_pair_against_mpmath(self, k, re, im):
        tau = bakerakhiezer.lame_system(k).tau
        w = complex(re, im * tau.imag)
        got = specfun.theta1(w, tau)
        with mp.workdps(30):
            q = mp.exp(-mp.pi * mp.mpf(tau.imag))
            z = mp.pi * mp.mpc(w.real, w.imag)
            ref = (complex(mp.jtheta(1, z, q)),
                   complex(mp.pi * mp.jtheta(1, z, q, 1)))
        for order in (0, 1):
            assert abs(got[order] - ref[order]) <= (
                16 * EPS * theta_envelope(w, tau, order))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(k=st.floats(1e-3, 0.999), spread=st.floats(0.1, 10.0))
    def test_lattice_dtheta0(self, k, spread):
        # theta_1'(0 | tau), summed once per lattice for sigma
        p = specfun.weierstrass_params(k, spread)
        assert p.dtheta0 == specfun.theta1(0.0, p.tau)[1]
        with mp.workdps(40):
            q = mp.exp(-mp.pi * mp.mpf(p.tau.imag))
            ref = float(mp.pi * mp.jtheta(1, 0, q, 1))
        assert abs(p.dtheta0 - ref) <= 16 * EPS * theta_envelope(0j, p.tau, 1)

    def test_sigma_and_zeta_sum_one_series_each(self, monkeypatch):
        p = specfun.weierstrass_params(0.6, 3.0)
        calls = []
        theta1 = specfun.theta1
        monkeypatch.setattr(specfun, "theta1",
                            lambda w, tau: calls.append(w) or theta1(w, tau))
        specfun.weierstrass_sigma(0.4 + 0.3j, p)
        assert len(calls) == 1
        specfun.weierstrass_zeta(0.4 + 0.3j, p)
        assert len(calls) == 2


def lattice_of_invariants(g2: float, g3: float) -> specfun.WeierstrassParams:
    """The lattice whose roots are those of 4 t^3 - g2 t - g3."""
    e1, e2, e3 = sorted(np.roots([4.0, 0.0, -g2, -g3]).real, reverse=True)
    return specfun.weierstrass_params(math.sqrt((e2 - e3) / (e1 - e3)), e1 - e3)


class TestWeierstrass:
    def setup_method(self):
        self.params = lattice_of_invariants(3.1, 0.4)

    def test_zeta_at_a_lattice_point_is_a_pole_error(self):
        with pytest.raises(PoleError, match="lattice point"):
            specfun.weierstrass_zeta(0.0, bakerakhiezer.lame_system(0.5))

    def test_roots_sum_and_cubic(self):
        # modulus 1/sqrt 2 and spread w^2: the roots of 4 t^3 - w^4 t
        w = 1.3
        p = specfun.weierstrass_params(1.0 / math.sqrt(2.0), w * w)
        assert p.e1 + p.e2 + p.e3 == pytest.approx(0.0, abs=1e-12)
        for e in (p.e1, p.e2, p.e3):
            assert 4 * e ** 3 - w ** 4 * e == pytest.approx(
                0.0, abs=1e-12 * max(1.0, abs(e) ** 3))

    def test_nahm_invariants(self):
        # the lattice of g2 = w^4, g3 = 0 has the roots (w^2/2, 0, -w^2/2)
        w = 1.3
        p = specfun.weierstrass_params(1.0 / math.sqrt(2.0), w * w)
        assert p.g2 == pytest.approx(w ** 4, rel=1e-12)
        assert p.g3 == pytest.approx(0.0, abs=1e-12)
        assert p.e1 == pytest.approx(w * w / 2.0, rel=1e-12)
        assert p.e2 == pytest.approx(0.0, abs=1e-12)
        assert p.e3 == pytest.approx(-w * w / 2.0, rel=1e-12)

    def test_invariants_from_roots(self):
        p = self.params
        assert (p.g2, p.g3) == pytest.approx((3.1, 0.4), rel=1e-13)

    @pytest.mark.parametrize("k, spread", [(0.0, 1.0), (1.0, 1.0), (0.5, 0.0),
                                           (0.5, math.inf), (math.nan, 1.0),
                                           (0.5, 1e200)])
    def test_params_domain(self, k, spread):
        with pytest.raises(DomainError):
            specfun.weierstrass_params(k, spread)

    def test_half_period_values(self):
        p = self.params
        assert specfun.weierstrass_p(p.omega, p) == pytest.approx(p.e1, abs=1e-10)
        assert specfun.weierstrass_p(p.omega_p, p).real == pytest.approx(
            p.e3, abs=1e-10)

    def test_ode_residual(self):
        # (p')^2 = 4 p^3 - g2 p - g3, with p' from high-order differences
        p = self.params
        rng = np.random.default_rng(17)
        h = 1e-4
        count = 0
        while count < 100:
            z = complex(rng.uniform(0.1, 2 * p.omega - 0.1),
                        rng.uniform(0.1, p.omega_imag - 0.1))
            try:
                wp = specfun.weierstrass_p(z, p)
                d1 = (specfun.weierstrass_p(z - 2 * h, p)
                      - 8 * specfun.weierstrass_p(z - h, p)
                      + 8 * specfun.weierstrass_p(z + h, p)
                      - specfun.weierstrass_p(z + 2 * h, p)) / (12 * h)
            except PoleError:
                continue
            if abs(wp) > 50:
                continue
            resid = d1 * d1 - 4 * wp ** 3 + p.g2 * wp + p.g3
            assert abs(resid) < 1e-8 * max(1.0, abs(wp) ** 3)
            count += 1

    def test_pole_error(self):
        with pytest.raises(PoleError):
            specfun.weierstrass_p(1e-12, self.params)

    def test_pole_error_at_a_lattice_point_away_from_zero(self):
        # the point is reduced by whole periods first; 2e-8 off it p is finite
        p = self.params
        corner = 2.0 * p.omega + 2.0 * p.omega_p
        with pytest.raises(PoleError, match="lattice point"):
            specfun.weierstrass_p(corner + 5e-9, p)
        assert cmath.isfinite(specfun.weierstrass_p(corner + 2e-8, p))

    @pytest.mark.parametrize("k", [0.05, 0.5, 0.95])
    def test_periods_far_from_the_origin(self, k):
        # 64 periods 2 omega and 32 periods 2 omega' out, where the sigma
        # quotient of the unreduced point overflows; z sits on a 2^-40 grid,
        # so z + 128 omega is z plus whole float periods exactly
        p = specfun.weierstrass_params(k, 1.0)
        z = complex(round(0.3 * 2 ** 40), round(0.2 * 2 ** 40)) / 2 ** 40
        want = specfun.weierstrass_p(z, p)
        for shift in (128.0 * p.omega, -128.0 * p.omega, 64.0 * p.omega_p,
                      128.0 * p.omega - 64.0 * p.omega_p):
            got = specfun.weierstrass_p(z + shift, p)
            assert abs(got - want) <= 64 * EPS * max(1.0, abs(want))

    @pytest.mark.parametrize("k", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("f", [specfun.weierstrass_sigma], ids=["sigma"])
    def test_far_overflow_is_a_domain_error(self, f, k):
        # sigma grows like e^{c |z|^2}: the Gaussian overflows 64 periods
        # 2 omega out, a theta_1 term 32 periods 2 omega' out
        p = specfun.weierstrass_params(k, 1.0)
        for shift in (128.0 * p.omega, 64.0 * p.omega_p,
                      128.0 * p.omega - 64.0 * p.omega_p):
            with pytest.raises(DomainError, match="overflows"):
                f(0.3 + 0.2j + shift, p)

    @pytest.mark.parametrize("k", [0.05, 0.5, 0.95])
    def test_zeta_is_quasi_periodic_far_out(self, k):
        # zeta(z + 2n omega + 2m omega') = zeta(z) + 2n eta + 2m eta', out
        # where sigma overflows; eta' = zeta(omega + omega') - zeta(omega)
        # from two points of the rectangle, not the Legendre relation
        p = specfun.weierstrass_params(k, 1.0)
        z = 0.3 + 0.2j
        zeta = specfun.weierstrass_zeta(z, p)
        etap = (specfun.weierstrass_zeta(p.omega + p.omega_p, p)
                - specfun.weierstrass_zeta(p.omega, p))
        for n, m in [(64, 0), (-64, 0), (0, 8), (0, -8), (64, -8), (16, 0)]:
            want = zeta + 2 * n * p.eta + 2 * m * etap
            got = specfun.weierstrass_zeta(z + 2 * n * p.omega + 2 * m * p.omega_p, p)
            assert abs(got - want) <= 1e-13 * abs(want)
        with pytest.raises(PoleError, match="lattice point"):
            specfun.weierstrass_zeta(128.0 * p.omega - 16.0 * p.omega_p, p)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(k=st.floats(0.01, 0.99), spread=st.sampled_from([0.37, 1.0, 3.0]),
           x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0))
    def test_p_against_mpmath(self, k, spread, x, y):
        # z over the rectangle about 0 that p reduces to, where the only
        # pole is 0 and p's relative condition number stays near 2
        p = specfun.weierstrass_params(k, spread)
        z = complex(x * p.omega, y * p.omega_imag)
        try:
            got = specfun.weierstrass_p(z, p)
        except PoleError:
            assert abs(z) < 1e-8
            return
        with mp.workdps(40):
            s, m = mp.mpf(spread), mp.mpf(k) ** 2
            sn = mp.ellipfun("sn", mp.sqrt(s) * mp.mpc(z.real, z.imag), m=m)
            want = complex(-s * (1 + m) / 3 + s / sn ** 2)
        assert abs(got - want) <= 64 * EPS * max(1.0, abs(want))

    def test_inverse_half_periods(self):
        # r = (H - e3)/(e1 - e3): H = e1 is r = 1 on segment 0, H = e3 is
        # r = 0 on segment 2
        p = self.params
        assert specfun._p_preimage(1.0, 0, p) == pytest.approx(p.omega, abs=1e-9)
        assert specfun._p_preimage(0.0, 2, p) == pytest.approx(p.omega_p, abs=1e-9)

    def test_inverse_round_trip(self):
        p = self.params
        rng = np.random.default_rng(23)
        ranges = [(p.e1, 8.0), (p.e2, p.e1), (p.e3, p.e2), (-8.0, p.e3)]
        for segment, (lo, hi) in enumerate(ranges):
            for H in rng.uniform(lo, hi, 5):
                rho = specfun._p_preimage((H - p.e3) / (p.e1 - p.e3), segment, p)
                assert abs(specfun.weierstrass_p(rho, p) - H) < 1e-10 * max(1, abs(H))

    def test_zeta_derivative_is_minus_p(self):
        p = self.params
        h = 1e-6
        z = 0.4 + 0.3j
        dz = (specfun.weierstrass_zeta(z + h, p)
              - specfun.weierstrass_zeta(z - h, p)) / (2 * h)
        assert dz == pytest.approx(-specfun.weierstrass_p(z, p), rel=1e-7)

    def test_sigma_behaves_like_u_near_zero(self):
        p = self.params
        u = 1e-5
        assert specfun.weierstrass_sigma(u, p) == pytest.approx(u, rel=1e-8)

    @pytest.mark.parametrize("k", [0.05, 0.3, 0.7, 0.95])
    def test_eta_matches_mpmath_theta_series(self, k):
        # eta = -theta_1^(3)(0) / (12 omega theta_1^(1)(0)) on the lattice's tau
        p = specfun.weierstrass_params(k, 1.0)
        with mp.workdps(40):
            q = mp.exp(-mp.pi * mp.mpf(p.omega_imag) / mp.mpf(p.omega))
            ref = -(mp.pi ** 2 * mp.jtheta(1, 0, q, 3)
                    / (12 * mp.mpf(p.omega) * mp.jtheta(1, 0, q, 1)))
            assert abs(p.eta - ref) <= 4e-15 * abs(ref)

    def test_legendre_period_relation(self):
        # eta omega' - eta' omega = i pi / 2
        p = self.params
        etap = specfun.weierstrass_zeta(p.omega_p + p.omega, p) \
            - specfun.weierstrass_zeta(p.omega, p)
        lhs = p.eta * p.omega_p - etap * p.omega
        assert lhs == pytest.approx(1j * math.pi / 2.0, abs=1e-10)


class TestWeierstrassInverseProperty:
    # segments 0-3 are H >= e1, [e2, e1), [e3, e2), H < e3; the draws 4-6
    # are H exactly e1, e2, e3
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.floats(0.01, 0.99), seg=st.integers(0, 6),
           t=st.floats(0.0, 1.0))
    def test_residual_and_segment(self, k, seg, t):
        p = specfun.weierstrass_params(k, 1.0)
        e1, e2, e3 = p.e1, p.e2, p.e3
        H = [e1 + 50.0 * t, e2 + t * (e1 - e2), e3 + t * (e2 - e3),
             e3 - 50.0 * t, e1, e2, e3][seg]
        segment = 0 if H >= e1 else 1 if H >= e2 else 2 if H >= e3 else 3
        rho = specfun._p_preimage((H - e3) / (e1 - e3), segment, p)
        assert abs(specfun.weierstrass_p(rho, p) - H) <= 1e-13 * max(1.0, abs(H))
        w, wi, tol = p.omega, p.omega_imag, 1e-13
        x, y = rho.real, rho.imag
        if segment == 0:
            assert y == 0.0 and 0.0 < x <= w * (1 + tol)
        elif segment == 1:
            assert x == w and 0.0 <= y <= wi * (1 + tol)
        elif segment == 2:
            assert y == wi and 0.0 <= x <= w * (1 + tol)
        else:
            assert x == 0.0 and 0.0 < y <= wi * (1 + tol)


class TestGammaFamily:
    def test_gamma_half(self):
        assert specfun.gamma_fn(0.5).real == pytest.approx(math.sqrt(math.pi),
                                                           rel=1e-14)

    def test_recurrence_random_complex(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            s = complex(rng.uniform(0.1, 5.0), rng.uniform(-2.0, 2.0))
            lhs = specfun.gamma_fn(s + 1)
            rhs = s * specfun.gamma_fn(s)
            assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    def test_pole_errors(self):
        for s in (0.0, -1.0, -5.0):
            with pytest.raises(PoleError):
                specfun.gamma_fn(s)
