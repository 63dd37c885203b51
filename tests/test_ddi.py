import math

import numpy as np
import pytest

from rydeit import (ContractViolationError, DdiParams, EitParams,
                    ParameterError, backend, beta0_phi0, beta_phi_ddi,
                    delta_beta_phi_on_resonance, derive_scales, rho31,
                    sample_shift)
from rydeit.ddi import beta_phi_ddi_array

ALPHA = 81.0
STRENGTH = 0.35


def make_eit(**kw):
    base = dict(omega_c=1.0, alpha=ALPHA, omega_p_in=0.1, delta_p=0.0,
                delta_c=0.0, gamma0=0.0)
    base.update(kw)
    return EitParams(**base)


DDI = DdiParams(combined_strength=STRENGTH)


class TestBetaPhiDdi:
    def test_zero_strength_reduces_to_no_ddi(self):
        eit = make_eit(gamma0=0.012, delta_p=0.04, delta_c=0.4)
        res = beta_phi_ddi(eit, DdiParams(combined_strength=0.0))
        b0, p0 = beta0_phi0(eit)
        assert res.beta == pytest.approx(b0, rel=1e-12)
        assert res.phi == pytest.approx(p0, rel=1e-12)
        assert res.delta_beta == pytest.approx(0.0, abs=1e-11)
        assert res.delta_phi == pytest.approx(0.0, abs=1e-11)

    def test_reference_point(self):
        # frozen from an independent scipy.integrate.quad evaluation of the
        # shift average in omega space (piecewise, limit=400)
        res = beta_phi_ddi(make_eit(), DDI)
        assert res.delta_beta == pytest.approx(0.752696, abs=5e-5)
        assert res.delta_phi == pytest.approx(0.372129, abs=5e-5)
        # analytic values 0.7527 / 0.3764; phase carries the larger
        # heavy-tail correction, of order sqrt(omega_a / linewidth)
        s_ddi = math.pi * ALPHA * math.sqrt(STRENGTH) / 4.0
        assert res.delta_beta == pytest.approx(2 * s_ddi * 0.01, rel=1e-3)
        assert res.delta_phi == pytest.approx(s_ddi * 0.01, rel=2e-2)
        assert abs(res.delta_phi - s_ddi * 0.01) > 5 * res.err_phi

    def test_error_estimates_cover_tolerance_halving(self):
        eit = make_eit(delta_c=-1.0, delta_p=1.0, omega_p_in=0.2)
        loose = beta_phi_ddi(eit, DDI, rtol=1e-6)
        tight = beta_phi_ddi(eit, DDI, rtol=5e-13)
        assert abs(loose.beta - tight.beta) <= max(loose.err_beta, 1e-12)
        assert abs(loose.phi - tight.phi) <= max(loose.err_phi, 1e-12)

    def test_quadratic_probe_scaling(self):
        # delta_beta(2 wp) / delta_beta(wp) -> 4 in the weak regime
        for wc in (1.0, 1.4):
            lo = beta_phi_ddi(make_eit(omega_c=wc, omega_p_in=0.05), DDI)
            hi = beta_phi_ddi(make_eit(omega_c=wc, omega_p_in=0.1), DDI)
            assert hi.delta_beta / lo.delta_beta == pytest.approx(4.0, rel=0.02)

    def test_probe_to_zero_deltas_vanish(self):
        prev = None
        for wp in (0.08, 0.04, 0.02, 0.01):
            r = beta_phi_ddi(make_eit(omega_p_in=wp), DDI)
            assert r.delta_beta > 0
            if prev is not None:
                assert r.delta_beta < prev
            prev = r.delta_beta
        assert prev < 1e-2

    def test_positivity_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            eit = make_eit(
                omega_c=float(rng.uniform(0.5, 2.5)),
                omega_p_in=float(rng.uniform(0.0, 0.3)),
                delta_p=float(rng.uniform(-2, 2)),
                delta_c=float(rng.uniform(-2, 2)),
                gamma0=float(rng.uniform(0, 0.1)),
            )
            res = beta_phi_ddi(eit, DDI)
            assert res.beta >= 0

    def test_monte_carlo_agreement(self):
        # sample mean of alpha*gamma*Im(rho31) over 1e6 drawn shifts agrees
        # with quadrature within 3 standard errors
        eit = make_eit(omega_p_in=0.2, delta_c=1.0, delta_p=-1.0)
        omega_a = derive_scales(eit, DDI).omega_a
        w = sample_shift(1_000_000, seed=77, omega_a=omega_a)
        vals = ALPHA * rho31(eit.delta_p, eit.delta_c + w, eit.gamma0,
                             eit.omega_c).imag
        mean = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        res = beta_phi_ddi(eit, DDI)
        assert abs(res.beta - mean) < 3 * se

    def test_nonconvergence_carries_partial(self):
        # the closed form cannot fail to converge; the quadrature oracle
        # still flags a capped run and keeps its partial value
        eit = make_eit()
        args = (eit.delta_p, eit.delta_c, eit.gamma0, eit.omega_c,
                derive_scales(eit, DDI).omega_a)
        closed = backend.avg_susceptibility(*args)
        for oracle in backend.available_backends().values():
            partial = oracle(*args, 1.0, 1e-15, 1e-300, 16)
            assert partial[4] <= 16 and not partial[5]
            assert partial[1] == pytest.approx(closed.im, rel=1e-2)
            assert partial[0] == pytest.approx(closed.re, rel=1e-2)


class TestBetaPhiDdiArray:
    FIELDS = ("beta", "phi", "delta_beta", "delta_phi", "err_beta", "err_phi")

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_matches_scalar_pointwise(self, sign):
        ddi = DdiParams(combined_strength=STRENGTH, c6_sign=sign)
        eit = make_eit(gamma0=0.01)
        rng = np.random.default_rng(5)
        dp = rng.uniform(-2, 2, 6)
        dc = rng.uniform(-2, 2, 6)
        wp = rng.uniform(0.05, 0.3, 6)
        res = beta_phi_ddi_array(eit, ddi, dp, dc, wp)
        for i in range(dp.size):
            point = make_eit(gamma0=0.01, delta_p=float(dp[i]),
                             delta_c=float(dc[i]), omega_p_in=float(wp[i]))
            one = beta_phi_ddi(point, ddi)
            for f in self.FIELDS:
                assert getattr(res, f)[i] == getattr(one, f)

    def test_broadcast_shape(self):
        dp = np.linspace(-1, 1, 4)[:, None]
        wp = np.array([0.1, 0.2, 0.3])
        res = beta_phi_ddi_array(make_eit(), DDI, dp, 0.5, wp)
        for f in self.FIELDS:
            assert getattr(res, f).shape == (4, 3)

    def test_no_interaction(self):
        eit = make_eit(gamma0=0.012, delta_c=0.4)
        dp = np.array([-0.3, 0.0, 0.2])
        res = beta_phi_ddi_array(eit, None, dp, eit.delta_c)
        for i, d in enumerate(dp):
            b0, p0 = beta0_phi0(make_eit(gamma0=0.012, delta_c=0.4,
                                         delta_p=float(d)))
            assert res.beta[i] == pytest.approx(b0, rel=1e-14)
            assert res.phi[i] == pytest.approx(p0, rel=1e-14)
        assert not np.any(res.delta_beta) and not np.any(res.err_phi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, bad):
        eit = make_eit()
        with pytest.raises(ParameterError):
            beta_phi_ddi_array(eit, DDI, [0.0, bad], 0.0)
        with pytest.raises(ParameterError):
            beta_phi_ddi_array(eit, DDI, 0.0, [bad, 0.0])
        with pytest.raises(ParameterError):
            beta_phi_ddi_array(eit, DDI, 0.0, 0.0, [0.1, bad])

    def test_negative_probe_rejected(self):
        with pytest.raises(ParameterError):
            beta_phi_ddi_array(make_eit(), DDI, 0.0, 0.0, [0.1, -0.1])

    def test_strong_probe_warns(self):
        with pytest.warns(UserWarning, match="perturbative"):
            beta_phi_ddi_array(make_eit(), DDI, 0.0, 0.0, [0.1, 1.5])


class TestOnResonance:
    def test_matches_general_average(self):
        for dc in (0.0, 1.0, -1.0):
            eit = make_eit(delta_c=dc, delta_p=-dc)
            db, dp = delta_beta_phi_on_resonance(eit, DDI)
            res = beta_phi_ddi(eit, DDI)
            assert db == pytest.approx(res.delta_beta, abs=1e-6)
            assert dp == pytest.approx(res.delta_phi, abs=1e-6)

    def test_detuning_asymmetry(self):
        plus = make_eit(delta_c=1.0, delta_p=-1.0, omega_p_in=0.2)
        minus = make_eit(delta_c=-1.0, delta_p=1.0, omega_p_in=0.2)
        db_p, dp_p = delta_beta_phi_on_resonance(plus, DDI)
        db_m, dp_m = delta_beta_phi_on_resonance(minus, DDI)
        assert db_p < db_m      # less attenuation at positive detuning
        assert dp_p > dp_m      # more phase shift at positive detuning

    def test_contract_enforced(self):
        with pytest.raises(ContractViolationError):
            delta_beta_phi_on_resonance(make_eit(gamma0=0.01), DDI)
        with pytest.raises(ContractViolationError):
            delta_beta_phi_on_resonance(make_eit(delta_p=0.1), DDI)

    def test_asymmetry_ratio_small_measure_limit(self):
        # ratio delta_beta(-1)/delta_beta(+1) approaches sqrt(5) + 2
        target = math.sqrt(5.0) + 2.0
        ratios = []
        for wp in (0.2, 0.1):
            plus = make_eit(delta_c=1.0, delta_p=-1.0, omega_p_in=wp)
            minus = make_eit(delta_c=-1.0, delta_p=1.0, omega_p_in=wp)
            db_p, _ = delta_beta_phi_on_resonance(plus, DDI)
            db_m, _ = delta_beta_phi_on_resonance(minus, DDI)
            ratios.append(db_m / db_p)
        assert abs(ratios[1] - target) < abs(ratios[0] - target) + 1e-12
        assert ratios[1] == pytest.approx(target, rel=0.01)


class TestParameterRouting:
    def test_physical_triple_equals_combined_strength(self):
        # the two DdiParams input routes must agree through the whole stack
        phys = DdiParams(c6=-260.0 / 6.0, n_atom=0.05, epsilon=0.43)
        comb = DdiParams(combined_strength=phys.strength)
        eit = make_eit(omega_p_in=0.2, delta_c=-1.0, delta_p=1.0)
        a = beta_phi_ddi(eit, phys)
        b = beta_phi_ddi(eit, comb)
        assert a.beta == pytest.approx(b.beta, rel=1e-12)
        assert a.phi == pytest.approx(b.phi, rel=1e-12)
        assert phys.sqrt_c6_n_eps == pytest.approx(
            3.0 * math.sqrt(phys.strength) / (4.0 * math.pi), rel=1e-12)


class TestSignRule:
    def test_positive_c6_mirror(self):
        # repulsive interaction at (dp, dc) equals attractive at (-dp, -dc)
        # with the phase negated
        eit = make_eit(delta_p=-0.8, delta_c=1.0, omega_p_in=0.2, gamma0=0.01)
        pos = beta_phi_ddi(eit, DdiParams(combined_strength=STRENGTH, c6_sign=1))
        mirrored = make_eit(delta_p=0.8, delta_c=-1.0, omega_p_in=0.2,
                            gamma0=0.01)
        neg = beta_phi_ddi(mirrored, DDI)
        assert pos.beta == pytest.approx(neg.beta, rel=1e-10)
        assert pos.phi == pytest.approx(-neg.phi, rel=1e-10)
        assert pos.delta_phi == pytest.approx(-neg.delta_phi, rel=1e-10)

    def test_symmetric_point_phase_flips(self):
        eit = make_eit(omega_p_in=0.2)
        neg = beta_phi_ddi(eit, DDI)
        pos = beta_phi_ddi(eit, DdiParams(combined_strength=STRENGTH, c6_sign=1))
        assert pos.beta == pytest.approx(neg.beta, rel=1e-12)
        assert pos.phi == pytest.approx(-neg.phi, rel=1e-12)
