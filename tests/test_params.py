import math

import numpy as np
import pytest

from rydeit import (DdiParams, EitParams, InsufficientParametersError,
                    ParameterError, derive_scales)

# reference experimental parameters: c6 = -(2pi x 260 MHz um^6) with
# gamma = 2pi x 6 MHz gives |c6| = 260/6 in gamma units
C6_EXP = -260.0 / 6.0
N_ATOM_EXP = 0.05


def make_eit(**kw):
    base = dict(omega_c=1.0, alpha=81.0, omega_p_in=0.1)
    base.update(kw)
    return EitParams(**base)


class TestValidation:
    def test_rejects_nonpositive_omega_c(self):
        with pytest.raises(ParameterError):
            EitParams(omega_c=0.0, alpha=81.0)

    def test_rejects_negative_rates(self):
        with pytest.raises(ParameterError):
            EitParams(omega_c=1.0, alpha=81.0, gamma0=-0.1)
        with pytest.raises(ParameterError):
            EitParams(omega_c=1.0, alpha=-1.0)
        with pytest.raises(ParameterError):
            EitParams(omega_c=1.0, alpha=81.0, gamma=0.0)

    def test_perturbative_regime_warns_but_accepts(self):
        with pytest.warns(UserWarning, match="perturbative"):
            p = EitParams(omega_c=0.5, alpha=81.0, omega_p_in=0.6)
        assert p.omega_p_in == 0.6

    def test_ddi_requires_exactly_one_input_route(self):
        with pytest.raises(ParameterError):
            DdiParams(c6=-43.0, n_atom=0.05, epsilon=0.43,
                      combined_strength=0.35)
        with pytest.raises(ParameterError):
            DdiParams(c6=-43.0)  # incomplete physical triple
        with pytest.raises(ParameterError):
            DdiParams()

    def test_ddi_sign_carried_with_combined_strength(self):
        assert DdiParams(combined_strength=0.35).sign == -1
        assert DdiParams(combined_strength=0.35, c6_sign=1).sign == 1
        with pytest.raises(ParameterError):
            DdiParams(combined_strength=0.35, c6_sign=2)

    @pytest.mark.parametrize("field", ["omega_c", "alpha", "omega_p_in",
                                       "delta_p", "delta_c", "gamma0",
                                       "gamma", "gamma2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_eit_field(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            make_eit(**{field: value})

    @pytest.mark.parametrize("fields", [
        dict(combined_strength=math.inf), dict(combined_strength=math.nan),
        dict(c6=math.nan, n_atom=0.05, epsilon=1.0),
        dict(c6=-43.0, n_atom=math.inf, epsilon=1.0),
        dict(c6=-43.0, n_atom=0.05, epsilon=math.nan),
    ])
    def test_rejects_non_finite_ddi_field(self, fields):
        with pytest.raises(ParameterError, match="must be finite"):
            DdiParams(**fields)

    def test_two_photon_detuning(self):
        p = make_eit(delta_p=-0.7, delta_c=1.0)
        assert p.delta == pytest.approx(0.3)


class TestDerivedScales:
    def test_omega_a_from_combined_strength(self):
        # strength 0.35, probe 0.1, coupling 1.0 -> 0.35 * (0.01)^2
        eit = make_eit(omega_p_in=0.1)
        s = derive_scales(eit, DdiParams(combined_strength=0.35))
        assert s.omega_a == pytest.approx(3.5e-5, rel=1e-12)

    def test_blockade_volume_physical_parameters(self):
        # r_b^3 ~ 9.3 um^3 for the experimental c6 and omega_c
        eit = make_eit(omega_p_in=0.2)
        ddi = DdiParams(c6=C6_EXP, n_atom=N_ATOM_EXP, epsilon=1.0)
        s = derive_scales(eit, ddi)
        assert s.r_b ** 3 == pytest.approx(9.3, rel=0.02)
        # r_a^3 = 3 / (4 pi * 0.05 * 0.04) ~ 119.4 um^3
        assert s.r_a ** 3 == pytest.approx(119.366, rel=1e-4)
        assert s.blockade_ratio == pytest.approx(s.r_b ** 3 / s.r_a ** 3,
                                                 rel=1e-12)
        assert s.blockade_ratio == pytest.approx(0.078, abs=0.002)

    def test_blockade_ratio_available_from_combined_strength(self):
        # |c6| cancels in r_b^3/r_a^3, so the combined form suffices
        eit = make_eit(omega_p_in=0.2)
        phys = DdiParams(c6=C6_EXP, n_atom=N_ATOM_EXP, epsilon=1.0)
        combined = DdiParams(combined_strength=phys.strength)
        s1 = derive_scales(eit, phys)
        s2 = derive_scales(eit, combined)
        assert s2.r_a is None and s2.r_b is None
        assert s2.blockade_ratio == pytest.approx(s1.blockade_ratio, rel=1e-12)

    def test_length_scales_error_when_requested_but_unavailable(self):
        eit = make_eit()
        with pytest.raises(InsufficientParametersError,
                           match="insufficient parameters"):
            derive_scales(eit, DdiParams(combined_strength=0.35),
                          require_lengths=True)

    def test_w_c_at_zero_detuning_equals_gamma(self):
        s = derive_scales(make_eit(delta_c=0.0), DdiParams(combined_strength=0.35))
        assert s.w_c == 1.0

    def test_eit_linewidth_at_zero_detuning(self):
        eit = make_eit(omega_c=1.3, delta_c=0.0)
        s = derive_scales(eit, DdiParams(combined_strength=0.35))
        assert s.eit_linewidth == pytest.approx(1.3 ** 2, rel=1e-14)

    def test_s_ddi_value(self):
        # pi^2 * 81 * (3 sqrt(0.35) / 4 pi) / 3 = pi * 81 * sqrt(0.35) / 4
        eit = make_eit()
        s = derive_scales(eit, DdiParams(combined_strength=0.35))
        expected = math.pi * 81.0 * math.sqrt(0.35) / 4.0
        assert s.s_ddi == pytest.approx(expected, rel=1e-13)

    def test_combined_strength_matches_physical_fit(self):
        # the canonical 0.35 gamma corresponds to the physical parameters
        # with ensemble factor 0.43
        ddi = DdiParams(c6=C6_EXP, n_atom=N_ATOM_EXP, epsilon=0.43)
        assert ddi.strength == pytest.approx(0.35, rel=0.005)


class TestScaleProperties:
    def test_wc_algebraic_identity(self):
        # (w_c - 2 dc)(w_c + 2 dc) = gamma^2 to round-off
        rng = np.random.default_rng(7)
        for dc in rng.uniform(-10, 10, size=200):
            s = derive_scales(make_eit(delta_c=float(dc)),
                              DdiParams(combined_strength=0.35))
            assert (s.w_c - 2 * dc) * (s.w_c + 2 * dc) == pytest.approx(
                1.0, rel=1e-12)
            assert s.w_c >= 1.0

    def test_omega_a_quartic_probe_scaling(self):
        # two decades of probe amplitude
        ddi = DdiParams(combined_strength=0.35)
        base = derive_scales(make_eit(omega_p_in=0.005), ddi).omega_a
        for k in (2.0, 5.0, 10.0, 40.0, 100.0):
            scaled = derive_scales(make_eit(omega_p_in=0.005 * k), ddi).omega_a
            assert scaled == pytest.approx(base * k ** 4, rel=1e-12)

    def test_omega_a_inverse_quartic_coupling_scaling(self):
        ddi = DdiParams(combined_strength=0.35)
        base = derive_scales(make_eit(omega_c=1.0), ddi).omega_a
        for k in (2.0, 4.0):
            scaled = derive_scales(make_eit(omega_c=k), ddi).omega_a
            assert scaled == pytest.approx(base / k ** 4, rel=1e-12)

    def test_blockade_radius_ignores_c6_sign(self):
        eit = make_eit(omega_p_in=0.2)
        neg = derive_scales(eit, DdiParams(c6=-43.0, n_atom=0.05, epsilon=1.0))
        pos = derive_scales(eit, DdiParams(c6=+43.0, n_atom=0.05, epsilon=1.0))
        assert neg.r_b == pos.r_b

    def test_zero_probe_blockade_ratio(self):
        s = derive_scales(make_eit(omega_p_in=0.0),
                          DdiParams(c6=C6_EXP, n_atom=N_ATOM_EXP, epsilon=1.0))
        assert s.blockade_ratio == 0.0
        assert s.r_a == math.inf
