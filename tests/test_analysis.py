import math
import sys

import numpy as np
import pytest

import rydeit
from rydeit import (DdiParams, EitParams, ParameterError,
                    PeakNotBracketedError, UnidentifiableFitError, backend,
                    derive_scales, find_peak, fit_epsilon,
                    peak_shift_probe_sweep, regime_report,
                    slope_vs_probe_power, sweep)
from rydeit.analysis import SweepResult
from rydeit.analytic import unit_power_slopes

ALPHA = 81.0
STRENGTH = 0.35
DDI = DdiParams(combined_strength=STRENGTH)
C6_EXP = -260.0 / 6.0

# a repulsive point whose probe sweep at delta_c = 1.5 has an interior EIT
# peak near 0.1599 below a higher transmission at the window's left edge
EDGE_CASE = dict(alpha=119.39686545030136, omega_c=0.9126374303364523,
                 omega_p_in=0.27613299879749276, delta_c=1.5,
                 gamma0=0.02040746432766717)
EDGE_CASE_DDI = DdiParams(combined_strength=0.8853320519510456, c6_sign=1)


def make_eit(**kw):
    base = dict(omega_c=1.0, alpha=ALPHA, omega_p_in=0.1, delta_p=0.0,
                delta_c=0.0, gamma0=0.0)
    base.update(kw)
    return EitParams(**base)


def synthetic_sweep(grid, transmission):
    # SweepResult stores beta; transmission is derived from it
    grid = np.asarray(grid, float)
    beta = -np.log(np.asarray(transmission, float))
    return SweepResult(
        axis="probe", grid=grid, beta=beta, phase=np.zeros_like(beta),
        with_ddi=False, eit=make_eit(), ddi=None,
        err_beta=np.zeros_like(beta), err_phi=np.zeros_like(beta))


class TestSweep:
    def test_no_ddi_perfect_transmission_at_resonance(self):
        for dc in (0.0, 1.0, -1.0):
            res = sweep(make_eit(delta_c=dc), None, "probe",
                        np.linspace(-0.5, 0.5, 101), with_ddi=False)
            i = np.argmin(np.abs(res.grid))
            assert res.transmission[i] == pytest.approx(1.0, abs=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep(make_eit(), DDI, "probe", [])
        with pytest.raises(ValueError):
            sweep(make_eit(), DDI, "probe", [0.1, 0.0])
        with pytest.raises(ValueError):
            sweep(make_eit(), DDI, "bogus", [0.0, 0.1])

    def test_transmission_bounds(self):
        res = sweep(make_eit(omega_p_in=0.2, delta_c=-1.0), DDI, "probe",
                    np.linspace(-0.5, 0.5, 51))
        assert np.all(res.transmission > 0)
        assert np.all(res.transmission <= 1.0)
        assert np.all(res.converged)

    def test_peak_transmission_asymmetry(self):
        # positive coupling detuning transmits more at the same probe power
        grid = np.linspace(-0.4, 0.4, 161)
        plus = sweep(make_eit(delta_c=1.0, omega_p_in=0.2), DDI, "probe", grid)
        minus = sweep(make_eit(delta_c=-1.0, omega_p_in=0.2), DDI, "probe", grid)
        assert plus.transmission.max() > minus.transmission.max()

    def test_beta_finite_at_large_optical_depth(self):
        # transmission underflows to 0 here, but beta is stored, not
        # recovered from it
        eit = EitParams(omega_c=1.0, alpha=2000.0, omega_p_in=0.1, delta_c=1.0)
        ddi = DdiParams(combined_strength=0.5)
        grid = np.linspace(-3.0, 3.0, 7)
        res = sweep(eit, ddi, "probe", grid)
        assert np.all(np.isfinite(res.beta))
        assert res.beta.max() > 745.0 and res.transmission.min() == 0.0
        omega_a = derive_scales(eit, ddi).omega_a
        for d, beta in zip(grid, res.beta):
            avg = backend.avg_susceptibility(-eit.delta_c + d, eit.delta_c,
                                             0.0, 1.0, omega_a)
            assert beta == pytest.approx(2000.0 * avg.im, rel=1e-14)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_grid_rejected(self, bad):
        for with_ddi in (True, False):
            with pytest.raises(ParameterError):
                sweep(make_eit(), DDI, "probe", [0.0, bad], with_ddi=with_ddi)

    def test_no_per_point_parameter_rebuild(self, monkeypatch):
        # a 401-point sweep builds no EitParams and derives the scales and
        # the no-DDI response at most once, not once per point
        counts = {"EitParams": 0}
        post_init = EitParams.__post_init__

        def counting_post_init(self):
            counts["EitParams"] += 1
            post_init(self)

        monkeypatch.setattr(EitParams, "__post_init__", counting_post_init)
        for name in ("derive_scales", "beta0_phi0"):
            original = getattr(rydeit, name)
            counts[name] = 0

            def counting(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("rydeit")
                        and getattr(module, name, None) is original):
                    monkeypatch.setattr(module, name, counting)
        eit = EitParams(omega_c=1.0, alpha=ALPHA, omega_p_in=0.2, delta_c=1.0)
        counts["EitParams"] = 0
        for axis in ("probe", "coupling"):
            for ddi in (DDI, DdiParams(combined_strength=STRENGTH, c6_sign=1)):
                sweep(eit, ddi, axis, np.linspace(-0.5, 0.5, 401))
        assert counts["EitParams"] == 0
        assert counts["derive_scales"] <= 1
        assert counts["beta0_phi0"] <= 1

    def test_coupling_axis_convention(self):
        # coupling sweep holds delta_p and rides delta_c = -delta_p + delta;
        # without the interaction the peak is at two-photon resonance, with
        # it the peak lands near the coupling-sweep shift formula
        from rydeit import peak_shift_coupling_sweep

        eit = make_eit(delta_p=0.5, omega_p_in=0.2)
        grid = np.linspace(-0.5, 0.5, 401)
        bare = sweep(eit, None, "coupling", grid, with_ddi=False)
        assert find_peak(bare).delta == pytest.approx(0.0, abs=5e-5)
        res = sweep(eit, DDI, "coupling", grid)
        formula = peak_shift_coupling_sweep(eit, DDI)
        assert find_peak(res).delta == pytest.approx(formula, rel=0.1)


class TestFindPeak:
    def test_gaussian_recovery(self):
        # parabola through the apex of a smooth peak: sub-grid accuracy
        grid = np.linspace(-0.5, 0.5, 201)
        h = grid[1] - grid[0]
        for d0 in (0.0123, -0.2042, 0.3331):
            t = np.exp(-((grid - d0) / 0.2) ** 2)
            est = find_peak(synthetic_sweep(grid, t))
            assert est.delta == pytest.approx(d0, abs=1e-4 * h)
            assert est.resolution == pytest.approx(h, rel=1e-9)

    def test_boundary_not_bracketed(self):
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(PeakNotBracketedError):
            find_peak(synthetic_sweep(grid, np.exp(grid)))

    def test_higher_edge_does_not_hide_interior_peak(self):
        def spectrum(x):
            return 0.5 * np.exp(-((x - 0.3) / 0.1) ** 2) + np.exp(-x - 1.0)

        grid = np.linspace(-1.0, 1.0, 201)
        t = spectrum(grid)
        assert np.argmax(t) == 0
        est = find_peak(synthetic_sweep(grid, t))
        fine = np.linspace(0.25, 0.35, 100001)
        assert est.delta == pytest.approx(fine[np.argmax(spectrum(fine))],
                                          abs=1e-4)

    def test_highest_of_several_interior_peaks(self):
        grid = np.linspace(-1.0, 1.0, 201)
        t = (0.4 * np.exp(-((grid + 0.5) / 0.1) ** 2)
             + 0.6 * np.exp(-((grid - 0.4) / 0.1) ** 2) + 0.1 * grid + 0.5)
        assert find_peak(synthetic_sweep(grid, t)).delta == pytest.approx(
            0.4, abs=0.02)

    def test_flat_spectrum_not_bracketed(self):
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(PeakNotBracketedError):
            find_peak(synthetic_sweep(grid, np.full(grid.size, 0.5)))

    def test_interior_peak_below_edge_found(self):
        # regression: the global argmax sat on the left edge, so this row
        # was reported as "peak not bracketed"
        eit = EitParams(**EDGE_CASE)
        res = sweep(eit, EDGE_CASE_DDI, "probe", np.linspace(-0.6, 0.6, 401))
        est = find_peak(res)
        assert est.delta == pytest.approx(0.1599, abs=5e-4)
        i = int(np.argmin(np.abs(res.grid - est.delta)))
        assert res.transmission[0] > res.transmission[i]

    def test_no_ddi_peak_at_resonance(self):
        # the lineshape is not symmetric about the maximum at finite
        # coupling detuning, so the parabolic vertex carries an O(h^2) bias;
        # it must still land far below the grid step
        res = sweep(make_eit(delta_c=1.0), None, "probe",
                    np.linspace(-0.5, 0.5, 401), with_ddi=False)
        assert find_peak(res).delta == pytest.approx(0.0, abs=5e-5)
        res = sweep(make_eit(delta_c=0.0), None, "probe",
                    np.linspace(-0.5, 0.5, 401), with_ddi=False)
        assert find_peak(res).delta == pytest.approx(0.0, abs=1e-12)

    def test_ddi_peak_matches_formula_prediction(self):
        # frozen scipy-based oracle for these parameters found the numerical
        # peak at -0.018773 (grid [-0.5, 0.5], 401 points)
        eit = make_eit(omega_p_in=0.2)
        res = sweep(eit, DDI, "probe", np.linspace(-0.5, 0.5, 401))
        est = find_peak(res)
        assert est.delta == pytest.approx(-0.018773, abs=2e-4)
        formula = peak_shift_probe_sweep(eit, DDI)
        assert est.delta == pytest.approx(formula, rel=0.1)


class TestSlopes:
    def test_analytic_source_exact_line(self):
        eit = make_eit()
        fb, fp = slope_vs_probe_power(eit, DDI, [0.0025, 0.01, 0.02, 0.04],
                                      use="analytic")
        s_ddi = math.pi * ALPHA * math.sqrt(STRENGTH) / 4.0
        assert fb.slope == pytest.approx(2 * s_ddi, rel=1e-10)
        assert fb.slope == pytest.approx(75.27, abs=0.01)
        assert fb.intercept == pytest.approx(0.0, abs=1e-12)
        assert fb.residual_sum == pytest.approx(0.0, abs=1e-18)
        assert fp.slope == pytest.approx(s_ddi, rel=1e-10)

    def test_quadrature_slope_near_analytic(self):
        eit = make_eit()
        fb, _ = slope_vs_probe_power(eit, DDI, [0.0025, 0.005, 0.0075, 0.01],
                                     use="quadrature")
        assert fb.slope == pytest.approx(75.27, rel=0.05)

    def test_decoherence_intercept(self):
        eit = make_eit(gamma0=0.012)
        fb, _ = slope_vs_probe_power(eit, DDI, [0.0025, 0.01, 0.04],
                                     use="quadrature")
        assert fb.intercept == pytest.approx(1.944, rel=0.03)

    @pytest.mark.parametrize("use", ["quadrature", "analytic"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.01])
    def test_bad_power_rejected(self, use, bad):
        with pytest.raises(ParameterError):
            slope_vs_probe_power(make_eit(), DDI, [0.01, bad], use=use)

    def test_needs_two_distinct_powers(self):
        with pytest.raises(ParameterError):
            slope_vs_probe_power(make_eit(), DDI, [0.01], use="analytic")
        with pytest.raises(ParameterError):
            slope_vs_probe_power(make_eit(), DDI, [0.01, 0.01], use="analytic")


class TestFitEpsilon:
    def synth_obs(self, epsilon, delta_cs, gamma0=0.012, noise=None, rng=None):
        x = math.sqrt(abs(C6_EXP)) * 0.05 * epsilon
        obs = []
        for dc in delta_cs:
            eit = make_eit(delta_c=dc, delta_p=-dc, gamma0=gamma0)
            gb, gp = unit_power_slopes(eit)
            sb, sp = gb * x, gp * x
            if noise:
                sb *= 1.0 + noise * rng.standard_normal()
                sp *= 1.0 + noise * rng.standard_normal()
            obs.append((dc, sb, sp))
        return obs

    def test_noiseless_round_trip(self):
        obs = self.synth_obs(0.43, [-2.0, -1.0, 0.0, 1.0, 2.0])
        fit = fit_epsilon(obs, make_eit(gamma0=0.012), C6_EXP, 0.05)
        assert fit.epsilon == pytest.approx(0.43, abs=1e-10)
        assert fit.residual_sum == pytest.approx(0.0, abs=1e-16)
        assert not fit.clamped

    def test_noisy_median_recovery(self):
        rng = np.random.default_rng(31415)
        estimates = []
        for _ in range(100):
            obs = self.synth_obs(0.43, [-2.0, -1.0, 0.0, 1.0, 2.0],
                                 noise=0.05, rng=rng)
            fit = fit_epsilon(obs, make_eit(gamma0=0.012), C6_EXP, 0.05)
            estimates.append(fit.epsilon)
        assert np.median(estimates) == pytest.approx(0.43, rel=0.05)

    def test_single_observation_exact(self):
        obs = self.synth_obs(0.43, [0.0])
        fit = fit_epsilon(obs, make_eit(gamma0=0.012), C6_EXP, 0.05)
        assert fit.epsilon == pytest.approx(0.43, abs=1e-12)
        assert fit.residual_sum == pytest.approx(0.0, abs=1e-18)

    def test_all_zero_unidentifiable(self):
        obs = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
        with pytest.raises(UnidentifiableFitError):
            fit_epsilon(obs, make_eit(), C6_EXP, 0.05)
        with pytest.raises(UnidentifiableFitError):
            fit_epsilon([], make_eit(), C6_EXP, 0.05)

    def test_negative_solution_clamped(self):
        obs = [(0.0, -10.0, -5.0)]
        fit = fit_epsilon(obs, make_eit(), C6_EXP, 0.05)
        assert fit.epsilon == 0.0
        assert fit.clamped

    def test_weights_respected(self):
        # duplicate observation with zero weight must not move the fit
        obs = self.synth_obs(0.43, [0.0, 1.0])
        spoiled = obs + [(0.0, 99.0, 99.0, 0.0)]
        fit = fit_epsilon(spoiled, make_eit(gamma0=0.012), C6_EXP, 0.05)
        assert fit.epsilon == pytest.approx(0.43, abs=1e-10)


class TestRegimeReport:
    def test_experimental_parameters(self):
        eit = make_eit(omega_p_in=0.2)
        ddi = DdiParams(c6=C6_EXP, n_atom=0.05, epsilon=1.0)
        rep = regime_report(eit, ddi)
        assert rep.blockade_ratio == pytest.approx(0.078, abs=0.002)
        assert rep.r_b_um ** 3 == pytest.approx(9.3, rel=0.02)
        assert rep.perturbative_probe

    def test_linewidth_ratio_value(self):
        rep = regime_report(make_eit(omega_p_in=0.2), DDI)
        assert rep.linewidth_ratio == pytest.approx(5.6e-4, rel=1e-10)
        assert rep.validity_beta == pytest.approx(5.6e-4 ** 1.5, rel=1e-9)
        assert rep.beta_formula_ok and rep.phi_formula_ok

    def test_partial_without_length_scales(self):
        rep = regime_report(make_eit(omega_p_in=0.2), DDI)
        assert rep.r_a_um is None and rep.r_b_um is None
        assert rep.blockade_ratio > 0

    def test_vanishing_probe(self):
        rep = regime_report(make_eit(omega_p_in=0.0),
                            DdiParams(c6=C6_EXP, n_atom=0.05, epsilon=1.0))
        assert rep.blockade_ratio == 0.0
