import math

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from rydeit import (NndMeasure, NonConvergenceError, ParameterError, expect,
                    omega_of_r, p_omega, p_omega_tail, p_r, sample_shift,
                    shift_cdf)

# high-precision direct evaluation of p_omega at omega = omega_a,
# cross-checked against the Monte-Carlo histogram below
P_OMEGA_AT_SCALE = 0.2321598131109319


class TestDistanceDensity:
    def test_zero_at_origin(self):
        assert p_r(0.0) == 0.0

    def test_value_at_scale(self):
        assert p_r(1.0) == pytest.approx(3.0 * math.exp(-1.0), rel=1e-14)
        # r_a scaling: density carries 1/r_a
        assert p_r(2.0, r_a=2.0) == pytest.approx(1.5 * math.exp(-1.0), rel=1e-14)

    def test_median_from_numerical_cdf(self):
        # independent oracle: integrate the density and root-find the median
        cdf = lambda r: integrate.quad(p_r, 0.0, r)[0]
        median = optimize.brentq(lambda r: cdf(r) - 0.5, 0.1, 3.0, xtol=1e-12)
        assert median == pytest.approx(0.88500, abs=5e-6)
        assert median == pytest.approx(math.log(2.0) ** (1.0 / 3.0), rel=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            p_r(-0.1)

    def test_normalized(self):
        val, _ = integrate.quad(p_r, 0.0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-10)


class TestShiftOfDistance:
    def test_at_scale(self):
        assert omega_of_r(1.0) == pytest.approx(2.0, rel=1e-14)

    def test_factor_two_distance(self):
        # (r_a/r)^3 = 2 gives 4 + 2
        assert omega_of_r(2.0 ** (-1.0 / 3.0)) == pytest.approx(6.0, rel=1e-13)

    def test_vanishes_far_away(self):
        assert omega_of_r(1e6) == pytest.approx(0.0, abs=1e-17)

    def test_strictly_decreasing(self):
        r = np.linspace(0.05, 20.0, 500)
        w = omega_of_r(r)
        assert np.all(np.diff(w) < 0)

    def test_domain_error_at_zero(self):
        with pytest.raises(ValueError):
            omega_of_r(0.0)


class TestShiftDensity:
    def test_vanishes_at_zero(self):
        assert p_omega(0.0) == 0.0
        assert p_omega(1e-12) < 1e-300

    def test_value_at_scale(self):
        assert p_omega(1.0) == pytest.approx(P_OMEGA_AT_SCALE, rel=1e-12)
        assert p_omega(0.5, omega_a=0.5) == pytest.approx(
            P_OMEGA_AT_SCALE / 0.5, rel=1e-12)

    def test_tail_law(self):
        for x in (1e2, 1e4, 1e6):
            assert p_omega(x) == pytest.approx(0.5 * x ** -1.5, rel=0.01)

    def test_tail_deviation_shrinks(self):
        devs = [abs(p_omega_tail(x) / p_omega(x) - 1.0)
                for x in (1e2, 1e4, 1e6)]
        assert devs[0] < 0.05
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-5

    def test_tail_values(self):
        assert p_omega_tail(1.0) == pytest.approx(0.5, rel=1e-14)
        assert p_omega_tail(4.0) == pytest.approx(1.0 / 16.0, rel=1e-14)

    def test_tail_domain(self):
        with pytest.raises(ValueError):
            p_omega_tail(0.0)
        with pytest.raises(ValueError):
            p_omega(-1.0)

    def test_pushforward_identity(self):
        # p_omega(omega(r)) |domega/dr| = p_r(r) on a wide grid
        r = np.geomspace(0.2, 5.0, 60)
        w = omega_of_r(r)
        dwdr = np.abs(-6.0 * r ** -7.0 - 3.0 * r ** -4.0)
        np.testing.assert_allclose(p_omega(w) * dwdr, p_r(r), rtol=1e-8)

    def test_unimodal(self):
        w = np.geomspace(1e-3, 1e3, 4000)
        d = np.diff(p_omega(w))
        sign_changes = np.sum(np.diff(np.sign(d[d != 0])) != 0)
        assert sign_changes == 1

    def test_normalized(self):
        val, _ = integrate.quad(p_omega, 0.0, np.inf, limit=400)
        assert val == pytest.approx(1.0, abs=1e-8)


class TestSampler:
    def test_deterministic(self):
        a = sample_shift(1000, seed=42)
        b = sample_shift(1000, seed=42)
        np.testing.assert_array_equal(a, b)
        c = sample_shift(1000, seed=43)
        assert not np.array_equal(a, c)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sample_shift(0, seed=1)

    def test_tail_fraction(self):
        # omega >= 6 omega_a iff u <= 1/2
        w = sample_shift(200_000, seed=3)
        frac = np.mean(w >= 6.0)
        assert frac == pytest.approx(1.0 - math.exp(-0.5), abs=0.004)

    def test_median_of_recovered_u(self):
        w = sample_shift(200_000, seed=5)
        u = (1.0 + np.sqrt(1.0 + 4.0 * w)) / (2.0 * w)
        assert np.median(u) == pytest.approx(math.log(2.0), abs=0.005)

    def test_ks_distance_against_closed_form_cdf(self):
        w = sample_shift(1_000_000, seed=11)
        ks = stats.kstest(w, shift_cdf).statistic
        assert ks < 0.01

    def test_histogram_matches_density_at_scale(self):
        w = sample_shift(1_000_000, seed=13)
        lo, hi = 0.9, 1.1
        frac = np.mean((w >= lo) & (w < hi))
        assert frac / (hi - lo) == pytest.approx(P_OMEGA_AT_SCALE, rel=0.02)


class TestExpect:
    def test_normalization(self):
        for omega_a in np.geomspace(1e-6, 10.0, 9):
            res = expect(lambda w: 1.0, NndMeasure(omega_a=float(omega_a)))
            assert abs(res.value - 1.0) <= 1e-8

    def test_indicator_pushforward(self):
        res = expect(lambda w: 1.0 if w >= 6.0 else 0.0, NndMeasure(omega_a=1.0))
        assert res.value == pytest.approx(1.0 - math.exp(-0.5), abs=1e-8)

    def test_divergent_integrand_reports(self):
        with pytest.raises(NonConvergenceError) as info:
            expect(lambda w: w, NndMeasure(omega_a=1.0), max_panels=300)
        assert info.value.best is not None
        assert info.value.error > 0

    def test_unbounded_at_head_rejected(self):
        with pytest.raises((ValueError, OverflowError)):
            expect(lambda w: math.exp(w), NndMeasure(omega_a=1.0))

    def test_error_estimate_covers_tolerance_change(self):
        m = NndMeasure(omega_a=0.3)
        f = lambda w: 1.0 / (1.0 + w ** 2)
        loose = expect(f, m, rtol=1e-6)
        tight = expect(f, m, rtol=5e-13, atol=1e-15)
        assert abs(loose.value - tight.value) <= max(loose.error, 1e-14)

    def test_against_scipy_quadrature(self):
        m = NndMeasure(omega_a=0.7)
        f = lambda w: 1.0 / (1.0 + w)
        ours = expect(f, m).value
        ref, _ = integrate.quad(lambda w: p_omega(w, 0.7) * f(w), 0.0,
                                np.inf, limit=400)
        assert ours == pytest.approx(ref, rel=1e-7)


class TestMeasure:
    def test_consistency_check(self):
        NndMeasure(omega_a=2.0, r_a=1.0, c6_abs=2.0)
        with pytest.raises(ValueError):
            NndMeasure(omega_a=1.0, r_a=1.0, c6_abs=2.0)
        with pytest.raises(ValueError):
            NndMeasure(omega_a=-1.0)

    def test_rejects_non_finite(self):
        for kw in (dict(omega_a=math.nan), dict(omega_a=math.inf),
                   dict(omega_a=1.0, r_a=math.nan, c6_abs=1.0)):
            with pytest.raises(ParameterError, match="must be finite"):
                NndMeasure(**kw)
