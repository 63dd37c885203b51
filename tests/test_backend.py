"""The closed-form shift average against the quadrature oracles."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from rydeit import DdiParams, EitParams, backend, beta_phi_ddi, rho31
from rydeit._gkrule import SEED_BREAKS, WG, WK, XK
from rydeit.params import mirror_detunings


def test_some_backend_active():
    assert backend.active_backend() in ("compiled", "python")


def test_rule_constants_consistent():
    # Kronrod weights integrate constants exactly on [-1, 1]
    assert WK.sum() == pytest.approx(2.0, abs=1e-14)
    assert WG.sum() == pytest.approx(2.0, abs=1e-14)
    assert np.all(np.abs(XK) < 1.0 - 1e-6) or XK[0] < 0
    try:
        from rydeit import _ddicore
    except ImportError:
        pytest.skip("compiled backend not built")
    np.testing.assert_allclose(_ddicore.SEED_BREAKS, SEED_BREAKS, rtol=0)


@pytest.mark.parametrize("point", [
    dict(delta_p=0.0, delta_c=0.0, gamma0=0.0, omega_c=1.0, omega_a=3.5e-5),
    dict(delta_p=1.0, delta_c=-1.0, gamma0=0.0, omega_c=1.0, omega_a=5.6e-4),
    dict(delta_p=-1.0, delta_c=1.0, gamma0=0.012, omega_c=1.4, omega_a=1e-6),
    dict(delta_p=0.3, delta_c=0.4, gamma0=0.05, omega_c=2.0, omega_a=0.1),
    dict(delta_p=0.0, delta_c=0.0, gamma0=0.0, omega_c=1.0, omega_a=0.0),
])
def test_backends_agree(point):
    results = {}
    for name, fn in backend.available_backends().items():
        out = fn(point["delta_p"], point["delta_c"], point["gamma0"],
                 point["omega_c"], point["omega_a"], 1.0, 1e-10, 1e-14, 10000)
        assert out[5], f"{name} did not converge"
        results[name] = out
    if len(results) < 2:
        pytest.skip("only one backend available")
    a, b = results["compiled"], results["python"]
    # values agree within the combined reported errors (plus round-off floor)
    assert abs(a[0] - b[0]) <= a[2] + b[2] + 1e-13
    assert abs(a[1] - b[1]) <= a[3] + b[3] + 1e-13


def test_python_backend_forced_by_env(tmp_path):
    code = ("import rydeit; import sys; "
            "sys.exit(0 if rydeit.active_backend() == 'python' else 1)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, RYDEIT_BACKEND="python"),
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


def test_determinism_repeated_calls():
    fn = backend.avg_susceptibility
    first = fn(0.5, -0.5, 0.01, 1.3, 2e-4)
    for _ in range(3):
        assert fn(0.5, -0.5, 0.01, 1.3, 2e-4) == first


def test_exp_e1_matches_scipy_over_the_plane():
    # |z| from 1e-8 to 300, half the points within 0.3 rad of the cut
    rng = np.random.default_rng(11)
    radius = 10.0 ** rng.uniform(-8.0, math.log10(300.0), 2000)
    angle = rng.uniform(-math.pi, math.pi, 2000)
    near_cut = np.arange(2000) % 2 == 0
    angle[near_cut] = np.copysign(
        math.pi - 10.0 ** rng.uniform(-10.0, math.log10(0.3), 1000),
        angle[near_cut])
    z = radius * np.exp(1j * angle)
    expected = np.exp(z) * special.exp1(z)
    got = np.array([backend._exp_e1(complex(v)) for v in z])
    # scipy's own relative error reaches about 1e-12 here
    assert np.max(np.abs(got - expected) / np.abs(expected)) < 1e-11


def _oracle_grid():
    """Seeded kernel-level points: (delta_p, delta_c, gamma0, omega_c,
    omega_a).  A repulsive (c6 > 0) point is averaged at mirrored detunings,
    which is how beta_phi_ddi maps it onto the kernel."""
    rng = np.random.default_rng(2026)
    points = []
    for i in range(240):
        sign = 1 if i % 2 else -1
        delta_p, delta_c = rng.uniform(-40.0, 40.0, 2)
        if i % 3 == 0:  # near the two-photon resonance
            delta_c = -delta_p + rng.uniform(-0.1, 0.1)
        gamma0 = 0.0 if i % 4 == 0 else rng.uniform(0.0, 0.5)
        omega_c = 10.0 ** rng.uniform(-1.0, math.log10(20.0))
        omega_a = 10.0 ** rng.uniform(-12.0, 1.0)
        points.append((sign * delta_p, sign * delta_c, gamma0, omega_c,
                       omega_a))
    # near-degenerate roots: Re z0 placed at -omega_a / 4
    while len(points) < 300:
        omega_c = 10.0 ** rng.uniform(-1.0, math.log10(20.0))
        delta_p = rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 40.0)
        gamma0 = 0.0 if len(points) % 2 else rng.uniform(0.0, 1e-5)
        omega_a = 10.0 ** rng.uniform(-2.0, 1.0)
        a_over_b = 0.5 * omega_c ** 2 / complex(2.0 * delta_p, 1.0)
        im_z0 = a_over_b.imag - gamma0
        re_z0 = -0.25 * omega_a * (1.0 + rng.uniform(-2e-3, 2e-3))
        if abs(1.0 + 4.0 * complex(re_z0, im_z0) / omega_a) > 1e-2:
            continue
        delta = a_over_b.real - re_z0
        points.append((delta_p, delta - delta_p, gamma0, omega_c, omega_a))
    # at the light-shifted two-photon resonance, |Re z0| <= 3 |Im z0|:
    # |1 / zeta| up to about 1e5, where either root formula can cancel
    for _ in range(40):
        omega_c = 10.0 ** rng.uniform(-1.0, math.log10(20.0))
        delta_p = rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 40.0)
        a_over_b = 0.5 * omega_c ** 2 / complex(2.0 * delta_p, 1.0)
        delta = a_over_b.real + rng.uniform(-3.0, 3.0) * a_over_b.imag
        points.append((delta_p, delta - delta_p, 0.0, omega_c,
                       10.0 ** rng.uniform(-2.0, 1.0)))
    # the exact omega_a = 0 case
    points += [(0.3, -0.3, 0.0, 1.0, 0.0), (-2.0, 1.5, 0.2, 0.4, 0.0)]
    return points


def test_closed_form_matches_quadrature_oracle():
    oracle = backend.available_backends()[backend.active_backend()]
    grid = _oracle_grid()
    degenerate = 0
    for point in grid:
        delta_p, delta_c, gamma0, omega_c, omega_a = point
        if omega_a > 0:
            z0 = (0.5 * omega_c ** 2 / complex(2.0 * delta_p, 1.0)
                  - complex(delta_p + delta_c, gamma0))
            degenerate += abs(1.0 + 4.0 * z0 / omega_a) <= 1e-2
        closed = backend.avg_susceptibility(*point)
        assert (closed.panels, closed.converged) == (0, True)
        quad = oracle(*point, 1.0, 1e-12, 0.0, 10000)
        assert abs(closed.re - quad[0]) <= closed.err_re + quad[2], point
        assert abs(closed.im - quad[1]) <= closed.err_im + quad[3], point
    assert degenerate >= 60


def test_zero_measure_is_the_bare_response():
    got = backend.avg_susceptibility(0.4, -1.1, 0.03, 1.2, 0.0)
    assert complex(got.re, got.im) == rho31(0.4, -1.1, 0.03, 1.2)


detuning = st.floats(-40.0, 40.0)
eit_points = st.builds(
    EitParams, omega_c=st.floats(0.1, 20.0), alpha=st.just(1.0),
    omega_p_in=st.floats(0.0, 0.09), delta_p=detuning, delta_c=detuning,
    gamma0=st.floats(0.0, 0.5))
strengths = st.one_of(st.just(0.0), st.floats(1e-3, 1e4))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(delta_p=detuning, delta_c=detuning, gamma0=st.floats(0.0, 0.5),
       omega_c=st.floats(0.1, 20.0),
       omega_a=st.one_of(st.just(0.0), st.floats(1e-12, 10.0)))
def test_passivity(delta_p, delta_c, gamma0, omega_c, omega_a):
    res = backend.avg_susceptibility(delta_p, delta_c, gamma0, omega_c,
                                     omega_a)
    assert res.im >= 0.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(eit=eit_points, strength=strengths)
def test_positive_c6_mirror_is_an_involution(eit, strength):
    assert mirror_detunings(mirror_detunings(eit)) == eit
    attractive = beta_phi_ddi(eit, DdiParams(combined_strength=strength))
    repulsive = beta_phi_ddi(mirror_detunings(eit),
                             DdiParams(combined_strength=strength, c6_sign=1))
    assert repulsive.beta == attractive.beta
    assert repulsive.phi == -attractive.phi
    assert repulsive.delta_phi == -attractive.delta_phi
