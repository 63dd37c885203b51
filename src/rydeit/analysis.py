"""Spectrum sweeps, peak finding, slope extraction and ensemble-factor
calibration.

Sweeps run over the two-photon detuning: a probe-frequency sweep holds the
coupling detuning fixed (delta_p = -delta_c + delta), a coupling-frequency
sweep holds the probe detuning fixed (delta_c = -delta_p + delta).
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .ddi import beta_phi_ddi_array
from .exceptions import (ParameterError, PeakNotBracketedError,
                         UnidentifiableFitError)
from .params import DdiParams, EitParams, derive_scales
from .response import beta0_phi0_approx

PROBE_AXIS = "probe"
COUPLING_AXIS = "coupling"

# "much smaller than one" thresholds for the closed-form validity indicators
VALIDITY_BETA_CUTOFF = 0.05
VALIDITY_PHI_CUTOFF = 0.1


@dataclass(frozen=True)
class SweepResult:
    """Attenuation coefficient and phase over a two-photon-detuning grid."""

    axis: str
    grid: np.ndarray
    beta: np.ndarray
    phase: np.ndarray
    with_ddi: bool
    eit: EitParams
    ddi: DdiParams | None
    err_beta: np.ndarray
    err_phi: np.ndarray

    @property
    def transmission(self):
        """exp(-beta); underflows to 0 where beta exceeds about 745."""
        return np.exp(-self.beta)

    @property
    def converged(self):
        """All True: the closed-form shift average always converges."""
        return np.ones(self.grid.shape, dtype=bool)


@dataclass(frozen=True)
class PeakEstimate:
    """Sub-grid peak position and the grid resolution it was refined from."""

    delta: float
    resolution: float


@dataclass(frozen=True)
class SlopeFit:
    """Ordinary-least-squares line through (x, y) samples."""

    slope: float
    intercept: float
    residual_sum: float
    n_points: int


@dataclass(frozen=True)
class EpsilonFit:
    """Ensemble-factor estimate from slope observations."""

    epsilon: float
    stderr: float
    x: float
    residual_sum: float
    n_obs: int
    clamped: bool


@dataclass(frozen=True)
class RegimeReport:
    """Weak-interaction and formula-validity indicators."""

    blockade_ratio: float
    linewidth_ratio: float
    validity_beta: float
    validity_phi: float
    beta_formula_ok: bool
    phi_formula_ok: bool
    perturbative_probe: bool
    r_a_um: float | None = None
    r_b_um: float | None = None


def sweep(eit: EitParams, ddi: DdiParams | None, axis: str, grid,
          with_ddi=True, rtol=1e-8, atol=1e-12, max_panels=10000) -> SweepResult:
    """Attenuation and phase spectrum over a two-photon-detuning grid, in one
    beta_phi_ddi_array call.  rtol, atol and max_panels are accepted for
    compatibility and do not affect the closed-form average."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    if not np.all(np.isfinite(grid)):
        raise ParameterError("grid must be finite")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    if with_ddi and ddi is None:
        raise ValueError("with_ddi=True needs DdiParams")
    if axis == PROBE_AXIS:
        delta_p, delta_c = -eit.delta_c + grid, eit.delta_c
    elif axis == COUPLING_AXIS:
        delta_p, delta_c = eit.delta_p, -eit.delta_p + grid
    else:
        raise ValueError(f"unknown sweep axis {axis!r}")
    r = beta_phi_ddi_array(eit, ddi if with_ddi else None, delta_p, delta_c)
    return SweepResult(
        axis=axis, grid=grid, beta=r.beta, phase=r.phi, with_ddi=with_ddi,
        eit=eit, ddi=ddi, err_beta=r.err_beta, err_phi=r.err_phi)


def find_peak(result: SweepResult) -> PeakEstimate:
    """Highest interior local maximum of the transmission, refined below the
    grid step by a parabola through it and its neighbors.

    A local maximum rises strictly from its left neighbor and does not fall
    to its right one; edge points never count, so a higher edge does not
    hide an interior peak.  Raises PeakNotBracketedError when no interior
    point is a local maximum.
    """
    t = result.transmission
    inner = t[1:-1]
    local_max = (inner > t[:-2]) & (inner >= t[2:])
    if not np.any(local_max):
        raise PeakNotBracketedError(
            "peak not bracketed: no interior local maximum")
    i = 1 + int(np.argmax(np.where(local_max, inner, -np.inf)))
    x0, x1, x2 = result.grid[i - 1: i + 2]
    y0, y1, y2 = t[i - 1: i + 2]
    # vertex of the quadratic through three (possibly non-uniform) points
    d1 = (y1 - y0) / (x1 - x0)
    d2 = (y2 - y1) / (x2 - x1)
    curvature = (d2 - d1) / (x2 - x0)
    resolution = max(x1 - x0, x2 - x1)
    if curvature >= 0:
        return PeakEstimate(delta=float(x1), resolution=float(resolution))
    vertex = 0.5 * (x0 + x1 - d1 / curvature)
    return PeakEstimate(delta=float(vertex), resolution=float(resolution))


def _ols(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([x, np.ones_like(x)])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 2:
        raise ParameterError("singular design: need at least two distinct powers")
    resid = y - design @ coef
    return SlopeFit(slope=float(coef[0]), intercept=float(coef[1]),
                    residual_sum=float(resid @ resid), n_points=x.size)


def slope_vs_probe_power(eit: EitParams, ddi: DdiParams, powers,
                         use="quadrature", rtol=1e-8, atol=1e-12,
                         max_panels=10000):
    """Least-squares slopes of beta and phi against the squared input probe
    Rabi frequency.

    `use` selects the data source: "quadrature" (DDI average plus the exact
    no-DDI offset) or "analytic" (corrected closed forms on top of the
    leading-order offsets).  Returns (SlopeFit for beta, SlopeFit for phi).
    """
    powers = np.asarray(powers, dtype=float)
    if powers.size < 2:
        raise ParameterError("need at least two probe powers")
    if not np.all(np.isfinite(powers) & (powers >= 0)):
        raise ParameterError("probe powers must be finite and non-negative")
    if use == "quadrature":
        r = beta_phi_ddi_array(eit, ddi, eit.delta_p, eit.delta_c,
                               np.sqrt(powers))
        betas, phis = r.beta, r.phi
    elif use == "analytic":
        betas = np.empty(powers.size)
        phis = np.empty(powers.size)
        for i, p in enumerate(powers):
            point = dataclasses.replace(eit, omega_p_in=math.sqrt(p))
            b0, p0 = beta0_phi0_approx(point)
            pred = analytic.delta_beta_phi_corrected(point, ddi)
            betas[i] = b0 + pred.delta_beta
            phis[i] = p0 + pred.delta_phi
    else:
        raise ValueError(f"unknown source {use!r}")
    return _ols(powers, betas), _ols(powers, phis)


def fit_epsilon(observations, eit: EitParams, c6: float, n_atom: float,
                weights=None) -> EpsilonFit:
    """Calibrate the ensemble factor from slope observations.

    observations: iterable of (delta_c, slope_beta, slope_phi) or
    (delta_c, slope_beta, slope_phi, weight).  Both slope formulas are linear
    in X = sqrt(|c6|) n_atom epsilon, so the fit is a weighted linear
    inversion for X >= 0; the template's gamma0 and two-photon detuning are
    held while delta_c takes each observed value.  A negative solution is
    clamped to zero and flagged.
    """
    obs = [tuple(map(float, o)) for o in observations]
    if not obs:
        raise UnidentifiableFitError("no observations")
    if weights is None:
        w = np.array([o[3] if len(o) > 3 else 1.0 for o in obs])
    else:
        w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ParameterError("weights must be non-negative")

    delta_template = eit.delta
    g_list, y_list, w_list = [], [], []
    for (dc, sb, sp, *_), wi in zip(obs, w):
        point = dataclasses.replace(
            eit, delta_c=dc, delta_p=delta_template - dc)
        gb, gp = analytic.unit_power_slopes(point)
        g_list += [gb, gp]
        y_list += [sb, sp]
        w_list += [wi, wi]
    g = np.array(g_list)
    y = np.array(y_list)
    ww = np.array(w_list)

    if not np.any(y):
        raise UnidentifiableFitError("all slope observations are zero")
    denom = float(ww @ (g * g))
    if denom == 0:
        raise UnidentifiableFitError("slope model vanishes for all observations")
    x = float(ww @ (g * y)) / denom
    clamped = x < 0
    if clamped:
        x = 0.0
    resid = y - x * g
    residual_sum = float(ww @ (resid * resid))
    dof = max(len(y) - 1, 1)
    stderr_x = math.sqrt(residual_sum / dof / denom)
    scale = math.sqrt(abs(c6)) * n_atom
    return EpsilonFit(epsilon=x / scale, stderr=stderr_x / scale, x=x,
                      residual_sum=residual_sum, n_obs=len(obs),
                      clamped=clamped)


def regime_report(eit: EitParams, ddi: DdiParams) -> RegimeReport:
    """Weak-interaction indicators and closed-form validity flags."""
    scales = derive_scales(eit, ddi)
    vb = scales.linewidth_ratio ** 1.5
    vp = scales.linewidth_ratio ** 0.5
    return RegimeReport(
        blockade_ratio=scales.blockade_ratio,
        linewidth_ratio=scales.linewidth_ratio,
        validity_beta=vb,
        validity_phi=vp,
        beta_formula_ok=vb < VALIDITY_BETA_CUTOFF,
        phi_formula_ok=vp < VALIDITY_PHI_CUTOFF,
        perturbative_probe=eit.omega_p_in < min(eit.omega_c, eit.gamma),
        r_a_um=scales.r_a,
        r_b_um=scales.r_b,
    )
