"""Mean-field DDI-averaged attenuation and phase shift.

beta_phi_ddi_array averages rho31 over the nearest-neighbor shift measure
exactly, with the closed form in backend.avg_susceptibility, at arrays of
detunings and probe amplitudes; beta_phi_ddi is its one-point form.  Adaptive
quadrature of the same average is the independent oracle
(backend.available_backends()).  delta_beta_phi_on_resonance is a quadrature
route: it integrates the explicit on-resonance kernels with nnd.expect, and
the rtol, atol and max_panels arguments govern only such routes.  For
attractive interactions (c6 < 0) the coupling detuning is shifted by +omega
under the average; repulsive interactions are handled by mirroring the
detunings and negating the phase, which is algebraically identical to
averaging with -omega.
"""

from dataclasses import dataclass

import numpy as np

from . import backend, nnd
from .exceptions import ContractViolationError, ParameterError
from .params import (DdiParams, EitParams, derive_scales, mirror_detunings,
                     shift_scale, warn_if_strong_probe)
from .response import rho31


@dataclass(frozen=True)
class DdiResponse:
    """DDI-averaged response with error bounds (panels is 0 for the closed
    form).  Fields are floats from beta_phi_ddi and arrays from
    beta_phi_ddi_array."""

    beta: float
    phi: float
    delta_beta: float
    delta_phi: float
    err_beta: float
    err_phi: float
    panels: int


def _finite(name, value):
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} must be finite")
    return arr


def beta_phi_ddi_array(eit: EitParams, ddi: DdiParams | None, delta_p,
                       delta_c, omega_p_in=None) -> DdiResponse:
    """Attenuation coefficient and phase shift, averaged over the DDI shift,
    at arrays of points.

    delta_p, delta_c and omega_p_in (default eit.omega_p_in) broadcast
    together and stand in for those fields of `eit`, which supplies the
    rest.  Returns a DdiResponse of arrays of the broadcast shape; delta_*
    are the excess over the response without the interaction.  With
    ddi=None that response itself is returned, with zero excess and errors.
    The closed-form average is evaluated once per point.
    """
    arrays = (_finite("delta_p", delta_p), _finite("delta_c", delta_c),
              _finite("omega_p_in",
                      eit.omega_p_in if omega_p_in is None else omega_p_in))
    shape = np.broadcast(*arrays).shape
    # np.full rather than np.broadcast_arrays: a fraction of the fixed cost
    dp, dc, wp = (a if a.shape == shape else np.full(shape, a)
                  for a in arrays)
    if omega_p_in is not None and wp.size:
        if np.any(wp < 0):
            raise ParameterError("omega_p_in must be non-negative")
        warn_if_strong_probe(float(wp.max()), eit.omega_c, eit.gamma)
    if ddi is not None and ddi.sign > 0:
        dp, dc = -dp, -dc
    ag = eit.alpha * eit.gamma
    chi0 = rho31(dp, dc, eit.gamma0, eit.omega_c, eit.gamma)
    beta0 = ag * chi0.imag
    phi0 = 0.5 * ag * chi0.real
    if ddi is None:
        zero = np.zeros(shape)
        return DdiResponse(beta=beta0, phi=phi0, delta_beta=zero,
                           delta_phi=zero, err_beta=zero, err_phi=zero,
                           panels=0)

    avg = backend.avg_susceptibility
    g0, wc, g = eit.gamma0, eit.omega_c, eit.gamma
    strength = ddi.strength
    re, im, err_re, err_im = np.array(
        [avg(p, c, g0, wc, shift_scale(strength, w, wc), g)[:4]
         for p, c, w in zip(dp.ravel().tolist(), dc.ravel().tolist(),
                            wp.ravel().tolist())],
        dtype=float).reshape(-1, 4).T.reshape((4,) + shape)
    beta = ag * im
    phi = 0.5 * ag * re
    delta_phi = phi - phi0
    if ddi.sign > 0:
        phi, delta_phi = -phi, -delta_phi
    return DdiResponse(
        beta=beta, phi=phi, delta_beta=beta - beta0, delta_phi=delta_phi,
        err_beta=ag * err_im, err_phi=0.5 * ag * err_re, panels=0)


def beta_phi_ddi(eit: EitParams, ddi: DdiParams, rtol=1e-8, atol=1e-12,
                 max_panels=10000) -> DdiResponse:
    """DDI-averaged attenuation coefficient and phase shift at one point.

    Evaluated in closed form by beta_phi_ddi_array; rtol, atol and
    max_panels are accepted for compatibility and do not affect the result.
    """
    # a one-element array, not a 0-d one: numpy's scalar complex arithmetic
    # rounds differently from its array loops
    r = beta_phi_ddi_array(eit, ddi, [eit.delta_p], eit.delta_c)
    return DdiResponse(
        beta=float(r.beta[0]), phi=float(r.phi[0]),
        delta_beta=float(r.delta_beta[0]), delta_phi=float(r.delta_phi[0]),
        err_beta=float(r.err_beta[0]), err_phi=float(r.err_phi[0]), panels=0)


def delta_beta_phi_on_resonance(eit: EitParams, ddi: DdiParams, rtol=1e-8,
                                atol=1e-12, max_panels=10000):
    """DDI excess at gamma0 = 0 and two-photon resonance, via the explicit
    Lorentzian kernels in the shift variable.

    Algebraically identical to beta_phi_ddi at the same point but runs
    through the generic scalar expectation, so it doubles as an independent
    route for cross-checks.  Returns (delta_beta, delta_phi).
    """
    if eit.gamma0 != 0:
        raise ContractViolationError("on-resonance integrals need gamma0 = 0")
    if eit.delta != 0:
        raise ContractViolationError(
            "on-resonance integrals need delta_p + delta_c = 0")

    work = mirror_detunings(eit) if ddi.sign > 0 else eit
    g, wc2 = work.gamma, work.omega_c ** 2
    dc = work.delta_c
    measure = nnd.NndMeasure(omega_a=derive_scales(work, ddi).omega_a)

    def f_beta(w):
        return 4.0 * w ** 2 * g / (4.0 * w ** 2 * g ** 2 + (4.0 * w * dc + wc2) ** 2)

    def f_phi(w):
        return ((8.0 * w ** 2 * dc + 2.0 * w * wc2)
                / (4.0 * w ** 2 * g ** 2 + (4.0 * w * dc + wc2) ** 2))

    ag = eit.alpha * eit.gamma
    delta_beta = ag * nnd.expect(f_beta, measure, rtol, atol, max_panels).value
    delta_phi = 0.5 * ag * nnd.expect(f_phi, measure, rtol, atol, max_panels).value
    if ddi.sign > 0:
        delta_phi = -delta_phi
    return delta_beta, delta_phi
