"""Mean-field DDI-averaged attenuation and phase shift.

beta_phi_ddi averages rho31 over the nearest-neighbor shift measure exactly,
with the closed form in backend.avg_susceptibility.  Adaptive quadrature of
the same average is the independent oracle (backend.available_backends()).
delta_beta_phi_on_resonance is a quadrature route: it integrates the
explicit on-resonance kernels with nnd.expect, and the rtol, atol and
max_panels arguments govern only such routes.  For attractive interactions
(c6 < 0) the coupling detuning is shifted by +omega under the average;
repulsive interactions are handled by mirroring the detunings and negating
the phase, which is algebraically identical to averaging with -omega.
"""

from dataclasses import dataclass

from . import backend, nnd
from .exceptions import ContractViolationError, NonConvergenceError
from .params import DdiParams, EitParams, derive_scales, mirror_detunings
from .response import beta0_phi0


@dataclass(frozen=True)
class DdiResponse:
    """DDI-averaged response with error bounds (panels is 0 for the closed
    form)."""

    beta: float
    phi: float
    delta_beta: float
    delta_phi: float
    err_beta: float
    err_phi: float
    panels: int


def _avg_response(eit: EitParams, omega_a, rtol, atol, max_panels):
    res = backend.avg_susceptibility(
        eit.delta_p, eit.delta_c, eit.gamma0, eit.omega_c, omega_a,
        eit.gamma, rtol, atol, max_panels)
    ag = eit.alpha * eit.gamma
    beta = ag * res.im
    phi = 0.5 * ag * res.re
    b0, p0 = beta0_phi0(eit)
    out = DdiResponse(
        beta=beta, phi=phi, delta_beta=beta - b0, delta_phi=phi - p0,
        err_beta=ag * res.err_im, err_phi=0.5 * ag * res.err_re,
        panels=res.panels)
    return out, res.converged


def beta_phi_ddi(eit: EitParams, ddi: DdiParams, rtol=1e-8, atol=1e-12,
                 max_panels=10000) -> DdiResponse:
    """DDI-averaged attenuation coefficient and phase shift.

    Evaluated in closed form; rtol, atol and max_panels are accepted for
    compatibility and do not affect the result.  Raises NonConvergenceError
    carrying the partial DdiResponse if the kernel reports non-convergence,
    which the closed form never does.
    """
    omega_a = derive_scales(eit, ddi).omega_a
    if ddi.sign > 0:
        res, ok = _avg_response(mirror_detunings(eit), omega_a, rtol, atol,
                                max_panels)
        res = DdiResponse(
            beta=res.beta, phi=-res.phi, delta_beta=res.delta_beta,
            delta_phi=-res.delta_phi, err_beta=res.err_beta,
            err_phi=res.err_phi, panels=res.panels)
    else:
        res, ok = _avg_response(eit, omega_a, rtol, atol, max_panels)
    if not ok:
        raise NonConvergenceError(
            f"DDI average did not converge within {max_panels} panels",
            partial=res)
    return res


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
