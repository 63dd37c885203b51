"""Nearest-neighbor statistics of randomly placed Rydberg excitations.

Distance distribution P(r), the induced frequency-shift distribution
P(omega), its heavy-tail approximation, a Monte-Carlo sampler, and the
expectation functional over the shift measure.  The expectation integrates in
u = r^3/r_a^3, where the measure is exactly exp(-u) du: this removes both the
essential singularity of P(omega) at omega -> 0+ and the omega^(-3/2) tail.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import _gkrule
from .exceptions import NonConvergenceError
from .params import require_finite


@dataclass(frozen=True)
class NndMeasure:
    """Frequency-shift measure, characterised by its scale omega_a.

    r_a and the magnitude of c6 are optional; when both are supplied they must
    satisfy omega_a = |c6| / r_a^6.
    """

    omega_a: float
    r_a: float | None = None
    c6_abs: float | None = None

    def __post_init__(self):
        require_finite(self, ("omega_a", "r_a", "c6_abs"))
        if self.omega_a < 0:
            raise ValueError("omega_a must be non-negative")
        if self.r_a is not None and self.c6_abs is not None:
            expected = self.c6_abs / self.r_a ** 6
            if abs(expected - self.omega_a) > 1e-10 * max(abs(expected), abs(self.omega_a)):
                raise ValueError("omega_a inconsistent with |c6| / r_a^6")


@dataclass(frozen=True)
class ExpectResult:
    """Value of a shift-measure average with its error estimate."""

    value: float
    error: float
    panels: int


def _as_positive_array(x, name, allow_zero=False):
    arr = np.asarray(x, dtype=float)
    if allow_zero:
        if np.any(arr < 0):
            raise ValueError(f"{name} must be non-negative")
    elif np.any(arr <= 0):
        raise ValueError(f"{name} must be positive")
    return arr


def p_r(r, r_a=1.0):
    """Nearest-neighbor distance density 3 r^2 / r_a^3 * exp(-r^3 / r_a^3)."""
    arr = _as_positive_array(r, "r", allow_zero=True)
    x = arr / r_a
    out = 3.0 * x ** 2 / r_a * np.exp(-(x ** 3))
    return float(out) if np.isscalar(r) or out.ndim == 0 else out


def omega_of_r(r, r_a=1.0, omega_a=1.0):
    """Magnitude of the DDI shift at nearest-neighbor distance r.

    omega_a * ((r_a/r)^6 + (r_a/r)^3): the near-neighbor term plus the
    uniform background of all farther excitations.  Strictly decreasing in r;
    the sign convention (attractive c6 < 0) is applied by the response layer.
    """
    arr = _as_positive_array(r, "r")
    y = r_a / arr
    out = omega_a * (y ** 6 + y ** 3)
    return float(out) if np.isscalar(r) or out.ndim == 0 else out


def p_omega(omega, omega_a=1.0):
    """Frequency-shift density, the pushforward of p_r under omega_of_r.

    Defined for omega > 0; the omega -> 0+ limit is 0 (the exponential factor
    decays faster than the algebraic prefactor diverges).
    """
    arr = _as_positive_array(omega, "omega", allow_zero=True)
    x = arr / omega_a
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sqrt(1.0 + 4.0 * x)
        u = (1.0 + s) / (2.0 * x)
        out = (1.0 + s) ** 2 / (4.0 * x ** 2 * s) * np.exp(-u) / omega_a
    # x -> 0+ underflows exp before the prefactor overflows; both limits are 0
    out = np.where(np.isfinite(out), out, 0.0)
    out = np.where(x == 0.0, 0.0, out)
    return float(out) if np.isscalar(omega) or out.ndim == 0 else out


def p_omega_tail(omega, omega_a=1.0):
    """Large-shift approximation sqrt(omega_a) / (2 omega^(3/2))."""
    arr = _as_positive_array(omega, "omega")
    out = np.sqrt(omega_a) / (2.0 * arr ** 1.5)
    return float(out) if np.isscalar(omega) or out.ndim == 0 else out


def sample_shift(count, seed, omega_a=1.0):
    """Draw `count` frequency shifts from p_omega.

    Uses that u = r^3/r_a^3 is unit exponential, so
    omega = omega_a * (u^-2 + u^-1) is an exact sample.  Deterministic for a
    fixed seed.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    u = rng.standard_exponential(int(count))
    return omega_a * (u ** -2.0 + u ** -1.0)


def shift_cdf(omega, omega_a=1.0):
    """Closed-form cumulative of p_omega: exp(-u(omega)), u the positive root
    of x u^2 - u - 1 = 0 with x = omega/omega_a."""
    arr = _as_positive_array(omega, "omega", allow_zero=True)
    x = arr / omega_a
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (1.0 + np.sqrt(1.0 + 4.0 * x)) / (2.0 * x)
        out = np.exp(-u)
    out = np.where(x == 0.0, 0.0, out)
    return float(out) if np.isscalar(omega) or out.ndim == 0 else out


def _panel(f_of_u, a, b):
    """15-point Kronrod value, embedded Gauss value and their difference."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    k = g = 0.0
    for x, wk, wg in zip(_gkrule.XK, _gkrule.WK, _gkrule.WG):
        v = f_of_u(c + h * x)
        k += wk * v
        g += wg * v
    return h * k, abs(h * (k - g))


def expect(f, measure: NndMeasure, rtol=_gkrule.DEFAULT_RTOL,
           atol=_gkrule.DEFAULT_ATOL, max_panels=_gkrule.MAX_PANELS) -> ExpectResult:
    """Average a bounded function of the shift over the nearest-neighbor
    measure: integral of p_omega(w) f(w) dw on (0, inf).

    f must stay bounded with a finite limit for large shifts; the tail
    p_omega ~ omega^(-3/2) then guarantees convergence.  Integration runs in
    u-space on [U_MIN, U_MAX]; the head (0, U_MIN] is added back as
    (1 - exp(-U_MIN)) * f(omega(U_MIN)) with a variation-probe error bound, so
    divergent integrands (f ~ omega) blow up that bound and are reported as
    non-convergent instead of looping forever.

    Raises NonConvergenceError (carrying the best estimate and achieved
    error) when the panel budget is exhausted.
    """
    omega_a = measure.omega_a

    def g(u):
        return math.exp(-u) * f(_gkrule.omega_of_u(u, omega_a))

    u_min, u_max = _gkrule.U_MIN, _gkrule.U_MAX
    f_head = f(_gkrule.omega_of_u(u_min, omega_a))
    if not math.isfinite(f_head):
        raise ValueError("f is unbounded for large shifts")
    head_value = -math.expm1(-u_min) * f_head
    head_err = u_min * abs(f(_gkrule.omega_of_u(0.5 * u_min, omega_a)) - f_head)
    tail_err = math.exp(-u_max) * abs(f(_gkrule.omega_of_u(u_max, omega_a)))

    # max-heap of panels keyed by error; counter breaks ties deterministically
    heap = []
    counter = 0
    total = head_value
    total_err = head_err + tail_err
    breaks = _gkrule.SEED_BREAKS
    for a, b in zip(breaks[:-1], breaks[1:]):
        val, err = _panel(g, a, b)
        heapq.heappush(heap, (-err, counter, a, b, val, err))
        counter += 1
        total += val
        total_err += err

    def converged():
        return total_err <= max(atol, rtol * abs(total))

    while not converged() and len(heap) < max_panels:
        neg_err, _, a, b, val, err = heapq.heappop(heap)
        total -= val
        total_err -= err
        m = 0.5 * (a + b)
        for lo, hi in ((a, m), (m, b)):
            v, e = _panel(g, lo, hi)
            heapq.heappush(heap, (-e, counter, lo, hi, v, e))
            counter += 1
            total += v
            total_err += e

    # deterministic final summation, ordered by panel position
    panels = sorted((a, val, err) for _, _, a, _, val, err in heap)
    value = math.fsum([head_value] + [p[1] for p in panels])
    error = math.fsum([head_err, tail_err] + [p[2] for p in panels])

    if error > max(atol, rtol * abs(value)):
        raise NonConvergenceError(
            f"shift average did not reach tolerance {rtol:g} within "
            f"{max_panels} panels (achieved {error:g})",
            best=value,
            error=error,
        )
    return ExpectResult(value=value, error=error, panels=len(panels))
